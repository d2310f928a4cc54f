"""Linear dynamical systems: representation, simulation, and diagnostics.

This module provides the dense-matrix building blocks used by the rest of
the package: the :class:`LinearSystem` container (time-invariant or
time-varying, optionally partially observed), perturbation sources, cost
functions, the simulation loop, and classical system diagnostics (spectral
radius, Lyapunov certificates, controllability, observability, and
numerical linearization of nonlinear dynamics).

Conventions
-----------
* Time is 0-based: a horizon-``T`` run visits steps ``t = 0, ..., T-1``.
* States evolve as ``x_{t+1} = A_t x_t + B_t u_t + w_t`` and observations
  are ``y_t = C_t x_t`` (identity when no ``C`` is given).
* The initial state defaults to the zero vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, EvaluationError

__all__ = [
    "LinearSystem",
    "PerturbationSource",
    "QuadraticCost",
    "CallableCost",
    "Trajectory",
    "step",
    "observe",
    "spectral_radius",
    "lyapunov_certificate",
    "controllability",
    "observability_rank",
    "linearize",
    "simulate",
]

#: Relative singular-value cutoff used for all numerical ranks.
RANK_TOL = 1e-9

#: Tolerance on the minimum eigenvalue, and relative tolerance on the
#: asymmetry, when validating PSD matrices (:func:`_check_psd`).
TOL_PSD = 1e-9

#: Default finite-difference step for Jacobian computation.
FD_STEP = 1e-5


def _as_matrix(M: object, name: str, shape: object = None) -> np.ndarray:
    """Coerce to a 2-D float array with finite entries.

    ``shape``, when given, is the ``(rows, columns)`` the matrix must have,
    None standing for any length: ``(d_x, None)`` takes d_x rows and any
    number of columns.  ``shape="square"`` asks for as many columns as rows.
    A matrix that is not 2-D, has a non-finite entry, or has another shape
    raises :class:`ConfigurationError`, the last as ``"{name} has shape
    {got}, expected {want}"``.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise ConfigurationError(f"{name} must be a 2-D matrix, got shape {A.shape}")
    if not _all_finite(A):
        raise ConfigurationError(f"{name} contains non-finite entries")
    if shape is not None:
        shape = (A.shape[0],) * 2 if shape == "square" else shape
        if any(n is not None and n != got for n, got in zip(shape, A.shape)):
            raise ConfigurationError(f"{name} has shape {A.shape}, expected {shape}")
    return A


def _all_finite(M: np.ndarray) -> bool:
    """Whether every entry of ``M`` is finite.  Counting the finite entries
    scans them all, like ``np.isfinite(M).all()``, in about half its time,
    and unlike a sum it never warns (on overflow, or on ``inf - inf``)."""
    return np.count_nonzero(np.isfinite(M)) == M.size


def _read_only(M: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """A read-only copy of ``M``; None stays None."""
    if M is not None:
        M = M.copy()
        M.flags.writeable = False
    return M


def _check_psd(M: object, name: str, shape: object = "square") -> np.ndarray:
    """Coerce with :func:`_as_matrix` to ``shape`` (square by default),
    require symmetry to ``TOL_PSD * max(1, max |M_ij|)`` and no eigenvalue
    below ``-TOL_PSD``, and return the symmetric part."""
    M = _as_matrix(M, name, shape)
    if np.max(np.abs(M - M.T)) > TOL_PSD * max(1.0, np.max(np.abs(M))):
        raise ConfigurationError(f"{name} must be symmetric")
    M = 0.5 * (M + M.T)
    if np.linalg.eigvalsh(M).min() < -TOL_PSD:
        raise ConfigurationError(f"{name} must be positive semidefinite")
    return M


def _as_vector(v: object, dim: Optional[int], name: str) -> np.ndarray:
    """Coerce to a float vector of ``dim`` entries, None standing for any
    number; a scalar counts as one entry.  Any other shape raises
    :class:`ConfigurationError` as ``"{name} has shape {got}, expected
    ({dim},)"``.  A float64 vector of ``dim`` entries is returned as it is,
    without a copy or a scan of its entries."""
    if type(v) is np.ndarray and v.shape == (dim,) and v.dtype == np.float64:
        return v
    x = np.atleast_1d(np.asarray(v, dtype=float))
    if x.ndim != 1 or dim is not None and len(x) != dim:
        raise ConfigurationError(f"{name} has shape {x.shape}, expected {(dim,)}")
    return x


def _finite_vector(v: object, dim: int, name: str) -> np.ndarray:
    """:func:`_as_vector`, also rejecting a non-finite entry."""
    v = _as_vector(v, dim, name)
    if not _all_finite(v):
        raise ConfigurationError(f"{name} contains non-finite entries")
    return v


def _whole(value: object, minimum: int, name: str) -> int:
    """``value`` as an int, if it is a whole number (``2000.0`` is) of at
    least ``minimum``; otherwise a configuration error, also for NaN and
    infinity."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not (number.is_integer() and number >= minimum):
        raise ConfigurationError(f"{name} must be a whole number >= {minimum}, got {value!r}")
    return int(number)


class LinearSystem:
    """A (possibly time-varying, possibly partially observed) linear system.

    The system evolves as ``x_{t+1} = A_t x_t + B_t u_t + w_t`` with
    observation ``y_t = C_t x_t``.  When no observation matrix is supplied
    the state itself is observed (``C = I``).

    Use :meth:`time_invariant` or :meth:`time_varying` to construct.

    Attributes
    ----------
    d_x, d_u, d_y : int
        State, control, and observation dimensions.
    """

    def __init__(
        self,
        d_x: int,
        d_u: int,
        d_y: int,
        A: Optional[np.ndarray] = None,
        B: Optional[np.ndarray] = None,
        C: Optional[np.ndarray] = None,
        provider: Optional[Callable[[int], tuple]] = None,
    ):
        self.d_x = _whole(d_x, 1, "d_x")
        self.d_u = _whole(d_u, 1, "d_u")
        self.d_y = _whole(d_y, 1, "d_y")
        self._A = A
        self._B = B
        self._C = C
        self._provider = provider
        self._held: tuple = (None, None)  # (t, matrices(t)) of a provider

    # -- constructors -------------------------------------------------

    @classmethod
    def time_invariant(
        cls,
        A: object,
        B: object,
        C: Optional[object] = None,
    ) -> "LinearSystem":
        """Build a fixed-matrix system from ``A`` (d_x×d_x), ``B`` (d_x×d_u),
        and optional ``C`` (d_y×d_x).  The system keeps read-only copies, so
        later writes into the arrays passed in do not reach it."""
        A = _as_matrix(A, "A", "square")
        d_x = A.shape[0]
        B = _as_matrix(B, "B", (d_x, None))
        C = None if C is None else _as_matrix(C, "C", (None, d_x))
        d_y = d_x if C is None else C.shape[0]
        return cls(d_x, B.shape[1], d_y, *map(_read_only, (A, B, C)))

    @classmethod
    def time_varying(
        cls,
        provider: Callable[[int], tuple],
        d_x: int,
        d_u: int,
        d_y: Optional[int] = None,
    ) -> "LinearSystem":
        """Build a time-varying system from ``provider(t)`` returning
        ``(A_t, B_t)`` or ``(A_t, B_t, C_t)``.  The provider must be a
        function of ``t``; it is called once per step of a closed loop and of
        each comparator sweep, and it may reuse its buffers."""
        return cls(d_x, d_u, d_x if d_y is None else d_y, provider=provider)

    # -- accessors ----------------------------------------------------

    def matrices(self, t: int) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Return ``(A_t, B_t, C_t)``; ``C_t`` is None for full observation.
        The matrices are read-only validated copies that the system owns; a
        provider's last step's are kept, so calls within one step make one
        provider call."""
        if self._provider is None:
            return self._A, self._B, self._C
        if self._held[0] == t:
            return self._held[1]
        out = self._provider(int(t))
        A = _as_matrix(out[0], f"A_{t}", (self.d_x, self.d_x))
        B = _as_matrix(out[1], f"B_{t}", (self.d_x, self.d_u))
        C = out[2] if len(out) > 2 else None
        C = None if C is None else _as_matrix(C, f"C_{t}", (self.d_y, self.d_x))
        self._held = (t, tuple(map(_read_only, (A, B, C))))
        return self._held[1]

    def stacks(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(A, B, C)`` stacks of steps ``start <= t < stop``, ``C_t = None`` as
        the identity: read-only views of fixed matrices, else copies."""
        identity = np.eye(self.d_y, self.d_x)
        if self._provider is None:
            n, C = stop - start, identity if self._C is None else self._C
            return tuple(np.broadcast_to(M, (n,) + M.shape) for M in (self._A, self._B, C))
        A, B, C = zip(*(self.matrices(t) for t in range(start, stop)))
        return np.stack(A), np.stack(B), np.stack([identity if M is None else M for M in C])


def step(system: LinearSystem, x: object, u: object, w: object, t: int = 0) -> np.ndarray:
    """Advance one step: return ``A_t x + B_t u + w`` exactly.

    Parameters
    ----------
    system : LinearSystem
    x, u, w : array_like
        State (d_x), control (d_u), and perturbation (d_x) vectors.
    t : int
        Time index, used to query time-varying matrices.

    Returns
    -------
    numpy.ndarray
        The next state, shape (d_x,).
    """
    x = _finite_vector(x, system.d_x, "x")
    u = _finite_vector(u, system.d_u, "u")
    w = _finite_vector(w, system.d_x, "w")
    A, B, _ = system.matrices(t)
    return A @ x + B @ u + w


def observe(system: LinearSystem, x: object, t: int = 0) -> np.ndarray:
    """Return the observation ``C_t x`` (the state itself when C is absent)."""
    x = _finite_vector(x, system.d_x, "x")
    _, _, C = system.matrices(t)
    if C is None:
        return x.copy()
    return C @ x


# ---------------------------------------------------------------------------
# Perturbation sources
# ---------------------------------------------------------------------------


@dataclass
class PerturbationSource:
    """Generator of per-step perturbation vectors ``w_t``.

    Construct via the class methods :meth:`zero`, :meth:`gaussian`,
    :meth:`uniform_ball`, :meth:`sinusoidal`, :meth:`recorded`, or
    :meth:`constant`.  When ``clip_to_unit_ball`` is set, any emitted
    vector with norm exceeding 1 is rescaled to unit norm.
    """

    kind: str
    sigma: float = 1.0
    amplitude: float = 1.0
    omega: float = 1.0
    phase: Optional[np.ndarray] = None
    sequence: Optional[np.ndarray] = None
    vector: Optional[np.ndarray] = None
    clip_to_unit_ball: bool = False

    @classmethod
    def zero(cls) -> "PerturbationSource":
        """No perturbation: ``w_t = 0``."""
        return cls(kind="zero")

    @classmethod
    def gaussian(cls, sigma: float = 1.0, clip_to_unit_ball: bool = False) -> "PerturbationSource":
        """I.i.d. Gaussian coordinates with standard deviation ``sigma``."""
        return cls(kind="iid-gaussian", sigma=float(sigma), clip_to_unit_ball=clip_to_unit_ball)

    @classmethod
    def uniform_ball(cls) -> "PerturbationSource":
        """I.i.d. draws uniform over the unit Euclidean ball."""
        return cls(kind="iid-uniform-ball")

    @classmethod
    def sinusoidal(
        cls,
        amplitude: float = 1.0,
        omega: float = 1.0,
        phase: Optional[object] = None,
        clip_to_unit_ball: bool = False,
    ) -> "PerturbationSource":
        """Deterministic ``w_t[i] = amplitude * sin(omega * t + phase[i])``.

        ``phase`` defaults to zeros (all coordinates in phase)."""
        ph = None if phase is None else _finite_vector(phase, None, "phase")
        return cls(
            kind="sinusoidal",
            amplitude=float(amplitude),
            omega=float(omega),
            phase=ph,
            clip_to_unit_ball=clip_to_unit_ball,
        )

    @classmethod
    def recorded(cls, sequence: object, clip_to_unit_ball: bool = False) -> "PerturbationSource":
        """Replay a stored (T, d_x) array of perturbations."""
        seq = _as_matrix(sequence, "recorded sequence")
        return cls(kind="recorded", sequence=seq, clip_to_unit_ball=clip_to_unit_ball)

    @classmethod
    def constant(cls, vector: object, clip_to_unit_ball: bool = False) -> "PerturbationSource":
        """The same vector at every step."""
        return cls(
            kind="constant",
            vector=_finite_vector(vector, None, "constant w"),
            clip_to_unit_ball=clip_to_unit_ball,
        )

    def draw(self, start: int, stop: int, dim: int, rng: np.random.Generator) -> np.ndarray:
        """Emit the rows ``w_start, ..., w_{stop-1}`` as a fresh (stop - start,
        dim) array, drawing from ``rng`` if random.

        Each kind takes one numpy call for the whole block, except
        ``iid-uniform-ball``, which draws row by row (a direction, then a
        radius); clipping also goes row by row.  The block consumes ``rng``
        exactly as :meth:`sample` called on each step in turn does, and gives
        the same rows bit for bit.

        Raises
        ------
        ConfigurationError
            On an unknown kind, a recorded sequence shorter than ``stop`` or
            of the wrong width, or a phase or constant vector of the wrong
            dimension.
        """
        kind, shape = self.kind, (stop - start, dim)
        if kind == "zero":
            w = np.zeros(shape)
        elif kind == "iid-gaussian":
            w = rng.standard_normal(shape)
            w *= self.sigma
        elif kind == "iid-uniform-ball":
            w = np.empty(shape)
            for row in w:
                rng.standard_normal(out=row)
                row /= max(math.sqrt(row.dot(row)), 1e-300)
                row *= rng.random() ** (1.0 / dim)
        elif kind == "sinusoidal":
            phase = np.zeros(dim) if self.phase is None else _as_vector(self.phase, dim, "phase")
            w = self.omega * np.arange(start, stop)[:, None] + phase
            np.sin(w, w)
            w *= self.amplitude
        elif kind == "recorded":
            length, width = self.sequence.shape
            if stop > length:
                raise ConfigurationError(
                    f"recorded perturbation sequence of length {length} "
                    f"exhausted at t={max(start, length)}"
                )
            if width != dim:
                raise ConfigurationError(
                    f"recorded w_{start} must be a vector of dimension {dim}, got shape ({width},)"
                )
            w = self.sequence[start:stop].astype(float)
        elif kind == "constant":
            w = np.tile(_as_vector(self.vector, dim, "constant w"), (stop - start, 1))
        else:
            raise ConfigurationError(f"unknown perturbation kind {kind!r}")
        if self.clip_to_unit_ball:
            for row in w:
                norm = math.sqrt(row.dot(row))
                if norm > 1.0:
                    row /= norm
        return w

    def sample(self, t: int, dim: int, rng: np.random.Generator) -> np.ndarray:
        """Emit ``w_t`` of dimension ``dim``: :meth:`draw` of the one row
        ``t``, shaped (dim,)."""
        return self.draw(t, t + 1, dim, rng)[0]


# ---------------------------------------------------------------------------
# Cost functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticCost:
    """Quadratic cost ``c(x, u) = (x - x*)' Q (x - x*) + u' R u``.

    ``Q`` and ``R`` must pass :func:`_check_psd`; their symmetric parts are
    stored.  ``target`` is the state target ``x*`` (defaults to the origin).

    The cost interface, shared with :class:`CallableCost`: ``value(x, u)``
    is the cost at one point, a float.  ``stage(Z, U)`` takes one row
    ((d_z,) and (d_u,)) or n rows ((n, d_z) and (n, d_u)) and returns the
    values, shape () or (n,), and half the gradients in ``v = (z, u)``,
    shape (d_v,) or (n, d_v); ``values(Z, U)`` returns the same values
    alone, without computing a gradient.  ``half_hessians(Z, U)`` is half
    the Hessian in ``v``: one (d_v, d_v) matrix per row, or a single one
    that broadcasts when it is constant, as here: ``W = blockdiag(Q, R)``.
    The half gradients ``(Q (z - x*), R u)`` are formed block by block, so
    each row is bitwise ``Q.dot(z - x*)`` and ``R.dot(u)``; a product with
    ``W`` is not.
    """

    Q: np.ndarray
    R: np.ndarray
    target: Optional[np.ndarray] = None

    def __post_init__(self):
        Q, R = _check_psd(self.Q, "Q"), _check_psd(self.R, "R")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        if self.target is not None:
            object.__setattr__(self, "target", _finite_vector(self.target, len(Q), "target"))
        W = np.block([[Q, np.zeros((len(Q), len(R)))], [np.zeros((len(R), len(Q))), R]])
        object.__setattr__(self, "_W", _read_only(W))

    def _dx(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x if self.target is None else x - self.target

    def value(self, x: np.ndarray, u: np.ndarray) -> float:
        """Evaluate the cost at (x, u)."""
        dx = self._dx(x)
        u = np.asarray(u, dtype=float)
        return float(dx.dot(self.Q).dot(dx) + u.dot(self.R).dot(u))

    def _terms(self, Z: np.ndarray, U: np.ndarray) -> tuple:
        """``(values, Q (z - x*), R u)`` over one row or n rows."""
        dZ, U = self._dx(Z), np.asarray(U, dtype=float)
        if dZ.ndim == 1:  # the stacked products below, at less call overhead
            QdZ, RU = self.Q.dot(dZ), self.R.dot(U)
            return dZ.dot(QdZ) + U.dot(RU), QdZ, RU
        QdZ = np.matmul(self.Q, dZ[..., None])[..., 0]
        RU = np.matmul(self.R, U[..., None])[..., 0]
        return np.vecdot(dZ, QdZ) + np.vecdot(U, RU), QdZ, RU

    def values(self, Z: np.ndarray, U: np.ndarray) -> np.ndarray:
        return self._terms(Z, U)[0]

    def stage(self, Z: np.ndarray, U: np.ndarray) -> tuple:
        values, QdZ, RU = self._terms(Z, U)
        return values, np.concatenate((QdZ, RU), axis=-1)

    def half_hessians(self, Z: np.ndarray, U: np.ndarray) -> np.ndarray:
        return self._W


@dataclass(frozen=True)
class CallableCost:
    """Pluggable convex cost: a value function ``fn(x, u)`` with its two
    gradients ``gx(x, u)`` and ``gu(x, u)``, each called on one point.

    It has the interface of :class:`QuadraticCost`.  ``stage`` calls ``fn``,
    ``gx`` and ``gu`` row by row, and ``values`` only ``fn``; a gradient
    whose shape is not its argument's raises ConfigurationError.
    ``half_hessians`` symmetrizes forward differences of the half gradients,
    one matrix per row.
    """

    fn: Callable[[np.ndarray, np.ndarray], float]
    gx: Callable[[np.ndarray, np.ndarray], np.ndarray]
    gu: Callable[[np.ndarray, np.ndarray], np.ndarray]

    #: Relative step of the gradient differences in :meth:`half_hessians`.
    _HESSIAN_STEP = 1e-4

    def value(self, x: np.ndarray, u: np.ndarray) -> float:
        return float(self.fn(x, u))

    def _half_grad(self, z: np.ndarray, u: np.ndarray) -> np.ndarray:
        gz, gu = np.asarray(self.gx(z, u), dtype=float), np.asarray(self.gu(z, u), dtype=float)
        if gz.shape != z.shape or gu.shape != u.shape:
            raise ConfigurationError(f"cost gradients have shapes {gz.shape} and {gu.shape}; "
                                     f"expected {z.shape} and {u.shape}")
        return 0.5 * np.concatenate((gz, gu))

    def values(self, Z: np.ndarray, U: np.ndarray) -> np.ndarray:
        Z, U = np.asarray(Z, dtype=float), np.asarray(U, dtype=float)
        if Z.ndim == 1:
            return self.value(Z, U)
        return np.fromiter(map(self.value, Z, U), float, len(Z))

    def stage(self, Z: np.ndarray, U: np.ndarray) -> tuple:
        Z, U = np.asarray(Z, dtype=float), np.asarray(U, dtype=float)
        if Z.ndim == 1:
            return self.value(Z, U), self._half_grad(Z, U)
        values, half_grads = np.empty(len(Z)), np.empty((len(Z), Z.shape[1] + U.shape[1]))
        for k, (z, u) in enumerate(zip(Z, U)):
            values[k], half_grads[k] = self.value(z, u), self._half_grad(z, u)
        return values, half_grads

    def half_hessians(self, Z: np.ndarray, U: np.ndarray) -> np.ndarray:
        V = np.concatenate((Z, U), axis=-1, dtype=float)
        d_z, d_v = np.shape(Z)[-1], V.shape[-1]
        H = np.empty(V.shape + (d_v,))
        for v, H_k in zip(V.reshape(-1, d_v), H.reshape(-1, d_v, d_v)):
            g = self._half_grad(v[:d_z], v[d_z:])
            for j in range(d_v):
                probe = v.copy()
                probe[j] += self._HESSIAN_STEP * (1.0 + abs(v[j]))
                H_k[:, j] = (self._half_grad(probe[:d_z], probe[d_z:]) - g) / (probe[j] - v[j])
            H_k[...] = 0.5 * (H_k + H_k.T)
        return H


# ---------------------------------------------------------------------------
# Trajectories and simulation
# ---------------------------------------------------------------------------


@dataclass
class Trajectory:
    """Recorded run of a system: states, controls, perturbations,
    observations, and per-step costs.

    ``states`` has shape (T+1, d_x) — it includes the final state — while
    the other arrays have T rows.
    """

    states: np.ndarray
    controls: np.ndarray
    perturbations: np.ndarray
    observations: np.ndarray
    costs: np.ndarray

    @property
    def horizon(self) -> int:
        """Number of steps T."""
        return self.controls.shape[0]

    @property
    def total_cost(self) -> float:
        """Sum of per-step costs."""
        return float(self.costs.sum())

    @property
    def gamma(self) -> float:
        """Empirical state bound ``max_t ||x_t||`` over the whole run."""
        return float(np.linalg.norm(self.states, axis=1).max())

    def replay_residual(self, system: LinearSystem) -> float:
        """Max norm of ``x_{t+1} - (A_t x_t + B_t u_t + w_t)`` over the run.

        Zero (up to float equality) certifies that the stored data replays
        the dynamics exactly.
        """
        worst = 0.0
        for t in range(self.horizon):
            x_next = step(system, self.states[t], self.controls[t], self.perturbations[t], t)
            worst = max(worst, float(np.linalg.norm(self.states[t + 1] - x_next)))
        return worst


def simulate(
    system: LinearSystem,
    controller: Callable[[int, np.ndarray, np.ndarray], object],
    perturbations: PerturbationSource,
    cost: object,
    T: int,
    seed: int = 0,
    x0: Optional[object] = None,
) -> Trajectory:
    """Run the system for ``T`` steps under a controller callback.

    Parameters
    ----------
    system : LinearSystem
        Each step's matrices are fetched once; a callback's fetch of step t reuses it.
    controller : callable
        ``controller(t, x_t, y_t) -> u_t``.  Stateful controllers recover
        perturbations themselves from consecutive states.
    perturbations : PerturbationSource
        Its ``T`` rows are drawn in one block before the first step.
    cost : cost object
        A :class:`QuadraticCost`, a :class:`CallableCost` or any object with
        their ``value(x, u)``, the only call made: once per step, on the
        played pair.
    T : int
        Horizon (number of steps).
    seed : int
        Seeds the perturbation stream; runs are bit-reproducible.
    x0 : array_like, optional
        Initial state (defaults to zero).

    Returns
    -------
    Trajectory

    Raises
    ------
    EvaluationError
        If the controller emits a non-finite control, or the cost is
        non-finite at some step.
    ConfigurationError
        On a horizon that is not a whole number >= 0, an ``x0`` that is not
        a finite d_x vector, a control of the wrong dimension, or a
        perturbation source that cannot emit ``T`` rows of dimension d_x
        (raised before the first step).
    """
    T = _whole(T, 0, "horizon T")
    rng = np.random.default_rng(seed)
    d_x, d_u = system.d_x, system.d_u
    x = np.zeros(d_x) if x0 is None else _finite_vector(x0, d_x, "x0")

    states = np.zeros((T + 1, d_x))
    controls = np.zeros((T, d_u))
    noises = perturbations.draw(0, T, d_x, rng)
    observations = np.zeros((T, system.d_y))
    costs = np.zeros(T)

    states[0] = x
    for t in range(T):
        A, B, C = system.matrices(t)
        y = x.copy() if C is None else C.dot(x)
        observations[t] = y
        u = _as_vector(controller(t, x.copy(), y), d_u, f"u_{t}")
        # u.u is finite exactly when every entry is, unless it overflows.
        if not math.isfinite(u.dot(u)) and not np.isfinite(u).all():
            raise EvaluationError(f"controller emitted a non-finite control at t={t}: {u}")
        c = cost.value(x, u)
        if not math.isfinite(c):
            raise EvaluationError(f"cost is non-finite at t={t}")
        x = A.dot(x) + B.dot(u) + noises[t]
        states[t + 1] = x
        controls[t] = u
        costs[t] = c
    return Trajectory(states, controls, noises, observations, costs)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def spectral_radius(M: object) -> float:
    """Largest eigenvalue modulus of a square matrix (complex eigenvalues
    included)."""
    A = _as_matrix(M, "M", "square")
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def lyapunov_certificate(
    A: object,
    tol: float = 1e-12,
    max_terms: int = 100_000,
) -> Optional[np.ndarray]:
    """Certificate of stability: ``P = sum_t (A^t)' A^t`` when ρ(A) < 1.

    Returns ``None`` when the spectral radius is at least 1 or the series
    fails to converge within ``max_terms``.  A returned ``P`` satisfies
    ``P ⪰ I`` and ``P − A'PA ≻ 0`` up to truncation error ~``tol``.
    """
    A = _as_matrix(A, "A", "square")
    if spectral_radius(A) >= 1.0:
        return None
    d = A.shape[0]
    P = np.eye(d)
    power = np.eye(d)
    for _ in range(max_terms):
        power = power @ A
        term = power.T @ power
        norm = np.linalg.norm(term)
        if norm < tol:
            return P
        P = P + term
    return None


def controllability(A: object, B: object, r: int) -> tuple[np.ndarray, int, float]:
    """Kalman controllability matrix, its rank, and the pseudoinverse norm.

    Returns ``(K_r, rank, kappa)`` where ``K_r = [B, AB, ..., A^{r-1}B]``,
    the rank counts singular values above ``RANK_TOL × σ_max``, and
    ``kappa = ||K_r^+||`` (infinite when K_r = 0) quantifies strong
    controllability.
    """
    A = _as_matrix(A, "A", "square")
    B = _as_matrix(B, "B", (len(A), None))
    r = _whole(r, 1, "horizon r")
    blocks = []
    current = B
    for _ in range(r):
        blocks.append(current)
        current = A @ current
    K_r = np.hstack(blocks)
    sigma = np.linalg.svd(K_r, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return K_r, 0, float("inf")
    cutoff = RANK_TOL * sigma[0]
    significant = sigma[sigma > cutoff]
    rank = int(significant.size)
    kappa = float(1.0 / significant[-1]) if rank > 0 else float("inf")
    return K_r, rank, kappa


def observability_rank(A: object, C: object) -> int:
    """Rank of the stacked observability matrix ``[C; CA; ...; CA^{d_x-1}]``."""
    A = _as_matrix(A, "A", "square")
    C = _as_matrix(C, "C", (None, len(A)))
    d = A.shape[0]
    blocks = []
    current = C
    for _ in range(d):
        blocks.append(current)
        current = current @ A
    O = np.vstack(blocks)
    sigma = np.linalg.svd(O, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.sum(sigma > RANK_TOL * sigma[0]))


def linearize(
    f: Callable[[np.ndarray, np.ndarray], object],
    x_bar: object,
    u_bar: object,
    fd_step: float = FD_STEP,
) -> tuple[np.ndarray, np.ndarray]:
    """Central-finite-difference Jacobians of ``f(x, u)`` at ``(x̄, ū)``.

    Returns ``(A, B)`` with ``A[i, j] = ∂f_i/∂x_j`` and
    ``B[i, j] = ∂f_i/∂u_j``.

    Raises
    ------
    EvaluationError
        If ``f`` produces NaN or infinity at any probe point.
    """
    x_bar = _finite_vector(x_bar, None, "x_bar")
    u_bar = _finite_vector(u_bar, None, "u_bar")

    def evaluate(x: np.ndarray, u: np.ndarray) -> np.ndarray:
        out = np.atleast_1d(np.asarray(f(x, u), dtype=float))
        if not np.all(np.isfinite(out)):
            raise EvaluationError("dynamics evaluator returned non-finite values")
        return out

    d_x = x_bar.shape[0]
    d_u = u_bar.shape[0]
    f0 = evaluate(x_bar, u_bar)
    A = np.zeros((f0.shape[0], d_x))
    B = np.zeros((f0.shape[0], d_u))
    for j in range(d_x):
        e = np.zeros(d_x)
        e[j] = fd_step
        A[:, j] = (evaluate(x_bar + e, u_bar) - evaluate(x_bar - e, u_bar)) / (2.0 * fd_step)
    for j in range(d_u):
        e = np.zeros(d_u)
        e[j] = fd_step
        B[:, j] = (evaluate(x_bar, u_bar + e) - evaluate(x_bar, u_bar - e)) / (2.0 * fd_step)
    return A, B
