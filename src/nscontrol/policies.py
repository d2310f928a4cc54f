"""The policy-class zoo for controlling linear dynamical systems.

Classes
-------
* :class:`LinearPolicy` — ``u = K x``.
* :class:`PIDPolicy` — proportional + integral + derivative terms.
* :class:`BangBangPolicy` — extreme controls outside a state band.
* :class:`LDCPolicy` — linear dynamic controller with internal state.
* :class:`GLCPolicy` — generalized linear controller over a state window.
* :class:`DACPolicy` — disturbance-action controller: stabilizing gain
  plus learned terms acting on past perturbations.
* :class:`DRCPolicy` — disturbance-response controller over nature's-y
  signals, for partially observed stable systems.

GLC, DAC and DRC play ``u + sum_i M_i s_{t-i}`` over a window of states,
perturbations or nature's y, on one core that checks the blocks (one shape,
DAC's gain included, and the ``gamma`` budget) and sums the window.  There
are no copy methods: :func:`policy_runner` resets the policy it wraps.

Plus the constructive conversion maps between classes
(:func:`dac_from_linear`, :func:`glc_from_ldc`, :func:`lift_glc`), the
nature's-y recursion, an ε-approximation gap meter, and an adapter that
turns any policy into a simulation callback.

Conventions: histories before the first step are zero vectors; budget
checks on coefficient sums use the spectral norm (the linear policy's
bound is Frobenius).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError
from .lds_core import (
    LinearSystem,
    PerturbationSource,
    _all_finite,
    _as_matrix,
    _as_vector,
    _finite_vector,
    _whole,
    simulate,
    spectral_radius,
)

__all__ = [
    "LinearPolicy",
    "PIDPolicy",
    "BangBangPolicy",
    "LDCPolicy",
    "GLCPolicy",
    "DACPolicy",
    "DRCPolicy",
    "NaturesYTracker",
    "natures_y_step",
    "act",
    "policy_runner",
    "LiftedGLC",
    "lift_glc",
    "dac_from_linear",
    "glc_from_ldc",
    "approximation_gap",
]


def _spectral_norm(M: np.ndarray) -> float:
    return float(np.linalg.norm(M, 2))


def _coerce_gain(G: object, name: str) -> np.ndarray:
    """Accept scalars or matrices as policy gains."""
    arr = np.asarray(G, dtype=float)
    if arr.ndim == 0:
        return arr.reshape(1, 1)
    if arr.ndim == 1:
        return arr.reshape(1, -1)
    return _as_matrix(arr, name)


# ---------------------------------------------------------------------------
# Policy classes
# ---------------------------------------------------------------------------


class LinearPolicy:
    """Fixed linear feedback ``u = K x``.

    Parameters
    ----------
    K : array_like, shape (d_u, d_x)
    kappa : float, optional
        Frobenius-norm budget; construction fails when ``||K||_F > kappa``.
    """

    kind = "linear"

    def __init__(self, K: object, kappa: Optional[float] = None):
        self.K = _coerce_gain(K, "K")
        if kappa is not None and np.linalg.norm(self.K) > kappa + 1e-12:
            raise ConfigurationError(
                f"||K||_F = {np.linalg.norm(self.K):.6g} exceeds the budget kappa = {kappa}"
            )
        self.kappa = kappa

    def act_state(self, x: np.ndarray) -> np.ndarray:
        return self.K @ _as_vector(x, self.K.shape[1], "x")

    def reset(self) -> None:
        pass


class PIDPolicy:
    """Proportional-integral-derivative feedback.

    ``u_t = alpha x_t + beta * sum_{tau<=t} x_tau + gamma_d (x_t - x_{t-1})``

    Gains may be scalars (acting coordinatewise) or (d_u, d_x) matrices of
    one shape, square when a scalar gain is given too.
    The integral is an unwindowed running sum that includes the current
    state; the previous state is zero before the first step.
    """

    kind = "pid"

    def __init__(self, alpha: object, beta: object, gamma_d: object):
        gains = {"alpha": alpha, "beta": beta, "gamma_d": gamma_d}
        gains = {name: _coerce_gain(G, name) for name, G in gains.items()}
        # The matrix gains share one shape, a square one next to a scalar
        # gain, which acts coordinatewise.
        wide = [G.shape for G in gains.values() if G.shape != (1, 1)]
        shape = wide[0] if len(wide) == 3 else (wide[0][1],) * 2 if wide else None
        for name, G in gains.items():
            if G.shape != (1, 1):
                _as_matrix(G, name, shape)
        self.alpha, self.beta, self.gamma_d = gains.values()
        self._dim = shape[1] if shape else None  # any, when every gain is a scalar
        self._integral: Optional[np.ndarray] = None
        self._prev: Optional[np.ndarray] = None

    def _apply(self, G: np.ndarray, v: np.ndarray) -> np.ndarray:
        if G.shape == (1, 1):
            return G[0, 0] * v
        return G @ v

    def act_state(self, x: np.ndarray) -> np.ndarray:
        x = _as_vector(x, self._dim if self._integral is None else len(self._integral), "x")
        if self._integral is None:
            self._integral = np.zeros_like(x)
            self._prev = np.zeros_like(x)
        self._integral = self._integral + x
        u = (
            self._apply(self.alpha, x)
            + self._apply(self.beta, self._integral)
            + self._apply(self.gamma_d, x - self._prev)
        )
        self._prev = x.copy()
        return u

    def reset(self) -> None:
        self._integral = None
        self._prev = None


class BangBangPolicy:
    """Extreme control outside a scalar state band.

    Emits ``u_max`` when the state is below ``x_min``, ``u_min`` when it is
    above ``x_max``, and zero inside the band.  Defined for scalar states.
    """

    kind = "bang-bang"

    def __init__(self, x_min: float, x_max: float, u_min: float, u_max: float):
        if x_min > x_max:
            raise ConfigurationError("bang-bang requires x_min <= x_max")
        if u_min > u_max:
            raise ConfigurationError("bang-bang requires u_min <= u_max")
        self.x_min = float(x_min)
        self.x_max = float(x_max)
        self.u_min = float(u_min)
        self.u_max = float(u_max)

    def act_state(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape[0] != 1:
            raise ConfigurationError("bang-bang policy is defined for scalar states")
        if x[0] < self.x_min:
            return np.array([self.u_max])
        if x[0] > self.x_max:
            return np.array([self.u_min])
        return np.array([0.0])

    def reset(self) -> None:
        pass


class LDCPolicy:
    """Linear dynamic controller: an internal linear system driving control.

    At each step ``u = C_pi s + D_pi x`` is emitted first, then the internal
    state advances via ``s <- A_pi s + B_pi x``.  The internal state starts
    at zero.  The internal dynamics must be stable (spectral radius below
    1) unless ``allow_unstable`` is set.
    """

    kind = "ldc"

    def __init__(
        self,
        A_pi: object,
        B_pi: object,
        C_pi: object,
        D_pi: Optional[object] = None,
        allow_unstable: bool = False,
    ):
        self.A_pi = _as_matrix(A_pi, "A_pi", "square")
        d_s = self.A_pi.shape[0]
        self.B_pi = _as_matrix(B_pi, "B_pi", (d_s, None))
        self.C_pi = _as_matrix(C_pi, "C_pi", (None, d_s))
        d_u, d_x = self.C_pi.shape[0], self.B_pi.shape[1]
        self.D_pi = np.zeros((d_u, d_x)) if D_pi is None else _as_matrix(D_pi, "D_pi", (d_u, d_x))
        if not allow_unstable and spectral_radius(self.A_pi) >= 1.0:
            raise ConfigurationError(
                "LDC internal dynamics are unstable (spectral radius >= 1); "
                "pass allow_unstable=True to override"
            )
        self._s = np.zeros(d_s)

    def internal_decay(self, n: int = 50) -> np.ndarray:
        """Spectral norms of ``A_pi^i`` for i = 0..n (stability diagnostic)."""
        norms = np.zeros(n + 1)
        power = np.eye(self.A_pi.shape[0])
        for i in range(n + 1):
            norms[i] = _spectral_norm(power)
            power = power @ self.A_pi
        return norms

    def act_state(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = self.C_pi @ self._s + self.D_pi @ x
        self._s = self.A_pi @ self._s + self.B_pi @ x
        return u

    def reset(self) -> None:
        self._s = np.zeros(self.A_pi.shape[0])


class _WindowPolicy:
    """``u + M_a s_0 + M_{a+1} s_1 + ...`` over past signals, newest first.

    ``Ms`` lists ``[M_a, ..., M_h]`` with ``a = first``, all of one shape
    (``shape`` too, when given).  The window keeps the last ``len(Ms)``
    signals; a shorter one before that is zero padding."""

    def __init__(
        self,
        Ms: Sequence[object],
        first: int,
        gamma: Optional[float],
        shape: Optional[tuple] = None,
    ):
        self.Ms = [_as_matrix(M, f"M_{first + i}") for i, M in enumerate(Ms)]
        name = self.kind.upper()
        if not self.Ms and first == 0:
            raise ConfigurationError(f"{name} needs at least M_0")
        shapes = {M.shape for M in self.Ms} | ({shape} if shape else set())
        if len(shapes) > 1:
            raise ConfigurationError(
                f"all {name} coefficient matrices{' and the gain K' if shape else ''} "
                f"must share one shape, got {sorted(shapes)}"
            )
        total = sum(_spectral_norm(M) for M in self.Ms)
        if gamma is not None and total > gamma + 1e-12:
            raise ConfigurationError(
                f"sum of spectral norms {total:.6g} exceeds the budget gamma = {gamma}"
            )
        self.gamma = gamma
        self.h = first + len(self.Ms) - 1
        self._window: deque = deque(maxlen=len(self.Ms))  # newest first

    def _sum(self, window: Iterable[object], u: Optional[np.ndarray] = None) -> np.ndarray:
        """``u + M_a s_0 + M_{a+1} s_1 + ...`` added left to right, in place
        of ``u`` (zeros when None), up to the shorter of blocks and window."""
        if u is None:
            u = np.zeros(self.Ms[0].shape[0])
        for M, s in zip(self.Ms, window):
            u += M @ np.asarray(s, dtype=float)
        return u

    def _play(self, s: np.ndarray) -> np.ndarray:
        """Push ``s`` as the newest signal and sum the window from zeros.  A
        non-finite signal is carried to the control: a zero block times an
        inf entry gives NaN there, without an invalid-value warning."""
        self._window.appendleft(np.asarray(s, dtype=float))
        with np.errstate(invalid="ignore"):
            return self._sum(self._window)

    def reset(self) -> None:
        self._window.clear()


class GLCPolicy(_WindowPolicy):
    """Generalized linear controller ``u_t = sum_{i=0}^{h} M_i x_{t-i}``.

    ``Ms`` lists ``[M_0, ..., M_h]``; states before the first step are
    zero.  An optional ``gamma`` bounds the sum of spectral norms.
    """

    kind = "glc"

    def __init__(self, Ms: Sequence[object], gamma: Optional[float] = None):
        super().__init__(Ms, 0, gamma)

    def act_state(self, x: np.ndarray) -> np.ndarray:
        return self._play(_as_vector(x, self.Ms[0].shape[1], "x"))


class DACPolicy(_WindowPolicy):
    """Disturbance-action controller.

    ``u_t = K_t x_t + sum_{i=1}^{h} M_i w_{t-i} (+ offset)``

    Parameters
    ----------
    K : array_like or callable
        Stabilizing gain; a callable ``t -> K_t`` gives the time-varying
        form.
    Ms : sequence of (d_u, d_x) matrices
        ``[M_1, ..., M_h]`` acting on the most recent ``h`` perturbations
        (zero-padded before the first step).  All share one shape, which a
        fixed ``K`` and every ``K_t`` must have too.
    offset : array_like, optional
        Constant control offset (disabled when None), a vector with one
        entry per row of the blocks (or of a fixed ``K``).
    gamma : float, optional
        Budget on the sum of spectral norms of the ``M_i``.
    """

    kind = "dac"

    def __init__(
        self,
        K: Union[object, Callable[[int], object]],
        Ms: Sequence[object],
        offset: Optional[object] = None,
        gamma: Optional[float] = None,
    ):
        self._K_provider: Optional[Callable[[int], object]] = K if callable(K) else None
        self._K_fixed: Optional[np.ndarray] = None if callable(K) else _coerce_gain(K, "K")
        super().__init__(Ms, 1, gamma, None if self._K_fixed is None else self._K_fixed.shape)
        rows = self.Ms[0] if self.Ms else self._K_fixed
        if offset is not None:
            offset = _finite_vector(offset, None if rows is None else len(rows), "offset")
        self.offset = offset

    def gain(self, t: int) -> np.ndarray:
        if self._K_fixed is not None:
            return self._K_fixed
        K = _coerce_gain(self._K_provider(t), f"K_{t}")
        if self.Ms and K.shape != self.Ms[0].shape:
            raise ConfigurationError(f"K_{t} has shape {K.shape}, the blocks {self.Ms[0].shape}")
        if self.offset is not None and self.offset.shape != K.shape[:1]:
            raise ConfigurationError(f"K_{t} has {K.shape[0]} rows, the offset {self.offset.shape}")
        return K

    def push_perturbation(self, w: np.ndarray) -> None:
        """Record a newly recovered perturbation (most recent first)."""
        self._window.appendleft(np.asarray(w, dtype=float))

    def act(
        self,
        x: np.ndarray,
        t: int = 0,
        history: Optional[Iterable[np.ndarray]] = None,
    ) -> np.ndarray:
        """Control at time t; ``history`` overrides the internal buffer
        (ordered most recent first: ``[w_{t-1}, w_{t-2}, ...]``)."""
        x = np.asarray(x, dtype=float)
        window = self._window if history is None else history
        if _all_finite(x):
            u = self._sum(window, self.gain(t) @ x)
        else:  # a zero gain entry times an inf entry gives the NaN control, unwarned
            with np.errstate(invalid="ignore"):
                u = self._sum(window, self.gain(t) @ x)
        if self.offset is not None:
            u = u + self.offset
        return u


class NaturesYTracker:
    """Running computation of nature's y: the observation the system would
    have produced with all controls forced to zero.

    Maintains ``z_t`` with ``z_0 = 0``; per step,
    ``ynat_t = y_t - C_t z_t`` and then ``z_{t+1} = A_t z_t + B_t u_t``.
    """

    def __init__(self, d_x: int):
        d_x = _whole(d_x, 1, "d_x")
        self.z = np.zeros(d_x)

    def observe(self, y: np.ndarray, C: Optional[np.ndarray]) -> np.ndarray:
        """ynat at the current step (does not advance the recursion)."""
        return np.asarray(y, float) - (self.z if C is None else np.asarray(C, float).dot(self.z))

    def advance(self, A: np.ndarray, B: np.ndarray, u: np.ndarray) -> None:
        """Advance ``z`` with the control actually played."""
        self.z = np.asarray(A, float).dot(self.z) + np.asarray(B, float).dot(np.asarray(u, float))

    def reset(self) -> None:
        self.z = np.zeros_like(self.z)


def natures_y_step(
    tracker: NaturesYTracker,
    A_t: np.ndarray,
    B_t: np.ndarray,
    C_t: Optional[np.ndarray],
    u_t: np.ndarray,
    y_t: np.ndarray,
) -> np.ndarray:
    """One atomic nature's-y update: returns ``ynat_t = y_t - C_t z_t`` and
    advances ``z_{t+1} = A_t z_t + B_t u_t``.  The matrices and vectors
    must be finite and fit the tracker's d_x."""
    d_x = len(tracker.z)
    A_t = _as_matrix(A_t, "A_t", (d_x, d_x))
    B_t = _as_matrix(B_t, "B_t", (d_x, None))
    C_t = None if C_t is None else _as_matrix(C_t, "C_t", (None, d_x))
    u_t = _finite_vector(u_t, B_t.shape[1], "u_t")
    y_t = _finite_vector(y_t, d_x if C_t is None else len(C_t), "y_t")
    ynat = tracker.observe(y_t, C_t)
    tracker.advance(A_t, B_t, u_t)
    return ynat


class DRCPolicy(_WindowPolicy):
    """Disturbance-response controller for stable, partially observed
    systems: ``u_t = sum_{i=0}^{h} M_i ynat_{t-i}``.

    ``Ms`` lists ``[M_0, ..., M_h]`` of shape (d_u, d_y); nature's-y
    values before the first step are zero.  The policy owns the nature's-y
    recursion state (``z_0 = 0``).
    """

    kind = "drc"

    def __init__(self, Ms: Sequence[object], d_x: int, gamma: Optional[float] = None):
        super().__init__(Ms, 0, gamma)
        self.tracker = NaturesYTracker(d_x)

    def act_ynat(self, ynat: np.ndarray) -> np.ndarray:
        """Control from a freshly computed ynat_t (pushes it into the window)."""
        return self._play(_as_vector(ynat, self.Ms[0].shape[1], "ynat"))

    def step(
        self,
        y_t: np.ndarray,
        A_t: np.ndarray,
        B_t: np.ndarray,
        C_t: Optional[np.ndarray],
    ) -> np.ndarray:
        """Full per-step pipeline: ynat from y_t, control, recursion update."""
        ynat = self.tracker.observe(y_t, C_t)
        u = self.act_ynat(ynat)
        self.tracker.advance(A_t, B_t, u)
        return u

    def reset(self) -> None:
        self.tracker.reset()
        super().reset()


Policy = Union[
    LinearPolicy, PIDPolicy, BangBangPolicy, LDCPolicy, GLCPolicy, DACPolicy, DRCPolicy
]


# ---------------------------------------------------------------------------
# Acting and rollouts
# ---------------------------------------------------------------------------


def act(policy: Policy, signals: dict, t: int = 0) -> np.ndarray:
    """Compute the control of any policy from a signals mapping.

    Required keys by kind: ``state`` for linear/pid/bang-bang/ldc/glc/dac;
    DAC additionally accepts ``perturbations`` (history, most recent
    first) which overrides its internal buffer; DRC requires ``ynat``
    (current nature's y) or ``natures_y`` history.

    Raises
    ------
    ConfigurationError
        When a signal the policy kind needs is missing.
    """
    kind = getattr(policy, "kind", None)
    if kind in ("linear", "pid", "bang-bang", "ldc", "glc", "dac"):
        if "state" not in signals:
            raise ConfigurationError(f"{kind} policy needs a 'state' signal")
        x = np.asarray(signals["state"], dtype=float)
        if kind == "dac":
            return policy.act(x, t, history=signals.get("perturbations"))
        return policy.act_state(x)
    if kind == "drc":
        if "ynat" in signals:
            return policy.act_ynat(np.asarray(signals["ynat"], dtype=float))
        if "natures_y" in signals:
            return policy._sum(signals["natures_y"])
        raise ConfigurationError("DRC policy needs an 'ynat' or 'natures_y' signal")
    raise ConfigurationError(f"unknown policy kind {kind!r}")


def policy_runner(
    policy: Policy,
    system: LinearSystem,
) -> Callable[[int, np.ndarray, np.ndarray], np.ndarray]:
    """Wrap a policy as a ``controller(t, x, y)`` callback for simulate().

    The adapter supplies what each kind needs: for DAC it recovers
    perturbations from consecutive states using the known dynamics; for
    DRC it runs the nature's-y recursion on observations.  The policy is
    reset at the start of the rollout.
    """
    policy.reset()

    if policy.kind == "dac":
        last: list = []  # (x, u, A, B) of the last step acted on

        def dac_callback(t: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
            if last:
                x_prev, u_prev, A_prev, B_prev = last
                policy.push_perturbation(x - A_prev @ x_prev - B_prev @ u_prev)
            u = policy.act(x, t)
            last[:] = x.copy(), u.copy(), *system.matrices(t)[:2]
            return u

        return dac_callback

    if policy.kind == "drc":

        def drc_callback(t: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
            return policy.step(y, *system.matrices(t))

        return drc_callback

    def state_callback(t: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return policy.act_state(x)

    return state_callback


# ---------------------------------------------------------------------------
# Conversions between classes
# ---------------------------------------------------------------------------


@dataclass
class LiftedGLC:
    """A GLC rewritten as a linear policy on an augmented system.

    ``system`` carries the block-companion dynamics over stacked states
    ``z_t = [x_t; x_{t-1}; ...; x_{t-h}]``; ``noise_embedding`` maps an
    original perturbation into the lifted space; ``K_tilde`` is the linear
    gain ``[M_0 ... M_h]`` reproducing the GLC on the lifted system.
    """

    system: LinearSystem
    noise_embedding: np.ndarray
    K_tilde: np.ndarray


def lift_glc(system: LinearSystem, glc: GLCPolicy) -> LiftedGLC:
    """Rewrite a GLC on a time-invariant system as a linear policy on a
    lifted system whose first block reproduces the original state exactly."""
    A, B, _ = system.matrices(0)
    if system._provider is not None:
        raise ConfigurationError("lift_glc requires a time-invariant system")
    d_x = system.d_x
    n = (glc.h + 1) * d_x

    A_tilde = np.eye(n, k=-d_x)  # identity blocks below the diagonal shift the window
    A_tilde[:d_x, :d_x] = A
    B_tilde = np.vstack([B, np.zeros((n - d_x, system.d_u))])
    return LiftedGLC(
        system=LinearSystem.time_invariant(A_tilde, B_tilde),
        noise_embedding=np.eye(n, d_x),
        K_tilde=np.hstack(glc.Ms),
    )


def dac_from_linear(A: object, B: object, K: object, h: int) -> DACPolicy:
    """Disturbance-action policy replicating the linear policy ``u = Kx``.

    Places ``K (A + BK)^i`` against ``w_{t-1-i}`` for ``i = 0..h`` with a
    zero stabilizing part; the control gap versus the linear policy decays
    geometrically in ``h``.

    Raises
    ------
    ConfigurationError
        When ``h`` is not a whole number >= 0, a matrix has the wrong shape,
        or ``A + BK`` is not stable (the construction presupposes it).
    """
    h = _whole(h, 0, "dac_from_linear's window h")
    A = _as_matrix(A, "A", "square")
    B = _as_matrix(B, "B", (len(A), None))
    K = _as_matrix(_coerce_gain(K, "K"), "K", (B.shape[1], len(A)))
    closed = A + B @ K
    if spectral_radius(closed) >= 1.0:
        raise ConfigurationError(
            "dac_from_linear requires a stable closed loop: spectral radius of "
            f"A + BK is {spectral_radius(closed):.4f} >= 1"
        )
    Ms = []
    power = np.eye(A.shape[0])
    for _ in range(h + 1):
        Ms.append(K @ power)
        power = power @ closed
    zero_gain = np.zeros_like(K)
    return DACPolicy(zero_gain, Ms)


def glc_from_ldc(ldc: LDCPolicy, h: int) -> GLCPolicy:
    """Unroll an LDC into a GLC window: ``M_0 = D_pi``,
    ``M_i = C_pi A_pi^{i-1} B_pi`` for ``i >= 1``.

    Raises
    ------
    ConfigurationError
        When ``h`` is not a whole number >= 0, or when the LDC's internal
        dynamics are unstable.
    """
    h = _whole(h, 0, "glc_from_ldc's window h")
    if spectral_radius(ldc.A_pi) >= 1.0:
        raise ConfigurationError("glc_from_ldc requires stable internal dynamics")
    Ms = [ldc.D_pi.copy()]
    power = np.eye(ldc.A_pi.shape[0])
    for _ in range(1, h + 1):
        Ms.append(ldc.C_pi @ power @ ldc.B_pi)
        power = power @ ldc.A_pi
    return GLCPolicy(Ms)


# ---------------------------------------------------------------------------
# Approximation gap
# ---------------------------------------------------------------------------


def approximation_gap(
    policy_a: Policy,
    policy_b: Policy,
    system: LinearSystem,
    perturbations: PerturbationSource,
    costs: object,
    T: int,
    seed: int = 0,
) -> float:
    """Average per-step absolute cost gap between two policies rolled out
    on the *same* perturbation sequence.

    The perturbation source is sampled once, recorded, and replayed for
    both policies; the result is ``(1/T) * sum_t |c_t(a) - c_t(b)|``.
    """
    T = _whole(T, 1, "approximation_gap's horizon T")
    rng = np.random.default_rng(seed)
    replay = PerturbationSource.recorded(perturbations.draw(0, T, system.d_x, rng))
    traj_a = simulate(system, policy_runner(policy_a, system), replay, costs, T, seed=seed)
    traj_b = simulate(system, policy_runner(policy_b, system), replay, costs, T, seed=seed)
    return float(np.mean(np.abs(traj_a.costs - traj_b.costs)))
