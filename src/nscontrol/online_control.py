"""Online controllers with regret guarantees: projected online gradient
descent (OGD) and the two controllers built on it.

* :class:`GPCController` — gradient perturbation controller for fully
  observed systems with known (possibly time-varying) dynamics and a
  stabilizing gain: ``u_t = K_t x_t + sum_i M_i^t w_{t-i}``, with the
  ``M_i`` learned by OGD on counterfactual losses.
* :class:`GRCController` — gradient response controller for partially
  observed *stable* systems: ``u_t = sum_i M_i^t ynat_{t-i}`` over
  nature's-y signals, no stabilizing gain needed.

One private core, :class:`_DisturbanceFeedback`, holds the protocol and
the learner step of both.  ``act(t, ...)`` reads the newest signal (GPC
recovers ``w_{t-1}`` from ``x_t``, GRC computes ``ynat_t`` from ``y_t``)
and plays; ``update(t, A_t, B_t, cost)`` takes the OGD step on the
counterfactual loss ``l_t(M)`` and steps the learner's stack ``Y_t = [J_t
| z_t; S_t | u~_t]``, ``u~_t`` the learned part of the control played.
The counterfactual pair is the played pair plus one correction, ``r_t(M) =
r_t + P_t Y_t [m; -1]``, exactly what playing the current parameters from
the beginning of time would have given: the sensitivity ``J_t`` is stepped
by the same recursion as the hindsight comparators (``harness._policy_pass``).
The pair is linear in ``m``, so the loss is convex and its gradient
analytic.  The classes differ only in the signal, in the played pair
(GPC's ``(x_t, u_t)``, GRC's ``(y_t, u_t)``), in the start ``z_0`` (GPC's
``x_0``, GRC's 0) and in the output map ``P_t`` (GPC's ``[[I, 0], [K_t,
I]]``, GRC's ``[[C_t, 0], [0, I]]``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .lds_core import (
    QuadraticCost, _all_finite, _as_matrix, _as_vector, _finite_vector, _read_only, _whole,
    spectral_radius,
)

__all__ = [
    "OGDState",
    "ogd_update",
    "counterfactual_state",
    "GPCController",
    "GRCController",
    "gpc_runner",
    "grc_runner",
]

#: Default window length ``h`` of both learners, and the depth a hindsight
#: comparator falls back to when neither it nor the controller names one.
DEFAULT_H = 5

_FLOAT = np.dtype(float)


# ---------------------------------------------------------------------------
# Online gradient descent
# ---------------------------------------------------------------------------


#: The OGD step schedules (see :class:`OGDState`).
_SCHEDULES = ("sqrt", "constant", "adagrad")


@dataclass(frozen=True)
class OGDState:
    """Iterate of projected online gradient descent.

    ``point`` is the flat parameter vector; the feasible set is the
    Euclidean ball of the given ``radius`` (None = unconstrained).  The step
    at (1-based) iteration ``t`` is ``step_scale / sqrt(t)`` under
    ``schedule="sqrt"`` and ``step_scale`` under ``"constant"``.  Under
    ``"adagrad"`` (AdaGrad-norm) it is ``step_scale / sqrt(sum_{s<=t}
    ||g_s||^2)``, the sum taken up to and including the step's own
    gradient, so no bound on the gradients is needed; while that sum is 0
    the step is 0, which moves no point since every gradient so far was 0.
    ``grad_norm_sq_sum`` is that sum over the ``t`` steps taken, kept under
    every schedule (inf once it overflows, which makes the AdaGrad step 0).
    :func:`ogd_update`, the online learners and the spectral filter all
    step through one kernel, ``_ogd_kernel``; the learners and the filter
    step their own buffers in place and build an ``OGDState`` only when
    it is asked for.

    Raises
    ------
    ConfigurationError
        On an unknown schedule, a ``radius`` that is not None and not a
        finite number >= 0, a ``step_scale`` that is not finite and >= 0, a
        ``grad_norm_sq_sum`` that is not >= 0, or a ``point`` with a
        non-finite entry.
    """

    point: np.ndarray
    radius: Optional[float] = None
    step_scale: float = 0.1
    schedule: str = "sqrt"
    t: int = 0
    grad_norm_sq_sum: float = 0.0

    def __post_init__(self):
        if self.schedule not in _SCHEDULES:
            raise ConfigurationError(f"unknown OGD schedule {self.schedule!r}")
        if self.radius is not None and not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise ConfigurationError(
                f"OGD radius must be None or a finite number >= 0, got {self.radius}"
            )
        if not (math.isfinite(self.step_scale) and self.step_scale >= 0.0):
            raise ConfigurationError(
                f"OGD step_scale must be a finite number >= 0, got {self.step_scale}"
            )
        if not self.grad_norm_sq_sum >= 0.0:
            raise ConfigurationError(
                f"OGD grad_norm_sq_sum must be >= 0, got {self.grad_norm_sq_sum}"
            )
        object.__setattr__(self, "point", _finite_vector(np.ravel(self.point), None, "point"))

    def step_size(self, t: int) -> float:
        """Step size used at (1-based) iteration t.  Under ``"adagrad"`` it
        is the one of the iteration whose gradient sum is
        ``grad_norm_sq_sum``: on a state that an update returned, the step
        that update took."""
        return _eta(self.schedule, self.step_scale, t, self.grad_norm_sq_sum)

    def _successor(self, point: np.ndarray, t: int, grad_norm_sq_sum: float) -> "OGDState":
        """This state with a new flat float ``point``, counter ``t`` and
        gradient sum.  The other fields passed ``__post_init__`` already, so
        it is skipped."""
        new = object.__new__(OGDState)
        new.__dict__.update(self.__dict__, point=point, t=t, grad_norm_sq_sum=grad_norm_sq_sum)
        return new


def _eta(schedule: str, scale: float, t: int, grad_norm_sq_sum: float) -> float:
    """The step size of :class:`OGDState` at iteration ``t`` whose gradient
    sum, its own gradient's included, is ``grad_norm_sq_sum``."""
    if schedule == "sqrt":
        return scale / math.sqrt(t)
    if schedule == "constant":
        return scale
    return scale / math.sqrt(grad_norm_sq_sum) if grad_norm_sq_sum > 0.0 else 0.0


def _scaled_norm(v: np.ndarray) -> float:
    """``||v||`` of ``v`` scaled by its largest entry first, so finite
    entries whose ``v.v`` overflows still give their finite norm (inf for
    an inf entry)."""
    scale = float(np.abs(v).max())
    if not math.isfinite(scale):
        return scale
    v = v / scale
    return scale * math.sqrt(v.dot(v))


def ogd_update(state: OGDState, gradient: object) -> OGDState:
    """One projected-gradient step: move against the gradient, project
    back onto the ball, and advance the iteration counter.

    A finite gradient whose squared norm overflows is stepped with its
    rescaled norm, without a RuntimeWarning.  The step is the one kernel,
    ``_ogd_kernel``, that the online learners and the spectral filter step
    their iterates with in place; here it writes into a fresh point.

    Raises
    ------
    EvaluationError
        If the gradient contains NaN or infinity (update rejected).
    ConfigurationError
        On dimension mismatch.
    """
    g = np.asarray(gradient, dtype=float).ravel()
    if g.shape != state.point.shape:
        raise ConfigurationError(
            f"gradient dimension {g.shape[0]} does not match point dimension "
            f"{state.point.shape[0]}"
        )
    with np.errstate(over="ignore"):  # _ogd_step handles the overflow
        return _ogd_step(state, g)[0]


def _ogd_step(state: OGDState, g: np.ndarray, factor: float = 1.0) -> tuple:
    """:func:`_ogd_kernel` from ``state`` into a fresh point.  Returns the
    new state, ``||factor * g||``, the step size ``eta`` and the norm of the
    new point, or None."""
    y = np.empty(state.point.shape)
    t, grad_norm_sq_sum, grad_norm, eta, norm = _ogd_kernel(
        state.point, g, factor, y, state.t, state.grad_norm_sq_sum, state.schedule,
        state.step_scale, state.radius)
    return state._successor(y, t, grad_norm_sq_sum), grad_norm, eta, norm


def _ogd_kernel(point: np.ndarray, g: np.ndarray, factor: float, out: np.ndarray, t: int,
                grad_norm_sq_sum: float, schedule: str, step_scale: float,
                radius: Optional[float]) -> tuple:
    """The projected OGD step of :class:`OGDState` at ``(point, t,
    grad_norm_sq_sum)`` on the gradient ``factor * g``, written into
    ``out``, a flat float buffer that is not ``point``.  ``g`` is flat and
    float, of the point's shape, and ``factor`` a power of two, which the
    step size takes up exactly: the new point is bitwise the one the
    gradient itself gives.

    Returns ``(t + 1, the new gradient sum, ||factor * g||, eta, norm)``,
    ``norm`` being that of the new point, or None when the projection
    scaled it (or there is no ball).  The entries are scanned, and a norm
    rescaled so that it does not overflow, only when a squared norm is not
    finite; numpy warns of the overflow unless the caller turned that
    warning off.  A non-finite gradient raises EvaluationError before
    ``out`` is written."""
    gg = g.dot(g) * (factor * factor)
    if gg < 2.0**-900 and factor != 1.0:
        # Near the subnormals g.g has lost bits that the scaled sum keeps.
        gg = (g * factor).dot(g * factor)
    grad_norm = math.sqrt(gg)
    if not math.isfinite(gg):
        # g.g is finite exactly when every entry is, unless it overflows.
        g_full = g * factor
        if not np.isfinite(g_full).all():
            raise EvaluationError("OGD update rejected: non-finite gradient")
        grad_norm = _scaled_norm(g_full)
    t += 1
    grad_norm_sq_sum = grad_norm_sq_sum + gg
    eta = _eta(schedule, step_scale, t, grad_norm_sq_sum)
    np.multiply(g, -factor * eta, out=out)
    out += point
    norm = None
    if radius is not None:
        norm = math.sqrt(out.dot(out))
        if norm > radius:
            if norm == math.inf:
                norm = _scaled_norm(out)
            out *= radius / norm
            norm = None
    return t, grad_norm_sq_sum, grad_norm, eta, norm


# ---------------------------------------------------------------------------
# Counterfactual state (reference implementation)
# ---------------------------------------------------------------------------


def counterfactual_state(
    Ms: Sequence[object],
    w_history: Sequence[object],
    A_closed_history: Sequence[object],
    B_history: Sequence[object],
    H_trunc: int,
) -> np.ndarray:
    """State that playing the fixed parameters ``M_{1:h}`` from the
    beginning of time would have produced, truncated to the last
    ``H_trunc`` steps.

    All histories are ordered most recent first: ``w_history[0]`` is
    ``w_{t-1}``, ``A_closed_history[0]`` is the closed-loop matrix
    ``A_{t-1} + B_{t-1} K_{t-1}``, and ``B_history[0]`` is ``B_{t-1}``.
    Perturbations older than the supplied history are zero.  The result is
    exact (equal to the untruncated sum) when ``H_trunc`` is at least the
    current time index.

    This is the plain recursion-from-zero reference; the controllers step
    the exact counterfactual by a sensitivity recursion that must agree
    with it whenever ``H_trunc`` covers the whole history.
    """
    if A_closed_history:
        d_x = len(_as_matrix(A_closed_history[0], "A~", "square"))
    elif w_history:
        d_x = len(_finite_vector(w_history[0], None, "w"))
    else:
        raise ConfigurationError("counterfactual_state needs at least one history entry")
    depth = min(_whole(H_trunc, 0, "H_trunc"), len(A_closed_history))
    if depth <= 0:
        return np.zeros(d_x)
    w_history = [_finite_vector(w, d_x, "w") for w in w_history]
    d_u = _as_matrix(B_history[0], "B", (d_x, None)).shape[1]
    Ms = [_as_matrix(M, f"M_{j + 1}", (d_u, d_x)) for j, M in enumerate(Ms)]

    def w_at(m: int) -> np.ndarray:
        return w_history[m] if m < len(w_history) else np.zeros(d_x)

    z = np.zeros(d_x)
    # March forward from t-depth to t-1; m is the most-recent-first index.
    for m in range(depth - 1, -1, -1):
        A_m = _as_matrix(A_closed_history[m], "A~", (d_x, d_x))
        B_m = _as_matrix(B_history[m], "B", (d_x, d_u))
        drive = np.zeros(B_m.shape[1])
        for j, M in enumerate(Ms, start=1):
            drive = drive + M @ w_at(m + j)
        z = A_m @ z + B_m @ drive + w_at(m)
    return z


def _resolve_cost(cost: object, t: int) -> object:
    """Costs may be a fixed object or a provider ``t -> cost object``."""
    if hasattr(cost, "stage"):
        return cost
    if callable(cost):
        return cost(t)
    raise ConfigurationError("cost must expose value/stage/half_hessians/values or be a provider")


# ---------------------------------------------------------------------------
# Disturbance-feedback core shared by GPC and GRC
# ---------------------------------------------------------------------------


class _Stack(NamedTuple):
    """A learner's stack ``Y = [J | z; S | u~]`` and views of it."""

    Y: np.ndarray
    #: ``[J | z]``, which each step writes.
    Jz: np.ndarray
    #: The nonzero blocks of ``S``, one row per control entry.
    S_blocks: np.ndarray


class _DisturbanceFeedback:
    """Parameters, OGD iterate, sensitivity and the whole learner step of a
    learner that plays ``u_t = gain part + u~_t`` with the learned part
    ``u~_t = sum_i M_i s_{t-lag-i}`` over a signal ``s`` (GPC: ``w``, lag 1;
    GRC: ``ynat``, lag 0).

    Both learners keep one protocol.  ``act(t, ...)`` reads the newest
    signal, pushes it into the window, plays ``u_t`` and records ``_last =
    (t, r_t, |s|^2, E_t, key of E_t)``: the played pair ``r_t``, the squared
    norm of the signal it pushed (0 when it pushed none), and the matrix
    ``E_t`` the output map is built from, GPC's gain ``K_t`` or GRC's
    ``C_t``.  ``update(t, A_t, B_t, cost)`` then takes the OGD step on the
    counterfactual loss at ``t`` and moves the stack one step on, so ``T``
    steps take ``T`` OGD steps.  A second ``act`` before that ``update``
    raises ConfigurationError, so no signal is pushed twice.

    The OGD point ``m`` holds the parameters in ``(d_u, len(Ms), d_s)``
    order, the order of the comparators' blocks; ``Ms`` is the ``(len(Ms),
    d_u, d_s)`` view of it, and ``M`` is the ``(d_u, len(Ms) * d_s)`` one.
    ``M'`` is the view ``M.T``, or one taken from ``Ms`` whenever ``Ms``
    is reassigned, so a reassigned ``Ms`` is played too, until the next
    OGD step.
    ``_window`` is the newest signal window ``s_t = (s_{t-lag}, ...,
    s_{t-lag-len(Ms)+1})``, flattened, so the learned action is ``u_t(M) = M
    s_t = S_t m`` with ``S_t = kron(I, s_t')``.

    The counterfactual state is affine in ``m``, ``x_t(M) = J_t m + c_t``:
    ``J_0 = 0`` and ``J_{t+1} = F_t J_t + B_t S_t``, with ``F_t = A_t + B_t
    K_t`` for GPC and ``F_t = A_t`` for GRC, the recursion that
    ``harness._policy_pass`` steps.  Beside ``J`` the learner steps ``z_{t+1}
    = F_t z_t + B_t u~_t``, the response to the learned controls it played,
    so it holds one stack ``Y_t = [J_t | z_t; S_t | u~_t]`` and one product
    ``[F_t | B_t] Y_t = [J_{t+1} | z_{t+1}]`` steps both.  GPC starts at
    ``z_0 = x_0``, so that ``x_t - z_t`` is the response ``c_t`` to the
    perturbations alone: the counterfactual starts at rest, as
    :func:`counterfactual_state` does.  GRC starts at ``z_0 = 0``, and
    nature's y is ``ynat_t = y_t - C_t z_t``.  Either way the counterfactual
    pair is the played pair plus one correction::

        r_t(M) = r_t + P_t Y_t [m; -1]

    through the output map ``P_t``: ``[[I, 0], [K_t, I]]`` for GPC, whose
    pairs are ``(x_t, u_t)`` and ``(x_t(M), u_t(M) + K_t x_t(M))``, and
    ``[[C_t, 0], [0, I]]`` for GRC, whose pairs are ``(y_t, u_t)`` and
    ``(y_t(M), u_t(M))`` (``C_t = None``: the identity).  With the cost's
    half gradient ``h`` at ``r``, the loss has the half gradient ``(h P)
    Y_t`` in point order, less its last entry, and the OGD step takes the
    factor 2 in its step size, which is exact.  A
    :class:`~nscontrol.lds_core.QuadraticCost` is priced from its constant
    half Hessian ``W = blockdiag(Q, R)``: ``h = W (r - v*)`` and the loss
    ``(r - v*) . h``, ``v* = (x*, 0)``; any other cost by one ``stage``
    call.

    ``Y`` and a spare of it are allocated once, ``(d_x + d_u, p + 1)`` with
    ``p = d_u len(Ms) d_s``, and so is the played pair: ``act`` writes
    ``r_t`` into that buffer, ``u~_t`` into the last column of ``Y`` and
    the new window into ``S_t``'s nonzero blocks through a strided view,
    and ``update`` writes ``[J_{t+1} | z_{t+1}]`` into the spare with
    ``np.dot(..., out=...)`` and swaps the two.

    The OGD iterate lives in two ``[m; -1]`` buffers of ``p + 1`` entries,
    allocated once with their ``M'`` views, beside the step counter and
    the gradient sum.  ``update`` writes the new point into the spare
    through ``_ogd_kernel``, the step :func:`ogd_update` wraps, runs both
    checks and swaps the two; the counterfactual reads ``[m; -1]`` in
    place (a reassigned ``Ms`` is copied into a scratch one first).
    ``ogd`` builds a frozen :class:`OGDState` with a copy of the point on
    read, and assigning one restarts the iterate from it.  ``Ms`` is a view
    of the current point, which in-place writes reach; a buffer that such
    a view was read of is replaced instead of overwritten, so an ``Ms``
    already read keeps its values.

    A step costs about ``d_x^2 p`` flops on any horizon and any plant,
    plus a fixed count of numpy calls on vectors and small matrices.
    ``sys.setprofile`` over ``act`` and ``update`` together, which reports
    array methods but not ufuncs, operators or ``np.dot``, counts 15 of
    them for GPC and 13 for GRC (``C_t`` None) on a steady step: six price
    the loss and its gradient (``Y [m; -1]``, ``P``, ``W``, the loss, ``h
    P`` and ``(h P) Y``), three are the OGD step's norms and its check
    (``||g||``, ``||m||`` and the distance moved), two key the dynamics
    (the bytes of ``A_t`` and ``B_t``), and the rest are ``act``'s: GPC's
    recovered ``w``, its norm, the learned part and ``K_t x_t``, GRC's norm
    of ``ynat`` and the learned part.

    ``update`` validates the dynamics matrices, their shapes included, and
    derives ``P`` and what else the subclass needs of them, only when their
    content, or that of ``E_t``, differs from the last validated ones: the
    comparison is by shape and bytes, read in place from float64 arrays, so
    a matrix mutated in place is validated again.  GPC's fixed gain is its
    own read-only copy, keyed once.
    """

    #: Telemetry key of the norm of the signal that ``act`` pushed.
    _signal_key = ""

    def __init__(self, d_s, n_M, radius, step_size, schedule, horizon):
        # Subclasses set d_x, d_u and h first.
        self._n_M, self._d_s = n_M, d_s
        if schedule is None:
            schedule = "adagrad" if step_size is None else "sqrt"
        scale = float(step_size) if step_size is not None else float(radius)
        if schedule == "constant":
            if horizon is None:
                raise ConfigurationError("constant schedule needs the horizon T")
            scale = scale / math.sqrt(horizon)
        self._p = p = self.d_u * n_M * d_s
        self._next, self._next_shown = self._new_iterate(), False
        self.ogd = OGDState(point=np.zeros(p), radius=float(radius), step_scale=scale,
                            schedule=schedule)
        self.projected_steps = 0
        #: Largest ``||g_t||`` over the OGD steps (their sum of squares is
        #: ``ogd.grad_norm_sq_sum``).
        self.grad_norm_max = 0.0
        self.telemetry: list = []
        self._last: Optional[tuple] = None
        self._dynamics_key: Optional[tuple] = None
        self._dynamics: Optional[tuple] = None
        self._window = np.zeros(n_M * d_s)
        self._played = np.zeros(d_s + self.d_u)  # the pair r_t that act writes
        self._m_scratch = np.zeros(p + 1)  # [m; -1] of a reassigned Ms
        self._m_scratch[p] = -1.0
        self._m_blocks = self._m_scratch[:p].reshape(self.d_u, -1)  # M, a view
        shape = (self.d_x + self.d_u, p + 1)
        self._stack, self._spare = (self._new_stack(shape) for _ in range(2))

    def _new_iterate(self) -> tuple:
        """A ``[m; -1]`` buffer, its point ``m`` and its ``M'`` view."""
        m = np.empty(self._p + 1)
        m[self._p] = -1.0
        point = m[: self._p]
        return m, point, point.reshape(self.d_u, -1).T

    def _new_stack(self, shape: tuple) -> _Stack:
        """A stack of zeros and its views."""
        Y, d_x, n = np.zeros(shape), self.d_x, len(self._window)
        # Row a of S holds the window in columns a n .. (a + 1) n - 1.
        blocks = np.lib.stride_tricks.as_strided(
            Y[d_x:], shape=(self.d_u, n), strides=(Y.strides[0] + n * Y.itemsize, Y.itemsize),
            writeable=True)
        return _Stack(Y, Y[:d_x], blocks)

    @property
    def ogd(self) -> OGDState:
        """A snapshot of the OGD iterate, built on read: a copy of the point
        and the counter and gradient sum of the steps taken so far."""
        return self._ogd._successor(self._iterate[1].copy(), self._ogd_t, self._ogd_sum)

    @ogd.setter
    def ogd(self, state: OGDState) -> None:
        """Restart the OGD iterate from ``state``: its point is played next."""
        if state.point.shape != (self._p,):
            raise ConfigurationError(
                f"the OGD point has {state.point.size} entries, the learner {self._p}")
        self._ogd, self._ogd_t, self._ogd_sum = state, state.t, state.grad_norm_sq_sum
        self._iterate, self._shown = self._new_iterate(), False
        self._iterate[1][...] = state.point
        self._play_iterate()

    def _play_iterate(self) -> None:
        """Play the OGD point: ``Ms`` and ``M'`` are views of it again."""
        self._Ms, self._m_played = None, self._iterate[0]
        self._Mt = self._iterate[2]

    @property
    def Ms(self) -> np.ndarray:
        """The held parameters, ``(len(Ms), d_u, d_s)``: a view of the OGD
        point unless ``Ms`` was reassigned."""
        if self._Ms is None:
            self._Ms, self._shown = self._stacked(self._iterate[1]), True
        return self._Ms

    @Ms.setter
    def Ms(self, Ms: np.ndarray) -> None:
        self._Ms, self._m_played = Ms, None
        self._Mt = Ms.transpose(0, 2, 1).reshape(-1, self.d_u)

    def _stacked(self, flat: np.ndarray) -> np.ndarray:
        """The ``(len(Ms), d_u, d_s)`` view of a flat point-order vector."""
        return flat.reshape(self.d_u, self._n_M, self._d_s).transpose(1, 0, 2)

    def _validated(self, A_t: object, B_t: object, E_t: object, E_key: tuple) -> tuple:
        """The subclass's ``(P, [F_t | B_t], ...)``, derived only when the
        shapes or bytes of ``(A_t, B_t)``, or the key ``E_key`` that ``act``
        took of ``E_t``, differ from the last call's."""
        if (type(A_t) is np.ndarray and A_t.dtype is _FLOAT
                and type(B_t) is np.ndarray and B_t.dtype is _FLOAT):
            key = (A_t.shape, A_t.tobytes(), B_t.shape, B_t.tobytes(), *E_key)
        else:
            key = (*_content(A_t), *_content(B_t), *E_key)
        if key != self._dynamics_key:
            A_t = _as_matrix(A_t, "A_t", (self.d_x, self.d_x))
            B_t = _as_matrix(B_t, "B_t", (self.d_x, self.d_u))
            self._dynamics = self._validate(A_t, B_t, E_t)
            self._dynamics_key = key
        return self._dynamics

    def _acted(self) -> tuple:
        """``_last``, which ``act`` records and ``update`` clears."""
        if self._last is None:
            raise ConfigurationError("call act() before querying counterfactuals")
        return self._last

    def _check_turn(self) -> None:
        """Raise unless every ``act`` so far was followed by its ``update``."""
        if self._last is not None:
            t = self._last[0]
            raise ConfigurationError(f"act({t}) must be followed by update({t}) before act again")

    def _feedback(self) -> np.ndarray:
        """``sum_i Ms[i] window[i]``: the learned part of the current control."""
        return self._window.dot(self._Mt)

    def _push(self, signal: np.ndarray) -> None:
        """Shift the signal window by one signal, put ``signal`` first, and
        write the window into the stack's ``S``."""
        window, d_s = self._window, self._d_s
        window[d_s:] = window[:-d_s]
        window[:d_s] = signal
        self._stack.S_blocks[...] = window

    def _counterfactual(self, P: np.ndarray, played: np.ndarray) -> np.ndarray:
        """The pair ``r_t(M) = r_t + P Y_t [m; -1]`` at the parameters now
        held, as one vector, from the played pair ``r_t``."""
        m = self._m_played
        if m is None:  # Ms was reassigned
            m = self._m_scratch
            self._m_blocks[...] = self._Mt.T
        return played + P.dot(self._stack.Y.dot(m))

    def _loss_and_half_gradient(self, cost: object, P: np.ndarray, last: tuple) -> tuple:
        """Counterfactual loss and half its flat gradient in point order,
        pulled back through the output map ``P``, at the step ``last`` that
        ``act`` recorded."""
        r = self._counterfactual(P, last[1])
        cost = _resolve_cost(cost, last[0])
        if isinstance(cost, QuadraticCost):  # a constant half Hessian
            if cost.target is not None:
                r[: self._d_s] -= cost.target
            half_grad = cost._W.dot(r)
            loss = r.dot(half_grad)
        else:
            loss, half_grad = cost.stage(r[: self._d_s], r[self._d_s :])
        return loss, half_grad.dot(P).dot(self._stack.Y)[: self._p]

    def counterfactuals(self) -> tuple[np.ndarray, np.ndarray]:
        """The counterfactual pair at the parameters now held: ``(x_t(M),
        u_t(M) + K_t x_t(M))`` for GPC, ``(y_t(M), u_t(M))`` for GRC.  Valid
        between act(t) and update(t)."""
        last = self._acted()
        r = self._counterfactual(self._output_map(last[3]), last[1])
        return r[: self._d_s], r[self._d_s :]

    def loss_and_gradient(self, cost: object) -> tuple[float, np.ndarray]:
        """Counterfactual loss ``l_t(M)`` at the held parameters and its
        analytic gradient, shaped like ``Ms``.  Valid between act(t) and
        update(t)."""
        last = self._acted()
        loss, half_grad = self._loss_and_half_gradient(cost, self._output_map(last[3]), last)
        return loss, self._stacked(half_grad + half_grad)

    def update(self, t: int, A_t: object, B_t: object, cost: object) -> None:
        """Take the projected OGD step on the counterfactual loss ``l_t``,
        append the telemetry row, and move ``[J | z]`` one step on with the
        dynamics ``(A_t, B_t)``.  Raises ConfigurationError unless ``act(t)``
        was the last call, and EvaluationError if the new iterate left the
        ball or moved further than ``eta * ||g||``."""
        last = self._last
        if last is None or last[0] != t:
            raise ConfigurationError("update(t) must follow act(t)")
        _, _, signal_sq, E_t, E_key = last
        P, FB = self._validated(A_t, B_t, E_t, E_key)[:2]
        loss, half_grad = self._loss_and_half_gradient(cost, P, last)
        if self._next_shown:  # the caller holds a view of the spare point
            self._next, self._next_shown = self._new_iterate(), False
        state, old, point = self._ogd, self._iterate[1], self._next[1]
        t_ogd, grad_sum, grad_norm, eta, M_norm = _ogd_kernel(
            old, half_grad, 2.0, point, self._ogd_t, self._ogd_sum, state.schedule,
            state.step_scale, state.radius)
        if M_norm is None:  # the projection scaled the point
            self.projected_steps += 1
            M_norm = math.sqrt(point.dot(point))
        # Both checks allow for rounding, which scales with the points: the
        # new one is at most r long and the old one ||new|| + eta ||g||.
        if state.radius is not None and M_norm > state.radius * (1.0 + 1e-12) + 1e-9:
            raise EvaluationError(f"OGD iterate left the ball of radius {state.radius}")
        moved = point - old
        step = eta * grad_norm
        if math.sqrt(moved.dot(moved)) > step + 1e-12 * (1.0 + M_norm + step):
            raise EvaluationError("OGD iterate moved further than eta * ||g||")
        self._ogd_t, self._ogd_sum = t_ogd, grad_sum
        self._iterate, self._next = self._next, self._iterate
        self._shown, self._next_shown = False, self._shown
        self._play_iterate()
        self.grad_norm_max = max(self.grad_norm_max, grad_norm)
        self.telemetry.append({"t": t, "loss": loss, "M_norm": M_norm,
                               self._signal_key: math.sqrt(signal_sq), "grad_norm": grad_norm})
        np.dot(FB, self._stack.Y, out=self._spare.Jz)
        self._stack, self._spare = self._spare, self._stack
        self._last = None


def _content(M: object) -> tuple:
    """``(shape, bytes)`` of ``M`` as a float array, read in place when it is
    a float64 ndarray already; ``()`` for None."""
    if M is None:
        return ()
    if type(M) is not np.ndarray or M.dtype is not _FLOAT:
        M = np.asarray(M, dtype=float)
    return M.shape, M.tobytes()


# ---------------------------------------------------------------------------
# GPC
# ---------------------------------------------------------------------------


class GPCController(_DisturbanceFeedback):
    """Gradient perturbation controller.

    Per step ``t``: ``act(t, x_t)`` recovers ``w_{t-1} = x_t - A_{t-1}
    x_{t-1} - B_{t-1} u_{t-1}``, through the dynamics of the last update,
    and plays ``u_t = K_t x_t + sum_{i=1}^{h} M_i^t w_{t-i}``; then
    ``update(t, A_t, B_t, cost)`` takes one projected OGD step on the
    counterfactual loss ``l_t(M) = c_t(x_t(M), u_t(M) + K_t x_t(M))``.
    Runs on the learner step shared with :class:`GRCController` (see
    :class:`_DisturbanceFeedback`).

    A controller spec (dict, config file or CLI flags) sets the learner
    options ``h``, ``radius``, ``step_size`` and ``schedule``; their
    defaults live here alone.  The counterfactual ``x_t(M)`` is exact on
    any horizon: it is ``x_t`` plus the correction ``J_t m - z_t``, in about
    ``d_x^2 p`` flops a step, ``p = h d_x d_u``.  The output map ``P =
    [[I, 0], [K_t, I]]`` and ``[F_t | B_t]`` are built whenever the content
    of ``(A_t, B_t, K_t)`` changes.  Each update appends a telemetry dict to
    ``self.telemetry`` with the keys ``t``, ``loss`` (the counterfactual
    loss ``l_t(M^t)``), ``M_norm`` (``||M||`` after the step), ``w_norm``
    (``||w_{t-1}||``, the perturbation ``act`` pushed, 0 at the first step)
    and ``grad_norm``; ``self.projected_steps`` counts the steps whose
    projection onto the ball scaled the point, ``self.grad_norm_max``
    holds the largest gradient norm, and ``self.ogd.grad_norm_sq_sum`` the
    sum of the squared ones.  The played cost
    ``c_t(x_t, u_t)`` is not repeated there: it is ``Trajectory.costs[t]``
    under :func:`~nscontrol.lds_core.simulate`, and entry ``t`` of the
    array that :func:`~nscontrol.sysid.control_with_model` returns.  A
    recovered perturbation that is not finite raises EvaluationError; a
    non-finite first state gives a non-finite control, NaN where a zero
    gain entry meets an inf entry, without an invalid-value warning.

    Parameters
    ----------
    d_x, d_u : int
        State and control dimensions.
    K : array_like or callable
        Stabilizing gain (``u = Kx`` convention) or provider ``t -> K_t``,
        of shape (d_u, d_x): a fixed gain is checked here, a provided one
        by :meth:`gain` when ``act`` reads it.  The learner keeps a
        read-only copy of a fixed gain, so a later write into the array
        passed changes nothing it plays; a gain that varies goes through a
        provider.
    h : int
        Number of learned disturbance-action matrices.
    radius : float
        Frobenius-ball projection radius on the stacked parameters.
    step_size : float, optional
        Scale ``c`` of the step schedule: ``c/sqrt(t)`` under ``"sqrt"``,
        ``c/sqrt(T)`` under ``"constant"`` and ``c/sqrt(sum_{s<=t}
        ||g_s||^2)`` under ``"adagrad"``.  When it is not given, ``c`` is
        ``radius``.
    schedule : {None, "adagrad", "sqrt", "constant"}
        The default None is AdaGrad-norm (``"adagrad"``) when no
        ``step_size`` is given, which scales the step to the gradients so
        that none is too large for the plant, and ``"sqrt"`` when one is.
        An explicit schedule is taken as named, ``"sqrt"`` with no
        ``step_size`` included (``radius/sqrt(t)``).
    horizon : int, optional
        Required for the constant schedule (sets ``eta = c/sqrt(T)``).
    """

    _signal_key = "w_norm"

    def __init__(
        self,
        d_x: int,
        d_u: int,
        K: Union[object, Callable[[int], object]],
        h: int = DEFAULT_H,
        radius: float = 10.0,
        step_size: Optional[float] = None,
        schedule: Optional[str] = None,
        horizon: Optional[int] = None,
    ):
        self.d_x, self.d_u = _whole(d_x, 1, "d_x"), _whole(d_u, 1, "d_u")
        self.h = _whole(h, 1, "GPC's window h")
        self._K_provider = K if callable(K) else None
        self._K_fixed = self._K_key = None
        if not callable(K):
            self._K_fixed = _read_only(_as_matrix(K, "K", (self.d_u, self.d_x)))
            self._K_key = _content(self._K_fixed)
        super().__init__(self.d_x, self.h, radius, step_size, schedule, horizon)

    def gain(self, t: int) -> np.ndarray:
        if self._K_fixed is not None:
            return self._K_fixed
        return _as_matrix(self._K_provider(t), f"K_{t}", (self.d_u, self.d_x))

    def act(self, t: int, x: object) -> np.ndarray:
        """Recover ``w_{t-1}`` from the state ``x_t``, push it into the window
        and play ``u_t``; at the first step, start ``z_0 = x_0``."""
        self._check_turn()
        x = _as_vector(x, self.d_x, "x")
        K_t, K_key = self._K_fixed, self._K_key
        if K_t is None:
            K_t = self.gain(t)
            K_key = _content(K_t)
        Y, xu = self._stack.Y, self._played
        if self._dynamics is None:  # no update yet, so no w to recover
            Y[: self.d_x, -1] = x
            ww, finite = 0.0, _all_finite(x)
        else:
            w = x - self._dynamics[2].dot(xu)
            ww = w.dot(w)
            # w.w is finite exactly when every entry is, unless it overflows.
            if not math.isfinite(ww) and not np.isfinite(w).all():
                raise EvaluationError(
                    f"recovered perturbation is non-finite at t={t - 1}; aborting run")
            self._push(w)
            finite = True
        learned = self._feedback()
        if finite:
            u = K_t.dot(x) + learned
        else:  # a zero gain entry times an inf entry gives the NaN control, unwarned
            with np.errstate(invalid="ignore"):
                u = K_t.dot(x) + learned
        Y[self.d_x :, -1] = learned
        xu[: self.d_x], xu[self.d_x :] = x, u
        self._last = (t, xu, ww, K_t, K_key)
        return u

    def _output_map(self, K_t: np.ndarray) -> np.ndarray:
        """``P = [[I, 0], [K_t, I]]``: ``(x(M), u~(M))`` to the pair ``(x(M),
        u~(M) + K_t x(M))`` the cost sees."""
        return np.block([[np.eye(self.d_x), np.zeros((self.d_x, self.d_u))],
                         [K_t, np.eye(self.d_u)]])

    def _validate(self, A_t: np.ndarray, B_t: np.ndarray, K_t: np.ndarray) -> tuple:
        return (self._output_map(K_t), np.concatenate((A_t + B_t @ K_t, B_t), axis=1),
                np.concatenate((A_t, B_t), axis=1))


def gpc_runner(
    controller: GPCController, system: object, cost: object
) -> Callable[[int, np.ndarray, np.ndarray], np.ndarray]:
    """Adapter: run a GPC controller inside :func:`nscontrol.lds_core.simulate`.

    Each call acts on the state ``x_t`` and then updates with the step's
    ``(A_t, B_t)``, which the next call's act recovers ``w_t`` through.
    """

    def callback(t: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        A_t, B_t = system.matrices(t)[:2]
        u = controller.act(t, x)
        controller.update(t, A_t, B_t, cost)
        return u

    return callback


# ---------------------------------------------------------------------------
# GRC
# ---------------------------------------------------------------------------


class GRCController(_DisturbanceFeedback):
    """Gradient response controller for stable, partially observed systems.

    Per step ``t``: ``act(t, y_t, C_t)`` computes nature's y ``ynat_t = y_t
    - C_t z_t`` and plays ``u_t = sum_{i=0}^{h} M_i^t ynat_{t-i}``; then
    ``update(t, A_t, B_t, cost)`` takes one projected OGD step on ``l_t(M)
    = c_t(y_t(M), u_t(M))``, where ``y_t(M) = ynat_t + C_t J_t m`` is the
    observation the actions ``M`` would have given from the start.  ``z_t``
    is the response to the controls actually played, ``z_{t+1} = A_t z_t +
    B_t u_t``: the last column of the learner's stack ``[J_t | z_t; S_t |
    u_t]``, stepped by the same product as ``J``.  Runs on the learner step
    shared with :class:`GPCController` (see :class:`_DisturbanceFeedback`).

    ``A_t`` must have spectral radius below 1, checked whenever ``(A_t, B_t,
    C_t)`` differ from the last dynamics validated.  ``C_t = None`` means
    the state is observed; ``act`` checks ``C_t`` whenever its content
    changes, and ``update`` builds the output map from the ``C_t`` that
    ``act`` was given.

    The cost is evaluated on (observation, control) pairs.  ``d_y`` is the
    observation dimension; ``h`` (the window holds ``h + 1`` matrices,
    lags 0 to ``h``), ``radius``, ``step_size``, ``schedule`` and
    ``horizon`` are the learner options of :class:`GPCController`, with the
    same defaults and the same default-step rule: AdaGrad-norm without a
    ``step_size``, ``"sqrt"`` with one.  Each update appends a telemetry dict to
    ``self.telemetry`` with the keys ``t``, ``loss``, ``M_norm``,
    ``ynat_norm`` and ``grad_norm``; the played cost is not among them.
    ``self.projected_steps``, ``self.grad_norm_max`` and
    ``self.ogd.grad_norm_sq_sum`` are kept as for GPC.  A non-finite ``y`` gives
    a non-finite control, NaN where a zero block meets an inf entry,
    without an invalid-value warning.
    """

    _signal_key = "ynat_norm"

    def __init__(
        self,
        d_x: int,
        d_u: int,
        d_y: int,
        h: int = DEFAULT_H,
        radius: float = 10.0,
        step_size: Optional[float] = None,
        schedule: Optional[str] = None,
        horizon: Optional[int] = None,
    ):
        self.d_x, self.d_u = _whole(d_x, 1, "d_x"), _whole(d_u, 1, "d_u")
        self.d_y = _whole(d_y, 1, "d_y")
        self.h = _whole(h, 0, "GRC's window h")
        super().__init__(self.d_y, self.h + 1, radius, step_size, schedule, horizon)
        self._C_key: Optional[tuple] = None  # key and checked C_t of the last act
        self._C: Optional[np.ndarray] = None

    def _output(self, C_t: Optional[object]) -> Optional[np.ndarray]:
        """``C_t`` checked to be (d_y, d_x); None (the state observed) needs
        ``d_y = d_x``."""
        if C_t is None and self.d_y != self.d_x:
            raise ConfigurationError(f"C_t = None observes the state, but d_y = {self.d_y} "
                                     f"and d_x = {self.d_x}")
        if C_t is None:
            return None
        return _as_matrix(C_t, "C_t", (self.d_y, self.d_x))

    def act(self, t: int, y: object, C_t: Optional[object] = None) -> np.ndarray:
        """Compute ``ynat_t`` from the observation, push it into the window
        and play ``u_t``."""
        self._check_turn()
        C_key = _content(C_t)
        if C_key != self._C_key:
            self._C, self._C_key = self._output(C_t), C_key
        C_t = self._C
        Y = self._stack.Y
        z = Y[: self.d_x, -1]
        y = _as_vector(y, self.d_y, "y")
        ynat = y - (z if C_t is None else C_t.dot(z))
        self._push(ynat)
        ynat_sq = ynat.dot(ynat)
        if math.isfinite(ynat_sq):
            u = self._feedback()
        else:  # a zero block times an inf entry gives the NaN control, unwarned
            with np.errstate(invalid="ignore"):
                u = self._feedback()
        Y[self.d_x :, -1] = u
        yu = self._played
        yu[: self.d_y], yu[self.d_y :] = y, u
        self._last = (t, yu, ynat_sq, C_t, C_key)
        return u

    def _output_map(self, C_t: Optional[np.ndarray]) -> np.ndarray:
        """``P = [[C_t, 0], [0, I]]`` (``C_t`` None: the identity): ``(x(M),
        u(M))`` to ``(C_t x(M), u(M))``."""
        C_t = np.eye(self.d_x) if C_t is None else C_t
        return np.block([[C_t, np.zeros((self.d_y, self.d_u))],
                         [np.zeros((self.d_u, self.d_x)), np.eye(self.d_u)]])

    def _validate(self, A_t: np.ndarray, B_t: np.ndarray, C_t: Optional[np.ndarray]) -> tuple:
        if spectral_radius(A_t) >= 1.0:
            raise ConfigurationError("GRC requires a stable system: spectral radius of A_t is >= 1")
        return self._output_map(C_t), np.concatenate((A_t, B_t), axis=1)


def grc_runner(
    controller: GRCController, system: object, cost: object
) -> Callable[[int, np.ndarray, np.ndarray], np.ndarray]:
    """Adapter: run a GRC controller inside :func:`nscontrol.lds_core.simulate`.

    ``cost`` here is evaluated on (observation, control) pairs.  Each call
    acts on the observation ``y_t`` and then updates with the step's
    ``(A_t, B_t)``, as :func:`gpc_runner` does.
    """

    def callback(t: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        A_t, B_t, C_t = system.matrices(t)
        u = controller.act(t, y, C_t)
        controller.update(t, A_t, B_t, cost)
        return u

    return callback
