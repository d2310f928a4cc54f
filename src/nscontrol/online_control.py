"""Online controllers with regret guarantees: projected online gradient
descent (OGD) and the two controllers built on it.

* :class:`GPCController` — gradient perturbation controller for fully
  observed systems with known (possibly time-varying) dynamics and a
  stabilizing gain: ``u_t = K_t x_t + sum_i M_i^t w_{t-i}``, with the
  ``M_i`` learned by OGD on counterfactual losses.
* :class:`GRCController` — gradient response controller for partially
  observed *stable* systems: ``u_t = sum_i M_i^t ynat_{t-i}`` over
  nature's-y signals, no stabilizing gain needed.

One private core, :class:`_DisturbanceFeedback`, runs the learner step of
both: the counterfactual pair, the loss ``l_t(M) = c_t(z_t(M), u_t(M))``
and its analytic gradient (the counterfactuals are linear in ``M``, so the
loss is convex), and the OGD step.  The counterfactuals are what playing
the current parameters from the beginning of time would have given,
truncated to the last ``H_trunc`` steps.  The classes differ only in the
signal (``w`` or ``ynat``) and in the output map from the counterfactual
state: GPC's pair is ``(x(M), u(M) + K_t x(M))``, GRC's ``(ynat_t + C_t
x(M), u(M))``.  In action-history form, one product of a Hankel view of
the signal window with ``M`` gives the actions ``M`` plays at every lag,
one product of the transition stack with them gives ``x(M)``, and the
gradient takes one product each way back: no Python loop over ``h`` or ``H``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, EvaluationError
from .lds_core import _as_matrix, _finite_vector, _whole, spectral_radius
from .policies import NaturesYTracker

__all__ = [
    "OGDState",
    "ogd_update",
    "counterfactual_state",
    "GPCController",
    "GRCController",
    "gpc_runner",
    "grc_runner",
]

#: Truncation tolerance entering the default cache-depth formula.
EPS_TRUNC = 1e-6

#: Default window length ``h`` of both learners, and the depth a hindsight
#: comparator falls back to when neither it nor the controller names one.
DEFAULT_H = 5

#: Floor on the measured decay rate (guards the depth formula's ceiling).
DELTA_MIN = 1e-3


# ---------------------------------------------------------------------------
# Online gradient descent
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OGDState:
    """Iterate of projected online gradient descent.

    ``point`` is the flat parameter vector; the feasible set is the
    Euclidean ball of the given ``radius`` (None = unconstrained).  With
    ``schedule="sqrt"`` the step is ``step_scale / sqrt(t)``; with
    ``"constant"`` it is ``step_scale`` every round.

    Raises
    ------
    ConfigurationError
        On an unknown schedule, a ``radius`` that is not None and not a
        finite number >= 0, a ``step_scale`` that is not finite and >= 0, or
        a ``point`` with a non-finite entry.
    """

    point: np.ndarray
    radius: Optional[float] = None
    step_scale: float = 0.1
    schedule: str = "sqrt"
    t: int = 0

    def __post_init__(self):
        if self.schedule not in ("sqrt", "constant"):
            raise ConfigurationError(f"unknown OGD schedule {self.schedule!r}")
        if self.radius is not None and not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise ConfigurationError(
                f"OGD radius must be None or a finite number >= 0, got {self.radius}"
            )
        if not (math.isfinite(self.step_scale) and self.step_scale >= 0.0):
            raise ConfigurationError(
                f"OGD step_scale must be a finite number >= 0, got {self.step_scale}"
            )
        object.__setattr__(self, "point", _finite_vector(np.ravel(self.point), None, "point"))

    def step_size(self, t: int) -> float:
        """Step size used at (1-based) iteration t."""
        if self.schedule == "sqrt":
            return self.step_scale / math.sqrt(t)
        return self.step_scale

    def _successor(self, point: np.ndarray, t: int) -> "OGDState":
        """This state with a new flat float ``point`` and counter ``t``.  The
        other fields passed ``__post_init__`` already, so it is skipped."""
        new = object.__new__(OGDState)
        new.__dict__.update(self.__dict__, point=point, t=t)
        return new


def ogd_update(state: OGDState, gradient: object) -> OGDState:
    """One projected-gradient step: move against the gradient, project
    back onto the ball, and advance the iteration counter.

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
    return _ogd_step(state, g)[0]


def _ogd_step(state: OGDState, g: np.ndarray, factor: float = 1.0) -> tuple:
    """:func:`ogd_update` on the gradient ``factor * g``, for a flat float
    ``g`` of the point's shape and a power of two ``factor``, which the step
    size takes up exactly: the new point is bitwise the one the gradient
    itself gives.  Returns the new state, ``||factor * g||``, the step size
    ``eta`` it took, and the norm of the new point, or None when the
    projection scaled the point (or there is no ball).  The entries are
    scanned only when ``||factor * g||`` is not finite."""
    gg = g.dot(g) * (factor * factor)
    if gg < 2.0**-900 and factor != 1.0:
        # Near the subnormals g.g has lost bits that the scaled sum keeps.
        gg = (g * factor).dot(g * factor)
    # g.g is finite exactly when every entry is, unless it overflows.
    if not math.isfinite(gg) and not np.isfinite(g * factor).all():
        raise EvaluationError("OGD update rejected: non-finite gradient")
    t_next = state.t + 1
    eta = state.step_size(t_next)
    y = g * (-factor * eta)
    y += state.point
    norm = None
    if state.radius is not None:
        norm = math.sqrt(y.dot(y))
        if norm > state.radius:
            y *= state.radius / norm
            norm = None
    return state._successor(y, t_next), math.sqrt(gg), eta, norm


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

    This is the plain recursion-from-zero reference; the controllers keep
    incrementally cached product stacks that must agree with it.
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


def _measure_decay(closed: np.ndarray, n: int = 50) -> float:
    """Decay rate of ``||closed^n||`` used to size the truncation depth."""
    norm = float(np.linalg.norm(np.linalg.matrix_power(closed, n), 2))
    if norm <= 0.0:
        return 0.999
    rate = 1.0 - norm ** (1.0 / n)
    return float(min(max(rate, DELTA_MIN), 0.999))


def _default_depth(h: int, delta_hat: float) -> int:
    return 2 * h + int(math.ceil(math.log(1.0 / EPS_TRUNC) / delta_hat))


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


class _DisturbanceFeedback:
    """Parameters, OGD iterate, caches and the whole learner step of a
    learner that plays ``u_t(M) = gain part + sum_i M_i s_{t-lag-i}`` over a
    signal ``s`` (GPC: ``w``, lag 1; GRC: ``ynat``, lag 0), in action-history
    form.  ``act`` records ``_last = (t, offset, u_t, K, ...)``.

    The OGD point holds the parameters in ``(d_u, len(Ms), d_s)`` order,
    ``Ms`` is the ``(len(Ms), d_u, d_s)`` view of it, and ``M`` is the
    ``(d_u, len(Ms) * d_s)`` one.  ``M'`` is the view ``M.T``, taken once
    per OGD step, or from ``Ms`` whenever ``Ms`` is reassigned, so a
    reassigned ``Ms`` is played too.  Row ``m`` of the Hankel matrix
    ``_Zh`` is the signal window from lag ``m`` on, flattened, so ``U = _Zh
    M'`` holds the actions ``M`` plays at lags ``0..H``: row 0 is the
    current feedback and rows ``1..H`` the counterfactual past actions.  The
    truncated state response to them is ``x(M) = [U | 1] . P`` (GPC's
    column of ones takes its ``w`` drift; GRC has none), exactly as
    :func:`counterfactual_state` truncates it.  The cost sees ``z = offset +
    C x(M)`` and ``u = u(M) + K x(M)`` (``C`` given at query and update time,
    None for the identity); with its gradient ``(g_z, g_u)`` the loss has
    the gradient ``[g_u; (P v)_u]' _Zh`` in point order, ``v = C' g_z + K'
    g_u``.  The sensitivity matrix of ``x(M)`` to the point is never formed.
    The step carries the cost's half gradient through these products and
    takes the factor 2 in the OGD step size, which is exact.

    The caches hold no past action until the first transition matrix fixes
    ``H = H_trunc``; then they are allocated at that depth and updated in
    place:

    * ``_Zh`` (``H + 1``, ``len(Ms) * d_s``): the Hankel matrix of the
      signal window, newest first, shifted one row down in place on each
      push.
    * ``_P`` (``(H + 1) * width``, d_x): row block ``k + 1`` holds the
      transposes of the transition product over the last ``k`` steps times
      ``B_{t-1-k}`` and, for GPC (``width = d_u + 1``), times ``w_{t-1-k}``.
      Block 0 is zero: the current control does not move the current state.
      The stack moves on by one matrix product into a spare buffer that is
      swapped in.

    ``update`` validates the dynamics matrices, their shapes included, and
    derives what the subclass needs of them, only when their content differs
    from the last validated ones: the comparison is by shape and bytes, so a
    matrix mutated in place is validated again.
    """

    #: Telemetry key of the norm of the signal recorded at each update.
    _signal_key = ""
    #: Whether the signal itself drives the state (GPC's ``w``).
    _drifts = False

    def __init__(self, d_s, n_M, radius, step_size, schedule, horizon, H_trunc):
        # Subclasses set d_x, d_u and h first.
        self._n_M, self._d_s = n_M, d_s
        scale = float(step_size) if step_size is not None else float(radius)
        if schedule == "constant":
            if horizon is None:
                raise ConfigurationError("constant schedule needs the horizon T")
            scale = scale / math.sqrt(horizon)
        self.ogd = OGDState(
            point=np.zeros(self.d_u * n_M * d_s), radius=float(radius), step_scale=scale,
            schedule=schedule,
        )
        self.Ms = self._stacked(self.ogd.point)
        self.H_trunc: Optional[int] = None if H_trunc is None else _whole(H_trunc, 1, "H_trunc")
        self.delta_hat: Optional[float] = None
        self.projected_steps = 0
        self.telemetry: list = []
        self._last: Optional[tuple] = None
        self._dynamics_key: Optional[tuple] = None
        self._dynamics: Optional[tuple] = None
        self._Zh = np.zeros((0, n_M * d_s))
        self._allocate(0)

    @property
    def Ms(self) -> np.ndarray:
        """The held parameters, ``(len(Ms), d_u, d_s)``."""
        if self._Ms is None:
            self._Ms = self._stacked(self.ogd.point)
        return self._Ms

    @Ms.setter
    def Ms(self, Ms: np.ndarray) -> None:
        self._Ms = Ms
        self._Mt = Ms.transpose(0, 2, 1).reshape(-1, self.d_u)

    def _stacked(self, flat: np.ndarray) -> np.ndarray:
        """The ``(len(Ms), d_u, d_s)`` view of a flat point-order vector."""
        return flat.reshape(self.d_u, self._n_M, self._d_s).transpose(1, 0, 2)

    def _start(self, transition: np.ndarray) -> None:
        """Size the caches from the first transition matrix's decay."""
        self.delta_hat = _measure_decay(transition)
        if self.H_trunc is None:
            self.H_trunc = _default_depth(self.h, self.delta_hat)
        self._allocate(self.H_trunc)

    def _allocate(self, H: int) -> None:
        """Allocate the caches at depth ``H``, keeping the window's entries."""
        n_M, d_s = self._n_M, self._d_s
        held = self._Zh[:1].reshape(-1)  # the window pushed before the sizing, if any
        window = np.zeros((H + n_M) * d_s)
        window[: len(held)] = held
        self._Zh = sliding_window_view(window, n_M * d_s)[::d_s].copy()
        self._width = self.d_u + 1 if self._drifts else self.d_u
        self._P = np.zeros(((H + 1) * self._width, self.d_x))
        self._P_spare = np.zeros_like(self._P)
        self._U = np.ones((H + 1, self._width)) if self._drifts else None  # GPC's [U | 1]

    def _validated(self, A_t: object, B_t: object, extra: object) -> tuple:
        """The subclass's ``(C, transition, transition', B', ...)``, derived only
        when the shapes or bytes of ``(A_t, B_t, extra)`` differ from the last call's."""
        A_t = np.asarray(A_t, dtype=float)
        B_t = np.asarray(B_t, dtype=float)
        key = (A_t.shape, A_t.tobytes(), B_t.shape, B_t.tobytes())
        if extra is not None:
            extra = np.asarray(extra, dtype=float)
            key += (extra.shape, extra.tobytes())
        if key != self._dynamics_key:
            A_t = _as_matrix(A_t, "A_t", (self.d_x, self.d_x))
            B_t = _as_matrix(B_t, "B_t", (self.d_x, self.d_u))
            self._dynamics = self._validate(A_t, B_t, extra)
            self._dynamics_key = key
        return self._dynamics

    def _acted(self) -> tuple:
        """``_last``, which ``act`` records and ``update`` clears."""
        if self._last is None:
            raise ConfigurationError("call act() before querying counterfactuals")
        return self._last

    def _turn(self, t: int) -> tuple:
        """``_last`` if ``act(t)`` was the last call."""
        if self._last is None or self._last[0] != t:
            raise ConfigurationError("update(t) must follow act(t)")
        return self._last

    def _feedback(self) -> np.ndarray:
        """``sum_i Ms[i] window[i]``: the learned part of the current control."""
        return self._Zh[0].dot(self._Mt)

    def _counterfactual(self, C: Optional[np.ndarray]) -> tuple:
        """``(z_t(M), u_t(M))`` at the parameters now held."""
        _, offset, _, K = self._acted()[:4]
        U = self._Zh.dot(self._Mt)
        if self._drifts:
            self._U[:, : self.d_u] = U
            U = self._U
        x = U.reshape(-1).dot(self._P)
        z = x if C is None else C.dot(x)
        u = U[0, : self.d_u]
        return (z if offset is None else offset + z), (u if K is None else K.dot(x) + u)

    def _loss_and_half_gradient(self, cost: object, C: Optional[np.ndarray]) -> tuple:
        """Counterfactual loss and half its flat gradient in point order,
        pulled back through the output map."""
        z, u = self._counterfactual(C)
        t, _, _, K = self._last[:4]
        loss, half_grad = _resolve_cost(cost, t).stage(z, u)
        gz, gu = half_grad[: len(z)], half_grad[len(z) :]
        v = gz if C is None else C.T.dot(gz)
        V = self._P.dot(v if K is None else v + K.T.dot(gu))
        V[: self.d_u] = gu
        return loss, V.reshape(-1, self._width).T.dot(self._Zh)[: self.d_u].reshape(-1)

    def _stacked_loss_and_gradient(self, cost: object, C: Optional[np.ndarray]) -> tuple:
        """``loss_and_gradient``: the gradient shaped like ``Ms``, twice the
        half gradient (exactly)."""
        loss, half_grad = self._loss_and_half_gradient(cost, C)
        return loss, self._stacked(half_grad + half_grad)

    def _step(self, t: int, cost: object, dynamics: tuple, signal_norm: float,
              drift: Optional[np.ndarray] = None) -> None:
        """One learner step at ``t`` on the :meth:`_validated` ``dynamics``:
        the projected OGD step on the counterfactual loss, the telemetry row,
        and the stack moved one step on (older blocks times the transition
        matrix, the oldest dropped, ``B`` and, for GPC, the ``drift`` w as
        block 1).  Raises EvaluationError if the new iterate left the ball
        or moved further than ``eta * ||g||``."""
        C, transition, transition_T, B_T = dynamics[:4]
        if self.delta_hat is None:
            self._start(transition)
        loss, half_grad = self._loss_and_half_gradient(cost, C)
        state = self.ogd
        self.ogd, grad_norm, eta, M_norm = _ogd_step(state, half_grad, 2.0)
        point = self.ogd.point
        if M_norm is None:  # the projection scaled the point
            self.projected_steps += 1
            M_norm = math.sqrt(point.dot(point))
        if state.radius is not None and M_norm > state.radius + 1e-9:
            raise EvaluationError(f"OGD iterate left the ball of radius {state.radius}")
        moved = point - state.point
        if math.sqrt(moved.dot(moved)) > eta * grad_norm + 1e-12:
            raise EvaluationError("OGD iterate moved further than eta * ||g||")
        self._Ms, self._Mt = None, point.reshape(self.d_u, -1).T  # Ms when read
        self.telemetry.append({"t": t, "loss": loss, "M_norm": M_norm,
                               self._signal_key: signal_norm, "grad_norm": grad_norm})
        P, self._P, w = self._P, self._P_spare, self._width
        np.dot(P[w:-w], transition_T, out=self._P[2 * w :])
        self._P[w : w + self.d_u] = B_T
        if drift is not None:
            self._P[w + self.d_u] = drift
        self._P_spare = P
        self._last = None

    def _push(self, signal: np.ndarray) -> None:
        """Shift the signal window one row and put ``signal`` first."""
        Zh, d_s = self._Zh, self._d_s
        Zh[1:] = Zh[:-1]
        Zh[0, d_s:] = Zh[0, :-d_s]
        Zh[0, :d_s] = signal


# ---------------------------------------------------------------------------
# GPC
# ---------------------------------------------------------------------------


class GPCController(_DisturbanceFeedback):
    """Gradient perturbation controller.

    Per step ``t``: play ``u_t = K_t x_t + sum_{i=1}^{h} M_i^t w_{t-i}``,
    observe ``x_{t+1}``, recover ``w_t = x_{t+1} - A_t x_t - B_t u_t``,
    build the counterfactual loss ``l_t(M) = c_t(x_t(M), u_t(M))``, and
    take one projected OGD step on it.

    Runs on the learner step shared with :class:`GRCController`.

    A controller spec (dict, config file or CLI flags) sets the learner
    options ``h``, ``radius``, ``step_size``, ``schedule`` and ``H_trunc``;
    their defaults live here alone.  Each update appends a telemetry dict
    to ``self.telemetry`` with the keys ``t``, ``loss`` (the counterfactual
    loss ``l_t(M^t)``), ``M_norm`` (``||M||`` after the step), ``w_norm``
    and ``grad_norm``, and ``self.projected_steps`` counts the steps whose
    projection onto the ball scaled the point.  The played cost ``c_t(x_t, u_t)`` is not repeated
    there: it is ``Trajectory.costs[t]`` under
    :func:`~nscontrol.lds_core.simulate`, and entry ``t`` of the array that
    :func:`~nscontrol.sysid.control_with_model` returns.

    Parameters
    ----------
    d_x, d_u : int
        State and control dimensions.
    K : array_like or callable
        Stabilizing gain (``u = Kx`` convention) or provider ``t -> K_t``,
        of shape (d_u, d_x): a fixed gain is checked here, a provided one
        by :meth:`gain` when ``act`` reads it.
    h : int
        Number of learned disturbance-action matrices.
    radius : float
        Frobenius-ball projection radius on the stacked parameters.
    step_size : float, optional
        Scale ``c`` of the step schedule (``c/sqrt(t)`` or, with the
        constant schedule, ``c/sqrt(T)``).  Defaults to ``radius``.
    schedule : {"sqrt", "constant"}
    horizon : int, optional
        Required for the constant schedule (sets ``eta = c/sqrt(T)``).
    H_trunc : int, optional
        Cache depth for the counterfactual sums; by default
        ``2h + ceil(log(1/EPS_TRUNC)/delta_hat)`` with the decay rate
        measured from powers of the first closed-loop matrix.
    """

    _signal_key = "w_norm"
    _drifts = True

    def __init__(
        self,
        d_x: int,
        d_u: int,
        K: Union[object, Callable[[int], object]],
        h: int = DEFAULT_H,
        radius: float = 10.0,
        step_size: Optional[float] = None,
        schedule: str = "sqrt",
        horizon: Optional[int] = None,
        H_trunc: Optional[int] = None,
    ):
        self.d_x, self.d_u = _whole(d_x, 1, "d_x"), _whole(d_u, 1, "d_u")
        self.h = _whole(h, 1, "GPC's window h")
        self._K_provider = K if callable(K) else None
        self._K_fixed = None
        if not callable(K):
            self._K_fixed = _as_matrix(K, "K", (self.d_u, self.d_x))
        super().__init__(self.d_x, self.h, radius, step_size, schedule, horizon, H_trunc)

    def gain(self, t: int) -> np.ndarray:
        if self._K_fixed is not None:
            return self._K_fixed
        return _as_matrix(self._K_provider(t), f"K_{t}", (self.d_u, self.d_x))

    def act(self, t: int, x: object) -> np.ndarray:
        """Emit ``u_t`` from the current parameters and perturbation window."""
        x = np.asarray(x, dtype=float)
        K_t = self.gain(t)
        u = K_t.dot(x) + self._feedback()
        xu = np.concatenate((x, u))
        self._last = (t, None, xu[self.d_x :], K_t, xu)
        return u

    def _validate(self, A_t: np.ndarray, B_t: np.ndarray, K_t: np.ndarray) -> tuple:
        closed = A_t + B_t @ K_t
        return None, closed, closed.T.copy(), B_t.T.copy(), np.concatenate((A_t, B_t), axis=1)

    def counterfactuals(self) -> tuple[np.ndarray, np.ndarray]:
        """Current-step counterfactual pair ``(x_t(M), u_t(M))`` for the
        parameters now held (cache-based fast path)."""
        return self._counterfactual(None)

    def loss_and_gradient(self, cost: object) -> tuple[float, np.ndarray]:
        """Counterfactual loss ``l_t(M)`` at the held parameters and its
        analytic gradient, shaped like ``Ms``.  Valid between act() and
        update()."""
        return self._stacked_loss_and_gradient(cost, None)

    def update(self, t: int, A_t: object, B_t: object, x_next: object, cost: object) -> np.ndarray:
        """Recover ``w_t``, take the OGD step on ``l_t``, advance caches.

        Returns the recovered perturbation ``w_t``.
        """
        K_t, xu = self._turn(t)[3:]
        dynamics = self._validated(A_t, B_t, K_t)
        w_t = np.asarray(x_next, dtype=float) - dynamics[4].dot(xu)
        ww = w_t.dot(w_t)
        # w.w is finite exactly when every entry is, unless it overflows.
        if not math.isfinite(ww) and not np.isfinite(w_t).all():
            raise EvaluationError(f"recovered perturbation is non-finite at t={t}; aborting run")
        self._step(t, cost, dynamics, math.sqrt(ww), w_t)
        self._push(w_t)
        return w_t


def gpc_runner(
    controller: GPCController, system: object, cost: object
) -> Callable[[int, np.ndarray, np.ndarray], np.ndarray]:
    """Adapter: run a GPC controller inside :func:`nscontrol.lds_core.simulate`.

    The update for step ``t-1`` happens at the start of the call for step
    ``t`` (when ``x_t`` has become observable).
    """
    acted_on: list = []  # (A_t, B_t) of the last step acted on

    def callback(t: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if t > 0 and controller._last is not None:
            controller.update(t - 1, *acted_on, x, cost)
        acted_on[:] = system.matrices(t)[:2]
        return controller.act(t, x)

    return callback


# ---------------------------------------------------------------------------
# GRC
# ---------------------------------------------------------------------------


class GRCController(_DisturbanceFeedback):
    """Gradient response controller for stable, partially observed systems.

    Per step ``t``: compute nature's y ``ynat_t = y_t - C_t z_t``, play
    ``u_t = sum_{i=0}^{h} M_i^t ynat_{t-i}``, reconstruct the
    counterfactual observation ``y_t(M) = ynat_t + C_t sum_i F_i u_{t-i}(M)``
    through the cached Markov operators ``F_i``, and take one projected
    OGD step on ``l_t(M) = c_t(y_t(M), u_t(M))``.

    Runs on the learner step shared with :class:`GPCController`.  ``A_t``
    must have spectral radius below 1, checked whenever ``(A_t, B_t, C_t)``
    differ from the last dynamics validated.  ``C_t = None`` means the
    state is observed.

    The cost is evaluated on (observation, control) pairs.  ``d_y`` is the
    observation dimension; ``h`` (the window holds ``h + 1`` matrices,
    lags 0 to ``h``), ``radius``, ``step_size``, ``schedule``, ``horizon``
    and ``H_trunc`` are the learner options of :class:`GPCController`, with
    the same defaults.  Each update appends a telemetry dict to
    ``self.telemetry`` with the keys ``t``, ``loss``, ``M_norm``,
    ``ynat_norm`` and ``grad_norm``; the played cost is not among them.
    ``self.projected_steps`` counts projected steps as for GPC.
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
        schedule: str = "sqrt",
        horizon: Optional[int] = None,
        H_trunc: Optional[int] = None,
    ):
        self.d_x, self.d_u = _whole(d_x, 1, "d_x"), _whole(d_u, 1, "d_u")
        self.d_y = _whole(d_y, 1, "d_y")
        self.h = _whole(h, 0, "GRC's window h")
        super().__init__(self.d_y, self.h + 1, radius, step_size, schedule, horizon, H_trunc)
        self.tracker = NaturesYTracker(self.d_x)

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
        """Compute ``ynat_t`` from the observation and emit ``u_t``."""
        ynat = self.tracker.observe(np.asarray(y, dtype=float), C_t)
        self._push(ynat)
        u = self._feedback()
        self._last = (t, ynat, u, None)
        return u.copy()

    def _validate(self, A_t: np.ndarray, B_t: np.ndarray, C_t: Optional[np.ndarray]) -> tuple:
        C_t = self._output(C_t)
        if spectral_radius(A_t) >= 1.0:
            raise ConfigurationError("GRC requires a stable system: spectral radius of A_t is >= 1")
        return C_t, A_t, A_t.T.copy(), B_t.T.copy(), B_t

    def counterfactuals(self, C_t: Optional[object] = None) -> tuple[np.ndarray, np.ndarray]:
        """Counterfactual pair ``(y_t(M), u_t(M))`` for the held parameters,
        valid between act() and update()."""
        return self._counterfactual(self._output(C_t))

    def loss_and_gradient(self, cost: object,
                          C_t: Optional[object] = None) -> tuple[float, np.ndarray]:
        """Counterfactual loss ``l_t(M)`` at the held parameters and its
        analytic gradient, shaped like ``Ms``.  Valid between act() and
        update()."""
        return self._stacked_loss_and_gradient(cost, self._output(C_t))

    def update(self, t: int, A_t: object, B_t: object, C_t: Optional[object], cost: object) -> None:
        """Take the OGD step on ``l_t``, refresh caches, advance nature's y."""
        ynat, u_played = self._turn(t)[1:3]
        dynamics = self._validated(A_t, B_t, C_t)
        self._step(t, cost, dynamics, math.sqrt(ynat.dot(ynat)))
        self.tracker.advance(dynamics[1], dynamics[4], u_played)


def grc_runner(
    controller: GRCController, system: object, cost: object
) -> Callable[[int, np.ndarray, np.ndarray], np.ndarray]:
    """Adapter: run a GRC controller inside :func:`nscontrol.lds_core.simulate`.

    ``cost`` here is evaluated on (observation, control) pairs; act and
    update both happen inside the same callback since no future state is
    needed.
    """

    def callback(t: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        A_t, B_t, C_t = system.matrices(t)
        u = controller.act(t, y, C_t)
        controller.update(t, A_t, B_t, C_t, cost)
        return u

    return callback
