"""Online controllers with regret guarantees: projected online gradient
descent (OGD) and the two controllers built on it.

* :class:`GPCController` — gradient perturbation controller for fully
  observed systems with known (possibly time-varying) dynamics and a
  stabilizing gain: ``u_t = K_t x_t + sum_i M_i^t w_{t-i}``, with the
  ``M_i`` learned by OGD on counterfactual losses.
* :class:`GRCController` — gradient response controller for partially
  observed *stable* systems: ``u_t = sum_i M_i^t ynat_{t-i}`` over
  nature's-y signals, no stabilizing gain needed.

Both construct the per-step loss ``l_t(M) = c_t(state-or-observation(M),
u_t(M))`` where the counterfactual signals are the ones that would have
occurred had the current parameters been played from the beginning of
time, truncated to the last ``H_trunc`` steps; both compute gradients
analytically (the counterfactuals are linear in ``M``, so the loss is
convex).  Both run one private core, :class:`_DisturbanceFeedback`, whose
preallocated caches are updated in place and whose step is a fixed number
of whole-array numpy calls on one Hankel gather of the signal window: no
Python loop over ``h`` or ``H``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .lds_core import _as_matrix, spectral_radius
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
    """

    point: np.ndarray
    radius: Optional[float] = None
    step_scale: float = 0.1
    schedule: str = "sqrt"
    t: int = 0

    def __post_init__(self):
        if self.schedule not in ("sqrt", "constant"):
            raise ConfigurationError(f"unknown OGD schedule {self.schedule!r}")
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float).ravel())

    def step_size(self, t: int) -> float:
        """Step size used at (1-based) iteration t."""
        if self.schedule == "sqrt":
            return self.step_scale / math.sqrt(t)
        return self.step_scale


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
    if not np.isfinite(g).all():
        raise EvaluationError("OGD update rejected: non-finite gradient")
    t_next = state.t + 1
    eta = state.step_size(t_next)
    y = state.point - eta * g
    if state.radius is not None:
        norm = math.sqrt(y @ y)
        if norm > state.radius:
            y = y * (state.radius / norm)
    return OGDState(y, state.radius, state.step_scale, state.schedule, t_next)


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
    Ms = [_as_matrix(M, f"M_{j + 1}") for j, M in enumerate(Ms)]
    if A_closed_history:
        d_x = _as_matrix(A_closed_history[0], "A~").shape[0]
    elif w_history:
        d_x = np.asarray(w_history[0]).shape[0]
    else:
        raise ConfigurationError("counterfactual_state needs at least one history entry")
    depth = min(int(H_trunc), len(A_closed_history))
    if depth <= 0:
        return np.zeros(d_x)

    def w_at(m: int) -> np.ndarray:
        if 0 <= m < len(w_history):
            return np.asarray(w_history[m], dtype=float)
        return np.zeros(d_x)

    z = np.zeros(d_x)
    # March forward from t-depth to t-1; m is the most-recent-first index.
    for m in range(depth - 1, -1, -1):
        A_m = _as_matrix(A_closed_history[m], "A~")
        B_m = _as_matrix(B_history[m], "B")
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


def _default_depth(h: int, delta_hat: float, eps_trunc: float = EPS_TRUNC) -> int:
    return 2 * h + int(math.ceil(math.log(1.0 / eps_trunc) / delta_hat))


def _resolve_cost(cost: object, t: int) -> object:
    """Costs may be a fixed object or a provider ``t -> cost object``."""
    if hasattr(cost, "value"):
        return cost
    if callable(cost):
        return cost(t)
    raise ConfigurationError("cost must expose value/grad_x/grad_u or be a provider")


# ---------------------------------------------------------------------------
# Disturbance-feedback core shared by GPC and GRC
# ---------------------------------------------------------------------------


class _DisturbanceFeedback:
    """Parameters, OGD iterate, caches and per-step work of a learner that
    plays ``u_t(M) = gain part + sum_i M_i s_{t-lag-i}`` over a signal ``s``
    (GPC: ``w``, lag 1; GRC: ``ynat``, lag 0).

    ``Ms[i]`` multiplies ``window[i]``, so ``u_{t-m}(M) = sum_i Ms[i]
    window[m+i]`` for every lag ``m``, and one Hankel gather of the window
    feeds all lags.  The caches hold no past control until the first
    transition matrix fixes ``H_trunc``; then they are allocated at that
    depth and updated in place:

    * ``_Z`` (``H_trunc + len(Ms)``, d_s): the signal window, newest first.
    * ``_P`` (d_x, ``H_trunc``, d_u): block ``[:, k]`` is the transition
      product over the last ``k`` steps times ``B_{t-1-k}``; it moves on by
      one flat matrix product into a spare buffer that is swapped in.
    * ``_D`` (``H_trunc``, d_x), GPC only: the same products times ``w``.

    Sums over lags are sequential reductions (lag after lag), not BLAS dot
    products, so scalar runs round exactly as a plain per-lag loop does: a
    diverging run such as the README's ``sysid`` example amplifies any
    change of rounding into its printed result.
    """

    #: Telemetry key of the norm of the signal recorded at each update.
    _signal_key = ""
    #: Whether the signal itself drives the state (GPC's ``w``).
    _drifts = False

    def __init__(self, d_s, n_M, radius, step_size, schedule, horizon, H_trunc, eps_trunc,
                 telemetry_sink):
        # Subclasses set d_x, d_u and h first.
        self.Ms = np.zeros((n_M, self.d_u, d_s))
        scale = float(step_size) if step_size is not None else float(radius)
        if schedule == "constant":
            if horizon is None:
                raise ConfigurationError("constant schedule needs the horizon T")
            scale = scale / math.sqrt(horizon)
        self.ogd = OGDState(
            point=self.Ms.ravel(), radius=float(radius), step_scale=scale, schedule=schedule
        )
        if H_trunc is not None and int(H_trunc) < 1:
            raise ConfigurationError(f"H_trunc must be at least 1, got {H_trunc}")
        self._eps_trunc = float(eps_trunc)
        self.H_trunc: Optional[int] = None if H_trunc is None else int(H_trunc)
        self.delta_hat: Optional[float] = None
        self.telemetry: list = []
        self._sink = telemetry_sink
        self._last: Optional[tuple] = None
        self._Z = np.zeros((0, d_s))
        self._allocate(0)

    def _start(self, transition: np.ndarray) -> None:
        """Size the caches from the first transition matrix's decay."""
        self.delta_hat = _measure_decay(transition)
        if self.H_trunc is None:
            self.H_trunc = _default_depth(self.h, self.delta_hat, self._eps_trunc)
        self._allocate(self.H_trunc)

    def _allocate(self, H: int) -> None:
        """Allocate the caches at depth ``H``, keeping the window's entries."""
        n_M, d_u, d_s = self.Ms.shape
        window = self._Z
        self._Z = np.zeros((H + n_M, d_s))
        self._Z[: len(window)] = window
        # _hankel[i, k] indexes window[i + 1 + k], the entry Ms[i] meets at lag k + 1.
        lag = np.arange(n_M)[:, None, None] + 1 + np.arange(H)[:, None]
        self._hankel = d_s * lag + np.arange(d_s)
        self._P = np.zeros((self.d_x, H, d_u))
        self._P_spare = np.zeros_like(self._P)
        self._D = np.zeros((H, self.d_x)) if self._drifts else None
        self._D_spare = np.zeros((H, self.d_x)) if self._drifts else None

    def _feedback(self) -> np.ndarray:
        """``sum_i Ms[i] window[i]``: the learned part of the current control."""
        return np.einsum("juy,jy->u", self.Ms, self._Z[: len(self.Ms)])

    def _response(self) -> tuple:
        """``(z, Zh)``: the truncated state response to the controls the
        held parameters would have played (plus the drift, for GPC), and
        the Hankel gather of the window."""
        Zh = self._Z.take(self._hankel)
        U = np.add.reduce(np.matmul(Zh, self.Ms.transpose(0, 2, 1)), axis=0)
        z = np.einsum("xku,ku->x", self._P, U)
        return (z if self._D is None else z + np.add.reduce(self._D, axis=0)), Zh

    def _gradient(self, v: np.ndarray, gu: np.ndarray, Zh: np.ndarray) -> np.ndarray:
        """Gradient, shaped like ``Ms``, of a loss whose derivative is ``v``
        along the state response and ``gu`` along the current control."""
        S = (v @ self._P.reshape(len(v), -1)).reshape(-1, self.d_u)
        return np.matmul(S.T, Zh) + gu[:, None] * self._Z[: len(self.Ms), None, :]

    def _learn(self, grad: np.ndarray, row: dict, signal: np.ndarray) -> None:
        """Projected OGD step on ``grad``, its invariants, and the telemetry row.

        Raises
        ------
        EvaluationError
            If the new iterate left the ball or moved further than
            ``eta * ||grad||``.
        """
        g = grad.ravel()
        previous = self.ogd.point
        self.ogd = ogd_update(self.ogd, g)
        point = self.ogd.point
        grad_norm = math.sqrt(g @ g)
        M_norm = math.sqrt(point @ point)
        if self.ogd.radius is not None and M_norm > self.ogd.radius + 1e-9:
            raise EvaluationError(f"OGD iterate left the ball of radius {self.ogd.radius}")
        moved = point - previous
        if math.sqrt(moved @ moved) > self.ogd.step_size(self.ogd.t) * grad_norm + 1e-12:
            raise EvaluationError("OGD iterate moved further than eta * ||g||")
        self.Ms = point.reshape(self.Ms.shape)
        row["M_norm"] = M_norm
        row[self._signal_key] = math.sqrt(signal @ signal)
        row["grad_norm"] = grad_norm
        self.telemetry.append(row)
        if self._sink is not None:
            self._sink(row)

    def _advance(self, transition: np.ndarray, B: np.ndarray, drift=None) -> None:
        """Move the stacks one step on: older blocks are multiplied by
        ``transition`` and the oldest falls out; ``B`` (and, for GPC, the
        ``drift`` w) become block 0."""
        P, self._P = self._P, self._P_spare
        np.matmul(transition, P[:, :-1].reshape(self.d_x, -1),
                  out=self._P[:, 1:].reshape(self.d_x, -1))
        self._P[:, 0] = B
        self._P_spare = P
        if self._D is not None:
            D, self._D = self._D, self._D_spare
            np.matmul(D[:-1], transition.T, out=self._D[1:])
            self._D[0] = drift
            self._D_spare = D

    def _push(self, signal: np.ndarray) -> None:
        """Shift the signal window one row and put ``signal`` first."""
        self._Z[1:] = self._Z[:-1]
        self._Z[0] = signal


# ---------------------------------------------------------------------------
# GPC
# ---------------------------------------------------------------------------


class GPCController(_DisturbanceFeedback):
    """Gradient perturbation controller.

    Per step ``t``: play ``u_t = K_t x_t + sum_{i=1}^{h} M_i^t w_{t-i}``,
    observe ``x_{t+1}``, recover ``w_t = x_{t+1} - A_t x_t - B_t u_t``,
    build the counterfactual loss ``l_t(M) = c_t(x_t(M), u_t(M))``, and
    take one projected OGD step on it.

    Runs on the core shared with :class:`GRCController`: the ``w`` window
    and the ``H_trunc``-deep closed-loop products applied to ``B`` and ``w``
    are allocated at the first update and updated in place.

    Parameters
    ----------
    d_x, d_u : int
        State and control dimensions.
    K : array_like or callable
        Stabilizing gain (``u = Kx`` convention) or provider ``t -> K_t``.
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
        ``2h + ceil(log(1/eps_trunc)/delta_hat)`` with the decay rate
        measured from powers of the first closed-loop matrix.
    telemetry_sink : callable, optional
        Receives one dict per update (also kept in ``self.telemetry``).
    """

    _signal_key = "w_norm"
    _drifts = True

    def __init__(
        self,
        d_x: int,
        d_u: int,
        K: Union[object, Callable[[int], object]],
        h: int = 5,
        radius: float = 10.0,
        step_size: Optional[float] = None,
        schedule: str = "sqrt",
        horizon: Optional[int] = None,
        H_trunc: Optional[int] = None,
        eps_trunc: float = EPS_TRUNC,
        telemetry_sink: Optional[Callable[[dict], None]] = None,
    ):
        self.d_x, self.d_u, self.h = int(d_x), int(d_u), int(h)
        if self.h < 1:
            raise ConfigurationError("GPC needs a window h >= 1")
        self._K_provider = K if callable(K) else None
        self._K_fixed = None if callable(K) else _as_matrix(K, "K")
        super().__init__(self.d_x, self.h, radius, step_size, schedule, horizon, H_trunc,
                         eps_trunc, telemetry_sink)

    def gain(self, t: int) -> np.ndarray:
        return (
            self._K_fixed
            if self._K_fixed is not None
            else _as_matrix(self._K_provider(t), f"K_{t}")
        )

    def act(self, t: int, x: object) -> np.ndarray:
        """Emit ``u_t`` from the current parameters and perturbation window."""
        x = np.asarray(x, dtype=float)
        K_t = self.gain(t)
        u = K_t @ x + self._feedback()
        self._last = (t, x.copy(), u.copy(), K_t)
        return u

    def _counterfactual(self) -> tuple:
        """``(x_t(M), u_t(M), Zh)`` with the Hankel gather they used."""
        if self._last is None:
            raise ConfigurationError("call act() before querying counterfactuals")
        x_cf, Zh = self._response()
        return x_cf, self._last[3] @ x_cf + self._feedback(), Zh

    def counterfactuals(self) -> tuple[np.ndarray, np.ndarray]:
        """Current-step counterfactual pair ``(x_t(M), u_t(M))`` for the
        parameters now held (cache-based fast path)."""
        return self._counterfactual()[:2]

    def loss_and_gradient(self, cost: object) -> tuple[float, np.ndarray]:
        """Counterfactual loss ``l_t(M)`` at the held parameters and its
        analytic gradient with respect to the parameter stack.  Valid
        between act() and update()."""
        x_cf, u_cf, Zh = self._counterfactual()
        t, _, _, K_t = self._last
        cost_t = _resolve_cost(cost, t)
        loss = float(cost_t.value(x_cf, u_cf))
        gx = np.asarray(cost_t.grad_x(x_cf, u_cf), dtype=float)
        gu = np.asarray(cost_t.grad_u(x_cf, u_cf), dtype=float)
        return loss, self._gradient(gx + K_t.T @ gu, gu, Zh)

    def update(self, t: int, A_t: object, B_t: object, x_next: object, cost: object) -> np.ndarray:
        """Recover ``w_t``, take the OGD step on ``l_t``, advance caches.

        Returns the recovered perturbation ``w_t``.
        """
        if self._last is None or self._last[0] != t:
            raise ConfigurationError("update(t) must follow act(t)")
        A_t = _as_matrix(A_t, "A_t")
        B_t = _as_matrix(B_t, "B_t")
        x_next = np.asarray(x_next, dtype=float)
        _, x, u, K_t = self._last
        w_t = x_next - A_t @ x - B_t @ u
        if not np.isfinite(w_t).all():
            raise EvaluationError(f"recovered perturbation is non-finite at t={t}; aborting run")
        closed = A_t + B_t @ K_t
        if self.delta_hat is None:
            self._start(closed)

        cost_t = _resolve_cost(cost, t)
        loss, grad = self.loss_and_gradient(cost_t)
        self._learn(grad, {"t": t, "cost": float(cost_t.value(x, u)), "loss": loss}, w_t)
        self._advance(closed, B_t, w_t)
        self._push(w_t)
        self._last = None
        return w_t


def gpc_runner(
    controller: GPCController, system: object, cost: object
) -> Callable[[int, np.ndarray, np.ndarray], np.ndarray]:
    """Adapter: run a GPC controller inside :func:`nscontrol.lds_core.simulate`.

    The update for step ``t-1`` happens at the start of the call for step
    ``t`` (when ``x_t`` has become observable).
    """

    def callback(t: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if t > 0 and controller._last is not None:
            A_prev, B_prev, _ = system.matrices(t - 1)
            controller.update(t - 1, A_prev, B_prev, x, cost)
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

    Runs on the core shared with :class:`GPCController`: the ``ynat``
    window and the ``H_trunc``-deep stack of ``F_i`` are allocated at the
    first update and updated in place.  ``A_t`` must have spectral radius
    below 1, checked whenever ``A_t`` differs from the last matrix checked.

    The cost is evaluated on (observation, control) pairs.
    """

    _signal_key = "ynat_norm"

    def __init__(
        self,
        d_x: int,
        d_u: int,
        d_y: int,
        h: int = 5,
        radius: float = 10.0,
        step_size: Optional[float] = None,
        schedule: str = "sqrt",
        horizon: Optional[int] = None,
        H_trunc: Optional[int] = None,
        eps_trunc: float = EPS_TRUNC,
        telemetry_sink: Optional[Callable[[dict], None]] = None,
    ):
        self.d_x, self.d_u, self.d_y, self.h = int(d_x), int(d_u), int(d_y), int(h)
        super().__init__(self.d_y, self.h + 1, radius, step_size, schedule, horizon, H_trunc,
                         eps_trunc, telemetry_sink)
        self.tracker = NaturesYTracker(self.d_x)
        self._A_checked: Optional[np.ndarray] = None

    def _output(self, C_t: Optional[object]) -> np.ndarray:
        return np.eye(self.d_x) if C_t is None else _as_matrix(C_t, "C_t")

    def act(self, t: int, y: object, C_t: Optional[object] = None) -> np.ndarray:
        """Compute ``ynat_t`` from the observation and emit ``u_t``."""
        ynat = self.tracker.observe(np.asarray(y, dtype=float), C_t)
        self._push(ynat)
        u = self._feedback()
        self._last = (t, ynat, u.copy())
        return u

    def _counterfactual(self, C: np.ndarray) -> tuple:
        """``(y_t(M), u_t(M), Zh)`` with the Hankel gather they used."""
        if self._last is None:
            raise ConfigurationError("call act() before querying counterfactuals")
        z, Zh = self._response()
        return self._last[1] + C @ z, self._feedback(), Zh

    def counterfactuals(self, C_t: Optional[object] = None) -> tuple[np.ndarray, np.ndarray]:
        """Counterfactual pair ``(y_t(M), u_t(M))`` for the held parameters,
        valid between act() and update()."""
        return self._counterfactual(self._output(C_t))[:2]

    def loss_and_gradient(
        self, cost: object, C_t: Optional[object] = None
    ) -> tuple[float, np.ndarray]:
        """Counterfactual loss ``l_t(M)`` at the held parameters and its
        analytic gradient.  Valid between act() and update()."""
        C = self._output(C_t)
        y_cf, u_cf, Zh = self._counterfactual(C)
        cost_t = _resolve_cost(cost, self._last[0])
        loss = float(cost_t.value(y_cf, u_cf))
        gy = np.asarray(cost_t.grad_x(y_cf, u_cf), dtype=float)
        gu = np.asarray(cost_t.grad_u(y_cf, u_cf), dtype=float)
        return loss, self._gradient(C.T @ gy, gu, Zh)

    def update(self, t: int, A_t: object, B_t: object, C_t: Optional[object], cost: object) -> None:
        """Advance nature's-y, take the OGD step on ``l_t``, refresh caches."""
        if self._last is None or self._last[0] != t:
            raise ConfigurationError("update(t) must follow act(t)")
        A_t = _as_matrix(A_t, "A_t")
        B_t = _as_matrix(B_t, "B_t")
        if self._A_checked is None or not np.array_equal(A_t, self._A_checked):
            if spectral_radius(A_t) >= 1.0:
                raise ConfigurationError(
                    "GRC requires a stable system: spectral radius of A_t is >= 1"
                )
            self._A_checked = A_t.copy()
        _, ynat, u_played = self._last
        if self.delta_hat is None:
            self._start(A_t)

        cost_t = _resolve_cost(cost, t)
        loss, grad = self.loss_and_gradient(cost_t, C_t)
        self._learn(grad, {"t": t, "loss": loss}, ynat)
        self.tracker.advance(A_t, B_t, u_played)
        self._advance(A_t, B_t)
        self._last = None


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
