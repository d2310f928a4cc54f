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
loss is convex), and the OGD step.  The counterfactuals are exactly what
playing the current parameters from the beginning of time would have given:
the counterfactual state is affine in the flat parameters ``m``, ``x_t(M) =
J_t m + c_t``, and the learner steps ``[J_t | c_t]`` by the same sensitivity
recursion as the hindsight comparators (``harness._policy_pass``).  The
classes differ only in the signal (``w`` or ``ynat``), in the last column of
the stack (GPC's drift ``c_t``, GRC's zero-control state ``z_t``, from which
it reads nature's y), and in the output map from the counterfactual state:
GPC's pair is ``(x(M), u(M) + K_t x(M))``, GRC's ``(ynat_t + C_t x(M),
u(M))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .lds_core import (
    QuadraticCost, _as_matrix, _as_vector, _finite_vector, _whole, spectral_radius,
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
    itself gives.  Returns the new state, ``||factor * g||^2``, the step size
    ``eta`` it took, and the norm of the new point, or None when the
    projection scaled the point (or there is no ball).  The entries are
    scanned only when ``||factor * g||^2`` is not finite."""
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
    return state._successor(y, t_next), gg, eta, norm


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
    """A learner's stack ``Y = [J | c; S | 0; 0 | 1]`` (GRC: ``[J | z; S |
    u]``) and views of it."""

    Y: np.ndarray
    #: ``[J | c; S | 0]``, which maps ``[m; 1]`` to ``[x(M); u(M)]`` (GRC:
    #: ``[J | z; S | u]``, which maps ``[m; 0]`` to them).
    JS: np.ndarray
    #: ``[J | c]`` (GRC: ``[J | z]``), which each step writes.
    Jc: np.ndarray
    #: The nonzero blocks of ``S``, one row per control entry.
    S_blocks: np.ndarray


class _DisturbanceFeedback:
    """Parameters, OGD iterate, sensitivity and the whole learner step of a
    learner that plays ``u_t(M) = gain part + sum_i M_i s_{t-lag-i}`` over a
    signal ``s`` (GPC: ``w``, lag 1; GRC: ``ynat``, lag 0).  ``act`` records
    ``_last = (t, offset, ...)``, the rest the subclass's own (GPC: ``K_t``
    and ``[x_t; u_t]``; GRC: ``ynat_t . ynat_t``).

    The OGD point ``m`` holds the parameters in ``(d_u, len(Ms), d_s)``
    order, the order of the comparators' blocks; ``Ms`` is the ``(len(Ms),
    d_u, d_s)`` view of it, and ``M`` is the ``(d_u, len(Ms) * d_s)`` one.
    ``M'`` is the view ``M.T``, taken once per OGD step, or from ``Ms``
    whenever ``Ms`` is reassigned, so a reassigned ``Ms`` is played too.
    ``_window`` is the newest signal window ``s_t = (s_{t-lag}, ...,
    s_{t-lag-len(Ms)+1})``, flattened, so the learned action is ``u_t(M) = M
    s_t = S_t m`` with ``S_t = kron(I, s_t')``.

    The counterfactual state is affine in ``m``, ``x_t(M) = J_t m + c_t``,
    with ``J_0 = 0``, ``c_0 = 0`` and, after the step at ``t``::

        [J_{t+1} | c_{t+1}] = F_t [J_t | c_t] + [B_t S_t | w_t]

    GPC has ``F_t = A_t + B_t K_t`` and the drift column ``c``, which
    carries the perturbations.  This is the state
    :func:`counterfactual_state` gives with ``H_trunc >= t``, stepped as
    ``harness._policy_pass`` steps its ``[Phi_t | x_t(0)]``: the learner
    holds the stack ``Y_t = [J_t | c_t; S_t | 0; 0 | 1]``, so that one
    product ``Y_t [m; 1] = [x_t(M); u_t(M); 1]`` gives the counterfactual
    state and action and one product ``[F_t | B_t | w_t] Y_t`` gives
    ``[J_{t+1} | c_{t+1}]``.

    GRC has ``F_t = A_t`` and no drift (``c = 0``).  Its last column holds
    instead the state ``z_t`` that the controls played would have produced
    without the perturbations, ``z_0 = 0``, beside the control ``u_t``
    played at ``t``: ``Y_t = [J_t | z_t; S_t | u_t]``.  Nature's y is then
    ``ynat_t = y_t - C_t z_t``, ``Y_t [m; 0]`` gives the counterfactual state
    and action, and the one product ``[A_t | B_t] Y_t = [J_{t+1} |
    z_{t+1}]`` steps both recursions, since ``z_{t+1} = A_t z_t + B_t u_t``
    shares ``A_t`` with ``J``.

    The cost sees the pair ``r = P [x(M); u(M)]``, plus GRC's offset
    ``ynat_t`` in its first ``d_y`` entries, through one output map ``P``
    per dynamics: ``[[I, 0], [K_t, I]]`` for GPC, whose pair is ``(x(M),
    u(M) + K_t x(M))``, and ``[[C_t, 0], [0, I]]`` for GRC (``C_t = None``:
    the identity).  With the cost's half gradient ``h`` at ``r``, the loss
    has the half gradient ``(h P) [J_t; S_t]`` in point order, and the OGD
    step takes the factor 2 in its step size, which is exact.  A
    :class:`~nscontrol.lds_core.QuadraticCost` is priced from its constant
    half Hessian ``W = blockdiag(Q, R)``: ``h = W (r - v*)`` and the loss
    ``(r - v*) . h``, ``v* = (x*, 0)``; any other cost by one ``stage``
    call.

    ``Y`` and a spare of it are allocated once, ``(d_x + d_u + 1, p + 1)``
    for GPC and ``(d_x + d_u, p + 1)`` for GRC, ``p = d_u len(Ms) d_s``:
    each step writes ``[J_{t+1} | c_{t+1}]`` (GRC: ``[J_{t+1} | z_{t+1}]``)
    into the spare with ``np.dot(..., out=...)`` and swaps the two, and each
    new window writes ``S_t``'s nonzero blocks through a strided view.  A
    step costs about ``d_x^2 p`` flops on any horizon and any plant, plus a
    fixed cost of about 30 numpy calls on vectors and small matrices, ``act``
    and ``update`` together: six products price the loss and its gradient
    (``[J; S] [m; 1]``, ``P``, ``W``, the loss, ``h P`` and ``(h P) [J;
    S]``), about ten make the OGD step and its checks, and the rest the
    control, the recovered signal, the content check of the dynamics, the
    stack step and the new window.  A Markov stack truncated at depth ``H``
    costs about ``H w d_x^2``, with ``w = d_u + 1`` for GPC and ``d_u`` for
    GRC, so the recursion is the cheaper one whenever ``len(Ms) d_s d_u < H
    w``: ``p`` = 64 against 108 for GPC ``h = 8`` on b747 (``H`` = 36), and
    7 against 151 for GRC ``h = 6`` on scalar-0.9 (``H`` = 151).  A wide
    system with a long window and a fast-decaying loop could favour the
    stack, which is exact only up to its depth.

    ``update`` validates the dynamics matrices, their shapes included, and
    derives ``P`` and what else the subclass needs of them, only when their
    content differs from the last validated ones: the comparison is by shape
    and bytes, read in place from float64 arrays, so a matrix mutated in
    place is validated again.
    """

    #: Telemetry key of the norm of the signal recorded at each update.
    _signal_key = ""
    #: Whether the signal itself drives the state (GPC's ``w``).
    _drifts = False

    def __init__(self, d_s, n_M, radius, step_size, schedule, horizon):
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
        self.projected_steps = 0
        #: Sum of ``||g_t||^2`` and largest ``||g_t||`` over the OGD steps.
        self.grad_norm_sq_sum, self.grad_norm_max = 0.0, 0.0
        self.telemetry: list = []
        self._last: Optional[tuple] = None
        self._dynamics_key: Optional[tuple] = None
        self._dynamics: Optional[tuple] = None
        self._window = np.zeros(n_M * d_s)
        self._p = p = self.ogd.point.size
        self._m = np.zeros(p + 1)  # [m; 1], or GRC's [m; 0]
        self._m[p] = float(self._drifts)
        self._m_blocks = self._m[:p].reshape(self.d_u, -1)  # M, a view
        shape = (self.d_x + self.d_u + int(self._drifts), p + 1)
        self._stack, self._spare = (self._new_stack(shape) for _ in range(2))

    def _new_stack(self, shape: tuple) -> _Stack:
        """A stack of zeros but its constant entry, and its views."""
        Y, d_x, n = np.zeros(shape), self.d_x, len(self._window)
        if self._drifts:
            Y[-1, -1] = 1.0
        # Row a of S holds the window in columns a n .. (a + 1) n - 1.
        blocks = np.lib.stride_tricks.as_strided(
            Y[d_x:], shape=(self.d_u, n), strides=(Y.strides[0] + n * Y.itemsize, Y.itemsize),
            writeable=True)
        return _Stack(Y, Y[: d_x + self.d_u], Y[:d_x], blocks)

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

    def _validated(self, A_t: object, B_t: object, extra: object) -> tuple:
        """The subclass's ``(P, [F_t | B_t (| w_t)], ...)``, derived only when
        the shapes or bytes of ``(A_t, B_t, extra)`` differ from the last call's."""
        key = (*_content(A_t), *_content(B_t), *_content(extra))
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
        return self._window.dot(self._Mt)

    def _counterfactual(self, P: np.ndarray) -> np.ndarray:
        """The pair ``r = (z_t(M), u_t(M))`` at the parameters now held, as
        one vector."""
        offset = self._acted()[1]
        self._m_blocks[...] = self._Mt.T
        r = P.dot(self._stack.JS.dot(self._m))
        if offset is not None:
            r[: self._d_s] += offset
        return r

    def _pair(self, P: np.ndarray) -> tuple:
        """``counterfactuals()``: the pair as two vectors."""
        r = self._counterfactual(P)
        return r[: self._d_s], r[self._d_s :]

    def _loss_and_half_gradient(self, cost: object, P: np.ndarray) -> tuple:
        """Counterfactual loss and half its flat gradient in point order,
        pulled back through the output map ``P``."""
        r = self._counterfactual(P)
        cost = _resolve_cost(cost, self._last[0])
        if isinstance(cost, QuadraticCost):  # a constant half Hessian
            if cost.target is not None:
                r[: self._d_s] -= cost.target
            half_grad = cost._W.dot(r)
            loss = r.dot(half_grad)
        else:
            loss, half_grad = cost.stage(r[: self._d_s], r[self._d_s :])
        return loss, half_grad.dot(P).dot(self._stack.JS)[: self._p]

    def _stacked_loss_and_gradient(self, cost: object, P: np.ndarray) -> tuple:
        """``loss_and_gradient``: the gradient shaped like ``Ms``, twice the
        half gradient (exactly)."""
        loss, half_grad = self._loss_and_half_gradient(cost, P)
        return loss, self._stacked(half_grad + half_grad)

    def _step(self, t: int, cost: object, dynamics: tuple, signal_norm: float,
              drift: Optional[np.ndarray] = None) -> None:
        """One learner step at ``t`` on the :meth:`_validated` ``dynamics``:
        the projected OGD step on the counterfactual loss, the telemetry row,
        and ``[J | c]`` (GRC: ``[J | z]``) moved one step on, with the window
        ``s_t`` and, for GPC, the ``drift`` w, which goes into the last column
        of the cached ``[F_t | B_t | w_t]``.  Raises EvaluationError if the
        new iterate left the ball or moved further than ``eta * ||g||``."""
        P, FE = dynamics[:2]
        loss, half_grad = self._loss_and_half_gradient(cost, P)
        state = self.ogd
        self.ogd, gg, eta, M_norm = _ogd_step(state, half_grad, 2.0)
        grad_norm = math.sqrt(gg)
        point = self.ogd.point
        if M_norm is None:  # the projection scaled the point
            self.projected_steps += 1
            M_norm = math.sqrt(point.dot(point))
        # Both checks allow for rounding, which scales with the points: the
        # new one is at most r long and the old one ||new|| + eta ||g||.
        if state.radius is not None and M_norm > state.radius * (1.0 + 1e-12) + 1e-9:
            raise EvaluationError(f"OGD iterate left the ball of radius {state.radius}")
        moved = point - state.point
        step = eta * grad_norm
        if math.sqrt(moved.dot(moved)) > step + 1e-12 * (1.0 + M_norm + step):
            raise EvaluationError("OGD iterate moved further than eta * ||g||")
        self._Ms, self._Mt = None, point.reshape(self.d_u, -1).T  # Ms when read
        self.grad_norm_sq_sum += gg
        self.grad_norm_max = max(self.grad_norm_max, grad_norm)
        self.telemetry.append({"t": t, "loss": loss, "M_norm": M_norm,
                               self._signal_key: signal_norm, "grad_norm": grad_norm})
        if drift is not None:
            FE[:, -1] = drift
        np.dot(FE, self._stack.Y, out=self._spare.Jc)
        self._stack, self._spare = self._spare, self._stack
        self._last = None

    def _push(self, signal: np.ndarray) -> None:
        """Shift the signal window by one signal, put ``signal`` first, and
        write the window into the stack's ``S``."""
        window, d_s = self._window, self._d_s
        window[d_s:] = window[:-d_s]
        window[:d_s] = signal
        self._stack.S_blocks[...] = window


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

    Per step ``t``: play ``u_t = K_t x_t + sum_{i=1}^{h} M_i^t w_{t-i}``,
    observe ``x_{t+1}``, recover ``w_t = x_{t+1} - A_t x_t - B_t u_t``,
    build the counterfactual loss ``l_t(M) = c_t(x_t(M), u_t(M))``, and
    take one projected OGD step on it.

    Runs on the learner step shared with :class:`GRCController`.

    A controller spec (dict, config file or CLI flags) sets the learner
    options ``h``, ``radius``, ``step_size`` and ``schedule``; their
    defaults live here alone.  The counterfactual ``x_t(M)`` is exact on
    any horizon: it is stepped as ``J_t m + c_t`` (see
    :class:`_DisturbanceFeedback`) in about ``d_x^2 p`` flops a step, ``p =
    h d_x d_u``, plus a fixed cost of about 30 small numpy calls for ``act``
    and ``update`` together.  The cost sees ``(x(M), u(M) + K_t x(M)) = P
    [x(M); u(M)]`` through the output map ``P = [[I, 0], [K_t, I]]``, built
    with ``[F_t | B_t | w_t]`` whenever the content of ``(A_t, B_t, K_t)``
    changes, and a :class:`~nscontrol.lds_core.QuadraticCost` is priced
    from its own half Hessian, with no ``stage`` call.  Each update appends
    a telemetry dict to ``self.telemetry`` with the keys ``t``, ``loss``
    (the counterfactual loss ``l_t(M^t)``), ``M_norm`` (``||M||`` after the
    step), ``w_norm`` and ``grad_norm``; ``self.projected_steps`` counts
    the steps whose projection onto the ball scaled the point, and
    ``self.grad_norm_sq_sum`` and ``self.grad_norm_max`` hold the sum of
    the squared gradient norms and the largest one.  The played cost
    ``c_t(x_t, u_t)`` is not repeated there: it is ``Trajectory.costs[t]``
    under :func:`~nscontrol.lds_core.simulate`, and entry ``t`` of the
    array that :func:`~nscontrol.sysid.control_with_model` returns.

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
    ):
        self.d_x, self.d_u = _whole(d_x, 1, "d_x"), _whole(d_u, 1, "d_u")
        self.h = _whole(h, 1, "GPC's window h")
        self._K_provider = K if callable(K) else None
        self._K_fixed = None
        if not callable(K):
            self._K_fixed = _as_matrix(K, "K", (self.d_u, self.d_x))
        super().__init__(self.d_x, self.h, radius, step_size, schedule, horizon)

    def gain(self, t: int) -> np.ndarray:
        if self._K_fixed is not None:
            return self._K_fixed
        return _as_matrix(self._K_provider(t), f"K_{t}", (self.d_u, self.d_x))

    def act(self, t: int, x: object) -> np.ndarray:
        """Emit ``u_t`` from the current parameters and perturbation window."""
        x = _as_vector(x, self.d_x, "x")
        K_t = self.gain(t)
        u = K_t.dot(x) + self._feedback()
        self._last = (t, None, K_t, np.concatenate((x, u)))
        return u

    def _output_map(self, K_t: np.ndarray) -> np.ndarray:
        """``P = [[I, 0], [K_t, I]]``: ``(x(M), u(M))`` to the pair ``(x(M),
        u(M) + K_t x(M))`` the cost sees."""
        return np.block([[np.eye(self.d_x), np.zeros((self.d_x, self.d_u))],
                         [K_t, np.eye(self.d_u)]])

    def _validate(self, A_t: np.ndarray, B_t: np.ndarray, K_t: np.ndarray) -> tuple:
        FBw = np.concatenate((A_t + B_t @ K_t, B_t, np.zeros((self.d_x, 1))), axis=1)
        # w_t goes into FBw per step.
        return self._output_map(K_t), FBw, np.concatenate((A_t, B_t), axis=1)

    def counterfactuals(self) -> tuple[np.ndarray, np.ndarray]:
        """Current-step counterfactual pair ``(x_t(M), u_t(M))`` for the
        parameters now held."""
        return self._pair(self._output_map(self._acted()[2]))

    def loss_and_gradient(self, cost: object) -> tuple[float, np.ndarray]:
        """Counterfactual loss ``l_t(M)`` at the held parameters and its
        analytic gradient, shaped like ``Ms``.  Valid between act() and
        update()."""
        return self._stacked_loss_and_gradient(cost, self._output_map(self._acted()[2]))

    def update(self, t: int, A_t: object, B_t: object, x_next: object, cost: object) -> np.ndarray:
        """Recover ``w_t``, take the OGD step on ``l_t``, advance ``[J | c]``.

        Returns the recovered perturbation ``w_t``.
        """
        K_t, xu = self._turn(t)[2:]
        dynamics = self._validated(A_t, B_t, K_t)
        w_t = _as_vector(x_next, self.d_x, "x_next") - dynamics[2].dot(xu)
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
    ``u_t = sum_{i=0}^{h} M_i^t ynat_{t-i}``, form the counterfactual
    observation ``y_t(M) = ynat_t + C_t x_t(M)``, where ``x_t(M) = J_t m``
    is the exact response to the actions ``M`` would have played from the
    start, and take one projected OGD step on ``l_t(M) = c_t(y_t(M),
    u_t(M))``.  ``z_t`` is the response to the controls actually played,
    ``z_{t+1} = A_t z_t + B_t u_t``: the last column of the learner's stack
    ``[J_t | z_t; S_t | u_t]``, stepped by the same product as ``J`` (see
    :class:`_DisturbanceFeedback`).

    Runs on the learner step shared with :class:`GPCController`.  ``A_t``
    must have spectral radius below 1, checked whenever ``(A_t, B_t, C_t)``
    differ from the last dynamics validated.  ``C_t = None`` means the
    state is observed.

    The cost is evaluated on (observation, control) pairs.  ``d_y`` is the
    observation dimension; ``h`` (the window holds ``h + 1`` matrices,
    lags 0 to ``h``), ``radius``, ``step_size``, ``schedule`` and
    ``horizon`` are the learner options of :class:`GPCController`, with the
    same defaults.  Each update appends a telemetry dict to
    ``self.telemetry`` with the keys ``t``, ``loss``, ``M_norm``,
    ``ynat_norm`` and ``grad_norm``; the played cost is not among them.
    ``self.projected_steps``, ``self.grad_norm_sq_sum`` and
    ``self.grad_norm_max`` are kept as for GPC.  A non-finite ``y`` gives
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
        schedule: str = "sqrt",
        horizon: Optional[int] = None,
    ):
        self.d_x, self.d_u = _whole(d_x, 1, "d_x"), _whole(d_u, 1, "d_u")
        self.d_y = _whole(d_y, 1, "d_y")
        self.h = _whole(h, 0, "GRC's window h")
        super().__init__(self.d_y, self.h + 1, radius, step_size, schedule, horizon)

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
        C_t = self._output(C_t)
        Y = self._stack.Y
        z = Y[: self.d_x, -1]
        ynat = _as_vector(y, self.d_y, "y") - (z if C_t is None else C_t.dot(z))
        self._push(ynat)
        ynat_sq = ynat.dot(ynat)
        if math.isfinite(ynat_sq):
            u = self._feedback()
        else:  # a zero block times an inf entry gives the NaN control, unwarned
            with np.errstate(invalid="ignore"):
                u = self._feedback()
        Y[self.d_x :, -1] = u
        self._last = (t, ynat, ynat_sq)
        return u

    def _output_map(self, C_t: Optional[object]) -> np.ndarray:
        """``P = [[C_t, 0], [0, I]]`` for ``C_t`` checked by :meth:`_output`
        (None: the identity): ``(x(M), u(M))`` to the pair ``(C_t x(M),
        u(M))``, which the offset ``ynat_t`` makes the cost's."""
        C_t = self._output(C_t)
        C_t = np.eye(self.d_x) if C_t is None else C_t
        return np.block([[C_t, np.zeros((self.d_y, self.d_u))],
                         [np.zeros((self.d_u, self.d_x)), np.eye(self.d_u)]])

    def _validate(self, A_t: np.ndarray, B_t: np.ndarray, C_t: Optional[object]) -> tuple:
        P = self._output_map(C_t)
        if spectral_radius(A_t) >= 1.0:
            raise ConfigurationError("GRC requires a stable system: spectral radius of A_t is >= 1")
        return P, np.concatenate((A_t, B_t), axis=1)

    def counterfactuals(self, C_t: Optional[object] = None) -> tuple[np.ndarray, np.ndarray]:
        """Counterfactual pair ``(y_t(M), u_t(M))`` for the held parameters,
        valid between act() and update()."""
        return self._pair(self._output_map(C_t))

    def loss_and_gradient(self, cost: object,
                          C_t: Optional[object] = None) -> tuple[float, np.ndarray]:
        """Counterfactual loss ``l_t(M)`` at the held parameters and its
        analytic gradient, shaped like ``Ms``.  Valid between act() and
        update()."""
        return self._stacked_loss_and_gradient(cost, self._output_map(C_t))

    def update(self, t: int, A_t: object, B_t: object, C_t: Optional[object], cost: object) -> None:
        """Take the OGD step on ``l_t``, advance ``J`` and ``z``."""
        ynat_sq = self._turn(t)[2]
        self._step(t, cost, self._validated(A_t, B_t, C_t), math.sqrt(ynat_sq))


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
