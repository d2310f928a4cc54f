"""System identification by the method of moments, plus identify-then-control.

The identification routine drives an opaque stepper with i.i.d. Rademacher
controls and estimates the control-response moments ``G_j ~ A^j B`` as
empirical correlations between later states and earlier excitations:
spacing the correlation anchors ``k + 1`` steps apart keeps the moment
blocks independent, and averaging over ``T0`` anchors gives the usual
``1/sqrt(T0)`` concentration.  Stacking the moments into block matrices
``C0 = [G_0 .. G_{k-1}]`` and ``C1 = [G_1 .. G_k]`` turns recovery of the
dynamics matrix into one least-squares solve, ``A_hat = C1 C0^+``, exact
whenever ``C0`` has full row rank.

:func:`identify_then_control` spends an exploration budget of
``T0 (k+1) + 1`` state observations with ``T0 = ceil(T^(2/3))``, recovers
``(A_hat, B_hat)``, and runs a disturbance-action gradient controller
designed on the identified pair against the real system for the remaining
steps; model error is absorbed into the recovered perturbations.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .harness import (
    RegretReport,
    _regret_report,
    _stabilizing_gain,
    best_dac_in_hindsight,
    component_seed,
    dac_rollout_costs,  # noqa: F401 - perfbench/tracing.py wraps it here
)
from .lds_core import (
    LinearSystem,
    PerturbationSource,
    _all_finite,
    _finite_vector,
    _whole,
)
from .online_control import DEFAULT_H, GPCController, gpc_runner
from .optimal_control import dare_solve  # noqa: F401 - perfbench/tracing.py wraps it here

__all__ = [
    "BlackBoxSystem",
    "ExcitationRecord",
    "MomentEstimates",
    "IdentifiedSystem",
    "excite_and_record",
    "estimate_moments",
    "recover_AB",
    "identification_summary",
    "control_with_model",
    "identify_then_control",
    "exploration_length",
]

#: Smallest-singular-value threshold below which the excitation block
#: matrix is treated as rank-deficient (weak controllability signal).
SIGMA_MIN_THRESHOLD = 1e-6

#: Perturbation rows a black box draws at a time, ahead of its step counter.
_DRAW_BLOCK = 256


def _room(rows: np.ndarray, needed: int) -> np.ndarray:
    """``rows`` if it has at least ``needed`` rows, else a copy of it in a
    buffer of ``max(needed, 2 * len(rows))`` rows."""
    if len(rows) >= needed:
        return rows
    grown = np.empty((max(needed, 2 * len(rows)), rows.shape[1]))
    grown[: len(rows)] = rows
    return grown


class BlackBoxSystem:
    """Opaque stepper around a linear system with its own noise stream.

    Identification code may use only :meth:`read_state`,
    :meth:`apply_control`, :meth:`apply_controls` (a block of controls in
    one call), and the dimension properties.  The recorded histories and
    :meth:`reveal_system` exist for evaluation and reporting (hindsight
    comparators, error-to-truth diagnostics), never for the learner.

    Parameters
    ----------
    system : LinearSystem
        The hidden dynamics.
    perturbation : PerturbationSource, optional
        Disturbance process (default: none).  Its rows are drawn in blocks
        ahead of the step counter, which gives the same rows as drawing
        one per step.
    seed : int
        Seeds the box's private disturbance stream.
    x0 : array_like, optional
        Initial state (default: origin); it must be finite.
    """

    def __init__(
        self,
        system: LinearSystem,
        perturbation: Optional[PerturbationSource] = None,
        seed: int = 0,
        x0: Optional[object] = None,
    ):
        self._system = system
        self._source = PerturbationSource.zero() if perturbation is None else perturbation
        self._rng = np.random.default_rng(component_seed(int(seed), "blackbox"))
        x = np.zeros(system.d_x) if x0 is None else _finite_vector(x0, system.d_x, "x0").copy()
        # The histories are buffers that double when full (_states and
        # _controls together): rows [0, t] of _states, [0, t) of _controls
        # and [0, _drawn) of _ws are set, where t is the step counter and _ws
        # runs ahead of it.
        self._t = 0
        self._states = x[None, :]
        self._controls = np.empty((1, system.d_u))
        self._ws = np.empty((0, system.d_x))
        self._drawn = 0

    @property
    def d_x(self) -> int:
        return self._system.d_x

    @property
    def d_u(self) -> int:
        return self._system.d_u

    @property
    def steps(self) -> int:
        """Number of controls applied so far."""
        return self._t

    def read_state(self) -> np.ndarray:
        """Current state (a copy)."""
        return self._states[self._t].copy()

    def apply_control(self, u: object) -> None:
        """Advance one step under control ``u`` and the private noise:
        :meth:`apply_controls` of the one row ``u``."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.d_u,):
            raise ConfigurationError(
                f"control has shape {u.shape}, expected ({self.d_u},)"
            )
        t = self._t
        self._grow(t + 2)
        self._controls[t] = u
        self._advance((u,))

    def apply_controls(self, U: object) -> np.ndarray:
        """Advance one step per row of ``U`` (n, d_u), in order, and return
        the n states reached, shape (n, d_x).

        Each step is ``x' = A_t x + B_t u_t + w_t`` as in
        :meth:`apply_control`, with the same rows and the same bits.  A
        non-finite state raises :class:`EvaluationError` naming its step;
        the histories then end at the last finite state.
        """
        U = np.asarray(U, dtype=float)
        if U.ndim != 2 or U.shape[1] != self.d_u:
            raise ConfigurationError(
                f"controls have shape {U.shape}, expected (n, {self.d_u})"
            )
        start, n = self._t, len(U)
        self._grow(start + n + 1)
        self._controls[start : start + n] = U
        self._advance(U)
        return self._states[start + 1 : self._t + 1].copy()

    def _grow(self, rows: int) -> None:
        """Make room for ``rows`` states and as many controls (the two
        buffers share a capacity)."""
        if rows > len(self._states):
            self._states = _room(self._states, rows)
            self._controls = _room(self._controls, rows)

    def _advance(self, U: object) -> None:
        """The stepping kernel: one step per control row of ``U`` (an array
        or a tuple of rows), which the caller has written into the history
        from the step counter on, taking the perturbation rows in order from
        the blocks drawn ahead."""
        matrices, states, t = self._system.matrices, self._states, self._t
        x, ws, drawn = states[t], self._ws, self._drawn
        # A non-finite state is rejected below; numpy's warnings on the way
        # there are not wanted.
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                for u in U:
                    A_t, B_t, _ = matrices(t)
                    if t >= drawn:
                        ws, drawn = self._draw_ahead(t)
                    x = np.add(A_t.dot(x) + B_t.dot(u), ws[t], out=states[t + 1])
                    # x.x is finite exactly when every entry is, unless it
                    # overflows.
                    if not math.isfinite(x.dot(x)) and not _all_finite(x):
                        raise EvaluationError(
                            f"black box emitted a non-finite state at step {t}; aborting"
                        )
                    t += 1
            finally:
                self._t = t

    def _draw_ahead(self, t: int) -> tuple:
        """Draw the perturbation rows from step ``t`` on into the history,
        ``_DRAW_BLOCK`` of them, and return the history buffer and the
        number of rows drawn; a recorded sequence only up to its length, so
        that running past its end raises at the step that needs the missing
        row."""
        stop = t + _DRAW_BLOCK
        if self._source.kind == "recorded":
            stop = max(min(stop, len(self._source.sequence)), t + 1)
        rows = self._source.draw(t, stop, self.d_x, self._rng)
        self._ws = _room(self._ws, stop)
        self._ws[t:stop] = rows
        self._drawn = stop
        return self._ws, stop

    # -- evaluation-side access (not for the learner) ----------------------

    def reveal_system(self) -> LinearSystem:
        """The hidden system, for reporting and comparators only."""
        return self._system

    @property
    def recorded_states(self) -> np.ndarray:
        """All visited states, shape ``(steps + 1, d_x)``."""
        return self._states[: self._t + 1].copy()

    @property
    def recorded_controls(self) -> np.ndarray:
        """All applied controls, shape ``(steps, d_u)``."""
        return self._controls[: self._t].copy()

    @property
    def recorded_perturbations(self) -> np.ndarray:
        """All realized disturbances, shape ``(steps, d_x)``."""
        return self._ws[: self._t].copy()


@dataclass(frozen=True)
class ExcitationRecord:
    """States and Rademacher controls from one excitation run.

    ``states`` has one more row than ``controls``: the final row is the
    state observed after the last control.
    """

    states: np.ndarray
    controls: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        controls = np.asarray(self.controls, dtype=float)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "controls", controls)
        if states.ndim != 2 or controls.ndim != 2:
            raise ConfigurationError("record arrays must be two-dimensional")
        if states.shape[0] != controls.shape[0] + 1:
            raise ConfigurationError(
                "a record needs exactly one more state than controls"
            )


@dataclass(frozen=True)
class MomentEstimates:
    """Estimated control-response moments ``G_j ~ A^j B`` for ``j = 0..k``."""

    k: int
    T0: int
    moments: np.ndarray  # (k + 1, d_x, d_u)

    def __post_init__(self):
        moments = np.asarray(self.moments, dtype=float)
        object.__setattr__(self, "moments", moments)
        if self.T0 < 1:
            raise ConfigurationError("T0 must be at least 1")
        if moments.ndim != 3 or moments.shape[0] != self.k + 1:
            raise ConfigurationError(
                f"moments must have shape (k + 1, d_x, d_u), got {moments.shape}"
            )
        if not np.all(np.isfinite(moments)):
            raise EvaluationError("moment estimates contain non-finite entries")


@dataclass(frozen=True)
class IdentifiedSystem:
    """Recovered dynamics pair with its recovery diagnostics.

    ``residual`` is the Frobenius norm of ``C1 - A_hat C0`` and
    ``sigma_min`` the smallest singular value of ``C0``.
    """

    A_hat: np.ndarray
    B_hat: np.ndarray
    residual: float
    sigma_min: float


def exploration_length(k: int, T0: int) -> int:
    """Number of control applications in an excitation run (one less than
    the number of recorded states)."""
    return int(T0) * (int(k) + 1)


def excite_and_record(
    box: BlackBoxSystem, k: int, T0: int, seed: int = 0
) -> ExcitationRecord:
    """Drive the box with i.i.d. Rademacher controls and record everything.

    Applies ``T0 (k+1)`` controls drawn uniformly from ``{-1, +1}^{d_u}``
    and records the ``T0 (k+1) + 1`` surrounding states.  Deterministic
    given ``seed`` and the box's own seed.

    Parameters
    ----------
    box : BlackBoxSystem
        Stepper exposing only state readout and control application.
    k : int
        Controllability index (number of lagged moments to support).
    T0 : int
        Number of correlation anchors, spaced ``k + 1`` steps apart.
    seed : int
        Seeds the excitation draw.

    Returns
    -------
    ExcitationRecord
    """
    k, T0 = _whole(k, 1, "the controllability index k"), _whole(T0, 1, "T0")
    rng = np.random.default_rng(seed)
    n = exploration_length(k, T0)
    # One draw of all n rows takes the same signs from the stream as n
    # draws of one row each.
    controls = rng.integers(0, 2, size=(n, box.d_u)).astype(float) * 2.0 - 1.0
    states = np.empty((n + 1, box.d_x))
    states[0] = box.read_state()
    states[1:] = box.apply_controls(controls)
    return ExcitationRecord(states=states, controls=controls)


def estimate_moments(record: ExcitationRecord, k: int, T0: int) -> MomentEstimates:
    """Method-of-moments estimates of ``A^j B`` from an excitation record.

    ``G_j`` is the empirical correlation between the state ``j + 1`` steps
    after each anchor and the Rademacher control at the anchor::

        G_j = (1 / T0) * sum_t  x_{t (k+1) + j + 1}  eta_{t (k+1)}^T

    which is unbiased because controls at different steps are independent
    with identity second moment and independent of the disturbances.
    """
    k, T0 = _whole(k, 0, "k"), _whole(T0, 1, "T0")
    n = exploration_length(k, T0)
    if record.controls.shape[0] != n:
        raise ConfigurationError(
            f"record has {record.controls.shape[0]} controls; "
            f"k={k}, T0={T0} needs {n}"
        )
    d_x = record.states.shape[1]
    d_u = record.controls.shape[1]
    anchors = (k + 1) * np.arange(T0)
    eta = record.controls[anchors]
    moments = np.zeros((k + 1, d_x, d_u))
    for j in range(k + 1):
        moments[j] = record.states[anchors + j + 1].T @ eta / T0
    return MomentEstimates(k=k, T0=T0, moments=moments)


def recover_AB(estimates: MomentEstimates) -> IdentifiedSystem:
    """Recover ``(A_hat, B_hat)`` from moment estimates by least squares.

    Stacks ``C0 = [G_0 .. G_{k-1}]`` and ``C1 = [G_1 .. G_k]`` and solves
    ``min_A ||C1 - A C0||_F`` through the normal equations with a
    pseudo-inverse, ``A_hat = C1 C0^T (C0 C0^T)^+``; ``B_hat = G_0``.
    Exact on noiseless moments whenever ``C0`` has full row rank.

    Warns when the smallest singular value of ``C0`` falls below
    ``SIGMA_MIN_THRESHOLD`` — the excitation barely reaches some state
    directions and the recovery is ill-posed.
    """
    k = int(estimates.k)
    if k < 1:
        raise ConfigurationError("recovery needs k >= 1 (two moment blocks)")
    G = estimates.moments
    C0 = np.concatenate(list(G[:k]), axis=1)
    C1 = np.concatenate(list(G[1 : k + 1]), axis=1)
    sigma_min = float(np.linalg.svd(C0, compute_uv=False)[-1])
    if sigma_min < SIGMA_MIN_THRESHOLD:
        warnings.warn(
            f"excitation block matrix is near rank-deficient "
            f"(smallest singular value {sigma_min:.3e} < {SIGMA_MIN_THRESHOLD:.1e}); "
            "recovered dynamics are unreliable",
            RuntimeWarning,
            stacklevel=2,
        )
    A_hat = C1 @ C0.T @ np.linalg.pinv(C0 @ C0.T)
    B_hat = G[0].copy()
    residual = float(np.linalg.norm(C1 - A_hat @ C0))
    return IdentifiedSystem(
        A_hat=A_hat, B_hat=B_hat, residual=residual, sigma_min=sigma_min
    )


def identification_summary(
    estimates: MomentEstimates,
    identified: IdentifiedSystem,
    true_system: Optional[LinearSystem] = None,
) -> dict:
    """Flat JSON-ready identification report.

    Always includes ``k``, ``T0``, the recovery residual, and the smallest
    singular value; with the true system available it adds per-moment
    errors ``||G_j - A^j B||_F`` and the dynamics/control matrix errors.
    """
    summary = {
        "k": int(estimates.k),
        "T0": int(estimates.T0),
        "residual": float(identified.residual),
        "sigma_min": float(identified.sigma_min),
    }
    if true_system is not None:
        A, B, _ = true_system.matrices(0)
        power = np.eye(true_system.d_x)
        for j in range(estimates.k + 1):
            truth = power @ B
            summary[f"moment_error_{j}"] = float(
                np.linalg.norm(estimates.moments[j] - truth)
            )
            power = A @ power
        summary["A_error"] = float(np.linalg.norm(identified.A_hat - A))
        summary["B_error"] = float(np.linalg.norm(identified.B_hat - B))
    return summary


def _ceil_two_thirds_power(T: int) -> int:
    """Exact integer ``ceil(T^(2/3))`` (smallest m with m^3 >= T^2)."""
    m = max(1, int(round((T * T) ** (1.0 / 3.0))))
    while m**3 < T * T:
        m += 1
    while m > 1 and (m - 1) ** 3 >= T * T:
        m -= 1
    return m


def _gain_for_identified(
    A_hat: np.ndarray, B_hat: np.ndarray, cost: object
) -> np.ndarray:
    """Stabilizing gain for the identified pair
    (:func:`~nscontrol.harness._stabilizing_gain`)."""
    K = _stabilizing_gain(A_hat, B_hat, cost)
    if K is None:
        raise EvaluationError(
            "identified dynamics are unstable and the quadratic gain is "
            "unsolvable; cannot run the exploitation phase"
        )
    return K


def control_with_model(
    box: BlackBoxSystem,
    A_model: object,
    B_model: object,
    n_steps: int,
    cost: object,
    K: Optional[object] = None,
    **learner,
) -> np.ndarray:
    """Run a disturbance-action gradient controller designed on a model.

    The controller acts on the box's real states but recovers
    perturbations through ``(A_model, B_model)``, so any model error is
    treated as extra disturbance.  Returns the per-step costs actually
    incurred, from one ``cost.values`` call on the box's record of the
    states and controls after the loop.  ``K`` defaults to the model's quadratic gain (zero for a
    stable model without one).  The controller runs through
    :func:`~nscontrol.online_control.gpc_runner` on the model: each step
    acts on the real state, recovering the last perturbation through the
    model, and then takes its update.  ``learner`` holds the
    :class:`~nscontrol.online_control.GPCController` options ``h``,
    ``radius``, ``step_size`` and ``schedule``, forwarded as
    given (the horizon is ``n_steps``); the controller holds their
    defaults.
    """
    A_model = np.asarray(A_model, dtype=float)
    B_model = np.asarray(B_model, dtype=float)
    if K is None:
        K = _gain_for_identified(A_model, B_model, cost)
    n_steps = _whole(n_steps, 0, "n_steps")
    controller = GPCController(box.d_x, box.d_u, K, horizon=n_steps, **learner)
    policy = gpc_runner(controller, LinearSystem.time_invariant(A_model, B_model), cost)
    start = box.steps
    x = box.read_state()
    for s in range(n_steps):
        box.apply_control(policy(s, x, x))
        x = box.read_state()
    return cost.values(box.recorded_states[start:-1], box.recorded_controls[start:])


def identify_then_control(
    box: BlackBoxSystem,
    T: int,
    cost: object,
    k: int = 1,
    seed: int = 0,
    **learner,
) -> RegretReport:
    """Explore with Rademacher controls, identify, then control.

    Splits a budget of ``T`` steps into an identification phase of
    ``T0 (k+1)`` steps with ``T0 = ceil(T^(2/3))`` and an exploitation
    phase running a disturbance-action gradient controller designed on the
    identified ``(A_hat, B_hat)``; the controller recovers perturbations
    through the identified model, so model error rides along as extra
    disturbance.  The report's comparator is the best fixed
    disturbance-action policy in hindsight on the *true* system, and its
    extras record the exploration/exploitation split and identification
    diagnostics.

    ``learner`` holds the :class:`~nscontrol.online_control.GPCController`
    options ``h``, ``radius``, ``step_size`` and ``schedule``,
    forwarded to :func:`control_with_model` as given; the comparator's
    depth is the learner's ``h``.

    Raises
    ------
    ConfigurationError
        If the budget cannot fit the identification phase.
    EvaluationError
        If the excitation block matrix is numerically rank-deficient
        (below ``SIGMA_MIN_THRESHOLD``) — the pipeline aborts rather than
        control a bogus model.
    """
    start_time = time.perf_counter()
    T, k = _whole(T, 1, "horizon T"), _whole(k, 1, "the controllability index k")
    T0 = _ceil_two_thirds_power(T)
    n_explore = exploration_length(k, T0)
    if n_explore >= T:
        raise ConfigurationError(
            f"budget T={T} cannot fit the identification phase "
            f"({n_explore} steps at T0={T0}, k={k})"
        )

    record = excite_and_record(box, k, T0, seed=component_seed(seed, "sysid"))
    estimates = estimate_moments(record, k, T0)
    identified = recover_AB(estimates)
    if identified.sigma_min < SIGMA_MIN_THRESHOLD:
        raise EvaluationError(
            "identification failed: smallest singular value "
            f"{identified.sigma_min:.3e} is below {SIGMA_MIN_THRESHOLD:.1e}; "
            "the system was not sufficiently excited"
        )
    A_hat, B_hat = identified.A_hat, identified.B_hat

    explore_costs = cost.values(record.states[:-1], record.controls)

    K_hat = _gain_for_identified(A_hat, B_hat, cost)
    n_exploit = T - n_explore
    exploit_costs = control_with_model(box, A_hat, B_hat, n_exploit, cost, K=K_hat, **learner)

    truth = box.reveal_system()
    w_record = box.recorded_perturbations
    states = box.recorded_states
    h = int(learner.get("h", DEFAULT_H))
    _, comparator_costs = best_dac_in_hindsight(truth, cost, K_hat, w_record, h=h, x0=states[0])

    costs = np.concatenate([explore_costs, exploit_costs])
    extras = {
        "T0": int(T0),
        "k": int(k),
        "n_explore": int(n_explore),
        "exploration_cost": float(explore_costs.sum()),
        "exploitation_cost": float(exploit_costs.sum()),
    }
    extras.update(identification_summary(estimates, identified, truth))
    return _regret_report("identify-then-control", "best-dac", costs, comparator_costs,
                          states, seed, start_time, extras)
