"""Experiment orchestration: scenario presets, hindsight comparators, regret
reports, and reproducible CSV/JSON artifacts.

A scenario bundles a system, a cost, a perturbation source, and a
controller choice.  :func:`run_experiment` simulates the controller, fits
the configured comparator policy offline on the recorded perturbations,
and emits a per-step CSV plus a flat JSON summary, both byte-reproducible
under the scenario seed (wall-clock aside).

Comparators optimize the exact counterfactual cost of a fixed policy on
the recorded perturbation sequence.  One streamed Newton engine serves
every comparator: each forward pass carries the trajectory's sensitivity
to the parameters and returns the objective with its gradient and
Hessian.  For disturbance-action and disturbance-response policies the
trajectory is affine in the parameters, so the objective is convex
whenever the cost is; a quadratic cost is minimized exactly by one pass
and one least-squares solve, other convex costs take damped Newton steps
until the Newton decrement is negligible.  The best fixed linear gain is
not convex: at a gain K, the run's first-order sensitivity to a change of
K is that of a one-block action class acting on K's own closed-loop
states, so the same pass gives J(K), its gradient and the Gauss-Newton
Hessian, and damped Gauss-Newton steps run from several starts, a
heuristic that returns the best local result.
"""

from __future__ import annotations

import configparser
import os
import time
import warnings
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .lds_core import (
    CallableCost,
    LinearSystem,
    PerturbationSource,
    QuadraticCost,
    _as_matrix,
    _finite_vector,
    _played_costs,
    _whole,
    linearize,
    simulate,
    spectral_radius,
)
from .online_control import DEFAULT_H, GPCController, GRCController, gpc_runner, grc_runner
from .optimal_control import dare_solve
from .serialize import load_matrix, write_csv, write_json_summary

__all__ = [
    "ScenarioBlueprint",
    "ScenarioConfig",
    "RegretReport",
    "component_seed",
    "scenario_presets",
    "generate_perturbations",
    "best_dac_in_hindsight",
    "best_drc_in_hindsight",
    "best_linear_in_hindsight",
    "dac_rollout_costs",
    "drc_rollout_costs",
    "linear_rollout_costs",
    "run_experiment",
    "write_report_csv",
    "report_summary",
    "load_config",
]

#: Comparator budget for non-quadratic costs and for each best-linear start:
#: forward passes of the damped Newton engine, and the Newton decrement,
#: relative to 1 + |J|, that ends it.
COMPARATOR_MAX_ITER = 50
COMPARATOR_TOL = 1e-10
#: Bytes one per-chunk buffer of the comparator passes and closed-loop
#: rollouts may hold; the chunk length follows from it.
_CHUNK_BYTES = 128 * 1024


def component_seed(master: int, tag: str) -> int:
    """Derive an independent 64-bit stream seed: master XOR a tag hash."""
    return (int(master) ^ zlib.crc32(tag.encode())) & 0xFFFFFFFFFFFFFFFF


# ---------------------------------------------------------------------------
# Scenario presets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioBlueprint:
    """A ready-to-run benchmark scenario.

    ``noise_embedding`` (optional) maps raw perturbation draws into state
    space, for systems whose disturbances act through a tall matrix.
    ``cost_on`` is ``"state"`` or ``"observation"`` and says which signal
    the cost consumes alongside the control.
    """

    name: str
    description: str
    system: LinearSystem
    cost: object
    perturbation: PerturbationSource
    x0: Optional[np.ndarray] = None
    noise_embedding: Optional[np.ndarray] = None
    cost_on: str = "state"


def _double_integrator() -> ScenarioBlueprint:
    dt = 0.1
    A = np.array([[1.0, dt], [0.0, 1.0]])
    B = np.array([[0.0], [1.0]])
    return ScenarioBlueprint(
        name="double-integrator",
        description="Point object on a line: position/velocity state, force control.",
        system=LinearSystem.time_invariant(A, B),
        cost=QuadraticCost(Q=np.eye(2), R=np.eye(1)),
        perturbation=PerturbationSource.zero(),
        x0=np.array([1.0, 0.0]),
    )


def _scalar_09() -> ScenarioBlueprint:
    return ScenarioBlueprint(
        name="scalar-0.9",
        description="Scalar system x' = 0.9 x + u + w with quadratic cost.",
        system=LinearSystem.time_invariant([[0.9]], [[1.0]]),
        cost=QuadraticCost(Q=np.eye(1), R=np.eye(1)),
        perturbation=PerturbationSource.sinusoidal(amplitude=1.0, omega=1.0),
        x0=np.array([1.0]),
    )


def _b747() -> ScenarioBlueprint:
    A = np.array(
        [
            [-0.003, 0.039, 0.0, -0.322],
            [-0.065, -0.319, 7.74, 0.0],
            [0.020, -0.101, -0.429, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    B = np.array(
        [
            [0.01, 1.0],
            [-0.18, -0.04],
            [-1.16, 0.598],
            [0.0, 0.0],
        ]
    )
    # Wind (along-body, perpendicular) enters through the first two state
    # rows of the dynamics matrix.
    D = A[:2, :].T.copy()
    H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 7.74]])
    return ScenarioBlueprint(
        name="b747",
        description="Longitudinal jet dynamics: elevator/thrust control under wind.",
        system=LinearSystem.time_invariant(A, B),
        cost=QuadraticCost(Q=H.T @ H, R=np.diag([0.0, 1.0])),
        perturbation=PerturbationSource.gaussian(sigma=0.3),
        noise_embedding=D,
    )


def _pendulum() -> ScenarioBlueprint:
    mass, length, gravity, dt = 1.0, 1.0, 9.8, 0.05

    def f(x: np.ndarray, u: np.ndarray) -> np.ndarray:
        theta, omega = x
        return np.array(
            [
                theta + dt * omega,
                omega + dt * (u[0] - mass * gravity * length * np.sin(theta))
                / (mass * length**2),
            ]
        )

    anchor = np.array([np.pi, 0.0])
    A, B = linearize(f, anchor, np.array([0.0]))
    return ScenarioBlueprint(
        name="pendulum",
        description=(
            "Torque-driven pendulum linearized at the upright anchor; the "
            "state is the deviation (angle, angular velocity) from upright."
        ),
        system=LinearSystem.time_invariant(A, B),
        cost=QuadraticCost(Q=np.eye(2), R=np.eye(1)),
        perturbation=PerturbationSource.zero(),
        x0=np.array([0.1, 0.0]),
    )


def _ventilator() -> ScenarioBlueprint:
    dt, c0, c1, c2 = 0.1, 2.0, 1.0, 1.0
    v_bar = 1.0

    def f(x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return np.array([x[0] + dt * u[0]])

    def pressure(x: np.ndarray, u: np.ndarray) -> np.ndarray:
        v = x[0]
        return np.array([c0 + c1 * v ** (-1.0 / 3.0) + c2 * v ** (5.0 / 3.0)])

    A, B = linearize(f, np.array([v_bar]), np.array([0.0]))
    C, _ = linearize(pressure, np.array([v_bar]), np.array([0.0]))
    # Squared tracking error between observed pressure and commanded flow,
    # plus a flow-effort penalty; jointly convex in (pressure, flow).
    cost = CallableCost(
        fn=lambda y, u: float((y[0] - u[0]) ** 2 + u[0] ** 2),
        gx=lambda y, u: np.array([2.0 * (y[0] - u[0])]),
        gu=lambda y, u: np.array([-2.0 * (y[0] - u[0]) + 2.0 * u[0]]),
    )
    return ScenarioBlueprint(
        name="ventilator",
        description=(
            "Lung volume driven by commanded flow, observed through a "
            "nonlinear pressure map linearized at unit volume; all signals "
            "are deviations from that anchor."
        ),
        system=LinearSystem.time_invariant(A, B, C),
        cost=cost,
        perturbation=PerturbationSource.sinusoidal(amplitude=0.3, omega=0.2),
        x0=np.array([0.5]),
        cost_on="observation",
    )


def _sir() -> ScenarioBlueprint:
    beta, gamma, alpha = 0.3, 0.5, 0.1

    def f(x: np.ndarray, u: np.ndarray) -> np.ndarray:
        s, i, r = x
        return np.array(
            [
                s - beta * s * i - alpha * u[0],
                i + beta * s * i - gamma * i,
                r + gamma * i,
            ]
        )

    anchor = np.array([1.0, 0.0, 0.0])
    A, B = linearize(f, anchor, np.array([0.0]))
    return ScenarioBlueprint(
        name="sir",
        description=(
            "Epidemic compartments (susceptible, infected, recovered) "
            "linearized at the disease-free anchor; vaccination control."
        ),
        system=LinearSystem.time_invariant(A, B),
        cost=QuadraticCost(Q=np.diag([0.0, 1.0, 0.0]), R=np.eye(1)),
        perturbation=PerturbationSource.zero(),
        x0=np.array([0.0, 0.01, 0.0]),
    )


def scenario_presets() -> dict[str, ScenarioBlueprint]:
    """Named library of benchmark scenarios."""
    presets = [
        _double_integrator(),
        _scalar_09(),
        _b747(),
        _pendulum(),
        _ventilator(),
        _sir(),
    ]
    return {p.name: p for p in presets}


# ---------------------------------------------------------------------------
# Perturbation records
# ---------------------------------------------------------------------------


def generate_perturbations(
    source: PerturbationSource,
    T: int,
    d_x: int,
    seed: int,
    embedding: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Materialize the perturbation sequence (T, d_x) for a run.

    Raw draws have the embedding's column count when an embedding is given
    and are mapped through it; the stream is seeded independently of any
    other component via the ``"perturbation"`` tag.
    """
    T, d_x = _whole(T, 0, "horizon T"), _whole(d_x, 1, "d_x")
    rng = np.random.default_rng(component_seed(seed, "perturbation"))
    if embedding is not None:
        embedding = _as_matrix(embedding, "noise embedding", (d_x, None))
    w = source.draw(0, T, d_x if embedding is None else embedding.shape[1], rng)
    return w if embedding is None else w @ embedding.T


# ---------------------------------------------------------------------------
# Counterfactual policy passes
# ---------------------------------------------------------------------------


class _PolicyClass(NamedTuple):
    """Fixed policies ``u_t = K x_t + sum_{i<depth} M_i s_{t-lag-i}`` on a
    recorded run, charged on ``z_t = C_t x_t`` when ``observe``, else on
    ``z_t = x_t``.  DAC: signal w, lag 1; DRC: signal ynat, lag 0, K = 0;
    the linear class at K: signal x(K), depth 1, lag 0 (:func:`_linear_pass`)."""

    system: LinearSystem
    K: np.ndarray
    w_record: np.ndarray
    signals: np.ndarray
    depth: int
    lag: int
    x0: Optional[np.ndarray]
    observe: bool


def _chunks(system: LinearSystem, T: int, width: int) -> Iterator[tuple]:
    """The run as ``(start, A, B, C)`` chunk stacks (:meth:`LinearSystem.stacks`), each
    buffer within ``_CHUNK_BYTES`` when one step of the widest takes ``width`` floats."""
    d_x, d_u, d_y = system.d_x, system.d_u, system.d_y
    n = max(1, min(T, _CHUNK_BYTES // (8 * max(width, d_x * max(d_x, d_u, d_y)))))
    for start in range(0, T, n):
        yield (start, *system.stacks(start, min(start + n, T)))


def _affine_recursion(F: np.ndarray, E: np.ndarray, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """States of ``x_{t+1} = F_t x_t + E_t r_t`` over a chunk, from the
    vector or matrix state ``x`` entering it (row 0) to the one leaving it
    (last row), with the inputs ``r_t`` known in advance.  The one
    sequential loop of the comparator passes and of :func:`_closed_loop`:
    a step is one product ``[F_t | E_t] [x_t; r_t]`` written in place,
    with the inputs stacked under the state."""
    d = x.shape[0]
    Z = np.empty((F.shape[0] + 1, d + r.shape[1]) + x.shape[1:])
    Z[0, :d] = x
    Z[:-1, d:] = r
    for FE_t, z_t, x_next in zip(np.concatenate((F, E), axis=2), Z, Z[1:, :d]):
        FE_t.dot(z_t, out=x_next)
    return Z[:, :d]


def _signal_windows(signals: np.ndarray, depth: int, lag: int) -> np.ndarray:
    """``windows[t, i] = s_{t-lag-i}``, zero before the record starts: a
    (T, depth, d_s) Hankel view of one zero-padded copy of the signals."""
    T, d_s = signals.shape
    padded = np.zeros((depth + lag + T, d_s))
    padded[depth + lag :] = signals
    windows = np.lib.stride_tricks.sliding_window_view(padded[1:], depth, axis=0)
    return windows[:T, :, ::-1].transpose(0, 2, 1)


def _closed_loop(
    system: LinearSystem, K: np.ndarray, w_record: np.ndarray, x0: object, observe: bool,
    v: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(z_t, u_t)`` along the rollout of ``u_t = K x_t + v_t`` (``v =
    None`` for zero), with ``z_t = C_t x_t`` when ``observe``, else ``x_t``:
    :func:`_affine_recursion` steps ``x_{t+1} = (A_t + B_t K) x_t + [B_t |
    w_t] [v_t; 1]``.  With ``K = 0`` and ``observe``, ``z`` is the natural
    observations ``ynat`` that disturbance-response policies act on; the
    linear class acts on its own closed-loop states."""
    T = w_record.shape[0]
    v = np.zeros((T, system.d_u)) if v is None else v
    z, u = np.empty((T, system.d_y if observe else system.d_x)), np.empty((T, system.d_u))
    x = np.zeros(system.d_x) if x0 is None else np.asarray(x0, dtype=float)
    for start, A, B, C in _chunks(system, T, system.d_x + system.d_u + 1):
        stop = start + A.shape[0]
        E = np.concatenate((B, w_record[start:stop, :, None]), axis=2)
        r = np.concatenate((v[start:stop], np.ones((stop - start, 1))), axis=1)
        X = _affine_recursion(A + np.matmul(B, K), E, x, r)
        x, states = X[-1], X[:-1]
        u[start:stop] = states @ K.T + v[start:stop]
        z[start:stop] = np.matmul(C, states[..., None])[..., 0] if observe else states
    return z, u


def _policy_pass(
    policies: _PolicyClass, cost: object, m: Optional[np.ndarray], label: str
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, bool]:
    """One forward pass at the flat blocks ``m`` (``None`` for zero), whose
    control sum is ``S_t m = sum_{i<depth} M_i s_{t-lag-i}``.

    The state is affine in ``m``, ``x_t(m) = x_t(0) + Phi_t m``:
    :func:`_affine_recursion` steps ``[Phi_t | x_t(0)]`` with ``F_t = A_t +
    B_t K`` and the input ``[B_t S_t | w_t]``, and all other work is done
    per chunk of steps, so memory is bounded by one chunk.  Returns ``J(m)``,
    half its gradient ``g = sum_t L_t' grad c_t / 2``, half its Hessian ``H
    = sum_t L_t' hess c_t L_t / 2`` (``L_t = d (z_t, u_t) / d m``) and the
    minimum-norm least-squares Newton step of ``H dm = -g`` (``H`` may be
    singular: a cost blind to some input, or no excitation).  Each chunk
    takes its stage values and half gradients from one ``cost.stage`` call
    and its half stage Hessians from one ``cost.half_hessians`` call.  The
    last value returned says whether the stage Hessian is constant (one
    matrix for every row), so that ``J`` is exactly quadratic in ``m``.
    """
    system, K, w_record, signals, depth, lag, x0, observe = policies
    T, d_s = signals.shape
    if T == 0:
        raise ConfigurationError(f"{label} needs a record of at least one step")
    d_x, d_u = system.d_x, system.d_u
    d_z = system.d_y if observe else d_x
    d_v, p = d_z + d_u, depth * d_u * d_s
    windows = _signal_windows(signals, depth, lag)
    x = np.zeros((d_x, p + 1))  # [Phi_t | x_t(0)]
    x[:, p] = 0.0 if x0 is None else x0
    G, g, c, constant = np.zeros((p, p)), np.zeros(p), 0.0, True
    # A diverging rollout overflows; the finiteness check below turns that
    # into an EvaluationError.
    with np.errstate(over="ignore", invalid="ignore"):
        for start, A, B, C in _chunks(system, T, max(d_x + d_u + 1, d_v) * (p + 1)):
            n = A.shape[0]
            # [B_t S_t | w_t] = [B_t | w_t] R_t, R_t = blockdiag(S_t, 1), with
            # S[t, a, (i, a', b)] = [a == a'] s_{t-lag-i, b}.
            R = np.zeros((n, d_u + 1, p + 1))
            R[:, :d_u, :p] = (np.eye(d_u)[:, None, :, None]
                              * windows[start : start + n, None, :, None, :]).reshape(n, d_u, p)
            R[:, d_u, p] = 1.0
            E = np.concatenate((B, w_record[start : start + n, :, None]), axis=2)
            X = _affine_recursion(A + np.matmul(B, K), E, x, R)
            x = X[-1]
            # Y_t = [L_t | (z_t, u_t)]: the sensitivity, then the values at m.
            Y = np.empty((n, d_v, p + 1))
            Y[:, :d_z] = np.matmul(C, X[:-1]) if observe else X[:-1]
            Y[:, d_z:] = np.matmul(K, X[:-1]) + R[:, :d_u]
            if m is not None:
                Y[..., p] += np.matmul(Y[..., :p], m)
            L, Z, U = Y[..., :p], Y[:, :d_z, p], Y[:, d_z:, p]
            values, half_grads = cost.stage(Z, U)
            H = cost.half_hessians(Z, U)
            constant = H.ndim == 2
            c += values.sum()
            g += half_grads.ravel() @ L.reshape(n * d_v, p)
            G += L.reshape(n * d_v, p).T @ np.matmul(H, L).reshape(n * d_v, p)

    if not (np.isfinite(c) and np.isfinite(g).all() and np.isfinite(G).all()):
        raise EvaluationError(f"{label} objective became non-finite")
    step, *_ = np.linalg.lstsq(G, -g, rcond=None)
    return float(c), g, G, step, constant


def _best_policy(
    pass_at: Callable, affine: bool, max_iter: int, tol: float, label: str
) -> tuple[np.ndarray, Optional[float], Optional[str]]:
    """Minimize a counterfactual total cost over flat parameters ``m`` by
    Newton's method from ``m = 0``; ``pass_at(m)`` is one forward pass that
    returns what :func:`_policy_pass` does (``m = None`` for zero).

    When the policy class is ``affine`` in ``m`` and the first pass sees a
    cost whose stage Hessian is constant, the objective is exactly ``J(m) =
    J(0) + 2 g.m + m.H.m``, so that pass's Newton step is the minimizer; it
    is returned with no value, which the caller reads off a rollout (the
    quadratic form cancels large terms when ``H`` is ill-conditioned).
    Otherwise Armijo-damped steps, one pass per trial point, run until the
    Newton decrement ``-g.dm`` (the decrease the local quadratic model
    predicts) is at most ``tol * (1 + |J|)`` or ``max_iter`` passes are
    spent; a trial whose pass is non-finite is a rejected step.  A
    non-finite first pass raises.  Returns the best point seen, its pass
    value (``None`` for the exact step), and a message giving the decrement
    when the budget ran out (else ``None``).
    """
    value, g, H, step, constant = pass_at(None)
    if affine and constant:
        return step, None, None

    m = np.zeros(step.size)
    best_m, best_value = m, value
    passes, scale = 1, 1.0
    while True:
        decrement = -float(g @ step)
        if decrement <= tol * (1.0 + abs(value)):
            return best_m, best_value, None
        if passes >= max_iter:
            return best_m, best_value, (
                f"{label} stopped after {passes} Newton passes at decrement "
                f"{decrement:.3e} > {tol:g} * (1 + |J|); returning the best point"
            )
        trial = m + scale * step
        passes += 1
        try:
            trial_value, trial_g, _, trial_step, _ = pass_at(trial)
        except EvaluationError:
            scale *= 0.5
            continue
        if trial_value < best_value:
            best_m, best_value = trial, trial_value
        if trial_value <= value - 1e-4 * scale * decrement:
            m, value, g, step, scale = trial, trial_value, trial_g, trial_step, 1.0
        else:
            scale *= 0.5


def _best_affine_policy(
    policies: _PolicyClass, cost: object, max_iter: int, tol: float, label: str
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_best_policy` over an affine policy class, exact for a cost
    whose stage Hessian is constant, warning when the pass budget runs out.
    Returns the blocks, (depth, d_u, d_s), and the costs of their rollout."""
    m, _, budget_note = _best_policy(
        lambda m: _policy_pass(policies, cost, m, label), True, max_iter, tol, label
    )
    if budget_note:
        warnings.warn(budget_note, stacklevel=3)
    Ms = m.reshape(policies.depth, policies.system.d_u, policies.signals.shape[1])
    return Ms, _policy_rollout_costs(policies, cost, Ms)


def _linear_pass(
    system: LinearSystem, cost: object, w_record: np.ndarray, x0: object, K: np.ndarray, label: str
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, bool]:
    """:func:`_policy_pass` for the linear class at the gain ``K``: ``J(K)``,
    half its gradient and half its Gauss-Newton Hessian in the gain, the
    Gauss-Newton step, and whether the stage Hessian is constant.  To first
    order in a change ``M`` of the gain, ``u_t = (K + M) x_t(K + M)`` equals
    ``K x_t + M x_t(K)``: a one-block, lag-0 action class on K's own
    closed-loop states, applied on top of K."""
    with np.errstate(over="ignore", invalid="ignore"):
        states, _ = _closed_loop(system, K, w_record, x0, False)
    policies = _PolicyClass(system, K, w_record, states, 1, 0, x0, False)
    return _policy_pass(policies, cost, None, label)


def _policy_rollout_costs(policies: _PolicyClass, cost: object, Ms: np.ndarray) -> np.ndarray:
    """Per-step costs of the policy with blocks ``Ms``: a plain closed-loop
    simulation, not the sensitivity recursion of :func:`_policy_pass`, so it
    can check the comparators.  One einsum over the signal windows gives
    every control sum ``v_t`` for :func:`_closed_loop`.  A diverging
    rollout raises EvaluationError naming its first non-finite cost."""
    system, K, w_record, signals, _, lag, x0, observe = policies
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.einsum("iab,tib->ta", Ms, _signal_windows(signals, Ms.shape[0], lag))
        z, u = _closed_loop(system, K, w_record, x0, observe, v)
    return _played_costs(cost, z, u, "the comparator rollout's cost")


def _response_class(system: LinearSystem, w_record: np.ndarray, depth: int,
                    x0: Optional[np.ndarray]) -> _PolicyClass:
    """The ``depth``-block response class: signal ``ynat``, lag 0, K = 0."""
    K = np.zeros((system.d_u, system.d_x))
    with np.errstate(over="ignore", invalid="ignore"):
        ynat, _ = _closed_loop(system, K, w_record, x0, True)
    return _PolicyClass(system, K, w_record, ynat, depth, 0, x0, True)


# ---------------------------------------------------------------------------
# Hindsight comparators
# ---------------------------------------------------------------------------


def best_dac_in_hindsight(
    system: LinearSystem,
    cost: object,
    K: object,
    w_record: object,
    h: int,
    x0: Optional[object] = None,
    max_iter: int = COMPARATOR_MAX_ITER,
    tol: float = COMPARATOR_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Best fixed disturbance-action policy on a recorded run.

    Minimizes the exact counterfactual total cost of ``u_t = K x_t +
    sum_i M_i w_{t-i}`` over the action blocks; the objective is convex
    because the trajectory is affine in ``M``.  One streamed Newton engine
    serves every cost: a cost whose stage Hessian is constant is minimized
    exactly by a single forward pass and one least-squares solve; any other
    convex cost by damped Newton steps from ``M = 0``, at most ``max_iter``
    forward passes, stopping once the Newton decrement is at most ``tol *
    (1 + |J|)``.  A pass works through the run in chunks of steps, so its
    memory is bounded by one chunk, not by T.  Returns ``(Ms, costs)``:
    ``Ms`` of shape (h, d_u, d_x), and the (T,) per-step costs of their one
    plain rollout (:func:`dac_rollout_costs`), which sum to the total.
    """
    w_record = _as_matrix(w_record, "w_record", (None, system.d_x))
    x0 = None if x0 is None else _finite_vector(x0, system.d_x, "x0")
    K = _as_matrix(K, "K", (system.d_u, system.d_x))
    policies = _PolicyClass(system, K, w_record, w_record, _whole(h, 0, "h"), 1, x0, False)
    return _best_affine_policy(policies, cost, max_iter, tol, "action-policy comparator")


def best_drc_in_hindsight(
    system: LinearSystem,
    cost: object,
    w_record: object,
    h: int,
    x0: Optional[object] = None,
    max_iter: int = COMPARATOR_MAX_ITER,
    tol: float = COMPARATOR_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Best fixed disturbance-response policy on a recorded run.

    Minimizes the counterfactual total cost of ``u_t = sum_{i=0..h} M_i
    ynat_{t-i}`` where ``ynat`` is the zero-control observation sequence;
    the cost consumes (observation, control) pairs.  The same streamed
    Newton engine as :func:`best_dac_in_hindsight` minimizes it: exactly in
    one pass for a cost whose stage Hessian is constant, otherwise by damped
    Newton steps bounded by ``max_iter`` passes and the relative decrement
    ``tol``, with memory bounded by one chunk of steps.  Returns ``(Ms,
    costs)``: ``Ms`` of shape (h+1, d_u, d_y), and the (T,) per-step costs
    of their one plain rollout (:func:`drc_rollout_costs`).
    """
    w_record = _as_matrix(w_record, "w_record", (None, system.d_x))
    x0 = None if x0 is None else _finite_vector(x0, system.d_x, "x0")
    policies = _response_class(system, w_record, _whole(h, 0, "h") + 1, x0)
    return _best_affine_policy(policies, cost, max_iter, tol, "response-policy comparator")


def best_linear_in_hindsight(
    system: LinearSystem,
    cost: object,
    w_record: object,
    x0: Optional[object] = None,
    starts: Optional[Sequence[object]] = None,
    max_iter: int = COMPARATOR_MAX_ITER,
    tol: float = COMPARATOR_TOL,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Best fixed linear gain on a recorded run (multi-start local search).

    The objective is not convex in the gain, so this is a heuristic: damped
    Gauss-Newton steps on the streamed engine of
    :func:`best_dac_in_hindsight` run from the infinite-horizon quadratic
    gain (when solvable), from zero, and from two perturbed copies, or from
    ``starts``, and the best local result wins.  Each start takes at most
    ``max_iter`` passes and stops once the Newton decrement is at most
    ``tol * (1 + |J|)``, the same meaning as for the other comparators; a
    start whose first pass is non-finite has diverged and is dropped.  A
    warning reports the decrement if the winning start spent its budget.
    Returns ``(K, costs)``: the gain and the (T,) per-step costs of its one
    plain rollout (:func:`linear_rollout_costs`).
    """
    w_record = _as_matrix(w_record, "w_record", (None, system.d_x))
    x0 = None if x0 is None else _finite_vector(x0, system.d_x, "x0")
    label = "linear-policy comparator"

    if starts is None:
        rng = np.random.default_rng(component_seed(seed, "linear-starts"))
        starts = [np.zeros((system.d_u, system.d_x))]
        if isinstance(cost, QuadraticCost):
            A0, B0, _ = system.matrices(0)
            try:
                starts.insert(0, dare_solve(A0, B0, cost.Q, cost.R).K)
            except (ConfigurationError, EvaluationError):
                pass
        base = starts[0]
        bump = 0.1 * rng.standard_normal(base.shape)
        starts.extend([base + bump, base - bump])

    best = None
    for start in starts:
        K0 = _as_matrix(start, "start", (system.d_u, system.d_x))

        def pass_at(m: Optional[np.ndarray]) -> tuple:
            K = K0 if m is None else K0 + m.reshape(K0.shape)
            return _linear_pass(system, cost, w_record, x0, K, label)

        try:
            m, value, budget_note = _best_policy(pass_at, False, max_iter, tol, label)
        except EvaluationError:
            continue
        if best is None or value < best[1]:
            best = (K0 + m.reshape(K0.shape), value, budget_note)
    if best is None:
        raise EvaluationError("every local search start diverged")
    K_star, _, budget_note = best
    if budget_note:
        warnings.warn(budget_note, stacklevel=2)
    policies = _PolicyClass(system, K_star, w_record, w_record, 1, 1, x0, False)
    return K_star, _policy_rollout_costs(policies, cost, np.zeros((1, system.d_u, system.d_x)))


def dac_rollout_costs(
    system: LinearSystem,
    cost: object,
    K: object,
    Ms: object,
    w_record: object,
    x0: Optional[object] = None,
) -> np.ndarray:
    """Exact per-step counterfactual costs of a fixed action policy."""
    w_record = _as_matrix(w_record, "w_record", (None, system.d_x))
    x0 = None if x0 is None else _finite_vector(x0, system.d_x, "x0")
    shape = (system.d_u, system.d_x)
    K = _as_matrix(K, "K", shape)
    Ms = np.array([_as_matrix(M, f"M_{i}", shape) for i, M in enumerate(Ms, 1)]).reshape(-1, *shape)
    policies = _PolicyClass(system, K, w_record, w_record, len(Ms), 1, x0, False)
    return _policy_rollout_costs(policies, cost, Ms)


def drc_rollout_costs(
    system: LinearSystem,
    cost: object,
    Ms: object,
    w_record: object,
    x0: Optional[object] = None,
) -> np.ndarray:
    """Exact per-step counterfactual costs of a fixed response policy
    (cost on observation/control pairs)."""
    w_record = _as_matrix(w_record, "w_record", (None, system.d_x))
    x0 = None if x0 is None else _finite_vector(x0, system.d_x, "x0")
    shape = (system.d_u, system.d_y)
    Ms = np.array([_as_matrix(M, f"M_{i}", shape) for i, M in enumerate(Ms)]).reshape(-1, *shape)
    return _policy_rollout_costs(_response_class(system, w_record, len(Ms), x0), cost, Ms)


def linear_rollout_costs(
    system: LinearSystem,
    cost: object,
    K: object,
    w_record: object,
    x0: Optional[object] = None,
) -> np.ndarray:
    """Exact per-step costs of the fixed linear policy ``u = K x``."""
    return dac_rollout_costs(
        system, cost, K, np.zeros((1, system.d_u, system.d_x)), w_record, x0
    )


# ---------------------------------------------------------------------------
# Regret reports
# ---------------------------------------------------------------------------


@dataclass
class RegretReport:
    """Per-step account of a learner run against an offline comparator.

    ``costs`` and ``comparator_costs`` are the per-step costs of the run and
    of the comparator on the same perturbations, and ``state_norms`` holds
    ``||x_t||`` per step, ``t = 0 .. T-1``.  ``gamma`` is the run's state
    bound ``max_t ||x_t||`` over all ``T + 1`` states, the final one
    included, and ``wall_clock`` the seconds from the start of the run to
    the report, comparator included.  :func:`report_summary` adds
    ``extras`` to the summary.
    """

    controller: str
    comparator: str
    costs: np.ndarray
    comparator_costs: np.ndarray
    state_norms: np.ndarray
    horizon: int
    seed: int
    gamma: float
    wall_clock: float
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        self.costs = np.asarray(self.costs, dtype=float)
        self.comparator_costs = np.asarray(self.comparator_costs, dtype=float)
        self.state_norms = np.asarray(self.state_norms, dtype=float)
        if not (
            self.costs.shape
            == self.comparator_costs.shape
            == self.state_norms.shape
            == (self.horizon,)
        ):
            raise ConfigurationError("report arrays must all have shape (horizon,)")

    @property
    def cum_cost(self) -> np.ndarray:
        return np.cumsum(self.costs)

    @property
    def cum_comparator_cost(self) -> np.ndarray:
        return np.cumsum(self.comparator_costs)

    @property
    def avg_regret(self) -> np.ndarray:
        steps = np.arange(1, self.horizon + 1, dtype=float)
        return (self.cum_cost - self.cum_comparator_cost) / steps

    @property
    def total_cost(self) -> float:
        return float(self.costs.sum())

    @property
    def comparator_total_cost(self) -> float:
        return float(self.comparator_costs.sum())

    @property
    def final_avg_regret(self) -> float:
        return float(self.avg_regret[-1]) if self.horizon else 0.0


CSV_COLUMNS = ["t", "cost", "cum_cost", "cum_comparator_cost", "avg_regret", "state_norm"]


def write_report_csv(report: RegretReport, path: str) -> None:
    """Emit the per-step CSV (17-significant-digit numbers)."""
    columns = (report.costs, report.cum_cost, report.cum_comparator_cost, report.avg_regret,
               report.state_norms)
    write_csv(path, CSV_COLUMNS, zip(range(1, report.horizon + 1), *(c.tolist() for c in columns)))


def _regret_report(controller: str, comparator: str, costs: np.ndarray,
                   comparator_costs: np.ndarray, states: np.ndarray, seed: int,
                   start_time: float, extras: Optional[dict] = None) -> RegretReport:
    """The report of a run of ``T = len(costs)`` steps through the ``T + 1``
    ``states``, timed from ``start_time``."""
    norms = np.linalg.norm(states, axis=1)
    return RegretReport(controller, comparator, costs, comparator_costs, norms[:-1],
                        horizon=len(costs), seed=int(seed), gamma=float(norms.max()),
                        wall_clock=time.perf_counter() - start_time, extras=extras or {})


def _write_report(report: RegretReport, out_dir: str) -> None:
    """Write ``report.csv`` and ``summary.json`` into ``out_dir``."""
    write_report_csv(report, os.path.join(out_dir, "report.csv"))
    write_json_summary(os.path.join(out_dir, "summary.json"), report_summary(report))


def report_summary(report: RegretReport) -> dict:
    """Flat JSON-ready summary of a report."""
    summary = {
        "controller": report.controller,
        "comparator": report.comparator,
        "horizon": report.horizon,
        "seed": report.seed,
        "total_cost": report.total_cost,
        "comparator_total_cost": report.comparator_total_cost,
        "final_avg_regret": report.final_avg_regret,
        "gamma": report.gamma,
        "wall_clock_s": report.wall_clock,
    }
    for key, value in report.extras.items():
        summary[str(key)] = value
    return summary


# ---------------------------------------------------------------------------
# Scenario configuration and the experiment driver
# ---------------------------------------------------------------------------


@dataclass
class ScenarioConfig:
    """Everything required to reproduce one experiment."""

    name: str
    system: LinearSystem
    cost: object
    perturbation: PerturbationSource
    controller: dict
    horizon: int
    seed: int = 0
    x0: Optional[np.ndarray] = None
    noise_embedding: Optional[np.ndarray] = None
    cost_on: str = "state"
    comparator: dict = field(default_factory=dict)
    out_dir: Optional[str] = None

    def __post_init__(self):
        self.horizon = _whole(self.horizon, 1, "horizon")
        if not (0 <= int(self.seed) < 2**64):
            raise ConfigurationError("seed must fit in 64 bits")
        if self.cost_on not in ("state", "observation"):
            raise ConfigurationError("cost_on must be 'state' or 'observation'")
        if self.x0 is not None:
            self.x0 = _finite_vector(self.x0, self.system.d_x, "x0")
        if self.noise_embedding is not None:
            self.noise_embedding = _as_matrix(self.noise_embedding, "noise embedding",
                                              (self.system.d_x, None))


def _preset(name: str) -> ScenarioBlueprint:
    presets = scenario_presets()
    if name not in presets:
        raise ConfigurationError(f"unknown preset {name!r}; available: {sorted(presets)}")
    return presets[name]


def _config_from_blueprint(bp: ScenarioBlueprint, **run) -> ScenarioConfig:
    """The :class:`ScenarioConfig` that runs ``bp``'s scenario; ``run`` sets
    the controller, comparator, horizon, seed and output directory."""
    x0 = None if bp.x0 is None else bp.x0.copy()
    return ScenarioConfig(bp.name, bp.system, bp.cost, bp.perturbation, x0=x0,
                          noise_embedding=bp.noise_embedding, cost_on=bp.cost_on, **run)


def config_from_preset(
    preset: str,
    controller: dict,
    horizon: int,
    seed: int = 0,
    comparator: Optional[dict] = None,
    out_dir: Optional[str] = None,
    perturbation: Optional[PerturbationSource] = None,
) -> ScenarioConfig:
    """Instantiate a :class:`ScenarioConfig` from a named preset."""
    bp = _preset(preset)
    if perturbation is not None:
        bp = replace(bp, perturbation=perturbation)
    return _config_from_blueprint(bp, controller=dict(controller), horizon=horizon,
                                  seed=int(seed), comparator=dict(comparator or {}),
                                  out_dir=out_dir)


def _stabilizing_gain(A: np.ndarray, B: np.ndarray, cost: object) -> Optional[np.ndarray]:
    """The infinite-horizon quadratic gain of ``(A, B)`` when solvable, else
    zero when ``A`` is stable, else ``None``."""
    if isinstance(cost, QuadraticCost):
        try:
            return dare_solve(A, B, cost.Q, cost.R).K
        except (ConfigurationError, EvaluationError):
            pass
    if spectral_radius(A) < 1.0 + 1e-12:
        return np.zeros((B.shape[1], A.shape[0]))
    return None


def _resolve_gain(spec_K: object, config: ScenarioConfig) -> np.ndarray:
    """The gain a spec names: for None or ``"lqr"`` the stabilizing gain of
    step 0 (:func:`_stabilizing_gain`), for ``"zero"`` zero, else a matrix."""
    if spec_K is None or spec_K == "lqr":
        K = _stabilizing_gain(*config.system.matrices(0)[:2], config.cost)
        if K is None:
            raise ConfigurationError(
                "no stabilizing gain available: the quadratic gain is unsolvable and "
                "the system is unstable; pass controller K explicitly"
            )
        return K
    if isinstance(spec_K, str) and spec_K == "zero":
        return np.zeros((config.system.d_u, config.system.d_x))
    return _as_matrix(spec_K, "K", (config.system.d_u, config.system.d_x))


#: Keyword options of both learners that a controller spec may set.
_LEARNER_OPTIONS = {"h", "radius", "step_size", "schedule"}
#: Options each controller kind accepts besides ``kind``: the learners'
#: options and GPC's gain ``K``; for the fixed policies their gain ``K`` and
#: ``h``, the comparator's default depth.
_CONTROLLER_OPTIONS = {
    "zero": {"h"},
    "linear": {"h", "K"},
    "lqr": {"h", "K"},
    "gpc": _LEARNER_OPTIONS | {"K"},
    "grc": _LEARNER_OPTIONS,
}
#: Options each comparator kind accepts besides ``kind`` and ``h``.
_COMPARATOR_OPTIONS = {
    "best-dac": {"K", "max_iter", "tol"},
    "best-drc": {"max_iter", "tol"},
    "best-linear": {"starts", "max_iter", "tol"},
    "zero": set(),
    "none": set(),
}


def _check_options(spec: dict, allowed: set, label: str) -> dict:
    """``spec``, once every key is in ``allowed``; otherwise a configuration
    error naming the others."""
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise ConfigurationError(f"unknown {label} options: {unknown}; accepted: {sorted(allowed)}")
    return spec


def learner_options(controller: dict) -> dict:
    """A controller spec's options but ``kind``, checked against the
    learners' options: what identify-then-control forwards."""
    spec = {key: value for key, value in controller.items() if key != "kind"}
    return _check_options(spec, _LEARNER_OPTIONS, "sysid")


def _build_controller(config: ScenarioConfig) -> tuple:
    """Translate a controller spec dict into a simulate() callback.

    The learners' options go to their constructors as given, so their
    defaults live in :class:`GPCController` and :class:`GRCController`
    alone.  Returns ``(callback, label, stabilizing_gain_or_None,
    learner_or_None)``.
    """
    spec = dict(config.controller)
    kind = spec.pop("kind", None)
    if kind not in _CONTROLLER_OPTIONS:
        raise ConfigurationError(
            f"unknown controller kind {kind!r}; expected zero, linear, lqr, gpc, or grc"
        )
    _check_options(spec, _CONTROLLER_OPTIONS[kind], kind)
    system, cost = config.system, config.cost
    if kind == "zero":
        return (lambda t, x, y: np.zeros(system.d_u)), "zero", None, None
    if kind == "grc":
        controller = GRCController(system.d_x, system.d_u, system.d_y, horizon=config.horizon,
                                   **spec)
        return grc_runner(controller, system, cost), "grc", None, controller
    K = _resolve_gain(spec.pop("K", None), config)
    if kind == "gpc":
        controller = GPCController(system.d_x, system.d_u, K, horizon=config.horizon, **spec)
        return gpc_runner(controller, system, cost), "gpc", K, controller
    return (lambda t, x, y: K @ x), kind, K, None


def _learner_diagnostics(learner: object) -> dict:
    """The summary fields of a GPC or GRC learner after its run: the number
    of OGD steps, of those the projection onto the ball scaled, the step
    size of the last one, the sum of the squared gradient norms and the
    largest gradient norm (the last two None if no step was taken)."""
    ogd = learner.ogd
    return {
        "ogd_steps": ogd.t,
        "ogd_projected_steps": learner.projected_steps,
        "ogd_last_step_size": ogd.step_size(ogd.t) if ogd.t else None,
        "ogd_grad_norm_sq_sum": float(ogd.grad_norm_sq_sum) if ogd.t else None,
        "ogd_grad_norm_max": float(learner.grad_norm_max) if ogd.t else None,
    }


def run_experiment(config: ScenarioConfig) -> RegretReport:
    """Simulate the configured controller, fit the comparator offline on the
    recorded perturbations, and (optionally) write CSV/JSON artifacts.

    The comparator defaults to the best fixed disturbance-response policy
    for observation-driven controllers and the best fixed disturbance-action
    policy otherwise.
    """
    start_time = time.perf_counter()
    system, cost, T = config.system, config.cost, config.horizon

    w_record = generate_perturbations(
        config.perturbation, T, system.d_x, config.seed, config.noise_embedding
    )
    callback, label, K_learner, learner = _build_controller(config)

    comp_spec = dict(config.comparator)
    comp_kind = comp_spec.pop("kind", None)
    if comp_kind is None:
        comp_kind = "best-drc" if label == "grc" else "best-dac"
    if comp_kind not in _COMPARATOR_OPTIONS:
        raise ConfigurationError(
            f"unknown comparator kind {comp_kind!r}; expected best-dac, best-drc, "
            "best-linear, zero, or none"
        )
    comp_h = int(comp_spec.pop("h", config.controller.get("h", DEFAULT_H)))
    _check_options(comp_spec, _COMPARATOR_OPTIONS[comp_kind], comp_kind)
    if config.cost_on == "observation" and comp_kind in ("best-dac", "best-linear"):
        policy = "action" if comp_kind == "best-dac" else "linear"
        raise ConfigurationError(f"the {policy}-policy comparator needs a state cost; use best-drc")

    # A cost on observations is recomputed from the trajectory afterwards.
    silent = CallableCost(fn=lambda x, u: 0.0, gx=None, gu=None)
    sim_cost = silent if config.cost_on == "observation" else cost
    trajectory = simulate(
        system,
        callback,
        PerturbationSource.recorded(w_record),
        sim_cost,
        T,
        seed=component_seed(config.seed, "simulate"),
        x0=config.x0,
    )
    if config.cost_on == "observation":
        costs = cost.values(trajectory.observations, trajectory.controls)
    else:
        costs = trajectory.costs

    if comp_kind == "best-dac":
        K_spec = comp_spec.pop("K", None)
        from_learner = K_spec is None and K_learner is not None
        K_comp = K_learner if from_learner else _resolve_gain(K_spec, config)
        _, comparator_costs = best_dac_in_hindsight(
            system, cost, K_comp, w_record, comp_h, config.x0, **comp_spec
        )
    elif comp_kind == "best-drc":
        _, comparator_costs = best_drc_in_hindsight(
            system, cost, w_record, comp_h, config.x0, **comp_spec
        )
    elif comp_kind == "best-linear":
        _, comparator_costs = best_linear_in_hindsight(
            system, cost, w_record, config.x0, seed=config.seed, **comp_spec
        )
    elif comp_kind == "zero":
        zero = np.zeros((system.d_u, system.d_x))
        with np.errstate(over="ignore", invalid="ignore"):
            z, u = _closed_loop(system, zero, w_record, config.x0, config.cost_on == "observation")
        comparator_costs = _played_costs(cost, z, u, "the comparator rollout's cost")
    else:  # "none"
        comparator_costs = np.zeros(T)

    extras = None if learner is None else _learner_diagnostics(learner)
    report = _regret_report(label, comp_kind, costs, comparator_costs, trajectory.states,
                            config.seed, start_time, extras)
    if config.out_dir:
        _write_report(report, config.out_dir)
    return report


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

#: Keys each config-file section accepts; None marks a spec checked against
#: its kind (the perturbation's here, the others' by the experiment driver).
_SECTION_KEYS = {
    "system": {"preset", "a", "b", "c"},
    "cost": {"kind", "q", "r", "target"},
    "run": {"horizon", "seed", "out"},
    "perturbation": None,
    "controller": None,
    "comparator": None,
}

_PERTURBATION_KEYS = {
    "zero": (),
    "iid-gaussian": ("sigma", "clip"),
    "iid-uniform-ball": (),
    "sinusoidal": ("amplitude", "omega", "clip"),
    "constant": ("vector", "clip"),
    "recorded": ("sequence", "clip"),
}


def _parse_number(key: str, value: object, kind: type) -> object:
    """``kind(value)``, or a configuration error naming the key."""
    try:
        return kind(value)
    except ValueError:
        raise ConfigurationError(f"{key} = {value!r} is not a valid {kind.__name__}") from None


def _parse_perturbation(section: dict, base_dir: str) -> PerturbationSource:
    kind = section.get("kind", "zero")
    if kind not in _PERTURBATION_KEYS:
        raise ConfigurationError(
            f"unknown perturbation kind {kind!r}; expected one of "
            f"{sorted(_PERTURBATION_KEYS)}"
        )
    _check_options(section, {"kind", *_PERTURBATION_KEYS[kind]}, f"{kind} perturbation")
    clip = section.get("clip", "false").lower() in ("1", "true", "yes")
    if kind == "zero":
        return PerturbationSource.zero()
    if kind == "iid-gaussian":
        return PerturbationSource.gaussian(
            sigma=_parse_number("sigma", section.get("sigma", 1.0), float), clip_to_unit_ball=clip
        )
    if kind == "iid-uniform-ball":
        return PerturbationSource.uniform_ball()
    if kind == "sinusoidal":
        return PerturbationSource.sinusoidal(
            amplitude=_parse_number("amplitude", section.get("amplitude", 1.0), float),
            omega=_parse_number("omega", section.get("omega", 1.0), float),
            clip_to_unit_ball=clip,
        )
    key = "vector" if kind == "constant" else "sequence"
    if key not in section:
        raise ConfigurationError(f"[perturbation] kind = {kind} needs the matrix file key {key!r}")
    data = load_matrix(os.path.join(base_dir, section[key]))
    if kind == "constant":
        return PerturbationSource.constant(data.ravel(), clip_to_unit_ball=clip)
    return PerturbationSource.recorded(data, clip_to_unit_ball=clip)


def load_config(path: str, overrides: Optional[dict] = None) -> ScenarioConfig:
    """Parse a scenario config file.

    The format is flat ``key = value`` text under ``[section]`` headers:
    ``[system]`` (a ``preset`` name, or ``A``/``B``/``C`` matrix file
    references), ``[perturbation]`` (``kind`` and that kind's keys),
    ``[cost]`` (``kind``, ``Q``/``R``/``target`` matrix files),
    ``[controller]`` (``kind`` and the options that kind accepts),
    ``[comparator]`` (``kind``, ``h``, ``K``, ``max_iter``, ``tol``), and
    ``[run]`` (``horizon``, ``seed``, ``out``).  An unknown
    section or key is a configuration error, and so is best-linear's
    ``starts``, which only the Python API can give.  For every comparator kind,
    best-linear included, ``max_iter`` bounds the Newton passes (per start)
    and ``tol`` is the Newton decrement, relative to 1 + |J|, that ends
    them.  Matrix paths are relative to the config file.  ``overrides`` may
    replace ``horizon``, ``seed``, and ``out``.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigurationError(f"cannot read config file {path!r}")
    base_dir = os.path.dirname(os.path.abspath(path))
    overrides = overrides or {}

    def matrix(section: dict, key: str, default: Optional[np.ndarray] = None):
        """The matrix in the file ``section[key]`` names, else ``default``."""
        return load_matrix(os.path.join(base_dir, section[key])) if key in section else default

    sections = {name: dict(parser[name]) for name in parser.sections()}
    _check_options(sections, set(_SECTION_KEYS), "config file")
    for name, keys in _SECTION_KEYS.items():
        if keys is not None:
            _check_options(sections.get(name, {}), keys, f"[{name}]")
    system_sec = sections.get("system", {})
    run_sec = sections.get("run", {})

    preset_name = system_sec.get("preset")
    if preset_name:
        blueprint = _preset(preset_name)
    else:
        if "a" not in system_sec or "b" not in system_sec:
            raise ConfigurationError(
                "[system] needs either a preset name or A and B matrix files"
            )
        A, B, C = (matrix(system_sec, key) for key in "abc")
        blueprint = ScenarioBlueprint(
            name=os.path.splitext(os.path.basename(path))[0],
            description="inline system",
            system=LinearSystem.time_invariant(A, B, C),
            cost=QuadraticCost(Q=np.eye(A.shape[0]), R=np.eye(B.shape[1])),
            perturbation=PerturbationSource.zero(),
        )

    cost = blueprint.cost
    cost_sec = sections.get("cost", {})
    if cost_sec:
        kind = cost_sec.get("kind", "quadratic")
        if kind != "quadratic":
            raise ConfigurationError(f"unknown cost kind {kind!r} in config")
        target = matrix(cost_sec, "target")
        cost = QuadraticCost(
            Q=matrix(cost_sec, "q", np.eye(blueprint.system.d_x)),
            R=matrix(cost_sec, "r", np.eye(blueprint.system.d_u)),
            target=None if target is None else target.ravel(),
        )

    perturbation = blueprint.perturbation
    if "perturbation" in sections:
        perturbation = _parse_perturbation(sections["perturbation"], base_dir)

    controller = dict(sections.get("controller", {"kind": "zero"}))
    comparator = dict(sections.get("comparator", {}))
    if "starts" in comparator:
        raise ConfigurationError(
            "[comparator] starts cannot be set in a config file, which has no syntax for "
            "gains; give best-linear start gains through the Python API (the comparator "
            "spec's 'starts' list)"
        )
    # configparser lowercases keys and returns strings.
    for spec, numbers in (
        (controller, {"h": int, "radius": float, "step_size": float}),
        (comparator, {"h": int, "max_iter": int, "tol": float}),
    ):
        for key, kind in numbers.items():
            if key in spec:
                spec[key] = _parse_number(key, spec[key], kind)
        # A gain is a preset name or a matrix file.
        if "k" in spec:
            spec["K"] = spec["k"] if spec["k"] in ("lqr", "zero") else matrix(spec, "k")
            del spec["k"]

    horizon = _parse_number("horizon", overrides.get("horizon", run_sec.get("horizon", 100)), int)
    seed = _parse_number("seed", overrides.get("seed", run_sec.get("seed", 0)), int)
    out_dir = overrides.get("out", run_sec.get("out"))
    if out_dir is not None:
        out_dir = str(out_dir)
        if not os.path.isabs(out_dir):
            out_dir = os.path.join(base_dir, out_dir)

    return _config_from_blueprint(replace(blueprint, cost=cost, perturbation=perturbation),
                                  controller=controller, horizon=horizon, seed=seed,
                                  comparator=comparator, out_dir=out_dir)
