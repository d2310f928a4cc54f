"""Experiment orchestration: scenario presets, hindsight comparators, regret
reports, and reproducible CSV/JSON artifacts.

A scenario bundles a system, a cost, a perturbation source, and a
controller choice.  :func:`run_experiment` simulates the controller, fits
the configured comparator policy offline on the recorded perturbations,
and emits a per-step CSV plus a flat JSON summary, both byte-reproducible
under the scenario seed (wall-clock aside).

Comparators optimize the exact counterfactual cost of a fixed policy on
the recorded perturbation sequence.  For disturbance-action and
disturbance-response policies the counterfactual trajectory is affine in
the policy parameters, so the objective is convex whenever the cost is.
One streamed Newton engine minimizes it for every cost: each forward pass
carries the trajectory's sensitivity to the parameters and returns the
objective with its gradient and Hessian.  A quadratic cost is minimized
exactly by one pass and one least-squares solve; other convex costs take
damped Newton steps until the Newton decrement is negligible.  The best
fixed linear gain is a non-convex objective and is handled by multi-start
local descent, documented as a heuristic.
"""

from __future__ import annotations

import configparser
import os
import time
import warnings
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .lds_core import (
    CallableCost,
    LinearSystem,
    PerturbationSource,
    QuadraticCost,
    linearize,
    simulate,
    spectral_radius,
)
from .online_control import GPCController, GRCController, gpc_runner, grc_runner
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

#: Comparator budget for non-quadratic costs: forward passes of the damped
#: Newton engine, and the Newton decrement, relative to 1 + |J|, that ends it.
COMPARATOR_MAX_ITER = 50
COMPARATOR_TOL = 1e-10
#: Relative step of the gradient differences that give the stage Hessian of
#: a non-quadratic cost.
_HESSIAN_STEP = 1e-4
#: Bytes one per-chunk buffer of the comparator passes, rollouts and natural
#: observations may hold; the chunk length follows from it.
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
    rng = np.random.default_rng(component_seed(seed, "perturbation"))
    d_raw = d_x if embedding is None else embedding.shape[1]
    w = np.array([source.sample(t, d_raw, rng) for t in range(int(T))])
    if w.size == 0:
        w = w.reshape(0, d_raw)
    if embedding is not None:
        if embedding.shape[0] != d_x:
            raise ConfigurationError(
                f"noise embedding has {embedding.shape[0]} rows, state dimension is {d_x}"
            )
        w = w @ embedding.T
    return w


# ---------------------------------------------------------------------------
# Counterfactual policy passes
# ---------------------------------------------------------------------------


def _coerce_K(K: object, d_u: int, d_x: int) -> np.ndarray:
    K = np.asarray(K, dtype=float)
    if K.shape != (d_u, d_x):
        raise ConfigurationError(f"gain must be ({d_u}, {d_x}), got {K.shape}")
    return K


def _check_record(w_record: object) -> np.ndarray:
    w_record = np.asarray(w_record, dtype=float)
    if w_record.ndim != 2 or w_record.shape[0] == 0:
        raise ConfigurationError("w_record must be a nonempty (T, d_x) array")
    return w_record


class _PolicyClass(NamedTuple):
    """Fixed policies ``u_t = K x_t + sum_{i<depth} M_i s_{t-lag-i}`` on a
    recorded run, charged on ``z_t = C_t x_t`` when ``observe``, else on
    ``z_t = x_t``.  DAC: signal w, lag 1; DRC: signal ynat, lag 0, K = 0."""

    system: LinearSystem
    K: np.ndarray
    w_record: np.ndarray
    signals: np.ndarray
    depth: int
    lag: int
    x0: Optional[np.ndarray]
    observe: bool


def _chunks(system: LinearSystem, T: int, width: int) -> Iterator[tuple]:
    """The run in chunks of steps, as ``(start, A, B, C)`` stacks of the
    chunk's matrices (``C_t = None`` stacked as the identity).  Each step's
    ``system.matrices(t)`` is copied into the stacks as soon as it is
    fetched, since a provider may overwrite the buffers it hands out.  A
    chunk keeps every buffer within ``_CHUNK_BYTES`` when one step of the
    widest takes ``width`` floats."""
    d_x, d_u, d_y = system.d_x, system.d_u, system.d_y
    n = max(1, min(T, _CHUNK_BYTES // (8 * max(width, d_x * max(d_x, d_u, d_y)))))
    A, B, C = np.empty((n, d_x, d_x)), np.empty((n, d_x, d_u)), np.empty((n, d_y, d_x))
    identity = np.eye(d_y, d_x)
    for start in range(0, T, n):
        stop = min(start + n, T)
        for k in range(stop - start):
            A[k], B[k], C_t = system.matrices(start + k)
            C[k] = identity if C_t is None else C_t
        yield start, A[: stop - start], B[: stop - start], C[: stop - start]


def _affine_recursion(F: np.ndarray, E: np.ndarray, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """States of ``x_{t+1} = F_t x_t + E_t r_t`` over a chunk, from the
    vector or matrix state ``x`` entering it (row 0) to the one leaving it
    (last row), with the inputs ``r_t`` known in advance.  The one
    sequential loop of the comparator passes, rollouts and natural
    observations: a step is one product ``[F_t | E_t] [x_t; r_t]`` written
    in place, with the inputs stacked under the state."""
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


def _natural_observations(
    system: LinearSystem, w_record: np.ndarray, x0: Optional[np.ndarray]
) -> np.ndarray:
    """Observations ``ynat_t = C_t x_t`` of the zero-control rollout: the
    signal that disturbance-response policies act on."""
    T = w_record.shape[0]
    ynat = np.empty((T, system.d_y))
    x = np.zeros(system.d_x) if x0 is None else np.asarray(x0, dtype=float)
    for start, A, _, C in _chunks(system, T, system.d_x + 1):
        n = A.shape[0]
        X = _affine_recursion(A, w_record[start : start + n, :, None], x, np.ones((n, 1)))
        ynat[start : start + n] = np.matmul(C, X[:-1, :, None])[..., 0]
        x = X[-1]
    return ynat


def _stage_terms(
    cost: object, z: np.ndarray, u: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, half gradient and half Hessian of a stage cost at ``(z, u)``.

    The Hessian comes from forward differences of the gradient in the
    (d_z + d_u) coordinates, symmetrized; the differences are exact up to
    rounding when the cost is quadratic in ``(z, u)``.
    """
    d_z = z.shape[0]

    def half_grad(v: np.ndarray) -> np.ndarray:
        z, u = v[:d_z], v[d_z:]
        return 0.5 * np.concatenate((cost.grad_x(z, u), cost.grad_u(z, u)))

    v = np.concatenate((z, u))
    g = half_grad(v)
    H = np.empty((v.size, v.size))
    for j in range(v.size):
        probe = v.copy()
        probe[j] += _HESSIAN_STEP * (1.0 + abs(v[j]))
        H[:, j] = (half_grad(probe) - g) / (probe[j] - v[j])
    return cost.value(z, u), g, 0.5 * (H + H.T)


def _policy_pass(
    policies: _PolicyClass, cost: object, m: Optional[np.ndarray], label: str
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """One forward pass at the flat blocks ``m`` (``None`` for zero), whose
    control sum is ``S_t m = sum_{i<depth} M_i s_{t-lag-i}``.

    The state is affine in ``m``, ``x_t(m) = x_t(0) + Phi_t m``:
    :func:`_affine_recursion` steps ``[Phi_t | x_t(0)]`` with ``F_t = A_t +
    B_t K`` and the input ``[B_t S_t | w_t]``, and all other work is done
    per chunk of steps, so memory is bounded by one chunk.  Returns ``J(m)``,
    half its gradient ``g = sum_t L_t' grad c_t / 2``, half its Hessian ``H
    = sum_t L_t' hess c_t L_t / 2`` (``L_t = d (z_t, u_t) / d m``) and the
    minimum-norm least-squares Newton step of ``H dm = -g`` (``H`` may be
    singular: a cost blind to some input, or no excitation).  A
    :class:`QuadraticCost` is ``r' W r``, ``r = (z_t, u_t) - (target, 0)``,
    ``W = blockdiag(Q, R)``: one product per chunk adds to ``H``, ``g`` and
    ``J``.  Other costs get stage Hessians from :func:`_stage_terms`.
    """
    system, K, w_record, signals, depth, lag, x0, observe = policies
    T, d_s = signals.shape
    d_x, d_u = system.d_x, system.d_u
    d_z = system.d_y if observe else d_x
    d_v, p = d_z + d_u, depth * d_u * d_s
    quadratic = isinstance(cost, QuadraticCost)
    if quadratic:
        W = np.block([[cost.Q, np.zeros((d_z, d_u))], [np.zeros((d_u, d_z)), cost.R]])
        offset = np.zeros(d_v)
        offset[:d_z] = 0.0 if cost.target is None else cost.target
    windows = _signal_windows(signals, depth, lag)
    x = np.zeros((d_x, p + 1))  # [Phi_t | x_t(0)]
    x[:, p] = 0.0 if x0 is None else x0
    gram, g, c = np.zeros((p + 1, p + 1)), np.zeros(p), 0.0
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
            if quadratic:
                Y[..., p] -= offset
                HY = np.matmul(W, Y)
            else:
                half_grads, H = np.empty((n, d_v)), np.empty((n, d_v, d_v))
                for k, v in enumerate(Y[..., p]):
                    value, half_grads[k], H[k] = _stage_terms(cost, v[:d_z], v[d_z:])
                    c += value
                g += half_grads.ravel() @ Y[..., :p].reshape(n * d_v, p)
                HY = np.matmul(H, Y)
            gram += Y.reshape(n * d_v, p + 1).T @ HY.reshape(n * d_v, p + 1)

    G = gram[:p, :p]
    if quadratic:
        g, c = gram[:p, p], float(gram[p, p])
    if not (np.isfinite(c) and np.isfinite(g).all() and np.isfinite(G).all()):
        raise EvaluationError(f"{label} objective became non-finite")
    step, *_ = np.linalg.lstsq(G, -g, rcond=None)
    return c, g, G, step


def _best_policy(
    policies: _PolicyClass, cost: object, max_iter: int, tol: float, label: str
) -> tuple[np.ndarray, float]:
    """Minimize the counterfactual total cost over the policy blocks by
    Newton's method from ``m = 0``, one :func:`_policy_pass` per point.

    For a :class:`QuadraticCost` the objective is exactly ``J(m) = J(0) + 2
    g.m + m.H.m``, so one pass and its Newton step give the minimizer and
    its value.  Other costs take Armijo-damped steps, one pass per trial
    point, until the Newton decrement ``-g.dm`` (the decrease the local
    quadratic model predicts) is at most ``tol * (1 + |J|)``; after
    ``max_iter`` passes a warning reports the decrement.  Returns the best
    point seen and its value.
    """
    shape = (policies.depth, policies.system.d_u, policies.signals.shape[1])
    value, g, H, step = _policy_pass(policies, cost, None, label)
    if isinstance(cost, QuadraticCost):
        return step.reshape(shape), value + float(step @ (2.0 * g + H @ step))

    m = np.zeros(step.size)
    best_m, best_value = m, value
    passes, scale = 1, 1.0
    while True:
        decrement = -float(g @ step)
        if decrement <= tol * (1.0 + abs(value)):
            break
        if passes >= max_iter:
            warnings.warn(
                f"{label} stopped after {passes} Newton passes at decrement "
                f"{decrement:.3e} > {tol:g} * (1 + |J|); returning the best point",
                stacklevel=3,
            )
            break
        trial = m + scale * step
        trial_value, trial_g, _, trial_step = _policy_pass(policies, cost, trial, label)
        passes += 1
        if trial_value < best_value:
            best_m, best_value = trial, trial_value
        if trial_value <= value - 1e-4 * scale * decrement:
            m, value, g, step, scale = trial, trial_value, trial_g, trial_step, 1.0
        else:
            scale *= 0.5
    return best_m.reshape(shape), best_value


def _policy_rollout_costs(policies: _PolicyClass, cost: object, Ms: np.ndarray) -> np.ndarray:
    """Per-step costs of the policy with blocks ``Ms``: a plain closed-loop
    simulation, not the sensitivity recursion of :func:`_policy_pass`, so it
    can check the comparators.  One einsum over the signal windows gives
    every control sum ``v_t``; :func:`_affine_recursion` then steps ``x_{t+1}
    = (A_t + B_t K) x_t + [B_t | w_t] [v_t; 1]``, and other buffers are
    bounded by one chunk."""
    system, K, w_record, signals, _, lag, x0, observe = policies
    T = w_record.shape[0]
    v = np.einsum("iab,tib->ta", Ms, _signal_windows(signals, Ms.shape[0], lag))
    x = np.zeros(system.d_x) if x0 is None else np.asarray(x0, dtype=float)
    out = np.empty(T)
    for start, A, B, C in _chunks(system, T, system.d_x + system.d_u + 1):
        stop = start + A.shape[0]
        E = np.concatenate((B, w_record[start:stop, :, None]), axis=2)
        r = np.concatenate((v[start:stop], np.ones((stop - start, 1))), axis=1)
        X = _affine_recursion(A + np.matmul(B, K), E, x, r)
        x, states = X[-1], X[:-1]
        u = states @ K.T + v[start:stop]
        z = np.matmul(C, states[..., None])[..., 0] if observe else states
        if isinstance(cost, QuadraticCost):
            dz = z if cost.target is None else z - cost.target
            out[start:stop] = ((dz @ cost.Q) * dz).sum(axis=1) + ((u @ cost.R) * u).sum(axis=1)
        else:
            out[start:stop] = [cost.value(z_t, u_t) for z_t, u_t in zip(z, u)]
    return out


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
) -> tuple[np.ndarray, float]:
    """Best fixed disturbance-action policy on a recorded run.

    Minimizes the exact counterfactual total cost of ``u_t = K x_t +
    sum_i M_i w_{t-i}`` over the action blocks; the objective is convex
    because the trajectory is affine in ``M``.  One streamed Newton engine
    serves every cost: a :class:`QuadraticCost` is minimized exactly by a
    single forward pass and one least-squares solve; any other convex cost
    by damped Newton steps from ``M = 0``, at most ``max_iter`` forward
    passes, stopping once the Newton decrement is at most ``tol * (1 +
    |J|)``.  A pass works through the run in chunks of steps, so its memory
    is bounded by one chunk, not by T.  Returns ``(Ms, total_cost)`` with
    ``Ms`` of shape (h, d_u, d_x).
    """
    w_record = _check_record(w_record)
    K = _coerce_K(K, system.d_u, system.d_x)
    policies = _PolicyClass(system, K, w_record, w_record, int(h), 1, x0, False)
    return _best_policy(policies, cost, max_iter, tol, "action-policy comparator")


def best_drc_in_hindsight(
    system: LinearSystem,
    cost: object,
    w_record: object,
    h: int,
    x0: Optional[object] = None,
    max_iter: int = COMPARATOR_MAX_ITER,
    tol: float = COMPARATOR_TOL,
) -> tuple[np.ndarray, float]:
    """Best fixed disturbance-response policy on a recorded run.

    Minimizes the counterfactual total cost of ``u_t = sum_{i=0..h} M_i
    ynat_{t-i}`` where ``ynat`` is the zero-control observation sequence;
    the cost consumes (observation, control) pairs.  The same streamed
    Newton engine as :func:`best_dac_in_hindsight` minimizes it: exactly in
    one pass for a :class:`QuadraticCost`, otherwise by damped Newton steps
    bounded by ``max_iter`` passes and the relative decrement ``tol``, with
    memory bounded by one chunk of steps.  Returns ``(Ms, total_cost)`` with
    ``Ms`` of shape (h+1, d_u, d_y).
    """
    w_record = _check_record(w_record)
    with np.errstate(over="ignore", invalid="ignore"):
        ynat = _natural_observations(system, w_record, x0)
    K = np.zeros((system.d_u, system.d_x))
    policies = _PolicyClass(system, K, w_record, ynat, int(h) + 1, 0, x0, True)
    return _best_policy(policies, cost, max_iter, tol, "response-policy comparator")


def _linear_objective(
    system: LinearSystem,
    cost: object,
    w_record: np.ndarray,
    x0: Optional[np.ndarray],
) -> tuple[
    Callable[[np.ndarray], tuple[float, np.ndarray]], Callable[[np.ndarray], float]
]:
    """Total rollout cost of ``u_t = K x_t`` with its adjoint gradient.

    Returns ``(value_and_grad, value_only)``; diverging rollouts evaluate
    to infinity instead of raising.
    """
    T = w_record.shape[0]
    # Copies: a provider may overwrite the buffers it hands out.
    mats = [(A.copy(), B.copy()) for A, B, _ in map(system.matrices, range(T))]

    def value_only(K: np.ndarray) -> float:
        x = np.zeros(system.d_x) if x0 is None else np.asarray(x0, dtype=float)
        value = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(T):
                u = K @ x
                value += cost.value(x, u)
                if not np.isfinite(value):
                    return np.inf
                A_t, B_t = mats[t]
                x = A_t @ x + B_t @ u + w_record[t]
        return value

    def J_and_grad(K: np.ndarray) -> tuple[float, np.ndarray]:
        xs = np.zeros((T, system.d_x))
        us = np.zeros((T, system.d_u))
        x = np.zeros(system.d_x) if x0 is None else np.asarray(x0, dtype=float)
        value = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(T):
                u = K @ x
                xs[t], us[t] = x, u
                value += cost.value(x, u)
                A_t, B_t = mats[t]
                x = A_t @ x + B_t @ u + w_record[t]
            if not np.isfinite(value):
                return np.inf, np.full_like(K, np.nan)
            lam = np.zeros(system.d_x)
            grad = np.zeros_like(K)
            for t in range(T - 1, -1, -1):
                A_t, B_t = mats[t]
                gu = cost.grad_u(xs[t], us[t]) + B_t.T @ lam
                grad += np.outer(gu, xs[t])
                lam = cost.grad_x(xs[t], us[t]) + K.T @ gu + A_t.T @ lam
        return value, grad

    return J_and_grad, value_only


def _local_descent(
    J_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    value_only: Callable[[np.ndarray], float],
    m0: np.ndarray,
    max_iter: int,
    tol: float,
) -> tuple[np.ndarray, float]:
    """Gradient descent with Armijo backtracking (for non-convex objectives
    where a fixed schedule stalls).  Returns the best point seen."""
    m = m0.astype(float).copy()
    value, grad = J_and_grad(m)
    if not np.isfinite(value):
        return m, np.inf
    step = 1.0
    for _ in range(max_iter):
        gnorm2 = float(np.sum(grad * grad))
        if np.sqrt(gnorm2) <= tol:
            break
        while step > 1e-18:
            candidate = m - step * grad
            cand_value = value_only(candidate)
            if np.isfinite(cand_value) and cand_value <= value - 1e-4 * step * gnorm2:
                m = candidate
                value, grad = J_and_grad(m)
                step *= 1.3
                break
            step *= 0.5
        else:
            break
    return m, value


def best_linear_in_hindsight(
    system: LinearSystem,
    cost: object,
    w_record: object,
    x0: Optional[object] = None,
    starts: Optional[Sequence[object]] = None,
    max_iter: int = 300,
    tol: float = 1e-8,
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """Best fixed linear gain on a recorded run (multi-start local search).

    The objective is not convex in the gain for general costs, so this is
    a heuristic: descent runs from the infinite-horizon quadratic gain
    (when solvable), from zero, and from two perturbed copies, and the
    best local result wins.
    """
    w_record = _check_record(w_record)
    objective, value_only = _linear_objective(system, cost, w_record, x0)

    if starts is None:
        rng = np.random.default_rng(component_seed(seed, "linear-starts"))
        starts = [np.zeros((system.d_u, system.d_x))]
        anchor = None
        if isinstance(cost, QuadraticCost):
            A0, B0, _ = system.matrices(0)
            try:
                anchor = dare_solve(A0, B0, cost.Q, cost.R).K
            except (ConfigurationError, EvaluationError):
                anchor = None
        if anchor is not None:
            starts.insert(0, anchor)
        base = starts[0]
        bump = 0.1 * rng.standard_normal(base.shape)
        starts.extend([base + bump, base - bump])

    best_K, best_value = None, np.inf
    for start in starts:
        K0 = _coerce_K(start, system.d_u, system.d_x)
        K_hat, value = _local_descent(objective, value_only, K0, max_iter, tol)
        if value < best_value:
            best_K, best_value = K_hat, value
    if best_K is None:
        raise EvaluationError("every local search start diverged")
    return best_K, best_value


def dac_rollout_costs(
    system: LinearSystem,
    cost: object,
    K: object,
    Ms: object,
    w_record: object,
    x0: Optional[object] = None,
    cost_on: str = "state",
) -> np.ndarray:
    """Exact per-step counterfactual costs of a fixed action policy."""
    w_record, Ms = np.asarray(w_record, dtype=float), np.asarray(Ms, dtype=float)
    K = _coerce_K(K, system.d_u, system.d_x)
    policies = _PolicyClass(system, K, w_record, w_record, len(Ms), 1, x0, cost_on == "observation")
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
    w_record, Ms = np.asarray(w_record, dtype=float), np.asarray(Ms, dtype=float)
    ynat = _natural_observations(system, w_record, x0)
    K = np.zeros((system.d_u, system.d_x))
    policies = _PolicyClass(system, K, w_record, ynat, len(Ms), 0, x0, True)
    return _policy_rollout_costs(policies, cost, Ms)


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
    """Per-step account of a learner run against an offline comparator."""

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
    cum = report.cum_cost
    cum_comp = report.cum_comparator_cost
    avg = report.avg_regret
    rows = [
        (t + 1, float(report.costs[t]), float(cum[t]), float(cum_comp[t]),
         float(avg[t]), float(report.state_norms[t]))
        for t in range(report.horizon)
    ]
    write_csv(path, CSV_COLUMNS, rows)


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
        if self.horizon < 1:
            raise ConfigurationError("horizon must be at least 1")
        if not (0 <= int(self.seed) < 2**64):
            raise ConfigurationError("seed must fit in 64 bits")
        if self.cost_on not in ("state", "observation"):
            raise ConfigurationError("cost_on must be 'state' or 'observation'")
        if self.x0 is not None:
            self.x0 = np.asarray(self.x0, dtype=float)
            if self.x0.shape != (self.system.d_x,):
                raise ConfigurationError(
                    f"x0 has shape {self.x0.shape}, state dimension is {self.system.d_x}"
                )


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
    presets = scenario_presets()
    if preset not in presets:
        raise ConfigurationError(
            f"unknown preset {preset!r}; available: {sorted(presets)}"
        )
    bp = presets[preset]
    return ScenarioConfig(
        name=bp.name,
        system=bp.system,
        cost=bp.cost,
        perturbation=bp.perturbation if perturbation is None else perturbation,
        controller=dict(controller),
        horizon=int(horizon),
        seed=int(seed),
        x0=None if bp.x0 is None else bp.x0.copy(),
        noise_embedding=bp.noise_embedding,
        cost_on=bp.cost_on,
        comparator=dict(comparator or {}),
        out_dir=out_dir,
    )


def _default_gain(config: ScenarioConfig) -> np.ndarray:
    """Stabilizing gain for learners: the infinite-horizon quadratic gain
    when solvable, otherwise zero (valid for stable systems)."""
    A0, B0, _ = config.system.matrices(0)
    if isinstance(config.cost, QuadraticCost):
        try:
            return dare_solve(A0, B0, config.cost.Q, config.cost.R).K
        except (ConfigurationError, EvaluationError):
            pass
    if spectral_radius(A0) < 1.0 + 1e-12:
        return np.zeros((config.system.d_u, config.system.d_x))
    raise ConfigurationError(
        "no stabilizing gain available: the quadratic gain is unsolvable and "
        "the system is unstable; pass controller K explicitly"
    )


def _resolve_gain(spec_K: object, config: ScenarioConfig) -> np.ndarray:
    if spec_K is None or spec_K == "lqr":
        return _default_gain(config)
    if isinstance(spec_K, str) and spec_K == "zero":
        return np.zeros((config.system.d_u, config.system.d_x))
    return _coerce_K(spec_K, config.system.d_u, config.system.d_x)


def _build_controller(
    config: ScenarioConfig,
) -> tuple[Callable[[int, np.ndarray, np.ndarray], np.ndarray], str, Optional[np.ndarray]]:
    """Translate a controller spec dict into a simulate() callback.

    Returns ``(callback, label, stabilizing_gain_or_None)``.
    """
    spec = dict(config.controller)
    kind = spec.pop("kind", None)
    system, cost = config.system, config.cost
    if kind == "zero":
        return (lambda t, x, y: np.zeros(system.d_u)), "zero", None
    if kind in ("linear", "lqr"):
        K = _resolve_gain(spec.pop("K", None if kind == "lqr" else None), config)
        return (lambda t, x, y: K @ x), kind, K
    if kind in ("gpc", "grc"):
        K = _resolve_gain(spec.pop("K", None), config) if kind == "gpc" else None
        options = dict(
            h=int(spec.pop("h", 5)),
            radius=float(spec.pop("radius", 10.0)),
            step_size=(lambda v: None if v is None else float(v))(spec.pop("step_size", None)),
            schedule=str(spec.pop("schedule", "sqrt")),
            horizon=config.horizon,
            H_trunc=(lambda v: None if v is None else int(v))(spec.pop("H_trunc", None)),
        )
        if spec:
            raise ConfigurationError(f"unknown {kind} options: {sorted(spec)}")
        if kind == "gpc":
            controller = GPCController(d_x=system.d_x, d_u=system.d_u, K=K, **options)
            return gpc_runner(controller, system, cost), "gpc", K
        controller = GRCController(d_x=system.d_x, d_u=system.d_u, d_y=system.d_y, **options)
        return grc_runner(controller, system, cost), "grc", None
    raise ConfigurationError(
        f"unknown controller kind {kind!r}; expected zero, linear, lqr, gpc, or grc"
    )


#: Options each comparator kind accepts besides ``kind`` and ``h``.
_COMPARATOR_OPTIONS = {
    "best-dac": {"K", "max_iter", "tol"},
    "best-drc": {"max_iter", "tol"},
    "best-linear": {"starts", "max_iter", "tol"},
    "zero": set(),
    "none": set(),
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
    callback, label, K_learner = _build_controller(config)

    comp_spec = dict(config.comparator)
    comp_kind = comp_spec.pop("kind", None)
    if comp_kind is None:
        comp_kind = "best-drc" if label == "grc" else "best-dac"
    if comp_kind not in _COMPARATOR_OPTIONS:
        raise ConfigurationError(
            f"unknown comparator kind {comp_kind!r}; expected best-dac, best-drc, "
            "best-linear, zero, or none"
        )
    comp_h = int(comp_spec.pop("h", config.controller.get("h", 5)))
    unknown = sorted(set(comp_spec) - _COMPARATOR_OPTIONS[comp_kind])
    if unknown:
        raise ConfigurationError(f"unknown {comp_kind} options: {unknown}")

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
        costs = np.array(
            [
                cost.value(trajectory.observations[t], trajectory.controls[t])
                for t in range(T)
            ]
        )
    else:
        costs = trajectory.costs

    if comp_kind == "best-dac":
        if config.cost_on == "observation":
            raise ConfigurationError(
                "the action-policy comparator needs a state cost; use best-drc"
            )
        K_comp = comp_spec.pop("K", None)
        K_comp = K_learner if K_comp is None else _resolve_gain(K_comp, config)
        if K_comp is None:
            K_comp = _default_gain(config)
        Ms, _ = best_dac_in_hindsight(
            system, cost, K_comp, w_record, comp_h, config.x0, **comp_spec
        )
        comparator_costs = dac_rollout_costs(
            system, cost, K_comp, Ms, w_record, config.x0
        )
    elif comp_kind == "best-drc":
        Ms, _ = best_drc_in_hindsight(
            system, cost, w_record, comp_h, config.x0, **comp_spec
        )
        comparator_costs = drc_rollout_costs(system, cost, Ms, w_record, config.x0)
    elif comp_kind == "best-linear":
        K_star, _ = best_linear_in_hindsight(
            system, cost, w_record, config.x0, seed=config.seed, **comp_spec
        )
        comparator_costs = linear_rollout_costs(system, cost, K_star, w_record, config.x0)
    elif comp_kind == "zero":
        zero = np.zeros((system.d_u, system.d_x))
        comparator_costs = dac_rollout_costs(
            system, cost, zero, zero[None], w_record, config.x0, cost_on=config.cost_on
        )
    else:  # "none"
        comparator_costs = np.zeros(T)

    report = RegretReport(
        controller=label,
        comparator=comp_kind,
        costs=costs,
        comparator_costs=comparator_costs,
        state_norms=np.linalg.norm(trajectory.states[:-1], axis=1),
        horizon=T,
        seed=config.seed,
        gamma=trajectory.gamma,
        wall_clock=time.perf_counter() - start_time,
    )
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        write_report_csv(report, os.path.join(config.out_dir, "report.csv"))
        write_json_summary(
            os.path.join(config.out_dir, "summary.json"), report_summary(report)
        )
    return report


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

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
    if kind == "constant":
        vec = load_matrix(os.path.join(base_dir, section["vector"])).ravel()
        return PerturbationSource.constant(vec, clip_to_unit_ball=clip)
    seq = load_matrix(os.path.join(base_dir, section["sequence"]))
    return PerturbationSource.recorded(seq, clip_to_unit_ball=clip)


def load_config(path: str, overrides: Optional[dict] = None) -> ScenarioConfig:
    """Parse a scenario config file.

    The format is flat ``key = value`` text under ``[section]`` headers:
    ``[system]`` (a ``preset`` name, or ``A``/``B``/``C`` matrix file
    references), ``[perturbation]``, ``[cost]`` (``Q``/``R`` matrix files),
    ``[controller]``, ``[comparator]`` (``kind``, ``h``, ``K``,
    ``max_iter``, ``tol``), and ``[run]`` (``horizon``, ``seed``, ``out``).
    Matrix paths are relative to the config file.  ``overrides`` may
    replace ``horizon``, ``seed``, and ``out``.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigurationError(f"cannot read config file {path!r}")
    base_dir = os.path.dirname(os.path.abspath(path))
    overrides = overrides or {}

    sections = {name: dict(parser[name]) for name in parser.sections()}
    system_sec = sections.get("system", {})
    run_sec = sections.get("run", {})

    preset_name = system_sec.get("preset")
    if preset_name:
        blueprint = scenario_presets().get(preset_name)
        if blueprint is None:
            raise ConfigurationError(f"unknown preset {preset_name!r}")
    else:
        if "a" not in system_sec or "b" not in system_sec:
            raise ConfigurationError(
                "[system] needs either a preset name or A and B matrix files"
            )
        A = load_matrix(os.path.join(base_dir, system_sec["a"]))
        B = load_matrix(os.path.join(base_dir, system_sec["b"]))
        C = (
            load_matrix(os.path.join(base_dir, system_sec["c"]))
            if "c" in system_sec
            else None
        )
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
        Q = (
            load_matrix(os.path.join(base_dir, cost_sec["q"]))
            if "q" in cost_sec
            else np.eye(blueprint.system.d_x)
        )
        R = (
            load_matrix(os.path.join(base_dir, cost_sec["r"]))
            if "r" in cost_sec
            else np.eye(blueprint.system.d_u)
        )
        target = (
            load_matrix(os.path.join(base_dir, cost_sec["target"])).ravel()
            if "target" in cost_sec
            else None
        )
        cost = QuadraticCost(Q=Q, R=R, target=target)

    perturbation = blueprint.perturbation
    if "perturbation" in sections:
        perturbation = _parse_perturbation(sections["perturbation"], base_dir)

    controller = dict(sections.get("controller", {"kind": "zero"}))
    comparator = dict(sections.get("comparator", {}))
    # configparser lowercases keys and returns strings.
    if "h_trunc" in controller:
        controller["H_trunc"] = controller.pop("h_trunc")
    for spec, numbers in (
        (controller, {"h": int, "H_trunc": int, "radius": float, "step_size": float}),
        (comparator, {"h": int, "max_iter": int, "tol": float}),
    ):
        for key, kind in numbers.items():
            if key in spec:
                spec[key] = _parse_number(key, spec[key], kind)
        # A gain is a preset name or a matrix file.
        if "k" in spec:
            value = spec.pop("k")
            spec["K"] = (
                value if value in ("lqr", "zero") else load_matrix(os.path.join(base_dir, value))
            )

    horizon = _parse_number("horizon", overrides.get("horizon", run_sec.get("horizon", 100)), int)
    seed = _parse_number("seed", overrides.get("seed", run_sec.get("seed", 0)), int)
    out_dir = overrides.get("out", run_sec.get("out"))
    if out_dir is not None:
        out_dir = str(out_dir)
        if not os.path.isabs(out_dir):
            out_dir = os.path.join(base_dir, out_dir)

    return ScenarioConfig(
        name=blueprint.name,
        system=blueprint.system,
        cost=cost,
        perturbation=perturbation,
        controller=controller,
        horizon=horizon,
        seed=seed,
        x0=None if blueprint.x0 is None else blueprint.x0.copy(),
        noise_embedding=blueprint.noise_embedding,
        cost_on=blueprint.cost_on,
        comparator=comparator,
        out_dir=out_dir,
    )
