"""Experiment orchestration: scenario presets, hindsight comparators, regret
reports, and reproducible CSV/JSON artifacts.

A scenario bundles a system, a cost, a perturbation source, and a
controller choice.  :func:`run_experiment` simulates the controller, fits
the configured comparator policy offline on the recorded perturbations,
and emits a per-step CSV plus a flat JSON summary, both byte-reproducible
under the scenario seed (wall-clock aside).

Comparators optimize the exact counterfactual cost of a fixed policy on
the recorded perturbation sequence.  For disturbance-action and
disturbance-response policies the counterfactual state is affine in the
policy parameters, so the objective is convex whenever the cost is.  For
a quadratic cost it is an exact quadratic and is minimized by solving its
normal equations; other costs are minimized by gradient descent with a
1/sqrt(iter) schedule and a Newton polish.  The best fixed linear gain is
a non-convex objective and is handled by multi-start local descent,
documented as a heuristic.
"""

from __future__ import annotations

import configparser
import os
import time
import warnings
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .lds_core import (
    CallableCost,
    LinearSystem,
    PerturbationSource,
    QuadraticCost,
    Trajectory,
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

#: Iterative comparator budget for non-quadratic costs: gradient steps and
#: tolerance.
COMPARATOR_MAX_ITER = 5000
COMPARATOR_TOL = 1e-8


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
# Affine counterfactual maps
# ---------------------------------------------------------------------------


def _coerce_K(K: object, d_u: int, d_x: int) -> np.ndarray:
    K = np.asarray(K, dtype=float)
    if K.shape != (d_u, d_x):
        raise ConfigurationError(f"gain must be ({d_u}, {d_x}), got {K.shape}")
    return K


def _signal_windows(signals: np.ndarray, depth: int, lag: int) -> np.ndarray:
    """Stack ``V[t, i] = signals[t - lag - i]`` (zero before the start).

    ``lag=1`` windows start at the previous step, ``lag=0`` at the current
    one.
    """
    T, d = signals.shape
    V = np.zeros((T, depth, d))
    for i in range(depth):
        shift = lag + i
        if shift < T:
            V[shift:, i] = signals[: T - shift if shift else T]
    return V


def _dac_affine_maps(
    system: LinearSystem,
    K: np.ndarray,
    w_record: np.ndarray,
    h: int,
    x0: Optional[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact affine maps of the closed-loop trajectory in the action blocks.

    For ``u_t = K x_t + sum_i M_i w_{t-i}`` the state and control are affine
    in ``M``; returns ``(Xnat, XPhi, Unat, UPsi)`` with shapes (T, d_x),
    (T, d_x, h, d_u, d_x), (T, d_u), (T, d_u, h, d_u, d_x) so that
    ``x_t(M) = Xnat[t] + XPhi[t] . M`` and likewise for the control.
    """
    T = w_record.shape[0]
    d_x, d_u = system.d_x, system.d_u
    V = _signal_windows(w_record, h, lag=1)
    eye_u = np.eye(d_u)

    Xnat = np.zeros((T, d_x))
    XPhi = np.zeros((T, d_x, h, d_u, d_x))
    Unat = np.zeros((T, d_u))
    UPsi = np.zeros((T, d_u, h, d_u, d_x))

    x = np.zeros(d_x) if x0 is None else np.asarray(x0, dtype=float)
    phi = np.zeros((d_x, h, d_u, d_x))
    for t in range(T):
        A_t, B_t, _ = system.matrices(t)
        Xnat[t] = x
        XPhi[t] = phi
        Unat[t] = K @ x
        UPsi[t] = np.einsum("uy,yiab->uiab", K, phi) + np.einsum(
            "ua,ib->uiab", eye_u, V[t]
        )
        phi = np.einsum("xy,yiab->xiab", A_t, phi) + np.einsum(
            "xu,uiab->xiab", B_t, UPsi[t]
        )
        x = (A_t + B_t @ K) @ x + w_record[t]
    return Xnat, XPhi, Unat, UPsi


def _drc_affine_maps(
    system: LinearSystem,
    w_record: np.ndarray,
    h: int,
    x0: Optional[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Affine maps for disturbance-response policies.

    For ``u_t = sum_{i=0..h} M_i ynat_{t-i}`` returns ``(Ynat, YPhi, Unat,
    UPsi)`` in observation space: ``y_t(M) = Ynat[t] + YPhi[t] . M`` with
    block shape (h+1, d_u, d_y); ``Unat`` is zero since the control does not
    feed back on the counterfactual state.
    """
    T = w_record.shape[0]
    d_x, d_u, d_y = system.d_x, system.d_u, system.d_y
    eye_u = np.eye(d_u)

    Ynat = _natural_observations(system, w_record, x0)
    Y = _signal_windows(Ynat, h + 1, lag=0)
    YPhi = np.zeros((T, d_y, h + 1, d_u, d_y))
    Unat = np.zeros((T, d_u))
    UPsi = np.zeros((T, d_u, h + 1, d_u, d_y))

    phi = np.zeros((d_x, h + 1, d_u, d_y))
    for t in range(T):
        A_t, B_t, C_t = system.matrices(t)
        UPsi[t] = np.einsum("ua,ib->uiab", eye_u, Y[t])
        YPhi[t] = phi if C_t is None else np.einsum("yx,xiab->yiab", C_t, phi)
        phi = np.einsum("xy,yiab->xiab", A_t, phi) + np.einsum(
            "xu,uiab->xiab", B_t, UPsi[t]
        )
    return Ynat, YPhi, Unat, UPsi


def _natural_observations(
    system: LinearSystem, w_record: np.ndarray, x0: Optional[np.ndarray]
) -> np.ndarray:
    """Observations ``ynat_t = C_t x_t`` of the zero-control rollout: the
    signal that disturbance-response policies act on."""
    T = w_record.shape[0]
    ynat = np.zeros((T, system.d_y))
    x = np.zeros(system.d_x) if x0 is None else np.asarray(x0, dtype=float)
    for t in range(T):
        A_t, _, C_t = system.matrices(t)
        ynat[t] = x if C_t is None else C_t @ x
        x = A_t @ x + w_record[t]
    return ynat


def _affine_objective(
    cost: object,
    Xnat: np.ndarray,
    XPhi: np.ndarray,
    Unat: np.ndarray,
    UPsi: np.ndarray,
) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """Total-cost objective (value and gradient) over policy blocks ``M``
    given affine trajectory maps, for a cost given by value and gradient
    callbacks.  Convex whenever the cost is."""

    def J_and_grad(M: np.ndarray) -> tuple[float, np.ndarray]:
        X = Xnat + np.einsum("txiab,iab->tx", XPhi, M)
        U = Unat + np.einsum("tuiab,iab->tu", UPsi, M)
        value = 0.0
        GX = np.zeros_like(X)
        GU = np.zeros_like(U)
        for t in range(X.shape[0]):
            value += cost.value(X[t], U[t])
            GX[t] = cost.grad_x(X[t], U[t])
            GU[t] = cost.grad_u(X[t], U[t])
        grad = np.einsum("txiab,tx->iab", XPhi, GX) + np.einsum(
            "tuiab,tu->iab", UPsi, GU
        )
        return value, grad

    return J_and_grad


# ---------------------------------------------------------------------------
# Exact solve for quadratic costs
# ---------------------------------------------------------------------------


def _best_quadratic_policy(
    system: LinearSystem,
    cost: QuadraticCost,
    K: np.ndarray,
    w_record: np.ndarray,
    signals: np.ndarray,
    depth: int,
    lag: int,
    x0: Optional[np.ndarray],
    observe: bool,
    label: str,
) -> tuple[np.ndarray, float]:
    """Exact minimizer of a quadratic counterfactual cost over fixed
    disturbance-feedback policies ``u_t = K x_t + sum_{i<depth} M_i
    s_{t-lag-i}``, with the cost charged on ``C_t x_t`` when ``observe`` and
    on ``x_t`` otherwise.

    The trajectory is affine in the flattened blocks ``m``, so the total
    cost is exactly ``J(m) = c + 2 g.m + m.G.m``.  One forward pass
    accumulates ``G``, ``g`` and ``c``; it carries only the current state
    sensitivity (d_x, p) and the signal window, so memory does not grow
    with T.  ``G`` may be singular (a cost blind to some control input, or
    no excitation), so the normal equations ``G m = -g`` are solved by
    least squares: the minimizer is then the minimum-norm one, and the
    optimal value is unique either way.
    """
    T, d_s = signals.shape
    d_x, d_u = system.d_x, system.d_u
    p = depth * d_u * d_s
    d_z = cost.Q.shape[0]
    W = np.zeros((d_z + d_u, d_z + d_u))
    W[:d_z, :d_z] = cost.Q
    W[d_z:, d_z:] = cost.R
    offset = np.zeros(d_z + d_u)
    if cost.target is not None:
        offset[:d_z] = cost.target
    # selector[u, i, a, b] = [u == a]; times the window it gives the map
    # from the blocks to the control sum_i M_i s_{t-lag-i}.
    selector = np.eye(d_u)[:, None, :, None]

    window = np.zeros((depth, d_s))
    x = np.zeros(d_x) if x0 is None else np.asarray(x0, dtype=float)
    phi = np.zeros((d_x, p))  # d x_t / d m
    L = np.zeros((d_z + d_u, p))  # d (z_t, u_t) / d m
    G = np.zeros((p, p))
    g = np.zeros(p)
    c = 0.0
    # A diverging rollout overflows; the finiteness check below turns that
    # into an EvaluationError.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T):
            A_t, B_t, C_t = system.matrices(t)
            if t >= lag:
                window[1:] = window[:-1]
                window[:1] = signals[t - lag]
            psi = K @ phi + (selector * window[:, None, :]).reshape(d_u, p)
            u = K @ x
            if observe and C_t is not None:
                z = C_t @ x
                L[:d_z] = C_t @ phi
            else:
                z = x
                L[:d_z] = phi
            L[d_z:] = psi
            r = np.concatenate((z, u)) - offset
            WL = W @ L
            G += L.T @ WL
            g += r @ WL
            c += float(r @ W @ r)
            phi = A_t @ phi + B_t @ psi
            x = A_t @ x + B_t @ u + w_record[t]

    if not (np.isfinite(c) and np.isfinite(g).all() and np.isfinite(G).all()):
        raise EvaluationError(f"{label} objective became non-finite")
    m, *_ = np.linalg.lstsq(G, -g, rcond=None)
    value = c + float(m @ (2.0 * g + G @ m))
    return m.reshape(depth, d_u, d_s), value


# ---------------------------------------------------------------------------
# Offline gradient descent
# ---------------------------------------------------------------------------


def _offline_gd(
    J_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    m0: np.ndarray,
    max_iter: int = COMPARATOR_MAX_ITER,
    tol: float = COMPARATOR_TOL,
    step_scale: Optional[float] = None,
    label: str = "comparator",
    warn: bool = True,
) -> tuple[np.ndarray, float]:
    """Gradient descent with step ``step_scale / sqrt(iter)``.

    The returned point is the best iterate seen (the start included), so
    the result never exceeds the starting objective.  A warning is issued
    when the gradient tolerance is not reached within the budget.
    """
    m = m0.astype(float).copy()
    value, grad = J_and_grad(m)
    best_value, best_m = value, m.copy()

    if step_scale is None:
        # Probe the curvature along the first gradient to scale the steps.
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol:
            return best_m, best_value
        delta = 1e-3 * (1.0 + float(np.linalg.norm(m))) / gnorm
        _, grad_probe = J_and_grad(m - delta * grad)
        curvature = float(np.linalg.norm(grad_probe - grad)) / (delta * gnorm)
        step_scale = 1.0 / curvature if curvature > 0 else 1.0

    converged = False
    for k in range(1, max_iter + 1):
        if float(np.linalg.norm(grad)) <= tol:
            converged = True
            break
        m = m - (step_scale / np.sqrt(k)) * grad
        value, grad = J_and_grad(m)
        if not np.isfinite(value):
            raise EvaluationError(f"{label} objective became non-finite")
        if value < best_value:
            best_value, best_m = value, m.copy()
    else:
        converged = float(np.linalg.norm(grad)) <= tol
    if warn and not converged:
        warnings.warn(
            f"{label} gradient descent stopped at gradient norm "
            f"{float(np.linalg.norm(grad)):.3e} > {tol:g} after {max_iter} "
            "iterations; returning the best iterate",
            stacklevel=2,
        )
    return best_m, best_value


def _newton_polish(
    J_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    m0: np.ndarray,
    value0: float,
    tol: float = COMPARATOR_TOL,
    rounds: int = 3,
) -> tuple[np.ndarray, float]:
    """Newton refinement for smooth convex objectives where the sqrt-schedule
    stalls on ill conditioning.

    The Hessian is assembled from gradient differences, so only the
    value/gradient oracle is needed; for objectives that are exactly
    quadratic one round lands on the minimizer.  Candidates are accepted
    only when they strictly improve, so the result never regresses.
    """
    m, value = m0.copy(), value0
    _, grad = J_and_grad(m)
    n = m.size
    for _ in range(rounds):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol or not np.isfinite(gnorm):
            break
        # A wide probe step keeps the gradient differences well above float
        # cancellation; value-guarded acceptance absorbs any curvature bias.
        eps = 1e-3 * (1.0 + float(np.linalg.norm(m)))
        H = np.empty((n, n))
        flat = m.ravel()
        for i in range(n):
            probe = flat.copy()
            probe[i] += eps
            _, grad_probe = J_and_grad(probe.reshape(m.shape))
            H[:, i] = (grad_probe - grad).ravel() / eps
        H = 0.5 * (H + H.T)
        delta, *_ = np.linalg.lstsq(H, grad.ravel(), rcond=None)
        candidate = m - delta.reshape(m.shape)
        cand_value, cand_grad = J_and_grad(candidate)
        cand_gnorm = float(np.linalg.norm(cand_grad))
        better_value = np.isfinite(cand_value) and cand_value < value
        same_value = (
            np.isfinite(cand_value)
            and cand_value <= value + 1e-12 * (1.0 + abs(value))
            and cand_gnorm < 0.5 * gnorm
        )
        if not (better_value or same_value):
            break
        m, value, grad = candidate, cand_value, cand_grad
    return m, value


def _minimize_convex(
    J_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    m0: np.ndarray,
    max_iter: int,
    tol: float,
    step_scale: Optional[float],
    label: str,
) -> tuple[np.ndarray, float]:
    """Comparator optimizer: scheduled gradient descent, then a Newton
    polish; warns only if the gradient tolerance is still unmet."""
    m, value = _offline_gd(
        J_and_grad, m0, max_iter, tol, step_scale, label=label, warn=False
    )
    m, value = _newton_polish(J_and_grad, m, value, tol)
    _, grad = J_and_grad(m)
    if float(np.linalg.norm(grad)) > tol:
        warnings.warn(
            f"{label} optimization stopped at gradient norm "
            f"{float(np.linalg.norm(grad)):.3e} > {tol:g}; returning the best iterate",
            stacklevel=3,
        )
    return m, value


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
    step_scale: Optional[float] = None,
) -> tuple[np.ndarray, float]:
    """Best fixed disturbance-action policy on a recorded run.

    Minimizes the exact counterfactual total cost of ``u_t = K x_t +
    sum_i M_i w_{t-i}`` over the action blocks; the objective is convex
    because the trajectory is affine in ``M``.  A :class:`QuadraticCost` is
    minimized exactly by solving the normal equations of that quadratic;
    any other cost by offline gradient descent with a Newton polish, to
    which ``max_iter``, ``tol`` and ``step_scale`` apply.  Returns ``(Ms,
    total_cost)`` with ``Ms`` of shape (h, d_u, d_x).
    """
    w_record = np.asarray(w_record, dtype=float)
    if w_record.ndim != 2 or w_record.shape[0] == 0:
        raise ConfigurationError("w_record must be a nonempty (T, d_x) array")
    K = _coerce_K(K, system.d_u, system.d_x)
    label = "action-policy comparator"
    if isinstance(cost, QuadraticCost):
        return _best_quadratic_policy(
            system, cost, K, w_record, signals=w_record, depth=int(h), lag=1,
            x0=x0, observe=False, label=label,
        )
    maps = _dac_affine_maps(system, K, w_record, int(h), x0)
    objective = _affine_objective(cost, *maps)
    m0 = np.zeros((int(h), system.d_u, system.d_x))
    return _minimize_convex(objective, m0, max_iter, tol, step_scale, label)


def best_drc_in_hindsight(
    system: LinearSystem,
    cost: object,
    w_record: object,
    h: int,
    x0: Optional[object] = None,
    max_iter: int = COMPARATOR_MAX_ITER,
    tol: float = COMPARATOR_TOL,
    step_scale: Optional[float] = None,
) -> tuple[np.ndarray, float]:
    """Best fixed disturbance-response policy on a recorded run.

    Minimizes the counterfactual total cost of ``u_t = sum_{i=0..h} M_i
    ynat_{t-i}`` where ``ynat`` is the zero-control observation sequence;
    the cost consumes (observation, control) pairs.  A
    :class:`QuadraticCost` is minimized exactly by solving the normal
    equations of the quadratic objective; any other cost by offline
    gradient descent with a Newton polish, to which ``max_iter``, ``tol``
    and ``step_scale`` apply.  Returns ``(Ms, total_cost)`` with ``Ms`` of
    shape (h+1, d_u, d_y).
    """
    w_record = np.asarray(w_record, dtype=float)
    if w_record.ndim != 2 or w_record.shape[0] == 0:
        raise ConfigurationError("w_record must be a nonempty (T, d_x) array")
    label = "response-policy comparator"
    if isinstance(cost, QuadraticCost):
        with np.errstate(over="ignore", invalid="ignore"):
            ynat = _natural_observations(system, w_record, x0)
        K = np.zeros((system.d_u, system.d_x))
        return _best_quadratic_policy(
            system, cost, K, w_record, signals=ynat, depth=int(h) + 1, lag=0,
            x0=x0, observe=True, label=label,
        )
    maps = _drc_affine_maps(system, w_record, int(h), x0)
    objective = _affine_objective(cost, *maps)
    m0 = np.zeros((int(h) + 1, system.d_u, system.d_y))
    return _minimize_convex(objective, m0, max_iter, tol, step_scale, label)


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
    mats = [system.matrices(t)[:2] for t in range(T)]

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
    max_iter: int = 300,
    tol: float = COMPARATOR_TOL,
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
    tol: float = COMPARATOR_TOL,
    step_scale: Optional[float] = None,
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """Best fixed linear gain on a recorded run (multi-start local search).

    The objective is not convex in the gain for general costs, so this is
    a heuristic: descent runs from the infinite-horizon quadratic gain
    (when solvable), from zero, and from two perturbed copies, and the
    best local result wins.
    """
    w_record = np.asarray(w_record, dtype=float)
    if w_record.ndim != 2 or w_record.shape[0] == 0:
        raise ConfigurationError("w_record must be a nonempty (T, d_x) array")
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
    w_record = np.asarray(w_record, dtype=float)
    Ms = np.asarray(Ms, dtype=float)
    K = _coerce_K(K, system.d_u, system.d_x)
    h = Ms.shape[0]
    T = w_record.shape[0]
    V = _signal_windows(w_record, h, lag=1)
    x = np.zeros(system.d_x) if x0 is None else np.asarray(x0, dtype=float)
    out = np.zeros(T)
    for t in range(T):
        A_t, B_t, C_t = system.matrices(t)
        u = K @ x + np.einsum("iab,ib->a", Ms, V[t])
        if cost_on == "observation":
            signal = (np.eye(system.d_x) if C_t is None else C_t) @ x
        else:
            signal = x
        out[t] = cost.value(signal, u)
        x = A_t @ x + B_t @ u + w_record[t]
    return out


def drc_rollout_costs(
    system: LinearSystem,
    cost: object,
    Ms: object,
    w_record: object,
    x0: Optional[object] = None,
) -> np.ndarray:
    """Exact per-step counterfactual costs of a fixed response policy
    (cost on observation/control pairs)."""
    w_record = np.asarray(w_record, dtype=float)
    Ms = np.asarray(Ms, dtype=float)
    T = w_record.shape[0]
    Y = _signal_windows(_natural_observations(system, w_record, x0), Ms.shape[0], lag=0)

    out = np.zeros(T)
    x = np.zeros(system.d_x) if x0 is None else np.asarray(x0, dtype=float)
    for t in range(T):
        A_t, B_t, C_t = system.matrices(t)
        u = np.einsum("iab,ib->a", Ms, Y[t])
        out[t] = cost.value(x if C_t is None else C_t @ x, u)
        x = A_t @ x + B_t @ u + w_record[t]
    return out


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
    if kind == "gpc":
        K = _resolve_gain(spec.pop("K", None), config)
        controller = GPCController(
            d_x=system.d_x,
            d_u=system.d_u,
            K=K,
            h=int(spec.pop("h", 5)),
            radius=float(spec.pop("radius", 10.0)),
            step_size=(lambda v: None if v is None else float(v))(
                spec.pop("step_size", None)
            ),
            schedule=str(spec.pop("schedule", "sqrt")),
            horizon=config.horizon,
            H_trunc=(lambda v: None if v is None else int(v))(spec.pop("H_trunc", None)),
        )
        if spec:
            raise ConfigurationError(f"unknown gpc options: {sorted(spec)}")
        return gpc_runner(controller, system, cost), "gpc", K
    if kind == "grc":
        controller = GRCController(
            d_x=system.d_x,
            d_u=system.d_u,
            d_y=system.d_y,
            h=int(spec.pop("h", 5)),
            radius=float(spec.pop("radius", 10.0)),
            step_size=(lambda v: None if v is None else float(v))(
                spec.pop("step_size", None)
            ),
            schedule=str(spec.pop("schedule", "sqrt")),
            horizon=config.horizon,
            H_trunc=(lambda v: None if v is None else int(v))(spec.pop("H_trunc", None)),
        )
        if spec:
            raise ConfigurationError(f"unknown grc options: {sorted(spec)}")
        return grc_runner(controller, system, cost), "grc", None
    raise ConfigurationError(
        f"unknown controller kind {kind!r}; expected zero, linear, lqr, gpc, or grc"
    )


class _SilentCost:
    """Stand-in for simulate() when the scenario cost consumes observations;
    real per-step costs are recomputed from the trajectory afterwards."""

    def value(self, x: np.ndarray, u: np.ndarray) -> float:
        return 0.0


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

    sim_cost = _SilentCost() if config.cost_on == "observation" else cost
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

    comp_spec = dict(config.comparator)
    comp_kind = comp_spec.pop("kind", None)
    if comp_kind is None:
        comp_kind = "best-drc" if label == "grc" else "best-dac"
    comp_h = int(comp_spec.pop("h", config.controller.get("h", 5)))

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
        comparator_costs = dac_rollout_costs(
            system,
            cost,
            np.zeros((system.d_u, system.d_x)),
            np.zeros((1, system.d_u, system.d_x)),
            w_record,
            config.x0,
            cost_on=config.cost_on,
        )
    elif comp_kind == "none":
        comparator_costs = np.zeros(T)
    else:
        raise ConfigurationError(
            f"unknown comparator kind {comp_kind!r}; expected best-dac, best-drc, "
            "best-linear, zero, or none"
        )

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
            sigma=float(section.get("sigma", 1.0)), clip_to_unit_ball=clip
        )
    if kind == "iid-uniform-ball":
        return PerturbationSource.uniform_ball()
    if kind == "sinusoidal":
        return PerturbationSource.sinusoidal(
            amplitude=float(section.get("amplitude", 1.0)),
            omega=float(section.get("omega", 1.0)),
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
    ``[controller]``, and ``[run]`` (``horizon``, ``seed``, ``out``).
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
    for key in ("h", "h_trunc"):
        if key in controller:
            controller["H_trunc" if key == "h_trunc" else key] = (
                int(controller.pop(key)) if key == "h_trunc" else int(controller[key])
            )
    for key in ("radius", "step_size"):
        if key in controller:
            controller[key] = float(controller[key])
    if "k" in controller:
        value = controller.pop("k")
        controller["K"] = (
            value if value in ("lqr", "zero") else load_matrix(os.path.join(base_dir, value))
        )

    comparator = dict(sections.get("comparator", {}))
    if "h" in comparator:
        comparator["h"] = int(comparator["h"])

    horizon = int(overrides.get("horizon", run_sec.get("horizon", 100)))
    seed = int(overrides.get("seed", run_sec.get("seed", 0)))
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
