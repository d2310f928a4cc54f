"""Tests for projected OGD, counterfactual states, and the GPC / GRC
online controllers.

Gradients are cross-checked against central finite differences, the cached
counterfactual paths against a plain recursion-from-zero reference, and the
OGD iterates against the classical sqrt-horizon regret bound.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nscontrol import lds_core, online_control
from nscontrol.errors import ConfigurationError, EvaluationError
from nscontrol.harness import best_dac_in_hindsight, config_from_preset, run_experiment
from nscontrol.lds_core import (
    CallableCost,
    LinearSystem,
    PerturbationSource,
    QuadraticCost,
    simulate,
)
from nscontrol.online_control import (
    GPCController,
    GRCController,
    OGDState,
    counterfactual_state,
    gpc_runner,
    grc_runner,
    ogd_update,
)
from nscontrol.optimal_control import dare_solve
from nscontrol.policies import DACPolicy, DRCPolicy, LinearPolicy, policy_runner

FD_STEP = 1e-6


# ---------------------------------------------------------------------------
# OGD
# ---------------------------------------------------------------------------


def test_ogd_zero_gradient_keeps_point():
    state = OGDState(point=np.array([1.0, -2.0]), radius=10.0, step_scale=0.5)
    out = ogd_update(state, np.zeros(2))
    assert np.array_equal(out.point, state.point)
    assert out.t == 1


def test_ogd_projection_onto_ball():
    # Point outside the unit ball is pulled back radially: [3, 4] -> [0.6, 0.8].
    state = OGDState(point=np.array([3.0, 4.0]), radius=1.0, step_scale=1.0)
    out = ogd_update(state, np.zeros(2))
    assert np.allclose(out.point, [0.6, 0.8], atol=1e-15)


def test_ogd_projects_an_overflowing_step_onto_the_sphere():
    # A finite step of length 5e200 leaves the ball of radius 2; its
    # projection lies on the sphere, in the step's direction.
    state = OGDState(point=np.zeros(2), radius=2.0, step_scale=1.0)
    out = ogd_update(state, np.array([-3e200, -4e200]))
    assert np.allclose(out.point, [1.2, 1.6], rtol=1e-12)


def test_ogd_single_step_arithmetic():
    # eta_1 = 0.5 / sqrt(1); point - eta * g = [1, 1] - 0.5 * [2, 0] = [0, 1].
    state = OGDState(point=np.array([1.0, 1.0]), radius=None, step_scale=0.5)
    out = ogd_update(state, np.array([2.0, 0.0]))
    assert np.allclose(out.point, [0.0, 1.0], atol=1e-15)


def test_ogd_constant_schedule():
    state = OGDState(point=np.zeros(1), radius=None, step_scale=0.25, schedule="constant")
    out = ogd_update(state, np.array([1.0]))
    out = ogd_update(out, np.array([1.0]))
    # Two constant steps of 0.25 against gradient 1.
    assert np.allclose(out.point, [-0.5], atol=1e-15)


def test_ogd_adagrad_schedule_by_hand():
    # AdaGrad-norm: eta_t = c / sqrt(sum_{s<=t} ||g_s||^2), the sum taking
    # in the step's own gradient.  A zero first gradient takes eta = 0 and
    # moves nothing; g = (3, 4) then takes eta = 1/5, so the step has length
    # c = 1; g = (0, 12) makes the sum 169, eta = 1/13.
    state = OGDState(point=np.zeros(2), radius=None, step_scale=1.0, schedule="adagrad")
    out = ogd_update(state, np.zeros(2))
    assert np.array_equal(out.point, np.zeros(2))
    assert (out.t, out.grad_norm_sq_sum, out.step_size(out.t)) == (1, 0.0, 0.0)
    out = ogd_update(out, np.array([3.0, 4.0]))
    assert out.grad_norm_sq_sum == 25.0 and out.step_size(out.t) == 0.2
    assert np.allclose(out.point, [-0.6, -0.8], rtol=1e-15)
    out = ogd_update(out, np.array([0.0, 12.0]))
    assert out.grad_norm_sq_sum == 169.0 and out.step_size(out.t) == 1.0 / 13.0
    assert np.allclose(out.point, [-0.6, -0.8 - 12.0 / 13.0], rtol=1e-15)
    # The sum is kept under every schedule; the sqrt step ignores it.
    out = ogd_update(OGDState(point=np.zeros(2), step_scale=0.5), np.array([3.0, 4.0]))
    assert out.grad_norm_sq_sum == 25.0 and out.step_size(out.t) == 0.5


def _ball_minimum(H, b, radius):
    """A minimizer of ``x.H x / 2 + b.x`` over ``||x|| <= radius`` for a
    symmetric positive semidefinite ``H``: the unconstrained one when it
    lies in the ball, else ``-(H + mu I)^-1 b`` with ``mu`` bisected to the
    sphere; scaled into the ball, so it is feasible whatever the rounding."""
    lam, V = np.linalg.eigh(H)
    beta = V.T @ b

    def at(mu):
        denominator = lam + mu
        safe = np.where(denominator > 1e-12 * max(lam.max(), 1.0), denominator, np.inf)
        return -V @ (beta / safe)

    x = at(0.0)
    if np.linalg.norm(x) > radius:
        lo, hi = 0.0, 1.0
        while np.linalg.norm(at(hi)) > radius:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if np.linalg.norm(at(mid)) > radius else (lo, mid)
        x = at(hi)
    return x * min(1.0, radius / max(np.linalg.norm(x), 1e-300))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    T=st.integers(1, 300),
    scale=st.floats(1e-3, 1e3),
    radius=st.floats(0.1, 10.0),
)
def test_ogd_adagrad_regret_bound_on_convex_quadratics(seed, d, T, scale, radius):
    # The companion of acceptance criterion 12 for the learners' default
    # step.  Projected OGD with nonincreasing steps has regret at most
    # D^2 / (2 eta_T) + sum_t eta_t ||g_t||^2 / 2 against any point of a
    # ball of diameter D; under AdaGrad-norm with scale c, sum_t ||g_t||^2 /
    # sqrt(S_t) <= 2 sqrt(S_T) (S_t the running sum), so the regret is at
    # most (D^2 / (2 c) + c) sqrt(S_T), and 1.5 D sqrt(S_T) at c = D / 2,
    # the radius: with no bound on the gradients, which here span six
    # orders of magnitude.  Steps on zero gradients take eta = 0 and add
    # nothing to either side.
    rng = np.random.default_rng(seed)
    state = OGDState(point=np.zeros(d), radius=radius, step_scale=radius, schedule="adagrad")
    H_sum, b_sum, c_sum, played = np.zeros((d, d)), np.zeros(d), 0.0, 0.0
    for _ in range(T):
        A = rng.standard_normal((d, d)) * scale
        H = A @ A.T
        c = rng.uniform(-3.0 * radius, 3.0 * radius, size=d)
        # f(x) = (x - c).H (x - c) / 2 = x.H x / 2 - (H c).x + c.H c / 2
        x = state.point
        played += 0.5 * (x - c) @ H @ (x - c)
        H_sum += H
        b_sum -= H @ c
        c_sum += 0.5 * c @ H @ c
        state = ogd_update(state, H @ (x - c))
    best = _ball_minimum(H_sum, b_sum, radius)
    best_total = 0.5 * best @ H_sum @ best + b_sum @ best + c_sum
    bound = 1.5 * (2.0 * radius) * math.sqrt(state.grad_norm_sq_sum)
    slack = 1e-9 * (abs(played) + abs(best_total) + bound)
    assert played - best_total <= bound + slack


def test_ogd_converges_to_quadratic_minimum():
    # Losses (x - c)^2 with analytic gradient; OGD drifts to c.
    c = np.array([0.7, -0.3, 1.1])
    state = OGDState(point=np.zeros(3), radius=5.0, step_scale=0.5)
    for _ in range(4000):
        state = ogd_update(state, 2.0 * (state.point - c))
    assert np.linalg.norm(state.point - c) < 1e-2


def test_ogd_rejects_nonfinite_gradient():
    state = OGDState(point=np.zeros(2), radius=1.0, step_scale=0.1)
    try:
        ogd_update(state, np.array([np.nan, 0.0]))
        assert False, "expected EvaluationError"
    except EvaluationError:
        pass
    try:
        ogd_update(state, np.array([np.inf, 0.0]))
        assert False, "expected EvaluationError"
    except EvaluationError:
        pass


def test_ogd_dimension_mismatch():
    state = OGDState(point=np.zeros(2))
    try:
        ogd_update(state, np.zeros(3))
        assert False, "expected ConfigurationError"
    except ConfigurationError:
        pass


def test_ogd_invalid_schedule():
    try:
        OGDState(point=np.zeros(1), schedule="linear")
        assert False, "expected ConfigurationError"
    except ConfigurationError:
        pass


@pytest.mark.parametrize(
    "fields",
    [
        {"radius": -1.0},
        {"radius": float("nan")},
        {"radius": float("inf")},
        {"step_scale": -0.5},
        {"step_scale": float("nan")},
        {"step_scale": float("inf")},
        {"grad_norm_sq_sum": -1.0},
        {"grad_norm_sq_sum": float("nan")},
    ],
)
def test_ogd_rejects_invalid_radius_and_step_scale(fields):
    with pytest.raises(ConfigurationError):
        OGDState(point=np.zeros(2), **fields)


def test_ogd_update_cannot_start_from_a_negative_radius():
    # A negative radius once reflected the step (a zero-norm iterate divided
    # by zero): the state is now rejected before any update.
    with pytest.raises(ConfigurationError, match="radius"):
        ogd_update(OGDState(np.zeros(2), radius=-1), [1.0, 0.0])
    # Radius 0 is valid: every iterate is projected onto the origin.
    out = ogd_update(OGDState(np.zeros(2), radius=0.0), [1.0, 0.0])
    assert np.array_equal(out.point, np.zeros(2))


@pytest.mark.parametrize("options", [{"radius": -1.0}, {"step_size": -0.5}])
def test_gpc_rejects_invalid_radius_and_step_size(options):
    with pytest.raises(ConfigurationError):
        GPCController(1, 1, np.zeros((1, 1)), h=2, **options)


@pytest.mark.parametrize("T", [100, 1000])
def test_ogd_regret_bound_adversarial_linear(T):
    # Adversarial linear losses f_t(x) = g_t . x with |g_t| <= G, feasible
    # set the ball of radius R (diameter D = 2R).  The classical bound for
    # eta_t = (D / G) / sqrt(t) is regret <= (3/2) G D sqrt(T).
    rng = np.random.default_rng(7 + T)
    d = 4
    R = 1.5
    G = 2.0
    state = OGDState(point=np.zeros(d), radius=R, step_scale=2.0 * R / G)
    grads = []
    played = 0.0
    for t in range(T):
        g = rng.uniform(-1.0, 1.0, size=d)
        g *= G / max(np.linalg.norm(g), 1e-12)
        if t % 3 == 0 and t > 0:
            # Adversarial twist: push against the current iterate.
            g = -G * state.point / max(np.linalg.norm(state.point), 1e-12)
        played += float(g @ state.point)
        grads.append(g)
        state = ogd_update(state, g)
    total_g = np.sum(grads, axis=0)
    best_fixed = -R * float(np.linalg.norm(total_g))
    regret = played - best_fixed
    assert regret <= 3.0 * G * (2.0 * R) * math.sqrt(T)


def test_ogd_iterate_slowness_and_membership():
    rng = np.random.default_rng(3)
    R = 1.0
    state = OGDState(point=np.zeros(5), radius=R, step_scale=0.8)
    for t in range(1, 301):
        g = rng.normal(size=5) * 10.0
        new = ogd_update(state, g)
        eta = new.step_size(new.t)
        assert np.linalg.norm(new.point - state.point) <= eta * np.linalg.norm(g) + 1e-12
        assert np.linalg.norm(new.point) <= R + 1e-15
        state = new


# ---------------------------------------------------------------------------
# Counterfactual state (reference recursion)
# ---------------------------------------------------------------------------


def test_counterfactual_zero_noise_gives_zero():
    rng = np.random.default_rng(0)
    A_hist = [0.5 * rng.normal(size=(3, 3)) for _ in range(20)]
    B_hist = [rng.normal(size=(3, 2)) for _ in range(20)]
    w_hist = [np.zeros(3) for _ in range(20)]
    Ms = [rng.normal(size=(2, 3)) for _ in range(4)]
    x = counterfactual_state(Ms, w_hist, A_hist, B_hist, H_trunc=20)
    assert np.allclose(x, 0.0, atol=0.0)


def test_counterfactual_scalar_geometric_limit():
    # Closed loop 0.5, B = 1, h = 1, constant unit noise: the counterfactual
    # state converges to (1 + m) / (1 - 0.5) = 2 (1 + m) as depth grows.
    m = 0.3
    n = 120
    A_hist = [np.array([[0.5]])] * n
    B_hist = [np.array([[1.0]])] * n
    w_hist = [np.array([1.0])] * n
    values = [
        counterfactual_state([np.array([[m]])], w_hist, A_hist, B_hist, H_trunc=H)[0]
        for H in (5, 10, 20, 80)
    ]
    target = 2.0 * (1.0 + m)
    errors = [abs(v - target) for v in values]
    assert errors[0] > errors[1] > errors[2] > errors[3]
    assert errors[-1] < 1e-12
    # Closed form for finite depth: the partial geometric sum
    # 2 (1 + m) (1 - 0.5^H) must match exactly.
    H = 10
    partial = (1.0 + m) * (1.0 - 0.5**H) * 2.0
    got = counterfactual_state([np.array([[m]])], w_hist, A_hist, B_hist, H_trunc=H)[0]
    assert abs(got - partial) < 1e-12


def test_counterfactual_matches_true_rollout_when_untruncated():
    # Playing fixed parameters from the start of time, the untruncated
    # counterfactual reproduces the realized state exactly.
    rng = np.random.default_rng(11)
    d_x, d_u, h, T = 3, 2, 3, 25
    K = 0.1 * rng.normal(size=(d_u, d_x))
    Ms = [0.2 * rng.normal(size=(d_u, d_x)) for _ in range(h)]

    def matrices(t):
        A = 0.4 * np.eye(d_x) + 0.05 * np.sin(0.3 * t) * np.ones((d_x, d_x))
        B = np.array([[1.0, 0.0], [0.0, 1.0], [0.1 * np.cos(t), 0.2]])
        return A, B

    ws = [rng.uniform(-1, 1, size=d_x) for _ in range(T)]
    x = np.zeros(d_x)
    xs = [x.copy()]
    A_hist: list = []
    B_hist: list = []
    w_hist: list = []
    for t in range(T):
        A, B = matrices(t)
        u = K @ x
        for j, M in enumerate(Ms, start=1):
            if t - j >= 0:
                u = u + M @ ws[t - j]
        x = A @ x + B @ u + ws[t]
        xs.append(x.copy())
        A_hist.insert(0, A + B @ K)
        B_hist.insert(0, B)
        w_hist.insert(0, ws[t])
        got = counterfactual_state(Ms, w_hist, A_hist, B_hist, H_trunc=T + 5)
        assert np.allclose(got, x, atol=1e-10)


def test_counterfactual_empty_history_errors():
    try:
        counterfactual_state([np.eye(1)], [], [], [], H_trunc=5)
        assert False, "expected ConfigurationError"
    except ConfigurationError:
        pass


# ---------------------------------------------------------------------------
# GPC
# ---------------------------------------------------------------------------


def _set_Ms(learner, Ms):
    """Set the learner's parameters to the blocks ``Ms`` (any shape holding
    ``learner.Ms.size`` entries in its order) the one way there is: assign
    an ``OGDState`` whose point holds them in ``(d_u, len(Ms), d_s)`` order."""
    Ms = np.reshape(Ms, learner.Ms.shape)
    learner.ogd = dataclasses.replace(learner.ogd, point=Ms.transpose(1, 0, 2).ravel())


def _drive_gpc(controller, system, cost, noise, T, collect=None):
    """Manual act/observe/recover/update loop; returns realized states,
    controls and total played cost."""
    x = np.zeros(system.d_x)
    total = 0.0
    for t in range(T):
        A, B, _ = system.matrices(t)
        u = controller.act(t, x)
        total += float(cost.value(x, u))
        if collect is not None:
            collect(t, x, u)
        x_next = A @ x + B @ u + noise(t)
        controller.update(t, A, B, cost)
        x = x_next
    return total


def test_gpc_cached_counterfactual_matches_reference():
    rng = np.random.default_rng(21)
    d_x, d_u, h = 3, 2, 3
    K = np.zeros((d_u, d_x))
    cost = QuadraticCost(Q=np.eye(d_x), R=0.5 * np.eye(d_u))

    def provider(t):
        A = 0.45 * np.eye(d_x) + 0.05 * np.cos(0.2 * t) * np.ones((d_x, d_x))
        B = np.array([[1.0, 0.2], [0.0, 1.0], [0.3, 0.1 * np.sin(t)]])
        return A, B

    system = LinearSystem.time_varying(lambda t: (*provider(t), None), d_x, d_u)
    controller = GPCController(d_x, d_u, K, h=h, radius=3.0, step_size=0.05)

    ws = [rng.uniform(-1, 1, size=d_x) for _ in range(80)]
    A_hist: list = []
    B_hist: list = []
    w_hist: list = []
    x = np.zeros(d_x)
    for t in range(60):
        A, B, _ = system.matrices(t)
        u = controller.act(t, x)
        # act(t) recovered w_{t-1}: the control it played sums the blocks
        # over the perturbations drawn.
        u_played = K @ x
        for j in range(1, min(h, t) + 1):
            u_played = u_played + controller.Ms[j - 1] @ ws[t - j]
        assert np.allclose(u, u_played, atol=1e-12)
        if t >= 1:
            x_ref = counterfactual_state(list(controller.Ms), w_hist, A_hist, B_hist, t)
            x_cf, u_cf = controller.counterfactuals()
            assert np.allclose(x_cf, x_ref, atol=1e-10)
            u_ref = K @ x_ref
            for j in range(1, h + 1):
                if t - j >= 0:
                    u_ref = u_ref + controller.Ms[j - 1] @ ws[t - j]
            assert np.allclose(u_cf, u_ref, atol=1e-10)
        x_next = A @ x + B @ u + ws[t]
        controller.update(t, A, B, cost)
        # Row t holds the norm of the w_{t-1} that act(t) pushed, 0 at t = 0.
        w_norm = np.linalg.norm(ws[t - 1]) if t else 0.0
        assert math.isclose(controller.telemetry[t]["w_norm"], w_norm, rel_tol=1e-12, abs_tol=1e-12)
        A_hist.insert(0, A + B @ K)
        B_hist.insert(0, B)
        w_hist.insert(0, ws[t])
        x = x_next


def test_gpc_recovered_perturbation_replays():
    # The w_{t-1} that act(t) recovers, the newest entry of its window,
    # closes the dynamics: A x + B u + w equals the observed state to machine
    # precision, and the run is deterministic.
    rng = np.random.default_rng(5)
    A = np.array([[0.6, 0.1], [0.0, 0.5]])
    B = np.array([[0.0], [1.0]])
    system = LinearSystem.time_invariant(A, B)
    cost = QuadraticCost(Q=np.eye(2), R=np.eye(1))
    ws = [rng.uniform(-1, 1, size=2) for _ in range(40)]

    def run():
        controller = GPCController(2, 1, np.zeros((1, 2)), h=3, radius=2.0, step_size=0.1)
        x = np.zeros(2)
        residual = 0.0
        x_prev = u_prev = None
        for t in range(41):
            u = controller.act(t, x)
            if t >= 1:
                replay = A @ x_prev + B @ u_prev + controller._window[:2]
                residual = max(residual, float(np.max(np.abs(replay - x))))
            controller.update(t, A, B, cost)
            if t < 40:
                x_prev, u_prev, x = x, u, A @ x + B @ u + ws[t]
        return controller.Ms.copy(), residual

    Ms1, res1 = run()
    Ms2, res2 = run()
    assert res1 <= 1e-12 and res2 <= 1e-12
    assert Ms1.tobytes() == Ms2.tobytes()


def test_gpc_gradient_matches_finite_differences():
    rng = np.random.default_rng(33)
    d_x, d_u, h = 2, 2, 3
    A = np.array([[0.7, 0.2], [-0.1, 0.4]])
    B = np.array([[1.0, 0.1], [0.2, 0.8]])
    K = np.array([[-0.2, 0.0], [0.1, -0.3]])
    system = LinearSystem.time_invariant(A, B)
    cost = QuadraticCost(Q=np.diag([1.0, 2.0]), R=np.diag([0.5, 1.0]))
    controller = GPCController(d_x, d_u, K, h=h, radius=5.0, step_size=0.02)
    noise = lambda t: rng.uniform(-1, 1, size=d_x)
    _drive_gpc(controller, system, cost, noise, T=15)

    x = rng.uniform(-1, 1, size=d_x)
    controller.act(15, x)
    _, grad = controller.loss_and_gradient(cost)

    def loss_at(Ms_flat):
        saved = controller.ogd
        _set_Ms(controller, Ms_flat)
        x_cf, u_cf = controller.counterfactuals()
        controller.ogd = saved
        return float(cost.value(x_cf, u_cf))

    flat = controller.Ms.ravel().copy()
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[i] += FD_STEP
        dn[i] -= FD_STEP
        fd[i] = (loss_at(up) - loss_at(dn)) / (2.0 * FD_STEP)
    assert np.max(np.abs(grad.ravel() - fd)) <= 1e-5


def test_gpc_zero_noise_keeps_parameters_frozen():
    A = np.array([[0.8, 0.1], [0.0, 0.7]])
    B = np.array([[0.0], [1.0]])
    system = LinearSystem.time_invariant(A, B)
    cost = QuadraticCost(Q=np.eye(2), R=np.eye(1))
    controller = GPCController(2, 1, np.zeros((1, 2)), h=4, radius=3.0, step_size=0.2)
    _drive_gpc(controller, system, cost, lambda t: np.zeros(2), T=50)
    assert np.array_equal(controller.Ms, np.zeros_like(controller.Ms))


def test_gpc_loss_is_midpoint_convex():
    rng = np.random.default_rng(44)
    d_x, d_u, h = 2, 1, 2
    A = np.array([[0.6, 0.2], [0.0, 0.5]])
    B = np.array([[0.0], [1.0]])
    system = LinearSystem.time_invariant(A, B)
    cost = QuadraticCost(Q=np.eye(2), R=np.eye(1))
    controller = GPCController(d_x, d_u, np.zeros((1, 2)), h=h, radius=5.0, step_size=0.05)
    _drive_gpc(controller, system, cost, lambda t: rng.uniform(-1, 1, size=2), T=20)
    controller.act(20, rng.uniform(-1, 1, size=2))

    def loss_at(Ms):
        saved = controller.ogd
        _set_Ms(controller, Ms)
        x_cf, u_cf = controller.counterfactuals()
        controller.ogd = saved
        return float(cost.value(x_cf, u_cf))

    shape = controller.Ms.shape
    for _ in range(100):
        Ma = rng.normal(size=shape)
        Mb = rng.normal(size=shape)
        lhs = loss_at(0.5 * (Ma + Mb))
        rhs = 0.5 * (loss_at(Ma) + loss_at(Mb))
        assert lhs <= rhs + 1e-9


def test_gpc_beats_fixed_optimal_gain_on_sinusoidal_noise():
    # Scalar system x' = 0.9 x + u + sin(2 pi t / 50): the learned
    # disturbance-action terms anticipate the correlated noise, which a
    # fixed state-feedback gain cannot, so GPC's cumulative cost is lower.
    a, b, T = 0.9, 1.0, 2000
    A = np.array([[a]])
    B = np.array([[b]])
    system = LinearSystem.time_invariant(A, B)
    cost = QuadraticCost(Q=np.eye(1), R=np.eye(1))
    K = dare_solve(A, B, np.eye(1), np.eye(1)).K
    noise = PerturbationSource.sinusoidal(amplitude=1.0, omega=2.0 * math.pi / 50.0)

    baseline = simulate(system, policy_runner(LinearPolicy(K), system), noise, cost, T, seed=0)
    controller = GPCController(1, 1, K, h=8, radius=2.0, step_size=0.05)
    learned = simulate(system, gpc_runner(controller, system, cost), noise, cost, T, seed=0)
    assert learned.total_cost < baseline.total_cost


def test_gpc_counterfactual_fidelity_improves():
    # |l_t(M^t) - c_t(x_t, u_t)| shrinks as the parameters settle: the
    # second-half average is below the first-half average.
    a, b, T = 0.9, 1.0, 600
    A = np.array([[a]])
    B = np.array([[b]])
    system = LinearSystem.time_invariant(A, B)
    cost = QuadraticCost(Q=np.eye(1), R=np.eye(1))
    K = dare_solve(A, B, np.eye(1), np.eye(1)).K
    noise = PerturbationSource.sinusoidal(amplitude=1.0, omega=2.0 * math.pi / 50.0)
    controller = GPCController(1, 1, K, h=8, radius=2.0, step_size=0.05)
    played = simulate(system, gpc_runner(controller, system, cost), noise, cost, T, seed=0).costs
    gaps = np.array([abs(row["loss"] - played[row["t"]]) for row in controller.telemetry])
    half = len(gaps) // 2
    assert gaps[half:].mean() < gaps[:half].mean()


def test_gpc_projection_and_slowness_hold_under_large_noise():
    rng = np.random.default_rng(9)
    A = np.array([[0.5]])
    B = np.array([[1.0]])
    system = LinearSystem.time_invariant(A, B)
    cost = QuadraticCost(Q=np.eye(1), R=np.eye(1))
    radius = 0.5
    controller = GPCController(1, 1, np.zeros((1, 1)), h=4, radius=radius, step_size=1.0)
    _drive_gpc(controller, system, cost, lambda t: rng.uniform(-1, 1, size=1), T=200)
    for row in controller.telemetry:
        assert row["M_norm"] <= radius + 1e-9


def test_gpc_nonfinite_state_aborts():
    # A non-finite state makes the perturbation that act() recovers from it
    # non-finite, which aborts the run.
    controller = GPCController(1, 1, np.zeros((1, 1)), h=2)
    controller.act(0, np.zeros(1))
    controller.update(0, np.eye(1), np.eye(1), QuadraticCost(np.eye(1), np.eye(1)))
    with pytest.raises(EvaluationError, match="recovered perturbation is non-finite at t=0"):
        controller.act(1, np.array([np.nan]))


def test_gpc_update_requires_act():
    controller = GPCController(1, 1, np.zeros((1, 1)), h=2)
    try:
        controller.update(0, np.eye(1), np.eye(1), QuadraticCost(np.eye(1), np.eye(1)))
        assert False, "expected ConfigurationError"
    except ConfigurationError:
        pass


@pytest.mark.parametrize("kind", ["gpc", "grc"])
def test_learners_default_step_rule(kind):
    # Without a step size the default schedule is AdaGrad-norm with scale
    # radius; with one it is the sqrt schedule; an explicit schedule is
    # taken as named, the sqrt one without a step size at scale radius.
    def ogd(**options):
        if kind == "gpc":
            return GPCController(1, 1, np.zeros((1, 1)), h=2, radius=3.0, **options).ogd
        return GRCController(1, 1, 1, h=2, radius=3.0, **options).ogd

    cases = [
        ({}, ("adagrad", 3.0)),
        ({"step_size": 0.5}, ("sqrt", 0.5)),
        ({"schedule": "sqrt"}, ("sqrt", 3.0)),
        ({"schedule": "adagrad", "step_size": 0.5}, ("adagrad", 0.5)),
        ({"schedule": "constant", "horizon": 16}, ("constant", 0.75)),
    ]
    for options, expected in cases:
        state = ogd(**options)
        assert (state.schedule, state.step_scale) == expected, options


def _learner_run(preset, controller, T=300):
    """The per-step cost bytes and the summary extras of a learner run."""
    report = run_experiment(config_from_preset(preset, controller=controller, horizon=T,
                                               comparator={"kind": "none"}))
    return report.costs.tobytes(), report.extras


@pytest.mark.parametrize("preset, kind", [("scalar-0.9", "gpc"), ("scalar-0.9", "grc"),
                                          ("b747", "gpc")])
def test_named_sqrt_schedule_without_step_size_keeps_the_former_default(preset, kind):
    # The default step was radius / sqrt(t) before AdaGrad-norm became the
    # default; a run that names the sqrt schedule, with no step size, keeps
    # it bit for bit: the same run with the step size set to the radius,
    # which goes through the sqrt schedule as before.
    named = _learner_run(preset, {"kind": kind, "schedule": "sqrt"})
    explicit = _learner_run(preset, {"kind": kind, "schedule": "sqrt", "step_size": 10.0})
    assert named == explicit
    assert named[1]["ogd_last_step_size"] == 10.0 / math.sqrt(300)
    # The default now differs: the AdaGrad step.
    default = _learner_run(preset, {"kind": kind})
    assert default[0] != named[0]
    extras = default[1]
    assert extras["ogd_last_step_size"] == 10.0 / math.sqrt(extras["ogd_grad_norm_sq_sum"])


def test_gpc_constant_schedule_requires_horizon():
    try:
        GPCController(1, 1, np.zeros((1, 1)), h=2, schedule="constant")
        assert False, "expected ConfigurationError"
    except ConfigurationError:
        pass


def test_gpc_counterfactual_losses_stay_exact_on_a_time_varying_plant():
    # A plant that decays fast at t = 0 (A_0 = 0.1) and slowly after (A_t =
    # 0.99): a counterfactual truncated at a depth sized from A_0 alone (24
    # steps) misses most of the response, its losses totalling 15,391
    # against the exact 113,651.  The telemetry loss at every fifth step and
    # the last is the cost of the exact counterfactual_state at the
    # parameters the learner then held.
    T = 600
    system = LinearSystem.time_varying(
        lambda t: (np.array([[0.1 if t == 0 else 0.99]]), np.eye(1), None), 1, 1)
    cost = QuadraticCost(np.eye(1), np.eye(1))
    controller = GPCController(1, 1, np.zeros((1, 1)), h=4, radius=2.0, step_size=0.05)
    runner, held = gpc_runner(controller, system, cost), []

    def callback(t, x, y):
        held.append(controller.Ms.copy())  # what act(t) plays and update(t) scores
        return runner(t, x, y)

    ws = simulate(system, callback, PerturbationSource.gaussian(1.0), cost, T,
                  seed=0).perturbations
    losses = [row["loss"] for row in controller.telemetry]
    assert len(losses) == T
    A_hist = [np.array([[0.99]])] * (T - 2) + [np.array([[0.1]])]
    assert losses[0] == 0.0  # nothing has been played at t = 0
    for t in [*range(1, T - 1, 5), T - 2, T - 1]:
        w_hist = list(ws[:t][::-1])
        x_ref = counterfactual_state(list(held[t]), w_hist, A_hist[T - 1 - t:], [np.eye(1)] * t, t)
        u_ref = sum(M @ w for M, w in zip(held[t], w_hist))
        assert math.isclose(losses[t], float(cost.value(x_ref, np.ravel(u_ref))), rel_tol=1e-12)
    # The total of the first T - 1 losses, which the learner took before it
    # also learned from the last step.
    assert math.isclose(sum(losses[:-1]), 113651.466309737, rel_tol=1e-9)


def test_ogd_step_checks_scale_their_slack_with_the_iterate():
    # With radius 1e6 the iterate reaches ||M|| = 5.1e5 by step 37, where
    # the rounding of point - old point exceeds eta * ||g|| by 1.6e-16
    # relative; an absolute slack of 1e-12 turned that into "OGD iterate
    # moved further than eta * ||g||".  With radius 1e8 and steps that
    # project every point onto the sphere, the rounding of the projected
    # norm exceeded an absolute 1e-9 ("OGD iterate left the ball").
    config = config_from_preset("scalar-0.9", {"kind": "zero"}, horizon=60)
    for radius, step_size in ((1e6, 0.05), (1e8, 1e8)):
        controller = GPCController(1, 1, [[0.0]], h=2, radius=radius, step_size=step_size)
        simulate(config.system, gpc_runner(controller, config.system, config.cost),
                 PerturbationSource.constant([1.0]), config.cost, 60, x0=np.ones(1))
        assert len(controller.telemetry) == 60
    # Every step projects but the first two, whose gradients are zero.
    assert controller.projected_steps == 58
    assert controller.telemetry[-1]["M_norm"] == pytest.approx(1e8, rel=1e-12)


def test_gpc_runner_matches_manual_loop():
    rng = np.random.default_rng(17)
    A = np.array([[0.7, 0.1], [0.0, 0.6]])
    B = np.array([[0.0], [1.0]])
    system = LinearSystem.time_invariant(A, B)
    cost = QuadraticCost(Q=np.eye(2), R=np.eye(1))
    K = np.array([[-0.1, -0.2]])
    ws = rng.uniform(-1, 1, size=(60, 2))
    noise = PerturbationSource.recorded(ws)

    c1 = GPCController(2, 1, K, h=4, radius=2.0, step_size=0.1)
    traj = simulate(system, gpc_runner(c1, system, cost), noise, cost, 60, seed=0)

    c2 = GPCController(2, 1, K, h=4, radius=2.0, step_size=0.1)
    x = np.zeros(2)
    controls = []
    for t in range(60):
        u = c2.act(t, x)
        controls.append(u)
        c2.update(t, A, B, cost)
        x = A @ x + B @ u + ws[t]
    assert np.allclose(traj.controls, np.array(controls), atol=1e-12)


# ---------------------------------------------------------------------------
# GRC
# ---------------------------------------------------------------------------


def _po_system(rng, d_x=3, d_u=2, d_y=2, rho=0.6):
    A = rng.normal(size=(d_x, d_x))
    A *= rho / max(abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(d_x, d_u))
    C = rng.normal(size=(d_y, d_x))
    return A, B, C


def _drive_grc(controller, A, B, C, cost, noise, T):
    """Manual loop for partially observed dynamics; returns ynat history
    (most recent first) and the realized (y, u) pairs."""
    x = np.zeros(A.shape[0])
    ynats: list = []
    pairs = []
    for t in range(T):
        y = C @ x
        u = controller.act(t, y, C)
        ynats.insert(0, controller._window[: controller.d_y].copy())
        pairs.append((y, u))
        controller.update(t, A, B, cost)
        x = A @ x + B @ u + noise(t)
    return ynats, pairs


def test_grc_zero_parameters_reproduce_observation():
    # With the parameters pinned at zero the control is zero, nature's y
    # equals the observation, and the counterfactual observation matches both.
    rng = np.random.default_rng(2)
    A, B, C = _po_system(rng)
    cost = QuadraticCost(Q=np.eye(2), R=np.eye(2))
    controller = GRCController(3, 2, 2, h=3, radius=4.0, step_size=0.0)
    x = np.zeros(3)
    for t in range(40):
        y = C @ x
        u = controller.act(t, y, C)
        assert np.array_equal(u, np.zeros(2))
        y_cf, _ = controller.counterfactuals()
        ynat = controller._window[:2]
        assert np.allclose(ynat, y, atol=1e-12)
        assert np.allclose(y_cf, y, atol=1e-12)
        controller.update(t, A, B, cost)
        x = A @ x + B @ u + rng.uniform(-1, 1, size=3)


def test_grc_gradient_matches_finite_differences():
    rng = np.random.default_rng(55)
    A, B, C = _po_system(rng)
    cost = QuadraticCost(Q=np.diag([1.0, 2.0]), R=np.diag([0.5, 1.0]))
    controller = GRCController(3, 2, 2, h=2, radius=5.0, step_size=0.05)
    noise = lambda t: rng.uniform(-1, 1, size=3)
    _drive_grc(controller, A, B, C, cost, noise, T=12)

    x_probe = rng.uniform(-1, 1, size=3)
    controller.act(12, C @ x_probe, C)
    _, grad = controller.loss_and_gradient(cost)

    def loss_at(flat):
        saved = controller.ogd
        _set_Ms(controller, flat)
        y_cf, u_cf = controller.counterfactuals()
        controller.ogd = saved
        return float(cost.value(y_cf, u_cf))

    flat = controller.Ms.ravel().copy()
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[i] += FD_STEP
        dn[i] -= FD_STEP
        fd[i] = (loss_at(up) - loss_at(dn)) / (2.0 * FD_STEP)
    assert np.max(np.abs(grad.ravel() - fd)) <= 1e-5


def test_grc_loss_is_midpoint_convex_100_pairs():
    rng = np.random.default_rng(66)
    A, B, C = _po_system(rng)
    cost = QuadraticCost(Q=np.eye(2), R=0.5 * np.eye(2))
    controller = GRCController(3, 2, 2, h=2, radius=5.0, step_size=0.05)
    noise = lambda t: rng.uniform(-1, 1, size=3)
    _drive_grc(controller, A, B, C, cost, noise, T=15)
    controller.act(15, C @ rng.uniform(-1, 1, size=3), C)

    def loss_at(Ms):
        saved = controller.ogd
        _set_Ms(controller, Ms)
        y_cf, u_cf = controller.counterfactuals()
        controller.ogd = saved
        return float(cost.value(y_cf, u_cf))

    shape = controller.Ms.shape
    for _ in range(100):
        Ma = rng.normal(size=shape)
        Mb = rng.normal(size=shape)
        assert loss_at(0.5 * (Ma + Mb)) <= 0.5 * (loss_at(Ma) + loss_at(Mb)) + 1e-9


def test_grc_cached_counterfactual_matches_direct_formula():
    # Dual route: the cached Markov-operator path must reproduce the direct
    # expansion y_t(M) = ynat_t + C sum_i [prod A] B u_{t-i}(M) computed with
    # explicit loops over the recorded nature's-y history.
    rng = np.random.default_rng(77)
    A, B, C = _po_system(rng, d_x=3, d_u=2, d_y=2)
    cost = QuadraticCost(Q=np.eye(2), R=np.eye(2))
    controller = GRCController(3, 2, 2, h=2, radius=3.0, step_size=0.08)
    h = 2

    x = np.zeros(3)
    ynats: list = []  # most recent first
    for t in range(30):
        y = C @ x
        u = controller.act(t, y, C)
        ynats.insert(0, controller._window[:2].copy())

        if t >= 1:

            def u_of_M(s_offset):
                # u_{t-i}(M) with ynat index offset i = s_offset.
                total = np.zeros(2)
                for j in range(h + 1):
                    idx = s_offset + j
                    if idx < len(ynats):
                        total += controller.Ms[j] @ ynats[idx]
                return total

            y_direct = ynats[0].copy()
            for i in range(1, t + 1):
                prod = np.eye(3)
                for _ in range(i - 1):
                    prod = A @ prod
                y_direct = y_direct + C @ (prod @ (B @ u_of_M(i)))
            y_cf, u_cf = controller.counterfactuals()
            assert np.allclose(y_cf, y_direct, atol=1e-10)
            u_direct = u_of_M(0)
            assert np.allclose(u_cf, u_direct, atol=1e-12)
            assert np.allclose(u_cf, u, atol=1e-12)

        controller.update(t, A, B, cost)
        x = A @ x + B @ u + rng.uniform(-1, 1, size=3)


def test_grc_rejects_unstable_system():
    controller = GRCController(1, 1, 1, h=1)
    controller.act(0, np.array([0.5]), np.eye(1))
    try:
        controller.update(0, np.array([[1.05]]), np.eye(1), QuadraticCost(np.eye(1), np.eye(1)))
        assert False, "expected ConfigurationError"
    except ConfigurationError:
        pass


def test_grc_learns_to_cancel_structured_noise():
    # On a stable scalar system with sinusoidal perturbations, the learned
    # response terms reduce cumulative (y, u) cost below doing nothing.
    T = 1500
    A = np.array([[0.5]])
    B = np.array([[1.0]])
    C = np.eye(1)
    system = LinearSystem.time_invariant(A, B, C)
    cost = QuadraticCost(Q=np.eye(1), R=0.1 * np.eye(1))
    noise = PerturbationSource.sinusoidal(amplitude=1.0, omega=2.0 * math.pi / 40.0)

    zero = simulate(system, lambda t, x, y: np.zeros(1), noise, cost, T, seed=0)
    # Zero policy keeps x = w-driven; its (y, u) cost equals its state cost.
    controller = GRCController(1, 1, 1, h=6, radius=3.0, step_size=0.1)
    learned = simulate(system, grc_runner(controller, system, cost), noise, cost, T, seed=0)
    # simulate() accumulates cost on the state; with C = I the observation
    # equals the state so the comparison is fair for both runs.
    assert learned.total_cost < zero.total_cost


def test_grc_runner_matches_manual_loop():
    rng = np.random.default_rng(88)
    A, B, C = _po_system(rng, d_x=2, d_u=1, d_y=2, rho=0.5)
    system = LinearSystem.time_invariant(A, B, C)
    cost = QuadraticCost(Q=np.eye(2), R=np.eye(1))
    ws = rng.uniform(-1, 1, size=(40, 2))
    noise = PerturbationSource.recorded(ws)

    c1 = GRCController(2, 1, 2, h=3, radius=2.0, step_size=0.1)
    traj = simulate(system, grc_runner(c1, system, cost), noise, cost, 40, seed=0)

    c2 = GRCController(2, 1, 2, h=3, radius=2.0, step_size=0.1)
    x = np.zeros(2)
    controls = []
    for t in range(40):
        y = C @ x
        u = c2.act(t, y, C)
        controls.append(u)
        c2.update(t, A, B, cost)
        x = A @ x + B @ u + ws[t]
    assert np.allclose(traj.controls, np.array(controls), atol=1e-12)


def test_grc_unstable_time_varying_system_raises_at_the_unstable_step():
    # A_t drifts while stable for t < 7 and jumps above 1 at t = 7: the
    # stability check runs whenever A_t changes, so update(7) raises.
    k = 7
    cost = QuadraticCost(np.eye(1), np.eye(1))
    controller = GRCController(1, 1, 1, h=2, radius=2.0, step_size=0.1)
    for t in range(k):
        controller.act(t, np.array([0.3]), np.eye(1))
        controller.update(t, np.array([[0.5 + 0.05 * t]]), np.eye(1), cost)
    controller.act(k, np.array([0.3]), np.eye(1))
    with pytest.raises(ConfigurationError):
        controller.update(k, np.array([[1.05]]), np.eye(1), cost)


def test_grc_checks_stability_once_for_a_time_invariant_system(monkeypatch):
    calls = []

    def counting(A):
        calls.append(A)
        return float(np.max(np.abs(np.linalg.eigvals(A))))

    monkeypatch.setattr(online_control, "spectral_radius", counting)
    rng = np.random.default_rng(99)
    A, B, C = _po_system(rng)
    cost = QuadraticCost(Q=np.eye(2), R=np.eye(2))
    controller = GRCController(3, 2, 2, h=2, radius=3.0, step_size=0.05)
    _drive_grc(controller, A, B, C, cost, lambda t: rng.uniform(-1, 1, size=3), T=50)
    assert len(calls) == 1


def _escaping_ogd(offset):
    """Stand-in for the OGD kernel the learners step with, whose iterate
    lands ``offset`` away from the ball's centre, whatever the gradient."""

    def fake(point, gradient, factor, out, t, grad_norm_sq_sum, schedule, step_scale, radius):
        out[...] = 0.0
        out[0] = offset
        state = OGDState(out, radius, step_scale, schedule, t + 1)
        return (t + 1, grad_norm_sq_sum, factor * math.sqrt(gradient.dot(gradient)),
                state.step_size(t + 1), offset)

    return fake


def _one_gpc_update(noise):
    controller = GPCController(1, 1, np.zeros((1, 1)), h=2, radius=1.0, step_size=0.1)
    controller.act(0, np.zeros(1))
    controller.update(0, np.eye(1) * 0.5, np.eye(1), QuadraticCost(np.eye(1), np.eye(1)))
    controller.act(1, np.array([noise]))
    controller.update(1, np.eye(1) * 0.5, np.eye(1), QuadraticCost(np.eye(1), np.eye(1)))


def _one_grc_update(noise):
    controller = GRCController(1, 1, 1, h=2, radius=1.0, step_size=0.1)
    controller.act(0, np.array([noise]), np.eye(1))
    controller.update(0, np.eye(1) * 0.5, np.eye(1), QuadraticCost(np.eye(1), np.eye(1)))


@pytest.mark.parametrize("one_update", [_one_gpc_update, _one_grc_update])
def test_ogd_invariants_raise_typed_errors(monkeypatch, one_update):
    # A step that leaves the ball, or moves although the gradient is zero,
    # is rejected with EvaluationError (the checks are not asserts, so they
    # also run under python -O).
    monkeypatch.setattr(online_control, "_ogd_kernel", _escaping_ogd(2.0))
    with pytest.raises(EvaluationError, match="left the ball"):
        one_update(0.7)
    monkeypatch.setattr(online_control, "_ogd_kernel", _escaping_ogd(0.5))
    with pytest.raises(EvaluationError, match="moved further"):
        one_update(0.0)


# ---------------------------------------------------------------------------
# Property tests over random stable time-varying systems
# ---------------------------------------------------------------------------


def _rescaled(A, rho):
    """``A`` scaled to spectral radius ``rho``."""
    return A * (rho / max(float(np.max(np.abs(np.linalg.eigvals(A)))), 1e-12))


def _fd_gradient(controller, loss_at, step=FD_STEP):
    flat = controller.Ms.ravel().copy()
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[i] += step
        dn[i] -= step
        fd[i] = (loss_at(up) - loss_at(dn)) / (2.0 * step)
    return fd


def _assert_gradient_matches_fd(controller, grad, loss_at):
    fd = _fd_gradient(controller, loss_at)
    assert np.max(np.abs(grad.ravel() - fd)) <= 1e-5 * max(1.0, float(np.max(np.abs(fd))))


#: How a time-varying provider hands its matrices to the learner:
#: ``fresh`` new arrays of the time-varying content, ``in-place`` the same
#: array objects overwritten with that content every step, and
#: ``fresh-equal`` new arrays of one fixed content every step.
PROVIDER_MODES = ("fresh", "in-place", "fresh-equal")


def _handed(mode, *content_at):
    """``t -> matrices`` as the learner receives them under ``mode``;
    ``content_at`` gives each matrix's content at step ``t``."""
    if mode != "in-place":
        return lambda t: tuple(at(t) for at in content_at)
    buffers = [np.zeros_like(at(0)) for at in content_at]

    def in_place(t):
        for buffer, at in zip(buffers, content_at):
            buffer[...] = at(t)
        return tuple(buffers)

    return in_place


def _plant_matrix(rng, d, non_normal):
    """A random square matrix, or a non-normal one: a triangular matrix
    whose off-diagonal part dwarfs its eigenvalues (transient growth)."""
    if not non_normal:
        return rng.normal(size=(d, d))
    return np.diag(rng.uniform(-1.0, 1.0, size=d)) + 4.0 * np.triu(rng.normal(size=(d, d)), 1)


def _assert_exact(got, want, magnitude):
    """``got`` equals ``want`` to 1e-12 relative to ``magnitude``, the
    largest sum of absolute terms behind an entry: the scale of the rounding
    of a sum whose terms may cancel."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    bound = 1e-12 * float(np.max(magnitude, initial=0.0))
    assert np.max(np.abs(got - want), initial=0.0) <= bound, (got, want)


def _quadratic_magnitude(cost, z, u):
    """The sum of absolute terms of the quadratic cost at the magnitudes
    ``z`` and ``u``."""
    return z @ np.abs(cost.Q) @ z + u @ np.abs(cost.R) @ u


def _assert_gradient_exact(controller, grad, loss_at, magnitude):
    """``grad`` equals the central differences of the loss at a unit step,
    which are exact for a loss quadratic in ``Ms`` up to the rounding of the
    loss values, at most ``magnitude`` (the loss's absolute terms at ``|Ms|
    + 1``)."""
    _assert_exact(grad.ravel(), _fd_gradient(controller, loss_at, step=1.0), magnitude)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d_x=st.integers(1, 3),
    d_u=st.integers(1, 3),
    h=st.integers(1, 4),
    T=st.integers(1, 24),
    mode=st.sampled_from(PROVIDER_MODES),
    non_normal=st.booleans(),
)
def test_gpc_counterfactuals_and_gradient_match_references(seed, d_x, d_u, h, T, mode,
                                                           non_normal):
    # On random stable plants, time-varying unless fresh-equal, normal or
    # not, the learner's counterfactual pair and loss at every step equal
    # those of the exact counterfactual_state (H_trunc = t) to 1e-12
    # relative, and its gradient equals exact central differences, at the
    # learned parameters and at random ones.
    rng = np.random.default_rng(seed)
    A0 = _rescaled(_plant_matrix(rng, d_x, non_normal), 0.6)
    A1 = 0.1 * rng.normal(size=(d_x, d_x))
    B0, B1 = rng.normal(size=(d_x, d_u)), 0.2 * rng.normal(size=(d_x, d_u))
    K0 = 0.1 * rng.normal(size=(d_u, d_x))
    if mode == "fresh-equal":
        A_at, B_at, K_at = (lambda t: A0.copy()), (lambda t: B0.copy()), (lambda t: K0.copy())
    else:
        A_at = lambda t: A0 + np.sin(0.7 * t) * A1
        B_at = lambda t: B0 + np.cos(0.5 * t) * B1
        K_at = lambda t: (1.0 + 0.2 * np.sin(t)) * K0
    handed = _handed(mode, A_at, B_at)
    L = rng.normal(size=(d_x, d_x))
    cost = QuadraticCost(Q=L @ L.T + 0.1 * np.eye(d_x), R=np.eye(d_u))
    controller = GPCController(d_x, d_u, K_at, h=h, radius=2.0, step_size=0.05)
    ws = rng.uniform(-1, 1, size=(T + 1, d_x))
    A_hist: list = []
    B_hist: list = []
    w_hist: list = []
    x = np.zeros(d_x)

    def reference(Ms, t):
        """``(x_t(M), u_t(M))`` from the exact counterfactual_state."""
        x_ref = counterfactual_state(list(Ms), w_hist, A_hist, B_hist, t)
        u_ref = K_at(t) @ x_ref
        for j in range(1, min(h, t) + 1):
            u_ref = u_ref + Ms[j - 1] @ ws[t - j]
        return x_ref, u_ref

    def magnitudes(Ms, t):
        """The reference on absolute values: the magnitudes of the terms of
        x_t(M), u_t(M) and the loss."""
        x_abs = counterfactual_state([np.abs(M) for M in Ms], [np.abs(w) for w in w_hist],
                                     [np.abs(A) for A in A_hist], [np.abs(B) for B in B_hist], t)
        u_abs = np.abs(K_at(t)) @ x_abs
        for j in range(1, min(h, t) + 1):
            u_abs = u_abs + np.abs(Ms[j - 1]) @ np.abs(ws[t - j])
        return x_abs, u_abs, _quadratic_magnitude(cost, x_abs, u_abs)

    def check(t):
        """The learner's pair and loss at step t against the reference."""
        x_ref, u_ref = reference(controller.Ms, t)
        x_abs, u_abs, loss_abs = magnitudes(controller.Ms, t)
        x_cf, u_cf = controller.counterfactuals()
        _assert_exact(x_cf, x_ref, x_abs)
        _assert_exact(u_cf, u_ref, u_abs)
        loss, _ = controller.loss_and_gradient(cost)
        _assert_exact(loss, cost.value(x_ref, u_ref), loss_abs)

    for t in range(T + 1):
        u = controller.act(t, x)
        if t >= 1:
            check(t)
        if t == T:
            break
        controller.update(t, *handed(t), cost)
        A_hist.insert(0, A_at(t) + B_at(t) @ K_at(t))
        B_hist.insert(0, B_at(t))
        w_hist.insert(0, ws[t])
        x = A_at(t) @ x + B_at(t) @ u + ws[t]
    assert [row["t"] for row in controller.telemetry] == list(range(T))

    def loss_at(flat):
        saved = controller.ogd
        _set_Ms(controller, flat)
        x_cf, u_cf = controller.counterfactuals()
        controller.ogd = saved
        return float(cost.value(x_cf, u_cf))

    for _ in range(2):  # the learned parameters, then random ones
        check(T)
        _, grad = controller.loss_and_gradient(cost)
        magnitude = magnitudes(np.abs(controller.Ms) + 1.0, T)[2]
        _assert_gradient_exact(controller, grad, loss_at, magnitude)
        _set_Ms(controller, rng.normal(size=controller.Ms.shape))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d_x=st.integers(1, 3),
    d_u=st.integers(1, 3),
    d_y=st.integers(1, 3),
    h=st.integers(1, 4),
    T=st.integers(1, 24),
    mode=st.sampled_from(PROVIDER_MODES),
    non_normal=st.booleans(),
)
def test_grc_counterfactuals_and_gradient_match_references(
    seed, d_x, d_u, d_y, h, T, mode, non_normal
):
    # GRC's twin of the GPC test: the counterfactual observation is ynat_t
    # plus C_t times the zero-history rollout of every control M would have
    # played, to 1e-12 relative, on stable plants normal or not.
    rng = np.random.default_rng(seed)
    A0, A1 = _plant_matrix(rng, d_x, non_normal), 0.3 * rng.normal(size=(d_x, d_x))
    B0, C0 = rng.normal(size=(d_x, d_u)), rng.normal(size=(d_y, d_x))
    if mode == "fresh-equal":
        A_fixed = _rescaled(A0, 0.8)
        A_at, B_at, C_at = (lambda t: A_fixed.copy()), (lambda t: B0.copy()), (lambda t: C0.copy())
    else:
        A_at = lambda t: _rescaled(A0 + np.sin(0.7 * t) * A1, 0.8)
        B_at = lambda t: (1.0 + 0.3 * np.cos(0.5 * t)) * B0
        C_at = lambda t: (1.0 + 0.2 * np.sin(0.3 * t)) * C0
    handed = _handed(mode, A_at, B_at, C_at)
    L = rng.normal(size=(d_y, d_y))
    cost = QuadraticCost(Q=L @ L.T + 0.1 * np.eye(d_y), R=np.eye(d_u))
    controller = GRCController(d_x, d_u, d_y, h=h, radius=2.0, step_size=0.05)
    ws = rng.uniform(-1, 1, size=(T + 1, d_x))
    ynats: list = []  # oldest first
    x = np.zeros(d_x)

    def check(t):
        """The learner's pair and loss at step t against the reference."""
        y_ref, u_ref = rollout(controller.Ms, t, lambda M: M)
        y_abs, u_abs = rollout(controller.Ms, t, np.abs)
        y_cf, u_cf = controller.counterfactuals()
        _assert_exact(y_cf, y_ref, y_abs)
        _assert_exact(u_cf, u_ref, u_abs)
        loss, _ = controller.loss_and_gradient(cost)
        _assert_exact(loss, cost.value(y_ref, u_ref), _quadratic_magnitude(cost, y_abs, u_abs))

    def rollout(Ms, t, f):
        """``(y_t(M), u_t(M))``: ynat_t plus C_t times the zero-history
        rollout of every control M would have played; with ``f = np.abs``
        on absolute values, the magnitudes of their terms."""

        def u_of_M(s):
            return sum((f(Ms[j]) @ f(ynats[s - j]) for j in range(min(h, s) + 1)),
                       np.zeros(d_u))

        z = np.zeros(d_x)
        for s in range(t):
            z = f(A_at(s)) @ z + f(B_at(s)) @ u_of_M(s)
        return f(ynats[t]) + f(C_at(t)) @ z, u_of_M(t)

    for t in range(T + 1):
        A_t, B_t, C_t = handed(t)
        u = controller.act(t, C_at(t) @ x, C_t)
        ynats.append(controller._window[:d_y].copy())
        check(t)
        if t == T:
            break
        controller.update(t, A_t, B_t, cost)
        x = A_at(t) @ x + B_at(t) @ u + ws[t]

    def loss_at(flat):
        saved = controller.ogd
        _set_Ms(controller, flat)
        y_cf, u_cf = controller.counterfactuals()
        controller.ogd = saved
        return float(cost.value(y_cf, u_cf))

    for _ in range(2):  # the learned parameters, then random ones
        check(T)
        _, grad = controller.loss_and_gradient(cost)
        y_abs, u_abs = rollout(np.abs(controller.Ms) + 1.0, T, np.abs)
        _assert_gradient_exact(controller, grad, loss_at, _quadratic_magnitude(cost, y_abs, u_abs))
        _set_Ms(controller, rng.normal(size=controller.Ms.shape))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d_x=st.integers(2, 4),
    d_u=st.integers(1, 3),
    d_y=st.integers(1, 3),
    h=st.integers(0, 3),
    T=st.integers(3, 40),
    non_normal=st.booleans(),
)
def test_grc_natures_y_matches_a_zero_control_rollout(seed, d_x, d_u, d_y, h, T, non_normal):
    # Under grc_runner on random stable, time-varying plants, normal or not,
    # seen through fewer outputs than states and started away from zero,
    # each ynat_t the learner reads off its stack equals C_t x0_t, where x0 is
    # the zero-control rollout of the recorded perturbations from x0, to 1e-12
    # relative to the sum of absolute terms; each played u_t is sum_i M_i
    # ynat_{t-i} of the blocks held at t.  The first gradient is zero (J_0 =
    # 0 and u_0 = 0), so the blocks are nonzero from t = 2 on.
    d_y = min(d_y, d_x - 1)
    rng = np.random.default_rng(seed)
    A0, A1 = _plant_matrix(rng, d_x, non_normal), 0.3 * rng.normal(size=(d_x, d_x))
    B0, C0 = rng.normal(size=(d_x, d_u)), rng.normal(size=(d_y, d_x))
    system = LinearSystem.time_varying(
        lambda t: (_rescaled(A0 + np.sin(0.7 * t) * A1, 0.8), (1.0 + 0.3 * np.cos(0.5 * t)) * B0,
                   (1.0 + 0.2 * np.sin(0.3 * t)) * C0),
        d_x, d_u, d_y)
    cost = QuadraticCost(Q=np.eye(d_y), R=0.1 * np.eye(d_u))
    controller = GRCController(d_x, d_u, d_y, h=h, radius=2.0, step_size=0.5)
    played = []  # (ynat_t, the blocks held at t, u_t)
    act = controller.act

    def recording_act(t, y, C_t=None):
        Ms = controller.Ms.copy()
        u = act(t, y, C_t)
        played.append((controller._window[:d_y].copy(), Ms, u.copy()))
        return u

    controller.act = recording_act
    x0 = rng.uniform(-1, 1, size=d_x)
    traj = simulate(system, grc_runner(controller, system, cost), PerturbationSource.gaussian(0.5),
                    QuadraticCost(Q=np.eye(d_x), R=np.eye(d_u)), T, seed=seed % 1000, x0=x0)
    x_nat, x_abs, z_abs = x0, np.abs(x0), np.zeros(d_x)
    for t, (ynat, Ms, u) in enumerate(played):
        A_t, B_t, C_t = system.matrices(t)
        # y_t = C_t x_t and ynat_t = y_t - C_t z_t, where x_t = x0_t + z_t.
        _assert_exact(ynat, C_t @ x_nat, np.abs(C_t) @ (x_abs + 2.0 * z_abs))
        learned = sum((Ms[i] @ played[t - i][0] for i in range(min(h, t) + 1)), np.zeros(d_u))
        _assert_exact(u, learned, sum(np.abs(Ms[i]) @ np.abs(played[t - i][0])
                                      for i in range(min(h, t) + 1)))
        assert np.array_equal(u, traj.controls[t])
        w_t = traj.perturbations[t]
        x_nat = A_t @ x_nat + w_t
        x_abs = np.abs(A_t) @ x_abs + np.abs(w_t)
        z_abs = np.abs(A_t) @ z_abs + np.abs(B_t) @ np.abs(u)
    assert len(played) == T
    assert np.abs(played[-1][1]).max() > 0.0


def _callable_twin(cost):
    """``cost`` as a :class:`CallableCost`, whose ``stage`` calls its value
    and gradient functions row by row.  They price ``d = (z - x*, u)`` with
    the cost's half Hessian ``W``, as the learners price a QuadraticCost:
    the two paths then round alike.  A rounding difference between them
    would grow in the closed loop far beyond 1e-12 where ``eta`` times the
    loss's Hessian exceeds 2, as it does on these plants."""
    W, d_z = cost.half_hessians(None, None), len(cost.Q)
    target = np.zeros(d_z) if cost.target is None else cost.target
    offset = lambda z, u: np.concatenate((z - target, u))
    return CallableCost(lambda z, u: offset(z, u).dot(W.dot(offset(z, u))),
                        lambda z, u: 2.0 * W.dot(offset(z, u))[:d_z],
                        lambda z, u: 2.0 * W.dot(offset(z, u))[d_z:])


def _assert_twins_agree(quadratic, callable_, cost, twin):
    """The two learners' counterfactuals, losses and gradients agree to
    1e-12 (relative to their scale)."""
    for a, b in zip(quadratic.counterfactuals(), callable_.counterfactuals()):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)
    (loss_a, grad_a), (loss_b, grad_b) = (quadratic.loss_and_gradient(cost),
                                          callable_.loss_and_gradient(twin))
    assert math.isclose(loss_a, loss_b, rel_tol=1e-12, abs_tol=1e-12)
    assert np.allclose(grad_a, grad_b, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(grad_a).max()))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d_x=st.integers(1, 3),
    d_u=st.integers(1, 3),
    h=st.integers(1, 4),
    T=st.integers(1, 16),
)
def test_gpc_callable_cost_matches_the_quadratic_path(seed, d_x, d_u, h, T):
    # Twin of test_gpc_counterfactuals_and_gradient_match_references on the
    # callable cost: a learner fed the CallableCost twin of the
    # quadratic cost keeps the quadratic learner's counterfactuals, loss and
    # gradient, and still matches counterfactual_state and finite differences.
    rng = np.random.default_rng(seed)
    A0, A1 = _rescaled(rng.normal(size=(d_x, d_x)), 0.6), 0.1 * rng.normal(size=(d_x, d_x))
    B0, B1 = rng.normal(size=(d_x, d_u)), 0.2 * rng.normal(size=(d_x, d_u))
    K0 = 0.1 * rng.normal(size=(d_u, d_x))
    A_at = lambda t: A0 + np.sin(0.7 * t) * A1
    B_at = lambda t: B0 + np.cos(0.5 * t) * B1
    K_at = lambda t: (1.0 + 0.2 * np.sin(t)) * K0
    L = rng.normal(size=(d_x, d_x))
    cost = QuadraticCost(Q=L @ L.T + 0.1 * np.eye(d_x), R=np.eye(d_u))
    twin = _callable_twin(cost)
    learners = [GPCController(d_x, d_u, K_at, h=h, radius=2.0, step_size=0.05)
                for _ in range(2)]
    ws = rng.uniform(-1, 1, size=(T + 1, d_x))
    A_hist, B_hist, w_hist = [], [], []
    xs = [np.zeros(d_x), np.zeros(d_x)]
    for t in range(T + 1):
        us = [learner.act(t, x) for learner, x in zip(learners, xs)]
        _assert_twins_agree(*learners, cost, twin)
        if t >= 1:
            x_ref = counterfactual_state(list(learners[1].Ms), w_hist, A_hist, B_hist, t)
            assert np.allclose(learners[1].counterfactuals()[0], x_ref, atol=1e-10)
        if t == T:
            break
        for i, (learner, c) in enumerate(zip(learners, (cost, twin))):
            xs[i] = A_at(t) @ xs[i] + B_at(t) @ us[i] + ws[t]
            learner.update(t, A_at(t), B_at(t), c)
        A_hist.insert(0, A_at(t) + B_at(t) @ K_at(t))
        B_hist.insert(0, B_at(t))
        w_hist.insert(0, ws[t])

    def loss_at(flat):
        saved = learners[1].ogd
        _set_Ms(learners[1], flat)
        x_cf, u_cf = learners[1].counterfactuals()
        learners[1].ogd = saved
        return float(twin.value(x_cf, u_cf))

    _assert_gradient_matches_fd(learners[1], learners[1].loss_and_gradient(twin)[1], loss_at)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d_x=st.integers(1, 3),
    d_u=st.integers(1, 3),
    d_y=st.integers(1, 3),
    h=st.integers(1, 4),
    T=st.integers(1, 16),
)
def test_grc_callable_cost_matches_the_quadratic_path(seed, d_x, d_u, d_y, h, T):
    # Twin of test_grc_counterfactuals_and_gradient_match_references on the
    # callable cost, checked against the quadratic learner, the
    # zero-history rollout of every past control, and finite differences.
    rng = np.random.default_rng(seed)
    A0, A1 = rng.normal(size=(d_x, d_x)), 0.3 * rng.normal(size=(d_x, d_x))
    B0, C0 = rng.normal(size=(d_x, d_u)), rng.normal(size=(d_y, d_x))
    A_at = lambda t: _rescaled(A0 + np.sin(0.7 * t) * A1, 0.8)
    B_at = lambda t: (1.0 + 0.3 * np.cos(0.5 * t)) * B0
    C_at = lambda t: (1.0 + 0.2 * np.sin(0.3 * t)) * C0
    L = rng.normal(size=(d_y, d_y))
    cost = QuadraticCost(Q=L @ L.T + 0.1 * np.eye(d_y), R=np.eye(d_u))
    twin = _callable_twin(cost)
    learners = [GRCController(d_x, d_u, d_y, h=h, radius=2.0, step_size=0.05)
                for _ in range(2)]
    ws = rng.uniform(-1, 1, size=(T + 1, d_x))
    ynats: list = []  # of the CallableCost learner, oldest first
    xs = [np.zeros(d_x), np.zeros(d_x)]
    for t in range(T + 1):
        us = [learner.act(t, C_at(t) @ x, C_at(t)) for learner, x in zip(learners, xs)]
        ynats.append(learners[1]._window[:d_y].copy())
        _assert_twins_agree(*learners, cost, twin)
        z = np.zeros(d_x)
        for s in range(t):
            u_s = sum(learners[1].Ms[j] @ ynats[s - j] for j in range(min(h, s) + 1))
            z = A_at(s) @ z + B_at(s) @ u_s
        assert np.allclose(learners[1].counterfactuals()[0], ynats[t] + C_at(t) @ z,
                           atol=1e-10)
        if t == T:
            break
        for i, (learner, c) in enumerate(zip(learners, (cost, twin))):
            learner.update(t, A_at(t), B_at(t), c)
            xs[i] = A_at(t) @ xs[i] + B_at(t) @ us[i] + ws[t]

    def loss_at(flat):
        saved = learners[1].ogd
        _set_Ms(learners[1], flat)
        y_cf, u_cf = learners[1].counterfactuals()
        learners[1].ogd = saved
        return float(twin.value(y_cf, u_cf))

    grad = learners[1].loss_and_gradient(twin)[1]
    _assert_gradient_matches_fd(learners[1], grad, loss_at)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["gpc", "grc"]),
    d_x=st.integers(1, 3),
    d_u=st.integers(1, 3),
    d_y=st.integers(1, 3),
    h=st.integers(1, 4),
    T=st.integers(1, 30),
    with_C=st.booleans(),
)
def test_counterfactual_pair_at_frozen_parameters_is_the_played_pair(
        seed, kind, d_x, d_u, d_y, h, T, with_C):
    # The rule r_t(M) = r_t + P_t Y_t [m; -1].  With the blocks frozen (step
    # size 0) at random values from the first step, and the state started at
    # 0, playing them from the beginning of time is what was played: on
    # random stable time-varying plants, GPC under a provided gain and GRC
    # observing through C_t or the state, counterfactuals() returns the
    # played pair, (x_t, u_t) for GPC and (y_t, u_t) for GRC, to 1e-12
    # relative to the largest entry played so far.
    rng = np.random.default_rng(seed)
    with_C = kind == "grc" and with_C
    d_y = d_y if with_C else d_x
    A0, A1 = rng.normal(size=(d_x, d_x)), 0.3 * rng.normal(size=(d_x, d_x))
    B0, C0, K0 = rng.normal(size=(d_x, d_u)), rng.normal(size=(d_y, d_x)), rng.normal(size=(d_u, d_x))
    A_at = lambda t: _rescaled(A0 + np.sin(0.7 * t) * A1, 0.8)
    B_at = lambda t: (1.0 + 0.3 * np.cos(0.5 * t)) * B0
    C_at = lambda t: (1.0 + 0.2 * np.sin(0.3 * t)) * C0 if with_C else None
    cost = QuadraticCost(np.eye(d_y), np.eye(d_u))
    if kind == "gpc":
        learner = GPCController(d_x, d_u, lambda t: 0.1 * np.cos(t) * K0, h=h, radius=1e3,
                                step_size=0.0)
    else:
        learner = GRCController(d_x, d_u, d_y, h=h, radius=1e3, step_size=0.0)
    Ms = rng.normal(size=learner.Ms.shape)
    learner.ogd = OGDState(Ms.transpose(1, 0, 2).ravel(), radius=1e3, step_scale=0.0)
    x, scale = np.zeros(d_x), 1.0
    for t in range(T):
        if kind == "gpc":
            played = (x, learner.act(t, x))
        else:
            y = x if C_at(t) is None else C_at(t) @ x
            played = (y, learner.act(t, y, C_at(t)))
        scale = max(scale, *(float(np.abs(v).max()) for v in played))
        for got, want in zip(learner.counterfactuals(), played):
            _assert_exact(got, want, scale)
        learner.update(t, A_at(t), B_at(t), cost)
        x = A_at(t) @ x + B_at(t) @ played[1] + rng.uniform(-1, 1, size=d_x)
    assert np.array_equal(learner.Ms, Ms)


@pytest.mark.parametrize("kind", ["gpc", "grc"])
def test_a_second_act_before_update_raises_and_pushes_nothing(kind):
    # act(t) pushes the newest signal into the window.  A second act()
    # before update(t) is a configuration error that leaves the window, the
    # stack and the recorded step as they were: the run then goes on bit for
    # bit as a run without the extra calls.
    A, B = np.array([[0.5, 0.25], [0.0, 0.375]]), np.array([[0.0], [1.0]])
    cost = QuadraticCost(np.eye(2), np.eye(1))

    def learner():
        if kind == "gpc":
            controller = GPCController(2, 1, np.array([[-0.25, 0.0]]), h=2, radius=5.0,
                                       step_size=0.1)
            return controller, lambda t: controller.act(t, np.array([1.0, -0.5 * t]))
        controller = GRCController(2, 1, 2, h=2, radius=5.0, step_size=0.1)
        return controller, lambda t: controller.act(t, np.array([1.0, -0.5 * t]), np.eye(2))

    runs = []
    for repeat in (False, True):
        controller, act = learner()
        for t in range(6):
            act(t)
            if repeat and t >= 3:
                held = (controller._window.copy(), controller._stack.Y.copy(), controller._last)
                for again in (t, t + 1):
                    with pytest.raises(ConfigurationError,
                                       match=rf"act\({t}\) must be followed by update\({t}\)"):
                        act(again)
                assert np.array_equal(controller._window, held[0])
                assert np.array_equal(controller._stack.Y, held[1])
                assert controller._last is held[2]
            controller.update(t, A, B, cost)
        runs.append(controller)
    assert runs[1].telemetry == runs[0].telemetry
    assert np.array_equal(runs[1].ogd.point, runs[0].ogd.point)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["gpc", "grc"]),
    d_x=st.integers(1, 3),
    d_u=st.integers(1, 3),
    d_y=st.integers(1, 3),
    h=st.integers(1, 4),
    T=st.integers(2, 30),
    with_target=st.booleans(),
    with_C=st.booleans(),
    provided_K=st.booleans(),
)
def test_quadratic_cost_path_matches_the_stage_path_in_closed_loop(
        seed, kind, d_x, d_u, d_y, h, T, with_target, with_C, provided_K):
    # The learners price a QuadraticCost from its half Hessian W, and any
    # other cost by stage().  Run in closed loop on a random time-varying
    # plant against the CallableCost twin of the same cost, with a target or
    # without, GPC under a fixed or a provided gain, GRC observing through
    # C_t or the state (C_t = None), the two learners' telemetry losses and
    # gradient norms and their final points agree to 1e-12 relative.
    rng = np.random.default_rng(seed)
    d_y = d_y if kind == "grc" and with_C else d_x
    A0, A1 = rng.normal(size=(d_x, d_x)), 0.3 * rng.normal(size=(d_x, d_x))
    B0, B1 = rng.normal(size=(d_x, d_u)), 0.2 * rng.normal(size=(d_x, d_u))
    C0, K0 = rng.normal(size=(d_y, d_x)), 0.1 * rng.normal(size=(d_u, d_x))
    with_C = kind == "grc" and with_C

    def matrices(t):
        A_t = _rescaled(A0 + np.sin(0.7 * t) * A1, 0.8)
        C_t = (1.0 + 0.2 * np.sin(0.3 * t)) * C0 if with_C else None
        return A_t, B0 + np.cos(0.5 * t) * B1, C_t

    system = LinearSystem.time_varying(matrices, d_x, d_u, d_y)
    L = rng.normal(size=(d_y, d_y))
    cost = QuadraticCost(Q=L @ L.T + 0.1 * np.eye(d_y), R=np.eye(d_u),
                         target=rng.normal(size=d_y) if with_target else None)
    twin = _callable_twin(cost)
    ws = PerturbationSource.recorded(rng.uniform(-1, 1, size=(T, d_x)))
    # The learners take their costs from the runners; simulate prices the
    # played states, which GRC's observation cost does not fit.
    silent = CallableCost(fn=lambda x, u: 0.0, gx=None, gu=None)
    learners = []
    for c in (cost, twin):
        if kind == "gpc":
            K = (lambda t: (1.0 + 0.2 * np.sin(t)) * K0) if provided_K else K0
            learner = GPCController(d_x, d_u, K, h=h, radius=2.0, step_size=0.05)
            runner = gpc_runner(learner, system, c)
        else:
            learner = GRCController(d_x, d_u, d_y, h=h, radius=2.0, step_size=0.05)
            runner = grc_runner(learner, system, c)
        simulate(system, runner, ws, silent, T, x0=np.ones(d_x))
        learners.append(learner)
    quadratic, callable_ = learners
    assert len(quadratic.telemetry) == len(callable_.telemetry) > 0
    for key in ("loss", "grad_norm"):
        got = np.array([row[key] for row in quadratic.telemetry])
        want = np.array([row[key] for row in callable_.telemetry])
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max(initial=0.0))
    point = callable_.ogd.point
    assert np.allclose(quadratic.ogd.point, point, rtol=1e-12,
                       atol=1e-12 * max(1.0, np.abs(point).max()))
    assert quadratic.ogd.grad_norm_sq_sum == pytest.approx(callable_.ogd.grad_norm_sq_sum,
                                                           rel=1e-12)


def _content_learner(kind):
    """A learner of d_x = d_u = 2 (GRC: d_y = 1) and the valid dynamics
    ``(A, B, K)`` (GRC: ``(A, B, C)``), each entry exact in float32."""
    A = np.array([[0.5, 0.25], [0.0, 0.375]])
    B = np.array([[1.0, 0.0], [0.5, 1.0]])
    if kind == "gpc":
        K = np.array([[-0.25, 0.0], [0.0, -0.125]])
        return GPCController(2, 2, K, h=2, radius=1.0, step_size=0.1), (A, B, K)
    C = np.array([[1.0, 0.5]])
    return GRCController(2, 2, 1, h=2, radius=1.0, step_size=0.1), (A, B, C)


def _content_step(controller, t, A, B, third, cost):
    """``act(t)`` and ``update(t)`` with the dynamics ``(A, B)``; ``third``
    is GRC's ``C_t`` (GPC's gain is fixed)."""
    if isinstance(controller, GPCController):
        controller.act(t, np.array([0.5, -0.25]))
    else:
        controller.act(t, np.array([0.5]), third)
    controller.update(t, A, B, cost)


@pytest.mark.parametrize("kind, which", [("gpc", 0), ("gpc", 1), ("grc", 0), ("grc", 1),
                                         ("grc", 2)])
def test_dynamics_of_the_same_bytes_under_a_new_shape_are_rejected(kind, which):
    # The validated dynamics are cached by shape and bytes: a matrix handed
    # again with the same bytes under another shape is validated again, and
    # is a configuration error.
    controller, dynamics = _content_learner(kind)
    cost = QuadraticCost(np.eye(2 if kind == "gpc" else 1), np.eye(2))
    _content_step(controller, 0, *dynamics, cost)
    bad = list(dynamics)
    bad[which] = bad[which].reshape(bad[which].shape[::-1] if which == 2 else (4, 1))
    with pytest.raises(ConfigurationError, match="shape"):
        _content_step(controller, 1, *bad, cost)


@pytest.mark.parametrize("kind", ["gpc", "grc"])
@pytest.mark.parametrize("form", ["float32", "list"])
def test_float32_and_list_dynamics_are_checked_by_content(kind, form):
    # Dynamics handed as float32 arrays or nested lists step the learner as
    # their float64 values do, bit for bit, and an in-place change to them
    # is seen: here a NaN written into the A handed the step before.
    convert = (lambda M: M.astype(np.float32)) if form == "float32" else (lambda M: M.tolist())
    runs = []
    for handed in (lambda M: M, convert):
        controller, dynamics = _content_learner(kind)
        cost = QuadraticCost(np.eye(2 if kind == "gpc" else 1), np.eye(2))
        dynamics = [handed(M) for M in dynamics]
        for t in range(6):
            _content_step(controller, t, *dynamics, cost)
        runs.append((controller, dynamics, cost))
        assert controller.ogd.t == 6
    (reference, *_), (controller, dynamics, cost) = runs
    assert controller.telemetry == reference.telemetry
    assert np.array_equal(controller.ogd.point, reference.ogd.point)
    A = dynamics[0]
    if form == "float32":
        A[0, 0] = np.nan
    else:
        A[0][0] = math.nan
    with pytest.raises(ConfigurationError, match="non-finite"):
        _content_step(controller, 6, A, *dynamics[1:], cost)


@pytest.mark.parametrize("mode", ["fresh", "in-place"])
def test_a_provided_gain_that_changes_rebuilds_the_output_map(mode):
    # The output map P = [[I, 0], [K_t, I]] is cached with the dynamics and
    # rebuilt when the gain's content changes, also when the provider writes
    # each gain into one array: the loss each step takes is the one that
    # loss_and_gradient() prices at the gain just played, which builds its
    # map afresh.
    gains = [np.array([[-0.25, 0.0]]), np.array([[0.0, -0.5]]), np.array([[0.125, 0.25]])]
    K_at = _handed(mode, lambda t: gains[t % 3])
    A, B = np.array([[0.5, 0.25], [0.0, 0.375]]), np.array([[0.0], [1.0]])
    cost = QuadraticCost(np.eye(2), np.eye(1))
    controller = GPCController(2, 1, lambda t: K_at(t)[0], h=2, radius=5.0, step_size=0.1)
    x = np.array([1.0, -0.5])
    for t in range(9):
        u = controller.act(t, x)
        loss, grad = controller.loss_and_gradient(cost)
        x = A @ x + B @ u + np.array([0.1, -0.2])
        controller.update(t, A, B, cost)
        assert controller.telemetry[-1]["loss"] == loss
        assert controller.telemetry[-1]["grad_norm"] == pytest.approx(np.linalg.norm(grad),
                                                                     rel=1e-14)
        assert np.array_equal(controller._dynamics[0][2:, :2], gains[t % 3])


@pytest.mark.parametrize("kind", ["gpc", "grc"])
def test_in_place_mutation_to_nonfinite_dynamics_raises(kind):
    # The validated dynamics are cached by content, so a matrix the caller
    # mutates in place is validated again, and a non-finite entry is caught.
    A, B, C = np.array([[0.5]]), np.eye(1), np.eye(1)
    cost = QuadraticCost(np.eye(1), np.eye(1))
    if kind == "gpc":
        controller = GPCController(1, 1, np.zeros((1, 1)), h=2, radius=1.0, step_size=0.1)
        step = lambda t: (controller.act(t, np.array([0.1])),
                          controller.update(t, A, B, cost))
    else:
        controller = GRCController(1, 1, 1, h=2, radius=1.0, step_size=0.1)
        step = lambda t: (controller.act(t, np.array([0.1]), C),
                          controller.update(t, A, B, cost))
    for t in range(3):
        step(t)
    A[0, 0] = np.nan
    with pytest.raises(ConfigurationError, match="non-finite"):
        step(3)


def test_gpc_step_cost_evaluations_and_fixed_dynamics_validated_once(monkeypatch):
    # simulate() prices the T played pairs in one values() call after the
    # loop and never calls value(); the learner prices its counterfactual
    # loss and gradient from the quadratic cost's own constant half Hessian,
    # so it calls none of the cost's methods; the time-invariant A and B are
    # validated at the first update only.
    T = 40
    config = config_from_preset(
        "b747", controller={"kind": "gpc", "h": 8, "radius": 2.0, "step_size": 0.05},
        horizon=T, seed=0, comparator={"kind": "none"},
    )
    A, B, _ = config.system.matrices(0)
    calls = {"value": 0, "values": 0, "stage": 0, "half_hessians": 0}

    def counted(name):
        original = getattr(QuadraticCost, name)

        def method(self, x, u):
            calls[name] += 1
            return original(self, x, u)

        return method

    validated = []

    def counting(original):
        def as_matrix(M, name, shape=None):
            validated.append(M)
            return original(M, name, shape)

        return as_matrix

    for name in calls:
        monkeypatch.setattr(QuadraticCost, name, counted(name))
    for module in (lds_core, online_control):
        monkeypatch.setattr(module, "_as_matrix", counting(module._as_matrix))
    run_experiment(config)
    # T steps are played and learned from.
    assert calls == {"value": 0, "values": 1, "stage": 0, "half_hessians": 0}
    assert sum(M is A for M in validated) <= 1
    assert sum(M is B for M in validated) <= 1


@pytest.mark.parametrize("wrong", ["gx", "gu"])
def test_wrong_shaped_callable_gradients_raise_typed_errors(wrong):
    # A callable cost whose gradient has the wrong shape for its argument
    # (here (1,) for a 2-state x, or (2,) for a 1-input u) is a configuration
    # error in the learner's update, which would otherwise broadcast it into
    # a wrong step, and in the comparator, which would otherwise fail inside
    # numpy.
    gradients = {"gx": lambda x, u: 2.0 * x, "gu": lambda x, u: 2.0 * u}
    gradients[wrong] = lambda x, u: np.ones(3 - len(u) if wrong == "gu" else 1)
    cost = CallableCost(fn=lambda x, u: float(x @ x + u @ u), **gradients)
    A, B = np.array([[0.5, 0.1], [0.0, 0.4]]), np.array([[0.0], [1.0]])
    K = np.zeros((1, 2))
    controller = GPCController(2, 1, K, h=2, radius=1.0, step_size=0.1)
    controller.act(0, np.array([0.3, -0.2]))
    with pytest.raises(ConfigurationError, match="cost gradients have shapes"):
        controller.update(0, A, B, cost)
    w = np.random.default_rng(0).normal(size=(20, 2))
    with pytest.raises(ConfigurationError, match="cost gradients have shapes"):
        best_dac_in_hindsight(LinearSystem.time_invariant(A, B), cost, K, w, 2)


def test_learner_cost_must_be_a_cost_object_or_a_provider():
    # An object without the cost interface that is not a provider t -> cost
    # either is a configuration error naming the interface.
    controller = GPCController(1, 1, np.zeros((1, 1)), h=1, radius=1.0, step_size=0.1)
    controller.act(0, np.zeros(1))
    with pytest.raises(ConfigurationError, match="value/stage/half_hessians"):
        controller.update(0, np.array([[0.5]]), np.eye(1), 3.0)


def _in_place_problem(calls=None):
    """A stable time-varying system whose provider overwrites one set of
    buffers on every call (appending ``t`` to ``calls``), with its content
    ``A_at``, ``B_at`` and a unit quadratic cost."""
    d_x, d_u = 2, 1
    rng = np.random.default_rng(11)
    A0, A1 = _rescaled(rng.normal(size=(d_x, d_x)), 0.7), 0.2 * rng.normal(size=(d_x, d_x))
    B0, B1 = rng.normal(size=(d_x, d_u)), 0.3 * rng.normal(size=(d_x, d_u))
    A_at = lambda t: A0 + np.sin(0.9 * t) * A1  # noqa: E731
    B_at = lambda t: B0 + np.cos(0.4 * t) * B1  # noqa: E731
    handed = _handed("in-place", A_at, B_at)

    def provider(t):
        if calls is not None:
            calls.append(t)
        return handed(t)

    system = LinearSystem.time_varying(provider, d_x, d_u)
    return system, A_at, B_at, QuadraticCost(np.eye(d_x), np.eye(d_u))


def _closed_loop_runner(kind, system, cost):
    """A ``simulate`` callback: a GPC or GRC learner, or a fixed DAC or DRC
    policy through ``policy_runner``."""
    d_x, d_u = system.d_x, system.d_u
    if kind == "gpc":
        controller = GPCController(d_x, d_u, np.zeros((d_u, d_x)), h=3, radius=2.0,
                                   step_size=0.1)
        return gpc_runner(controller, system, cost)
    if kind == "grc":
        controller = GRCController(d_x, d_u, system.d_y, h=3, radius=2.0, step_size=0.1)
        return grc_runner(controller, system, cost)
    Ms = [0.2 * np.full((d_u, d_x), (-1.0) ** i) for i in range(3)]
    policy = DACPolicy(np.zeros((d_u, d_x)), Ms) if kind == "dac" else DRCPolicy(Ms, d_x)
    return policy_runner(policy, system)


RUNNERS = ["gpc", "grc", "dac", "drc"]


@pytest.mark.parametrize("kind", RUNNERS)
def test_simulate_steps_with_current_matrices_of_an_in_place_provider(kind):
    # The provider overwrites the same buffers on every call, and every
    # runner uses the system's matrices inside the controller callback;
    # simulate() must still step x_t with A_t and B_t.
    T = 30
    system, A_at, B_at, cost = _in_place_problem()
    traj = simulate(system, _closed_loop_runner(kind, system, cost),
                    PerturbationSource.gaussian(0.5), cost, T, seed=3)
    for t in range(T):
        expected = A_at(t) @ traj.states[t] + B_at(t) @ traj.controls[t] + traj.perturbations[t]
        assert np.allclose(traj.states[t + 1], expected, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("kind", RUNNERS)
def test_closed_loop_calls_the_provider_once_per_step(kind, monkeypatch):
    # simulate() and the runner share one fetch per step; a GPC step
    # validates A_t and B_t once on the fetch and once in the learner.
    T, calls, validated = 100, [], []
    system, _, _, cost = _in_place_problem(calls)
    for module in (lds_core, online_control):
        original = module._as_matrix
        monkeypatch.setattr(module, "_as_matrix",
                            lambda M, name, shape=None, original=original:
                            validated.append(name) or original(M, name, shape))
    simulate(system, _closed_loop_runner(kind, system, cost),
             PerturbationSource.gaussian(0.5), cost, T, seed=3)
    assert calls == list(range(T))
    if kind == "gpc":
        assert len(validated) <= 4 * T + 1


@pytest.mark.parametrize("kind", ["gpc", "grc"])
def test_counterfactual_control_follows_parameters_set_through_ogd(kind):
    # Parameters set through ogd between act() and the counterfactual query
    # must reach u_t(M), and the returned u_t(M) must not share memory with
    # the control act() played.
    A, B, C = np.array([[0.5]]), np.eye(1), np.eye(1)
    cost = QuadraticCost(np.eye(1), np.eye(1))
    if kind == "gpc":
        controller = GPCController(1, 1, np.zeros((1, 1)), h=2, radius=5.0, step_size=0.1)
        act = lambda t: controller.act(t, np.array([0.1 * t]))
    else:
        controller = GRCController(1, 1, 1, h=2, radius=5.0, step_size=0.1)
        act = lambda t: controller.act(t, np.array([0.1 * t]), C)
    query = controller.counterfactuals
    for t in range(4):
        act(t)
        controller.update(t, A, B, cost)
    act(4)
    # Entries of the signal window the learned part multiplies, newest first.
    window = controller._window.reshape(len(controller.Ms), -1).copy()
    _set_Ms(controller, np.arange(1.0, len(controller.Ms) + 1).reshape(controller.Ms.shape))
    _, u_cf = query()
    learned = sum(M @ s for M, s in zip(controller.Ms, window))
    if kind == "gpc":
        x_cf, _ = query()
        learned = learned + controller.gain(4) @ x_cf
    assert np.allclose(u_cf, learned, rtol=1e-14, atol=0.0)
    # The pair returned is a fresh array: nothing the learner holds changes.
    u_cf[...] = np.nan
    assert np.isfinite(controller._stack.Y).all()
    assert np.isfinite(controller._last[1]).all() and np.isfinite(controller._last[3]).all()


def test_learners_reject_dynamics_of_the_wrong_shape():
    # Each call below ended in a raw numpy ValueError before the learners
    # checked the shapes of the dynamics they are handed.
    cost = QuadraticCost(Q=np.eye(2), R=np.eye(1))
    with pytest.raises(ConfigurationError, match=r"K has shape \(3, 3\)"):
        GPCController(2, 1, np.ones((3, 3))).act(0, np.zeros(2))
    gpc = GPCController(2, 1, np.zeros((1, 2)))
    gpc.act(0, np.ones(2))
    gpc.update(0, 0.5 * np.eye(2), np.ones((2, 1)), cost)
    gpc.act(1, np.ones(2))
    with pytest.raises(ConfigurationError, match=r"A_t has shape \(3, 3\), expected \(2, 2\)"):
        gpc.update(1, 0.5 * np.eye(3), np.ones((2, 1)), cost)
    with pytest.raises(ConfigurationError, match=r"B_t has shape \(2, 2\), expected \(2, 1\)"):
        gpc.update(1, 0.5 * np.eye(2), np.ones((2, 2)), cost)
    # A provided K_t of the wrong shape used to play a 2-vector for d_u = 1.
    with pytest.raises(ConfigurationError, match=r"K_0 has shape \(2, 2\), expected \(1, 2\)"):
        GPCController(2, 1, lambda t: np.zeros((2, 2))).act(0, np.ones(2))

    # GRC checks C_t in act(), and a rejected act() leaves the learner as it
    # was: the next act() with a valid C_t plays.
    grc = GRCController(3, 1, 2)
    cost = QuadraticCost(Q=np.eye(2), R=np.eye(1))
    for wrong in (np.ones((2, 5)), np.ones((3, 3))):
        with pytest.raises(ConfigurationError, match=r"C_t has shape"):
            grc.act(0, np.ones(2), wrong)
    with pytest.raises(ConfigurationError, match=r"C_t = None observes the state"):
        grc.act(0, np.ones(2), None)
    grc.act(0, np.ones(2), np.ones((2, 3)))
    with pytest.raises(ConfigurationError, match=r"B_t has shape \(3, 2\), expected \(3, 1\)"):
        grc.update(0, 0.5 * np.eye(3), np.ones((3, 2)), cost)
    grc.update(0, 0.5 * np.eye(3), np.ones((3, 1)), cost)
    # act() checks C_t too (tests/test_contracts.py walks the signals' lengths
    # and C_t's shape); a 2-vector observation of a d_y = 1 learner without
    # C_t raised a numpy error at its window.
    with pytest.raises(ConfigurationError, match=r"C_t = None observes the state"):
        GRCController(2, 1, 1).act(0, [1.0, 2.0])


# ---------------------------------------------------------------------------
# The learners' in-place OGD step
# ---------------------------------------------------------------------------


def _time_varying_learner(kind, rng, d_x, d_u, d_y, h, radius, step_size, schedule, T):
    """A learner on a random stable time-varying plant, and ``act(t, x)``
    and ``(A_t, B_t)`` for it: GPC under a provided gain, GRC observing
    through ``C_t`` when ``d_y`` is given, else the state."""
    A0, A1 = rng.normal(size=(d_x, d_x)), 0.3 * rng.normal(size=(d_x, d_x))
    B0, K0 = rng.normal(size=(d_x, d_u)), rng.normal(size=(d_u, d_x))
    C0 = None if d_y is None else rng.normal(size=(d_y, d_x))
    A_at = lambda t: _rescaled(A0 + np.sin(0.7 * t) * A1, 0.8)
    B_at = lambda t: (1.0 + 0.3 * np.cos(0.5 * t)) * B0
    C_at = lambda t: None if C0 is None else (1.0 + 0.2 * np.sin(0.3 * t)) * C0
    options = dict(h=h, radius=radius, step_size=step_size, schedule=schedule, horizon=T)
    if kind == "gpc":
        learner = GPCController(d_x, d_u, lambda t: 0.1 * np.cos(t) * K0, **options)
        act = lambda t, x: learner.act(t, x)
    else:
        learner = GRCController(d_x, d_u, d_x if d_y is None else d_y, **options)
        act = lambda t, x: learner.act(t, x if C0 is None else C_at(t) @ x, C_at(t))
    return learner, act, lambda t: (A_at(t), B_at(t))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["gpc", "grc"]),
    schedule=st.sampled_from(["sqrt", "constant", "adagrad"]),
    radius=st.sampled_from([1e-3, 1e3]),
    d_x=st.integers(1, 3),
    d_u=st.integers(1, 3),
    d_y=st.one_of(st.none(), st.integers(1, 3)),
    h=st.integers(1, 3),
)
def test_learner_iterate_is_bitwise_the_public_ogd_step(
        seed, kind, schedule, radius, d_x, d_u, d_y, h):
    # The learners step their iterate in place through the kernel that
    # ogd_update wraps.  After every update the iterate, its counter and its
    # gradient sum are bit for bit those of ogd_update on the gradient
    # loss_and_gradient gives, from the same state: the learner's factor 2
    # on the half gradient is exact.  The small radius projects the steps.
    T, rng = 25, np.random.default_rng(seed)
    d_y = None if kind == "gpc" else d_y
    learner, act, dynamics = _time_varying_learner(kind, rng, d_x, d_u, d_y, h, radius, 1.0,
                                                   schedule, T)
    cost = QuadraticCost(np.eye(d_x if d_y is None else d_y), np.eye(d_u))
    reference, x = learner.ogd, np.zeros(d_x)
    for t in range(T):
        u = act(t, x)
        gradient = learner.loss_and_gradient(cost)[1]
        reference = ogd_update(reference, gradient.transpose(1, 0, 2))
        learner.update(t, *dynamics(t), cost)
        state = learner.ogd
        assert state.point.tobytes() == reference.point.tobytes()
        assert (state.t, state.grad_norm_sq_sum) == (reference.t, reference.grad_norm_sq_sum)
        assert learner.Ms.tobytes() == reference.point.reshape(
            d_u, len(learner.Ms), -1).transpose(1, 0, 2).tobytes()
        x = dynamics(t)[0] @ x + dynamics(t)[1] @ u + rng.uniform(-1.0, 1.0, size=d_x)
    assert learner.projected_steps > 0 or radius > 1.0


@pytest.mark.parametrize("kind", ["gpc", "grc"])
def test_learner_snapshots_and_views_keep_their_contract(kind):
    # The learner steps its iterate in two buffers that it reuses, so what
    # it has handed out must stay as it was handed out.
    rng = np.random.default_rng(7)
    learner, act, dynamics = _time_varying_learner(kind, rng, 2, 1, None, 2, 5.0, 0.5, None, 40)
    cost, x = QuadraticCost(np.eye(2), np.eye(1)), np.zeros(2)

    def step(t):
        nonlocal x
        u = act(t, x)
        learner.update(t, *dynamics(t), cost)
        x = dynamics(t)[0] @ x + dynamics(t)[1] @ u + rng.uniform(-1.0, 1.0, size=2)

    for t in range(3):
        step(t)
    # An ogd and an Ms read now keep their values through three more
    # updates, enough for a reused buffer to show.
    ogd, Ms = learner.ogd, learner.Ms
    kept = ogd.point.copy(), Ms.copy()
    for t in range(3, 6):
        step(t)
        assert not np.array_equal(learner.Ms, kept[1])
    assert np.array_equal(ogd.point, kept[0]) and np.array_equal(Ms, kept[1])
    assert ogd.t == 3 and learner.ogd.t == 6
    # Parameters set through ogd reach counterfactuals(), and setting the
    # snapshot taken before gives the pair back bit for bit.
    act(6, x)
    before, saved = learner.counterfactuals(), learner.ogd
    _set_Ms(learner, np.full(learner.Ms.shape, 0.25))
    written = learner.counterfactuals()
    assert not all(np.array_equal(a, b) for a, b in zip(written, before))
    learner.ogd = saved
    assert all(np.array_equal(a, b) for a, b in zip(before, learner.counterfactuals()))
    learner.update(6, *dynamics(6), cost)
    # Assigning an OGDState restarts the learner from it: it is played next,
    # and the next step is ogd_update's from it.
    restart = OGDState(np.linspace(-1.0, 1.0, learner.ogd.point.size), radius=5.0,
                       step_scale=0.5, t=2, grad_norm_sq_sum=3.0)
    learner.ogd = restart
    assert np.array_equal(learner.Ms.transpose(1, 0, 2).ravel(), restart.point)
    act(7, x)
    gradient = learner.loss_and_gradient(cost)[1]
    learner.update(7, *dynamics(7), cost)
    expected = ogd_update(restart, gradient.transpose(1, 0, 2))
    assert learner.ogd.point.tobytes() == expected.point.tobytes()
    assert (learner.ogd.t, learner.ogd.grad_norm_sq_sum) == (3, expected.grad_norm_sq_sum)
    with pytest.raises(ConfigurationError, match=r"the OGD point has 3 entries, the learner \d+"):
        learner.ogd = OGDState(np.zeros(3))


def _contract_run(kind, hook=lambda learner, t, when: None):
    """Controls, telemetry and final ``ogd`` of a 30-step learner run on a
    random time-varying plant, calling ``hook(learner, t, when)`` before
    each ``act(t)`` (``when = "act"``) and between it and ``update(t)``
    (``"update"``)."""
    rng = np.random.default_rng(11)
    d_y = None if kind == "gpc" else 1
    learner, act, dynamics = _time_varying_learner(kind, rng, 2, 2, d_y, 2, 5.0, 0.5, None, 30)
    cost, x, controls = QuadraticCost(np.eye(d_y or 2), np.eye(2)), np.zeros(2), []
    for t in range(30):
        hook(learner, t, "act")
        u = act(t, x)
        hook(learner, t, "update")
        learner.update(t, *dynamics(t), cost)
        controls.append(u.tobytes())
        x = dynamics(t)[0] @ x + dynamics(t)[1] @ u + rng.uniform(-1.0, 1.0, size=2)
    ogd = learner.ogd
    return controls, learner.telemetry, (ogd.point.tobytes(), ogd.t, ogd.grad_norm_sq_sum)


@pytest.mark.parametrize("kind", ["gpc", "grc"])
def test_learner_restarted_from_its_own_snapshot_continues_bit_for_bit(kind):
    # Assigning a learner its own ogd mid-run, before an act or between an
    # act and its update, changes nothing: the controls, the telemetry and
    # the iterate are bit for bit those of a run left alone.
    def restart(learner, t, when):
        if (t, when) in {(10, "act"), (15, "update"), (20, "act")}:
            learner.ogd = learner.ogd

    assert _contract_run(kind, restart) == _contract_run(kind)


@pytest.mark.parametrize("kind", ["gpc", "grc"])
def test_learner_parameters_cannot_be_set_through_Ms(kind):
    # Ms is a read-only snapshot: assigning it raises AttributeError and a
    # write into a returned Ms raises ValueError.  Neither, nor a write into
    # a returned ogd's point, changes the parameters, the counterfactual
    # pair or anything the run plays afterwards.
    def write(learner, t, when):
        if (t, when) != (15, "update"):
            return
        Ms, pair = learner.Ms, learner.counterfactuals()
        assert np.any(Ms != 0.0)
        with pytest.raises(AttributeError):
            learner.Ms = np.zeros(Ms.shape)
        with pytest.raises(ValueError):
            Ms[...] = 0.25
        learner.ogd.point[...] = 0.25
        assert learner.Ms.tobytes() == Ms.tobytes()
        assert [v.tobytes() for v in learner.counterfactuals()] == [v.tobytes() for v in pair]

    assert _contract_run(kind, write) == _contract_run(kind)


def test_gpc_plays_its_own_copy_of_a_fixed_gain():
    # GPC keeps a read-only copy of a fixed K: a write into the caller's K
    # after construction changes no control the learner plays.
    K = np.array([[-0.2, -0.5]])
    config = config_from_preset("double-integrator", {"kind": "zero"}, horizon=100)
    controls = []
    for write in (False, True):
        gain = K.copy()
        learner = GPCController(2, 1, gain, h=3, radius=2.0, step_size=0.05)
        if write:
            gain[...] = 7.0
        trajectory = simulate(config.system, gpc_runner(learner, config.system, config.cost),
                              PerturbationSource.gaussian(0.1), config.cost, 100, seed=1)
        controls.append(trajectory.controls.tobytes())
        assert not learner.gain(0).flags.writeable
    assert controls[0] == controls[1]
