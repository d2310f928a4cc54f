"""End-to-end acceptance suite: thirteen numbered release checks.

Each test covers one criterion, prints exactly one
``[criterion NN] <label>: PASS|FAIL`` line, and fails loudly on any
violation.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
every line as it is produced.

Independent oracles used here: adaptive quadrature and a second dense
eigensolver (scipy), central finite differences, offline least squares,
grid and log-linear decay fits, side-by-side simulations, and Monte
Carlo replicas at frozen seeds.
"""

import dataclasses
import math
import os
import tempfile
import time

import numpy as np
import scipy.integrate
import scipy.linalg

from nscontrol.filtering import (
    KalmanState,
    build_Z,
    kalman_steady_state,
    kalman_step,
    mu_vector,
    spectral_basis,
)
from nscontrol.harness import (
    config_from_preset,
    run_experiment,
    write_report_csv,
)
from nscontrol.lds_core import (
    LinearSystem,
    PerturbationSource,
    QuadraticCost,
    simulate,
    spectral_radius,
)
from nscontrol.online_control import (
    GPCController,
    GRCController,
    OGDState,
    ogd_update,
)
from nscontrol.optimal_control import dare_solve, lqr_finite
from nscontrol.policies import (
    GLCPolicy,
    LinearPolicy,
    NaturesYTracker,
    approximation_gap,
    dac_from_linear,
    lift_glc,
    natures_y_step,
    policy_runner,
)
from nscontrol.sysid import (
    BlackBoxSystem,
    estimate_moments,
    excite_and_record,
    identify_then_control,
    recover_AB,
)

GOLDEN = 1.6180340  # positive root of s^2 - s - 1 = 0, to 8 digits
FD_STEP = 1e-6


def _check(failures: list, ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _finish(num: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:02d}] {label}: {status}", flush=True)
    assert not failures, f"criterion {num:02d} ({label}): " + " | ".join(failures)


def _budget(failures: list, elapsed: float, limit: float) -> None:
    _check(failures, elapsed < limit, f"runtime {elapsed:.2f}s exceeds {limit:.0f}s budget")


def _stable_random(rng: np.random.Generator, d: int, radius: float) -> np.ndarray:
    M = rng.standard_normal((d, d))
    return M * (radius / spectral_radius(M))


# ---------------------------------------------------------------------------
# 1-2: fixed-point golden values
# ---------------------------------------------------------------------------


def test_criterion_01_riccati_fixed_point_golden_value():
    failures: list = []
    start = time.perf_counter()
    one = np.eye(1)
    sol = dare_solve(one, one, one, one)
    _check(failures, abs(sol.S[0, 0] - GOLDEN) <= 1e-6, f"S={sol.S[0, 0]!r}")
    _check(failures, abs(sol.K[0, 0] - (-GOLDEN + 1.0)) <= 1e-6, f"K={sol.K[0, 0]!r}")
    _budget(failures, time.perf_counter() - start, 1.0)
    _finish(1, "infinite-horizon Riccati golden value", failures)


def test_criterion_02_kalman_steady_state_golden_value():
    failures: list = []
    start = time.perf_counter()
    one = np.eye(1)
    Sigma, L = kalman_steady_state(one, one, one, one)
    _check(failures, abs(Sigma[0, 0] - GOLDEN) <= 1e-6, f"Sigma={Sigma[0, 0]!r}")
    _check(failures, abs(L[0, 0] - (GOLDEN - 1.0)) <= 1e-6, f"L={L[0, 0]!r}")
    _budget(failures, time.perf_counter() - start, 1.0)
    _finish(2, "Kalman steady-state golden value", failures)


# ---------------------------------------------------------------------------
# 3: Gram matrix of impulse-response curves
# ---------------------------------------------------------------------------


def test_criterion_03_gram_matrix_exactness_and_decay():
    failures: list = []
    start = time.perf_counter()

    T = 10
    Z = build_Z(T)
    worst = 0.0
    for i in range(T):
        for j in range(i, T):
            integral, _ = scipy.integrate.quad(
                lambda a: mu_vector(a, T)[i] * mu_vector(a, T)[j], 0.0, 1.0
            )
            worst = max(worst, abs(Z[i, j] - integral))
    _check(failures, worst <= 1e-10, f"Z_10 vs quadrature: max err {worst:.3e}")

    basis = spectral_basis(30, 20)
    reference = np.sort(scipy.linalg.eigh(build_Z(30), eigvals_only=True))[::-1]
    eig_err = float(np.max(np.abs(basis.eigenvalues - reference[:20])))
    _check(failures, eig_err <= 1e-10, f"Z_30 eigenvalues vs dense solver: {eig_err:.3e}")
    ratio = basis.eigenvalues[14] / basis.eigenvalues[0]
    _check(failures, ratio <= 1e-6, f"sigma_15/sigma_1 = {ratio:.3e}")

    _budget(failures, time.perf_counter() - start, 5.0)
    _finish(3, "Gram matrix quadrature match and eigenvalue decay", failures)


# ---------------------------------------------------------------------------
# 4: backward recursion base case
# ---------------------------------------------------------------------------


def test_criterion_04_finite_horizon_terminal_conditions():
    failures: list = []
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 2))
    Q = np.diag([2.0, 1.0, 3.0])
    R = np.eye(2)
    sol = lqr_finite(A, B, Q, R, T=6)
    _check(failures, np.array_equal(sol.S[-1], Q), "terminal value matrix is not Q")
    _check(failures, np.all(sol.K[-1] == 0.0), "terminal gain is not exactly zero")
    _finish(4, "finite-horizon recursion base case exact", failures)


# ---------------------------------------------------------------------------
# 5: window-of-states controller equals its lifted linear form
# ---------------------------------------------------------------------------


def test_criterion_05_glc_lifting_exact():
    failures: list = []
    rng = np.random.default_rng(5)
    T = 30
    for instance in range(20):
        d_x = 2 + instance % 2
        d_u = 1 + instance % 2
        h = 1 + instance % 3
        A = _stable_random(rng, d_x, 0.8)
        B = rng.standard_normal((d_x, d_u))
        B /= max(1.0, np.linalg.norm(B, 2))
        system = LinearSystem.time_invariant(A, B)
        # Small window gains keep the closed loop bounded so the absolute
        # 1e-10 comparison is meaningful over the whole horizon.
        scale = 0.1 / (h + 1)
        glc = GLCPolicy([scale * rng.standard_normal((d_u, d_x)) for _ in range(h + 1)])
        ws = rng.standard_normal((T, d_x))
        cost = QuadraticCost(np.eye(d_x), np.eye(d_u))

        traj = simulate(
            system,
            policy_runner(glc, system),
            PerturbationSource.recorded(ws),
            cost,
            T,
            seed=0,
        )
        lifted = lift_glc(system, glc)
        lifted_traj = simulate(
            lifted.system,
            policy_runner(LinearPolicy(lifted.K_tilde), lifted.system),
            PerturbationSource.recorded(ws @ lifted.noise_embedding.T),
            QuadraticCost(np.eye(lifted.system.d_x), np.eye(lifted.system.d_u)),
            T,
            seed=0,
        )
        state_gap = float(np.max(np.abs(lifted_traj.states[:, :d_x] - traj.states)))
        control_gap = float(np.max(np.abs(lifted_traj.controls - traj.controls)))
        _check(failures, state_gap < 1e-10, f"instance {instance}: state gap {state_gap:.3e}")
        _check(
            failures, control_gap < 1e-10, f"instance {instance}: control gap {control_gap:.3e}"
        )
    _finish(5, "lifted linear system reproduces window controller", failures)


# ---------------------------------------------------------------------------
# 6: zero-control counterfactual observation
# ---------------------------------------------------------------------------


def test_criterion_06_natures_y_formulas_agree():
    failures: list = []
    rng = np.random.default_rng(6)
    T, d_x, d_u, d_y = 20, 3, 2, 2
    for instance in range(20):
        As = [0.5 * rng.standard_normal((d_x, d_x)) for _ in range(T)]
        Bs = [rng.standard_normal((d_x, d_u)) for _ in range(T)]
        Cs = [rng.standard_normal((d_y, d_x)) for _ in range(T)]
        us = [rng.standard_normal(d_u) for _ in range(T)]
        ws = [rng.standard_normal(d_x) for _ in range(T)]

        x = np.zeros(d_x)
        tracker = NaturesYTracker(d_x)
        for t in range(T):
            y = Cs[t] @ x
            recursive = natures_y_step(tracker, As[t], Bs[t], Cs[t], us[t], y)
            # Direct sum: subtract every control's propagated contribution.
            accum = np.zeros(d_x)
            for i in range(1, t + 1):
                prod = np.eye(d_x)
                for j in range(1, i):
                    prod = prod @ As[t - j]
                accum += prod @ Bs[t - i] @ us[t - i]
            direct = y - Cs[t] @ accum
            gap = float(np.max(np.abs(recursive - direct)))
            _check(
                failures, gap < 1e-10, f"instance {instance}, t={t}: gap {gap:.3e}"
            )
            x = As[t] @ x + Bs[t] @ us[t] + ws[t]
    _finish(6, "recursive and direct-sum counterfactual observations agree", failures)


# ---------------------------------------------------------------------------
# 7: disturbance-action approximation of a linear policy
# ---------------------------------------------------------------------------


def test_criterion_07_dac_approximates_linear_policy():
    failures: list = []
    rng = np.random.default_rng(7)
    d_x, d_u, h, T = 3, 2, 40, 200

    checked = 0
    for trial in range(6):
        A = _stable_random(rng, d_x, 0.8)
        K = 0.3 * rng.standard_normal((d_u, d_x))
        K /= max(1.0, np.linalg.norm(K, 2))
        B = rng.standard_normal((d_x, d_u))
        B /= max(1.0, np.linalg.norm(B, 2))
        closed = A + B @ K
        rho = spectral_radius(closed)
        if rho >= 0.95:
            continue
        checked += 1
        # Measured decay constants: ||closed^i|| <= kappa_0 (1-delta)^i.
        delta = 1.0 - rho
        kappa = max(1.0, np.linalg.norm(K, 2))
        power = np.eye(d_x)
        for i in range(200):
            kappa = max(kappa, np.linalg.norm(power, 2) / (1.0 - delta) ** i)
            power = power @ closed

        system = LinearSystem.time_invariant(A, B)
        ws = np.array(
            [
                PerturbationSource.sinusoidal(
                    amplitude=1.0 / math.sqrt(d_x),
                    omega=0.7,
                    phase=np.arange(d_x),
                    clip_to_unit_ball=True,
                ).sample(t, d_x, rng)
                for t in range(T)
            ]
        )
        replay = PerturbationSource.recorded(ws)
        cost = QuadraticCost(np.eye(d_x), np.eye(d_u))
        lin = simulate(system, policy_runner(LinearPolicy(K), system), replay, cost, T, seed=0)
        dac = dac_from_linear(A, B, K, h)
        dact = simulate(system, policy_runner(dac, system), replay, cost, T, seed=0)
        gap = float(np.max(np.linalg.norm(dact.controls - lin.controls, axis=1)))
        bound = kappa * math.exp(-delta * h) / delta
        _check(
            failures,
            gap <= bound,
            f"trial {trial}: gap {gap:.3e} exceeds kappa e^(-delta h)/delta = {bound:.3e}",
        )
    _check(failures, checked >= 3, f"only {checked} stable instances drawn")

    # Log-linear decay of the gap as the memory h grows.
    system = LinearSystem.time_invariant([[0.9]], [[1.0]])
    cost = QuadraticCost(np.eye(1), np.eye(1))
    K = [[-0.5]]
    hs = np.arange(1, 11)
    gaps = [
        approximation_gap(
            LinearPolicy(K),
            dac_from_linear([[0.9]], [[1.0]], K, h=int(h)),
            system,
            PerturbationSource.uniform_ball(),
            cost,
            T=300,
        )
        for h in hs
    ]
    logs = np.log(np.array(gaps))
    slope, intercept = np.polyfit(hs, logs, 1)
    fitted = slope * hs + intercept
    r_squared = 1.0 - float(np.sum((logs - fitted) ** 2) / np.sum((logs - logs.mean()) ** 2))
    _check(failures, slope < 0.0, f"gap-vs-h slope {slope:.3f} is not negative")
    _check(failures, r_squared > 0.95, f"gap-vs-h log fit R^2 {r_squared:.4f} <= 0.95")
    _finish(7, "disturbance-action policies approximate linear feedback", failures)


# ---------------------------------------------------------------------------
# 8: online controller gradients and convexity
# ---------------------------------------------------------------------------


def _set_Ms(learner, flat: np.ndarray) -> None:
    """Set the learner's parameters to the blocks ``flat`` (``Ms`` order,
    raveled) by assigning an ``OGDState`` whose point holds them in ``(d_u,
    len(Ms), d_s)`` order."""
    Ms = flat.reshape(learner.Ms.shape)
    learner.ogd = dataclasses.replace(learner.ogd, point=Ms.transpose(1, 0, 2).ravel())


def _fd_gradient(loss_at, flat: np.ndarray) -> np.ndarray:
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[i] += FD_STEP
        dn[i] -= FD_STEP
        fd[i] = (loss_at(up) - loss_at(dn)) / (2.0 * FD_STEP)
    return fd


def test_criterion_08_online_controller_gradients_and_convexity():
    failures: list = []
    rng = np.random.default_rng(8)

    # State-feedback learner on random two-dimensional instances.  Unit-norm
    # B and a stable closed loop keep the loss magnitude moderate, so the
    # finite-difference roundoff stays well inside the 1e-5 tolerance.
    checked = 0
    while checked < 5:
        A = _stable_random(rng, 2, 0.7)
        B = rng.standard_normal((2, 2))
        B /= max(1.0, np.linalg.norm(B, 2))
        K = 0.2 * rng.standard_normal((2, 2))
        if spectral_radius(A + B @ K) >= 0.9:
            continue
        checked += 1
        instance = checked
        cost = QuadraticCost(np.diag(rng.uniform(0.5, 2.0, size=2)), np.diag(rng.uniform(0.5, 2.0, size=2)))
        controller = GPCController(2, 2, K, h=3, radius=5.0, step_size=0.02)
        x = np.zeros(2)
        for t in range(15):
            u = controller.act(t, x)
            controller.update(t, A, B, cost)
            x = A @ x + B @ u + rng.uniform(-1.0, 1.0, size=2)
        controller.act(15, x)
        _, grad = controller.loss_and_gradient(cost)

        def gpc_loss_at(flat):
            saved = controller.ogd
            _set_Ms(controller, flat)
            x_cf, u_cf = controller.counterfactuals()
            controller.ogd = saved
            return float(cost.value(x_cf, u_cf))

        err = float(np.max(np.abs(grad.ravel() - _fd_gradient(gpc_loss_at, controller.Ms.ravel().copy()))))
        _check(failures, err <= 1e-5, f"state-feedback instance {instance}: gradient err {err:.3e}")

        convex_ok = all(
            gpc_loss_at(0.5 * (Ma + Mb).ravel())
            <= 0.5 * (gpc_loss_at(Ma.ravel()) + gpc_loss_at(Mb.ravel())) + 1e-9
            for Ma, Mb in (
                (rng.normal(size=controller.Ms.shape), rng.normal(size=controller.Ms.shape))
                for _ in range(100)
            )
        )
        _check(failures, convex_ok, f"state-feedback instance {instance}: midpoint convexity broken")

    # Observation-feedback learner on random two-dimensional instances.
    for instance in range(5):
        A = _stable_random(rng, 2, 0.6)
        B = rng.standard_normal((2, 2))
        B /= max(1.0, np.linalg.norm(B, 2))
        C = rng.standard_normal((2, 2))
        cost = QuadraticCost(np.eye(2), 0.5 * np.eye(2))
        controller = GRCController(2, 2, 2, h=2, radius=5.0, step_size=0.05)
        x = np.zeros(2)
        for t in range(12):
            y = C @ x
            u = controller.act(t, y, C)
            controller.update(t, A, B, cost)
            x = A @ x + B @ u + rng.uniform(-1.0, 1.0, size=2)
        controller.act(12, C @ x, C)
        _, grad = controller.loss_and_gradient(cost)

        def grc_loss_at(flat):
            saved = controller.ogd
            _set_Ms(controller, flat)
            y_cf, u_cf = controller.counterfactuals()
            controller.ogd = saved
            return float(cost.value(y_cf, u_cf))

        err = float(np.max(np.abs(grad.ravel() - _fd_gradient(grc_loss_at, controller.Ms.ravel().copy()))))
        _check(failures, err <= 1e-5, f"observation-feedback instance {instance}: gradient err {err:.3e}")

        convex_ok = all(
            grc_loss_at(0.5 * (Ma + Mb).ravel())
            <= 0.5 * (grc_loss_at(Ma.ravel()) + grc_loss_at(Mb.ravel())) + 1e-9
            for Ma, Mb in (
                (rng.normal(size=controller.Ms.shape), rng.normal(size=controller.Ms.shape))
                for _ in range(100)
            )
        )
        _check(failures, convex_ok, f"observation-feedback instance {instance}: midpoint convexity broken")

    _finish(8, "analytic gradients match finite differences; losses convex", failures)


# ---------------------------------------------------------------------------
# 9: average regret shrinks with the horizon
# ---------------------------------------------------------------------------


def test_criterion_09_average_regret_shrinks_with_horizon():
    failures: list = []
    start = time.perf_counter()

    gpc = {"kind": "gpc", "h": 8, "radius": 2.0, "step_size": 0.05}
    grc = {"kind": "grc", "h": 6, "radius": 3.0, "step_size": 0.1}
    noises = {
        "sinusoidal": lambda: PerturbationSource.sinusoidal(amplitude=1.0, omega=1.0),
        "iid-gaussian": lambda: PerturbationSource.gaussian(0.3),
    }

    def mean_avg_regret(preset, controller, noise_key, T):
        values = []
        for seed in range(5):
            config = config_from_preset(
                preset,
                controller=controller,
                horizon=T,
                seed=seed,
                perturbation=noises[noise_key](),
            )
            values.append(run_experiment(config).final_avg_regret)
        return float(np.mean(values))

    for preset in ("scalar-0.9", "double-integrator"):
        for noise_key in noises:
            low = mean_avg_regret(preset, gpc, noise_key, 500)
            high = mean_avg_regret(preset, gpc, noise_key, 2000)
            _check(
                failures,
                high < low,
                f"state-feedback learner on {preset}/{noise_key}: {low:.5f} -> {high:.5f}",
            )
    for noise_key in noises:
        low = mean_avg_regret("scalar-0.9", grc, noise_key, 500)
        high = mean_avg_regret("scalar-0.9", grc, noise_key, 2000)
        _check(
            failures,
            high < low,
            f"observation-feedback learner on scalar-0.9/{noise_key}: {low:.5f} -> {high:.5f}",
        )

    # The adaptive learner beats the fixed Riccati gain under correlated noise.
    def total_cost(controller):
        config = config_from_preset(
            "scalar-0.9",
            controller=controller,
            horizon=2000,
            seed=0,
            comparator={"kind": "none"},
            perturbation=noises["sinusoidal"](),
        )
        return run_experiment(config).total_cost

    adaptive = total_cost(gpc)
    fixed = total_cost({"kind": "lqr"})
    _check(
        failures,
        adaptive < fixed,
        f"adaptive total {adaptive:.2f} not below fixed-gain total {fixed:.2f}",
    )

    _budget(failures, time.perf_counter() - start, 120.0)
    _finish(9, "average regret decreases from T=500 to T=2000", failures)


# ---------------------------------------------------------------------------
# 10: identification pipeline
# ---------------------------------------------------------------------------


def test_criterion_10_identification_pipeline():
    failures: list = []

    # (a) Memoryless dynamics, one control channel, no noise: the zeroth
    # moment and the recovered control matrix equal B bit-for-bit.
    B = np.array([[1.25], [-0.75]])
    box = BlackBoxSystem(LinearSystem.time_invariant(np.zeros((2, 2)), B))
    record = excite_and_record(box, k=1, T0=37, seed=11)
    estimates = estimate_moments(record, k=1, T0=37)
    _check(failures, np.array_equal(estimates.moments[0], B), "zeroth moment is not exactly B")
    _check(
        failures,
        np.array_equal(recover_AB(estimates).B_hat, B),
        "recovered control matrix is not exactly B",
    )

    # (b) Scalar (0.5, 1): moments within 0.05 of 0.5^j at T0 = 5e4.
    scalar = LinearSystem.time_invariant([[0.5]], [[1.0]])
    box = BlackBoxSystem(scalar, seed=0)
    record = excite_and_record(box, k=2, T0=50_000, seed=1)
    estimates = estimate_moments(record, k=2, T0=50_000)
    for j in range(3):
        err = abs(estimates.moments[j][0, 0] - 0.5**j)
        _check(failures, err <= 0.05, f"scalar moment {j}: err {err:.4f} > 0.05")

    # (c) Quadrupling the sample count halves the moment error (+-50%).
    means = {}
    for n in (2000, 8000):
        errors = []
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            M = rng.standard_normal((2, 2))
            A = 0.7 * M / max(1.0, np.max(np.abs(np.linalg.eigvals(M))))
            Bmat = rng.standard_normal((2, 1))
            system = LinearSystem.time_invariant(A, Bmat)
            bb = BlackBoxSystem(system, PerturbationSource.gaussian(0.3), seed=seed)
            rec = excite_and_record(bb, 1, n, seed=seed)
            est = estimate_moments(rec, 1, n)
            errors.append(
                float(np.linalg.norm(est.moments[0] - Bmat))
                + float(np.linalg.norm(est.moments[1] - A @ Bmat))
            )
        means[n] = float(np.mean(errors))
    ratio = means[2000] / means[8000]
    _check(failures, 1.0 <= ratio <= 3.0, f"error ratio {ratio:.3f} outside [1.0, 3.0]")

    # (d) Explore-then-learn control: average regret drops with the budget.
    system = LinearSystem.time_invariant([[0.9]], [[1.0]])
    cost = QuadraticCost(np.eye(1), np.eye(1))
    regrets = {}
    for T in (1000, 8000):
        values = []
        for seed in range(5):
            bb = BlackBoxSystem(system, PerturbationSource.gaussian(0.3), seed=seed)
            report = identify_then_control(
                bb, T, cost=cost, k=1, h=5, radius=2.0, step_size=0.1, seed=seed
            )
            values.append(report.final_avg_regret)
        regrets[T] = float(np.mean(values))
    _check(
        failures,
        regrets[8000] < regrets[1000],
        f"pipeline regret {regrets[1000]:.4f} -> {regrets[8000]:.4f} did not decrease",
    )

    _finish(10, "moment identification and explore-then-learn control", failures)


# ---------------------------------------------------------------------------
# 11: filter optimality against an offline linear fit
# ---------------------------------------------------------------------------


def test_criterion_11_kalman_beats_offline_linear_predictor():
    failures: list = []
    rng = np.random.default_rng(11)
    a, b, T = 0.9, 0.5, 100_000
    u = 0.8 * np.sin(2.0 * math.pi * np.arange(T) / 40.0)
    w = rng.normal(size=T)
    v = rng.normal(size=T)
    x = np.zeros(T + 1)
    for t in range(T):
        x[t + 1] = a * x[t] + b * u[t] + w[t]
    y = x[:T] + v

    one = np.eye(1)
    A = np.array([[a]])
    Bmat = np.array([[b]])
    state = KalmanState(x_hat=np.zeros(1), Sigma=one)
    predictions = np.zeros(T)
    warmup = 60
    for t in range(warmup):
        predictions[t] = state.x_hat[0]
        state = kalman_step(state, A, Bmat, one, one, one, u=u[t : t + 1], y=y[t : t + 1])
    _, L = kalman_steady_state(A, one, one, one)
    gain = float(L[0, 0])
    xh = float(state.x_hat[0])
    for t in range(warmup, T):
        predictions[t] = xh
        xh = (a - gain) * xh + gain * y[t] + b * u[t]

    # Offline least squares on ten observation lags and ten input lags.
    lags = 10
    rows = T - lags
    design = np.empty((rows, 2 * lags))
    for i in range(lags):
        design[:, i] = y[lags - 1 - i : T - 1 - i]
        design[:, lags + i] = u[lags - i : T - i]
    target = y[lags:]
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    mse_offline = float(np.mean((design @ coef - target) ** 2))
    mse_kalman = float(np.mean((predictions[lags:] - target) ** 2))
    _check(
        failures,
        mse_kalman <= mse_offline * 1.01,
        f"filter MSE {mse_kalman:.5f} > 1.01 x offline MSE {mse_offline:.5f}",
    )
    _finish(11, "filter matches the best offline linear predictor within 1%", failures)


# ---------------------------------------------------------------------------
# 12: projected gradient descent regret bound
# ---------------------------------------------------------------------------


def test_criterion_12_ogd_regret_bound():
    failures: list = []
    for T in (100, 1000):
        rng = np.random.default_rng(12 + T)
        d = 4
        R = 1.5
        G = 2.0
        state = OGDState(point=np.zeros(d), radius=R, step_scale=2.0 * R / G)
        grads = []
        played = 0.0
        for t in range(T):
            g = rng.uniform(-1.0, 1.0, size=d)
            g *= G / max(float(np.linalg.norm(g)), 1e-12)
            if t % 3 == 0 and t > 0:
                g = -G * state.point / max(float(np.linalg.norm(state.point)), 1e-12)
            played += float(g @ state.point)
            grads.append(g)
            state = ogd_update(state, g)
        best_fixed = -R * float(np.linalg.norm(np.sum(grads, axis=0)))
        regret = played - best_fixed
        bound = 3.0 * G * (2.0 * R) * math.sqrt(T)
        _check(failures, regret <= bound, f"T={T}: regret {regret:.2f} > bound {bound:.2f}")
    _finish(12, "projected gradient descent meets the 3GD*sqrt(T) bound", failures)


# ---------------------------------------------------------------------------
# 13: reruns are byte-identical
# ---------------------------------------------------------------------------


def test_criterion_13_reruns_are_byte_identical():
    failures: list = []
    with tempfile.TemporaryDirectory() as tmp:
        kwargs = dict(
            controller={"kind": "gpc", "h": 4, "radius": 2.0, "step_size": 0.05},
            horizon=150,
            seed=12,
        )
        paths = []
        for name in ("first", "second"):
            out = os.path.join(tmp, name)
            run_experiment(config_from_preset("scalar-0.9", out_dir=out, **kwargs))
            paths.append(os.path.join(out, "report.csv"))
        with open(paths[0], "rb") as fh:
            first = fh.read()
        with open(paths[1], "rb") as fh:
            second = fh.read()
        _check(failures, len(first) > 0, "experiment wrote an empty report")
        _check(failures, first == second, "experiment rerun changed the report bytes")

        system = LinearSystem.time_invariant([[0.9]], [[1.0]])
        cost = QuadraticCost(np.eye(1), np.eye(1))
        blobs = []
        for name in ("sysid-first", "sysid-second"):
            box = BlackBoxSystem(system, PerturbationSource.gaussian(0.3), seed=3)
            report = identify_then_control(
                box, 600, cost=cost, k=1, h=5, radius=2.0, step_size=0.1, seed=3
            )
            path = os.path.join(tmp, f"{name}.csv")
            write_report_csv(report, path)
            with open(path, "rb") as fh:
                blobs.append(fh.read())
        _check(failures, blobs[0] == blobs[1], "identification rerun changed the report bytes")
    _finish(13, "identical seeds reproduce identical artifacts", failures)
