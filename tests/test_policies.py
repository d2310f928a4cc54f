"""Tests for the policy classes, conversion maps, nature's-y recursion,
and the approximation-gap meter.

Oracles: hand evaluation of the control rules, direct-sum formula for
nature's y, side-by-side simulation for the lifting, and measured decay
constants for the approximation bounds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nscontrol.errors import ConfigurationError
from nscontrol.lds_core import (
    LinearSystem,
    PerturbationSource,
    QuadraticCost,
    simulate,
    spectral_radius,
)
from nscontrol.policies import (
    BangBangPolicy,
    DACPolicy,
    DRCPolicy,
    GLCPolicy,
    LDCPolicy,
    LinearPolicy,
    NaturesYTracker,
    PIDPolicy,
    act,
    approximation_gap,
    dac_from_linear,
    glc_from_ldc,
    lift_glc,
    natures_y_step,
    policy_runner,
)


def specnorm(M):
    return np.linalg.norm(M, 2)


def stable_random(rng, d, radius):
    M = rng.standard_normal((d, d))
    return M * (radius / spectral_radius(M))


# ---------------------------------------------------------------------------
# act: basic rules
# ---------------------------------------------------------------------------


def test_linear_policy_and_budget():
    pol = LinearPolicy([[1.0, -2.0]])
    assert np.allclose(act(pol, {"state": [3.0, 1.0]}), [1.0])
    with pytest.raises(ConfigurationError):
        LinearPolicy(np.ones((2, 2)), kappa=1.0)  # Frobenius norm 2 > 1


def test_dac_reduces_to_linear_when_Ms_zero():
    K = np.array([[0.5, -1.0]])
    pol = DACPolicy(K, [np.zeros((1, 2)), np.zeros((1, 2))])
    pol.push_perturbation([1.0, 1.0])
    x = np.array([2.0, 1.0])
    assert np.allclose(pol.act(x, t=5), K @ x)


def test_dac_scalar_hand_value():
    # h=1, K=0, M_1=2, w_0=0.5 at t=1: u = 2 * 0.5 = 1.
    pol = DACPolicy([[0.0]], [[[2.0]]])
    pol.push_perturbation([0.5])
    assert np.allclose(pol.act([7.0], t=1), [1.0])


def test_dac_zero_padding_and_offset():
    pol = DACPolicy([[1.0]], [[[3.0]]], offset=[10.0])
    # Empty buffer: u = K x + offset.
    assert np.allclose(pol.act([2.0], t=0), [12.0])


def test_bang_bang_rules():
    pol = BangBangPolicy(x_min=1.0, x_max=2.0, u_min=-5.0, u_max=5.0)
    assert np.allclose(act(pol, {"state": [0.9]}), [5.0])
    assert np.allclose(act(pol, {"state": [2.5]}), [-5.0])
    assert np.allclose(act(pol, {"state": [1.5]}), [0.0])
    with pytest.raises(ConfigurationError):
        BangBangPolicy(2.0, 1.0, -1.0, 1.0)
    with pytest.raises(ConfigurationError):
        pol.act_state([1.0, 2.0])


def test_pid_hand_sequence():
    pol = PIDPolicy(alpha=1.0, beta=0.5, gamma_d=2.0)
    # x=1: integral=1, derivative=1-0=1 -> u = 1 + 0.5 + 2 = 3.5
    assert np.allclose(pol.act_state([1.0]), [3.5])
    # x=2: integral=3, derivative=1 -> u = 2 + 1.5 + 2 = 5.5
    assert np.allclose(pol.act_state([2.0]), [5.5])
    pol.reset()
    assert np.allclose(pol.act_state([1.0]), [3.5])


def test_ldc_hand_sequence_and_stability_gate():
    pol = LDCPolicy([[0.5]], [[1.0]], [[2.0]], [[3.0]])
    # s=0, x=1: u = 0 + 3; s <- 0 + 1 = 1
    assert np.allclose(pol.act_state([1.0]), [3.0])
    # s=1, x=2: u = 2 + 6 = 8; s <- 0.5 + 2 = 2.5
    assert np.allclose(pol.act_state([2.0]), [8.0])
    decay = pol.internal_decay(5)
    assert np.all(np.diff(decay) <= 0)
    with pytest.raises(ConfigurationError):
        LDCPolicy([[1.5]], [[1.0]], [[1.0]])
    LDCPolicy([[1.5]], [[1.0]], [[1.0]], allow_unstable=True)


def test_glc_window_and_zero_padding():
    Ms = [np.array([[1.0, 0.0]]), np.array([[0.0, 2.0]]), np.array([[3.0, 0.0]])]
    pol = GLCPolicy(Ms)
    # First step: only M_0 applies.
    assert np.allclose(pol.act_state([1.0, 1.0]), [1.0])
    # Second step: M_0 x_1 + M_1 x_0.
    assert np.allclose(pol.act_state([0.0, 1.0]), [0.0 + 2.0])
    # Third step: M_0 x_2 + M_1 x_1 + M_2 x_0.
    assert np.allclose(pol.act_state([1.0, 0.0]), [1.0 + 2.0 + 3.0])


def test_budget_gates():
    with pytest.raises(ConfigurationError):
        GLCPolicy([np.eye(2) * 3.0], gamma=1.0)
    with pytest.raises(ConfigurationError):
        DACPolicy(np.zeros((2, 2)), [np.eye(2) * 3.0], gamma=1.0)
    with pytest.raises(ConfigurationError):
        DRCPolicy([np.eye(2) * 3.0], d_x=2, gamma=1.0)
    # DAC blocks of mixed shapes, or blocks that differ from a fixed K.
    with pytest.raises(ConfigurationError, match="one shape"):
        DACPolicy(np.ones((1, 2)), [np.ones((1, 2)), np.ones((2, 2))])
    with pytest.raises(ConfigurationError, match="one shape"):
        DACPolicy(np.ones((1, 2)), [np.ones((2, 2))])
    with pytest.raises(ConfigurationError, match="one shape"):
        DACPolicy(lambda t: np.ones((1, 2)), [np.ones((1, 2)), np.ones((1, 3))])
    with pytest.raises(ConfigurationError, match="one shape"):
        GLCPolicy([np.ones((1, 2)), np.ones((2, 2))])
    with pytest.raises(ConfigurationError, match="one shape"):
        DRCPolicy([np.ones((1, 2)), np.ones((1, 3))], d_x=2)
    # An offset that is not a vector with one entry per control.
    for offset in ([1.0, 2.0], [], [[1.0]]):
        with pytest.raises(ConfigurationError, match="offset"):
            DACPolicy([[1.0]], [[[2.0]]], offset=offset)
    with pytest.raises(ConfigurationError, match="offset"):
        DACPolicy(np.ones((1, 2)), [], offset=[1.0, 2.0])
    # A t -> K_t provider is checked against the blocks when it is called.
    varying = DACPolicy(lambda t: np.ones((2, 2)), [np.ones((1, 2))])
    with pytest.raises(ConfigurationError, match="K_3"):
        varying.act([1.0, 1.0], t=3)


def _hand_sum(u, Ms, window):
    """``u + M_0 s_0 + M_1 s_1 + ...``, added left to right; the window is
    newest first and the sum stops at the shorter of blocks and window."""
    for i in range(min(len(Ms), len(window))):
        u = u + Ms[i] @ np.asarray(window[i], dtype=float)
    return u


@settings(max_examples=60, deadline=None)
@given(
    h=st.integers(0, 5),
    d_u=st.integers(1, 3),
    d_s=st.integers(1, 3),
    steps=st.integers(0, 8),
    varying=st.booleans(),
    with_offset=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_window_policies_play_the_left_to_right_sum(h, d_u, d_s, steps, varying, with_offset, seed):
    """GLC, DAC and DRC play ``u + sum_i M_i s_i`` over their newest-first
    window, from zeros (GLC, DRC) or from ``K_t x`` (DAC, then the offset),
    bit for bit: the internal windows, DAC's ``history=`` override through
    ``act``, a ``t -> K_t`` provider, and DRC's ``natures_y`` signal."""
    rng = np.random.default_rng(seed)

    def blocks(n):
        return [rng.standard_normal((d_u, d_s)) for _ in range(n)]

    def signals(n):
        return [rng.standard_normal(d_s) for _ in range(n)]

    def override():
        return [w.tolist() for w in signals(int(rng.integers(0, h + 3)))]

    # GLC: u_t = sum_{i<=h} M_i x_{t-i}.
    Ms, xs = blocks(h + 1), signals(steps + 1)
    glc = GLCPolicy(Ms)
    for t, x in enumerate(xs):
        assert np.array_equal(glc.act_state(x), _hand_sum(np.zeros(d_u), Ms, xs[t::-1]))

    # DAC: u_t = K_t x_t + sum_{i=1}^{h} M_i w_{t-i} (+ offset).
    Ms, xs, ws = blocks(h), signals(steps + 1), signals(steps + 1)
    Ks = [rng.standard_normal((d_u, d_s)) for _ in range(steps + 1)]
    offset = rng.standard_normal(d_u) if with_offset else None
    dac = DACPolicy((lambda t: Ks[t]) if varying else Ks[0], Ms, offset=offset)

    def dac_hand(t, x, window):
        u = _hand_sum((Ks[t] if varying else Ks[0]) @ x, Ms, window)
        return u if offset is None else u + offset

    for t, x in enumerate(xs):
        hist = override()
        assert np.array_equal(
            act(dac, {"state": x, "perturbations": hist}, t), dac_hand(t, x, hist)
        )
        assert np.array_equal(dac.act(x, t), dac_hand(t, x, ws[:t][::-1]))
        dac.push_perturbation(ws[t])

    # DRC: u_t = sum_{i<=h} M_i ynat_{t-i}; a natures_y history leaves the
    # window alone.
    Ms, ys = blocks(h + 1), signals(steps + 1)
    drc = DRCPolicy(Ms, d_x=2)
    for t, y in enumerate(ys):
        hist = override()
        assert np.array_equal(act(drc, {"natures_y": hist}), _hand_sum(np.zeros(d_u), Ms, hist))
        u = drc.act_ynat(y) if t % 2 else act(drc, {"ynat": y})
        assert np.array_equal(u, _hand_sum(np.zeros(d_u), Ms, ys[t::-1]))


def test_act_missing_signal_errors():
    dac = DACPolicy([[0.0]], [[[1.0]]])
    with pytest.raises(ConfigurationError):
        act(dac, {"perturbations": [[1.0]]})
    drc = DRCPolicy([np.eye(1)], d_x=1)
    with pytest.raises(ConfigurationError):
        act(drc, {"state": [1.0]})


# ---------------------------------------------------------------------------
# Nature's y
# ---------------------------------------------------------------------------


def test_natures_y_zero_control_passthrough():
    tracker = NaturesYTracker(d_x=2)
    rng = np.random.default_rng(0)
    A, B, C = np.eye(2), np.ones((2, 1)), np.array([[1.0, 1.0]])
    for _ in range(5):
        y = rng.standard_normal(1)
        ynat = natures_y_step(tracker, A, B, C, np.zeros(1), y)
        assert np.allclose(ynat, y)


def test_natures_y_zero_everything():
    tracker = NaturesYTracker(d_x=2)
    for _ in range(5):
        ynat = natures_y_step(
            tracker, np.eye(2), np.ones((2, 1)), None, np.zeros(1), np.zeros(2)
        )
        assert np.all(ynat == 0)


def test_natures_y_recursion_matches_direct_sum():
    rng = np.random.default_rng(42)
    T, d_x, d_u, d_y = 20, 3, 2, 2
    As = [0.5 * rng.standard_normal((d_x, d_x)) for _ in range(T)]
    Bs = [rng.standard_normal((d_x, d_u)) for _ in range(T)]
    Cs = [rng.standard_normal((d_y, d_x)) for _ in range(T)]
    us = [rng.standard_normal(d_u) for _ in range(T)]
    ws = [rng.standard_normal(d_x) for _ in range(T)]

    # Roll the true system to produce observations.
    x = np.zeros(d_x)
    tracker = NaturesYTracker(d_x)
    for t in range(T):
        y = Cs[t] @ x
        ynat = natures_y_step(tracker, As[t], Bs[t], Cs[t], us[t], y)
        # Direct sum: ynat_t = y_t - C_t sum_{i=1}^{t} [prod_{j=1}^{i-1} A_{t-j}] B_{t-i} u_{t-i}
        accum = np.zeros(d_x)
        for i in range(1, t + 1):
            prod = np.eye(d_x)
            for j in range(1, i):
                prod = prod @ As[t - j]
            accum += prod @ Bs[t - i] @ us[t - i]
        direct = y - Cs[t] @ accum
        assert np.max(np.abs(ynat - direct)) < 1e-10
        x = As[t] @ x + Bs[t] @ us[t] + ws[t]


# ---------------------------------------------------------------------------
# GLC lifting
# ---------------------------------------------------------------------------


def test_lift_glc_degenerate_window():
    sys2 = LinearSystem.time_invariant([[0.5, 0.1], [0.0, 0.4]], [[1.0], [0.5]])
    M0 = np.array([[0.2, -0.1]])
    lifted = lift_glc(sys2, GLCPolicy([M0]))
    A, B, _ = sys2.matrices(0)
    LA, LB, _ = lifted.system.matrices(0)
    assert np.array_equal(LA, A)
    assert np.array_equal(LB, B)
    assert np.array_equal(lifted.K_tilde, M0)
    assert np.array_equal(lifted.noise_embedding, np.eye(2))


def run_glc_and_lift(system, glc, T, seed):
    """Side-by-side rollout returning (original states, lifted first block)."""
    rng = np.random.default_rng(seed)
    ws = rng.standard_normal((T, system.d_x))
    cost = QuadraticCost(np.eye(system.d_x), np.eye(system.d_u))
    traj = simulate(
        system, policy_runner(glc, system), PerturbationSource.recorded(ws), cost, T, seed=seed
    )
    lifted = lift_glc(system, glc)
    lifted_ws = ws @ lifted.noise_embedding.T
    lifted_cost = QuadraticCost(
        np.eye(lifted.system.d_x), np.eye(lifted.system.d_u)
    )
    linear = LinearPolicy(lifted.K_tilde)
    lifted_traj = simulate(
        lifted.system,
        policy_runner(linear, lifted.system),
        PerturbationSource.recorded(lifted_ws),
        lifted_cost,
        T,
        seed=seed,
    )
    return traj, lifted_traj


def test_lift_glc_exact_block_trajectory():
    rng = np.random.default_rng(3)
    for seed in range(3):
        A = stable_random(rng, 2, 0.8)
        B = rng.standard_normal((2, 1))
        system = LinearSystem.time_invariant(A, B)
        Ms = [0.3 * rng.standard_normal((1, 2)) for _ in range(3)]  # h = 2
        traj, lifted_traj = run_glc_and_lift(system, GLCPolicy(Ms), T=30, seed=seed)
        assert np.max(np.abs(lifted_traj.states[:, :2] - traj.states)) < 1e-10
        assert np.max(np.abs(lifted_traj.controls - traj.controls)) < 1e-10


def test_lift_glc_zero_policy_is_uncontrolled():
    rng = np.random.default_rng(4)
    A = stable_random(rng, 2, 0.9)
    system = LinearSystem.time_invariant(A, [[1.0], [0.0]])
    glc = GLCPolicy([np.zeros((1, 2))] * 3)
    traj, lifted_traj = run_glc_and_lift(system, glc, T=20, seed=0)
    assert np.all(traj.controls == 0)
    assert np.all(lifted_traj.controls == 0)
    assert np.max(np.abs(lifted_traj.states[:, :2] - traj.states)) < 1e-10


# ---------------------------------------------------------------------------
# dac_from_linear
# ---------------------------------------------------------------------------


def test_dac_from_linear_zero_gain():
    pol = dac_from_linear(np.eye(2) * 0.5, np.ones((2, 1)), np.zeros((1, 2)), h=4)
    assert all(np.all(M == 0) for M in pol.Ms)


def test_dac_from_linear_scalar_formula():
    pol = dac_from_linear([[0.5]], [[1.0]], [[-0.25]], h=5)
    # M_i = k (a + bk)^i = -0.25 * 0.25^i, stored against w_{t-1-i}.
    for i, M in enumerate(pol.Ms):
        assert abs(M[0, 0] - (-0.25 * 0.25**i)) < 1e-14


def test_dac_from_linear_refuses_unstable():
    with pytest.raises(ConfigurationError):
        dac_from_linear([[1.2]], [[0.0]], [[0.0]], h=3)


def test_conversion_maps_refuse_a_negative_window():
    with pytest.raises(ConfigurationError, match="h >= 0"):
        dac_from_linear([[0.5]], [[1.0]], [[-0.25]], h=-1)
    with pytest.raises(ConfigurationError, match="h >= 0"):
        glc_from_ldc(LDCPolicy([[0.5]], [[1.0]], [[2.0]], [[3.0]]), h=-3)
    # h = 0 is the shortest window: one block each.
    assert len(dac_from_linear([[0.5]], [[1.0]], [[-0.25]], h=0).Ms) == 1
    assert len(glc_from_ldc(LDCPolicy([[0.5]], [[1.0]], [[2.0]], [[3.0]]), h=0).Ms) == 1


def measured_decay(closed, n=200):
    """Fit ||closed^i|| <= kappa (1-delta)^i with delta from the radius."""
    rho = spectral_radius(closed)
    delta = 1.0 - rho
    kappa = 0.0
    power = np.eye(closed.shape[0])
    for i in range(n):
        kappa = max(kappa, specnorm(power) / (1.0 - delta) ** i)
        power = power @ closed
    return kappa, delta


def test_dac_from_linear_control_gap_bound():
    rng = np.random.default_rng(11)
    d_x, d_u, h, T = 3, 2, 40, 200
    for trial in range(3):
        A = stable_random(rng, d_x, 0.8)
        K = 0.3 * rng.standard_normal((d_u, d_x))
        K /= max(1.0, specnorm(K))
        B = rng.standard_normal((d_x, d_u))
        B /= max(1.0, specnorm(B))
        closed = A + B @ K
        if spectral_radius(closed) >= 0.97:
            continue
        kappa, delta = measured_decay(closed)
        system = LinearSystem.time_invariant(A, B)
        noise = PerturbationSource.sinusoidal(
            amplitude=1.0 / np.sqrt(d_x), omega=0.7, phase=np.arange(d_x), clip_to_unit_ball=True
        )
        rng_w = np.random.default_rng(trial)
        ws = np.array([noise.sample(t, d_x, rng_w) for t in range(T)])
        replay = PerturbationSource.recorded(ws)
        cost = QuadraticCost(np.eye(d_x), np.eye(d_u))
        lin_traj = simulate(
            system, policy_runner(LinearPolicy(K), system), replay, cost, T, seed=0
        )
        dac = dac_from_linear(A, B, K, h)
        dac_traj = simulate(system, policy_runner(dac, system), replay, cost, T, seed=0)
        gap = np.max(np.linalg.norm(dac_traj.controls - lin_traj.controls, axis=1))
        assert gap <= kappa * (1.0 - delta) ** h / delta


def test_dac_stabilization_gamma_squared():
    # A DAC with budget gamma on a gamma-stable system keeps states below
    # gamma^2 (10% slack), T=500, 10 seeds.
    rng = np.random.default_rng(21)
    for seed in range(10):
        A = stable_random(rng, 3, 0.7)
        B = rng.standard_normal((3, 2))
        B /= max(1.0, specnorm(B))
        kappa, delta = measured_decay(A)
        Ms = [0.2 * rng.standard_normal((2, 3)) for _ in range(5)]
        sum_M = sum(specnorm(M) for M in Ms)
        gamma = max(kappa / delta, 1.0 + specnorm(B) * sum_M, sum_M)
        system = LinearSystem.time_invariant(A, B)
        dac = DACPolicy(np.zeros((2, 3)), Ms)
        traj = simulate(
            system,
            policy_runner(dac, system),
            PerturbationSource.uniform_ball(),
            QuadraticCost(np.eye(3), np.eye(2)),
            T=500,
            seed=seed,
        )
        assert traj.gamma <= gamma**2 * 1.1


# ---------------------------------------------------------------------------
# glc_from_ldc
# ---------------------------------------------------------------------------


def test_glc_from_ldc_nilpotent_and_scalar():
    ldc = LDCPolicy(np.zeros((2, 2)), np.ones((2, 1)), np.ones((1, 2)))
    glc = glc_from_ldc(ldc, h=3)
    assert np.allclose(glc.Ms[0], 0.0)  # D absent
    assert np.allclose(glc.Ms[1], ldc.C_pi @ ldc.B_pi)
    assert np.allclose(glc.Ms[2], 0.0)
    assert np.allclose(glc.Ms[3], 0.0)

    scalar = LDCPolicy([[0.5]], [[1.0]], [[2.0]], [[0.0]])
    glc2 = glc_from_ldc(scalar, h=4)
    for i in range(1, 5):
        assert abs(glc2.Ms[i][0, 0] - 2.0 * 0.5 ** (i - 1)) < 1e-14


def test_glc_from_ldc_refuses_unstable():
    bad = LDCPolicy([[1.1]], [[1.0]], [[1.0]], allow_unstable=True)
    with pytest.raises(ConfigurationError):
        glc_from_ldc(bad, h=2)


def test_glc_from_ldc_tail_bound():
    rng = np.random.default_rng(33)
    for _ in range(3):
        A_pi = stable_random(rng, 3, 0.75)
        B_pi = rng.standard_normal((3, 1))
        B_pi /= max(1.0, specnorm(B_pi))
        C_pi = rng.standard_normal((1, 3))
        C_pi /= max(1.0, specnorm(C_pi))
        ldc = LDCPolicy(A_pi, B_pi, C_pi)
        kappa_A, delta = measured_decay(A_pi)
        kappa = max(kappa_A, specnorm(B_pi) * specnorm(C_pi), 1.0)
        for h in (5, 10, 20):
            # Direct summation oracle for the tail.
            tail = 0.0
            power = np.linalg.matrix_power(A_pi, h)
            for _ in range(400):
                tail += specnorm(C_pi @ power @ B_pi)
                power = power @ A_pi
            assert tail <= kappa**2 * (1.0 - delta) ** h / delta


# ---------------------------------------------------------------------------
# approximation gap
# ---------------------------------------------------------------------------


def test_approximation_gap_identical_policies():
    system = LinearSystem.time_invariant([[0.9]], [[1.0]])
    cost = QuadraticCost(np.eye(1), np.eye(1))
    gap = approximation_gap(
        LinearPolicy([[-0.5]]),
        LinearPolicy([[-0.5]]),
        system,
        PerturbationSource.gaussian(0.5),
        cost,
        T=50,
    )
    assert gap == 0.0
    with pytest.raises(ConfigurationError, match="T >= 1"):
        approximation_gap(LinearPolicy([[-0.5]]), LinearPolicy([[-0.5]]), system,
                          PerturbationSource.gaussian(0.5), cost, T=0)


def test_approximation_gap_linear_vs_dac():
    system = LinearSystem.time_invariant([[0.9]], [[1.0]])
    cost = QuadraticCost(np.eye(1), np.eye(1))
    K = [[-0.5]]
    dac = dac_from_linear([[0.9]], [[1.0]], K, h=40)
    gap = approximation_gap(
        LinearPolicy(K), dac, system, PerturbationSource.uniform_ball(), cost, T=300
    )
    assert gap < 1e-3


def test_approximation_gap_monotone_in_h():
    system = LinearSystem.time_invariant([[0.9]], [[1.0]])
    cost = QuadraticCost(np.eye(1), np.eye(1))
    K = [[-0.5]]
    hs = [0, 1, 2, 4, 8]
    avg = []
    for h in hs:
        dac = dac_from_linear([[0.9]], [[1.0]], K, h=h)
        gaps = [
            approximation_gap(
                LinearPolicy(K),
                dac,
                system,
                PerturbationSource.uniform_ball(),
                cost,
                T=200,
                seed=seed,
            )
            for seed in range(5)
        ]
        avg.append(np.mean(gaps))
    assert all(b <= a + 1e-12 for a, b in zip(avg, avg[1:]))


def test_dac_gap_decays_geometrically_r_squared():
    system = LinearSystem.time_invariant([[0.9]], [[1.0]])
    cost = QuadraticCost(np.eye(1), np.eye(1))
    K = [[-0.5]]
    hs = np.arange(1, 11)
    gaps = []
    for h in hs:
        dac = dac_from_linear([[0.9]], [[1.0]], K, h=int(h))
        gaps.append(
            approximation_gap(
                LinearPolicy(K), dac, system, PerturbationSource.uniform_ball(), cost, T=300
            )
        )
    logs = np.log(np.array(gaps))
    slope, intercept = np.polyfit(hs, logs, 1)
    predicted = slope * hs + intercept
    ss_res = np.sum((logs - predicted) ** 2)
    ss_tot = np.sum((logs - logs.mean()) ** 2)
    r_squared = 1.0 - ss_res / ss_tot
    assert slope < 0
    assert r_squared > 0.95


# ---------------------------------------------------------------------------
# Rollout adapters
# ---------------------------------------------------------------------------


def test_policy_runner_dac_recovers_perturbations():
    rng = np.random.default_rng(8)
    A = stable_random(rng, 2, 0.8)
    B = rng.standard_normal((2, 1))
    system = LinearSystem.time_invariant(A, B)
    K = np.zeros((1, 2))
    Ms = [rng.standard_normal((1, 2)) * 0.3 for _ in range(3)]
    dac = DACPolicy(K, Ms)
    ws = rng.standard_normal((15, 2))
    cost = QuadraticCost(np.eye(2), np.eye(1))
    traj = simulate(
        system, policy_runner(dac, system), PerturbationSource.recorded(ws), cost, 15, seed=0
    )
    # Independent rollout feeding the true perturbations directly.
    x = np.zeros(2)
    fresh = DACPolicy(K, [M.copy() for M in Ms])
    for t in range(15):
        u = fresh.act(x, t)
        assert np.max(np.abs(u - traj.controls[t])) < 1e-10
        x = A @ x + B @ u + ws[t]
        fresh.push_perturbation(ws[t])


def test_policy_runner_drc_on_partial_observation():
    rng = np.random.default_rng(9)
    A = stable_random(rng, 3, 0.7)
    B = rng.standard_normal((3, 1))
    C = rng.standard_normal((2, 3))
    system = LinearSystem.time_invariant(A, B, C=C)
    Ms = [0.2 * rng.standard_normal((1, 2)) for _ in range(3)]
    drc = DRCPolicy(Ms, d_x=3)
    cost = QuadraticCost(np.eye(3), np.eye(1))
    traj = simulate(
        system, policy_runner(drc, system), PerturbationSource.gaussian(0.3), cost, 20, seed=1
    )
    # Oracle: replay with explicit nature's-y bookkeeping.
    tracker = NaturesYTracker(3)
    window = []
    x = np.zeros(3)
    for t in range(20):
        y = C @ x
        ynat = tracker.observe(y, C)
        window.insert(0, ynat)
        u = np.zeros(1)
        for i, v in enumerate(window[:3]):
            u += Ms[i] @ v
        assert np.max(np.abs(u - traj.controls[t])) < 1e-10
        tracker.advance(A, B, u)
        x = A @ x + B @ u + traj.perturbations[t]


def test_dac_provider_gain_rows_must_match_the_offset():
    # With a provider and no blocks, only K_t tells the number of controls:
    # a 2-entry offset under a one-row K_t used to give a 2-vector control.
    policy = DACPolicy(lambda t: np.ones((1, 2)), [], offset=[1.0, 2.0])
    with pytest.raises(ConfigurationError, match="offset"):
        policy.act([1.0, 1.0])
    fitting = DACPolicy(lambda t: np.ones((2, 2)), [], offset=[1.0, 2.0])
    assert np.array_equal(fitting.act([1.0, 1.0]), [3.0, 4.0])
