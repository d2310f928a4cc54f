"""Tests for the experiment harness: scenario presets, offline comparators,
regret reports, artifact serialization, and the experiment driver.

Comparator optimizers are checked against independent oracles: exact
quadratic fits and dense grids for scalar problems, brute-force rollouts
for the counterfactual cost accounting, least squares on trajectory maps
read off plain policy rollouts, scipy minimization of rollout totals, and
stationarity probes at the returned optimum.
"""

import math
import os
import tempfile
import warnings
import zlib
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nscontrol import harness
from nscontrol.errors import ConfigurationError, EvaluationError
from nscontrol.harness import (
    CSV_COLUMNS,
    RegretReport,
    ScenarioConfig,
    best_dac_in_hindsight,
    best_drc_in_hindsight,
    best_linear_in_hindsight,
    component_seed,
    config_from_preset,
    dac_rollout_costs,
    drc_rollout_costs,
    generate_perturbations,
    linear_rollout_costs,
    load_config,
    report_summary,
    run_experiment,
    scenario_presets,
    write_report_csv,
)
from nscontrol.lds_core import (
    CallableCost,
    LinearSystem,
    PerturbationSource,
    QuadraticCost,
    simulate,
)
from nscontrol.optimal_control import dare_solve
from nscontrol.policies import DACPolicy, DRCPolicy, policy_runner
from nscontrol.serialize import (
    load_matrix,
    read_csv,
    read_json_summary,
    save_matrix,
    write_csv,
    write_json_summary,
)


def spectral_radius(A):
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(A, dtype=float)))))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_matrix_roundtrip_exact():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((3, 4))
    M[0, 0] = 1e-300
    M[1, 1] = -1e300
    M[2, 2] = 1.0 / 3.0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.txt")
        save_matrix(M, path)
        back = load_matrix(path)
    assert back.shape == (3, 4)
    assert np.array_equal(back, M)


def test_matrix_file_errors():
    with tempfile.TemporaryDirectory() as tmp:
        try:
            load_matrix(os.path.join(tmp, "missing.txt"))
            assert False, "expected ConfigurationError"
        except ConfigurationError:
            pass
        bad = os.path.join(tmp, "bad.txt")
        with open(bad, "w") as fh:
            fh.write("2 2\n1.0 2.0\n3.0 oops\n")
        try:
            load_matrix(bad)
            assert False, "expected ConfigurationError"
        except ConfigurationError:
            pass
        short = os.path.join(tmp, "short.txt")
        with open(short, "w") as fh:
            fh.write("3 2\n1.0 2.0\n3.0 4.0\n")
        try:
            load_matrix(short)
            assert False, "expected ConfigurationError"
        except ConfigurationError:
            pass


def test_csv_roundtrip_exact():
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((5, 3))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        write_csv(path, ["a", "b", "c"], rows)
        header, data = read_csv(path)
    assert header == ["a", "b", "c"]
    assert np.array_equal(data, rows)


def test_json_summary_flat_and_sorted():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.json")
        write_json_summary(path, {"zeta": 1.5, "alpha": np.float64(2.0), "n": 3})
        back = read_json_summary(path)
        assert back == {"zeta": 1.5, "alpha": 2.0, "n": 3}
        with open(path) as fh:
            text = fh.read()
        assert text.index('"alpha"') < text.index('"n"') < text.index('"zeta"')
        try:
            write_json_summary(path, {"nested": {"x": 1}})
            assert False, "expected ConfigurationError"
        except ConfigurationError:
            pass


# ---------------------------------------------------------------------------
# Seed streams and scenario presets
# ---------------------------------------------------------------------------


def test_component_seed_hand_value():
    master = 123456789
    tag = "perturbation"
    expected = (master ^ zlib.crc32(tag.encode())) & 0xFFFFFFFFFFFFFFFF
    assert component_seed(master, tag) == expected
    assert component_seed(master, "simulate") != component_seed(master, "perturbation")
    assert component_seed(master, tag) == component_seed(master, tag)


def test_scenario_preset_catalog():
    presets = scenario_presets()
    assert set(presets) == {
        "double-integrator",
        "scalar-0.9",
        "b747",
        "pendulum",
        "ventilator",
        "sir",
    }
    for bp in presets.values():
        d_x, d_u = bp.system.d_x, bp.system.d_u
        A0, B0, _ = bp.system.matrices(0)
        assert A0.shape == (d_x, d_x)
        assert B0.shape == (d_x, d_u)
        if bp.x0 is not None:
            assert bp.x0.shape == (d_x,)
        if bp.noise_embedding is not None:
            assert bp.noise_embedding.shape[0] == d_x


def test_double_integrator_matrices():
    bp = scenario_presets()["double-integrator"]
    A, B, _ = bp.system.matrices(0)
    assert np.array_equal(A, [[1.0, 0.1], [0.0, 1.0]])
    assert np.array_equal(B, [[0.0], [1.0]])
    assert np.array_equal(bp.x0, [1.0, 0.0])


def test_pendulum_upright_linearization():
    # Linearizing theta' = theta + dt*omega, omega' = omega + dt*(u - g sin
    # theta) at the upright point [pi, 0]: d(-g sin)/dtheta = -g cos(pi) =
    # +g, so the gravity entry is +dt*g = +0.49 (destabilizing), the
    # opposite sign from the hanging-down expansion.
    bp = scenario_presets()["pendulum"]
    A, B, _ = bp.system.matrices(0)
    assert np.allclose(A, [[1.0, 0.05], [0.49, 1.0]], atol=1e-6)
    assert np.allclose(B, [[0.0], [0.05]], atol=1e-9)
    assert spectral_radius(A) > 1.0


def test_sir_disease_free_linearization():
    # At the disease-free anchor (S, I, R) = (1, 0, 0) the infected
    # compartment decouples: I' = (1 + beta - gamma) I with beta = 0.3,
    # gamma = 0.5, and vaccination enters S with coefficient -alpha.
    bp = scenario_presets()["sir"]
    A, B, _ = bp.system.matrices(0)
    assert abs(A[1, 1] - 0.8) < 1e-6
    assert abs(A[0, 1] + 0.3) < 1e-6
    assert abs(A[2, 1] - 0.5) < 1e-6
    assert abs(A[1, 0]) < 1e-6 and abs(A[2, 0] ) < 1e-6
    assert abs(B[0, 0] + 0.1) < 1e-9
    assert 0.8 in set(np.round(np.linalg.eigvals(A).real, 6))


def test_jet_blueprint_consistency():
    bp = scenario_presets()["b747"]
    A, B, _ = bp.system.matrices(0)
    assert spectral_radius(A) < 1.0
    H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 7.74]])
    assert np.allclose(bp.cost.Q, H.T @ H)
    assert np.array_equal(bp.cost.R, np.diag([0.0, 1.0]))
    assert np.array_equal(bp.noise_embedding, A[:2, :].T)
    assert np.min(np.linalg.eigvalsh(bp.cost.Q)) >= -1e-12


def test_ventilator_blueprint():
    # Pressure map p(v) = 2 + v^(-1/3) + v^(5/3) linearized at v = 1 has
    # slope -1/3 + 5/3 = 4/3.
    bp = scenario_presets()["ventilator"]
    A, B, C = bp.system.matrices(0)
    assert np.allclose(A, [[1.0]], atol=1e-9)
    assert np.allclose(B, [[0.1]], atol=1e-9)
    assert np.allclose(C, [[4.0 / 3.0]], atol=1e-6)
    assert bp.cost_on == "observation"
    y, u = np.array([1.0]), np.array([0.5])
    assert abs(bp.cost.value(y, u) - 0.5) < 1e-12
    value, half_grad = bp.cost.stage(y, u)
    assert value == bp.cost.value(y, u)
    assert np.allclose(2.0 * half_grad, [1.0, 0.0])


def test_generate_perturbations_determinism_and_embedding():
    source = PerturbationSource.gaussian(sigma=0.5)
    w1 = generate_perturbations(source, 20, 3, seed=42)
    w2 = generate_perturbations(source, 20, 3, seed=42)
    w3 = generate_perturbations(source, 20, 3, seed=43)
    assert np.array_equal(w1, w2)
    assert not np.array_equal(w1, w3)
    assert w1.shape == (20, 3)

    embedding = np.array([[1.0], [0.0]])
    w = generate_perturbations(source, 15, 2, seed=1, embedding=embedding)
    assert w.shape == (15, 2)
    assert np.all(w[:, 1] == 0.0)
    assert np.any(w[:, 0] != 0.0)

    try:
        generate_perturbations(source, 5, 3, seed=0, embedding=embedding)
        assert False, "expected ConfigurationError"
    except ConfigurationError:
        pass


# ---------------------------------------------------------------------------
# Counterfactual rollouts
# ---------------------------------------------------------------------------


def test_dac_rollout_hand_computed():
    # Scalar A = 0.5, B = 1, K = 0, single action block M_1 = 2 acting on
    # the previous perturbation, w = (1, 0, 0), x0 = 0:
    #   t=0: u = 2*w_{-1} = 0, cost 0,            x1 = 1
    #   t=1: u = 2*w_0  = 2, cost 1 + 4 = 5,      x2 = 0.5 + 2 = 2.5
    #   t=2: u = 2*w_1  = 0, cost 2.5^2 = 6.25
    system = LinearSystem.time_invariant([[0.5]], [[1.0]])
    cost = QuadraticCost(Q=np.eye(1), R=np.eye(1))
    w = np.array([[1.0], [0.0], [0.0]])
    out = dac_rollout_costs(system, cost, [[0.0]], [[[2.0]]], w)
    assert np.allclose(out, [0.0, 5.0, 6.25], atol=1e-12)


def test_dac_rollout_matches_bruteforce():
    rng = np.random.default_rng(5)
    A = 0.4 * rng.standard_normal((2, 2))
    B = rng.standard_normal((2, 1))
    system = LinearSystem.time_invariant(A, B)
    cost = QuadraticCost(Q=np.eye(2), R=2.0 * np.eye(1))
    T, h = 40, 3
    w = rng.standard_normal((T, 2))
    K = 0.2 * rng.standard_normal((1, 2))
    Ms = rng.standard_normal((h, 1, 2))
    x0 = rng.standard_normal(2)

    out = dac_rollout_costs(system, cost, K, Ms, w, x0)

    x = x0.copy()
    expected = np.zeros(T)
    for t in range(T):
        u = K @ x
        for i in range(h):
            if t - 1 - i >= 0:
                u = u + Ms[i] @ w[t - 1 - i]
        expected[t] = cost.value(x, u)
        x = A @ x + B @ u + w[t]
    assert np.allclose(out, expected, atol=1e-10)


def test_drc_rollout_matches_bruteforce():
    rng = np.random.default_rng(9)
    A = 0.4 * rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 2))
    C = rng.standard_normal((2, 3))
    system = LinearSystem.time_invariant(A, B, C)
    cost = QuadraticCost(Q=np.eye(2), R=np.eye(2))
    T, h = 30, 2
    w = rng.standard_normal((T, 3))
    Ms = 0.3 * rng.standard_normal((h + 1, 2, 2))
    x0 = rng.standard_normal(3)

    out = drc_rollout_costs(system, cost, Ms, w, x0)

    # Zero-control observations first, then the actual closed loop.
    ynat = np.zeros((T, 2))
    x = x0.copy()
    for t in range(T):
        ynat[t] = C @ x
        x = A @ x + w[t]
    expected = np.zeros(T)
    x = x0.copy()
    for t in range(T):
        u = np.zeros(2)
        for i in range(h + 1):
            if t - i >= 0:
                u = u + Ms[i] @ ynat[t - i]
        expected[t] = cost.value(C @ x, u)
        x = A @ x + B @ u + w[t]
    assert np.allclose(out, expected, atol=1e-10)


def test_linear_rollout_is_dac_with_zero_blocks():
    rng = np.random.default_rng(3)
    system = LinearSystem.time_invariant([[0.9]], [[1.0]])
    cost = QuadraticCost(Q=np.eye(1), R=np.eye(1))
    w = rng.standard_normal((25, 1))
    K = np.array([[-0.4]])
    a = linear_rollout_costs(system, cost, K, w)
    b = dac_rollout_costs(system, cost, K, np.zeros((4, 1, 1)), w)
    assert np.allclose(a, b, atol=1e-14)


# ---------------------------------------------------------------------------
# Offline comparators
# ---------------------------------------------------------------------------


def test_best_dac_matches_quadratic_oracle_scalar():
    # With one scalar action block the counterfactual total cost J(M) is a
    # quadratic polynomial in M, so three evaluations determine it exactly
    # and the analytic vertex is an independent oracle.
    system = LinearSystem.time_invariant([[0.9]], [[1.0]])
    cost = QuadraticCost(Q=np.eye(1), R=np.eye(1))
    T = 120
    w = np.ones((T, 1))
    K = [[0.0]]

    def total(m):
        return float(
            dac_rollout_costs(system, cost, K, np.array([[[m]]]), w).sum()
        )

    j_neg, j_zero, j_pos = total(-1.0), total(0.0), total(1.0)
    a = (j_pos + j_neg) / 2.0 - j_zero
    b = (j_pos - j_neg) / 2.0
    # Verify J really is quadratic by predicting a fourth point.
    assert abs(total(2.0) - (4 * a + 2 * b + j_zero)) < 1e-8 * (1 + j_zero)
    m_star = -b / (2 * a)
    j_star = j_zero - b * b / (4 * a)

    Ms, costs = best_dac_in_hindsight(system, cost, K, w, h=1)
    value = costs.sum()
    assert Ms.shape == (1, 1, 1)
    assert abs(value - j_star) < 2e-3
    assert abs(float(Ms[0, 0, 0]) - m_star) < 2e-3
    # Coarse grid as a belt-and-braces bound.
    grid = np.arange(-2.0, 2.0, 0.01)
    assert value <= min(total(m) for m in grid) + 2e-3


def test_best_dac_zero_noise_yields_zero_blocks():
    bp = scenario_presets()["double-integrator"]
    A, B, _ = bp.system.matrices(0)
    K = dare_solve(A, B, bp.cost.Q, bp.cost.R).K
    w = np.zeros((60, 2))
    Ms, costs = best_dac_in_hindsight(bp.system, bp.cost, K, w, h=3, x0=bp.x0)
    value = costs.sum()
    assert np.linalg.norm(Ms) <= 1e-8
    ref = linear_rollout_costs(bp.system, bp.cost, K, w, bp.x0).sum()
    assert abs(value - ref) < 1e-10


def test_best_dac_stationary_at_optimum():
    rng = np.random.default_rng(17)
    system = LinearSystem.time_invariant([[0.8, 0.1], [0.0, 0.7]], [[0.0], [1.0]])
    cost = QuadraticCost(Q=np.eye(2), R=np.eye(1))
    w = 0.5 * rng.standard_normal((80, 2))
    K = np.zeros((1, 2))
    Ms, costs = best_dac_in_hindsight(system, cost, K, w, h=2)
    value = costs.sum()
    total = dac_rollout_costs(system, cost, K, Ms, w).sum()
    assert abs(total - value) < 1e-8 * (1 + abs(value))
    for _ in range(8):
        direction = rng.standard_normal(Ms.shape)
        direction /= np.linalg.norm(direction)
        for sign in (+1.0, -1.0):
            probe = Ms + sign * 1e-4 * direction
            probed = dac_rollout_costs(system, cost, K, probe, w).sum()
            assert probed >= value - 1e-6


def test_best_dac_contains_best_linear():
    system = LinearSystem.time_invariant([[0.9]], [[1.0]])
    cost = QuadraticCost(Q=np.eye(1), R=np.eye(1))
    w = generate_perturbations(PerturbationSource.sinusoidal(1.0, 1.0), 150, 1, seed=0)
    K_star, lin_costs = best_linear_in_hindsight(system, cost, w)
    _, dac_costs = best_dac_in_hindsight(system, cost, K_star, w, h=3)
    assert dac_costs.sum() <= lin_costs.sum() + 1e-6


def test_best_drc_consistency_and_stationarity():
    rng = np.random.default_rng(23)
    system = LinearSystem.time_invariant([[0.5]], [[1.0]], [[2.0]])
    cost = QuadraticCost(Q=np.eye(1), R=np.eye(1))
    w = generate_perturbations(PerturbationSource.sinusoidal(1.0, 0.7), 100, 1, seed=2)
    Ms, costs = best_drc_in_hindsight(system, cost, w, h=3)
    value = costs.sum()
    assert Ms.shape == (4, 1, 1)
    total = drc_rollout_costs(system, cost, Ms, w).sum()
    assert abs(total - value) < 1e-8 * (1 + abs(value))
    for _ in range(8):
        direction = rng.standard_normal(Ms.shape)
        direction /= np.linalg.norm(direction)
        for sign in (+1.0, -1.0):
            probe = Ms + sign * 1e-4 * direction
            probed = drc_rollout_costs(system, cost, probe, w).sum()
            assert probed >= value - 1e-6


def test_best_drc_zero_noise_is_zero():
    system = LinearSystem.time_invariant([[0.5]], [[1.0]])
    cost = QuadraticCost(Q=np.eye(1), R=np.eye(1))
    w = np.zeros((40, 1))
    Ms, costs = best_drc_in_hindsight(system, cost, w, h=2)
    value = costs.sum()
    assert np.linalg.norm(Ms) <= 1e-8
    assert abs(value) < 1e-12


def _random_comparator_problem(seed, d_x, d_u, d_y, T, observe, with_target, singular_R):
    """A random quadratic comparator problem: a system whose closed loop
    under the returned gain ``K`` is stable (``K = 0`` for response
    policies), a cost, a disturbance record and an initial state."""
    rng = np.random.default_rng(seed)
    A_cl = rng.standard_normal((d_x, d_x))
    A_cl *= rng.uniform(0.0, 0.95) / max(spectral_radius(A_cl), 1e-12)
    B = rng.standard_normal((d_x, d_u))
    K = np.zeros((d_u, d_x)) if observe else 0.3 * rng.standard_normal((d_u, d_x))
    C = rng.standard_normal((d_y, d_x)) if observe else None
    system = LinearSystem.time_invariant(A_cl - B @ K, B, C)
    d_z = d_y if observe else d_x
    F = rng.standard_normal((d_z, d_z))
    V = np.linalg.qr(rng.standard_normal((d_u, d_u)))[0]
    r_eig = rng.uniform(0.1, 2.0, d_u)
    if singular_R:
        r_eig[0] = 0.0
    cost = QuadraticCost(
        Q=F @ F.T + 0.1 * np.eye(d_z),
        R=(V * r_eig) @ V.T,
        target=rng.standard_normal(d_z) if with_target else None,
    )
    w = rng.standard_normal((T, d_x))
    return system, cost, K, w, rng.standard_normal(d_x)


_SILENT = CallableCost(fn=lambda x, u: 0.0, gx=None, gu=None)


def _policy_signals(system, policy, w, x0, observe):
    """Stacked ``(z_t, u_t)`` of one plain rollout of a fixed policy, with
    ``z_t`` the observation when ``observe`` and the state otherwise."""
    traj = simulate(
        system, policy_runner(policy, system), PerturbationSource.recorded(w),
        _SILENT, w.shape[0], x0=x0,
    )
    z = traj.observations if observe else traj.states[:-1]
    return np.hstack([z, traj.controls]).ravel()


def _lstsq_reference(system, cost, w, x0, shape, make_policy, observe):
    """Optimal total cost of a fixed policy class, computed without the
    comparator engine: the affine map from the flattened blocks to the
    stacked trajectory is read off column by column from p + 1 plain
    rollouts, and the sqrt(W)-weighted stacked rows are solved by
    least squares."""
    p = int(np.prod(shape))
    v0 = _policy_signals(system, make_policy(np.zeros(shape)), w, x0, observe)
    columns = []
    for j in range(p):
        M = np.zeros(p)
        M[j] = 1.0
        v = _policy_signals(system, make_policy(M.reshape(shape)), w, x0, observe)
        columns.append(v - v0)
    d_z = cost.Q.shape[0]
    W = scipy.linalg.block_diag(cost.Q, cost.R)
    eig, vecs = np.linalg.eigh(W)
    sqrt_W = (vecs * np.sqrt(np.clip(eig, 0.0, None))) @ vecs.T
    offset = np.zeros(W.shape[0])
    if cost.target is not None:
        offset[:d_z] = cost.target
    n = W.shape[0]
    T = w.shape[0]
    # Row block t holds sqrt(W) (v_t(m) - offset) = a_t + E_t m.
    a = ((v0.reshape(T, n) - offset) @ sqrt_W.T).ravel()
    E = np.stack([(c.reshape(T, n) @ sqrt_W.T).ravel() for c in columns], axis=1)
    # Singular values below rounding level are dropped: the blocks may be
    # redundant (ynat confined to a subspace, a cost blind to some input).
    # Each column is a difference of rollouts of the size of v0, so it
    # carries rounding of order eps |v0| even where the columns themselves
    # are small; numpy's default cutoff, relative to the largest singular
    # value alone, would keep that noise and solve for blocks of ~1e15.
    v0_scale = np.abs((v0.reshape(T, n) @ sqrt_W.T)).max()
    largest = np.linalg.norm(E, 2)
    cond = np.finfo(float).eps * max(E.shape) * max(1.0, v0_scale / largest)
    m, *_ = scipy.linalg.lstsq(E, -a, cond=cond)
    return float(np.sum((a + E @ m) ** 2))


def _callable(cost):
    """The same quadratic, built from its ``Q``, ``R`` and target, behind a
    callable cost, which takes the comparator's damped-Newton path instead
    of the single exact pass."""
    Q, R = cost.Q, cost.R
    target = 0.0 if cost.target is None else cost.target
    return CallableCost(fn=lambda z, u: (z - target) @ Q @ (z - target) + u @ R @ u,
                        gx=lambda z, u: 2.0 * (Q @ (z - target)), gu=lambda z, u: 2.0 * (R @ u))


def _assert_same_optimum(value, ref, total, zero_total):
    """``value`` matches the reference optimum ``ref`` and the rollout
    total of the returned blocks to 1e-9, relative to the larger of the
    optimum and the cost at M = 0.  When the optimum is a tiny fraction of
    the cost at M = 0, large blocks cancel most of that cost and each
    floating-point evaluation of the optimum keeps only that share of its
    digits, while the minimizers themselves still agree."""
    tol = dict(rel=1e-9, abs=1e-9 * zero_total)
    assert value == pytest.approx(ref, **tol)
    assert value == pytest.approx(total, **tol)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d_x=st.integers(1, 3),
    d_u=st.integers(1, 2),
    h=st.integers(1, 3),
    T=st.integers(5, 200),
    with_target=st.booleans(),
    singular_R=st.booleans(),
)
# Optimum 1.5e-3 of the cost at M = 0, blocks of norm ~1.6e3: the three
# float evaluations of the optimum differ by about 1e-7 relative.
@example(seed=11113, d_x=1, d_u=2, h=3, T=5, with_target=True, singular_R=True)
def test_best_dac_exact_solve_matches_iterative(
    seed, d_x, d_u, h, T, with_target, singular_R
):
    system, cost, K, w, x0 = _random_comparator_problem(
        seed, d_x, d_u, d_x, T, False, with_target, singular_R
    )
    Ms, costs = best_dac_in_hindsight(system, cost, K, w, h, x0)
    value = costs.sum()
    assert Ms.shape == (h, d_u, d_x)
    ref = _lstsq_reference(
        system, cost, w, x0, Ms.shape, lambda M: DACPolicy(K, list(M)), observe=False
    )
    total = dac_rollout_costs(system, cost, K, Ms, w, x0).sum()
    zero_total = dac_rollout_costs(system, cost, K, np.zeros_like(Ms), w, x0).sum()
    _assert_same_optimum(value, ref, total, zero_total)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Ms_cb, costs_cb = best_dac_in_hindsight(system, _callable(cost), K, w, h, x0)
        value_cb = costs_cb.sum()
    total_cb = dac_rollout_costs(system, cost, K, Ms_cb, w, x0).sum()
    _assert_same_optimum(value_cb, ref, total_cb, zero_total)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d_x=st.integers(1, 3),
    d_u=st.integers(1, 2),
    d_y=st.integers(1, 3),
    h=st.integers(0, 2),
    T=st.integers(5, 200),
    with_target=st.booleans(),
    singular_R=st.booleans(),
)
# Costless control acting through C B = 1.3e-3: an iterative solve that
# stops on an absolute gradient norm of 1e-8 ends 3.4e-6 relative above
# the optimum.
@example(seed=300, d_x=1, d_u=1, d_y=1, h=1, T=5, with_target=True, singular_R=True)
# Half Hessian of condition 9e9, blocks of norm ~2e3: the quadratic form
# J(0) + 2 g.m + m.H.m cancels terms of ~5e9 and misses the optimum by
# 1.5e-9 relative, while a rollout at the blocks gives it to 1e-13.
@example(seed=60170, d_x=2, d_u=2, d_y=2, h=0, T=32, with_target=False, singular_R=False)
# ynat confined to a line (d_x = 1 < d_y = 2) and of norm ~1 while the
# columns of the reference's map are ~1e-2: their rounding leaves a
# singular value 3.35e-15 relative, just above numpy's default cutoff.
@example(seed=7162940, d_x=1, d_u=1, d_y=2, h=1, T=5, with_target=False, singular_R=True)
def test_best_drc_exact_solve_matches_iterative(
    seed, d_x, d_u, d_y, h, T, with_target, singular_R
):
    system, cost, _, w, x0 = _random_comparator_problem(
        seed, d_x, d_u, d_y, T, True, with_target, singular_R
    )
    Ms, costs = best_drc_in_hindsight(system, cost, w, h, x0)
    value = costs.sum()
    assert Ms.shape == (h + 1, d_u, d_y)
    ref = _lstsq_reference(
        system, cost, w, x0, Ms.shape, lambda M: DRCPolicy(list(M), d_x), observe=True
    )
    total = drc_rollout_costs(system, cost, Ms, w, x0).sum()
    zero_total = drc_rollout_costs(system, cost, np.zeros_like(Ms), w, x0).sum()
    _assert_same_optimum(value, ref, total, zero_total)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Ms_cb, costs_cb = best_drc_in_hindsight(system, _callable(cost), w, h, x0)
        value_cb = costs_cb.sum()
    total_cb = drc_rollout_costs(system, cost, Ms_cb, w, x0).sum()
    _assert_same_optimum(value_cb, ref, total_cb, zero_total)


def _provider(mode, *content_at):
    """``t -> matrices`` whose content at step ``t`` is given by
    ``content_at``: fresh arrays on every call, or (``"in-place"``) one set
    of buffers overwritten on every call."""
    if mode != "in-place":
        return lambda t: tuple(at(t) for at in content_at)
    buffers = [np.zeros_like(at(0)) for at in content_at]

    def in_place(t):
        for buffer, at in zip(buffers, content_at):
            buffer[...] = at(t)
        return tuple(buffers)

    return in_place


def _time_varying_problem(seed, d_x, d_u, d_y, T, observe, with_C, with_target, mode):
    """A random quadratic comparator problem on a time-varying system
    served by a provider in ``mode``; ``d_y = d_x`` without ``C``.  The
    closed loop ``A_t + B_t K`` has spectral norm at most 0.8 at every
    step, so rounding differences do not grow along the run."""
    rng = np.random.default_rng(seed)
    A0, A1 = rng.standard_normal((d_x, d_x)), rng.standard_normal((d_x, d_x))
    A0 *= 0.6 / np.linalg.norm(A0, 2)
    A1 *= 0.2 / np.linalg.norm(A1, 2)
    B0, B1 = rng.standard_normal((d_x, d_u)), 0.3 * rng.standard_normal((d_x, d_u))
    K = np.zeros((d_u, d_x)) if observe else 0.2 * rng.standard_normal((d_u, d_x))
    B_at = lambda t: B0 + np.cos(0.5 * t) * B1  # noqa: E731
    content = [lambda t: A0 + np.sin(0.7 * t) * A1 - B_at(t) @ K, B_at]
    if with_C:
        C0 = rng.standard_normal((d_y, d_x))
        content.append(lambda t: (1.0 + 0.3 * np.sin(0.3 * t)) * C0)
    else:
        d_y = d_x
    system = LinearSystem.time_varying(_provider(mode, *content), d_x, d_u, d_y)
    d_z = d_y if observe else d_x
    F = rng.standard_normal((d_z, d_z))
    cost = QuadraticCost(
        Q=F @ F.T + 0.1 * np.eye(d_z),
        R=np.diag(rng.uniform(0.1, 2.0, d_u)),
        target=rng.standard_normal(d_z) if with_target else None,
    )
    return system, cost, K, rng.standard_normal((T, d_x)), rng.standard_normal(d_x)


def _counting_chunks(counts):
    """``harness._chunks`` that appends the number of chunks of each call."""
    chunks = harness._chunks

    def counting(*args):
        counts.append(0)
        for chunk in chunks(*args):
            counts[-1] += 1
            yield chunk

    return counting


def _reference_costs(system, cost, policy, w, x0, observe):
    """Per-step costs of a plain ``simulate`` + ``policy_runner`` rollout."""
    v = _policy_signals(system, policy, w, x0, observe).reshape(w.shape[0], -1)
    d_z = cost.Q.shape[0]
    return np.array([cost.value(row[:d_z], row[d_z:]) for row in v])


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["dac", "drc"]),
    d_x=st.integers(1, 3),
    d_u=st.integers(1, 2),
    d_y=st.integers(1, 3),
    h=st.integers(1, 2),
    T=st.integers(24, 64),
    with_C=st.booleans(),
    with_target=st.booleans(),
    mode=st.sampled_from(["fresh", "in-place"]),
    chunk_bytes=st.integers(1, 128),
)
def test_chunked_comparators_on_time_varying_providers(
    seed, kind, d_x, d_u, d_y, h, T, with_C, with_target, mode, chunk_bytes
):
    # A small chunk budget makes every pass, rollout and natural-observation
    # sweep cross at least three chunk seams.
    observe = kind == "drc"
    system, cost, K, w, x0 = _time_varying_problem(
        seed, d_x, d_u, d_y, T, observe, with_C, with_target, mode
    )
    counts = []
    with mock.patch.object(harness, "_CHUNK_BYTES", chunk_bytes), mock.patch.object(
        harness, "_chunks", _counting_chunks(counts)
    ):
        if observe:
            Ms, comp_costs = best_drc_in_hindsight(system, cost, w, h, x0)
            make_policy = lambda M: DRCPolicy(list(M), d_x)  # noqa: E731
            rollout = lambda M: drc_rollout_costs(system, cost, M, w, x0)  # noqa: E731
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                Ms_cb, costs_cb = best_drc_in_hindsight(system, _callable(cost), w, h, x0)
        else:
            Ms, comp_costs = best_dac_in_hindsight(system, cost, K, w, h, x0)
            make_policy = lambda M: DACPolicy(K, list(M))  # noqa: E731
            rollout = lambda M: dac_rollout_costs(system, cost, K, M, w, x0)  # noqa: E731
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                Ms_cb, costs_cb = best_dac_in_hindsight(system, _callable(cost), K, w, h, x0)
        value, value_cb = comp_costs.sum(), costs_cb.sum()
        costs, total_cb = rollout(Ms), rollout(Ms_cb).sum()
        zero_total = rollout(np.zeros_like(Ms)).sum()
    assert min(counts) >= 3

    ref = _lstsq_reference(system, cost, w, x0, Ms.shape, make_policy, observe)
    _assert_same_optimum(value, ref, costs.sum(), zero_total)
    _assert_same_optimum(value_cb, ref, total_cb, zero_total)
    expected = _reference_costs(system, cost, make_policy(Ms), w, x0, observe)
    np.testing.assert_allclose(costs, expected, rtol=1e-12, atol=0.0)


def test_fixed_system_comparator_fetches_do_not_grow_with_the_horizon():
    # The sweeps read a time-invariant system's stacks as broadcast views,
    # so no step of the run calls matrices().
    bp = scenario_presets()["b747"]
    A, B, _ = bp.system.matrices(0)
    K = dare_solve(A, B, bp.cost.Q, bp.cost.R).K
    fetches = []
    for T in (250, 1000):
        w = generate_perturbations(bp.perturbation, T, 4, 0, bp.noise_embedding)
        with mock.patch.object(LinearSystem, "matrices", autospec=True,
                               side_effect=LinearSystem.matrices) as matrices:
            Ms, _ = best_dac_in_hindsight(bp.system, bp.cost, K, w, 8)
            dac_rollout_costs(bp.system, bp.cost, K, Ms, w)
        fetches.append(matrices.call_count)
    assert fetches[0] == fetches[1] <= 2


def test_dac_comparator_crosses_chunks_at_the_default_budget():
    # b747 with 8 action blocks: 64 parameters, so the pass works through
    # the run in several chunks of the default budget.
    bp = scenario_presets()["b747"]
    A, B, _ = bp.system.matrices(0)
    K = dare_solve(A, B, bp.cost.Q, bp.cost.R).K
    w = generate_perturbations(bp.perturbation, 150, 4, 3, bp.noise_embedding)
    counts = []
    with mock.patch.object(harness, "_chunks", _counting_chunks(counts)):
        Ms, costs = best_dac_in_hindsight(bp.system, bp.cost, K, w, 8)
        value = costs.sum()
    assert counts[0] >= 3
    ref = _lstsq_reference(
        bp.system, bp.cost, w, None, Ms.shape, lambda M: DACPolicy(K, list(M)), observe=False
    )
    total = dac_rollout_costs(bp.system, bp.cost, K, Ms, w).sum()
    zero_total = dac_rollout_costs(bp.system, bp.cost, K, np.zeros_like(Ms), w).sum()
    _assert_same_optimum(value, ref, total, zero_total)


def _log_cosh_problem():
    """A non-quadratic convex comparator problem: sum of log cosh over the
    state plus u^2, on a stable 2-state system, with p = 4 blocks."""
    rng = np.random.default_rng(41)
    system = LinearSystem.time_invariant([[0.7, 0.2], [-0.1, 0.6]], [[0.5], [1.0]])
    cost = CallableCost(
        fn=lambda x, u: float(np.sum(np.log(np.cosh(x))) + u @ u),
        gx=lambda x, u: np.tanh(x),
        gu=lambda x, u: 2.0 * u,
    )
    w = 1.5 * rng.standard_normal((60, 2))
    K = np.array([[0.1, -0.2]])
    return system, cost, K, w, np.array([2.0, -1.0])


def test_best_dac_non_quadratic_cost_matches_scipy():
    system, cost, K, w, x0 = _log_cosh_problem()
    h = 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Ms, costs = best_dac_in_hindsight(system, cost, K, w, h, x0)
        value = costs.sum()

    def total(m):
        return dac_rollout_costs(system, cost, K, m.reshape(h, 1, 2), w, x0).sum()

    ref = scipy.optimize.minimize(total, np.zeros(2 * h), method="BFGS", tol=1e-12)
    assert value == pytest.approx(total(Ms.ravel()), rel=1e-12)
    assert value <= ref.fun + 1e-12 * ref.fun
    assert value == pytest.approx(ref.fun, rel=1e-9)
    assert np.allclose(Ms.ravel(), ref.x, atol=1e-4)


def test_comparator_warns_when_newton_budget_runs_out():
    system, cost, K, w, x0 = _log_cosh_problem()
    with pytest.warns(UserWarning, match="action-policy comparator stopped after 1 Newton"):
        Ms, costs = best_dac_in_hindsight(system, cost, K, w, 2, x0, max_iter=1)
        value = costs.sum()
    assert np.all(Ms == 0.0)
    assert value == pytest.approx(dac_rollout_costs(system, cost, K, Ms, w, x0).sum())


def test_ventilator_comparator_long_horizon():
    # Pinned from the gradient-descent comparator this engine replaced,
    # which stopped at gradient norm 6.2e-8 with a warning.
    bp = scenario_presets()["ventilator"]
    w = generate_perturbations(bp.perturbation, 1000, 1, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Ms, costs = best_drc_in_hindsight(bp.system, bp.cost, w, 3, bp.x0)
        value = costs.sum()
    total = drc_rollout_costs(bp.system, bp.cost, Ms, w, bp.x0).sum()
    assert total <= 2142.774398593744 * (1.0 + 1e-12)
    assert value == pytest.approx(total, rel=1e-12)


def test_comparators_raise_typed_error_on_divergence():
    system = LinearSystem.time_invariant([[1.5]], [[1.0]])
    quadratic = QuadraticCost(Q=np.eye(1), R=np.eye(1))
    w = np.ones((3000, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cost in (quadratic, _callable(quadratic)):
            with pytest.raises(EvaluationError, match="objective became non-finite"):
                best_dac_in_hindsight(system, cost, [[0.0]], w, h=2)
            with pytest.raises(EvaluationError, match="objective became non-finite"):
                best_drc_in_hindsight(system, cost, w, h=2)


def test_best_linear_matches_grid_scalar():
    system = LinearSystem.time_invariant([[0.9]], [[1.0]])
    cost = QuadraticCost(Q=np.eye(1), R=np.eye(1))
    w = generate_perturbations(PerturbationSource.sinusoidal(1.0, 1.0), 100, 1, seed=4)
    K_star, costs = best_linear_in_hindsight(system, cost, w)
    value = costs.sum()

    grid = np.arange(-2.0, 0.0, 2e-3)
    grid_values = [
        linear_rollout_costs(system, cost, [[k]], w).sum() for k in grid
    ]
    j_grid = min(grid_values)
    assert value <= j_grid + 1e-3
    assert abs(value - j_grid) <= 1e-3 * (1.0 + abs(j_grid))


def test_best_linear_on_an_in_place_provider():
    # The provider overwrites one set of buffers on every call; the search
    # must see each step's own matrices.
    A_at = lambda t: np.array([[0.5 + 0.4 * np.sin(0.3 * t)]])  # noqa: E731
    B_at = lambda t: np.array([[1.0]])  # noqa: E731
    cost = QuadraticCost(Q=np.eye(1), R=np.eye(1))
    w = np.random.default_rng(8).standard_normal((60, 1))
    results = [
        best_linear_in_hindsight(
            LinearSystem.time_varying(_provider(mode, A_at, B_at), 1, 1), cost, w,
            starts=[np.zeros((1, 1))],
        )
        for mode in ("fresh", "in-place")
    ]
    assert np.array_equal(results[1][1], results[0][1])
    assert np.array_equal(results[1][0], results[0][0])


def test_best_linear_zero_when_control_has_no_effect():
    system = LinearSystem.time_invariant([[0.5]], [[0.0]])
    cost = QuadraticCost(Q=np.eye(1), R=np.eye(1))
    w = generate_perturbations(PerturbationSource.gaussian(1.0), 60, 1, seed=6)
    K_star, costs = best_linear_in_hindsight(system, cost, w)
    value = costs.sum()
    assert np.linalg.norm(K_star) <= 1e-6
    ref = linear_rollout_costs(system, cost, [[0.0]], w).sum()
    assert abs(value - ref) < 1e-10


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d_x=st.integers(1, 3),
    d_u=st.integers(1, 2),
    T=st.integers(20, 60),
    with_target=st.booleans(),
    mode=st.sampled_from(["fresh", "in-place"]),
)
@example(seed=5, d_x=3, d_u=2, T=40, with_target=True, mode="in-place")
def test_linear_pass_gradient_matches_central_differences(seed, d_x, d_u, T, with_target, mode):
    # The one-block, lag-0 action class on K's own closed-loop states has
    # the linear class's value and first derivatives in the gain.
    system, cost, K, w, x0 = _time_varying_problem(
        seed, d_x, d_u, d_x, T, False, False, with_target, mode
    )
    value, half_grad, *_ = harness._linear_pass(system, cost, w, x0, K, "linear")
    total = lambda K: linear_rollout_costs(system, cost, K, w, x0).sum()  # noqa: E731
    assert value == pytest.approx(total(K), rel=1e-12)
    eps = 1e-5
    fd = [
        (total(K + bump) - total(K - bump)) / (2.0 * eps)
        for bump in eps * np.eye(K.size).reshape(K.size, *K.shape)
    ]
    assert np.linalg.norm(2.0 * half_grad - fd) <= 1e-7 * np.linalg.norm(fd)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d_x=st.integers(1, 3),
    d_u=st.integers(1, 2),
    with_target=st.booleans(),
    mode=st.sampled_from(["fresh", "in-place"]),
)
def test_best_linear_is_stationary(seed, d_x, d_u, with_target, mode):
    # Gauss-Newton converges only linearly here (ratio up to about 0.7 a
    # pass), so a few draws need more than the default 50 passes; the
    # budget is raised for them to converge rather than warn.
    _check_best_linear_is_stationary(seed, d_x, d_u, with_target, mode)


@pytest.mark.xfail(strict=True, raises=UserWarning, reason=(
    "the zero-gain start wanders in an ill-conditioned valley (cond G about 3e5) "
    "and ends its 200 passes at decrement 16.6 with a budget warning"))
def test_best_linear_is_stationary_on_an_ill_conditioned_draw():
    # A draw of the test above that fails about 2 times in 300.
    _check_best_linear_is_stationary(13548, 2, 2, True, "fresh")


def _check_best_linear_is_stationary(seed, d_x, d_u, with_target, mode):
    system, cost, _, w, x0 = _time_varying_problem(
        seed, d_x, d_u, d_x, 40, False, False, with_target, mode
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K_star, costs = best_linear_in_hindsight(system, cost, w, x0, max_iter=200)
        value = costs.sum()
    total = linear_rollout_costs(system, cost, K_star, w, x0).sum()
    assert value == pytest.approx(total, rel=1e-12)
    rng = np.random.default_rng(seed)
    for _ in range(6):
        direction = rng.standard_normal(K_star.shape)
        direction /= np.linalg.norm(direction)
        for sign in (+1.0, -1.0):
            probed = linear_rollout_costs(system, cost, K_star + sign * 1e-4 * direction, w, x0)
            assert probed.sum() >= value - 1e-9 * (1.0 + abs(value))


def test_best_linear_b747_long_horizon_without_warnings():
    # The perturbed starts begin at unstable gains and spend their pass
    # budget on huge finite costs; they lose and stay silent.
    bp = scenario_presets()["b747"]
    w = generate_perturbations(bp.perturbation, 1000, 4, 0, bp.noise_embedding)
    A, B, _ = bp.system.matrices(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K_star, costs = best_linear_in_hindsight(bp.system, bp.cost, w)
        value = costs.sum()
        total = linear_rollout_costs(bp.system, bp.cost, K_star, w).sum()
        dare_total = linear_rollout_costs(
            bp.system, bp.cost, dare_solve(A, B, bp.cost.Q, bp.cost.R).K, w
        ).sum()
        zero_total = linear_rollout_costs(bp.system, bp.cost, np.zeros((2, 4)), w).sum()
    assert value == pytest.approx(total, rel=1e-12)
    assert value <= min(dare_total, zero_total)
    assert value == pytest.approx(30377.376380431655, rel=1e-9)


def test_comparator_input_validation():
    system = LinearSystem.time_invariant([[0.5]], [[1.0]])
    cost = QuadraticCost(Q=np.eye(1), R=np.eye(1))
    try:
        best_dac_in_hindsight(system, cost, [[0.0]], np.zeros((0, 1)), h=1)
        assert False, "expected ConfigurationError"
    except ConfigurationError:
        pass
    try:
        best_dac_in_hindsight(system, cost, [[0.0, 0.0]], np.ones((5, 1)), h=1)
        assert False, "expected ConfigurationError"
    except ConfigurationError:
        pass



@pytest.mark.parametrize("kind", ["dac", "drc", "linear"])
@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("mode", ["time-invariant", "fresh", "in-place"])
def test_comparator_costs_are_one_rollout_of_its_answer(kind, exact, mode):
    # A quadratic cost takes the exact path, its callable twin the Newton
    # path; the providers make the system time-varying.  Either way the
    # costs returned are those of the public rollout of the answer, bit for bit.
    observe = kind == "drc"
    if mode == "time-invariant":
        problem = _random_comparator_problem(5, 2, 1, 2, 60, observe, True, False)
    else:
        problem = _time_varying_problem(5, 2, 1, 2, 60, observe, observe, True, mode)
    system, cost, K, w, x0 = problem
    cost = cost if exact else _callable(cost)
    if kind == "dac":
        Ms, costs = best_dac_in_hindsight(system, cost, K, w, 2, x0)
        expected = dac_rollout_costs(system, cost, K, Ms, w, x0)
    elif kind == "drc":
        Ms, costs = best_drc_in_hindsight(system, cost, w, 2, x0)
        expected = drc_rollout_costs(system, cost, Ms, w, x0)
    else:
        K_star, costs = best_linear_in_hindsight(system, cost, w, x0, max_iter=200)
        expected = linear_rollout_costs(system, cost, K_star, w, x0)
    assert costs.shape == (60,)
    assert np.array_equal(costs, expected)


@pytest.mark.parametrize("controller, comparator, closed_loops", [
    ("lqr", "best-dac", 1),
    ("grc", "best-drc", 2),
])
def test_report_rolls_a_fitted_comparator_out_once(controller, comparator, closed_loops):
    # The exact comparator prices its answer with one rollout and the report
    # takes those costs; best-drc's one natural-observation sweep serves
    # both its pass and that rollout.
    config = config_from_preset("scalar-0.9", {"kind": controller}, 300,
                                comparator={"kind": comparator})
    with mock.patch.object(harness, "_policy_rollout_costs",
                           wraps=harness._policy_rollout_costs) as rollouts, \
            mock.patch.object(harness, "_closed_loop", wraps=harness._closed_loop) as sweeps:
        run_experiment(config)
    assert rollouts.call_count == 1
    assert sweeps.call_count == closed_loops


def test_diverging_comparator_rollout_is_a_typed_error():
    # LQR holds the pendulum upright, but the zero comparator's rollout
    # falls, and its cost leaves the floats at step 2453.
    config = config_from_preset("pendulum", {"kind": "lqr"}, 5000, comparator={"kind": "zero"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError,
                           match="comparator rollout's cost is non-finite at t=2453"):
            run_experiment(config)

# ---------------------------------------------------------------------------
# Regret reports and artifacts
# ---------------------------------------------------------------------------


def make_report(T=10, seed=0):
    rng = np.random.default_rng(seed)
    return RegretReport(
        controller="gpc",
        comparator="best-dac",
        costs=rng.uniform(0.0, 2.0, T),
        comparator_costs=rng.uniform(0.0, 2.0, T),
        state_norms=rng.uniform(0.0, 1.0, T),
        horizon=T,
        seed=seed,
        gamma=0.1,
        wall_clock=0.5,
    )


def test_report_shape_validation():
    try:
        RegretReport(
            controller="x",
            comparator="y",
            costs=np.zeros(5),
            comparator_costs=np.zeros(4),
            state_norms=np.zeros(5),
            horizon=5,
            seed=0,
            gamma=0.0,
            wall_clock=0.0,
        )
        assert False, "expected ConfigurationError"
    except ConfigurationError:
        pass


def test_report_regret_identity():
    report = make_report(T=17, seed=3)
    cum = np.cumsum(report.costs)
    cumc = np.cumsum(report.comparator_costs)
    steps = np.arange(1, 18, dtype=float)
    assert np.array_equal(report.avg_regret, (cum - cumc) / steps)
    assert report.final_avg_regret == report.avg_regret[-1]
    assert report.total_cost == float(report.costs.sum())


def test_report_csv_roundtrip_exact():
    report = make_report(T=12, seed=5)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.csv")
        write_report_csv(report, path)
        header, data = read_csv(path)
    assert header == CSV_COLUMNS
    assert np.array_equal(data[:, 0], np.arange(1, 13, dtype=float))
    assert np.array_equal(data[:, 1], report.costs)
    assert np.array_equal(data[:, 2], report.cum_cost)
    assert np.array_equal(data[:, 3], report.cum_comparator_cost)
    assert np.array_equal(data[:, 4], report.avg_regret)
    assert np.array_equal(data[:, 5], report.state_norms)
    # The regret identity survives the text round trip bit-for-bit.
    assert np.array_equal(data[:, 4], (data[:, 2] - data[:, 3]) / data[:, 0])


def test_report_csv_byte_identical():
    report = make_report(T=9, seed=8)
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
        write_report_csv(report, p1)
        write_report_csv(report, p2)
        with open(p1, "rb") as fh:
            b1 = fh.read()
        with open(p2, "rb") as fh:
            b2 = fh.read()
    assert b1 == b2


def test_report_csv_bytes_match_a_per_row_writer(tmp_path):
    # write_report_csv renders whole rows from .tolist() columns; the bytes
    # are those of a row-by-row writer that reads each value as float(...)
    # and formats it with %.17g.  Large, tiny and negative values included.
    report = make_report(T=40, seed=2)
    report.costs[:3] = [1e300, 5e-324, 0.1]
    report.state_norms[3] = 123456789.0
    lines = [",".join(CSV_COLUMNS)]
    for t in range(report.horizon):
        values = (report.costs[t], report.cum_cost[t], report.cum_comparator_cost[t],
                  report.avg_regret[t], report.state_norms[t])
        lines.append(",".join([str(t + 1)] + ["%.17g" % float(v) for v in values]))
    write_report_csv(report, str(tmp_path / "report.csv"))
    assert (tmp_path / "report.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_report_summary_includes_extras():
    report = make_report(T=4, seed=1)
    report.extras["exploration_cost"] = 1.25
    summary = report_summary(report)
    assert summary["controller"] == "gpc"
    assert summary["horizon"] == 4
    assert summary["exploration_cost"] == 1.25
    assert abs(summary["final_avg_regret"] - report.final_avg_regret) == 0.0


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------


def test_run_experiment_zero_controller_zero_noise():
    # Double integrator from x0 = (1, 0) with no control and no noise stays
    # put, so every per-step cost is exactly 1 and the zero comparator ties.
    with tempfile.TemporaryDirectory() as tmp:
        config = config_from_preset(
            "double-integrator",
            controller={"kind": "zero"},
            horizon=25,
            seed=0,
            comparator={"kind": "zero"},
            out_dir=tmp,
        )
        report = run_experiment(config)
        assert np.all(report.costs == 1.0)
        assert np.all(report.comparator_costs == 1.0)
        assert np.all(report.avg_regret == 0.0)
        assert os.path.exists(os.path.join(tmp, "report.csv"))
        summary = read_json_summary(os.path.join(tmp, "summary.json"))
        assert summary["controller"] == "zero"
        assert summary["total_cost"] == 25.0


def test_run_experiment_gpc_deterministic_artifacts():
    with tempfile.TemporaryDirectory() as tmp:
        d1, d2 = os.path.join(tmp, "r1"), os.path.join(tmp, "r2")
        kwargs = dict(
            controller={"kind": "gpc", "h": 4, "radius": 2.0, "step_size": 0.05},
            horizon=150,
            seed=12,
        )
        r1 = run_experiment(config_from_preset("scalar-0.9", out_dir=d1, **kwargs))
        r2 = run_experiment(config_from_preset("scalar-0.9", out_dir=d2, **kwargs))
        assert r1.controller == "gpc"
        assert r1.comparator == "best-dac"
        assert r1.horizon == 150
        assert np.array_equal(r1.costs, r2.costs)
        assert np.array_equal(r1.comparator_costs, r2.comparator_costs)
        with open(os.path.join(d1, "report.csv"), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(d2, "report.csv"), "rb") as fh:
            b2 = fh.read()
        assert b1 == b2


def _radius_zero_gradient_norms(kind, steps):
    """The gradient norms of the learners of the test below at radius 0, by
    hand.  Their blocks stay 0, so the pair is the drift and no control,
    and the gradient is twice the drift times the sensitivity of the state
    to each block, which grows as 0.9 J + s once the block's lag reaches a
    signal.  GPC (K = 0, blocks at lags 1 and 2): the drift is c_t = sum of
    0.9^k w = 1 - 0.9^t under w = 0.1, and the signal is w = 0.1.  GRC
    (blocks at lags 0 to 2): with no control x_t = 1 for every t, so nature's
    y, the drift and the signal are all 1."""
    lags = (1, 2) if kind == "gpc" else (0, 1, 2)
    signal = 0.1 if kind == "gpc" else 1.0
    drift, J, norms = 0.0 if kind == "gpc" else 1.0, [0.0] * len(lags), []
    for t in range(steps):
        norms.append(math.sqrt(sum((2.0 * drift * j) ** 2 for j in J)))
        J = [0.9 * j + (signal if t >= lag else 0.0) for j, lag in zip(J, lags)]
        if kind == "gpc":
            drift = 0.9 * drift + 0.1
    return norms


@pytest.mark.parametrize("kind", ["gpc", "grc"])
def test_run_experiment_reports_learner_diagnostics(kind, tmp_path):
    # scalar-0.9 (x0 = 1) under w = 0.1, GPC with K = 0.  Both learners
    # step at t = 0..T-1, each act followed by its update.  The first
    # gradients are zero until a past signal reaches the loss: two for GPC,
    # whose actions read w from lag 1 on, one for GRC.  Under radius 0 every
    # later step leaves the ball and is projected; under radius 1e6 none is.
    T = 40
    steps, silent = T, (2 if kind == "gpc" else 1)
    norms = _radius_zero_gradient_norms(kind, steps)
    for radius, projected in ((1e6, 0), (0.0, steps - silent)):
        spec = {"kind": kind, "h": 2, "radius": radius, "step_size": 0.001}
        if kind == "gpc":
            spec["K"] = [[0.0]]
        out = tmp_path / f"r{radius}"
        report = run_experiment(config_from_preset(
            "scalar-0.9", controller=spec, horizon=T, comparator={"kind": "none"},
            out_dir=str(out), perturbation=PerturbationSource.constant([0.1])))
        summary = read_json_summary(str(out / "summary.json"))
        for key, value in report.extras.items():
            assert summary[key] == value
        assert sorted(report.extras) == ["ogd_grad_norm_max", "ogd_grad_norm_sq_sum",
                                         "ogd_last_step_size", "ogd_projected_steps",
                                         "ogd_steps"]
        assert report.extras["ogd_steps"] == steps
        assert report.extras["ogd_projected_steps"] == projected
        assert report.extras["ogd_last_step_size"] == 0.001 / math.sqrt(steps)
        grad_sq, grad_max = (report.extras[key] for key in ("ogd_grad_norm_sq_sum",
                                                             "ogd_grad_norm_max"))
        if radius == 0.0:
            assert grad_sq == pytest.approx(sum(n * n for n in norms), rel=1e-12)
            assert grad_max == pytest.approx(max(norms), rel=1e-12)
        assert 0.0 < grad_max * grad_max <= grad_sq
    # The fixed policies have no learner to report on.
    report = run_experiment(config_from_preset("scalar-0.9", controller={"kind": "lqr"},
                                               horizon=T, comparator={"kind": "none"}))
    assert report.extras == {}


def test_run_experiment_grc_requires_stable_dynamics():
    for preset in ("double-integrator", "ventilator"):
        try:
            run_experiment(
                config_from_preset(preset, controller={"kind": "grc"}, horizon=30)
            )
            assert False, "expected ConfigurationError"
        except ConfigurationError:
            pass


def test_rollout_and_observation_costs_need_no_gradients():
    # The played observation costs and the zero comparator's rollout costs
    # only read values: a callable cost without gradient functions gives
    # the same bytes as the preset's own.
    config = config_from_preset(
        "ventilator", controller={"kind": "zero"}, horizon=40, comparator={"kind": "zero"}
    )
    report = run_experiment(config)
    config.cost = CallableCost(fn=config.cost.fn, gx=None, gu=None)
    values_only = run_experiment(config)
    assert np.array_equal(values_only.costs, report.costs)
    assert np.array_equal(values_only.comparator_costs, report.comparator_costs)


def test_run_experiment_observation_cost():
    # Ventilator costs live on (pressure deviation, flow) pairs: at t = 0
    # the volume deviation is 0.5, the pressure deviation is (4/3)*0.5, and
    # the zero controller pays its square.
    config = config_from_preset(
        "ventilator",
        controller={"kind": "zero"},
        horizon=40,
        seed=0,
        comparator={"kind": "best-drc", "h": 3},
    )
    report = run_experiment(config)
    y0 = (4.0 / 3.0) * 0.5
    assert abs(report.costs[0] - y0 * y0) < 1e-9
    assert report.comparator_total_cost <= report.total_cost + 1e-9
    # A fixed policy's h is the comparator's default depth.
    config.controller["h"] = 3
    del config.comparator["h"]
    assert np.array_equal(run_experiment(config).comparator_costs, report.comparator_costs)

    try:
        run_experiment(
            config_from_preset(
                "ventilator",
                controller={"kind": "zero"},
                horizon=10,
                comparator={"kind": "best-dac"},
            )
        )
        assert False, "expected ConfigurationError"
    except ConfigurationError:
        pass


def test_configuration_error_paths():
    try:
        config_from_preset("no-such-preset", controller={"kind": "zero"}, horizon=10)
        assert False, "expected ConfigurationError"
    except ConfigurationError:
        pass
    try:
        run_experiment(
            config_from_preset("scalar-0.9", controller={"kind": "pid"}, horizon=10)
        )
        assert False, "expected ConfigurationError"
    except ConfigurationError:
        pass
    # Every controller kind checks its spec: an unknown key, or a learner
    # option given to a fixed policy, is an error naming it.
    # The learners take no truncation depth: their counterfactuals are exact.
    for kind, key in [(k, "bogus") for k in ("zero", "linear", "lqr", "gpc", "grc")] + [
        ("lqr", "radius"), ("zero", "schedule"), ("grc", "K"), ("gpc", "H_trunc"),
        ("grc", "H_trunc"),
    ]:
        with pytest.raises(ConfigurationError, match=rf"unknown {kind} options: \['{key}'\]"):
            run_experiment(
                config_from_preset("scalar-0.9", controller={"kind": kind, key: 1.0}, horizon=10)
            )
    try:
        run_experiment(
            config_from_preset(
                "scalar-0.9",
                controller={"kind": "zero"},
                horizon=10,
                comparator={"kind": "oracle"},
            )
        )
        assert False, "expected ConfigurationError"
    except ConfigurationError:
        pass
    try:
        config_from_preset("scalar-0.9", controller={"kind": "zero"}, horizon=0)
        assert False, "expected ConfigurationError"
    except ConfigurationError:
        pass
    try:
        ScenarioConfig(
            name="x",
            system=LinearSystem.time_invariant([[1.0]], [[1.0]]),
            cost=QuadraticCost(Q=np.eye(1), R=np.eye(1)),
            perturbation=PerturbationSource.zero(),
            controller={"kind": "zero"},
            horizon=5,
            x0=np.zeros(3),
        )
        assert False, "expected ConfigurationError"
    except ConfigurationError:
        pass


def test_load_config_preset_with_overrides():
    text = """
[system]
preset = scalar-0.9

[controller]
kind = gpc
h = 4
radius = 2.0
step_size = 0.05

[run]
horizon = 60
seed = 3
"""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        config = load_config(path)
        assert config.horizon == 60
        assert config.seed == 3
        assert config.controller["kind"] == "gpc"
        assert config.controller["h"] == 4
        report = run_experiment(config)
        assert report.horizon == 60

        config2 = load_config(path, overrides={"horizon": 25, "seed": 9})
        assert config2.horizon == 25
        assert config2.seed == 9

    try:
        load_config(os.path.join(tmp, "gone.cfg"))
        assert False, "expected ConfigurationError"
    except ConfigurationError:
        pass


def test_load_config_inline_system():
    with tempfile.TemporaryDirectory() as tmp:
        save_matrix(np.array([[0.5, 0.0], [0.0, 0.5]]), os.path.join(tmp, "A.txt"))
        save_matrix(np.array([[1.0], [0.0]]), os.path.join(tmp, "B.txt"))
        save_matrix(np.eye(2), os.path.join(tmp, "Q.txt"))
        save_matrix(np.eye(1), os.path.join(tmp, "R.txt"))
        save_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]), os.path.join(tmp, "w.txt"))
        text = """
[system]
a = A.txt
b = B.txt

[cost]
q = Q.txt
r = R.txt

[perturbation]
kind = recorded
sequence = w.txt

[controller]
kind = zero

[run]
horizon = 2
seed = 0
out = artifacts
"""
        path = os.path.join(tmp, "inline.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        config = load_config(path)
        A, B, _ = config.system.matrices(0)
        assert np.array_equal(A, [[0.5, 0.0], [0.0, 0.5]])
        assert np.array_equal(B, [[1.0], [0.0]])
        report = run_experiment(config)
        # x0 = 0: first cost 0, then x1 = w0 = e1 with unit quadratic cost.
        assert report.costs[0] == 0.0
        assert abs(report.costs[1] - 1.0) < 1e-12
        assert os.path.exists(os.path.join(tmp, "artifacts", "report.csv"))


def test_gpc_average_regret_improves_with_horizon():
    # Single-seed spot check of the regret trend; the multi-seed version
    # across presets and noise types lives in the acceptance suite.
    reports = {}
    for T in (400, 1600):
        config = config_from_preset(
            "scalar-0.9",
            controller={"kind": "gpc", "h": 8, "radius": 2.0, "step_size": 0.05},
            horizon=T,
            seed=1,
        )
        reports[T] = run_experiment(config)
    assert reports[1600].final_avg_regret < reports[400].final_avg_regret
