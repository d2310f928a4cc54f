"""Tests for the LQR backward recursion and the DARE value iteration.

Golden values derived by hand: the scalar DARE A=B=Q=R=1 reduces to
S^2 - S - 1 = 0 with positive root S = (1+sqrt(5))/2; one backward LQR
step on the same data gives K = -1/2, S = 3/2.  scipy's dedicated DARE
solver serves as an independent cross-check.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_are

from nscontrol.errors import ConfigurationError, EvaluationError
from nscontrol.lds_core import LinearSystem, PerturbationSource, QuadraticCost, simulate, spectral_radius
from nscontrol.optimal_control import _riccati_step, dare_solve, lqr_finite

GOLDEN_S = (1.0 + np.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# The Riccati step
# ---------------------------------------------------------------------------


def _psd(rng, d, rank):
    G = rng.normal(size=(d, rank))
    return G @ G.T


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d_x=st.integers(1, 4),
    d_u=st.integers(1, 3),
    rank_R=st.integers(0, 3),
    rank_S=st.integers(0, 4),
)
def test_riccati_step_matches_correction_form(seed, d_x, d_u, rank_R, rank_S):
    # The gain (Joseph) form equals the hand correction form
    # Q + A'SA - A'SB (R + B'SB)^+ B'SA where cond(R + B'SB) <= 1e8; ranks
    # below the dimension give singular R and S.  Both forms round to about
    # cond * eps of the terms' size, so above cond 1e6 the bound is
    # 1e-15 * cond (the largest gap over 79,000 such cases was 2e-9 for S
    # and 7e-9 for K, both at cond near 1e8).
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d_x, d_x))
    B = rng.normal(size=(d_x, d_u))
    Q = _psd(rng, d_x, d_x)
    R = _psd(rng, d_u, min(rank_R, d_u))
    S = _psd(rng, d_x, min(rank_S, d_x))
    G = R + B.T @ S @ B
    singular_values = np.linalg.svd(G, compute_uv=False)
    assume(singular_values[-1] >= 1e-8 * singular_values[0] > 0.0)
    tol = max(1e-9, 1e-15 * singular_values[0] / singular_values[-1])
    K, S_next = _riccati_step(A, B, Q, R, S)
    AtSA = A.T @ S @ A
    expected = Q + AtSA - A.T @ S @ B @ np.linalg.pinv(G) @ B.T @ S @ A
    scale = max(1.0, np.abs(Q).max(), np.abs(AtSA).max())
    assert np.abs(S_next - expected).max() <= tol * scale
    assert np.abs(K + np.linalg.solve(G, B.T @ S @ A)).max() <= tol * max(1.0, np.abs(K).max())


# ---------------------------------------------------------------------------
# Finite-horizon LQR
# ---------------------------------------------------------------------------


def test_lqr_terminal_conditions_exact():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 2))
    Q = np.eye(3) * 2.0
    R = np.eye(2)
    sol = lqr_finite(A, B, Q, R, T=6)
    assert np.array_equal(sol.S[-1], Q)
    assert np.all(sol.K[-1] == 0)
    assert sol.c[-1] == 0.0


def test_lqr_scalar_one_backward_step():
    sol = lqr_finite([[1.0]], [[1.0]], [[1.0]], [[1.0]], T=2)
    # Hand recursion: K = -(1 + 1)^-1 * 1 = -1/2;
    # S = 1 + (1/2)^2 * 1 + (1 - 1/2)^2 * 1 = 3/2.
    assert abs(sol.K[0][0, 0] - (-0.5)) < 1e-14
    assert abs(sol.S[0][0, 0] - 1.5) < 1e-14


def test_lqr_noise_offset_accumulates_traces():
    sol = lqr_finite([[1.0]], [[1.0]], [[1.0]], [[1.0]], T=3, sigma2=2.0)
    # c_2 = 0; c_1 = 2 * tr(S_2) = 2; c_0 = c_1 + 2 * tr(S_1) = 2 + 3 = 5.
    assert abs(sol.c[2]) == 0.0
    assert abs(sol.c[1] - 2.0) < 1e-14
    assert abs(sol.c[0] - 5.0) < 1e-14


def test_lqr_no_control_telescopes_to_lyapunov_sum():
    rng = np.random.default_rng(2)
    A = 0.5 * rng.standard_normal((3, 3))
    Q = np.eye(3)
    T = 7
    sol = lqr_finite(A, np.zeros((3, 1)), Q, np.eye(1), T=T)
    assert np.all(sol.K == 0)
    # Independent series: S_0 = sum_{t=0}^{T-1} (A^t)' Q A^t.
    expected = np.zeros((3, 3))
    power = np.eye(3)
    for _ in range(T):
        expected += power.T @ Q @ power
        power = power @ A
    assert np.max(np.abs(sol.S[0] - expected)) < 1e-10


def test_lqr_time_varying_providers():
    def A_of(t):
        return [[0.5 + 0.1 * t]]

    sol = lqr_finite(A_of, [[1.0]], [[1.0]], [[1.0]], T=3)
    # Backward by hand: S_2 = 1, K_1 = -(1+1)^-1 * A_1 S_2 = -0.3 with A_1=0.6;
    # S_1 = 1 + K^2 + (A_1 + K)^2 = 1 + 0.09 + 0.09 = 1.18.
    assert abs(sol.K[1][0, 0] - (-0.3)) < 1e-14
    assert abs(sol.S[1][0, 0] - 1.18) < 1e-14


def test_lqr_rejects_non_psd():
    with pytest.raises(ConfigurationError):
        lqr_finite([[1.0]], [[1.0]], [[-1.0]], [[1.0]], T=2)


def test_lqr_matches_dare_on_long_horizons():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((2, 2))
    A *= 0.95 / spectral_radius(A)
    B = rng.standard_normal((2, 1))
    Q = np.eye(2)
    R = np.eye(1)
    finite = lqr_finite(A, B, Q, R, T=400)
    infinite = dare_solve(A, B, Q, R)
    assert np.max(np.abs(finite.K[0] - infinite.K)) < 1e-8
    assert np.max(np.abs(finite.S[0] - infinite.S)) < 1e-7


# ---------------------------------------------------------------------------
# DARE
# ---------------------------------------------------------------------------


def test_dare_scalar_golden_ratio():
    sol = dare_solve([[1.0]], [[1.0]], [[1.0]], [[1.0]])
    assert abs(sol.S[0, 0] - GOLDEN_S) < 1e-9
    assert abs(sol.K[0, 0] - (-GOLDEN_S / (1.0 + GOLDEN_S))) < 1e-9
    assert sol.residual <= 1e-10


def test_dare_zero_A_returns_Q_immediately():
    Q = np.diag([2.0, 3.0])
    sol = dare_solve(np.zeros((2, 2)), np.eye(2), Q, np.eye(2))
    assert np.array_equal(sol.S, Q)
    assert sol.iterations == 1


def test_dare_no_control_equals_lyapunov_series():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 3))
    A *= 0.7 / spectral_radius(A)
    Q = np.eye(3)
    sol = dare_solve(A, np.zeros((3, 1)), Q, np.eye(1), tol=1e-12)
    series = np.zeros((3, 3))
    power = np.eye(3)
    for _ in range(2000):
        series += power.T @ Q @ power
        power = power @ A
    assert np.max(np.abs(sol.S - series)) < 1e-9


def test_dare_against_scipy_oracle():
    rng = np.random.default_rng(5)
    for _ in range(5):
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 2))
        Q = np.eye(3)
        R = np.eye(2)
        ours = dare_solve(A, B, Q, R, tol=1e-12)
        reference = solve_discrete_are(A, B, Q, R)
        assert np.max(np.abs(ours.S - reference)) < 1e-6


def test_dare_iterates_monotone_and_stable_closed_loop():
    rng = np.random.default_rng(6)
    for _ in range(5):
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 1))
        Q = np.eye(3)
        R = np.eye(1)
        sol = dare_solve(A, B, Q, R)
        assert spectral_radius(A + B @ sol.K) < 1.0
        # Fixed-point residual under one more hand iteration.
        S = sol.S
        S_next = Q + A.T @ S @ A - A.T @ S @ B @ np.linalg.pinv(R + B.T @ S @ B) @ B.T @ S @ A
        assert np.linalg.norm(S_next - S) <= 1e-9
        # Monotone traces from S_0 = Q.
        S_iter = Q.copy()
        prev_trace = np.trace(S_iter)
        for _ in range(50):
            S_iter = (
                Q
                + A.T @ S_iter @ A
                - A.T @ S_iter @ B @ np.linalg.pinv(R + B.T @ S_iter @ B) @ B.T @ S_iter @ A
            )
            assert np.linalg.eigvalsh((S_iter + S_iter.T) / 2).min() > -1e-9
            assert np.trace(S_iter) >= prev_trace - 1e-9
            prev_trace = np.trace(S_iter)


def test_dare_nonconvergence_raises():
    # A = 1, B = 0: S <- Q + S diverges, so the cap must trip.
    with pytest.raises(EvaluationError):
        dare_solve([[1.0]], [[0.0]], [[1.0]], [[1.0]], max_iter=50)


def test_dare_divergence_raises_without_overflow_warnings():
    # A = 2, B = 0: S grows 4x per iteration until it overflows.  The
    # divergence must surface as a typed error, not as a RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="diverged"):
            dare_solve([[2.0]], [[0.0]], [[1.0]], [[1.0]])


def test_dare_policy_beats_perturbed_gains_monte_carlo():
    a, b, q, r = 0.9, 1.0, 1.0, 1.0
    sol = dare_solve([[a]], [[b]], [[q]], [[r]])
    k_star = sol.K[0, 0]
    system = LinearSystem.time_invariant([[a]], [[b]])
    cost = QuadraticCost([[q]], [[r]])
    T = 10_000

    def avg_cost(k, seed):
        traj = simulate(
            system,
            lambda t, x, y: np.array([k * x[0]]),
            PerturbationSource.gaussian(1.0),
            cost,
            T=T,
            seed=seed,
        )
        return traj.costs.mean(), traj.costs.std() / np.sqrt(T)

    base_mean, base_se = avg_cost(k_star, seed=0)
    for eps in (0.01, 0.05, -0.01, -0.05):
        for seed in range(5):
            other_mean, other_se = avg_cost(k_star + eps, seed=seed)
            assert base_mean <= other_mean + base_se + other_se
