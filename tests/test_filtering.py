"""Tests for Kalman filtering, learned linear predictors, and spectral
filtering.

Closed-form Z entries are checked against adaptive quadrature, the T=2
eigenbasis against a hand eigendecomposition, learned-predictor gradients
against finite differences, and Kalman against both the transposed-DARE
duality and an offline least-squares comparator.
"""

import base64
import dataclasses
import math
import os
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import solve_discrete_are

import nscontrol.filtering as filtering
from nscontrol import cli
from nscontrol.errors import ConfigurationError, EvaluationError
from nscontrol.filtering import (
    KalmanState,
    LinearPredictor,
    OnlineSpectralFilter,
    SpectralPredictor,
    _fix_sign,
    _group_ball_scales,
    _z_operator,
    build_Z,
    cached_basis,
    hankel_W,
    kalman_filter,
    kalman_steady_state,
    kalman_step,
    learn_linear_step,
    learn_spectral_step,
    load_basis,
    mu_vector,
    predict_linear,
    save_basis,
    spectral_basis,
    spectral_predict,
)
from nscontrol.harness import component_seed, config_from_preset, generate_perturbations
from nscontrol.lds_core import TOL_PSD, PerturbationSource, _all_finite, _as_matrix
from nscontrol.optimal_control import _riccati_step, dare_solve
from nscontrol.serialize import read_csv, read_json_summary

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# Kalman filter
# ---------------------------------------------------------------------------


def test_kalman_full_trust_limit():
    # With C = I and vanishing observation noise the filter trusts the
    # observation completely: x_hat' -> A y + B u.
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 3)) * 0.4
    B = rng.normal(size=(3, 2))
    u = rng.normal(size=2)
    y = rng.normal(size=3)
    state = KalmanState(x_hat=rng.normal(size=3), Sigma=np.eye(3))
    out = kalman_step(state, A, B, np.eye(3), np.eye(3), 1e-12 * np.eye(3), u=u, y=y)
    assert np.allclose(out.x_hat, A @ y + B @ u, atol=1e-6)


def test_kalman_scalar_steady_state_golden():
    # Scalar A = C = Sigma_x = Sigma_y = 1: the covariance fixed point solves
    # S^2 = S + 1, the golden ratio; the gain is S/(S+1) = 1/S.
    one = np.eye(1)
    state = KalmanState(x_hat=np.zeros(1), Sigma=one)
    for t in range(200):
        state = kalman_step(state, one, None, one, one, one, y=np.zeros(1))
    assert abs(state.Sigma[0, 0] - GOLDEN) < 1e-9

    Sig, L = kalman_steady_state(one, one, one, one)
    assert abs(Sig[0, 0] - GOLDEN) < 1e-6
    assert abs(L[0, 0] - (GOLDEN - 1.0)) < 1e-6  # 1/golden = golden - 1


def test_kalman_a_zero_reaches_sigma_x_immediately():
    # A = 0 kills the propagated term: Sigma' = Sigma_x at once.
    Sx = np.diag([2.0, 3.0])
    Sig, L = kalman_steady_state(np.zeros((2, 2)), np.eye(2), Sx, np.eye(2))
    assert np.allclose(Sig, Sx, atol=1e-12)
    assert np.allclose(L, 0.0, atol=1e-12)


def test_kalman_zero_noise_tracks_exactly():
    # Exact model, no noise, x_hat0 = x0: the estimate reproduces the state.
    rng = np.random.default_rng(1)
    A = rng.normal(size=(3, 3)) * 0.4
    B = rng.normal(size=(3, 1))
    C = np.eye(3)
    zero = np.zeros((3, 3))
    x = rng.normal(size=3)
    state = KalmanState(x_hat=x.copy(), Sigma=zero)
    for t in range(30):
        u = rng.normal(size=1)
        y = C @ x
        state = kalman_step(state, A, B, C, zero, zero, u=u, y=y)
        x = A @ x + B @ u
        assert np.allclose(state.x_hat, x, atol=1e-10)


def test_kalman_sigma_stays_psd():
    rng = np.random.default_rng(2)
    for trial in range(5):
        d = 3
        A = rng.normal(size=(d, d)) * 0.5
        C = rng.normal(size=(2, d))
        Gx = rng.normal(size=(d, d))
        Gy = rng.normal(size=(2, 2))
        Sx = Gx @ Gx.T
        Sy = Gy @ Gy.T + 0.1 * np.eye(2)
        state = KalmanState(x_hat=np.zeros(d), Sigma=Sx)
        for t in range(100):
            y = rng.normal(size=2)
            state = kalman_step(state, A, None, C, Sx, Sy, y=y)
            eigenvalues = np.linalg.eigvalsh(state.Sigma)
            assert eigenvalues.min() >= -1e-9
            assert np.allclose(state.Sigma, state.Sigma.T, atol=1e-12)


def test_kalman_steady_state_matches_transposed_dare_and_scipy():
    # The covariance fixed point is the control DARE on transposed data:
    # A -> A', B -> C', Q -> Sigma_x, R -> Sigma_y.
    rng = np.random.default_rng(3)
    for trial in range(4):
        d = 3
        A = rng.normal(size=(d, d))
        A *= 0.7 / max(abs(np.linalg.eigvals(A)))
        C = rng.normal(size=(2, d))
        Gx = rng.normal(size=(d, d))
        Sx = Gx @ Gx.T + 0.1 * np.eye(d)
        Sy = np.eye(2)
        Sig, L = kalman_steady_state(A, C, Sx, Sy)
        dual = dare_solve(A.T, C.T, Sx, Sy)
        assert np.allclose(Sig, dual.S, atol=1e-7)
        oracle = solve_discrete_are(A.T, C.T, Sx, Sy)
        assert np.allclose(Sig, oracle, atol=1e-7)


def test_kalman_rejects_bad_covariances():
    state = KalmanState(x_hat=np.zeros(1), Sigma=np.eye(1))
    one = np.eye(1)
    try:
        kalman_step(state, one, None, one, -one, one, y=np.zeros(1))
        assert False, "expected ConfigurationError"
    except ConfigurationError:
        pass
    try:
        KalmanState(x_hat=np.zeros(2), Sigma=np.array([[1.0, 0.5], [0.0, 1.0]]))
        assert False, "expected ConfigurationError"
    except ConfigurationError:
        pass


def test_kalman_rejects_nonfinite_estimate_and_inputs():
    one = np.eye(1)
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigurationError, match="x_hat contains non-finite entries"):
            KalmanState(x_hat=[bad], Sigma=one)
    state = KalmanState(x_hat=np.zeros(1), Sigma=one)
    with pytest.raises(ConfigurationError, match="y contains non-finite entries"):
        kalman_step(state, one, None, one, one, one, y=[np.nan])
    with pytest.raises(ConfigurationError, match="u contains non-finite entries"):
        kalman_step(state, one, one, one, one, one, u=[np.inf], y=[0.0])


_FINITENESS_CASES = {
    "nan": [[np.nan, 0.0], [0.0, 1.0]],
    "+inf": [[np.inf, 0.0], [0.0, 1.0]],
    "+inf and -inf": [[np.inf, 0.0], [0.0, -np.inf]],  # their sum is NaN
    "overflowing sum": [[1e308, 0.0], [0.0, 1e308]],  # finite entries
}


@pytest.mark.parametrize("case", sorted(_FINITENESS_CASES))
def test_finiteness_checks_keep_their_verdicts(case):
    # Each case gets the verdict and message of np.isfinite(M).all(), with
    # no RuntimeWarning (which the test configuration turns into an error).
    M = np.array(_FINITENESS_CASES[case])
    finite = case == "overflowing sum"
    assert _all_finite(M) == finite
    if finite:
        assert _as_matrix(M, "M") is M
    else:
        with pytest.raises(ConfigurationError, match="^M contains non-finite entries$"):
            _as_matrix(M, "M")
    # The Riccati step's check of R + B'SB: NaN outputs exactly when it fails.
    eye = np.eye(2)
    with np.errstate(over="ignore", invalid="ignore"):
        K, S_next = _riccati_step(eye, eye, np.zeros((2, 2)), M, eye)
    if finite:
        assert np.isfinite(K).all() and np.isfinite(S_next).all()
    else:
        assert np.isnan(K).all() and np.isnan(S_next).all()


def test_kalman_new_covariance_check_keeps_its_verdicts():
    state = KalmanState(x_hat=np.zeros(3), Sigma=np.eye(3))
    eye, blind = np.eye(3), np.zeros((1, 3))
    # Three entries of 8e307 are finite although their sum overflows.
    big = kalman_step(state, math.sqrt(8e307) * eye, None, blind, eye, np.eye(1))
    assert np.isfinite(big.Sigma).all() and np.diag(big.Sigma).min() > 7e307
    # A Sigma' that overflows, and the NaN one of an overflowing C Sigma C'.
    for A, C in ((1e200 * eye, blind), (eye, np.array([[1e200, 0.0, 0.0]]))):
        with pytest.raises(ConfigurationError, match="^Sigma contains non-finite entries$"):
            kalman_step(state, A, None, C, eye, np.eye(1), y=[0.0])


def test_kalman_symmetrisation_keeps_a_finite_covariance_finite():
    # Sigma' = 1.5e308 I + I is finite, but the sum Sigma' + Sigma'' that a
    # symmetrisation by (S + S') / 2 forms is not.
    state = KalmanState(x_hat=np.zeros(2), Sigma=np.eye(2))
    eye = np.eye(2)
    new = kalman_step(state, math.sqrt(1.5e308) * eye, None, np.zeros((1, 2)), eye, np.eye(1))
    assert np.isfinite(new.Sigma).all()
    assert np.allclose(np.diag(new.Sigma), 1.5e308, rtol=1e-12)
    assert new.Sigma[0, 1] == new.Sigma[1, 0] == 0.0


def test_kalman_steady_state_divergence_raises():
    # Unstable A with no observability: covariance grows without bound.
    try:
        kalman_steady_state(
            np.array([[1.5]]), np.zeros((1, 1)), np.eye(1), np.eye(1), max_iter=200
        )
        assert False, "expected EvaluationError"
    except EvaluationError:
        pass


def test_kalman_beats_offline_linear_fit_monte_carlo():
    # Scalar Gaussian LDS x' = 0.9 x + w, y = x + v: the Kalman one-step
    # prediction MSE is no worse than the in-sample MSE of the best offline
    # linear predictor on 10 lags of y, within 1%.
    rng = np.random.default_rng(12345)
    a, T = 0.9, 100_000
    w = rng.normal(size=T)
    v = rng.normal(size=T)
    x = np.zeros(T + 1)
    for t in range(T):
        x[t + 1] = a * x[t] + w[t]
    y = x[:T] + v

    one = np.eye(1)
    A = np.array([[a]])
    state = KalmanState(x_hat=np.zeros(1), Sigma=one)
    predictions = np.zeros(T)
    # Exact recursion until the gain settles (geometric convergence), then
    # the frozen steady-state gain in a fast scalar loop.
    warmup = 60
    for t in range(warmup):
        predictions[t] = state.x_hat[0]
        state = kalman_step(state, A, None, one, one, one, y=y[t : t + 1])
    Sig, L = kalman_steady_state(A, one, one, one)
    gain = float(L[0, 0])
    xh = float(state.x_hat[0])
    for t in range(warmup, T):
        predictions[t] = xh
        xh = (a - gain) * xh + gain * y[t]

    lags = 10
    rows = T - lags
    design = np.empty((rows, lags))
    for i in range(lags):
        design[:, i] = y[lags - 1 - i : T - 1 - i]
    target = y[lags:]
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    mse_offline = float(np.mean((design @ coef - target) ** 2))
    mse_kalman = float(np.mean((predictions[lags:] - target) ** 2))
    assert mse_kalman <= mse_offline * 1.01


def _random_covariance(rng, d, rank):
    """PSD d x d matrix of the given rank (0 gives the zero matrix)."""
    G = rng.normal(size=(d, rank))
    return G @ G.T


def _reference_kalman_step(x, Sig, A, B, C, Sx, Sy, u, y):
    """The predictive recursion of kalman_step, written out with pinv."""
    gain_core = Sig @ C.T @ np.linalg.pinv(C @ Sig @ C.T + Sy)
    L = A @ gain_core
    x = (A - L @ C) @ x
    if u is not None:
        x = x + B @ u
    x = x + L @ y
    Sig_next = A @ Sig @ A.T - A @ gain_core @ C @ Sig @ A.T + Sx
    return x, 0.5 * (Sig_next + Sig_next.T)


def _kalman_case(seed, d_x, d_y, rank_x, rank_y, with_input, steps):
    """A stable random system with noise covariances of the given ranks, an
    initial state and covariance, and ``steps`` inputs and observations."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d_x, d_x))
    A *= 0.95 / max(abs(np.linalg.eigvals(A)).max(), 1e-3)
    B = rng.normal(size=(d_x, 2)) if with_input else None
    C = rng.normal(size=(d_y, d_x))
    Sx = _random_covariance(rng, d_x, min(rank_x, d_x))
    Sy = _random_covariance(rng, d_y, min(rank_y, d_y))
    S0 = _random_covariance(rng, d_x, d_x)
    x0 = rng.normal(size=d_x)
    us = rng.normal(size=(steps, 2))
    ys = rng.normal(size=(steps, d_y))
    return A, B, C, Sx, Sy, S0, x0, us if with_input else [None] * steps, ys


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d_x=st.integers(1, 4),
    d_y=st.integers(1, 3),
    rank_x=st.integers(0, 4),
    rank_y=st.integers(0, 3),
    with_input=st.booleans(),
    steps=st.integers(1, 30),
)
@example(seed=303, d_x=2, d_y=2, rank_x=1, rank_y=0, with_input=False, steps=2)
@example(seed=2, d_x=1, d_y=2, rank_x=0, rank_y=0, with_input=False, steps=21)
def test_kalman_chain_matches_reference_recursion(
    seed, d_x, d_y, rank_x, rank_y, with_input, steps
):
    # Every chained kalman_step succeeds and returns a symmetric PSD
    # covariance; ranks below the dimension give singular noise
    # covariances.  Where Sigma_y is positive definite the states match the
    # pinv reference recursion to 1e-9 relative.  With singular Sigma_y the
    # reference is no oracle: pinv can invert a rounding-level eigenvalue of
    # the innovation covariance (the two examples, checked exactly below).
    A, B, C, Sx, Sy, S0, x0, us, ys = _kalman_case(
        seed, d_x, d_y, rank_x, rank_y, with_input, steps
    )
    definite = min(rank_y, d_y) == d_y
    state = KalmanState(x_hat=x0, Sigma=S0)
    x_ref, Sig_ref = x0.copy(), 0.5 * (S0 + S0.T)
    Sx_sym, Sy_sym = 0.5 * (Sx + Sx.T), 0.5 * (Sy + Sy.T)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for t in range(steps):
            state = kalman_step(state, A, B, C, Sx, Sy, u=us[t], y=ys[t])
            assert np.array_equal(state.Sigma, state.Sigma.T)
            assert np.linalg.eigvalsh(state.Sigma).min() >= -TOL_PSD
            if definite:
                x_ref, Sig_ref = _reference_kalman_step(
                    x_ref, Sig_ref, A, B, C, Sx_sym, Sy_sym, us[t], ys[t]
                )
                scale = max(1.0, np.abs(Sig_ref).max(), np.abs(x_ref).max())
                assert np.abs(state.Sigma - Sig_ref).max() <= 1e-9 * scale
                assert np.abs(state.x_hat - x_ref).max() <= 1e-9 * scale


def test_kalman_noiseless_full_observation_predicts_with_process_noise_only():
    # Sigma_y = 0 with an invertible C observes the state exactly, so the
    # predictive covariance is Sigma_x after every step.  pinv on the
    # innovation covariance left an indefinite covariance at step 2 here.
    A, B, C, Sx, Sy, S0, x0, us, ys = _kalman_case(303, 2, 2, 1, 0, False, 50)
    state = KalmanState(x_hat=x0, Sigma=S0)
    for t in range(50):
        state = kalman_step(state, A, B, C, Sx, Sy, u=us[t], y=ys[t])
        assert np.abs(state.Sigma - Sx).max() <= 1e-12 * np.abs(Sx).max()


def test_kalman_noiseless_observed_state_has_zero_covariance():
    # Sigma_x = Sigma_y = 0 and a scalar state seen by two outputs: the
    # covariance is zero from step 1 on.  pinv inverted the rounding-level
    # remainder and overflowed on subnormal numbers at step 21.
    A, B, C, Sx, Sy, S0, x0, us, ys = _kalman_case(2, 1, 2, 0, 0, False, 200)
    state = KalmanState(x_hat=x0, Sigma=S0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in range(200):
            state = kalman_step(state, A, B, C, Sx, Sy, u=us[t], y=ys[t])
            assert np.abs(state.Sigma).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d_x=st.integers(1, 4),
    d_y=st.integers(1, 3),
    rank_x=st.integers(0, 4),
)
def test_kalman_chain_from_sigma_x_converges_to_steady_state(seed, d_x, d_y, rank_x):
    # Sigma_y is positive definite: with a singular one the fixed point can
    # leave A - L C unstable, and kalman_steady_state rejects it.  The
    # default residual tol 1e-10 leaves the fixed point up to about 1e-9
    # away when the iteration contracts by 0.95^2 a step, hence tol=1e-12.
    A, _, C, Sx, Sy, _, _, _, _ = _kalman_case(seed, d_x, d_y, rank_x, d_y, False, 0)
    Sig_ss, _ = kalman_steady_state(A, C, Sx, Sy, tol=1e-12)
    state = KalmanState(x_hat=np.zeros(d_x), Sigma=Sx)
    for _ in range(5000):
        previous = state.Sigma
        state = kalman_step(state, A, None, C, Sx, Sy)
        if np.abs(state.Sigma - previous).max() <= 1e-13 * max(1.0, np.abs(previous).max()):
            break
    assert np.abs(state.Sigma - Sig_ss).max() <= 1e-9 * max(1.0, np.abs(Sig_ss).max())


def test_kalman_steady_state_names_a_non_stabilizing_fixed_point():
    # A is stable, so (A', C') is stabilizable, but with Sigma_y = 0 the
    # value iteration from Sigma_x converges to a fixed point whose loop
    # A - L C is unstable.  The error names that, not stabilizability.
    A, _, C, Sx, Sy, _, _, _, _ = _kalman_case(0, 2, 1, 1, 0, False, 0)
    assert max(abs(np.linalg.eigvals(A))) < 1.0
    with pytest.raises(ConfigurationError) as raised:
        kalman_steady_state(A, C, Sx, Sy)
    message = str(raised.value)
    assert message.startswith(
        "DARE value iteration converged to a fixed point that is not stabilizing: "
        "the closed loop A + BK has spectral radius "
    )
    assert "stabilizable" not in message


def test_kalman_revalidates_covariances_changed_in_place():
    rng = np.random.default_rng(4)
    A = 0.5 * np.eye(2)
    C = np.eye(2)
    Sx = np.eye(2)
    Sy = np.eye(2)
    state = KalmanState(x_hat=np.zeros(2), Sigma=np.eye(2))
    for _ in range(3):
        state = kalman_step(state, A, None, C, Sx, Sy, y=rng.normal(size=2))

    # A PSD change in place is used by the next chained step.
    Sx *= 4.0
    y = rng.normal(size=2)
    chained = kalman_step(state, A, None, C, Sx, Sy, y=y)
    fresh = kalman_step(
        KalmanState(x_hat=state.x_hat, Sigma=state.Sigma), A, None, C, Sx.copy(), Sy, y=y
    )
    assert np.array_equal(chained.x_hat, fresh.x_hat)
    assert np.array_equal(chained.Sigma, fresh.Sigma)

    # An indefinite or asymmetric covariance set in place is rejected.
    Sx[0, 0] = -1.0
    with pytest.raises(ConfigurationError, match="Sigma_x must be positive semidefinite"):
        kalman_step(chained, A, None, C, Sx, Sy, y=y)
    Sx[0, 0] = 4.0
    Sy[0, 1] = 0.5
    with pytest.raises(ConfigurationError, match="Sigma_y must be symmetric"):
        kalman_step(chained, A, None, C, Sx, Sy, y=y)


def test_kalman_state_fields_unchanged_by_chaining():
    one = np.eye(1)
    state = kalman_step(KalmanState(x_hat=np.zeros(1), Sigma=one), one, None, one, one, one)
    assert [f.name for f in dataclasses.fields(state)] == ["x_hat", "Sigma"]
    assert "_noise" not in repr(state)
    assert np.array_equal(state.Sigma, 0.5 * (state.Sigma + state.Sigma.T))


def _riccati_calls(monkeypatch):
    """Count the Riccati steps run."""
    calls = []

    def counted(*args):
        calls.append(1)
        return _riccati_step(*args)

    monkeypatch.setattr(filtering, "_riccati_step", counted)
    return calls


def _fresh_step(state, *args, **kwargs):
    """kalman_step from a rebuilt, user-built state, which validates its
    noise pair again."""
    rebuilt = KalmanState(x_hat=state.x_hat, Sigma=state.Sigma)
    assert not hasattr(rebuilt, "_noise")
    return kalman_step(rebuilt, *args, **kwargs)


def _validating_filter(state, A, C, Sigma_x, Sigma_y, Y, B=None, U=None):
    """kalman_filter as a per-step loop of kalman_step from a rebuilt state
    each time: full validation and a Riccati step on every step."""
    X_hat, Sigmas = [], []
    for t, y in enumerate(Y):
        X_hat.append(state.x_hat)
        Sigmas.append(state.Sigma)
        state = _fresh_step(state, A[t], None, C[t], Sigma_x, Sigma_y, y=y)
    return np.array(X_hat), np.array(Sigmas), state


def test_cli_filter_matches_always_validating_loop(monkeypatch):
    # The CLI runs kalman_filter, which validates once and replays the
    # covariance cycle once it repeats; a per-step loop that rebuilds a
    # user-built KalmanState before every step forces full validation and a
    # Riccati step each time, and must not change a byte of the artifacts.
    def run(preset):
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["filter", "--preset", preset, "--horizon", "300", "--out", tmp]
            assert cli.main(argv) == 0
            return [Path(tmp, name).read_bytes() for name in ("filter.csv", "summary.json")]

    calls = _riccati_calls(monkeypatch)
    for preset in ("b747", "scalar-0.9", "pendulum", "double-integrator"):
        calls.clear()
        chained = run(preset)
        assert 0 < len(calls) < 150  # the covariance repeats within 150 steps
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "kalman_filter", _validating_filter)
            assert run(preset) == chained
        assert len(calls) == 300


def _reference_filter(config, T, seed):
    """The ``filter`` command's rows and mean squared errors, from a loop
    that steps the plant beside the filter and accumulates as it goes."""
    system = config.system
    Sx, Sy = 0.1**2 * np.eye(system.d_x), 0.1**2 * np.eye(system.d_y)
    w = generate_perturbations(PerturbationSource.gaussian(sigma=0.1), T, system.d_x, seed)
    rng_obs = np.random.default_rng(component_seed(seed, "measurement"))
    v = 0.1 * rng_obs.standard_normal((T, system.d_y))
    x = np.zeros(system.d_x) if config.x0 is None else config.x0.copy()
    state = KalmanState(x_hat=np.zeros(system.d_x), Sigma=Sx)
    rows, state_sq, obs_sq = [], 0.0, 0.0
    for t, (A_t, _, C_t) in enumerate(zip(*system.stacks(0, T))):
        y = C_t @ x + v[t]
        state_err = math.sqrt(np.sum((state.x_hat - x) ** 2))
        obs_err = math.sqrt(np.sum((C_t @ state.x_hat - y) ** 2))
        rows.append([t + 1, state_err, obs_err, float(state.Sigma.trace())])
        state_sq += state_err**2
        obs_sq += obs_err**2
        state = kalman_step(state, A_t, None, C_t, Sx, Sy, y=y)
        x = A_t @ x + w[t]
    return rows, {"mse_state": state_sq / T, "mse_obs": obs_sq / T}


def _reference_spectral(config, T, seed):
    """The ``spectral`` command's rows and losses, from a loop that steps
    the plant beside the filter and accumulates as it goes."""
    system = config.system
    predictor = SpectralPredictor.zeros(spectral_basis(T, 20), d_y=system.d_y, d_u=system.d_u)
    online = OnlineSpectralFilter(predictor, d_u=system.d_u)
    rng = np.random.default_rng(component_seed(seed, "excitation"))
    inputs = rng.integers(0, 2, size=(T, system.d_u)).astype(float) * 2.0 - 1.0
    x = np.zeros(system.d_x) if config.x0 is None else config.x0.copy()
    rows, running = [], 0.0
    for t, (A_t, B_t, C_t, u) in enumerate(zip(*system.stacks(0, T), inputs)):
        x = A_t @ x + B_t @ u
        online.step(u, C_t @ x)
        running += online.losses[-1]
        rows.append([t + 1, online.losses[-1], running / (t + 1)])
    losses = np.array(online.losses)
    return rows, {"avg_loss": losses.mean(), "last_quarter_avg_loss": losses[3 * T // 4 :].mean()}


_PRESETS = ["b747", "scalar-0.9", "pendulum", "double-integrator"]


@pytest.mark.parametrize("command", ["filter", "spectral"])
@pytest.mark.parametrize("preset", _PRESETS)
def test_cli_artifacts_match_a_per_step_reference_loop(command, preset):
    # The commands simulate the plant before the filter loop and build the
    # errors, averages and rows from arrays afterwards.  Their artifacts
    # match the per-step loop up to the order of the sums: each CSV value
    # within 1e-12 of its column's largest magnitude, each summary value
    # within 1e-10 relative.
    _check_cli_against_reference(command, preset, 300, 3)


@pytest.mark.parametrize("preset", _PRESETS)
@pytest.mark.parametrize("T, seed", [(300, 0), (2000, 0), (2000, 3)])
def test_cli_spectral_run_matches_the_per_step_loop(preset, T, seed):
    # The spectral command's filter outputs come from one FFT convolution
    # (OnlineSpectralFilter.run), the loop's from a product per step; the
    # bounds above hold at the benchmark's horizon too.  On double-integrator
    # y reaches about 4,900, so one rounding flip of a prediction moves
    # sq_error by about 1e-12 of its largest value there.
    _check_cli_against_reference("spectral", preset, T, seed)


def _check_cli_against_reference(command, preset, T, seed):
    config = config_from_preset(preset, {"kind": "zero"}, horizon=T, seed=seed)
    reference = {"filter": _reference_filter, "spectral": _reference_spectral}[command]
    rows, summary = reference(config, T, seed)
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, "--preset", preset, "--horizon", str(T), "--seed", str(seed),
                "--out", tmp]
        assert cli.main(argv) == 0
        _, data = read_csv(os.path.join(tmp, f"{command}.csv"))
        written = read_json_summary(os.path.join(tmp, "summary.json"))
    expected = np.array(rows)
    assert data.shape == expected.shape
    scale = np.abs(expected).max(axis=0)
    assert np.all(np.abs(data - expected) <= 1e-12 * scale)
    for key, value in summary.items():
        assert abs(written[key] - value) <= 1e-10 * abs(value), key


def test_kalman_step_runs_every_check_on_every_step(monkeypatch):
    # On a 200-step b747 chain (the filter command's noise, whose covariance
    # enters a cycle at t = 29), every chained step runs the Riccati step,
    # the PSD check of Sigma' and the checks of A and C, and checks y.
    system = config_from_preset("b747", {"kind": "zero"}, horizon=200).system
    A, _, C = (M[0] for M in system.stacks(0, 1))
    Sx, Sy = 0.1**2 * np.eye(system.d_x), 0.1**2 * np.eye(system.d_y)
    ys = np.random.default_rng(0).normal(size=(200, system.d_y))
    state = kalman_step(KalmanState(x_hat=np.zeros(system.d_x), Sigma=Sx), A, None, C, Sx, Sy,
                        y=ys[0])
    riccati = _riccati_calls(monkeypatch)
    eigvalsh, matrices = [], []

    def counted_eigvalsh(M):
        eigvalsh.append(1)
        return np.linalg.eigh(M)[0]

    def counted_as_matrix(M, name, shape=None):
        matrices.append(name)
        return _as_matrix(M, name, shape)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(filtering, "_as_matrix", counted_as_matrix)
    for y in ys[1:]:
        state = kalman_step(state, A, None, C, Sx, Sy, y=y)
    assert len(riccati) == len(eigvalsh) == 199
    assert matrices == ["A", "C"] * 199
    with pytest.raises(ConfigurationError, match="^y contains non-finite entries$"):
        kalman_step(state, A, None, C, Sx, Sy, y=np.full(system.d_y, np.nan))


def _chained_filter(state, A, C, Sx, Sy, ys, B, us):
    """The histories and final state of kalman_step chained over a record;
    ``A`` and ``C`` are matrices or per-step stacks."""
    X_hat, Sigmas = np.empty((len(ys), len(state.x_hat))), np.empty((len(ys),) + state.Sigma.shape)
    for t, y in enumerate(ys):
        X_hat[t], Sigmas[t] = state.x_hat, state.Sigma
        A_t, C_t = (M if M.ndim == 2 else M[t] for M in (A, C))
        state = kalman_step(state, A_t, B, C_t, Sx, Sy, u=us[t], y=y)
    return X_hat, Sigmas, state


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d_x=st.integers(1, 4),
    d_y=st.integers(1, 3),
    rank_x=st.integers(0, 4),
    rank_y=st.integers(0, 3),
    with_input=st.booleans(),
    steps=st.integers(0, 150),
    radius=st.sampled_from([0.95, 1.2]),
    varying=st.booleans(),
)
@example(seed=303, d_x=2, d_y=2, rank_x=1, rank_y=0, with_input=False, steps=60, radius=0.95,
         varying=False)
@example(seed=2, d_x=1, d_y=2, rank_x=0, rank_y=0, with_input=True, steps=3, radius=1.2,
         varying=False)
def test_kalman_filter_matches_chained_steps_bitwise(
    seed, d_x, d_y, rank_x, rank_y, with_input, steps, radius, varying
):
    # Stable and unstable A, singular noise covariances (ranks below the
    # dimension), inputs through B, per-step stacks of a time-varying A and
    # C, and records shorter than any cycle: kalman_filter gives the bits of
    # kalman_step chained over the record, or raises the same error.
    A, B, C, Sx, Sy, S0, x0, us, ys = _kalman_case(
        seed, d_x, d_y, rank_x, rank_y, with_input, steps
    )
    A = A * (radius / 0.95)
    if varying:
        scale = 1.0 + 0.05 * np.sin(np.arange(steps))[:, None, None]
        A, C = A * scale, C * scale
    U = np.array(us) if with_input else None
    try:
        expected = _chained_filter(KalmanState(x0, S0), A, C, Sx, Sy, ys, B, us)
    except ConfigurationError as exc:
        with pytest.raises(ConfigurationError, match=f"^{re.escape(str(exc))}$"):
            kalman_filter(KalmanState(x0, S0), A, C, Sx, Sy, ys, B, U)
        return
    X_hat, Sigmas, final = kalman_filter(KalmanState(x0, S0), A, C, Sx, Sy, ys, B, U)
    assert np.array_equal(X_hat, expected[0]) and np.array_equal(Sigmas, expected[1])
    assert np.array_equal(final.x_hat, expected[2].x_hat)
    assert np.array_equal(final.Sigma, expected[2].Sigma)


def test_kalman_filter_replays_the_covariance_cycle(monkeypatch):
    # The filter command's b747 chain (noise 0.1) repeats at t = 52: 23 steps
    # from t = 29 on.  kalman_filter then runs 52 Riccati steps for 2,000,
    # one per step on a record shorter than the cycle or under a time-varying
    # A.  Its final state chains: two halves give the bits of one run, and a
    # step from it those of a validating step.
    system = config_from_preset("b747", {"kind": "zero"}, horizon=2000).system
    A, _, C = (M[0] for M in system.stacks(0, 1))
    Sx, Sy = 0.1**2 * np.eye(system.d_x), 0.1**2 * np.eye(system.d_y)
    ys = np.random.default_rng(0).normal(size=(2000, system.d_y))
    start = KalmanState(x_hat=np.zeros(system.d_x), Sigma=Sx)
    calls = _riccati_calls(monkeypatch)
    X_hat, Sigmas, final = kalman_filter(start, A, C, Sx, Sy, ys)
    assert len(calls) == 52
    assert np.array_equal(Sigmas[29:1977], Sigmas[52:2000])
    assert not np.array_equal(Sigmas[28], Sigmas[51])

    first = kalman_filter(start, A, C, Sx, Sy, ys[:1000])
    second = kalman_filter(first[2], A, C, Sx, Sy, ys[1000:])
    assert np.array_equal(np.concatenate((first[0], second[0])), X_hat)
    assert np.array_equal(np.concatenate((first[1], second[1])), Sigmas)
    assert np.array_equal(second[2].x_hat, final.x_hat)
    assert np.array_equal(second[2].Sigma, final.Sigma)
    chained, fresh = (step(final, A, None, C, Sx, Sy, y=ys[0]) for step in (kalman_step, _fresh_step))
    assert np.array_equal(chained.x_hat, fresh.x_hat)
    assert np.array_equal(chained.Sigma, fresh.Sigma)

    for A_run, T in ((A, 20), (A * (1.0 + 1e-3 * np.sin(np.arange(100)))[:, None, None], 100)):
        calls.clear()
        kalman_filter(start, A_run, C, Sx, Sy, ys[:T])
        assert len(calls) == T


# ---------------------------------------------------------------------------
# Learned linear predictors
# ---------------------------------------------------------------------------


def test_linear_predictor_zero_coefficients():
    predictor = LinearPredictor.zeros(d_y=2, d_u=1, h=3, k=2)
    y_true = np.array([1.0, -2.0])
    y_hat, updated = learn_linear_step(predictor, [np.ones(1)], [np.ones(2)], y_true)
    assert np.array_equal(y_hat, np.zeros(2))
    assert abs(np.sum((y_hat - y_true) ** 2) - 5.0) < 1e-15
    assert updated.t == 1


def test_linear_predictor_gradient_matches_finite_differences():
    # The applied OGD step reveals the analytic gradient (no projection for
    # large kappa); compare against central differences of the squared loss.
    rng = np.random.default_rng(4)
    predictor = LinearPredictor.zeros(d_y=2, d_u=2, h=2, k=2, kappa=1e9, step_scale=0.3)
    predictor = LinearPredictor(
        M1=rng.normal(size=(2, 2, 2)) * 0.2,
        M2=rng.normal(size=(2, 2, 2)) * 0.2,
        kappa=1e9,
        step_scale=0.3,
        t=8,
    )
    y_hist = [rng.normal(size=2), rng.normal(size=2)]
    u_hist = [rng.normal(size=2), rng.normal(size=2)]
    y_true = rng.normal(size=2)
    _, updated = learn_linear_step(predictor, u_hist, y_hist, y_true)
    eta = predictor.step_scale / math.sqrt(predictor.t + 1)
    grad1 = (predictor.M1 - updated.M1) / eta
    grad2 = (predictor.M2 - updated.M2) / eta

    def loss(M1, M2):
        p = LinearPredictor(M1=M1, M2=M2, kappa=1e9)
        y_hat = predict_linear(p, u_hist, y_hist)
        return float(np.sum((y_hat - y_true) ** 2))

    eps = 1e-6
    for grad, which in ((grad1, "M1"), (grad2, "M2")):
        base1, base2 = predictor.M1.copy(), predictor.M2.copy()
        target = base1 if which == "M1" else base2
        fd = np.zeros_like(target)
        it = np.nditer(target, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            up = target.copy()
            dn = target.copy()
            up[idx] += eps
            dn[idx] -= eps
            if which == "M1":
                fd[idx] = (loss(up, base2) - loss(dn, base2)) / (2 * eps)
            else:
                fd[idx] = (loss(base1, up) - loss(base1, dn)) / (2 * eps)
            it.iternext()
        assert np.max(np.abs(grad - fd)) <= 1e-6


def test_linear_predictor_learns_ar_coefficient():
    # Driven AR(1): y_t = 0.7 y_{t-1} + w_t.  Because w_t is independent of
    # y_{t-1}, the least-squares optimum of a one-lag predictor is 0.7.
    rng = np.random.default_rng(99)
    predictor = LinearPredictor.zeros(d_y=1, d_u=1, h=1, k=0, kappa=5.0, step_scale=0.6)
    y_prev = np.zeros(1)
    for t in range(5000):
        y_next = 0.7 * y_prev + rng.uniform(-1.0, 1.0, size=1)
        _, predictor = learn_linear_step(predictor, [], [y_prev], y_next)
        y_prev = y_next
    assert abs(predictor.M1[0, 0, 0] - 0.7) <= 0.05


def test_linear_predictor_projection_keeps_group_norm_budget():
    rng = np.random.default_rng(5)
    kappa = 0.5
    predictor = LinearPredictor.zeros(d_y=1, d_u=1, h=2, k=2, kappa=kappa, step_scale=2.0)
    for t in range(100):
        y_hist = [rng.normal(size=1), rng.normal(size=1)]
        u_hist = [rng.normal(size=1), rng.normal(size=1)]
        _, predictor = learn_linear_step(predictor, u_hist, y_hist, rng.normal(size=1) * 10)
        total = sum(
            np.linalg.norm(predictor.M1[i]) for i in range(predictor.h)
        ) + sum(np.linalg.norm(predictor.M2[j]) for j in range(predictor.k))
        assert total <= kappa + 1e-12


def test_group_ball_projection_hand_value():
    # Norm vector (3, 4) onto the L1 ball of radius 1: theta = 3, giving
    # norms (0, 1), i.e. scales (0, 1/4).
    scales = _group_ball_scales(np.array([3.0, 4.0]), 1.0)
    assert np.allclose(scales, [0.0, 0.25], atol=1e-15)
    # Already feasible: untouched.
    assert np.array_equal(_group_ball_scales(np.array([0.2, 0.2]), 1.0), np.ones(2))


# ---------------------------------------------------------------------------
# Spectral basis
# ---------------------------------------------------------------------------


def test_build_z_hand_entries():
    Z = build_Z(4)
    assert Z[0, 0] == 1.0
    assert abs(Z[0, 1] - (-0.5)) < 1e-15  # int (a-1) da
    assert abs(Z[1, 1] - (1.0 / 3.0)) < 1e-15  # int (a-1)^2 da
    assert np.allclose(Z, Z.T, atol=0.0)
    Z2 = build_Z(2)
    assert np.allclose(Z2, [[1.0, -0.5], [-0.5, 1.0 / 3.0]], atol=1e-15)
    try:
        build_Z(1)
        assert False, "expected ConfigurationError"
    except ConfigurationError:
        pass


def test_build_z_matches_quadrature():
    T = 10
    Z = build_Z(T)
    for i in range(T):
        for j in range(i, T):
            integral, _ = quad(lambda a: mu_vector(a, T)[i] * mu_vector(a, T)[j], 0.0, 1.0)
            assert abs(Z[i, j] - integral) <= 1e-10


def test_build_z_psd_and_eigenvalue_decay():
    Z = build_Z(30)
    eigenvalues = np.linalg.eigvalsh(Z)
    assert eigenvalues.min() >= -1e-12
    top = np.sort(eigenvalues)[::-1]
    assert top[14] / top[0] <= 1e-6
    # Geometric decay: log sigma_k vs k close to linear with negative slope.
    ks = np.arange(1, 16)
    logs = np.log(top[:15])
    slope, intercept = np.polyfit(ks, logs, 1)
    fitted = slope * ks + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    assert slope < 0
    assert 1.0 - ss_res / ss_tot > 0.9


def test_hankel_w_entries():
    W = hankel_W(6)
    assert W[0, 0] == 1.0
    assert W[0, 1] == 0.5
    assert W[5, 5] == 1.0 / 11.0
    assert np.allclose(W, W.T, atol=0.0)


def test_spectral_basis_t2_hand_eigenpairs():
    # Z_2 = [[1, -1/2], [-1/2, 1/3]]: eigenvalues (4 +- sqrt(13))/6.
    basis = spectral_basis(2, 2)
    lam1 = (4.0 + math.sqrt(13.0)) / 6.0
    lam2 = (4.0 - math.sqrt(13.0)) / 6.0
    assert abs(basis.eigenvalues[0] - lam1) < 1e-12
    assert abs(basis.eigenvalues[1] - lam2) < 1e-12
    for lam, phi in zip(basis.eigenvalues, basis.vectors):
        direction = np.array([0.5, 1.0 - lam])
        direction /= np.linalg.norm(direction)
        if direction[0] < 0:
            direction = -direction
        assert np.allclose(phi, direction, atol=1e-10)


def test_spectral_basis_orthonormal_signed_nonincreasing():
    basis = spectral_basis(40, 12)
    gram = basis.vectors @ basis.vectors.T
    assert np.max(np.abs(gram - np.eye(12))) <= 1e-10
    for phi in basis.vectors:
        first = phi[np.nonzero(np.abs(phi) > 1e-12)[0][0]]
        assert first > 0
    assert np.all(np.diff(basis.eigenvalues) <= 1e-15)
    assert np.all(basis.eigenvalues >= 0.0)
    try:
        spectral_basis(5, 6)
        assert False, "expected ConfigurationError"
    except ConfigurationError:
        pass


def test_spectral_filter_responses_bounded():
    # For unit eigenvectors, int (phi' mu_a)^2 da = sigma_j; the Lipschitz
    # argument turns that into max_a |phi' mu_a| <= sqrt(2) sigma_j^(1/4).
    # Checked on a grid with a factor-2 slack.
    basis = spectral_basis(100, 20)
    alphas = np.arange(0.0, 1.0001, 0.01)
    for j in range(basis.h):
        bound = 2.0 * math.sqrt(2.0) * basis.eigenvalues[j] ** 0.25
        worst = max(
            abs(float(basis.vectors[j] @ mu_vector(alpha, basis.T))) for alpha in alphas
        )
        assert worst <= bound


def test_basis_save_load_roundtrip():
    basis = spectral_basis(25, 7)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "basis.txt")
        save_basis(basis, path)
        loaded = load_basis(path)
        assert loaded.T == basis.T and loaded.h == basis.h
        assert np.array_equal(loaded.eigenvalues, basis.eigenvalues)
        assert np.array_equal(loaded.vectors, basis.vectors)
        # Cache: first call builds, second loads the identical data.
        built = cached_basis(25, 7, tmp)
        again = cached_basis(25, 7, tmp)
        assert np.array_equal(built.vectors, again.vectors)
        assert np.array_equal(built.vectors, basis.vectors)
        # A file that is not a whole basis is a configuration error.
        with open(path, "rb") as fh:
            whole = fh.read()
        lines = whole.split(b"\n")
        for bad in (b"", whole[:-1], whole[: len(whole) // 2], b"25\n" + whole,
                    whole.replace(lines[3], lines[3] + b" 1", 1),
                    whole.replace(lines[1].split()[0], b"nan", 1)):
            with open(path, "wb") as fh:
                fh.write(bad)
            with pytest.raises(ConfigurationError, match="malformed"):
                load_basis(path)


def _b64_row(row) -> str:
    return base64.b64encode(np.asarray(row, dtype="<f8").tobytes()).decode()


@pytest.mark.parametrize("T, h", [(2, 1), (2, 2), (25, 7)])
def test_save_basis_bytes_match_join_format(T, h):
    # A header with the format tag, then one line per row, eigenvalues first:
    # the base64 of the row's little-endian float64 bytes.
    basis = spectral_basis(T, h)
    lines = [f"{T} {h} float64-le-base64", _b64_row(basis.eigenvalues)]
    lines += [_b64_row(row) for row in basis.vectors]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "basis.txt")
        save_basis(basis, path)
        with open(path, "rb") as fh:
            assert fh.read() == ("\n".join(lines) + "\n").encode()
        loaded = load_basis(path)
    assert np.array_equal(loaded.eigenvalues, basis.eigenvalues)
    assert np.array_equal(loaded.vectors, basis.vectors)


def test_load_basis_reads_the_decimal_format_bitwise(tmp_path):
    # The format save_basis wrote before: header "T h", then rows of numbers
    # at 17 significant digits.  cached_basis reads such a file too.
    basis = spectral_basis(25, 7)
    lines = ["25 7", " ".join("%.17g" % v for v in basis.eigenvalues)]
    lines += [" ".join("%.17g" % v for v in row) for row in basis.vectors]
    path = tmp_path / "spectral_basis_T25_h7.txt"
    path.write_text("\n".join(lines) + "\n")
    for loaded in (load_basis(str(path)), cached_basis(25, 7, str(tmp_path))):
        assert (loaded.T, loaded.h) == (25, 7)
        assert np.array_equal(loaded.eigenvalues, basis.eigenvalues)
        assert np.array_equal(loaded.vectors, basis.vectors)
    path.write_text("\n".join(lines).replace(lines[2], lines[2] + " 1") + "\n")
    with pytest.raises(ConfigurationError, match="malformed"):
        load_basis(str(path))


def test_load_basis_rejects_malformed_binary_files(tmp_path):
    path = str(tmp_path / "basis.txt")
    save_basis(spectral_basis(25, 7), path)
    whole = Path(path).read_bytes()
    lines = whole.split(b"\n")
    bad = {
        "truncated": whole[: len(whole) // 2],
        "without its last newline": whole[:-1],
        "a row short": b"\n".join(lines[:-2]) + b"\n",
        "ragged": whole.replace(lines[3], _b64_row(np.ones(24)).encode()),
        "not base64": whole.replace(lines[3], lines[3][:-4] + b"*@#!"),
        "a NaN entry": whole.replace(lines[3], _b64_row(np.full(25, np.nan)).encode()),
        "an infinite eigenvalue": whole.replace(lines[1], _b64_row(np.full(7, np.inf)).encode()),
        "an unknown tag": whole.replace(b"float64-le-base64", b"float32-le-base64"),
    }
    for case, data in bad.items():
        Path(path).write_bytes(data)
        with pytest.raises(ConfigurationError, match="malformed"):
            load_basis(path)
            pytest.fail(case)


@pytest.mark.parametrize("T", [2, 3, 17, 500, 2000])
def test_z_operator_matches_dense_product(T):
    rng = np.random.default_rng(T)
    V = np.linalg.qr(rng.normal(size=(T, min(T, 30))))[0]
    Z = build_Z(T)
    error = np.abs(_z_operator(T)(V) - Z @ V).max()
    assert error <= 1e-13 * np.linalg.norm(Z)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 2000).flatmap(lambda T: st.tuples(st.just(T), st.integers(1, min(T, 30)))))
@example((2, 2))
@example((2000, 30))
def test_spectral_basis_matches_dense_eigh(sizes):
    T, h = sizes
    basis = spectral_basis(T, h)
    Z = build_Z(T)
    w, U = scipy.linalg.eigh(Z)
    w, U = w[::-1], U[:, ::-1]
    lam1 = w[0]
    eps = np.finfo(float).eps
    for j in range(h):
        if w[j] <= 1e-12 * lam1:
            break
        assert abs(basis.eigenvalues[j] - w[j]) <= 1e-13 * lam1
        # Both vectors are accurate to about (eps or the stopping residual)
        # * lambda_1 / gap_j; the 1e-13 lambda_1 residual tolerance is
        # about 450 eps lambda_1, hence c = 1000.
        gap = np.abs(np.delete(w, j) - w[j]).min()
        error = np.linalg.norm(basis.vectors[j] - _fix_sign(U[:, j]))
        assert error <= 1000 * eps * lam1 / gap
    residual = Z @ basis.vectors.T - basis.vectors.T * basis.eigenvalues
    assert np.linalg.norm(residual, axis=0).max() <= 1e-12 * lam1
    gram = basis.vectors @ basis.vectors.T
    assert np.abs(gram - np.eye(h)).max() <= 1e-12


def test_spectral_basis_is_deterministic():
    np.random.seed(123)
    first = spectral_basis(700, 20)
    drawn = np.random.random()
    np.random.seed(123)
    second = spectral_basis(700, 20)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.vectors, second.vectors)
    assert drawn == np.random.random()  # global RNG state untouched


def test_spectral_basis_long_horizon_memory_and_residual():
    # A dense Z_20000 alone would be 3.2 GB.
    T, h = 20_000, 20
    tracemalloc.start()
    try:
        basis = spectral_basis(T, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20
    residual = _z_operator(T)(basis.vectors.T) - basis.vectors.T * basis.eigenvalues
    assert np.linalg.norm(residual, axis=0).max() <= 1e-12 * basis.eigenvalues[0]


def test_spectral_basis_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(filtering, "_MAX_ITERATIONS", 1)
    with pytest.raises(EvaluationError, match="did not converge"):
        spectral_basis(500, 20)


@pytest.mark.parametrize("T, h", [(1, 1), (5, 0)])
def test_spectral_basis_rejects_bad_sizes(T, h):
    with pytest.raises(ConfigurationError):
        spectral_basis(T, h)


# ---------------------------------------------------------------------------
# Spectral prediction
# ---------------------------------------------------------------------------


def test_spectral_predictor_zero_inputs_zero_prediction():
    basis = spectral_basis(20, 4)
    predictor = SpectralPredictor.zeros(basis, d_y=1, d_u=1)
    filt = OnlineSpectralFilter(predictor, d_u=1)
    for t in range(10):
        y_hat = filt.step(np.zeros(1), np.zeros(1))
        assert np.array_equal(y_hat, np.zeros(1))


def test_spectral_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    basis = spectral_basis(15, 5)
    M0 = rng.normal(size=(2, 2)) * 0.3
    M = rng.normal(size=(5, 2, 2)) * 0.3
    from nscontrol.online_control import OGDState

    ogd = OGDState(point=np.concatenate([M0.ravel(), M.ravel()]), radius=1e9, step_scale=0.2)
    predictor = SpectralPredictor(basis=basis, M0=M0, M=M, ogd=ogd)
    u_tilde = rng.normal(size=(15, 2))
    y_prev = rng.normal(size=2)
    y_true = rng.normal(size=2)
    _, updated = learn_spectral_step(predictor, u_tilde, y_prev, None, y_true)
    eta = updated.ogd.step_size(updated.ogd.t)
    grad0 = (predictor.M0 - updated.M0) / eta
    gradM = (predictor.M - updated.M) / eta

    def loss(M0v, Mv):
        point = np.concatenate([M0v.ravel(), Mv.ravel()])
        p = SpectralPredictor(basis=basis, M0=M0v, M=Mv, ogd=OGDState(point=point))
        y_hat = spectral_predict(p, u_tilde, y_prev)
        return float(np.sum((y_hat - y_true) ** 2))

    eps = 1e-6
    fd0 = np.zeros_like(M0)
    for idx in np.ndindex(*M0.shape):
        up, dn = M0.copy(), M0.copy()
        up[idx] += eps
        dn[idx] -= eps
        fd0[idx] = (loss(up, M) - loss(dn, M)) / (2 * eps)
    assert np.max(np.abs(grad0 - fd0)) <= 1e-6
    fdM = np.zeros_like(M)
    for idx in np.ndindex(*M.shape):
        up, dn = M.copy(), M.copy()
        up[idx] += eps
        dn[idx] -= eps
        fdM[idx] = (loss(M0, up) - loss(M0, dn)) / (2 * eps)
    assert np.max(np.abs(gradM - fdM)) <= 1e-6


def test_spectral_filtering_learns_scalar_symmetric_lds():
    # x' = 0.8 x + u, y = x, driven by seeded uniform inputs: online
    # spectral filtering with h=25 reaches average squared error <= 1e-3
    # over the last quarter of T=3000.
    rng = np.random.default_rng(0)
    T = 3000
    us = rng.uniform(-1.0, 1.0, size=T)
    x = 0.0
    basis = spectral_basis(T, 25)
    predictor = SpectralPredictor.zeros(basis, d_y=1, d_u=1, kappa=10.0, step_scale=0.1)
    filt = OnlineSpectralFilter(predictor, d_u=1)
    for t in range(T):
        x_next = 0.8 * x + us[t]
        filt.step(np.array([us[t]]), np.array([x_next]))
        x = x_next
    losses = np.array(filt.losses)
    quarter = len(losses) // 4
    assert losses[-quarter:].mean() <= 1e-3


def test_spectral_full_basis_matches_raw_linear_fit():
    # With h = T the basis is a full orthogonal change of coordinates, so
    # the best offline fit through the spectral features attains exactly the
    # best raw-history linear fit.
    rng = np.random.default_rng(7)
    T = 40
    us = rng.uniform(-1.0, 1.0, size=T)
    ys = np.zeros(T + 1)
    x = 0.0
    for t in range(T):
        x = 0.5 * x + us[t]
        ys[t + 1] = x
    basis = spectral_basis(T, T)

    raw_rows = []
    spectral_rows = []
    targets = []
    u_tilde = np.zeros(T)
    for t in range(T):
        u_tilde = np.concatenate([[us[t]], u_tilde[:-1]])
        targets.append(ys[t + 1] - ys[t])
        raw_rows.append(u_tilde.copy())
        spectral_rows.append(np.concatenate([[us[t]], basis.vectors @ u_tilde]))
    raw = np.array(raw_rows)
    spec = np.array(spectral_rows)
    b = np.array(targets)
    _, res_raw, *_ = np.linalg.lstsq(raw, b, rcond=None)
    _, res_spec, *_ = np.linalg.lstsq(spec, b, rcond=None)
    sse_raw = float(np.sum((raw @ np.linalg.lstsq(raw, b, rcond=None)[0] - b) ** 2))
    sse_spec = float(np.sum((spec @ np.linalg.lstsq(spec, b, rcond=None)[0] - b) ** 2))
    assert abs(sse_raw - sse_spec) <= 1e-8


@pytest.mark.parametrize("d_u", [1, 2])
def test_online_spectral_filter_ring_matches_concatenated_history(d_u):
    # T + 7 steps make the ring buffer wrap; the reference rebuilds the
    # padded history with np.concatenate and calls learn_spectral_step.
    # spectral_predict, on the predictor before each step, gives the same
    # bits as both.
    T, h, d_y = 30, 6, 2
    rng = np.random.default_rng(d_u)
    us = rng.uniform(-1.0, 1.0, size=(T + 7, d_u))
    ys = rng.normal(size=(T + 7, d_y))
    basis = spectral_basis(T, h)
    filt = OnlineSpectralFilter(SpectralPredictor.zeros(basis, d_y=d_y, d_u=d_u), d_u=d_u)
    predictor = SpectralPredictor.zeros(basis, d_y=d_y, d_u=d_u)
    u_tilde = np.zeros((T, d_u))
    y_prev = np.zeros(d_y)
    for t in range(T + 7):
        y_hat = filt.step(us[t], ys[t])
        u_tilde = np.concatenate([us[t][None], u_tilde[:-1]], axis=0)
        predicted = spectral_predict(predictor, u_tilde, y_prev, us[t])
        y_ref, predictor = learn_spectral_step(predictor, u_tilde, y_prev, us[t], ys[t])
        y_prev = ys[t]
        assert np.array_equal(y_hat, y_ref) and np.array_equal(predicted, y_ref)
        assert filt.losses[-1] == float(np.sum((y_ref - ys[t]) ** 2))
    assert np.array_equal(filt.predictor.ogd.point, predictor.ogd.point)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d_u=st.integers(1, 3),
    d_y=st.integers(1, 3),
    h=st.integers(1, 8),
    T=st.integers(2, 24),
    before=st.integers(0, 40),
    n=st.integers(0, 60),
)
def test_online_spectral_run_matches_repeated_steps(seed, d_u, d_y, h, T, before, n):
    # run, after `before` step calls that may wrap the ring buffer, against
    # step on each row: the filter outputs come from one FFT convolution
    # instead of a product per step, so predictions, losses and coefficients
    # agree to 1e-12 of their largest magnitude.  A step after either reads
    # the ring buffer run left behind.
    basis = spectral_basis(T, min(h, T))
    rng = np.random.default_rng(seed)
    us = rng.uniform(-1.0, 1.0, size=(before + n + 1, d_u))
    ys = rng.normal(size=(before + n + 1, d_y))
    stepped, ran = (OnlineSpectralFilter(SpectralPredictor.zeros(basis, d_y=d_y, d_u=d_u), d_u)
                    for _ in range(2))
    for u, y in zip(us[:before], ys[:before]):
        stepped.step(u, y)
        ran.step(u, y)
    expected = np.array([stepped.step(u, y) for u, y in zip(us[before:-1], ys[before:-1])])
    got = ran.run(us[before:-1], ys[before:-1])
    assert got.shape == (n, d_y)
    pairs = [(got, expected.reshape(n, d_y)), (ran.losses, stepped.losses),
             (ran.predictor.ogd.point, stepped.predictor.ogd.point),
             (ran.step(us[-1], ys[-1]), stepped.step(us[-1], ys[-1]))]
    for a, b in pairs:
        a, b = np.asarray(a), np.asarray(b)
        assert np.abs(a - b).max(initial=0.0) <= 1e-12 * np.abs(b).max(initial=0.0)


def test_online_spectral_filter_rejects_wrong_input_size():
    basis = spectral_basis(10, 3)
    filt = OnlineSpectralFilter(SpectralPredictor.zeros(basis, d_y=1, d_u=2), d_u=2)
    with pytest.raises(ConfigurationError, match=r"u_prev has shape \(1,\), expected \(2,\)"):
        filt.step(np.ones(1), np.zeros(1))


@pytest.mark.parametrize("bad", [(math.nan, 0.5), (1.0, math.inf)], ids=["u_prev", "y_true"])
def test_online_spectral_filter_step_rejects_a_non_finite_input_untouched(bad):
    # A NaN u_prev used to enter the ring buffer before anything checked
    # it, so every later valid step failed with a non-finite gradient.
    basis = spectral_basis(10, 3)
    filt, fresh = (OnlineSpectralFilter(SpectralPredictor.zeros(basis, d_y=1, d_u=1), d_u=1)
                   for _ in range(2))
    filt.step([1.0], [0.5])
    fresh.step([1.0], [0.5])
    name = "u_prev" if math.isnan(bad[0]) else "y_true"
    with pytest.raises(ConfigurationError, match=f"^{name} contains non-finite entries$"):
        filt.step([bad[0]], [bad[1]])
    for u, y in [(0.3, -0.2), (-1.0, 0.7), (0.5, 0.1)]:
        assert np.array_equal(filt.step([u], [y]), fresh.step([u], [y]))
    assert filt.losses == fresh.losses
    assert np.array_equal(filt.predictor.ogd.point, fresh.predictor.ogd.point)


_BAD_SIZES = [
    (spectral_basis, (2.5, 1)),
    (spectral_basis, (10, math.nan)),
    (spectral_basis, (math.inf, 2)),
    (spectral_basis, (10, 0)),
    (spectral_basis, (1, 1)),
    (build_Z, (3.5,)),
    (build_Z, (math.nan,)),
    (build_Z, (1,)),
    (hankel_W, (1.5,)),
    (hankel_W, (-math.inf,)),
    (hankel_W, (0,)),
    (mu_vector, (0.5, 0)),
    (mu_vector, (0.5, 2.25)),
    (mu_vector, (0.5, math.nan)),
]


@pytest.mark.parametrize(
    "fn, args", _BAD_SIZES, ids=[f"{fn.__name__}{args}" for fn, args in _BAD_SIZES]
)
def test_spectral_sizes_must_be_whole_numbers_at_their_minimum(fn, args):
    # A fraction used to be truncated (spectral_basis(2.5, 1) gave a T = 2
    # basis, hankel_W(1.5) a 1 x 1 matrix), and NaN or a size of 0 ended in
    # a raw TypeError, ValueError or IndexError.
    with pytest.raises(ConfigurationError, match="must be a whole number"):
        fn(*args)


def test_spectral_sizes_accept_whole_floats():
    assert spectral_basis(20.0, 4.0).vectors.shape == (4, 20)
    assert np.array_equal(build_Z(5.0), build_Z(5))
    assert np.array_equal(hankel_W(4.0), hankel_W(4))
    assert np.array_equal(mu_vector(0.5, 6.0), mu_vector(0.5, 6))


def test_spectral_predictor_keeps_one_copy_of_its_coefficients():
    from nscontrol.online_control import OGDState

    basis = spectral_basis(20, 3)
    # A zero point under M = 1 used to predict from M and then step from the
    # zero point, dropping M without a word.
    with pytest.raises(ConfigurationError, match=r"not \[M0, M\] flattened"):
        SpectralPredictor(basis, np.zeros((1, 1)), np.ones((3, 1, 1)), OGDState(np.zeros(4)))
    with pytest.raises(ConfigurationError, match=r"not \[M0, M\] flattened"):
        SpectralPredictor(basis, np.zeros((1, 1)), np.zeros((3, 1, 1)), OGDState(np.zeros(5)))
    with pytest.raises(ConfigurationError, match=r"M \(2, 1, 1\)"):
        SpectralPredictor(basis, np.zeros((1, 1)), np.zeros((2, 1, 1)), OGDState(np.zeros(3)))
    with pytest.raises(ConfigurationError, match="M0 must be a matrix"):
        SpectralPredictor(basis, np.zeros(1), np.zeros((3, 1)), OGDState(np.zeros(4)))
    point = np.arange(8.0)
    predictor = SpectralPredictor(basis, point[:2].reshape(1, 2), point[2:].reshape(3, 1, 2),
                                  OGDState(point))
    assert np.shares_memory(predictor.M0, predictor.ogd.point)
    assert np.shares_memory(predictor.M, predictor.ogd.point)
    _, stepped = learn_spectral_step(predictor, np.ones((20, 2)), [0.0], None, [1.0])
    assert np.array_equal(np.concatenate([stepped.M0.ravel(), stepped.M.ravel()]),
                          stepped.ogd.point)
    with pytest.raises(ConfigurationError, match="d_u = 1, but the predictor takes 2 inputs"):
        OnlineSpectralFilter(predictor, d_u=1)
