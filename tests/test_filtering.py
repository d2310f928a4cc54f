"""Tests for Kalman filtering, learned linear predictors, and spectral
filtering.

Closed-form Z entries are checked against adaptive quadrature, the T=2
eigenbasis against a hand eigendecomposition, learned-predictor gradients
against finite differences, and Kalman against both the transposed-DARE
duality and an offline least-squares comparator.
"""

import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import solve_discrete_are

import nscontrol.filtering as filtering
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
from nscontrol.optimal_control import dare_solve

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
        p = SpectralPredictor(basis=basis, M0=M0v, M=Mv, ogd=ogd)
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
