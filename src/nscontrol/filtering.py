"""Prediction in linear dynamical systems.

Three predictor families:

* Kalman filtering — the recursive minimum-mean-square state estimator for
  known Gaussian systems (:func:`kalman_step`, :func:`kalman_steady_state`);
* learned linear predictors — regressions on windows of past observations
  and controls, trained by projected online gradient descent
  (:class:`LinearPredictor`, :func:`learn_linear_step`);
* spectral filtering — prediction for symmetric stable systems through the
  fixed eigenbasis of the integral operator ``Z_T = int mu_a mu_a' da``,
  which approximates every geometric-decay profile at once
  (:func:`build_Z`, :func:`spectral_basis`, :func:`learn_spectral_step`).

``Z_T`` is a Hankel matrix apart from its first row and column, and its
eigenvalues fall off geometrically.  :func:`spectral_basis` therefore finds
the top ``h`` eigenpairs by block subspace iteration on ``p = min(T, h + 10)``
columns from a fixed start block, applying ``Z_T`` by FFT correlation in
O(p T log T) per iteration and O(T p) memory; the dense ``build_Z`` serves
only as a reference.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .lds_core import TOL_PSD, _as_matrix, _as_vector, spectral_radius
from .online_control import OGDState, ogd_update

__all__ = [
    "KalmanState",
    "kalman_step",
    "kalman_steady_state",
    "LinearPredictor",
    "predict_linear",
    "learn_linear_step",
    "build_Z",
    "hankel_W",
    "mu_vector",
    "SpectralBasis",
    "spectral_basis",
    "save_basis",
    "load_basis",
    "cached_basis",
    "SpectralPredictor",
    "spectral_predict",
    "learn_spectral_step",
    "OnlineSpectralFilter",
]


def _check_psd(M: np.ndarray, name: str) -> np.ndarray:
    M = _as_matrix(M, name)
    if M.shape[0] != M.shape[1] or not np.allclose(M, M.T, atol=1e-9):
        raise ConfigurationError(f"{name} must be symmetric")
    if float(np.linalg.eigvalsh(M).min()) < -TOL_PSD:
        raise ConfigurationError(f"{name} must be positive semidefinite")
    return 0.5 * (M + M.T)


# ---------------------------------------------------------------------------
# Kalman filtering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KalmanState:
    """State estimate and error covariance of the Kalman filter.

    ``x_hat`` is the prediction of the current state given all previous
    observations; ``Sigma`` is its error covariance (symmetric PSD).
    """

    x_hat: np.ndarray
    Sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_hat", np.asarray(self.x_hat, dtype=float).ravel())
        S = _as_matrix(self.Sigma, "Sigma")
        if not np.allclose(S, S.T, atol=1e-9):
            raise ConfigurationError("Sigma must be symmetric")
        if float(np.linalg.eigvalsh(S).min()) < -TOL_PSD:
            raise ConfigurationError("Sigma must be positive semidefinite")
        object.__setattr__(self, "Sigma", 0.5 * (S + S.T))


def kalman_step(
    state: KalmanState,
    A: object,
    B: Optional[object],
    C: object,
    Sigma_x: object,
    Sigma_y: object,
    u: Optional[object] = None,
    y: Optional[object] = None,
) -> KalmanState:
    """One predictive Kalman recursion.

    Computes the gain ``L = A Sigma C' (C Sigma C' + Sigma_y)^+`` and
    returns the next predictive estimate::

        x_hat' = (A - L C) x_hat + B u + L y
        Sigma' = A Sigma A' - A Sigma C' (C Sigma C' + Sigma_y)^+ C Sigma A'
                 + Sigma_x

    The innovation covariance is pseudo-inverted, so zero-noise corner
    cases degrade gracefully instead of failing.
    """
    A = _as_matrix(A, "A")
    C = _as_matrix(C, "C")
    Sigma_x = _check_psd(Sigma_x, "Sigma_x")
    Sigma_y = _check_psd(Sigma_y, "Sigma_y")
    Sig = state.Sigma
    innovation = C @ Sig @ C.T + Sigma_y
    gain_core = Sig @ C.T @ np.linalg.pinv(innovation)
    L = A @ gain_core
    x_hat = (A - L @ C) @ state.x_hat
    if B is not None and u is not None:
        B = _as_matrix(B, "B")
        x_hat = x_hat + B @ _as_vector(u, B.shape[1], "u")
    if y is not None:
        x_hat = x_hat + L @ _as_vector(y, C.shape[0], "y")
    Sigma_next = A @ Sig @ A.T - A @ gain_core @ C @ Sig @ A.T + Sigma_x
    return KalmanState(x_hat=x_hat, Sigma=0.5 * (Sigma_next + Sigma_next.T))


def kalman_steady_state(
    A: object,
    C: object,
    Sigma_x: object,
    Sigma_y: object,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed point of the covariance recursion, iterated from ``Sigma_x``.

    Returns the steady-state predictive covariance and gain ``(Sigma, L)``.

    Raises
    ------
    EvaluationError
        If the iteration does not converge within ``max_iter``.
    ConfigurationError
        If it converges but the filter loop ``A - L C`` is not stable.
    """
    A = _as_matrix(A, "A")
    C = _as_matrix(C, "C")
    Sigma_x = _check_psd(Sigma_x, "Sigma_x")
    Sigma_y = _check_psd(Sigma_y, "Sigma_y")
    Sig = Sigma_x.copy()
    for _ in range(int(max_iter)):
        innovation = C @ Sig @ C.T + Sigma_y
        gain_core = Sig @ C.T @ np.linalg.pinv(innovation)
        Sig_next = A @ Sig @ A.T - A @ gain_core @ C @ Sig @ A.T + Sigma_x
        Sig_next = 0.5 * (Sig_next + Sig_next.T)
        if float(np.linalg.norm(Sig_next - Sig)) <= tol:
            Sig = Sig_next
            break
        Sig = Sig_next
    else:
        raise EvaluationError(
            f"steady-state covariance iteration did not converge in {max_iter} steps"
        )
    L = A @ Sig @ C.T @ np.linalg.pinv(C @ Sig @ C.T + Sigma_y)
    if spectral_radius(A - L @ C) >= 1.0:
        raise ConfigurationError("steady-state filter loop A - L C is unstable")
    return Sig, L


# ---------------------------------------------------------------------------
# Learned linear predictors
# ---------------------------------------------------------------------------


def _group_ball_scales(norms: np.ndarray, kappa: float) -> np.ndarray:
    """Per-block shrink factors realizing the Euclidean projection onto the
    set where the sum of block Frobenius norms is at most ``kappa``.

    The projection acts radially within each block, so it reduces to
    projecting the vector of block norms onto the L1 ball of radius
    ``kappa`` (standard sort-based algorithm)."""
    if float(norms.sum()) <= kappa:
        return np.ones_like(norms)
    sorted_norms = np.sort(norms)[::-1]
    cumulative = np.cumsum(sorted_norms)
    counts = np.arange(1, norms.size + 1)
    feasible = sorted_norms - (cumulative - kappa) / counts > 0
    rho = int(np.nonzero(feasible)[0].max()) + 1
    theta = (cumulative[rho - 1] - kappa) / rho
    shrunk = np.maximum(norms - theta, 0.0)
    return np.where(norms > 0, shrunk / np.maximum(norms, 1e-300), 0.0)


@dataclass(frozen=True)
class LinearPredictor:
    """Linear predictor on windows of past observations and controls:
    ``y_hat_t = sum_i M1_i y_{t-i} + sum_j M2_j u_{t-j}``.

    The feasible set bounds the sum of Frobenius norms of all coefficient
    blocks by ``kappa``; learning is projected OGD on the squared error.
    """

    M1: np.ndarray  # (h, d_y, d_y)
    M2: np.ndarray  # (k, d_y, d_u)
    kappa: float = 10.0
    step_scale: float = 0.5
    t: int = 0

    def __post_init__(self):
        object.__setattr__(self, "M1", np.asarray(self.M1, dtype=float))
        object.__setattr__(self, "M2", np.asarray(self.M2, dtype=float))

    @classmethod
    def zeros(
        cls,
        d_y: int,
        d_u: int,
        h: int,
        k: int,
        kappa: float = 10.0,
        step_scale: float = 0.5,
    ) -> "LinearPredictor":
        return cls(
            M1=np.zeros((h, d_y, d_y)),
            M2=np.zeros((k, d_y, d_u)),
            kappa=kappa,
            step_scale=step_scale,
        )

    @property
    def h(self) -> int:
        return self.M1.shape[0]

    @property
    def k(self) -> int:
        return self.M2.shape[0]


def _window(history: Sequence[object], count: int, dim: int) -> np.ndarray:
    """Stack the ``count`` most recent vectors (most recent first),
    zero-padding when the history is shorter."""
    out = np.zeros((count, dim))
    for i in range(min(count, len(history))):
        out[i] = np.asarray(history[i], dtype=float)
    return out


def predict_linear(
    predictor: LinearPredictor,
    u_history: Sequence[object],
    y_history: Sequence[object],
) -> np.ndarray:
    """Prediction from the most-recent-first histories (zero-padded):
    ``y_history[0]`` is ``y_{t-1}`` and ``u_history[0]`` is ``u_{t-1}``."""
    d_y = predictor.M1.shape[1]
    ys = _window(y_history, predictor.h, predictor.M1.shape[2])
    us = _window(u_history, predictor.k, predictor.M2.shape[2] if predictor.k else 0)
    y_hat = np.zeros(d_y)
    if predictor.h:
        y_hat += np.einsum("iab,ib->a", predictor.M1, ys)
    if predictor.k:
        y_hat += np.einsum("iab,ib->a", predictor.M2, us)
    return y_hat


def learn_linear_step(
    predictor: LinearPredictor,
    u_history: Sequence[object],
    y_history: Sequence[object],
    y_true: object,
) -> tuple[np.ndarray, LinearPredictor]:
    """Predict, incur the squared error against ``y_true``, and take one
    projected OGD step.  Returns the prediction and the updated predictor."""
    y_true = np.asarray(y_true, dtype=float).ravel()
    ys = _window(y_history, predictor.h, predictor.M1.shape[2])
    us = _window(u_history, predictor.k, predictor.M2.shape[2] if predictor.k else 0)
    y_hat = np.zeros(predictor.M1.shape[1])
    if predictor.h:
        y_hat += np.einsum("iab,ib->a", predictor.M1, ys)
    if predictor.k:
        y_hat += np.einsum("iab,ib->a", predictor.M2, us)
    residual = 2.0 * (y_hat - y_true)
    if not np.all(np.isfinite(residual)):
        raise EvaluationError("linear predictor produced a non-finite residual")
    t_next = predictor.t + 1
    eta = predictor.step_scale / np.sqrt(t_next)
    M1 = predictor.M1 - eta * np.einsum("a,ib->iab", residual, ys)
    M2 = predictor.M2 - eta * np.einsum("a,ib->iab", residual, us)
    # Joint projection: sum of Frobenius norms over all blocks <= kappa.
    norms1 = np.linalg.norm(M1.reshape(predictor.h, -1), axis=1) if predictor.h else np.zeros(0)
    norms2 = np.linalg.norm(M2.reshape(predictor.k, -1), axis=1) if predictor.k else np.zeros(0)
    norms = np.concatenate([norms1, norms2])
    scales = _group_ball_scales(norms, predictor.kappa)
    M1 = M1 * scales[: predictor.h, None, None]
    M2 = M2 * scales[predictor.h :, None, None]
    return y_hat, replace(predictor, M1=M1, M2=M2, t=t_next)


# ---------------------------------------------------------------------------
# Spectral filtering
# ---------------------------------------------------------------------------


def _z_edge(j: np.ndarray) -> np.ndarray:
    """First row and column of ``Z_T`` past the corner: ``Z[0][j]`` for
    ``j >= 1``."""
    return 1.0 / (j + 1.0) - 1.0 / j


def _z_hankel(s: np.ndarray) -> np.ndarray:
    """Entries ``Z[i][j]`` for ``i, j >= 1``, which depend only on
    ``s = i + j``."""
    return 1.0 / (s + 1.0) - 2.0 / s + 1.0 / (s - 1.0)


def build_Z(T: int) -> np.ndarray:
    """Gram matrix ``Z_T[i][j] = int_0^1 mu_a[i] mu_a[j] da`` of the decay
    profiles ``mu_a = [1, (a-1), (a-1)a, ..., (a-1)a^{T-2}]`` in closed form.

    This is the dense reference; :func:`spectral_basis` never forms it.
    """
    T = int(T)
    if T < 2:
        raise ConfigurationError("build_Z requires T >= 2")
    Z = np.empty((T, T))
    Z[0, 0] = 1.0
    j = np.arange(1, T, dtype=float)
    edge = _z_edge(j)
    Z[0, 1:] = edge
    Z[1:, 0] = edge
    Z[1:, 1:] = _z_hankel(np.add.outer(j, j))
    return Z


def _z_operator(T: int) -> Callable[[np.ndarray], np.ndarray]:
    """``V -> Z_T V`` for a (T, p) block, without forming ``Z_T``.

    The corner and the edge vector are applied directly.  The rest is the
    Hankel product ``(Z V)[1 + a] += sum_b f(a + b + 2) V[1 + b]`` with
    ``f`` = :func:`_z_hankel`, a correlation with the sequence
    ``f(2), ..., f(2T - 2)``.  It is computed for all p columns at once by
    real FFTs of length at least ``2(T - 1) - 1``, so nothing wraps around.
    Cost O(p T log T), memory O(p T).
    """
    n = T - 1
    edge = _z_edge(np.arange(1, T, dtype=float))
    length = 1 << (2 * n - 2).bit_length()  # a power of two >= 2n - 1
    kernel = np.fft.rfft(_z_hankel(np.arange(2, 2 * n + 1, dtype=float)), n=length)

    def apply(V: np.ndarray) -> np.ndarray:
        head, tail = V[0], V[1:]
        spectrum = np.fft.rfft(tail, n=length, axis=0)
        np.conjugate(spectrum, out=spectrum)
        spectrum *= kernel[:, None]
        out = np.empty_like(V)
        out[0] = head + edge @ tail
        out[1:] = np.fft.irfft(spectrum, n=length, axis=0)[:n]
        out[1:] += np.outer(edge, head)
        return out

    return apply


def hankel_W(T: int) -> np.ndarray:
    """Hankel matrix ``W[i][j] = 1/(i + j + 1)`` (zero-based)."""
    T = int(T)
    if T < 1:
        raise ConfigurationError("hankel_W requires T >= 1")
    idx = np.arange(T, dtype=float)
    return 1.0 / (np.add.outer(idx, idx) + 1.0)


def mu_vector(alpha: float, T: int) -> np.ndarray:
    """Decay profile ``mu_a = [1, (a-1), (a-1)a, ..., (a-1)a^{T-2}]``."""
    mu = np.empty(T)
    mu[0] = 1.0
    mu[1:] = (alpha - 1.0) * alpha ** np.arange(T - 1, dtype=float)
    return mu


@dataclass(frozen=True)
class SpectralBasis:
    """Top eigenpairs of ``Z_T``: unit-norm eigenvectors (rows of
    ``vectors``, first nonzero component positive) with nonincreasing
    nonnegative eigenvalues."""

    T: int
    h: int
    eigenvalues: np.ndarray  # (h,)
    vectors: np.ndarray  # (h, T)

    def filter_outputs(self, u_tilde: np.ndarray) -> np.ndarray:
        """Project a padded input history onto the basis: returns the
        (h, d_u) array of ``phi_j' u_tilde``."""
        return self.vectors @ u_tilde


def _fix_sign(v: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    nonzero = np.nonzero(np.abs(v) > tol)[0]
    if nonzero.size and v[nonzero[0]] < 0:
        return -v
    return v


#: Extra block columns carried beyond the ``h`` wanted eigenpairs.
_OVERSAMPLE = 10
#: Stop once every returned pair has ``||Z v - lambda v|| <= _RESIDUAL_TOL * lambda_1``.
_RESIDUAL_TOL = 1e-13
#: Subspace iterations allowed before :func:`spectral_basis` gives up.
_MAX_ITERATIONS = 50
#: Seed of the fixed start block, drawn from a private generator.
_START_SEED = 0


def spectral_basis(T: int, h: int) -> SpectralBasis:
    """Top-``h`` eigenpairs of :func:`build_Z`, without forming ``Z_T``.

    Block subspace iteration on ``p = min(T, h + 10)`` columns: each
    iteration applies ``Z_T`` through its Hankel structure by FFT
    (O(p T log T)), then Rayleigh-Ritz (``eigh`` of the p x p matrix
    ``Q' Z Q``) gives the Ritz pairs, and a QR of ``Z Q Y`` starts the next
    iteration.  It stops when every returned pair has residual
    ``||Z v - lambda v|| <= 1e-13 lambda_1``.  Memory is O(T p).  The start
    block is a fixed Gaussian draw from a private generator, so the result
    is the same on every call and global RNG state is untouched.  When
    ``p = T`` the first Rayleigh-Ritz step covers the whole space and is
    exact.

    Raises
    ------
    ConfigurationError
        If ``h > T``, ``T < 2`` or ``h < 1``.
    EvaluationError
        If the iteration does not converge within its iteration cap.
    """
    T, h = int(T), int(h)
    if h > T:
        raise ConfigurationError("spectral basis size h cannot exceed the horizon T")
    if T < 2 or h < 1:
        raise ConfigurationError("spectral_basis requires T >= 2 and h >= 1")
    apply_Z = _z_operator(T)
    p = min(T, h + _OVERSAMPLE)
    start = np.random.default_rng(_START_SEED).standard_normal((T, p))
    Q = np.linalg.qr(start)[0]
    for _ in range(_MAX_ITERATIONS):
        ZQ = apply_Z(Q)
        projected = Q.T @ ZQ
        theta, Y = np.linalg.eigh(0.5 * (projected + projected.T))
        theta, Y = theta[::-1], Y[:, ::-1]
        V = Q @ Y[:, :h]
        ZY = ZQ @ Y
        residual = np.linalg.norm(ZY[:, :h] - V * theta[:h], axis=0)
        if residual.max() <= _RESIDUAL_TOL * theta[0]:
            break
        Q = np.linalg.qr(ZY)[0]
    else:
        raise EvaluationError(
            f"subspace iteration for the top {h} eigenpairs of Z_{T} did not "
            f"converge in {_MAX_ITERATIONS} iterations"
        )
    eigenvalues = np.maximum(theta[:h], 0.0)
    vectors = np.stack([_fix_sign(v) for v in V.T])
    return SpectralBasis(T=T, h=h, eigenvalues=eigenvalues, vectors=vectors)


def save_basis(basis: SpectralBasis, path: str) -> None:
    """Write a basis as plain text: header ``T h``, one line of
    eigenvalues, then one line per eigenvector, all at 17 significant
    digits (lossless for double precision)."""
    with open(path, "w") as fh:
        fh.write(f"{basis.T} {basis.h}\n")
        fh.write(" ".join("%.17g" % v for v in basis.eigenvalues) + "\n")
        for row in basis.vectors:
            fh.write(" ".join("%.17g" % v for v in row) + "\n")


def load_basis(path: str) -> SpectralBasis:
    """Inverse of :func:`save_basis`."""
    with open(path) as fh:
        header = fh.readline().split()
        T, h = int(header[0]), int(header[1])
        eigenvalues = np.array([float(v) for v in fh.readline().split()])
        vectors = np.array(
            [[float(v) for v in fh.readline().split()] for _ in range(h)]
        )
    if eigenvalues.shape != (h,) or vectors.shape != (h, T):
        raise ConfigurationError(f"basis file {path!r} is malformed")
    return SpectralBasis(T=T, h=h, eigenvalues=eigenvalues, vectors=vectors)


def cached_basis(T: int, h: int, cache_dir: str) -> SpectralBasis:
    """Load the (T, h) basis from the cache directory, building and saving
    it on first use."""
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"spectral_basis_T{int(T)}_h{int(h)}.txt")
    if os.path.exists(path):
        return load_basis(path)
    basis = spectral_basis(T, h)
    save_basis(basis, path)
    return basis


@dataclass(frozen=True)
class SpectralPredictor:
    """Spectral predictor in difference form:
    ``y_hat_t = y_hat_{t-1} + M0 u_{t-1} + sum_j Mj (phi_j' u_tilde_{t-1})``.

    ``M0`` is the instantaneous pass-through term; ``M`` holds one
    coefficient matrix per basis filter.  Learning is projected OGD on the
    squared error (Euclidean ball of radius ``kappa`` on the stacked
    coefficients); the previous prediction is treated as a constant.
    """

    basis: SpectralBasis
    M0: np.ndarray  # (d_y, d_u)
    M: np.ndarray  # (h, d_y, d_u)
    ogd: OGDState

    @classmethod
    def zeros(
        cls,
        basis: SpectralBasis,
        d_y: int,
        d_u: int,
        kappa: float = 10.0,
        step_scale: float = 0.1,
        schedule: str = "sqrt",
    ) -> "SpectralPredictor":
        M0 = np.zeros((d_y, d_u))
        M = np.zeros((basis.h, d_y, d_u))
        ogd = OGDState(
            point=np.concatenate([M0.ravel(), M.ravel()]),
            radius=kappa,
            step_scale=step_scale,
            schedule=schedule,
        )
        return cls(basis=basis, M0=M0, M=M, ogd=ogd)


def _coerce_u_tilde(u_tilde: object, T: int) -> np.ndarray:
    arr = np.asarray(u_tilde, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.shape[0] != T:
        raise ConfigurationError(
            f"padded input history must have length {T}, got {arr.shape[0]}"
        )
    return arr


def spectral_predict(
    predictor: SpectralPredictor,
    u_tilde: object,
    y_prev: object,
    u_prev: Optional[object] = None,
) -> np.ndarray:
    """Evaluate the difference-form prediction; ``u_tilde`` is the
    reversed, zero-padded length-T input history (``u_tilde[0]`` is
    ``u_{t-1}``) and ``y_prev`` the previous prediction."""
    u_tilde = _coerce_u_tilde(u_tilde, predictor.basis.T)
    y_prev = np.asarray(y_prev, dtype=float).ravel()
    u_last = u_tilde[0] if u_prev is None else np.asarray(u_prev, dtype=float).ravel()
    projections = predictor.basis.filter_outputs(u_tilde)  # (h, d_u)
    return y_prev + predictor.M0 @ u_last + np.einsum("jab,jb->a", predictor.M, projections)


def learn_spectral_step(
    predictor: SpectralPredictor,
    u_tilde: object,
    y_prev: object,
    u_prev: Optional[object],
    y_true: object,
) -> tuple[np.ndarray, SpectralPredictor]:
    """Predict, incur the squared error against ``y_true``, and take one
    projected OGD step on the coefficients (the previous prediction is not
    differentiated through).  Returns the prediction and the updated
    predictor."""
    u_tilde = _coerce_u_tilde(u_tilde, predictor.basis.T)
    y_true = np.asarray(y_true, dtype=float).ravel()
    u_last = u_tilde[0] if u_prev is None else np.asarray(u_prev, dtype=float).ravel()
    projections = predictor.basis.filter_outputs(u_tilde)
    y_hat = (
        np.asarray(y_prev, dtype=float).ravel()
        + predictor.M0 @ u_last
        + np.einsum("jab,jb->a", predictor.M, projections)
    )
    residual = 2.0 * (y_hat - y_true)
    grad0 = np.outer(residual, u_last)
    grad = np.einsum("a,jb->jab", residual, projections)
    ogd = ogd_update(predictor.ogd, np.concatenate([grad0.ravel(), grad.ravel()]))
    n0 = predictor.M0.size
    M0 = ogd.point[:n0].reshape(predictor.M0.shape)
    M = ogd.point[n0:].reshape(predictor.M.shape)
    return y_hat, replace(predictor, M0=M0, M=M, ogd=ogd)


class OnlineSpectralFilter:
    """Stateful wrapper that maintains the padded input history and steps
    the spectral predictor online.

    The difference form predicts the increment on top of the previous
    *observed* output (available before each prediction in the online
    protocol); feeding the predictor's own previous output instead would
    integrate its errors into an uncorrectable drift.  Call :meth:`step`
    once per round with the input just played and the observation it
    produced.
    """

    def __init__(self, predictor: SpectralPredictor, d_u: int):
        self.predictor = predictor
        self.d_u = int(d_u)
        self._u_tilde = np.zeros((predictor.basis.T, self.d_u))
        self._y_prev = np.zeros(predictor.M0.shape[0])
        self.losses: list = []

    def step(self, u_prev: object, y_true: object) -> np.ndarray:
        """Predict ``y_t`` from the inputs up to ``u_{t-1}`` and the
        previous observation, then learn from the realized ``y_t``."""
        u_prev = np.asarray(u_prev, dtype=float).ravel()
        self._u_tilde = np.concatenate([u_prev[None], self._u_tilde[:-1]], axis=0)
        y_hat, self.predictor = learn_spectral_step(
            self.predictor, self._u_tilde, self._y_prev, u_prev, y_true
        )
        self._y_prev = np.asarray(y_true, dtype=float).ravel()
        self.losses.append(float(np.sum((y_hat - self._y_prev) ** 2)))
        return y_hat
