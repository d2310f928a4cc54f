"""Prediction in linear dynamical systems.

Three predictor families:

* Kalman filtering — the recursive minimum-mean-square state estimator for
  known Gaussian systems (:func:`kalman_step`, :func:`kalman_filter`,
  :func:`kalman_steady_state`);
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

import base64
import os
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .lds_core import (
    TOL_PSD, _all_finite, _as_matrix, _check_psd, _finite_vector, _whole,
)
from .online_control import OGDState, _ogd_kernel, _ogd_step
from .optimal_control import _riccati_step, dare_solve
from .serialize import _atomic_write_text

__all__ = [
    "KalmanState",
    "kalman_step",
    "kalman_filter",
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


# ---------------------------------------------------------------------------
# Kalman filtering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KalmanState:
    """State estimate and error covariance of the Kalman filter.

    ``x_hat`` is the prediction of the current state given all previous
    observations (finite); ``Sigma`` is its error covariance (symmetric PSD).
    """

    x_hat: np.ndarray
    Sigma: np.ndarray

    def __post_init__(self):
        Sigma = _check_psd(self.Sigma, "Sigma")
        object.__setattr__(self, "x_hat", _finite_vector(np.ravel(self.x_hat), len(Sigma), "x_hat"))
        object.__setattr__(self, "Sigma", Sigma)


def _validated_noise(state: KalmanState, Sigma_x: object, Sigma_y: object) -> tuple:
    """The symmetrised ``(Sigma_x, Sigma_y)``, checked with
    :func:`_check_psd`, ``Sigma_x`` against the state's dimension."""
    return _check_psd(Sigma_x, "Sigma_x", state.Sigma.shape), _check_psd(Sigma_y, "Sigma_y")


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

    The covariance update is the control Riccati step
    :func:`~nscontrol.optimal_control._riccati_step` on the transposed data
    ``(A', C', Sigma_x, Sigma_y)``, whose signed gain ``K`` gives ``L =
    -K'``: ``L`` is the minimum-norm least-squares solution of ``L (C Sigma
    C' + Sigma_y) = A Sigma C'``, and the next predictive estimate is::

        x_hat' = (A - L C) x_hat + B u + L y
        Sigma' = (A - L C) Sigma (A - L C)' + L Sigma_y L' + Sigma_x

    This (Joseph) form is a sum of PSD congruences, so ``Sigma'`` stays PSD
    with singular or zero noise covariances, and a rounding-level singular
    value of the innovation covariance is never inverted.

    ``Sigma_x`` and ``Sigma_y`` must be symmetric PSD.  Every call checks
    them, ``A`` and ``C``, and gives the new covariance ``Sigma'`` its
    finiteness and PSD check.  A chain of calls gives the bits of
    :func:`kalman_filter` over the same record, which checks its inputs
    once and replays the covariance cycle a fixed ``(A, C)`` enters.

    Raises
    ------
    ConfigurationError
        If a matrix or vector does not fit the state's dimension, a noise
        covariance is not symmetric PSD, ``u`` or ``y`` has a non-finite
        entry, or the new covariance is non-finite or not PSD.
    """
    noise = _validated_noise(state, Sigma_x, Sigma_y)
    A = _as_matrix(A, "A", state.Sigma.shape)
    C = _as_matrix(C, "C", (len(noise[1]), len(A)))
    L, closed, Sigma_next = _kalman_gains(A, C, noise, state.Sigma)
    x_hat = closed @ state.x_hat
    if B is not None and u is not None:
        B = _as_matrix(B, "B", (len(x_hat), None))
        x_hat = x_hat + B @ _finite_vector(u, B.shape[1], "u")
    if y is not None:
        x_hat = x_hat + L @ _finite_vector(y, C.shape[0], "y")
    return _checked_state(x_hat, Sigma_next)


def _kalman_gains(A: np.ndarray, C: np.ndarray, noise: tuple, Sigma: np.ndarray) -> tuple:
    """``(L, A - L C, Sigma')`` of the Riccati step from ``Sigma``, after
    checking that ``Sigma'`` is finite and PSD.  ``Sigma'`` is symmetric by
    construction, so its symmetry is not checked."""
    # An overflow leaves a non-finite Sigma_next, rejected below.
    with np.errstate(over="ignore", invalid="ignore"):
        K, Sigma_next = _riccati_step(A.T, C.T, noise[0], noise[1], Sigma)
    if not _all_finite(Sigma_next):
        raise ConfigurationError("Sigma contains non-finite entries")
    if float(np.linalg.eigvalsh(Sigma_next).min()) < -TOL_PSD:
        raise ConfigurationError("Sigma must be positive semidefinite")
    L = -K.T
    return L, A - L @ C, Sigma_next


def _checked_state(x_hat: np.ndarray, Sigma: np.ndarray) -> KalmanState:
    """A state built without :meth:`KalmanState.__post_init__`, whose checks
    its parts have passed."""
    out = object.__new__(KalmanState)
    object.__setattr__(out, "x_hat", x_hat)
    object.__setattr__(out, "Sigma", Sigma)
    return out


def _per_step(M: object, name: str, T: int, shape: tuple) -> tuple:
    """``(stack, fixed)``: ``M``, one matrix of ``shape`` (None for any
    length) or a stack of ``T`` of them, as a finite (T, rows, cols) array,
    and whether every step's matrix has the same bytes."""
    M = np.asarray(M, dtype=float)
    if M.ndim == 2:
        M = np.broadcast_to(M, (T,) + M.shape)
    if M.ndim != 3 or M.shape[0] != T or any(
            n is not None and n != got for n, got in zip(shape, M.shape[1:])):
        raise ConfigurationError(
            f"{name} has shape {M.shape}, expected {shape} or a stack of {T} of them")
    if not _all_finite(M):
        raise ConfigurationError(f"{name} contains non-finite entries")
    return M, T == 0 or not (M != M[0]).any()


def kalman_filter(
    state: KalmanState,
    A: object,
    C: object,
    Sigma_x: object,
    Sigma_y: object,
    Y: object,
    B: Optional[object] = None,
    U: Optional[object] = None,
) -> tuple[np.ndarray, np.ndarray, KalmanState]:
    """:func:`kalman_step` chained over a whole record, bit for bit.

    ``Y`` holds the observations ``y_0, ..., y_{T-1}`` as rows, and ``U``
    the inputs, used with ``B`` as in :func:`kalman_step`.  ``A``, ``B`` and
    ``C`` are each one matrix for every step or a stack of ``T``, one per
    step.  Returns ``(X_hat, Sigmas, final)``: ``X_hat[t]`` and
    ``Sigmas[t]`` are the estimate of ``x_t`` from ``y_0, ..., y_{t-1}``
    and its covariance, which step ``t`` starts from, and ``final`` is the
    state after the last step, which chains into further calls.

    The inputs are checked once for the whole record.  The run computes
    the covariances and gains first, then the estimates from those gains.
    Under a fixed ``(A, C)`` the covariance update is a pure function of
    ``Sigma``, so once ``Sigmas[t]`` has the bytes of an earlier
    ``Sigmas[s]`` the covariances repeat with period ``t - s`` from then
    on: the first phase stops there, and later steps reuse the ``(L, A - L
    C)`` of steps ``s, ..., t - 1``, whose covariances passed their checks,
    instead of redoing the Riccati step.  A time-varying ``A`` or ``C``
    never replays.  Every computed step stores its gains next to the
    histories, so memory is O(T d_x (d_x + d_y)).

    Raises
    ------
    ConfigurationError
        If a matrix or record does not fit the state's dimension or has a
        non-finite entry, a noise covariance is not symmetric PSD, or a new
        covariance is non-finite or not PSD.
    """
    noise = _validated_noise(state, Sigma_x, Sigma_y)
    d_x, d_y = len(state.Sigma), len(noise[1])
    Y = _as_matrix(Y, "Y", (None, d_y))
    T = len(Y)
    A, fixed_A = _per_step(A, "A", T, (d_x, d_x))
    C, fixed_C = _per_step(C, "C", T, (d_y, d_x))
    if B is not None and U is not None:
        B = _per_step(B, "B", T, (d_x, None))[0]
        U = _as_matrix(U, "U", (T, B.shape[2]))
    else:
        B = None
    # Covariances and gains; index[t] is the computed step that step t replays.
    Sigmas = np.empty((T + 1, d_x, d_x))
    Sigmas[0] = state.Sigma
    gains, seen, index = [], {}, np.arange(T + 1)
    for t in range(T):
        if fixed_A and fixed_C:
            start = seen.setdefault(Sigmas[t].tobytes(), t)
            if start < t:
                index[t:] = start + (index[t:] - start) % (t - start)
                Sigmas[t:] = Sigmas[index[t:]]
                break
        L, closed, Sigmas[t + 1] = _kalman_gains(A[t], C[t], noise, Sigmas[t])
        gains.append((L, closed))
    # Estimates from those gains.
    X_hat = np.empty((T, d_x))
    x = state.x_hat
    for t, i in enumerate(index[:T].tolist()):
        X_hat[t] = x
        L, closed = gains[i]
        x = closed @ x
        if B is not None:
            x = x + B[t] @ U[t]
        x = x + L @ Y[t]
    return X_hat, Sigmas[:T], _checked_state(x, Sigmas[T].copy())


def kalman_steady_state(
    A: object,
    C: object,
    Sigma_x: object,
    Sigma_y: object,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed point of the covariance recursion, iterated from ``Sigma_x``.

    The recursion is the control Riccati iteration on transposed data (``A
    -> A'``, ``B -> C'``, ``Q -> Sigma_x``, ``R -> Sigma_y``), so this is
    :func:`~nscontrol.optimal_control.dare_solve` there, whose signed gain
    ``K`` gives ``L = -K'``.  Returns the steady-state predictive covariance
    and gain ``(Sigma, L)``.

    Raises
    ------
    EvaluationError
        If the iteration does not converge within ``max_iter``, or diverges.
    ConfigurationError
        If a matrix has the wrong shape, a noise covariance is not symmetric
        PSD, or the iteration converges but the filter loop ``A - L C`` is
        not stable.
    """
    A = _as_matrix(A, "A", "square")
    C = _as_matrix(C, "C", (None, len(A)))
    sol = dare_solve(
        A.T, C.T, _check_psd(Sigma_x, "Sigma_x", A.shape),
        _check_psd(Sigma_y, "Sigma_y", (len(C), len(C))), tol, max_iter,
    )
    return sol.S, -sol.K.T


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

    Raises
    ------
    ConfigurationError
        If ``M1`` is not an (h, d_y, d_y) stack, ``M2`` not a (k, d_y, d_u)
        one of the same d_y, or either has a non-finite entry.
    """

    M1: np.ndarray  # (h, d_y, d_y)
    M2: np.ndarray  # (k, d_y, d_u)
    kappa: float = 10.0
    step_scale: float = 0.5
    t: int = 0

    def __post_init__(self):
        M1, M2 = np.asarray(self.M1, dtype=float), np.asarray(self.M2, dtype=float)
        if M1.ndim != 3 or M1.shape[1] != M1.shape[2]:
            raise ConfigurationError(f"M1 has shape {M1.shape}, expected (h, d_y, d_y)")
        if M2.ndim != 3 or M2.shape[1] != M1.shape[1]:
            raise ConfigurationError(f"M2 has shape {M2.shape}, expected (k, {M1.shape[1]}, d_u)")
        for name, M in (("M1", M1), ("M2", M2)):
            if not _all_finite(M):
                raise ConfigurationError(f"{name} contains non-finite entries")
        object.__setattr__(self, "M1", M1)
        object.__setattr__(self, "M2", M2)

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


def _window(history: Sequence[object], count: int, dim: int, name: str) -> np.ndarray:
    """Stack the ``count`` most recent vectors (most recent first), each a
    finite ``dim`` vector, zero-padding when the history is shorter."""
    out = np.zeros((count, dim))
    for i in range(min(count, len(history))):
        out[i] = _finite_vector(history[i], dim, f"{name}[{i}]")
    return out


def _linear_prediction(predictor: LinearPredictor, u_history: Sequence[object],
                       y_history: Sequence[object]) -> tuple:
    """``(y_hat, ys, us)``: the prediction and the zero-padded windows it reads."""
    ys = _window(y_history, predictor.h, predictor.M1.shape[2], "y_history")
    us = _window(u_history, predictor.k, predictor.M2.shape[2], "u_history")
    y_hat = np.einsum("iab,ib->a", predictor.M1, ys) + np.einsum("iab,ib->a", predictor.M2, us)
    return y_hat, ys, us


def predict_linear(
    predictor: LinearPredictor,
    u_history: Sequence[object],
    y_history: Sequence[object],
) -> np.ndarray:
    """Prediction from the most-recent-first histories (zero-padded):
    ``y_history[0]`` is ``y_{t-1}`` and ``u_history[0]`` is ``u_{t-1}``."""
    return _linear_prediction(predictor, u_history, y_history)[0]


def learn_linear_step(
    predictor: LinearPredictor,
    u_history: Sequence[object],
    y_history: Sequence[object],
    y_true: object,
) -> tuple[np.ndarray, LinearPredictor]:
    """Predict, incur the squared error against ``y_true``, and take one
    projected OGD step.  Returns the prediction and the updated predictor."""
    y_true = _finite_vector(y_true, predictor.M1.shape[1], "y_true")
    y_hat, ys, us = _linear_prediction(predictor, u_history, y_history)
    residual = 2.0 * (y_hat - y_true)
    if not np.all(np.isfinite(residual)):
        raise EvaluationError("linear predictor produced a non-finite residual")
    t_next = predictor.t + 1
    eta = predictor.step_scale / np.sqrt(t_next)
    M1 = predictor.M1 - eta * np.einsum("a,ib->iab", residual, ys)
    M2 = predictor.M2 - eta * np.einsum("a,ib->iab", residual, us)
    # Joint projection: sum of Frobenius norms over all blocks <= kappa.
    norms = np.concatenate([np.linalg.norm(M, axis=(1, 2)) for M in (M1, M2)])
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
    T = _whole(T, 2, "build_Z's T")
    Z = np.empty((T, T))
    Z[0, 0] = 1.0
    j = np.arange(1, T, dtype=float)
    edge = _z_edge(j)
    Z[0, 1:] = edge
    Z[1:, 0] = edge
    Z[1:, 1:] = _z_hankel(np.add.outer(j, j))
    return Z


def _fft_length(n: int) -> int:
    """The smallest power of two >= ``n`` (n >= 1): a length at which
    linear convolutions or correlations that fit in ``n`` entries do not
    wrap around."""
    return 1 << (n - 1).bit_length()


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
    length = _fft_length(2 * n - 1)
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
    T = _whole(T, 1, "hankel_W's T")
    idx = np.arange(T, dtype=float)
    return 1.0 / (np.add.outer(idx, idx) + 1.0)


def mu_vector(alpha: float, T: int) -> np.ndarray:
    """Decay profile ``mu_a = [1, (a-1), (a-1)a, ..., (a-1)a^{T-2}]``."""
    T = _whole(T, 1, "mu_vector's T")
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
        If ``T`` or ``h`` is not a whole number, or if ``h > T``, ``T < 2``
        or ``h < 1``.
    EvaluationError
        If the iteration does not converge within its iteration cap.
    """
    T, h = _whole(T, 2, "spectral_basis's T"), _whole(h, 1, "spectral_basis's h")
    if h > T:
        raise ConfigurationError("spectral basis size h cannot exceed the horizon T")
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


#: Format tag on the header line of a basis file written by :func:`save_basis`.
_BASIS_FORMAT = b"float64-le-base64"


def save_basis(basis: SpectralBasis, path: str) -> None:
    """Write a basis as ASCII lines: a header ``T h float64-le-base64``,
    then the eigenvalues and each eigenvector, one row per line, as the
    base64 of their little-endian float64 bytes, so the round trip is exact.
    The file is replaced atomically, so an interrupted write leaves no
    truncated basis behind."""
    rows = [basis.eigenvalues, *basis.vectors]
    lines = [b"%d %d %s" % (basis.T, basis.h, _BASIS_FORMAT)]
    lines += [base64.b64encode(np.asarray(row, dtype="<f8").tobytes()) for row in rows]
    _atomic_write_text(path, b"\n".join(lines).decode("ascii") + "\n")


def _binary_row(line: bytes, size: int) -> np.ndarray:
    """A row of :func:`save_basis`'s format: the base64 of ``size``
    little-endian float64 values."""
    raw = base64.b64decode(line, validate=True)
    if len(raw) != 8 * size:
        raise ValueError(f"a row has {len(raw)} bytes, expected {8 * size}")
    return np.frombuffer(raw, dtype="<f8").astype(float)


def load_basis(path: str) -> SpectralBasis:
    """Inverse of :func:`save_basis`.  Raises ConfigurationError if the file
    is not a whole basis in its format (no format tag, malformed, ragged,
    non-finite, or cut short)."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    try:
        T, h, *tag = lines[0].split()
        T, h = int(T), int(h)
        if tag != [_BASIS_FORMAT]:
            raise ValueError(f"the header does not end in the format tag {_BASIS_FORMAT.decode()}")
        if len(lines) != h + 3 or lines[-1]:
            raise ValueError("not a header line and h + 1 rows, each ending in a newline")
        eigenvalues = _binary_row(lines[1], h)
        vectors = np.stack([_binary_row(line, T) for line in lines[2:-1]]) if h > 0 else None
    except ValueError as exc:  # binascii.Error is one too
        raise ConfigurationError(f"basis file {path!r} is malformed: {exc}") from exc
    if vectors is None or not (_all_finite(eigenvalues) and _all_finite(vectors)):
        raise ConfigurationError(f"basis file {path!r} is malformed")
    return SpectralBasis(T=T, h=h, eigenvalues=eigenvalues, vectors=vectors)


def cached_basis(T: int, h: int, cache_dir: str) -> SpectralBasis:
    """Load the (T, h) basis from the cache directory, building and saving
    it on first use."""
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

    The OGD point is the one copy of the coefficients: ``M0`` and ``M`` are
    held as views of it.

    Raises
    ------
    ConfigurationError
        If ``M0`` is not a matrix, ``M`` is not ``(basis.h, *M0.shape)``,
        or ``ogd.point`` is not ``[M0, M]`` flattened.
    """

    basis: SpectralBasis
    M0: np.ndarray  # (d_y, d_u)
    M: np.ndarray  # (h, d_y, d_u)
    ogd: OGDState

    def __post_init__(self):
        M0, M, point = np.asarray(self.M0, float), np.asarray(self.M, float), self.ogd.point
        if M0.ndim != 2 or M.shape != (self.basis.h, *M0.shape):
            raise ConfigurationError(f"M0 has shape {M0.shape} and M {M.shape}; M0 must be a "
                                     f"matrix and M (basis.h, *M0.shape), basis.h = {self.basis.h}")
        if not np.array_equal(point, np.concatenate((M0.ravel(), M.ravel())), equal_nan=True):
            raise ConfigurationError("the OGD point is not [M0, M] flattened")
        object.__setattr__(self, "M0", point[: M0.size].reshape(M0.shape))
        object.__setattr__(self, "M", point[M0.size :].reshape(M.shape))

    @classmethod
    def zeros(
        cls,
        basis: SpectralBasis,
        d_y: int,
        d_u: int,
        kappa: float = 10.0,
        step_scale: float = 0.1,
    ) -> "SpectralPredictor":
        """The zero predictor on ``basis``, learning with step
        ``step_scale / sqrt(t)`` in the ball of radius ``kappa``."""
        d_y, d_u = _whole(d_y, 1, "d_y"), _whole(d_u, 1, "d_u")
        ogd = OGDState(np.zeros((basis.h + 1) * d_y * d_u), radius=kappa, step_scale=step_scale)
        return _predictor(basis, ogd, (basis.h + 1, d_y, d_u))


def _predictor(basis: SpectralBasis, ogd: OGDState, shape: tuple) -> SpectralPredictor:
    """The predictor whose coefficients are the OGD point, read as the (h +
    1, d_y, d_u) stack ``shape`` of ``W = [M0, M]``."""
    W = ogd.point.reshape(shape)
    return SpectralPredictor(basis=basis, M0=W[0], M=W[1:], ogd=ogd)


def _spectral_inputs(predictor: SpectralPredictor, u_tilde: object, y_prev: object,
                     u_prev: Optional[object]) -> tuple:
    """``(u_tilde, y_prev, u_last)`` checked against the predictor: ``u_tilde``
    (T, d_u), a vector when d_u = 1, and finite d_y and d_u vectors;
    ``u_last`` is ``u_prev``, or ``u_tilde[0]`` when it is None."""
    d_y, d_u = predictor.M0.shape
    u_tilde = np.asarray(u_tilde, dtype=float)
    u_tilde = u_tilde[:, None] if u_tilde.ndim == 1 else u_tilde
    u_tilde = _as_matrix(u_tilde, "u_tilde", (predictor.basis.T, d_u))
    u_last = u_tilde[0] if u_prev is None else _finite_vector(u_prev, d_u, "u_prev")
    return u_tilde, _finite_vector(y_prev, d_y, "y_prev"), u_last


def _features(vectors: np.ndarray, u_tilde: np.ndarray, u_last: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """``out`` (h + 1, d_u) filled with ``u_last`` and the filter outputs
    ``vectors u_tilde``: the features of the difference-form prediction."""
    out[0] = u_last
    vectors.dot(u_tilde, out=out[1:])
    return out


def _increment(W: np.ndarray, features: np.ndarray) -> np.ndarray:
    """The difference form's increment ``M0 u_last + sum_j M_j (phi_j'
    u_tilde)`` from the coefficients ``W = [M0, M]`` (h + 1, d_y, d_u) and
    :func:`_features`; the prediction is ``y_prev`` plus it.  It is one
    product of ``W``, laid out as a (d_y, (h + 1) d_u) matrix, with the
    flat features."""
    return W.transpose(1, 0, 2).reshape(W.shape[1], -1).dot(features.reshape(-1))


def spectral_predict(
    predictor: SpectralPredictor,
    u_tilde: object,
    y_prev: object,
    u_prev: Optional[object] = None,
) -> np.ndarray:
    """Evaluate the difference-form prediction; ``u_tilde`` is the
    reversed, zero-padded length-T input history (``u_tilde[0]`` is
    ``u_{t-1}``) and ``y_prev`` the previous prediction."""
    u_tilde, y_prev, u_last = _spectral_inputs(predictor, u_tilde, y_prev, u_prev)
    features = np.empty((predictor.M.shape[0] + 1, u_tilde.shape[1]))
    features = _features(predictor.basis.vectors, u_tilde, u_last, features)
    W = predictor.ogd.point.reshape(len(features), *predictor.M0.shape)
    return y_prev + _increment(W, features)


def _spectral_learn(
    point: np.ndarray,
    y_prev: np.ndarray,
    y_true: np.ndarray,
    features: np.ndarray,
    grad: np.ndarray,
) -> tuple:
    """Prediction and squared-error gradient of the difference-form
    predictor on already coerced inputs, for the OGD step the caller takes.

    ``features`` (h + 1, d_u) is what :func:`_features` gives, and ``grad``
    (h + 1, d_y, d_u) scratch that receives the gradient, which is twice
    the error times each feature; the OGD point, read in that shape, is the
    coefficient stack ``W = [M0, M]``.
    Returns ``(y_hat, error)``, with ``y_hat = y_prev + increment`` and the
    error ``increment - (y_true - y_prev)``: taken from the increment, the
    error carries the rounding of the increment and of the observed change,
    not that of ``y``, which may be far larger.
    """
    increment = _increment(point.reshape(grad.shape), features)
    error = increment - (y_true - y_prev)
    np.multiply((2.0 * error)[:, None], features[:, None, :], out=grad)
    return y_prev + increment, error


def _scratch(predictor: SpectralPredictor) -> tuple:
    """Empty ``(features, grad)`` buffers for :func:`_spectral_learn`."""
    h, d_y, d_u = predictor.M.shape
    return np.empty((h + 1, d_u)), np.empty((h + 1, d_y, d_u))


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
    u_tilde, y_prev, u_last = _spectral_inputs(predictor, u_tilde, y_prev, u_prev)
    y_true = _finite_vector(y_true, len(y_prev), "y_true")
    features, grad = _scratch(predictor)
    features = _features(predictor.basis.vectors, u_tilde, u_last, features)
    y_hat, _ = _spectral_learn(predictor.ogd.point, y_prev, y_true, features, grad)
    ogd = _ogd_step(predictor.ogd, grad.reshape(-1))[0]
    return y_hat, _predictor(predictor.basis, ogd, grad.shape)


class OnlineSpectralFilter:
    """Stateful wrapper that maintains the padded input history and steps
    the spectral predictor online.

    The difference form predicts the increment on top of the previous
    *observed* output (available before each prediction in the online
    protocol); feeding the predictor's own previous output instead would
    integrate its errors into an uncorrectable drift.  Call :meth:`step`
    once per round with the input just played and the observation it
    produced, or :meth:`run` once on a whole record.

    The history lives in a ring buffer of ``2T`` rows: each input is written
    at ``pos`` and ``pos + T`` while ``pos`` moves down modulo ``T``, so the
    reversed, zero-padded history is always the contiguous view
    ``buf[pos:pos + T]`` and a step copies one row instead of ``T``.  The
    coefficients are read from the OGD point, the features and gradient are
    written into preallocated scratch, and the OGD step writes the new
    point into a spare buffer, which then swaps with the point, so a step
    makes a fixed set of numpy calls with the same arithmetic as
    :func:`learn_spectral_step`.  The filter starts from a copy of the
    predictor's point and builds an ``OGDState`` only when
    :attr:`predictor` is read.
    """

    def __init__(self, predictor: SpectralPredictor, d_u: int):
        self.d_u = _whole(d_u, 1, "d_u")
        if self.d_u != predictor.M0.shape[1]:
            raise ConfigurationError(
                f"d_u = {self.d_u}, but the predictor takes {predictor.M0.shape[1]} inputs"
            )
        self._basis, self._ogd = predictor.basis, predictor.ogd
        self._t, self._grad_sum = predictor.ogd.t, predictor.ogd.grad_norm_sq_sum
        self._point, self._spare = predictor.ogd.point.copy(), np.empty(predictor.ogd.point.shape)
        self._features, self._grad = _scratch(predictor)
        self._grad_flat = self._grad.reshape(-1)
        self._buf = np.zeros((2 * predictor.basis.T, self.d_u))
        self._pos = 0
        self._y_prev = np.zeros(predictor.M0.shape[0])
        self.losses: list = []

    @property
    def predictor(self) -> SpectralPredictor:
        """The predictor as it stands after the last step: a snapshot, whose
        ``M0``, ``M`` and ``ogd.point`` share a copy of the filter's point."""
        ogd = self._ogd._successor(self._point.copy(), self._t, self._grad_sum)
        return _predictor(self._basis, ogd, self._grad.shape)

    def step(self, u_prev: object, y_true: object) -> np.ndarray:
        """Predict ``y_t`` from the inputs up to ``u_{t-1}`` and the
        previous observation, then learn from the realized ``y_t``.

        Raises
        ------
        ConfigurationError
            If ``u_prev`` or ``y_true`` is not a finite vector of the
            filter's width; the filter is then left as it was.
        """
        u_prev = _finite_vector(u_prev, self.d_u, "u_prev")
        y_true = _finite_vector(y_true, len(self._y_prev), "y_true")
        T = self._buf.shape[0] // 2
        pos = self._pos = (self._pos - 1) % T
        self._buf[pos] = self._buf[pos + T] = u_prev
        _features(self._basis.vectors, self._buf[pos : pos + T], u_prev, self._features)
        return self._learn(self._features, y_true)

    def run(self, U: object, Y: object) -> np.ndarray:
        """:meth:`step` on each row of the inputs ``U`` (n, d_u) and the
        observations ``Y`` (n, d_y) in turn; returns the (n, d_y)
        predictions.

        The filter outputs ``phi_j' u_tilde_t`` do not depend on the learned
        coefficients, so all n of them come from one causal convolution of
        the held history and ``U`` with the ``h`` filters, by real FFTs,
        before the loop, which then steps only the prediction, the gradient
        and the OGD step.  They match :meth:`step`'s to rounding: the sums
        are taken in another order.  Memory is O((n + T) h d_u).

        Raises
        ------
        ConfigurationError
            If ``U`` or ``Y`` is not a finite matrix of the filter's widths,
            or they have different numbers of rows.
        """
        U = _as_matrix(U, "U", (None, self.d_u))
        Y = _as_matrix(Y, "Y", (len(U), len(self._y_prev)))
        n, T = len(U), self._buf.shape[0] // 2
        vectors = self._basis.vectors
        # The T inputs held before U, oldest first (zeros where none is held),
        # then U; output t reads T + t, T + t - 1, ..., t + 1 of them.
        inputs = np.concatenate((self._buf[self._pos : self._pos + T][::-1], U))
        length = _fft_length(n + T)
        spectrum = np.fft.rfft(vectors, n=length, axis=1)[:, :, None]
        spectrum = spectrum * np.fft.rfft(inputs, n=length, axis=0)
        outputs = np.fft.irfft(spectrum, n=length, axis=1)[:, T : T + n]
        features = np.empty((n, len(vectors) + 1, self.d_u))
        features[:, 0] = U
        features[:, 1:] = outputs.transpose(1, 0, 2)
        predictions = np.empty_like(Y)
        for t in range(n):
            predictions[t] = self._learn(features[t], Y[t])
        # The ring buffer as n calls of step would leave it.
        kept = np.arange(max(n - T, 0), n)
        rows = (self._pos - 1 - kept) % T
        self._buf[rows] = self._buf[rows + T] = U[kept]
        self._pos = (self._pos - n) % T
        return predictions

    def _learn(self, features: np.ndarray, y_true: np.ndarray) -> np.ndarray:
        """Predict from ``features``, learn from ``y_true`` and record the loss."""
        y_hat, error = _spectral_learn(self._point, self._y_prev, y_true, features, self._grad)
        ogd = self._ogd
        self._t, self._grad_sum = _ogd_kernel(
            self._point, self._grad_flat, 1.0, self._spare, self._t, self._grad_sum,
            ogd.schedule, ogd.step_scale, ogd.radius)[:2]
        self._point, self._spare = self._spare, self._point
        self._y_prev = y_true
        self.losses.append(float(np.add.reduce(error * error)))
        return y_hat
