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

import io
import os
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .lds_core import (
    TOL_PSD, _all_finite, _as_matrix, _as_vector, _check_psd, _finite_vector, _whole,
)
from .online_control import OGDState, _ogd_step
from .optimal_control import _riccati_step, dare_solve
from .serialize import _atomic_write_text

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


def _same(M: object, copy: np.ndarray) -> bool:
    """Whether ``M``, as a float array, has the shape and bytes of ``copy``."""
    M = np.asarray(M, dtype=float)
    return M.shape == copy.shape and M.tobytes() == copy.tobytes()


#: Most entries of one chain's Riccati memo (see :func:`kalman_step`), and
#: the bytes of arrays its entries may take together.
_MEMO_CAP = 256
_MEMO_BYTES = 8 << 20


def _validated_noise(state: KalmanState, Sigma_x: object, Sigma_y: object) -> tuple:
    """``(raw Sigma_x, raw Sigma_y, symmetrised Sigma_x, symmetrised Sigma_y,
    memo)``.

    Reuses the validated pair and the Riccati memo carried by ``state`` when
    both inputs have the shape and bytes of the copies it holds; otherwise
    checks both with :func:`_check_psd`, keeps private copies of the raw
    inputs, so an in-place change between calls is seen, and starts an empty
    memo.
    """
    noise = getattr(state, "_noise", None)
    if noise is not None and _same(Sigma_x, noise[0]) and _same(Sigma_y, noise[1]):
        return noise
    raw_x = np.array(Sigma_x, dtype=float)
    raw_y = np.array(Sigma_y, dtype=float)
    Sigma_x = _check_psd(raw_x, "Sigma_x", state.Sigma.shape)
    return raw_x, raw_y, Sigma_x, _check_psd(raw_y, "Sigma_y"), {}


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

    ``Sigma_x`` and ``Sigma_y`` must be symmetric PSD.  They are validated
    on first use and whenever their content differs from the pair the
    incoming state was stepped with: the returned state carries private
    copies of the validated pair, so a chain of calls with unchanged
    covariances checks them once, while a user-built state or an in-place
    change is checked again.  The new covariance ``Sigma'`` gets its
    finiteness and PSD check on every step.

    The covariance update is a pure function of ``(A, C, Sigma_x, Sigma_y,
    Sigma)``, and in floating point a chain of it soon repeats bitwise (a
    fixed point or a short cycle).  Next to the validated noise pair, the
    returned state therefore carries a memo from the shapes and bytes of
    ``(A, C, Sigma)`` to the ``(L, A - L C, Sigma')`` they gave, which a
    later step with the same content reuses instead of redoing the Riccati
    step.  A changed noise pair or a user-built state starts an empty memo;
    a time-varying or in-place-mutated ``A``, ``C`` or ``Sigma`` misses,
    since the key is content.  The memo holds at most 256 entries, and
    fewer for large matrices, so that its arrays stay within about 8 MiB;
    it drops the oldest first.

    A miss runs every check.  A hit skips the ones whose verdict is already
    known: an entry is stored only after its ``A`` and ``C`` passed the
    shape and finiteness checks and its ``Sigma'`` passed the finiteness and
    PSD checks, and a hit has the same shapes and bytes, so those checks
    would pass again.  The noise pair is still compared with its validated
    copies on every step, ``u`` and ``y`` are still checked, and each
    returned ``Sigma`` is a fresh array, so changing it in place cannot
    reach the memo.

    Raises
    ------
    ConfigurationError
        If a matrix or vector does not fit the state's dimension, a noise
        covariance is not symmetric PSD, ``u`` or ``y`` has a non-finite
        entry, or the new covariance is non-finite or not PSD.
    """
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)
    noise = _validated_noise(state, Sigma_x, Sigma_y)
    memo, Sigma = noise[4], state.Sigma
    key = (A.shape, C.shape, Sigma.shape, A.tobytes(), C.tobytes(), Sigma.tobytes())
    hit = memo.get(key)
    if hit is None:
        _as_matrix(A, "A", Sigma.shape)
        _as_matrix(C, "C", (len(noise[3]), len(A)))
        # An overflow leaves a non-finite Sigma_next, rejected below.
        with np.errstate(over="ignore", invalid="ignore"):
            K, Sigma_next = _riccati_step(A.T, C.T, noise[2], noise[3], Sigma)
        L = -K.T
        closed = A - L @ C
    else:
        L, closed, Sigma_next = hit
        Sigma_next = Sigma_next.copy()
    x_hat = closed @ state.x_hat
    if B is not None and u is not None:
        B = _as_matrix(B, "B", (len(x_hat), None))
        x_hat = x_hat + B @ _finite_vector(u, B.shape[1], "u")
    if y is not None:
        x_hat = x_hat + L @ _finite_vector(y, C.shape[0], "y")
    if hit is None:
        # Sigma_next is symmetric by construction, so only finiteness and
        # the PSD property are checked; KalmanState.__post_init__ is
        # bypassed.
        if not _all_finite(Sigma_next):
            raise ConfigurationError("Sigma contains non-finite entries")
        if float(np.linalg.eigvalsh(Sigma_next).min()) < -TOL_PSD:
            raise ConfigurationError("Sigma must be positive semidefinite")
        # The key's A, C and Sigma, and the stored L, A - L C and Sigma'.
        size = 2 * A.nbytes + C.nbytes + L.nbytes + 2 * Sigma.nbytes
        limit = min(_MEMO_CAP, _MEMO_BYTES // size)
        while memo and len(memo) >= limit:
            del memo[next(iter(memo))]
        if limit:
            memo[key] = (L, closed, Sigma_next.copy())
    out = object.__new__(KalmanState)
    object.__setattr__(out, "x_hat", x_hat)
    object.__setattr__(out, "Sigma", Sigma_next)
    object.__setattr__(out, "_noise", noise)
    return out


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
    us = _window(u_history, predictor.k, predictor.M2.shape[2] if predictor.k else 0, "u_history")
    y_hat = np.zeros(predictor.M1.shape[1])
    if predictor.h:
        y_hat += np.einsum("iab,ib->a", predictor.M1, ys)
    if predictor.k:
        y_hat += np.einsum("iab,ib->a", predictor.M2, us)
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
    T = _whole(T, 2, "build_Z's T")
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


def save_basis(basis: SpectralBasis, path: str) -> None:
    """Write a basis as plain text: header ``T h``, one line of
    eigenvalues, then one line per eigenvector, all at 17 significant
    digits (lossless for double precision).  The file is replaced
    atomically, so an interrupted write leaves no truncated basis behind."""
    text = io.StringIO()
    text.write(f"{basis.T} {basis.h}\n")
    np.savetxt(text, basis.eigenvalues[None], fmt="%.17g", delimiter=" ")
    np.savetxt(text, basis.vectors, fmt="%.17g", delimiter=" ")
    _atomic_write_text(path, text.getvalue())


def load_basis(path: str) -> SpectralBasis:
    """Inverse of :func:`save_basis`; raises ConfigurationError if the file
    is not a whole basis (malformed, non-finite, or cut short)."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    try:
        T, h = (int(v) for v in lines[0].split())
        eigenvalues = np.array([float(v) for v in lines[1].split()])
        vectors = np.array([[float(v) for v in line.split()] for line in lines[2 : 2 + h]])
    except (ValueError, IndexError) as exc:  # ValueError also for a ragged row
        raise ConfigurationError(f"basis file {path!r} is malformed: {exc}") from exc
    if (len(lines) != h + 3 or lines[-1] or eigenvalues.shape != (h,)
            or vectors.shape != (h, T)
            or not (np.isfinite(eigenvalues).all() and np.isfinite(vectors).all())):
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
        schedule: str = "sqrt",
    ) -> "SpectralPredictor":
        d_y, d_u = _whole(d_y, 1, "d_y"), _whole(d_u, 1, "d_u")
        M0 = np.zeros((d_y, d_u))
        M = np.zeros((basis.h, d_y, d_u))
        ogd = OGDState(
            point=np.concatenate([M0.ravel(), M.ravel()]),
            radius=kappa,
            step_scale=step_scale,
            schedule=schedule,
        )
        return cls(basis=basis, M0=M0, M=M, ogd=ogd)


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


def _predict(
    vectors: np.ndarray,
    M0: np.ndarray,
    M: np.ndarray,
    u_tilde: np.ndarray,
    y_prev: np.ndarray,
    u_last: np.ndarray,
    features: np.ndarray,
) -> np.ndarray:
    """Difference-form prediction on already coerced inputs.

    ``features`` (h + 1, d_u) receives ``u_last`` and the filter outputs
    ``vectors u_tilde``.  The filter part is one product of ``M``, laid out
    as a (d_y, h d_u) matrix, with the flat filter outputs.  ``M0 u_last``
    is added to ``y_prev`` before it: the output may be far larger than its
    increment, and this keeps its rounding that of ``y_prev + M0 u_last +
    sum_j M_j (phi_j' u_tilde)`` summed left to right.
    """
    features[0] = u_last
    projections = features[1:]
    vectors.dot(u_tilde, out=projections)
    filtered = M.transpose(1, 0, 2).reshape(M.shape[1], -1).dot(projections.reshape(-1))
    return y_prev + M0.dot(u_last) + filtered


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
    return _predict(
        predictor.basis.vectors, predictor.M0, predictor.M, u_tilde, y_prev, u_last, features
    )


def _spectral_learn(
    vectors: np.ndarray,
    M0: np.ndarray,
    M: np.ndarray,
    ogd: OGDState,
    u_tilde: np.ndarray,
    y_prev: np.ndarray,
    u_last: np.ndarray,
    y_true: np.ndarray,
    features: np.ndarray,
    grad: np.ndarray,
) -> tuple:
    """Prediction, squared-error gradient and projected OGD step of the
    difference-form predictor on already coerced inputs.

    ``features`` (h + 1, d_u) and ``grad`` (h + 1, d_y, d_u) are scratch:
    ``features`` receives what :func:`_predict` writes, and ``grad`` the
    gradient, which is ``2 (y_hat - y_true)`` times each feature in the
    OGD point's ``[M0, M]`` order.  Returns ``(y_hat, y_hat - y_true, ogd)``.
    """
    y_hat = _predict(vectors, M0, M, u_tilde, y_prev, u_last, features)
    error = y_hat - y_true
    np.multiply((2.0 * error)[:, None], features[:, None, :], out=grad)
    return y_hat, error, _ogd_step(ogd, grad.reshape(-1))[0]


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
    y_hat, _, ogd = _spectral_learn(
        predictor.basis.vectors, predictor.M0, predictor.M, predictor.ogd, u_tilde, y_prev,
        u_last, y_true, features, grad,
    )
    W = ogd.point.reshape(grad.shape)
    return y_hat, SpectralPredictor(basis=predictor.basis, M0=W[0], M=W[1:], ogd=ogd)


class OnlineSpectralFilter:
    """Stateful wrapper that maintains the padded input history and steps
    the spectral predictor online.

    The difference form predicts the increment on top of the previous
    *observed* output (available before each prediction in the online
    protocol); feeding the predictor's own previous output instead would
    integrate its errors into an uncorrectable drift.  Call :meth:`step`
    once per round with the input just played and the observation it
    produced.

    The history lives in a ring buffer of ``2T`` rows: each input is written
    at ``pos`` and ``pos + T`` while ``pos`` moves down modulo ``T``, so the
    reversed, zero-padded history is always the contiguous view
    ``buf[pos:pos + T]`` and a step copies one row instead of ``T``.  The
    coefficients are views of the OGD point and the features and gradient
    are written into preallocated scratch, so a step makes a fixed set of
    numpy calls with the same arithmetic as :func:`learn_spectral_step`.
    """

    def __init__(self, predictor: SpectralPredictor, d_u: int):
        self.d_u = _whole(d_u, 1, "d_u")
        if self.d_u != predictor.M0.shape[1]:
            raise ConfigurationError(
                f"d_u = {self.d_u}, but the predictor takes {predictor.M0.shape[1]} inputs"
            )
        self._basis = predictor.basis
        self._M0, self._M, self._ogd = predictor.M0, predictor.M, predictor.ogd
        self._features, self._grad = _scratch(predictor)
        self._buf = np.zeros((2 * predictor.basis.T, self.d_u))
        self._pos = 0
        self._y_prev = np.zeros(predictor.M0.shape[0])
        self.losses: list = []

    @property
    def predictor(self) -> SpectralPredictor:
        """The predictor as it stands after the last step."""
        return SpectralPredictor(basis=self._basis, M0=self._M0, M=self._M, ogd=self._ogd)

    def step(self, u_prev: object, y_true: object) -> np.ndarray:
        """Predict ``y_t`` from the inputs up to ``u_{t-1}`` and the
        previous observation, then learn from the realized ``y_t``."""
        u_prev = _as_vector(u_prev, self.d_u, "u_prev")
        y_true = _as_vector(y_true, len(self._y_prev), "y_true")
        T = self._buf.shape[0] // 2
        pos = self._pos = (self._pos - 1) % T
        self._buf[pos] = self._buf[pos + T] = u_prev
        y_hat, error, self._ogd = _spectral_learn(
            self._basis.vectors, self._M0, self._M, self._ogd, self._buf[pos : pos + T],
            self._y_prev, u_prev, y_true, self._features, self._grad,
        )
        W = self._ogd.point.reshape(self._grad.shape)
        self._M0, self._M = W[0], W[1:]
        self._y_prev = y_true
        self.losses.append(float(np.add.reduce(error * error)))
        return y_hat
