"""Optimal-control baselines: finite-horizon LQR and the infinite-horizon
discrete-time algebraic Riccati equation (DARE), solved by value iteration.

Both iterate one Riccati step, :func:`_riccati_step`, in gain (Joseph)
form; :mod:`nscontrol.filtering` runs the same step on the transposed data
for the Kalman covariance.

Gain convention: the *signed* gain is stored, so the control law is
``u = K x`` and the closed-loop matrix is ``A + B K``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .lds_core import _all_finite, _as_matrix, _check_psd, _whole, spectral_radius

__all__ = ["LQRSolution", "DARESolution", "lqr_finite", "dare_solve"]

MatrixOrProvider = Union[object, Callable[[int], object]]


def _provider(M: MatrixOrProvider, name: str, shape: object = None) -> Callable[[int], np.ndarray]:
    """Wrap a constant matrix (or pass through a callable) as ``t -> M_t``,
    each checked by :func:`_as_matrix` against ``shape``."""
    if callable(M):
        return lambda t: _as_matrix(M(t), f"{name}_{t}", shape)
    fixed = _as_matrix(M, name, shape)
    return lambda t: fixed


def _riccati_step(
    A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray, S: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One step of the Riccati map in gain (Joseph) form, ``(K, S_next)``::

        (R + B'SB) K = -B'SA        (minimum-norm least-squares solution)
        S_next = Q + K'RK + (A + BK)' S (A + BK)     (symmetrised)

    For PSD ``Q``, ``R`` and ``S``, ``S_next`` is a sum of congruences of PSD
    matrices, so it stays PSD up to rounding whatever the rank of ``R +
    B'SB``.  Both outputs are NaN when ``R + B'SB`` is not finite, so a
    caller's finiteness check on ``S_next`` sees the divergence.
    """
    SB = S @ B
    G = R + B.T @ SB
    if not _all_finite(G):
        return np.full((B.shape[1], A.shape[1]), np.nan), np.full_like(S, np.nan)
    K = -np.linalg.lstsq(G, SB.T @ A, rcond=None)[0]
    closed = A + B @ K
    S_next = Q + K.T @ R @ K + closed.T @ S @ closed
    # Halves first: the sum of two finite entries above ~9e307 overflows.
    return K, 0.5 * S_next + 0.5 * S_next.T


@dataclass
class LQRSolution:
    """Finite-horizon LQR backward-recursion output.

    Arrays are indexed by step ``t = 0..T-1``:  ``S[t]`` is the quadratic
    value matrix, ``K[t]`` the signed gain (``u_t = K[t] x_t``), ``c[t]``
    the scalar value offset accumulating the noise floor.  The terminal
    entries satisfy ``S[T-1] = Q_{T-1}``, ``K[T-1] = 0``, ``c[T-1] = 0``.
    """

    S: np.ndarray
    K: np.ndarray
    c: np.ndarray
    sigma2: float

    @property
    def horizon(self) -> int:
        return self.S.shape[0]

    def gain(self, t: int) -> np.ndarray:
        """Signed gain at step t."""
        return self.K[t]


@dataclass
class DARESolution:
    """Fixed point of the DARE with its signed gain and convergence stats."""

    S: np.ndarray
    K: np.ndarray
    iterations: int
    residual: float


def lqr_finite(
    A: MatrixOrProvider,
    B: MatrixOrProvider,
    Q: MatrixOrProvider,
    R: MatrixOrProvider,
    T: int,
    sigma2: float = 0.0,
) -> LQRSolution:
    """Finite-horizon LQR by backward recursion.

    Parameters
    ----------
    A, B, Q, R : matrix or callable
        System and cost matrices; callables ``t -> matrix`` give the
        time-varying problem.
    T : int
        Horizon (number of steps).
    sigma2 : float
        Per-coordinate noise variance entering the value offset via
        ``c_{t-1} = c_t + sigma2 * trace(S_t)``.

    Returns
    -------
    LQRSolution

    Notes
    -----
    From the terminal condition ``S_{T-1} = Q_{T-1}``, each step is
    :func:`_riccati_step` on ``(A, B, Q, R)`` at ``t - 1``::

        (R + B' S_t B) K_{t-1} = -B' S_t A
        S_{t-1} = Q + K'RK + (A + BK)' S_t (A + BK)

    with the signed gain so that ``u = Kx``.

    Raises
    ------
    EvaluationError
        If a value matrix becomes non-finite.
    """
    T = _whole(T, 1, "horizon T")
    d_x = len(_provider(A, "A", "square")(0))
    A_of = _provider(A, "A", (d_x, d_x))
    B_of = _provider(B, "B", (d_x, None))
    d_u = B_of(0).shape[1]
    Q_of = _provider(Q, "Q", (d_x, d_x))
    R_of = _provider(R, "R", (d_u, d_u))
    _check_psd(R_of(T - 1), "R")

    S = np.zeros((T, d_x, d_x))
    K = np.zeros((T, d_u, d_x))
    c = np.zeros(T)
    S[T - 1] = _check_psd(Q_of(T - 1), "Q")
    for t in range(T - 1, 0, -1):
        Q_t, R_t = _check_psd(Q_of(t - 1), "Q"), _check_psd(R_of(t - 1), "R")
        with np.errstate(over="ignore", invalid="ignore"):
            K[t - 1], S[t - 1] = _riccati_step(A_of(t - 1), B_of(t - 1), Q_t, R_t, S[t])
        if not np.isfinite(S[t - 1]).all():
            raise EvaluationError(f"LQR value matrix became non-finite at step {t - 1}")
        c[t - 1] = c[t] + sigma2 * float(np.trace(S[t]))
    return LQRSolution(S=S, K=K, c=c, sigma2=float(sigma2))


def dare_solve(
    A: object,
    B: object,
    Q: object,
    R: object,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> DARESolution:
    """Solve the DARE by value iteration from ``S_0 = Q``.

    Iterates :func:`_riccati_step`, ``(R + B'SB) K = -B'SA`` and ``S <- Q +
    K'RK + (A + BK)'S(A + BK)``, until the Frobenius residual between
    successive iterates is at most ``tol``, then returns the fixed point with
    its signed gain, from one more step.

    Raises
    ------
    EvaluationError
        If ``max_iter`` iterations do not reach the tolerance, or as soon as
        an iterate or the residual is non-finite (the iteration diverged).
    ConfigurationError
        If the iteration converges to a fixed point whose closed loop ``A +
        BK`` is not stable, which is then not the stabilizing solution.
    """
    A = _as_matrix(A, "A", "square")
    B = _as_matrix(B, "B", (len(A), None))
    Q = _check_psd(Q, "Q", A.shape)
    R = _check_psd(R, "R", (B.shape[1], B.shape[1]))

    S = Q
    residual = np.inf
    for iteration in range(1, max_iter + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            S_next = _riccati_step(A, B, Q, R, S)[1]
            residual = float(np.linalg.norm(S_next - S))
        if not (math.isfinite(residual) and np.all(np.isfinite(S_next))):
            raise EvaluationError(
                f"DARE value iteration diverged at iteration {iteration}; "
                "(A, B) does not appear stabilizable"
            )
        S = S_next
        if residual <= tol:
            K = _riccati_step(A, B, Q, R, S)[0]
            rho = spectral_radius(A + B @ K)
            if rho >= 1.0:
                raise ConfigurationError(
                    "DARE value iteration converged to a fixed point that is not "
                    f"stabilizing: the closed loop A + BK has spectral radius {rho:.6g}"
                )
            return DARESolution(S=S, K=K, iterations=iteration, residual=residual)
    raise EvaluationError(
        f"DARE value iteration did not converge in {max_iter} iterations "
        f"(last residual {residual:.3e})"
    )
