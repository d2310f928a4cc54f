"""Optimal-control baselines: finite-horizon LQR and the infinite-horizon
discrete-time algebraic Riccati equation (DARE), solved by value iteration.

Gain convention: the *signed* gain is stored, so the control law is
``u = K x`` and the closed-loop matrix is ``A + B K``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigurationError, EvaluationError
from .lds_core import TOL_PSD, _as_matrix, spectral_radius

__all__ = ["LQRSolution", "DARESolution", "lqr_finite", "dare_solve"]

MatrixOrProvider = Union[object, Callable[[int], object]]


def _provider(M: MatrixOrProvider, name: str) -> Callable[[int], np.ndarray]:
    """Wrap a constant matrix (or pass through a callable) as ``t -> M_t``."""
    if callable(M):
        return lambda t: _as_matrix(M(t), f"{name}_{t}")
    fixed = _as_matrix(M, name)
    return lambda t: fixed


def _check_psd(M: np.ndarray, name: str) -> None:
    if np.max(np.abs(M - M.T)) > 1e-9 * max(1.0, np.max(np.abs(M))):
        raise ConfigurationError(f"{name} must be symmetric")
    if np.linalg.eigvalsh((M + M.T) / 2.0).min() < -TOL_PSD:
        raise ConfigurationError(f"{name} must be positive semidefinite")


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


def _riccati_gain(A: np.ndarray, B: np.ndarray, R: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Signed gain ``K = -(R + B'SB)^+ B'SA`` (pseudo-inverse)."""
    return -np.linalg.pinv(R + B.T @ S @ B) @ (B.T @ S @ A)


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
    The recursion from the terminal condition ``S_{T-1} = Q_{T-1}`` is::

        K_{t-1} = -(R + B' S_t B)^+ B' S_t A
        S_{t-1} = Q + K'RK + (A + BK)' S_t (A + BK)

    with the signed gain so that ``u = Kx``.
    """
    if T < 1:
        raise ConfigurationError("horizon T must be at least 1")
    A_of = _provider(A, "A")
    B_of = _provider(B, "B")
    Q_of = _provider(Q, "Q")
    R_of = _provider(R, "R")

    d_x = A_of(0).shape[0]
    d_u = B_of(0).shape[1]
    Q_T = Q_of(T - 1)
    _check_psd(Q_T, "Q")
    _check_psd(R_of(T - 1), "R")

    S = np.zeros((T, d_x, d_x))
    K = np.zeros((T, d_u, d_x))
    c = np.zeros(T)
    S[T - 1] = Q_T
    for t in range(T - 1, 0, -1):
        A_t, B_t = A_of(t - 1), B_of(t - 1)
        Q_t, R_t = Q_of(t - 1), R_of(t - 1)
        _check_psd(Q_t, "Q")
        _check_psd(R_t, "R")
        gain = _riccati_gain(A_t, B_t, R_t, S[t])
        closed = A_t + B_t @ gain
        S_new = Q_t + gain.T @ R_t @ gain + closed.T @ S[t] @ closed
        S[t - 1] = (S_new + S_new.T) / 2.0
        K[t - 1] = gain
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

    Iterates ``S <- Q + A'SA - A'SB (R + B'SB)^+ B'SA`` until the
    Frobenius residual between successive iterates is at most ``tol``,
    then returns the fixed point with its signed gain
    ``K = -(R + B'SB)^+ B'SA``.

    Raises
    ------
    EvaluationError
        If ``max_iter`` iterations do not reach the tolerance, or as soon as
        an iterate or the residual is non-finite (the iteration diverged).
    ConfigurationError
        If the converged closed loop ``A + BK`` is not stable (the
        stabilizability precondition fails).
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    Q = _as_matrix(Q, "Q")
    R = _as_matrix(R, "R")
    _check_psd(Q, "Q")
    _check_psd(R, "R")

    S = Q.copy()
    residual = np.inf
    for iteration in range(1, max_iter + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            BtSB = R + B.T @ S @ B
            if not np.all(np.isfinite(BtSB)):
                raise EvaluationError(
                    f"DARE value iteration diverged at iteration {iteration}; "
                    "(A, B) does not appear stabilizable"
                )
            correction = A.T @ S @ B @ np.linalg.pinv(BtSB) @ B.T @ S @ A
            S_next = Q + A.T @ S @ A - correction
            S_next = (S_next + S_next.T) / 2.0
            residual = float(np.linalg.norm(S_next - S))
        if not (math.isfinite(residual) and np.all(np.isfinite(S_next))):
            raise EvaluationError(
                f"DARE value iteration diverged at iteration {iteration}; "
                "(A, B) does not appear stabilizable"
            )
        S = S_next
        if residual <= tol:
            K = _riccati_gain(A, B, R, S)
            if spectral_radius(A + B @ K) >= 1.0:
                raise ConfigurationError(
                    "DARE converged but the closed loop is unstable; "
                    "(A, B) does not appear stabilizable"
                )
            return DARESolution(S=S, K=K, iterations=iteration, residual=residual)
    raise EvaluationError(
        f"DARE value iteration did not converge in {max_iter} iterations "
        f"(last residual {residual:.3e})"
    )
