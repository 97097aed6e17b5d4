"""Dense float64 matrix utilities shared by every other module.

All functions operate on 2-D ``numpy`` arrays of dtype float64 stored
row-major.  Vectorization is column-stacking (Fortran order) regardless of
storage, so the usual identity ``np.kron(I_n, B) @ vec(X) == vec(B @ X)``
holds.  Failures of symmetric factorizations are reported explicitly and
never papered over with silent regularization.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

__all__ = [
    "ShapeError",
    "NotPositiveDefiniteError",
    "vec",
    "logdet_psd",
    "solve_psd",
]


class ShapeError(ValueError):
    """Operands have incompatible or invalid dimensions."""


class NotPositiveDefiniteError(ValueError):
    """A symmetric factorization failed: the matrix is not positive definite."""


def _check_2d(name: str, a: np.ndarray) -> None:
    if not isinstance(a, np.ndarray) or a.ndim != 2:
        raise ShapeError(f"{name} must be a 2-D array")


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization: ``vec(a)[i + rows*j] == a[i, j]``."""
    _check_2d("a", a)
    return a.reshape(-1, 1, order="F")


def _check_symmetric(a: np.ndarray) -> None:
    _check_2d("a", a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got {a.shape}")
    if not np.allclose(a, a.T, rtol=1e-10, atol=1e-12):
        raise ValueError("matrix is not symmetric")


def logdet_psd(a: np.ndarray) -> float:
    """Log-determinant of a symmetric positive definite matrix.

    Computed from a Cholesky factor; raises
    :class:`NotPositiveDefiniteError` instead of regularizing.
    """
    _check_symmetric(a)
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "Cholesky factorization failed: matrix is not positive definite"
        ) from exc
    return float(2.0 * np.sum(np.log(np.diag(chol))))


def solve_psd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive definite ``a``."""
    _check_symmetric(a)
    if b.shape[0] != a.shape[0]:
        raise ShapeError(f"solve_psd shape mismatch: {a.shape} vs {b.shape}")
    try:
        factor = cho_factor(a, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "Cholesky factorization failed: matrix is not positive definite"
        ) from exc
    return cho_solve(factor, b, check_finite=False)
