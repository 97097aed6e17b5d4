"""KL-divergence machinery for the low-rank Gaussian posterior.

Two routes to the same quantity live here, deliberately redundant:

1. ``kl_closed_form`` - the analytical KL between the factorized posterior
   q(a) = prod N(mean_a_ij, omega_ij^2) and the isotropic prior
   prod N(0, sigma_p^2), evaluated in the low-rank space by
   ``gaussian_kl``, the one closed form with its gradients, which training's
   ``network.kl_term`` calls too, over every adapter's factor at once.
2. The full-weight route: ``build_full_posterior`` / ``build_full_prior``
   build the induced Gaussians over vec(w), both singular.  vec stacks the
   columns of the (m, n) weight, and the columns are independent, so each
   covariance is block diagonal and is held as its n (m x m) blocks:
   block i of Sigma_q is b diag(omega[:, i]^2) b^T, and every block of
   Sigma_p is sigma_p^2 R R^T.  ``kl_full_weight_regularized`` adds an
   explicit ridge lambda to both covariances and sums the n m-dimensional
   Gaussian KLs of the columns as one stacked computation.  As
   lambda -> 0+ this converges to the closed form, which is exactly the
   equivalence the test suite verifies numerically.

Both take the std omega = map(g) as an array, so neither assumes a ``ParamMap``.
The closed form is returned as a genuine KL, i.e. including the additive
constant r*n*(log sigma_p - 1/2) that has zero gradient.

The full-weight route's helpers live here too: column-stacking ``vec``,
and ``logdet_psd``/``solve_psd`` on one matrix or a stack of them, both on
one NumPy Cholesky helper that checks symmetry and raises
``NotPositiveDefiniteError`` rather than regularize a failed factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adapter import ShapeError, VariationalAdapter

__all__ = [
    "NotPositiveDefiniteError",
    "vec",
    "logdet_psd",
    "solve_psd",
    "PriorSpec",
    "FullWeightGaussian",
    "gaussian_kl",
    "kl_closed_form",
    "build_full_posterior",
    "build_full_prior",
    "kl_full_weight_regularized",
]

# Largest full-weight dimension (m*n) the oracle builds: the moment check
# materializes the dense (mn x mn) covariance.
FULL_WEIGHT_GUARD = 4096


class NotPositiveDefiniteError(ValueError):
    """A symmetric factorization failed: the matrix is not positive definite."""


def _check_2d(name: str, a: np.ndarray) -> None:
    if not isinstance(a, np.ndarray) or a.ndim != 2:
        raise ShapeError(f"{name} must be a 2-D array")


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization: ``vec(a)[i + rows*j] == a[i, j]``, so
    ``np.kron(I_n, B) @ vec(X) == vec(B @ X)`` whatever the storage order."""
    _check_2d("a", a)
    return a.reshape(-1, 1, order="F")


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix, or of
    each matrix in a stack ``(..., d, d)``; raises
    :class:`NotPositiveDefiniteError` instead of regularizing."""
    if not isinstance(a, np.ndarray) or a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ShapeError(f"expected a square matrix or a stack of them, got {np.shape(a)}")
    if not np.allclose(a, a.swapaxes(-1, -2), rtol=1e-10, atol=1e-12):
        raise ValueError("matrix is not symmetric")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "Cholesky factorization failed: matrix is not positive definite"
        ) from exc


def logdet_psd(a: np.ndarray) -> float | np.ndarray:
    """Log-determinant of a symmetric positive definite matrix, or one per
    matrix of a stack, from its Cholesky factor."""
    return 2.0 * np.log(np.diagonal(_cholesky(a), axis1=-2, axis2=-1)).sum(axis=-1)


def solve_psd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive definite ``a`` (or a stack,
    with ``b`` stacked alike) by two triangular solves with its Cholesky factor."""
    chol = _cholesky(a)
    if b.shape[: a.ndim - 1] != a.shape[:-1]:
        raise ShapeError(f"solve_psd shape mismatch: {a.shape} vs {b.shape}")
    return np.linalg.solve(chol.swapaxes(-1, -2), np.linalg.solve(chol, b))


@dataclass(frozen=True)
class PriorSpec:
    """Zero-mean isotropic Gaussian prior over the a-factor entries."""

    sigma_p: float

    def __post_init__(self) -> None:
        if not (self.sigma_p > 0.0):
            raise ValueError("sigma_p must be positive")


@dataclass
class FullWeightGaussian:
    """Gaussian over vec(w), w of shape (m, n), with a possibly singular
    covariance that is block diagonal: vec stacks the columns of w, so
    column i of w is independent of the others and carries block i."""

    mean: np.ndarray    # (m, n)
    blocks: np.ndarray  # (n, m, m): the covariance of column i of w is blocks[i]

    def __post_init__(self) -> None:
        _check_2d("mean", self.mean)
        m, n = self.mean.shape
        if self.blocks.shape != (n, m, m):
            raise ShapeError(f"inconsistent shapes: mean {self.mean.shape}, blocks {self.blocks.shape}")
        # PSD up to rounding: every block factors once ridged at the rounding scale.
        scale = max(1.0, float(np.abs(self.blocks).max(initial=0.0)))
        try:
            _cholesky(self.blocks + 1e-10 * scale * np.eye(m))
        except NotPositiveDefiniteError as exc:
            raise ValueError("covariance is not PSD: some block has a negative eigenvalue") from exc

    @property
    def cov(self) -> np.ndarray:
        """The dense (mn x mn) covariance of vec(w), the blocks on its diagonal."""
        m, n = self.mean.shape
        dense = np.zeros((n, m, n, m))
        dense[np.arange(n), :, np.arange(n), :] = self.blocks
        return dense.reshape(m * n, m * n)


def gaussian_kl(
    mean: np.ndarray, omega: np.ndarray, sigma_p: float, factors: list[slice] | None = None
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """KL[prod N(mean_ij, omega_ij^2) || prod N(0, sigma_p^2)] and its gradients.

    Returns (value, d value / d mean, d value / d omega) with
    value = (||mean||^2 + ||omega||^2) / (2 sigma_p^2) - sum log omega
    + count * (log sigma_p - 1/2): nonnegative, zero iff mean = 0 and
    omega = sigma_p everywhere.  Raises ValueError if some omega <= 0.

    ``factors``, column slices of the last axis, makes each slice one
    factor: the value sums each factor's reductions in order, bit for bit
    a loop of one call per factor, and keeps any leading (member) axes.
    Without it the whole array is one factor and the value a float.
    """
    if (omega <= 0.0).any():
        raise ValueError("some omega entry is <= 0: log omega undefined (infinite KL)")
    sp2 = sigma_p * sigma_p
    d_mean, d_omega = mean / sp2, omega / sp2 - 1.0 / omega
    if factors is None:
        mean, omega, factors = mean.reshape(-1), omega.reshape(-1), [slice(0, omega.size)]
    sq_mean, sq_omega, log_omega, offset = mean * mean, omega * omega, np.log(omega), np.log(sigma_p) - 0.5
    value = 0.0
    for cols in factors:
        value += (
            (np.add.reduce(sq_mean[..., cols], axis=-1) + np.add.reduce(sq_omega[..., cols], axis=-1)) / (2.0 * sp2)
            - np.add.reduce(log_omega[..., cols], axis=-1)
            + (cols.stop - cols.start) * offset
        )
    return (float(value) if np.ndim(value) == 0 else value), d_mean, d_omega


def kl_closed_form(mean_a: np.ndarray, omega: np.ndarray, prior: PriorSpec) -> float:
    """Exact KL[q(a) || p(a)] for the std ``omega``, constants included.

    Raises ValueError where some omega entry is <= 0 (infinite KL).
    """
    if mean_a.shape != omega.shape:
        raise ShapeError(f"mean_a {mean_a.shape} and omega {omega.shape} must match")
    return gaussian_kl(mean_a, omega, prior.sigma_p)[0]


def _guard_dims(m: int, n: int) -> None:
    if m * n > FULL_WEIGHT_GUARD:
        raise ValueError(f"full-weight dimension m*n = {m * n} exceeds guard {FULL_WEIGHT_GUARD}")


def build_full_posterior(adapter: VariationalAdapter, omega: np.ndarray) -> FullWeightGaussian:
    """The induced Gaussian over vec(w0 + b @ a), a of std ``omega``: block i, the
    covariance of column i, is b @ diag(omega[:, i]^2) @ b^T, all n in one stacked matmul."""
    _guard_dims(adapter.m, adapter.n)
    if omega.shape != adapter.mean_a.shape:
        raise ShapeError(f"omega must be {adapter.mean_a.shape}, got {omega.shape}")
    blocks = (adapter.b * (omega**2).T[:, None, :]) @ adapter.b.T
    # The two triangles of (b w) b^T round apart; their mean is exactly symmetric.
    blocks = 0.5 * (blocks + blocks.swapaxes(-1, -2))
    return FullWeightGaussian(mean=adapter.w0 + adapter.b @ adapter.mean_a, blocks=blocks)


def build_full_prior(
    w0: np.ndarray,
    b: np.ndarray,
    prior: PriorSpec,
    r_factor: np.ndarray | None = None,
) -> FullWeightGaussian:
    """The low-rank full-weight prior centred at vec(w0).

    Every block is sigma_p^2 R R^T with any R satisfying R R^T = b b^T; the
    canonical choice R = b is used unless ``r_factor`` overrides it (the
    induced prior, and hence the KL, must not depend on that choice).
    """
    m, n = w0.shape
    _guard_dims(m, n)
    if b.shape[0] != m:
        raise ShapeError(f"b must have {m} rows, got {b.shape}")
    factor = b if r_factor is None else r_factor
    if factor.shape[0] != m:
        raise ShapeError(f"r_factor must have {m} rows, got {factor.shape}")
    block = prior.sigma_p * prior.sigma_p * (factor @ factor.T)
    return FullWeightGaussian(mean=w0, blocks=np.broadcast_to(block, (n, m, m)))


def kl_full_weight_regularized(
    q: FullWeightGaussian,
    p: FullWeightGaussian,
    lam: float,
) -> float:
    """Gaussian KL between the lambda-ridged distributions.

    Evaluates KL[N(mu_q, Sigma_q + lam I) || N(mu_p, Sigma_p + lam I)]
    through the standard closed form; the ridge keeps both covariances
    positive definite.  Both are block diagonal, so the KL is the sum of the
    n m-dimensional KLs of the columns, computed as one stack.
    Factorization failure propagates as an error.
    """
    if not (lam > 0.0):
        raise ValueError("lambda must be positive")
    if q.mean.shape != p.mean.shape:
        raise ShapeError(f"shape mismatch: q has {q.mean.shape}, p has {p.mean.shape}")
    m, n = q.mean.shape
    ridge = lam * np.eye(m)
    cov_q, cov_p = q.blocks + ridge, p.blocks + ridge
    delta = (q.mean - p.mean).T[:, :, None]  # (n, m, 1): column i of mu_q - mu_p
    # One solve against Sigma_p for the trace and the quadratic term together.
    x = solve_psd(cov_p, np.concatenate([cov_q, delta], axis=-1))
    trace_term = np.trace(x[..., :m], axis1=-2, axis2=-1).sum()
    quad = np.sum(delta[..., 0] * x[..., m])
    logdets = np.sum(logdet_psd(cov_p) - logdet_psd(cov_q))
    return float(0.5 * (logdets - m * n + trace_term + quad))
