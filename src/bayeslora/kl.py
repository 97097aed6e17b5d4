"""KL-divergence machinery for the low-rank Gaussian posterior.

Three routes to the same quantity live here, deliberately redundant:

1. ``kl_closed_form`` - the analytical KL between the factorized posterior
   q(a) = prod N(mean_a_ij, omega_ij^2) and the isotropic prior
   prod N(0, sigma_p^2), evaluated in the low-rank space by
   ``gaussian_kl``, the one closed form with its gradients, which training's
   ``network.kl_term`` calls too, over every adapter's factor at once.
2. ``kl_monte_carlo`` - an unbiased sample estimate of E_q[log q - log p],
   used to cross-check the closed form.
3. The full-weight route: ``build_full_posterior`` / ``build_full_prior``
   materialize the induced (mn)-dimensional Gaussians
   (mu_q = vec(w0 + b @ mean_a), Sigma_q = [I_n x b] diag(vec(omega^2))
   [I_n x b]^T, and Sigma_p = sigma_p^2 [I_n x (b b^T)]), both singular,
   and ``kl_full_weight_regularized`` evaluates the Gaussian KL after
   adding an explicit ridge lambda to both covariances.  As lambda -> 0+
   this converges to the closed form, which is exactly the equivalence the
   test suite verifies numerically.

The closed form is returned as a genuine KL, i.e. including the additive
constant r*n*(log sigma_p - 1/2) that has zero gradient.

The full-weight route's dense helpers live here too: column-stacking
``vec`` and ``logdet_psd``/``solve_psd``, which raise
``NotPositiveDefiniteError`` rather than regularize a failed Cholesky.
Only the oracle needs SciPy, so ``solve_psd`` imports ``scipy.linalg`` on
its first call and training never loads it.
"""

from __future__ import annotations

import math
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
    "kl_monte_carlo",
    "build_full_posterior",
    "build_full_prior",
    "kl_full_weight_regularized",
]

# Largest full-weight dimension (m*n) the dense oracle will materialize.
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
    from scipy.linalg import cho_factor, cho_solve

    try:
        factor = cho_factor(a, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "Cholesky factorization failed: matrix is not positive definite"
        ) from exc
    return cho_solve(factor, b, check_finite=False)


@dataclass(frozen=True)
class PriorSpec:
    """Zero-mean isotropic Gaussian prior over the a-factor entries."""

    sigma_p: float

    def __post_init__(self) -> None:
        if not (self.sigma_p > 0.0):
            raise ValueError("sigma_p must be positive")


@dataclass
class FullWeightGaussian:
    """Gaussian over vec(w) with a possibly singular covariance."""

    mu: np.ndarray   # (d, 1)
    cov: np.ndarray  # (d, d)

    def __post_init__(self) -> None:
        d = self.mu.shape[0]
        if self.mu.shape != (d, 1) or self.cov.shape != (d, d):
            raise ShapeError(f"inconsistent shapes: mu {self.mu.shape}, cov {self.cov.shape}")
        _check_symmetric(self.cov)
        eigmin = float(np.linalg.eigvalsh(self.cov)[0])
        scale = max(1.0, float(np.abs(self.cov).max()))
        if eigmin < -1e-10 * scale:
            raise ValueError(f"covariance is not PSD: min eigenvalue {eigmin:.3e}")

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


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


def kl_closed_form(mean_a: np.ndarray, g: np.ndarray, prior: PriorSpec) -> float:
    """Exact KL[q(a) || p(a)] with omega = g * g, constants included.

    Raises ValueError where some g entry is zero (infinite KL).
    """
    if mean_a.shape != g.shape:
        raise ShapeError(f"mean_a {mean_a.shape} and g {g.shape} must match")
    return gaussian_kl(mean_a, g * g, prior.sigma_p)[0]


def kl_monte_carlo(
    mean_a: np.ndarray,
    g: np.ndarray,
    prior: PriorSpec,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Unbiased estimate of E_q[log q(a) - log p(a)] with its standard error.

    Draws a ~ q via the reparameterization a = mean_a + omega * eps and
    evaluates both log-densities exactly; the log(2 pi) terms cancel.
    """
    if samples < 1000:
        raise ValueError("samples must be >= 1000")
    if mean_a.shape != g.shape:
        raise ShapeError(f"mean_a {mean_a.shape} and g {g.shape} must match")
    if np.any(g == 0.0):
        raise ValueError("degenerate posterior: some g entry is exactly zero (infinite KL)")
    omega = g * g
    sp2 = prior.sigma_p * prior.sigma_p
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(size=(samples,) + mean_a.shape)
    a = mean_a + omega * eps
    # log q = sum_ij [-log omega - eps^2/2] + const; log p = sum_ij [-log sigma_p - a^2/(2 sp2)] + const
    log_q = -np.sum(np.log(omega)) - 0.5 * np.sum(eps * eps, axis=(1, 2))
    log_p = -mean_a.size * math.log(prior.sigma_p) - np.sum(a * a, axis=(1, 2)) / (2.0 * sp2)
    per_sample = log_q - log_p
    estimate = float(np.mean(per_sample))
    std_error = float(np.std(per_sample, ddof=1) / math.sqrt(samples))
    return estimate, std_error


def _guard_dims(m: int, n: int) -> None:
    if m * n > FULL_WEIGHT_GUARD:
        raise ValueError(f"full-weight dimension m*n = {m * n} exceeds guard {FULL_WEIGHT_GUARD}")


def _block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    """Square blocks placed along the diagonal of a zero matrix (values copied, not computed)."""
    size = sum(block.shape[0] for block in blocks)
    out = np.zeros((size, size))
    start = 0
    for block in blocks:
        stop = start + block.shape[0]
        out[start:stop, start:stop] = block
        start = stop
    return out


def build_full_posterior(adapter: VariationalAdapter) -> FullWeightGaussian:
    """Materialize the induced Gaussian over vec(w0 + b @ a).

    The covariance is block-diagonal: block i equals
    b @ diag(omega[:, i]^2) @ b^T, one (m x m) block per input column.
    """
    _guard_dims(adapter.m, adapter.n)
    omega = adapter.omega()
    mu = vec(adapter.w0 + adapter.b @ adapter.mean_a)
    cov = _block_diag([adapter.b @ np.diag(omega[:, i] ** 2) @ adapter.b.T for i in range(adapter.n)])
    return FullWeightGaussian(mu=mu, cov=0.5 * (cov + cov.T))


def build_full_prior(
    w0: np.ndarray,
    b: np.ndarray,
    prior: PriorSpec,
    r_factor: np.ndarray | None = None,
) -> FullWeightGaussian:
    """Materialize the low-rank full-weight prior centred at vec(w0).

    The covariance is sigma_p^2 [I_n x (R R^T)] with any R satisfying
    R R^T = b b^T; the canonical choice R = b is used unless ``r_factor``
    overrides it (the induced prior, and hence the KL, must not depend on
    that choice).
    """
    m, n = w0.shape
    _guard_dims(m, n)
    if b.shape[0] != m:
        raise ShapeError(f"b must have {m} rows, got {b.shape}")
    factor = b if r_factor is None else r_factor
    if factor.shape[0] != m:
        raise ShapeError(f"r_factor must have {m} rows, got {factor.shape}")
    gram = factor @ factor.T
    sp2 = prior.sigma_p * prior.sigma_p
    cov = _block_diag([sp2 * gram] * n)
    return FullWeightGaussian(mu=vec(w0), cov=0.5 * (cov + cov.T))


def kl_full_weight_regularized(
    q: FullWeightGaussian,
    p: FullWeightGaussian,
    lam: float,
) -> float:
    """Gaussian KL between the lambda-ridged distributions.

    Evaluates KL[N(mu_q, Sigma_q + lam I) || N(mu_p, Sigma_p + lam I)]
    through the standard closed form; the ridge keeps both covariances
    positive definite.  Factorization failure propagates as an error.
    """
    if not (lam > 0.0):
        raise ValueError("lambda must be positive")
    if q.dim != p.dim:
        raise ShapeError(f"dimension mismatch: q has {q.dim}, p has {p.dim}")
    d = q.dim
    eye = np.eye(d)
    cov_q = q.cov + lam * eye
    cov_p = p.cov + lam * eye

    logdet_q = logdet_psd(cov_q)
    logdet_p = logdet_psd(cov_p)
    trace_term = float(np.trace(solve_psd(cov_p, cov_q)))
    delta = q.mu - p.mu
    quad = float((delta.T @ solve_psd(cov_p, delta))[0, 0])
    return 0.5 * (logdet_p - logdet_q - d + trace_term + quad)
