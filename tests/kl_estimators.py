"""A Monte-Carlo estimate of the low-rank KL, the reference the closed form
is checked against (``test_kl``, acceptance criterion 03)."""

import math

import numpy as np

from bayeslora.adapter import ShapeError
from bayeslora.kl import PriorSpec


def kl_monte_carlo(
    mean_a: np.ndarray,
    omega: np.ndarray,
    prior: PriorSpec,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Unbiased estimate of E_q[log q(a) - log p(a)] with its standard error,
    for q = prod N(mean_a_ij, omega_ij^2).

    Draws a ~ q via the reparameterization a = mean_a + omega * eps and
    evaluates both log-densities exactly; the log(2 pi) terms cancel.
    """
    if samples < 1000:
        raise ValueError("samples must be >= 1000")
    if mean_a.shape != omega.shape:
        raise ShapeError(f"mean_a {mean_a.shape} and omega {omega.shape} must match")
    if np.any(omega <= 0.0):
        raise ValueError("degenerate posterior: some omega entry is <= 0 (infinite KL)")
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
