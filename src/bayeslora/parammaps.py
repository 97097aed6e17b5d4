"""Standard-deviation parameterizations and their convergence behaviour.

A posterior standard deviation sigma_q must stay positive, so it is
produced from an unconstrained parameter rho through a map: either
``sigma = rho**2`` (square) or ``sigma = log(1 + exp(rho))`` (softplus).
The choice matters: near sigma_q -> 0+ the square map's KL gradient grows
like 1/rho while the softplus map's gradient plateaus near -1, which makes
plain gradient descent on the KL term dramatically slower to open the
posterior up toward the prior scale.  ``convergence_race`` measures that
difference directly.
"""

from __future__ import annotations

import enum
import math

import numpy as np
from scipy.special import expit

__all__ = [
    "ParamMap",
    "apply_map",
    "map_derivative",
    "inverse_map",
    "kl_grad_rho",
    "convergence_race",
    "race_curve",
]


class ParamMap(enum.Enum):
    SQUARE = "square"
    SOFTPLUS = "softplus"


def apply_map(pmap: ParamMap, rho):
    """Map the raw parameter to a standard deviation.

    Works element-wise on arrays.  Softplus is evaluated overflow-safe:
    for large rho, log(1 + exp(rho)) -> rho without computing exp(rho).
    """
    if pmap is ParamMap.SQUARE:
        return rho * rho
    return np.logaddexp(0.0, rho)


def map_derivative(pmap: ParamMap, rho):
    """d sigma / d rho, element-wise."""
    if pmap is ParamMap.SQUARE:
        return 2.0 * rho
    return expit(rho)


def inverse_map(pmap: ParamMap, sigma):
    """Raw parameter whose image under the map is ``sigma`` (> 0).

    The square map has two preimages; the positive root is returned.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma <= 0.0):
        raise ValueError("inverse_map requires sigma > 0")
    if pmap is ParamMap.SQUARE:
        out = np.sqrt(sigma)
    else:
        # log(exp(sigma) - 1) = sigma + log(1 - exp(-sigma)), stable for large sigma
        out = sigma + np.log(-np.expm1(-sigma))
    return float(out) if out.ndim == 0 else out


def _apply_scalar(pmap: ParamMap, rho: float) -> float:
    """:func:`apply_map` on one Python float, in ``math`` arithmetic."""
    if pmap is ParamMap.SQUARE:
        return rho * rho
    if rho > 30.0:
        return rho + math.log1p(math.exp(-rho))
    return math.log1p(math.exp(rho))


def kl_grad_rho(pmap: ParamMap, rho: float, sigma_p: float) -> float:
    """d/d rho of KL(N(0, sigma(rho)^2) || N(0, sigma_p^2)), on Python floats.

    It is ``kl.gaussian_kl``'s d/d omega times :func:`map_derivative` (the
    gradient training applies to g) for one coordinate; the race descends it.
    Square map:    -2/rho + 2 rho^3 / sigma_p^2   (undefined at rho = 0).
    Softplus map:  s(rho) * (sigma/sigma_p^2 - 1/sigma) with s the sigmoid.
    """
    if pmap is ParamMap.SQUARE:
        if rho == 0.0:
            raise ValueError("square-map KL gradient is undefined at rho = 0")
        return -2.0 / rho + 2.0 * rho**3 / (sigma_p * sigma_p)
    sigma = _apply_scalar(pmap, rho)
    s = 1.0 / (1.0 + math.exp(-rho)) if rho > -30.0 else math.exp(rho)
    return s * (sigma / (sigma_p * sigma_p) - 1.0 / sigma)


def _descent(pmap: ParamMap, sigma_p: float, sigma_q0: float, lr: float, n_steps: int):
    """(step, sigma(rho)) at step 0, where sigma = sigma_q0, and after each of
    n_steps plain gradient-descent steps on the scalar KL alone (no
    momentum, no schedule).  Bad arguments raise before step 0 is yielded;
    a step that leaves sigma no finite positive number raises a ValueError
    naming ``lr``, the step size that overshot."""
    for name, value in (("sigma_p", sigma_p), ("sigma_q0", sigma_q0), ("lr", lr)):
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value}")
    if n_steps < 0:
        raise ValueError(f"the step count must be >= 0, got {n_steps}")
    yield 0, sigma_q0
    rho = float(inverse_map(pmap, sigma_q0))
    for step in range(1, n_steps + 1):
        try:
            rho -= lr * kl_grad_rho(pmap, rho, sigma_p)
        except OverflowError:  # rho**3 past the float range
            rho = math.inf
        sigma = _apply_scalar(pmap, rho)
        if not 0.0 < sigma < math.inf:
            raise ValueError(f"lr = {lr} makes the descent diverge: sigma = {sigma} at step {step}")
        yield step, sigma


def convergence_race(
    pmap: ParamMap,
    sigma_p: float,
    sigma_q0: float,
    lr: float,
    target: float,
    max_steps: int,
) -> int:
    """First step of the descent from sigma_q0 at which sigma(rho) >= target:
    0 if already there, ``max_steps`` if never within the budget."""
    if target > sigma_p > 0.0:  # _descent names a sigma_p <= 0
        raise ValueError("target must not exceed sigma_p")
    for step, sigma in _descent(pmap, sigma_p, sigma_q0, lr, max_steps):
        if sigma >= target:
            return step
    return max_steps


def race_curve(
    pmap: ParamMap,
    sigma_p: float,
    sigma_q0: float,
    lr: float,
    n_steps: int,
    record_every: int = 1,
) -> list[tuple[int, float]]:
    """(step, sigma_q) trajectory of the race at every ``record_every``-th
    step and the last one, for plotting/export."""
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    return [(step, sigma) for step, sigma in _descent(pmap, sigma_p, sigma_q0, lr, n_steps)
            if step % record_every == 0 or step == n_steps]
