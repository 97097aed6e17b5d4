"""Standard-deviation parameterizations and their convergence behaviour.

A posterior standard deviation sigma_q must stay positive, so it is
produced from an unconstrained parameter rho through a map: either
``sigma = rho**2`` (square) or ``sigma = log(1 + exp(rho))`` (softplus).
The choice matters: near sigma_q -> 0+ the square map's KL gradient grows
like 1/rho while the softplus map's gradient plateaus near -1, which makes
plain gradient descent on the KL term dramatically slower to open the
posterior up toward the prior scale.  ``convergence_race`` measures that
difference directly.

The race runs on Python floats, where NumPy's per-call overhead would
dominate its tens of thousands of steps.  ``_SCALAR`` holds each map's one
scalar formula pair, sigma(rho) and dKL/drho(rho, sigma, sigma_p^2), which
the descent reads; the race exports pin their float operations bit for bit.

The module needs no SciPy: ``map_derivative`` rebuilds SciPy's ``expit``
from libm's ``exp``, bit for bit, so a softplus net trains without it.
"""

from __future__ import annotations

import enum
import math

import numpy as np

__all__ = [
    "ParamMap",
    "apply_map",
    "map_derivative",
    "inverse_map",
    "convergence_race",
    "race_curve",
]


# The largest double whose exp is finite; math.exp raises OverflowError above it.
_EXP_MAX = 709.782712893384


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
    """d sigma / d rho, element-wise.

    The softplus derivative is the sigmoid 1 / (1 + exp(-rho)) with libm's
    ``exp``, per entry through ``math.exp``: the float operations of SciPy's
    ``expit``, so its bytes match it without loading SciPy.  NumPy's
    vectorized ``exp`` is no substitute: its SIMD kernel rounds differently
    from libm's on about 2 % of inputs.  Where ``math.exp`` raises
    OverflowError (-rho > ``_EXP_MAX``) the entry takes libm's exp = inf.  A
    float or 0-d input gives an ``np.float64``, an array the input's shape.
    """
    if pmap is ParamMap.SQUARE:
        return 2.0 * rho
    neg = np.negative(rho, dtype=np.float64)
    flat = neg.ravel().tolist()
    try:
        e = np.fromiter(map(math.exp, flat), np.float64, len(flat))
    except OverflowError:  # some exp(-rho) past the float range, where libm gives inf
        e = np.array([math.inf if v > _EXP_MAX else math.exp(v) for v in flat])
    return 1.0 / (1.0 + e.reshape(neg.shape))


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


def _square(rho: float) -> float:
    return rho * rho


def _square_grad(rho: float, sigma: float, sigma_p2: float) -> float:
    """The square map's gradient needs rho alone; sigma is not read."""
    if rho == 0.0:
        raise ValueError("square-map KL gradient is undefined at rho = 0")
    return -2.0 / rho + 2.0 * rho**3 / sigma_p2


def _softplus(rho: float) -> float:
    if rho > 30.0:
        return rho + math.log1p(math.exp(-rho))
    return math.log1p(math.exp(rho))


def _softplus_grad(rho: float, sigma: float, sigma_p2: float) -> float:
    s = 1.0 / (1.0 + math.exp(-rho)) if rho > -30.0 else math.exp(rho)
    return s * (sigma / sigma_p2 - 1.0 / sigma)


# Per map: (sigma(rho), dKL/drho(rho, sigma(rho), sigma_p^2)) on Python floats,
# where KL = KL(N(0, sigma^2) || N(0, sigma_p^2)): one coordinate of
# kl.gaussian_kl's d/d omega times map_derivative, the gradient training applies to g.
_SCALAR = {
    ParamMap.SQUARE: (_square, _square_grad),
    ParamMap.SOFTPLUS: (_softplus, _softplus_grad),
}


def _descent(pmap: ParamMap, sigma_p: float, sigma_q0: float, lr: float, n_steps: int):
    """(step, sigma(rho)) at step 0, where sigma = sigma_q0, and after each of
    n_steps plain gradient-descent steps on the scalar KL alone (no
    momentum, no schedule).  Bad arguments raise before step 0 is yielded;
    a step that leaves sigma no finite positive number raises a ValueError
    naming ``lr``, the step size that overshot.

    Each step's gradient reads the sigma the step before yielded, so the map
    is evaluated once per step (and once at the start): the same operands
    and float operations as evaluating the map and then the gradient at
    each rho.
    """
    for name, value in (("sigma_p", sigma_p), ("sigma_q0", sigma_q0), ("lr", lr)):
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value}")
    if n_steps < 0:
        raise ValueError(f"the step count must be >= 0, got {n_steps}")
    sigma_of, grad = _SCALAR[pmap]
    sigma_p2 = sigma_p * sigma_p
    yield 0, sigma_q0
    rho = float(inverse_map(pmap, sigma_q0))
    sigma = sigma_of(rho)
    for step in range(1, n_steps + 1):
        try:
            rho -= lr * grad(rho, sigma, sigma_p2)
        except OverflowError:  # rho**3 past the float range
            rho = math.inf
        sigma = sigma_of(rho)
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
