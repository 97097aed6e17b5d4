"""Low-rank adapter with a Gaussian variational factor.

A frozen base weight ``w0`` (m x n) is adapted through a rank-r update
``b @ a`` where ``b`` (m x r) is deterministic and trainable while ``a``
(r x n) carries a fully factorized Gaussian posterior with mean ``mean_a``
and standard deviation ``omega = g * g`` element-wise.  The
Bayesianization is deliberately asymmetric: ``b`` starts at zero, so at
initialization every forward pass reproduces the frozen base exactly and
weight sampling adds no noise.

A layer computes ``w0 @ h + b @ c``; ``branch_forward`` (and its gradient
``branch_backward``) computes the adapter branch ``c`` in one of three modes:

* ``mean``    - posterior mean weights, no sampling;
* ``shared``  - one sampled ``a`` shared by the whole batch
  (slow-converging: every example sees the same perturbation);
* ``flipout`` - shared base noise decorrelated across examples
  by per-example sign masks, so each example experiences a
  pseudo-independent weight draw at the cost of one extra low-rank
  product.  Per example i the effective perturbation is
  ``(e * omega) * outer(t_i, s_i)``, which leaves the per-example marginal
  distribution identical to naive independent sampling.

``branch_draws`` is the one rule for what each mode draws.  The network
trains through these ops unchecked; ``forward_mean``,
``forward_naive_shared`` and ``forward_flipout`` are checked one-layer passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShapeError",
    "VariationalAdapter",
    "branch_draws",
    "branch_forward",
    "branch_backward",
    "forward_mean",
    "forward_flipout",
    "forward_naive_shared",
]


class ShapeError(ValueError):
    """Operands have incompatible or invalid dimensions."""


@dataclass
class VariationalAdapter:
    """Frozen base weight plus the parameters of the low-rank posterior."""

    w0: np.ndarray      # (m, n) frozen base weight
    b: np.ndarray       # (m, r) deterministic low-rank factor
    mean_a: np.ndarray  # (r, n) posterior mean of the a-factor
    g: np.ndarray       # (r, n) std parameter; omega = g * g

    def __post_init__(self) -> None:
        m, n = self.w0.shape
        r = self.b.shape[1]
        if self.b.shape != (m, r):
            raise ShapeError(f"b must be ({m}, r), got {self.b.shape}")
        if self.mean_a.shape != (r, n):
            raise ShapeError(f"mean_a must be ({r}, {n}), got {self.mean_a.shape}")
        if self.g.shape != (r, n):
            raise ShapeError(f"g must be ({r}, {n}), got {self.g.shape}")
        if not (1 <= r < min(m, n)):
            raise ValueError(f"rank must satisfy 1 <= r < min(m, n); got r={r}, m={m}, n={n}")
        for name in ("w0", "b", "mean_a", "g"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def m(self) -> int:
        return self.w0.shape[0]

    @property
    def n(self) -> int:
        return self.w0.shape[1]

    @property
    def rank(self) -> int:
        return self.b.shape[1]

    def omega(self) -> np.ndarray:
        """Element-wise posterior std under the square map, omega = g * g,
        recomputed on demand; a softplus (bbb) net maps g with ``apply_map``."""
        return self.g * self.g


def branch_draws(mode: str, rng: np.random.Generator | None, n: int, batch: int, r: int) -> tuple:
    """Fresh draws for one ``branch_forward`` call on an (n, batch) input at rank r.

    Flipout draws signs s (n, batch), then signs t (batch, r), then
    standard-normal e (r, n); shared draws e alone; mean draws nothing and
    leaves ``rng`` untouched.
    """
    if mode == "flipout":
        # One call draws the same signs as two consecutive calls for s and t.
        signs = 2.0 * rng.integers(0, 2, size=n * batch + batch * r) - 1.0
        return (
            signs[: n * batch].reshape(n, batch),
            signs[n * batch :].reshape(batch, r),
            rng.standard_normal(size=(r, n)),
        )
    if mode == "shared":
        return (rng.standard_normal(size=(r, n)),)
    return ()


def branch_forward(mode: str, mean_a: np.ndarray, omega: np.ndarray, hd: np.ndarray, draws: tuple) -> np.ndarray:
    """Adapter branch ``c`` of the branch input ``hd`` (n, batch).

    ``draws`` is what ``branch_draws`` returns for the mode: (s, t, e) for
    flipout, (e,) for shared, () for mean.  Draws stacked along a leading
    axis give the stacked branches, one per draw.
    """
    if mode == "flipout":
        s, t, e = draws
        return mean_a @ hd + ((e * omega) @ (hd * s)) * np.swapaxes(t, -1, -2)
    if mode == "shared":
        return (mean_a + omega * draws[0]) @ hd
    return mean_a @ hd


def branch_backward(
    mode: str, mean_a: np.ndarray, omega: np.ndarray, hd: np.ndarray, draws: tuple, dc: np.ndarray
) -> tuple:
    """(d_mean_a, d_omega, d_hd) of a loss given dc, for the ``branch_forward``
    call with the same arguments; ``d_omega`` is None in mean mode."""
    d_mean_a = dc @ hd.T
    if mode == "flipout":
        s, t, e = draws
        dqr = dc * t.T
        d_omega = (dqr @ (hd * s).T) * e
        d_hd = mean_a.T @ dc + ((e * omega).T @ dqr) * s
    elif mode == "shared":
        d_omega = d_mean_a * draws[0]
        d_hd = (mean_a + omega * draws[0]).T @ dc
    else:
        d_omega = None
        d_hd = mean_a.T @ dc
    return d_mean_a, d_omega, d_hd


def _check_input(adapter: VariationalAdapter, h: np.ndarray) -> None:
    if h.ndim != 2 or h.shape[0] != adapter.n:
        raise ShapeError(f"input must be ({adapter.n}, batch), got {h.shape}")
    if h.shape[1] < 1:
        raise ShapeError("batch size must be >= 1")


def _check_noise(adapter: VariationalAdapter, noise: np.ndarray) -> None:
    if noise.shape != adapter.mean_a.shape:
        raise ShapeError(f"noise must be {adapter.mean_a.shape}, got {noise.shape}")


def forward_mean(adapter: VariationalAdapter, h: np.ndarray) -> np.ndarray:
    """Deterministic pass with the posterior mean: w0 @ h + b @ mean_a @ h."""
    _check_input(adapter, h)
    c = branch_forward("mean", adapter.mean_a, adapter.omega(), h, ())
    return adapter.w0 @ h + adapter.b @ c


def forward_flipout(adapter: VariationalAdapter, h: np.ndarray, draws: tuple) -> np.ndarray:
    """Batched stochastic pass with per-example decorrelated perturbations.

    z = w0 @ h + b @ (mean_a @ h + [(e * omega)(h * s)] * t^T), with
    ``draws`` = (s, t, e) as ``branch_draws("flipout", ...)`` returns it.
    """
    _check_input(adapter, h)
    s, t, e = draws
    for name, mask, shape in (("s", s, (adapter.n, h.shape[1])), ("t", t, (h.shape[1], adapter.rank))):
        if mask.shape != shape:
            raise ShapeError(f"{name} mask must be {shape}, got {mask.shape}")
        if not np.all(np.abs(mask) == 1.0):
            raise ValueError(f"{name} entries must be exactly +/-1")
    _check_noise(adapter, e)
    c = branch_forward("flipout", adapter.mean_a, adapter.omega(), h, draws)
    return adapter.w0 @ h + adapter.b @ c


def forward_naive_shared(adapter: VariationalAdapter, h: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Stochastic pass where one sampled ``a`` is shared by the whole batch."""
    _check_input(adapter, h)
    _check_noise(adapter, noise)
    c = branch_forward("shared", adapter.mean_a, adapter.omega(), h, (noise,))
    return adapter.w0 @ h + adapter.b @ c
