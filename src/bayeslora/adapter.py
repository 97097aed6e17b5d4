"""Low-rank adapter with a Gaussian variational factor.

One ``VariationalAdapter`` is one adapted dense layer: a frozen base
weight ``w0`` (m x n) and bias ``bias`` (m,), with ``w0`` adapted through
a rank-r update ``b @ a`` where ``b`` (m x r) is deterministic and
trainable while ``a`` (r x n) carries a fully factorized Gaussian
posterior with mean ``mean_a`` and standard deviation ``omega = map(g)``
(``parammaps.apply_map``), which every function here takes as an array.
The Bayesianization is deliberately asymmetric: ``b`` starts at zero, so
at initialization every forward pass reproduces the frozen base exactly
and weight sampling adds no noise.

The weight op is ``w0 @ h + b @ c``, and the network adds ``bias`` after
it; ``branch_forward`` (and its gradient ``branch_backward``) computes the
adapter branch ``c`` in one of three modes:

* ``mean``    - posterior mean weights, no sampling;
* ``shared``  - one sampled ``a`` shared by the whole batch
  (slow-converging: every example sees the same perturbation);
* ``flipout`` - shared base noise decorrelated across examples
  by per-example sign masks, so each example experiences a
  pseudo-independent weight draw at the cost of one extra low-rank
  product.  Per example i the effective perturbation is
  ``(e * omega) * outer(t_i, s_i)``, which leaves the per-example marginal
  distribution identical to naive independent sampling.

``branch_draws`` is the one rule for what each mode draws.  Flipout's
signs are the top bits of raw PCG64 words, one sign per 32-bit half, so
flipout needs a PCG64 generator (``np.random.default_rng``'s).  The
network trains through these ops unchecked; ``forward_mean``,
``forward_naive_shared`` and ``forward_flipout`` are checked passes of the
weight op alone, and the full-weight builders in ``kl`` read w0 + b a, so
none of them reads ``bias``.  ``forward_naive_shared`` at input I_n on a
stack of noise also gives the oracle battery its draws of the full weight
w0 + b a.
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
    """One adapted layer: the frozen base weight and bias plus the
    parameters of the low-rank posterior."""

    w0: np.ndarray      # (m, n) frozen base weight
    b: np.ndarray       # (m, r) deterministic low-rank factor
    mean_a: np.ndarray  # (r, n) posterior mean of the a-factor
    g: np.ndarray       # (r, n) std parameter; omega = apply_map(param_map, g)
    bias: np.ndarray    # (m,) frozen bias, added by the network after the weight op

    def __post_init__(self) -> None:
        *lead, m, n = self.w0.shape  # lead: the member axes of a stacked net, else none
        r = self.b.shape[-1]
        if self.b.shape != (*lead, m, r):
            raise ShapeError(f"b must be ({m}, r), got {self.b.shape}")
        if self.mean_a.shape != (*lead, r, n):
            raise ShapeError(f"mean_a must be ({r}, {n}), got {self.mean_a.shape}")
        if self.g.shape != (*lead, r, n):
            raise ShapeError(f"g must be ({r}, {n}), got {self.g.shape}")
        if self.bias.shape != (*lead, m):
            raise ShapeError(f"bias must be ({m},), got {self.bias.shape}")
        if not (1 <= r < min(m, n)):
            raise ValueError(f"rank must satisfy 1 <= r < min(m, n); got r={r}, m={m}, n={n}")
        for name in ("w0", "b", "mean_a", "g", "bias"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def m(self) -> int:
        return self.w0.shape[-2]

    @property
    def n(self) -> int:
        return self.w0.shape[-1]

    @property
    def rank(self) -> int:
        return self.b.shape[-1]


def _signs_then_normals(rng: np.random.Generator, k: int, shape: tuple, count: int | None) -> tuple:
    """(signs, e): k +/-1 signs, then ``rng.standard_normal(size=shape)``;
    with a count, that many such pairs drawn in turn and stacked along a
    leading axis.

    The signs are the top bits of the 32-bit halves of ceil(k/2) raw PCG64
    words, low half first, whatever the host's byte order: for an even k on
    a fresh generator, the signs of a size-k 0/1 ``integers`` draw.  An odd
    k discards its last high half.  Other bit generators raise a ValueError,
    since their raw words need not be 64 bits wide.
    """
    bit_generator = rng.bit_generator
    if type(bit_generator) is not np.random.PCG64:
        raise ValueError(f"flipout signs need a PCG64 generator, got {type(bit_generator).__name__}")
    n_words = (k + 1) // 2
    if count is None:
        words = bit_generator.random_raw(n_words)
        e = rng.standard_normal(size=shape)
    else:
        words = np.empty((count, n_words), np.uint64)
        e = np.empty((count, *shape))
        for i in range(count):
            words[i] = bit_generator.random_raw(n_words)
            rng.standard_normal(out=e[i])
    bits = words.astype("<u8", copy=False).view("<u4")[..., :k] >> 31
    return 2.0 * bits - 1.0, e


def branch_draws(
    mode: str, rng: np.random.Generator | None, n: int, batch: int, r: int, count: int | None = None
) -> tuple:
    """Fresh draws for one ``branch_forward`` call on an (n, batch) input at rank r.

    Flipout draws signs s (n, batch), then signs t (batch, r), then
    standard-normal e (r, n); shared draws e alone; mean draws nothing and
    leaves ``rng`` untouched.

    With a ``count``, every array gains a leading axis of that length: bit
    for bit the stack of ``count`` consecutive single calls, with ``rng``
    left where they would leave it.  The signs are the top bits of raw
    PCG64 words, one per 32-bit half (``_signs_then_normals``), so flipout
    needs a PCG64 generator and raises a ValueError naming any other.
    """
    if count is not None and count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if mode == "flipout":
        # One draw of all the signs gives the same signs as two draws for s and t.
        signs, e = _signs_then_normals(rng, n * batch + batch * r, (r, n), count)
        lead = signs.shape[:-1]
        return (
            signs[..., : n * batch].reshape(*lead, n, batch),
            signs[..., n * batch :].reshape(*lead, batch, r),
            e,
        )
    if mode == "shared":
        return (rng.standard_normal(size=(r, n) if count is None else (count, r, n)),)
    return ()


def branch_forward(mode: str, mean_a: np.ndarray, omega: np.ndarray | None, hd: np.ndarray, draws: tuple) -> np.ndarray:
    """Adapter branch ``c`` of the branch input ``hd`` (n, batch).

    ``draws`` is what ``branch_draws`` returns for the mode: (s, t, e) for
    flipout, (e,) for shared, () for mean; omega is read only by the first
    two.  Draws stacked along a leading axis give the stacked branches, one
    per draw, and so do the stacked arrays of a net's members.
    """
    if mode == "flipout":
        s, t, e = draws
        return mean_a @ hd + ((e * omega) @ (hd * s)) * t.swapaxes(-1, -2)
    if mode == "shared":
        return (mean_a + omega * draws[0]) @ hd
    return mean_a @ hd


def branch_backward(
    mode: str, mean_a: np.ndarray, omega: np.ndarray | None, hd: np.ndarray, draws: tuple, dc: np.ndarray
) -> tuple:
    """(d_mean_a, d_omega, d_hd) of a loss given dc, for the ``branch_forward``
    call with the same arguments; ``d_omega`` is None in mean mode.  Like
    ``branch_forward``, it takes leading axes: stacked draws, or a stacked
    net's members."""
    d_mean_a = dc @ hd.swapaxes(-1, -2)
    if mode == "flipout":
        s, t, e = draws
        dqr = dc * t.swapaxes(-1, -2)
        d_omega = (dqr @ (hd * s).swapaxes(-1, -2)) * e
        d_hd = mean_a.swapaxes(-1, -2) @ dc + ((e * omega).swapaxes(-1, -2) @ dqr) * s
    elif mode == "shared":
        d_omega = d_mean_a * draws[0]
        d_hd = (mean_a + omega * draws[0]).swapaxes(-1, -2) @ dc
    else:
        d_omega = None
        d_hd = mean_a.swapaxes(-1, -2) @ dc
    return d_mean_a, d_omega, d_hd


def _check_input(adapter: VariationalAdapter, h: np.ndarray) -> None:
    if h.ndim != 2 or h.shape[0] != adapter.n:
        raise ShapeError(f"input must be ({adapter.n}, batch), got {h.shape}")
    if h.shape[1] < 1:
        raise ShapeError("batch size must be >= 1")


def _check_a_shape(adapter: VariationalAdapter, name: str, a: np.ndarray) -> None:
    if a.shape[-2:] != adapter.mean_a.shape:
        raise ShapeError(f"{name} must be {adapter.mean_a.shape}, got {a.shape}")


def forward_mean(adapter: VariationalAdapter, h: np.ndarray) -> np.ndarray:
    """Deterministic pass with the posterior mean: w0 @ h + b @ mean_a @ h."""
    _check_input(adapter, h)
    c = branch_forward("mean", adapter.mean_a, None, h, ())
    return adapter.w0 @ h + adapter.b @ c


def forward_flipout(adapter: VariationalAdapter, omega: np.ndarray, h: np.ndarray, draws: tuple) -> np.ndarray:
    """Batched stochastic pass with per-example decorrelated perturbations.

    z = w0 @ h + b @ (mean_a @ h + [(e * omega)(h * s)] * t^T), with
    ``draws`` = (s, t, e) as ``branch_draws("flipout", ...)`` returns it.
    """
    _check_input(adapter, h)
    _check_a_shape(adapter, "omega", omega)
    s, t, e = draws
    for name, mask, shape in (("s", s, (adapter.n, h.shape[1])), ("t", t, (h.shape[1], adapter.rank))):
        if mask.shape != shape:
            raise ShapeError(f"{name} mask must be {shape}, got {mask.shape}")
        if not np.all(np.abs(mask) == 1.0):
            raise ValueError(f"{name} entries must be exactly +/-1")
    _check_a_shape(adapter, "noise", e)
    c = branch_forward("flipout", adapter.mean_a, omega, h, draws)
    return adapter.w0 @ h + adapter.b @ c


def forward_naive_shared(
    adapter: VariationalAdapter, omega: np.ndarray, h: np.ndarray, noise: np.ndarray
) -> np.ndarray:
    """Stochastic pass where one sampled ``a`` is shared by the whole batch;
    noise stacked along leading axes gives one pass per noise."""
    _check_input(adapter, h)
    _check_a_shape(adapter, "omega", omega)
    _check_a_shape(adapter, "noise", noise)
    c = branch_forward("shared", adapter.mean_a, omega, h, (noise,))
    return adapter.w0 @ h + adapter.b @ c
