"""Frozen-backbone classification network with adapters and hand-written gradients.

The network is a desk-scale stand-in for a large pre-trained model: a few
dense tanh layers whose weights are randomly initialized and then frozen,
each carrying a low-rank adapter, followed by a softmax classification
head.  Only the adapter parameters (b, mean_a, g) and the head receive
gradients.  Each adapter carries one Gaussian factor, over its a-factor:
mean mean_a and std omega = map(g); b stays deterministic.

Gradients are reverse-mode and written out explicitly: each layer's
adapter branch runs ``adapter.branch_forward``/``branch_backward``, and
``kl_term`` calls ``kl.gaussian_kl``, the one closed-form KL, while this
module chains them through dropout, tanh and omega = map(g); the test
suite pins every path against central finite differences.

``SmallNet`` owns the flat layout of its trainable arrays: ``pack`` moves
them into one vector, ``net_backward`` returns a vector in that layout,
which ``views`` splits back per array, and ``kl_term`` returns one over
the layout's tail, ``kl_span``.

Input batches are column-major inside this module: an (n, batch) array
holds one example per column.

A net whose every array carries a leading member axis, ``stack_nets``' view
of several same-shaped nets, runs the same ops: the forward and backward
passes, the softmax, the cross-entropy and ``kl_term`` work on each
member's slice as on a single net, and the flat layout gains the member
axis in front, (members, layout).
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .adapter import ShapeError, VariationalAdapter, branch_backward, branch_draws, branch_forward
from .kl import gaussian_kl
from .parammaps import ParamMap, apply_map, map_derivative
from .textio import write_lines

__all__ = [
    "AdapterLayer",
    "SmallNet",
    "stack_nets",
    "NonFiniteLossError",
    "softmax_columns",
    "label_index",
    "cross_entropy",
    "all_finite",
    "net_forward",
    "net_backward",
    "kl_term",
    "save_net",
    "load_net",
]

_MODEL_MAGIC = "bayeslora-model"
_MODEL_VERSION = 2
_META_KEYS = ("dropout_p", "n_layers", "param_map")


class NonFiniteLossError(ValueError):
    """A loss component came out NaN/Inf; the component is named."""

    def __init__(self, component: str):
        self.component = component
        super().__init__(f"non-finite {component} loss")


@dataclass
class AdapterLayer:
    """One frozen dense layer (weight inside the adapter, plus bias)."""

    adapter: VariationalAdapter
    bias: np.ndarray                 # (m,) frozen

    def __post_init__(self) -> None:
        if self.bias.shape != (*self.adapter.w0.shape[:-2], self.adapter.m):
            raise ShapeError(f"bias must be ({self.adapter.m},), got {self.bias.shape}")


@dataclass
class SmallNet:
    layers: list[AdapterLayer]
    head_w: np.ndarray               # (n_classes, last_hidden)
    head_b: np.ndarray               # (n_classes,)
    param_map: ParamMap = ParamMap.SQUARE
    dropout_p: float = 0.0

    @property
    def input_dim(self) -> int:
        return self.layers[0].adapter.n

    @property
    def n_classes(self) -> int:
        return self.head_w.shape[-2]

    @property
    def members(self) -> tuple[int, ...]:
        """The leading member axes of every array: () for a single net."""
        return self.head_b.shape[:-1]

    def _param_slots(self) -> list[tuple[str, object, str]]:
        """(key, owner, attribute name) of every trainable array: the head,
        every b, every mean_a, every g.  So the KL means and then the KL stds
        form one run that ends the layout, ``kl_span``."""
        slots = [("head.w", self, "head_w"), ("head.b", self, "head_b")]
        for name in ("b", "mean_a", "g"):
            slots += [(f"layers.{i}.{name}", layer.adapter, name) for i, layer in enumerate(self.layers)]
        return slots

    @cached_property
    def _layout(self) -> tuple[tuple[str, int, int, tuple[int, ...]], ...]:
        """(key, start, stop, shape) of every trainable array in one member's
        flat layout."""
        table, start, lead = [], 0, len(self.members)
        for key, owner, attr in self._param_slots():
            shape = getattr(owner, attr).shape[lead:]
            stop = start + math.prod(shape)
            table.append((key, start, stop, shape))
            start = stop
        return tuple(table)

    def trainable_params(self) -> dict[str, np.ndarray]:
        """Mutable views of every trainable array, keyed by a stable name."""
        return {key: getattr(owner, attr) for key, owner, attr in self._param_slots()}

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Per-key views of a vector in the flat layout, or of a stack of
        them along leading axes."""
        lead = vec.shape[:-1]
        return {key: vec[..., start:stop].reshape(lead + shape) for key, start, stop, shape in self._layout}

    @property
    def kl_span(self) -> slice:
        """The tail of the flat layout that ``kl_term``'s gradient covers."""
        return slice(self._kl_layout[0], None)

    @cached_property
    def _kl_layout(self) -> tuple:
        """(start, slots, factors): the KL span's offset in the layout, its
        arrays' (owner, attribute), and per layer the columns of its mean_a
        in the span's first half, every mean_a.  Its g has the same shape,
        so the same columns of the second half, every g, hold it."""
        n_kl = 2 * len(self.layers)
        tail = self._layout[-n_kl:]
        start = tail[0][1]
        factors = [slice(a - start, b - start) for _, a, b, _ in tail[: len(self.layers)]]
        slots = [(owner, attr) for _, owner, attr in self._param_slots()[-n_kl:]]
        return start, slots, factors

    def pack(self) -> np.ndarray:
        """Copy the trainable arrays into one float64 vector and ``bind`` the
        net to it, so an in-place update of the vector updates the net."""
        vec = np.concatenate([p.ravel() for p in self.trainable_params().values()], dtype=np.float64)
        self.bind(vec)
        return vec

    def bind(self, vec: np.ndarray) -> None:
        """Rebind every trainable array to its view of ``vec``."""
        for (_, owner, attr), view in zip(self._param_slots(), self.views(vec).values()):
            setattr(owner, attr, view)


def stack_nets(nets: list[SmallNet]) -> tuple[SmallNet, np.ndarray]:
    """The same-shaped ``nets`` as one net with a leading member axis on
    every array, and the (members, layout) stack of their flat layouts.

    Each member is bound to its row of the stack and the stacked net to the
    whole of it, so an in-place update of the stack updates every member.
    """
    first = nets[0]
    if any(net._layout != first._layout for net in nets):
        raise ShapeError("stacked nets must share one flat layout")
    params = np.stack([net.pack() for net in nets])
    for net, row in zip(nets, params):
        net.bind(row)

    def stack(get) -> np.ndarray:
        return np.stack([get(net) for net in nets])

    layers = []
    for i in range(len(first.layers)):
        adapter = VariationalAdapter(**{
            f.name: stack(lambda net: getattr(net.layers[i].adapter, f.name)) for f in fields(VariationalAdapter)
        })
        layers.append(AdapterLayer(adapter, stack(lambda net: net.layers[i].bias)))
    stacked = SmallNet(
        layers, stack(lambda net: net.head_w), stack(lambda net: net.head_b), first.param_map, first.dropout_p
    )
    stacked.bind(params)
    return stacked, params


def softmax_columns(u: np.ndarray) -> np.ndarray:
    e = np.exp(u - np.maximum.reduce(u, axis=-2, keepdims=True))
    e /= np.add.reduce(e, axis=-2, keepdims=True)
    return e


def label_index(labels: np.ndarray) -> tuple:
    """Index of each example's true class in a (classes, batch) array, or in
    a stacked (members, classes, batch) one given (members, batch) labels."""
    columns = np.arange(labels.shape[-1])
    if labels.ndim == 1:
        return labels, columns
    return np.arange(labels.shape[0])[:, None], labels, columns


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float | np.ndarray:
    """Mean negative log-probability of the true class (columns = examples);
    one mean per member for stacked probs."""
    picked = probs[label_index(labels)]
    if np.count_nonzero(picked) == picked.size:  # no zero: skip the costly errstate context
        logs = np.log(picked)
    else:
        with np.errstate(divide="ignore"):  # an exact zero gives inf without a warning
            logs = np.log(picked)
    # 0.0 - x, not -x: a batch fit exactly (every log 0.0) gives +0.0, not -0.0.
    return _scalar(0.0 - np.add.reduce(logs, axis=-1) / picked.shape[-1])


def _scalar(value: np.ndarray) -> float | np.ndarray:
    """A single net's reduction as a float; a stacked net's as its array."""
    return float(value) if value.ndim == 0 else value


def all_finite(value: float | np.ndarray) -> bool:
    """Whether a single net's loss value, or every member's, is finite."""
    return math.isfinite(value) if type(value) is float else bool(np.isfinite(value).all())


@dataclass
class _LayerCache:
    hd: np.ndarray
    drop_mask: np.ndarray | None
    omega: np.ndarray | None         # None in mean mode, which does not read it
    mode: str
    draws: tuple                     # branch_draws(mode, ...)
    c: np.ndarray
    h_out: np.ndarray


@dataclass
class ForwardCache:
    layer_caches: list[_LayerCache]
    logits: np.ndarray


def net_forward(
    net: SmallNet,
    h0: np.ndarray,
    mode: str,
    rng: np.random.Generator | None = None,
    dropout_active: bool = False,
) -> ForwardCache:
    """One pass through the network; draws fresh noise/masks per call.

    mode is one of "mean", "flipout", "shared".  Per layer the draw order
    is: dropout mask, then ``branch_draws`` for the mode.  Dropout applies
    to the adapter-branch input only; the frozen path always sees the raw
    activations.  A stacked net takes a (members, n, batch) input, one
    batch per member.
    """
    if mode not in ("mean", "flipout", "shared"):
        raise ValueError(f"unknown forward mode {mode!r}")
    if h0.shape[:-1] != (*net.members, net.input_dim):
        raise ShapeError(f"input must be ({', '.join(map(str, net.members + (net.input_dim,)))}, batch), "
                         f"got {h0.shape}")
    batch = h0.shape[-1]
    if batch < 1:
        raise ShapeError("batch size must be >= 1")
    if (mode != "mean" or (dropout_active and net.dropout_p > 0.0)) and rng is None:
        raise ValueError("stochastic forward requires an rng")

    h = h0
    caches: list[_LayerCache] = []
    for layer in net.layers:
        ad = layer.adapter
        omega = None if mode == "mean" else apply_map(net.param_map, ad.g)

        drop_mask, hd = None, h
        if dropout_active and net.dropout_p > 0.0:
            keep = 1.0 - net.dropout_p
            drop_mask = (rng.random(size=h.shape) < keep).astype(np.float64) / keep
            hd = h * drop_mask

        draws = branch_draws(mode, rng, ad.n, batch, ad.rank)
        c = branch_forward(mode, ad.mean_a, omega, hd, draws)

        z = ad.w0 @ h
        z += ad.b @ c
        z += layer.bias[..., None]
        h = np.tanh(z, out=z)
        caches.append(_LayerCache(hd, drop_mask, omega, mode, draws, c, h))

    logits = net.head_w @ h + net.head_b[..., None]
    return ForwardCache(layer_caches=caches, logits=logits)


def net_backward(net: SmallNet, fwd: ForwardCache, d_logits: np.ndarray) -> np.ndarray:
    """Reverse-mode gradient of a scalar loss given d(loss)/d(logits), as
    one vector in the net's flat layout; for a stacked net, one row per
    member."""
    n_layers = len(net.layers)
    d_b, d_mean_a, d_g = ([None] * n_layers for _ in range(3))
    dh = net.head_w.swapaxes(-1, -2) @ d_logits
    for i in reversed(range(n_layers)):
        layer, cache = net.layers[i], fwd.layer_caches[i]
        ad = layer.adapter
        dz = dh * (1.0 - cache.h_out * cache.h_out)

        d_b[i] = dz @ cache.c.swapaxes(-1, -2)
        dc = ad.b.swapaxes(-1, -2) @ dz
        d_mean_a[i], d_omega, dhd = branch_backward(cache.mode, ad.mean_a, cache.omega, cache.hd, cache.draws, dc)
        # mean mode: an explicit zero, not 0 * map', which can be -0.0
        d_g[i] = np.zeros(ad.g.shape) if d_omega is None else d_omega * map_derivative(net.param_map, ad.g)

        if i > 0:  # the gradient of the network input is not needed
            if cache.drop_mask is not None:
                dhd = dhd * cache.drop_mask
            dh = ad.w0.swapaxes(-1, -2) @ dz + dhd
    h_out = fwd.layer_caches[-1].h_out
    parts = [d_logits @ h_out.swapaxes(-1, -2), np.add.reduce(d_logits, axis=-1), *d_b, *d_mean_a, *d_g]
    if not net.members:
        return np.concatenate(parts, axis=None)
    return np.concatenate([d.reshape(*net.members, -1) for d in parts], axis=-1)


def kl_term(net: SmallNet, sigma_p: float) -> tuple[float | np.ndarray, np.ndarray]:
    """``kl.gaussian_kl`` over every adapter's Gaussian factor, (mean_a,
    omega = map(g)), in one call with one factor per layer, and its gradient
    over the net's ``kl_span``.  A stacked net gets one value and one
    gradient row per member."""
    _, slots, factors = net._kl_layout
    span = np.concatenate([getattr(owner, attr).reshape(*net.members, -1) for owner, attr in slots], axis=-1)
    half = span.shape[-1] // 2
    means, g = span[..., :half], span[..., half:]
    omega = apply_map(net.param_map, g)
    try:
        value, d_means, d_omega = gaussian_kl(means, omega, sigma_p, factors)
    except ValueError as exc:
        layer = next(i for i, cols in enumerate(factors) if (omega[..., cols] <= 0.0).any())
        raise NonFiniteLossError("kl") from ValueError(f"layer {layer}: {exc}")
    if not all_finite(value):
        raise NonFiniteLossError("kl")
    return value, np.concatenate((d_means, d_omega * map_derivative(net.param_map, g)), axis=-1)


def _fmt(a: np.ndarray) -> str:
    return " ".join(float(x).hex() for x in np.asarray(a, dtype=np.float64).ravel())


def _parse(text: str, shape: tuple[int, ...], name: str) -> np.ndarray:
    """Hex-float payload of field ``name`` as a finite array of ``shape``."""
    try:
        values = list(map(float.fromhex, text.split()))
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    if text.count("0x") != len(values):  # fromhex also reads "10" as 0x10, i.e. 16.0
        raise ValueError(f"{name}: every entry must be a hex float with the 0x prefix")
    expected = math.prod(shape)
    if len(values) != expected:
        raise ValueError(f"{name}: expected {expected} entries, got {len(values)}")
    out = np.array(values, dtype=np.float64).reshape(shape)
    if not np.isfinite(out).all():
        raise ValueError(f"{name}: non-finite entry")
    return out


def save_net(net: SmallNet, path: str) -> None:
    """Textual model record (hex floats) that round-trips bit-exactly: a
    ``bayeslora-model 2`` header, a meta line with the std map, the dropout
    rate and the layer count, then per layer ``layer m n r`` and its arrays,
    then the head."""
    meta = {"param_map": net.param_map.value, "dropout_p": float(net.dropout_p).hex(), "n_layers": len(net.layers)}
    lines = [f"{_MODEL_MAGIC} {_MODEL_VERSION}", "meta " + json.dumps(meta, sort_keys=True)]
    for layer in net.layers:
        ad = layer.adapter
        lines.append(f"layer {ad.m} {ad.n} {ad.rank}")
        lines += [f"{name} " + _fmt(getattr(ad, name)) for name in ("w0", "b", "mean_a", "g")]
        lines.append("bias " + _fmt(layer.bias))
    c, h = net.head_w.shape
    lines.append(f"head {c} {h}")
    lines.append("w " + _fmt(net.head_w))
    lines.append("hb " + _fmt(net.head_b))
    write_lines(path, lines)


def _next_field(lines: Iterator[str], key: str) -> str:
    """Payload of the next line, which must be tagged ``key``."""
    line = next(lines, None)
    if line is None:
        raise ValueError(f"{key}: line missing, the file is truncated")
    tag, _, payload = line.partition(" ")
    if tag != key:
        raise ValueError(f"{key}: expected a {key!r} line, got {tag!r}")
    return payload


def _dims(payload: str, count: int, key: str) -> list[int]:
    tokens = payload.split()
    if len(tokens) != count or not all(tok.isdigit() for tok in tokens):
        raise ValueError(f"{key}: expected {count} non-negative integers, got {payload!r}")
    return [int(tok) for tok in tokens]


def load_net(path: str) -> SmallNet:
    """Read a ``save_net`` record; a malformed one raises a ValueError naming
    the field, and one that is not ASCII text a ValueError naming ``path``."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = iter(fh.read().splitlines())
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if next(lines, None) != f"{_MODEL_MAGIC} {_MODEL_VERSION}":
        raise ValueError(f"not a {_MODEL_MAGIC} v{_MODEL_VERSION} file: {path}")
    payload = _next_field(lines, "meta")
    try:
        meta = json.loads(payload)
        if not isinstance(meta, dict) or sorted(meta) != list(_META_KEYS):
            raise ValueError(f"keys must be {list(_META_KEYS)}, got {sorted(meta)}")
        n_layers = meta["n_layers"]
        if type(n_layers) is not int or n_layers < 1:
            raise ValueError(f"n_layers must be an integer >= 1, got {n_layers!r}")
        dropout_p = float.fromhex(meta["dropout_p"])
        if not 0.0 <= dropout_p < 1.0 or "0x" not in meta["dropout_p"]:
            raise ValueError(f"dropout_p must be a 0x hex float in [0, 1), got {meta['dropout_p']!r}")
        options = dict(param_map=ParamMap(meta["param_map"]), dropout_p=dropout_p)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"meta: {exc}") from None

    layers: list[AdapterLayer] = []
    width = None
    for _ in range(n_layers):
        m, n, r = _dims(_next_field(lines, "layer"), 3, "layer")
        if width is not None and n != width:
            raise ValueError(f"layer: input width {n} does not match the previous layer's {width}")
        fields = {
            name: _parse(_next_field(lines, name), shape, name)
            for name, shape in (("w0", (m, n)), ("b", (m, r)), ("mean_a", (r, n)), ("g", (r, n)))
        }
        bias = _parse(_next_field(lines, "bias"), (m,), "bias")
        layers.append(AdapterLayer(adapter=VariationalAdapter(**fields), bias=bias))
        width = m
    c, h = _dims(_next_field(lines, "head"), 2, "head")
    if h != width:
        raise ValueError(f"head: input width {h} does not match the last layer's {width}")
    head_w = _parse(_next_field(lines, "w"), (c, h), "w")
    head_b = _parse(_next_field(lines, "hb"), (c,), "hb")
    if next(lines, None) is not None:
        raise ValueError("hb: trailing lines after the last field")
    return SmallNet(layers=layers, head_w=head_w, head_b=head_b, **options)
