"""Frozen-backbone classification network with adapters and hand-written gradients.

The network is a desk-scale stand-in for a large pre-trained model: a few
dense tanh layers whose weights are randomly initialized and then frozen,
each carrying a low-rank adapter, followed by a softmax classification
head.  Only the adapter parameters (b, mean_a, g), optionally a
Bayesianized b, and the head receive gradients.

Gradients are reverse-mode and written out explicitly: each layer's
adapter branch runs ``adapter.branch_forward``/``branch_backward`` and
the KL runs ``kl.gaussian_kl``, while this module chains them through
dropout, the Bayesianized b, tanh and omega = map(g); the test suite pins
every path against central finite differences.

``SmallNet`` owns the flat layout of its trainable arrays: ``pack`` moves
them into one vector, and ``net_backward`` and ``kl_term`` return vectors
in that layout, which ``views`` splits back per array.

Input batches are column-major inside this module: an (n, batch) array
holds one example per column.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .adapter import VariationalAdapter, branch_backward, branch_draws, branch_forward
from .kl import gaussian_kl
from .linalg import ShapeError
from .parammaps import ParamMap, apply_map, map_derivative

__all__ = [
    "AdapterLayer",
    "SmallNet",
    "NonFiniteLossError",
    "softmax_columns",
    "cross_entropy",
    "net_forward",
    "net_backward",
    "kl_term",
    "save_net",
    "load_net",
]

_MODEL_MAGIC = "bayeslora-model"
_MODEL_VERSION = 1
_META_KEYS = ("b_std_scale", "dropout_p", "head_trainable", "n_layers", "param_map")


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
    g_b: np.ndarray | None = None    # (m, r) std parameter for b, only when b is Bayesianized

    def __post_init__(self) -> None:
        if self.bias.shape != (self.adapter.m,):
            raise ShapeError(f"bias must be ({self.adapter.m},), got {self.bias.shape}")
        if self.g_b is not None and self.g_b.shape != self.adapter.b.shape:
            raise ShapeError(f"g_b must match b shape {self.adapter.b.shape}")


@dataclass
class SmallNet:
    layers: list[AdapterLayer]
    head_w: np.ndarray               # (n_classes, last_hidden)
    head_b: np.ndarray               # (n_classes,)
    param_map: ParamMap = ParamMap.SQUARE
    dropout_p: float = 0.0
    head_trainable: bool = True
    b_std_scale: float = 100.0       # omega_b = g_b^2 / b_std_scale in the no-AB variant

    @property
    def input_dim(self) -> int:
        return self.layers[0].adapter.n

    @property
    def n_classes(self) -> int:
        return self.head_w.shape[0]

    def _param_slots(self) -> list[tuple[str, object, str]]:
        """(key, owner, attribute name) of every trainable array.

        The Bayesianized-b std parameters come last: under mean-mode
        sampling they are the only arrays without a likelihood gradient,
        so the arrays that have one form a leading run.
        """
        slots: list[tuple[str, object, str]] = []
        for i, layer in enumerate(self.layers):
            for name in ("b", "mean_a", "g"):
                slots.append((f"layers.{i}.{name}", layer.adapter, name))
        if self.head_trainable:
            slots += [("head.w", self, "head_w"), ("head.b", self, "head_b")]
        for i, layer in enumerate(self.layers):
            if layer.g_b is not None:
                slots.append((f"layers.{i}.g_b", layer, "g_b"))
        return slots

    @cached_property
    def _layout(self) -> tuple[tuple[str, int, int, tuple[int, ...]], ...]:
        """(key, start, stop, shape) of every trainable array in the flat layout."""
        table, start = [], 0
        for key, owner, attr in self._param_slots():
            shape = getattr(owner, attr).shape
            stop = start + math.prod(shape)
            table.append((key, start, stop, shape))
            start = stop
        return tuple(table)

    def trainable_params(self) -> dict[str, np.ndarray]:
        """Mutable views of every trainable array, keyed by a stable name."""
        return {key: getattr(owner, attr) for key, owner, attr in self._param_slots()}

    def views(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Per-key views of a vector in the flat layout."""
        return {key: vec[start:stop].reshape(shape) for key, start, stop, shape in self._layout}

    def flatten(self, arrays: dict[str, np.ndarray]) -> np.ndarray:
        """One vector in the flat layout; zeros where a key is absent."""
        return np.concatenate([
            arrays[key].ravel() if key in arrays else np.zeros(stop - start)
            for key, start, stop, _ in self._layout
        ])

    def pack(self) -> np.ndarray:
        """Copy the trainable arrays into one float64 vector and rebind each
        to its view, so an in-place update of the vector updates the net."""
        vec = np.concatenate([p.ravel() for p in self.trainable_params().values()], dtype=np.float64)
        for (_, owner, attr), view in zip(self._param_slots(), self.views(vec).values()):
            setattr(owner, attr, view)
        return vec


def softmax_columns(u: np.ndarray) -> np.ndarray:
    shifted = u - u.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true class (columns = examples)."""
    picked = probs[labels, np.arange(probs.shape[1])]
    with np.errstate(divide="ignore"):
        return float(-np.mean(np.log(picked)))


@dataclass
class _LayerCache:
    hd: np.ndarray
    drop_mask: np.ndarray | None
    omega: np.ndarray
    mode: str
    draws: tuple                     # branch_draws(mode, ...)
    c: np.ndarray
    b_used: np.ndarray
    e_b: np.ndarray | None
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
    is: dropout mask, then ``branch_draws`` for the mode, then the b-noise
    when b is Bayesianized.  Dropout applies to the adapter-branch
    input only; the frozen path always sees the raw activations.
    """
    if mode not in ("mean", "flipout", "shared"):
        raise ValueError(f"unknown forward mode {mode!r}")
    if h0.ndim != 2 or h0.shape[0] != net.input_dim:
        raise ShapeError(f"input must be ({net.input_dim}, batch), got {h0.shape}")
    batch = h0.shape[1]
    if batch < 1:
        raise ShapeError("batch size must be >= 1")
    stochastic = mode != "mean" or (dropout_active and net.dropout_p > 0.0)
    if stochastic and rng is None:
        raise ValueError("stochastic forward requires an rng")

    h = h0
    caches: list[_LayerCache] = []
    for layer in net.layers:
        ad = layer.adapter
        omega = apply_map(net.param_map, ad.g)

        if dropout_active and net.dropout_p > 0.0:
            keep = 1.0 - net.dropout_p
            drop_mask = (rng.random(size=h.shape) < keep).astype(np.float64) / keep
            hd = h * drop_mask
        else:
            drop_mask = None
            hd = h

        draws = branch_draws(mode, rng, ad.n, batch, ad.rank)
        c = branch_forward(mode, ad.mean_a, omega, hd, draws)

        e_b = None
        b_used = ad.b
        if layer.g_b is not None and mode != "mean":
            omega_b = (layer.g_b * layer.g_b) / net.b_std_scale
            e_b = rng.standard_normal(size=ad.b.shape)
            b_used = ad.b + omega_b * e_b

        z = ad.w0 @ h + b_used @ c + layer.bias[:, None]
        h_out = np.tanh(z)
        caches.append(
            _LayerCache(
                hd=hd, drop_mask=drop_mask, omega=omega, mode=mode, draws=draws,
                c=c, b_used=b_used, e_b=e_b, h_out=h_out,
            )
        )
        h = h_out

    logits = net.head_w @ h + net.head_b[:, None]
    return ForwardCache(layer_caches=caches, logits=logits)


def net_backward(net: SmallNet, fwd: ForwardCache, d_logits: np.ndarray) -> np.ndarray:
    """Reverse-mode gradient of a scalar loss given d(loss)/d(logits), as
    one vector in the net's flat layout (zero for g_b in mean mode)."""
    grads: dict[str, np.ndarray] = {}
    if net.head_trainable:
        grads["head.w"] = d_logits @ fwd.layer_caches[-1].h_out.T
        grads["head.b"] = d_logits.sum(axis=1)
    dh = net.head_w.T @ d_logits

    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        ad = layer.adapter
        cache = fwd.layer_caches[i]
        dz = dh * (1.0 - cache.h_out * cache.h_out)

        db_used = dz @ cache.c.T
        grads[f"layers.{i}.b"] = db_used
        if layer.g_b is not None and cache.e_b is not None:
            grads[f"layers.{i}.g_b"] = (
                db_used * cache.e_b * (2.0 * layer.g_b / net.b_std_scale)
            )

        dc = cache.b_used.T @ dz
        d_mean_a, d_omega, dhd = branch_backward(
            cache.mode, ad.mean_a, cache.omega, cache.hd, cache.draws, dc
        )
        grads[f"layers.{i}.mean_a"] = d_mean_a
        if d_omega is None:  # mean mode: an explicit zero, not 0 * map', which can be -0.0
            grads[f"layers.{i}.g"] = np.zeros_like(ad.g)
        else:
            grads[f"layers.{i}.g"] = d_omega * map_derivative(net.param_map, ad.g)

        if cache.drop_mask is not None:
            dhd = dhd * cache.drop_mask
        dh = ad.w0.T @ dz + dhd
    return net.flatten(grads)


def kl_term(net: SmallNet, sigma_p: float) -> tuple[float, np.ndarray]:
    """Summed closed-form KL over every Bayesianized factor, with its
    gradient as one vector in the net's flat layout.

    Each adapter contributes ``gaussian_kl(mean_a, omega, sigma_p)`` with
    omega = map(g); a Bayesianized b contributes the same form with its
    scaled omega_b = g_b^2 / b_std_scale.  The head, and b when it is not
    Bayesianized, get a zero gradient.
    """
    value = 0.0
    grads: dict[str, np.ndarray] = {}
    for i, layer in enumerate(net.layers):
        ad = layer.adapter
        try:
            kl_a, d_mean_a, d_omega = gaussian_kl(ad.mean_a, apply_map(net.param_map, ad.g), sigma_p)
            value += kl_a
            grads[f"layers.{i}.mean_a"] = d_mean_a
            grads[f"layers.{i}.g"] = d_omega * map_derivative(net.param_map, ad.g)
            if layer.g_b is not None:
                omega_b = (layer.g_b * layer.g_b) / net.b_std_scale
                kl_b, d_b, d_omega_b = gaussian_kl(ad.b, omega_b, sigma_p)
                value += kl_b
                grads[f"layers.{i}.b"] = d_b
                grads[f"layers.{i}.g_b"] = d_omega_b * (2.0 * layer.g_b / net.b_std_scale)
        except ValueError as exc:
            raise NonFiniteLossError("kl") from ValueError(f"layer {i}: {exc}")
    if not np.isfinite(value):
        raise NonFiniteLossError("kl")
    return value, net.flatten(grads)


def _fmt(a: np.ndarray) -> str:
    return " ".join(float(x).hex() for x in np.asarray(a, dtype=np.float64).ravel())


def _parse(text: str, shape: tuple[int, ...], name: str) -> np.ndarray:
    """Hex-float payload of field ``name`` as a finite array of ``shape``."""
    try:
        values = [float.fromhex(tok) for tok in text.split()]
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    expected = int(np.prod(shape))
    if len(values) != expected:
        raise ValueError(f"{name}: expected {expected} entries, got {len(values)}")
    out = np.array(values, dtype=np.float64).reshape(shape)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name}: non-finite entry")
    return out


def save_net(net: SmallNet, path: str) -> None:
    """Textual model record (hex floats) that round-trips bit-exactly."""
    meta = {
        "param_map": net.param_map.value,
        "dropout_p": float(net.dropout_p).hex(),
        "head_trainable": int(net.head_trainable),
        "b_std_scale": float(net.b_std_scale).hex(),
        "n_layers": len(net.layers),
    }
    lines = [f"{_MODEL_MAGIC} {_MODEL_VERSION}", "meta " + json.dumps(meta, sort_keys=True)]
    for layer in net.layers:
        ad = layer.adapter
        has_gb = int(layer.g_b is not None)
        lines.append(f"layer {ad.m} {ad.n} {ad.rank} {has_gb}")
        lines += [f"{name} " + _fmt(getattr(ad, name)) for name in ("w0", "b", "mean_a", "g")]
        lines.append("bias " + _fmt(layer.bias))
        if layer.g_b is not None:
            lines.append("g_b " + _fmt(layer.g_b))
    c, h = net.head_w.shape
    lines.append(f"head {c} {h}")
    lines.append("w " + _fmt(net.head_w))
    lines.append("hb " + _fmt(net.head_b))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


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
    """Read a ``save_net`` record; a malformed one raises a ValueError naming the field."""
    with open(path, "r", encoding="ascii") as fh:
        lines = iter(fh.read().splitlines())
    if next(lines, None) != f"{_MODEL_MAGIC} {_MODEL_VERSION}":
        raise ValueError(f"not a {_MODEL_MAGIC} v{_MODEL_VERSION} file: {path}")
    payload = _next_field(lines, "meta")
    try:
        meta = json.loads(payload)
        if not isinstance(meta, dict) or sorted(meta) != list(_META_KEYS):
            raise ValueError(f"keys must be {list(_META_KEYS)}, got {sorted(meta)}")
        n_layers = int(meta["n_layers"])
        if n_layers < 1:
            raise ValueError(f"n_layers must be >= 1, got {n_layers}")
        options = dict(
            param_map=ParamMap(meta["param_map"]),
            dropout_p=float.fromhex(meta["dropout_p"]),
            head_trainable=bool(meta["head_trainable"]),
            b_std_scale=float.fromhex(meta["b_std_scale"]),
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"meta: {exc}") from None

    layers: list[AdapterLayer] = []
    width = None
    for _ in range(n_layers):
        m, n, r, has_gb = _dims(_next_field(lines, "layer"), 4, "layer")
        if has_gb > 1:
            raise ValueError(f"layer: the g_b flag must be 0 or 1, got {has_gb}")
        if width is not None and n != width:
            raise ValueError(f"layer: input width {n} does not match the previous layer's {width}")
        fields = {
            name: _parse(_next_field(lines, name), shape, name)
            for name, shape in (("w0", (m, n)), ("b", (m, r)), ("mean_a", (r, n)), ("g", (r, n)))
        }
        bias = _parse(_next_field(lines, "bias"), (m,), "bias")
        g_b = _parse(_next_field(lines, "g_b"), (m, r), "g_b") if has_gb else None
        layers.append(AdapterLayer(adapter=VariationalAdapter(**fields), bias=bias, g_b=g_b))
        width = m
    c, h = _dims(_next_field(lines, "head"), 2, "head")
    if h != width:
        raise ValueError(f"head: input width {h} does not match the last layer's {width}")
    head_w = _parse(_next_field(lines, "w"), (c, h), "w")
    head_b = _parse(_next_field(lines, "hb"), (c,), "hb")
    if next(lines, None) is not None:
        raise ValueError("hb: trailing lines after the last field")
    return SmallNet(layers=layers, head_w=head_w, head_b=head_b, **options)
