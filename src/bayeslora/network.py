"""Frozen-backbone classification network with adapters and hand-written gradients.

The network is a desk-scale stand-in for a large pre-trained model: a few
dense tanh layers whose weights are randomly initialized and then frozen,
each carrying a low-rank adapter, followed by a softmax classification
head.  Only the adapter parameters (b, mean_a, g), optionally a
Bayesianized b, and the head receive gradients.

Gradients are reverse-mode and written out explicitly (through the
flipout perturbation, through omega = map(g), and through the closed-form
KL); the test suite pins every path against central finite differences.

Input batches are column-major inside this module: an (n, batch) array
holds one example per column.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .adapter import VariationalAdapter
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


class NonFiniteLossError(ValueError):
    """A loss component came out NaN/Inf; the component is named."""

    def __init__(self, component: str, step: int | None = None):
        self.component = component
        self.step = step
        at = f" at step {step}" if step is not None else ""
        super().__init__(f"non-finite {component} loss{at}")


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

    def bayesianize_b(self) -> bool:
        return any(layer.g_b is not None for layer in self.layers)

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

    def trainable_params(self) -> dict[str, np.ndarray]:
        """Mutable views of every trainable array, keyed by a stable name."""
        return {key: getattr(owner, attr) for key, owner, attr in self._param_slots()}

    def bind_params(self, arrays: dict[str, np.ndarray]) -> None:
        """Rebind every trainable array to the same-shaped array under its key."""
        for key, owner, attr in self._param_slots():
            if arrays[key].shape != getattr(owner, attr).shape:
                raise ShapeError(f"{key} must keep shape {getattr(owner, attr).shape}")
            setattr(owner, attr, arrays[key])

    def backbone_arrays(self) -> dict[str, np.ndarray]:
        """The frozen tensors, for freeze-invariance checks."""
        frozen: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            frozen[f"layers.{i}.w0"] = layer.adapter.w0
            frozen[f"layers.{i}.bias"] = layer.bias
        if not self.head_trainable:
            frozen["head.w"] = self.head_w
            frozen["head.b"] = self.head_b
        return frozen


def softmax_columns(u: np.ndarray) -> np.ndarray:
    shifted = u - u.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true class (columns = examples)."""
    picked = probs[labels, np.arange(probs.shape[1])]
    with np.errstate(divide="ignore"):
        return float(-np.mean(np.log(picked)))


def _rademacher(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return 2.0 * rng.integers(0, 2, size=(rows, cols)).astype(np.float64) - 1.0


@dataclass
class _LayerCache:
    h_in: np.ndarray
    hd: np.ndarray
    drop_mask: np.ndarray | None
    omega: np.ndarray
    mode: str
    s: np.ndarray | None             # flipout input-side signs (n, batch)
    t: np.ndarray | None             # flipout output-side signs (batch, r)
    noise: np.ndarray | None         # base noise e (r, n), flipout and shared
    a_shared: np.ndarray | None
    c: np.ndarray
    b_used: np.ndarray
    e_b: np.ndarray | None
    omega_b: np.ndarray | None
    h_out: np.ndarray


@dataclass
class ForwardCache:
    layer_caches: list[_LayerCache]
    h_last: np.ndarray
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
    is: dropout mask, then (s, t, e) for flipout or e for shared, then the
    b-noise when b is Bayesianized.  Dropout applies to the adapter-branch
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
        m, n, r = ad.m, ad.n, ad.rank
        omega = apply_map(net.param_map, ad.g)

        if dropout_active and net.dropout_p > 0.0:
            keep = 1.0 - net.dropout_p
            drop_mask = (rng.random(size=h.shape) < keep).astype(np.float64) / keep
            hd = h * drop_mask
        else:
            drop_mask = None
            hd = h

        s = t = noise = a_shared = None
        if mode == "flipout":
            # The signs are +/-1 by construction, so the hot path skips the
            # checks that FlipoutMasks runs for outside callers.
            s = _rademacher(rng, n, batch)
            t = _rademacher(rng, batch, r)
            noise = rng.standard_normal(size=(r, n))
            perturb = ((noise * omega) @ (hd * s)) * t.T
            c = ad.mean_a @ hd + perturb
        elif mode == "shared":
            noise = rng.standard_normal(size=(r, n))
            a_shared = ad.mean_a + omega * noise
            c = a_shared @ hd
        else:
            c = ad.mean_a @ hd

        e_b = None
        omega_b = None
        b_used = ad.b
        if layer.g_b is not None and mode != "mean":
            omega_b = (layer.g_b * layer.g_b) / net.b_std_scale
            e_b = rng.standard_normal(size=ad.b.shape)
            b_used = ad.b + omega_b * e_b

        z = ad.w0 @ h + b_used @ c + layer.bias[:, None]
        h_out = np.tanh(z)
        caches.append(
            _LayerCache(
                h_in=h, hd=hd, drop_mask=drop_mask, omega=omega, mode=mode,
                s=s, t=t, noise=noise, a_shared=a_shared, c=c,
                b_used=b_used, e_b=e_b, omega_b=omega_b, h_out=h_out,
            )
        )
        h = h_out

    logits = net.head_w @ h + net.head_b[:, None]
    return ForwardCache(layer_caches=caches, h_last=h, logits=logits)


def net_backward(net: SmallNet, fwd: ForwardCache, d_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Reverse-mode gradients of a scalar loss given d(loss)/d(logits)."""
    grads: dict[str, np.ndarray] = {}
    if net.head_trainable:
        grads["head.w"] = d_logits @ fwd.h_last.T
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
        dmap = map_derivative(net.param_map, ad.g)
        if cache.mode == "flipout":
            grads[f"layers.{i}.mean_a"] = dc @ cache.hd.T
            q = cache.noise * cache.omega
            r_mat = cache.hd * cache.s
            dqr = dc * cache.t.T
            dq = dqr @ r_mat.T
            dr = q.T @ dqr
            dhd = ad.mean_a.T @ dc + dr * cache.s
            grads[f"layers.{i}.g"] = (dq * cache.noise) * dmap
        elif cache.mode == "shared":
            da_shared = dc @ cache.hd.T
            grads[f"layers.{i}.mean_a"] = da_shared
            grads[f"layers.{i}.g"] = (da_shared * cache.noise) * dmap
            dhd = cache.a_shared.T @ dc
        else:
            grads[f"layers.{i}.mean_a"] = dc @ cache.hd.T
            grads[f"layers.{i}.g"] = np.zeros_like(ad.g)
            dhd = ad.mean_a.T @ dc

        if cache.drop_mask is not None:
            dhd = dhd * cache.drop_mask
        dh = ad.w0.T @ dz + dhd
    return grads


def kl_term(net: SmallNet, sigma_p: float) -> tuple[float, dict[str, np.ndarray]]:
    """Summed closed-form KL over every Bayesianized factor, with gradients.

    Per adapter: (||mean_a||^2 + ||omega||^2) / (2 sigma_p^2)
    - sum log omega + count * (log sigma_p - 1/2), with omega = map(g).
    The same form applies to a Bayesianized b with its scaled omega_b.
    """
    sp2 = sigma_p * sigma_p
    log_sp = np.log(sigma_p)
    value = 0.0
    grads: dict[str, np.ndarray] = {}
    for i, layer in enumerate(net.layers):
        ad = layer.adapter
        omega = apply_map(net.param_map, ad.g)
        if np.any(omega <= 0.0):
            raise NonFiniteLossError("kl") from ValueError(
                f"layer {i}: some g entry maps to omega <= 0, log omega undefined"
            )
        value += float(
            (np.sum(ad.mean_a**2) + np.sum(omega**2)) / (2.0 * sp2)
            - np.sum(np.log(omega))
            + omega.size * (log_sp - 0.5)
        )
        grads[f"layers.{i}.mean_a"] = ad.mean_a / sp2
        d_omega = omega / sp2 - 1.0 / omega
        grads[f"layers.{i}.g"] = d_omega * map_derivative(net.param_map, ad.g)

        if layer.g_b is not None:
            omega_b = (layer.g_b * layer.g_b) / net.b_std_scale
            if np.any(omega_b <= 0.0):
                raise NonFiniteLossError("kl") from ValueError(
                    f"layer {i}: some g_b entry is zero, log omega_b undefined"
                )
            value += float(
                (np.sum(ad.b**2) + np.sum(omega_b**2)) / (2.0 * sp2)
                - np.sum(np.log(omega_b))
                + omega_b.size * (log_sp - 0.5)
            )
            grads[f"layers.{i}.b"] = ad.b / sp2
            d_omega_b = omega_b / sp2 - 1.0 / omega_b
            grads[f"layers.{i}.g_b"] = d_omega_b * (2.0 * layer.g_b / net.b_std_scale)
    if not np.isfinite(value):
        raise NonFiniteLossError("kl")
    return value, grads


def _fmt(a: np.ndarray) -> str:
    return " ".join(float(x).hex() for x in np.asarray(a, dtype=np.float64).ravel())


def _parse(text: str, shape: tuple[int, ...]) -> np.ndarray:
    values = [float.fromhex(tok) for tok in text.split()]
    expected = int(np.prod(shape))
    if len(values) != expected:
        raise ValueError(f"expected {expected} entries, got {len(values)}")
    return np.array(values, dtype=np.float64).reshape(shape)


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
        lines.append("w0 " + _fmt(ad.w0))
        lines.append("b " + _fmt(ad.b))
        lines.append("mean_a " + _fmt(ad.mean_a))
        lines.append("g " + _fmt(ad.g))
        lines.append("bias " + _fmt(layer.bias))
        if layer.g_b is not None:
            lines.append("g_b " + _fmt(layer.g_b))
    c, h = net.head_w.shape
    lines.append(f"head {c} {h}")
    lines.append("w " + _fmt(net.head_w))
    lines.append("hb " + _fmt(net.head_b))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_net(path: str) -> SmallNet:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != f"{_MODEL_MAGIC} {_MODEL_VERSION}":
        raise ValueError(f"not a {_MODEL_MAGIC} v{_MODEL_VERSION} file: {path}")
    if not lines[1].startswith("meta "):
        raise ValueError("missing meta line")
    meta = json.loads(lines[1][len("meta "):])
    idx = 2
    layers: list[AdapterLayer] = []
    for _ in range(int(meta["n_layers"])):
        tag, m, n, r, has_gb = lines[idx].split()
        if tag != "layer":
            raise ValueError(f"expected layer header, got {lines[idx]!r}")
        m, n, r, has_gb = int(m), int(n), int(r), int(has_gb)
        fields = {}
        idx += 1
        for name, shape in (
            ("w0", (m, n)), ("b", (m, r)), ("mean_a", (r, n)), ("g", (r, n)), ("bias", (m,)),
        ):
            key, _, payload = lines[idx].partition(" ")
            if key != name:
                raise ValueError(f"expected field {name!r}, got {key!r}")
            fields[name] = _parse(payload, shape)
            idx += 1
        g_b = None
        if has_gb:
            key, _, payload = lines[idx].partition(" ")
            if key != "g_b":
                raise ValueError("expected g_b field")
            g_b = _parse(payload, (m, r))
            idx += 1
        adapter = VariationalAdapter(
            w0=fields["w0"], b=fields["b"], mean_a=fields["mean_a"], g=fields["g"]
        )
        layers.append(AdapterLayer(adapter=adapter, bias=fields["bias"], g_b=g_b))
    tag, c, h = lines[idx].split()
    if tag != "head":
        raise ValueError("expected head header")
    c, h = int(c), int(h)
    idx += 1
    key, _, payload = lines[idx].partition(" ")
    head_w = _parse(payload, (c, h))
    idx += 1
    key, _, payload = lines[idx].partition(" ")
    head_b = _parse(payload, (c,))
    return SmallNet(
        layers=layers,
        head_w=head_w,
        head_b=head_b,
        param_map=ParamMap(meta["param_map"]),
        dropout_p=float.fromhex(meta["dropout_p"]),
        head_trainable=bool(meta["head_trainable"]),
        b_std_scale=float.fromhex(meta["b_std_scale"]),
    )
