"""Training loop for the Bayesian adapter network.

One step draws a minibatch, runs one stochastic forward pass, assembles

    loss = mean cross-entropy over the minibatch + kl_weight * KL

and applies two optimizers: an adaptive moment-based optimizer (AdamW
style, linear warmup then linear decay) for the likelihood gradients of
every trainable tensor, and plain gradient descent for the KL gradients
of the variational parameters, each adapter's mean_a and g (its one
Gaussian factor; b stays deterministic).  The split mirrors the two cost
characters: the likelihood term is noisy and benefits from adaptivity,
the KL term is deterministic and converges naturally under bare descent.
Both steps take whole vectors: AdamW the net's whole flat layout
(``SmallNet.pack``), descent its KL span.  The members of one method,
nets whose configs differ only in seed, train as one stacked program
(``network.stack_nets``) when they draw no noise: each keeps its own batch
stream, and the optimizers step the (members, layout) stack at once.

The KL weight follows a per-minibatch schedule, ascending (blob) or
uniform (bbb), whose warm-up window M is a pseudo-rescaled epoch: the
dataset length L0 is replaced by L* = 100 * L0**(pi/gamma) so that small
and large datasets share a comparable warm-up horizon.  Weights sum to one
over that window and then hold at their final value.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .adapter import VariationalAdapter
from .network import (
    NonFiniteLossError,
    SmallNet,
    all_finite,
    cross_entropy,
    kl_term,
    label_index,
    net_backward,
    net_forward,
    softmax_columns,
    stack_nets,
)
from .parammaps import ParamMap, inverse_map
from .textio import write_csv

__all__ = [
    "TrainConfig",
    "StepRecord",
    "ElboResult",
    "TrainingDivergedError",
    "kl_window",
    "kl_weights",
    "init_adapter",
    "build_small_net",
    "elbo_minibatch",
    "train",
    "predict",
    "write_trajectory_csv",
    "lr_factor",
    "AdamW",
    "Sgd",
]

KL_MODES = ("uniform", "blob_ascending", "off")
SAMPLING_MODES = ("flipout", "shared", "none")


class TrainingDivergedError(RuntimeError):
    """Training aborted because the loss went non-finite."""

    def __init__(self, step: int, component: str):
        self.step = step
        self.component = component
        super().__init__(f"non-finite {component} loss at step {step}")


@dataclass
class TrainConfig:
    sigma_p: float = 0.2
    epsilon: float = 0.05          # init scale of the std parameter g
    lr_likelihood: float = 1e-2
    lr_kl: float = 1e-2
    steps: int = 2000
    batch_size: int = 32
    seed: int = 0
    warmup_ratio: float = 0.06
    weight_decay: float = 0.0
    dropout_p: float = 0.0
    param_map: ParamMap = ParamMap.SQUARE
    sampling: str = "flipout"          # flipout | shared | none
    kl_mode: str = "blob_ascending"    # uniform | blob_ascending | off
    gamma: float = 8.0

    def __post_init__(self) -> None:
        for name in ("steps", "batch_size", "seed"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        positive = {
            "sigma_p": self.sigma_p, "epsilon": self.epsilon,
            "lr_likelihood": self.lr_likelihood, "lr_kl": self.lr_kl,
            "batch_size": self.batch_size, "gamma": self.gamma,
        }
        for name, value in positive.items():
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("steps", "weight_decay"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative 64-bit integer")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ValueError("dropout_p must be in [0, 1)")
        if not (0.0 <= self.warmup_ratio <= 1.0):
            raise ValueError(f"warmup_ratio must be in [0, 1], got {self.warmup_ratio}")
        if self.sampling not in SAMPLING_MODES:
            raise ValueError(f"sampling must be one of {SAMPLING_MODES}")
        if self.kl_mode not in KL_MODES:
            raise ValueError(f"kl_mode must be one of {KL_MODES}")


def kl_window(config: TrainConfig, n_examples: int) -> int:
    """Warm-up window M = ceil(L* / batch_size) minibatches, where
    L* = 100 * L0**(pi/gamma) is the pseudo-rescaled length of a dataset
    of L0 = n_examples."""
    if n_examples < 1:
        raise ValueError("dataset must be nonempty")
    try:
        l_star = 100.0 * float(n_examples) ** (math.pi / config.gamma)
    except OverflowError:
        raise ValueError(f"gamma = {config.gamma} overflows L* = 100 * L0**(pi/gamma)") from None
    return max(1, math.ceil(l_star / config.batch_size))


def kl_weights(config: TrainConfig, n_examples: int) -> list[float]:
    """KL weight of each of the ``config.steps`` steps, in step order.

    Over the window M of ``kl_window`` the uniform weights are 1/M and the
    ascending ones 2^i / (2^(M+1) - 2), so both sum to one; after it each
    holds at its final value.  Mode "off" gives zeros and never computes L*,
    which a tiny gamma overflows.
    """
    if config.kl_mode == "off":
        return [0.0] * config.steps
    window = kl_window(config, n_examples)
    if config.kl_mode == "uniform":
        return [1.0 / window] * config.steps
    # Stable form: exact powers of two, no overflow for a large window.
    denom = 1.0 - 2.0 ** (-window)
    return [2.0 ** (min(step, window) - window - 1) / denom for step in range(1, config.steps + 1)]


def init_adapter(
    w0: np.ndarray, bias: np.ndarray, r: int, config: TrainConfig, rng: np.random.Generator
) -> VariationalAdapter:
    """Fresh rank-r adapter on the frozen layer (w0, bias): g uniform on
    [eps/sqrt(2), eps], then mean_a uniform on +/- sqrt(6/n), b zero.

    For a non-square parameter map the raw g is chosen so the initial
    standard deviation omega matches the square map's, keeping variants
    comparable at step 0.
    """
    m, n = w0.shape
    g_raw = rng.uniform(config.epsilon / math.sqrt(2.0), config.epsilon, size=(r, n))
    if config.param_map is ParamMap.SQUARE:
        g = g_raw
    else:
        g = inverse_map(config.param_map, g_raw * g_raw)
    bound = math.sqrt(6.0 / n)
    mean_a = rng.uniform(-bound, bound, size=(r, n))
    return VariationalAdapter(w0=w0, b=np.zeros((m, r)), mean_a=mean_a, g=g, bias=bias)


def build_small_net(
    input_dim: int,
    hidden: tuple[int, ...],
    n_classes: int,
    rank: int,
    config: TrainConfig,
    zero_g: bool = False,
) -> SmallNet:
    """Random frozen backbone plus a head, drawn from ``config.seed``; the
    head always trains.  Each dense layer draws its w0 and bias, and
    ``init_adapter`` builds its whole adapter from them.

    The requested rank is clipped per layer to min(m, n) - 1.  ``zero_g``
    pins every std parameter to zero for non-Bayesian baselines (valid
    only under the square map, where omega = 0 means no weight noise).
    """
    if not hidden:
        raise ValueError("need at least one hidden layer")
    if zero_g and config.param_map is not ParamMap.SQUARE:
        raise ValueError("zero_g requires the square parameter map")
    rng = np.random.default_rng(config.seed)
    dims = [input_dim, *hidden]
    layers: list[VariationalAdapter] = []
    for n_in, n_out in zip(dims[:-1], dims[1:]):
        w0 = rng.normal(0.0, 1.0 / math.sqrt(n_in), size=(n_out, n_in))
        bias = rng.uniform(-0.1, 0.1, size=n_out)
        r_eff = max(1, min(rank, min(n_out, n_in) - 1))
        adapter = init_adapter(w0, bias, r_eff, config, rng)
        if zero_g:
            adapter.g = np.zeros_like(adapter.g)
        layers.append(adapter)
    head_w = rng.normal(0.0, 0.5 / math.sqrt(hidden[-1]), size=(n_classes, hidden[-1]))
    head_b = np.zeros(n_classes)
    return SmallNet(
        layers=layers,
        head_w=head_w,
        head_b=head_b,
        param_map=config.param_map,
        dropout_p=config.dropout_p,
    )


@dataclass
class ElboResult:
    loss: float
    likelihood: float
    kl_value: float
    kl_weight: float
    train_acc: float
    likelihood_grad: np.ndarray        # in the net's flat layout
    kl_grad: np.ndarray | None         # over the layout's kl_span; None when kl_weight is 0


def elbo_minibatch(
    net: SmallNet,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    config: TrainConfig,
    kl_weight: float,
    seed: int,
) -> ElboResult:
    """Loss and gradients for one minibatch (rows of x_batch are examples).

    Runs one stochastic pass for the likelihood term (under flipout, one
    pass already perturbs each example's weights apart); the KL term is
    evaluated in closed form whenever the KL path is active.  Gradients
    come back split by path, as flat-layout vectors, so the two optimizers
    can consume them separately.  A stacked net takes one (batch, features)
    minibatch per member and returns every value and gradient per member.
    """
    if x_batch.shape[-2] < 1:
        raise ValueError("batch must be nonempty")
    if not (0.0 <= kl_weight <= 1.0):
        raise ValueError(f"kl_weight must be in [0, 1], got {kl_weight}")
    h0 = np.ascontiguousarray(x_batch.swapaxes(-1, -2))
    labels = np.asarray(y_batch, dtype=np.intp)
    batch = h0.shape[-1]
    mode = {"flipout": "flipout", "shared": "shared", "none": "mean"}[config.sampling]
    rng = np.random.default_rng(seed) if mode != "mean" or net.dropout_p > 0.0 else None  # else nothing is drawn

    fwd = net_forward(net, h0, mode=mode, rng=rng)
    probs = softmax_columns(fwd.logits)
    likelihood = cross_entropy(probs, labels)
    if not all_finite(likelihood):
        raise NonFiniteLossError("likelihood")
    correct = np.argmax(probs, axis=-2) == labels
    d_logits = probs  # (probs - one-hot) / batch, written over probs
    d_logits[label_index(labels)] -= 1.0
    d_logits /= batch
    lik_grad = net_backward(net, fwd, d_logits)

    if kl_weight > 0.0:
        kl_value, kl_grad = kl_term(net, config.sigma_p)
    else:
        kl_value, kl_grad = 0.0, None

    loss = likelihood + kl_weight * kl_value
    if correct.ndim == 1:
        train_acc = int(np.count_nonzero(correct)) / batch
    else:  # one accuracy per member
        train_acc = np.count_nonzero(correct, axis=-1) / batch
    return ElboResult(
        loss=loss,
        likelihood=likelihood,
        kl_value=kl_value,
        kl_weight=kl_weight,
        train_acc=train_acc,
        likelihood_grad=lik_grad,
        kl_grad=kl_grad,
    )


def lr_factor(step: int, total_steps: int, warmup_ratio: float) -> float:
    """Linear warmup to 1.0 then linear decay toward 0 (1-based step)."""
    warmup = max(1, round(warmup_ratio * total_steps))
    t0 = step - 1
    if t0 < warmup:
        return (t0 + 1) / warmup
    if total_steps <= warmup:
        return 1.0
    return max(0.0, (total_steps - t0) / (total_steps - warmup))


class AdamW:
    """Adaptive moment-based descent with decoupled weight decay.

    Steps one flat parameter vector with whole-vector ufuncs; the moments
    and two scratch vectors are allocated at the first step with the
    vector's length, and every step writes into them.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float, weight_decay: float = 0.0):
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self._m = self._v = self._a = self._b = None

    def step(self, params: np.ndarray, grads: np.ndarray, factor: float) -> None:
        """Update ``params`` in place from ``grads`` of the same shape."""
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        lr_t = self.lr * factor
        if self._m is None:
            self._m, self._v, self._a, self._b = (np.zeros_like(params) for _ in range(4))
        m, v, a, b = self._m, self._v, self._a, self._b
        m *= self.beta1
        m += np.multiply(grads, 1.0 - self.beta1, out=a)
        v *= self.beta2
        v += np.multiply(np.multiply(grads, 1.0 - self.beta2, out=a), grads, out=a)
        np.add(np.sqrt(np.divide(v, bc2, out=a), out=a), self.eps, out=a)
        update = np.divide(np.divide(m, bc1, out=b), a, out=b)
        if self.weight_decay:
            update += np.multiply(params, self.weight_decay, out=a)
        params -= np.multiply(update, lr_t, out=b)


class Sgd:
    """Plain gradient descent, no momentum, on one flat parameter vector."""

    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: np.ndarray, grads: np.ndarray, factor: float) -> None:
        params -= (self.lr * factor) * grads


@dataclass
class StepRecord:
    step: int
    likelihood_loss: float
    kl_value: float
    kl_weight: float
    train_acc: float


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    """Index batches of min(batch_size, n) examples from full shuffled epochs,
    one fresh permutation per epoch; an epoch's leftover tail is skipped."""
    take = min(batch_size, n)
    while True:
        order = rng.permutation(n)
        for start in range(0, n - take + 1, take):
            yield order[start : start + take]


def train(
    members: Sequence[tuple[SmallNet, TrainConfig]],
    dataset: tuple[np.ndarray, np.ndarray],
) -> list[list[StepRecord]]:
    """Run the full minibatch loop for the (net, config) members of one
    method, whose configs differ only in seed; the nets are updated in
    place, and one log per member comes back.

    A member's batch order, per-step sampling noise, and therefore whole
    trajectory are functions of its seed alone; each step's KL weight
    comes from ``kl_weights`` for the dataset.

    One member trains on its own flat layout: on entry its trainable arrays
    are packed into one vector (``SmallNet.pack``), and on return every
    trainable array of the net is a view into it.  Several members train as
    one stacked net on the (members, layout) stack of ``stack_nets``, each
    member's arrays views of its row, so each step runs every member's math
    in one pass, bit for bit its own step.  Only members that draw no noise
    (sampling "none", no dropout) stack; others raise a ValueError.

    AdamW steps the whole layout at once.  Plain descent steps only the
    layout's tail ``SmallNet.kl_span``, which holds exactly the arrays with
    a KL gradient.
    """
    x, y = dataset
    if x.shape[0] < 1:
        raise ValueError("dataset must be nonempty")
    if not members:
        raise ValueError("train needs at least one member")
    nets = [net for net, _ in members]
    config = members[0][1]
    if any(replace(c, seed=config.seed) != config for _, c in members):
        raise ValueError("the members' configs must differ only in seed")
    if len(members) > 1 and (config.sampling != "none" or config.dropout_p > 0.0):
        raise ValueError("only members that draw no noise (sampling 'none', no dropout) train together")
    weights = kl_weights(config, x.shape[0])
    streams = [np.random.SeedSequence(c.seed).spawn(2) for _, c in members]  # (batch, noise) per member
    batches = [_batches(x.shape[0], config.batch_size, np.random.default_rng(batch_ss)) for batch_ss, _ in streams]
    # One vector draw yields the same seeds as one scalar integers() call per
    # step.  Members that train together draw no noise, so one list serves.
    step_seeds = np.random.default_rng(streams[0][1]).integers(0, 2**63, size=config.steps).tolist()

    net, params = (nets[0], nets[0].pack()) if len(nets) == 1 else stack_nets(nets)
    kl_params = params[..., net.kl_span]
    adam = AdamW(lr=config.lr_likelihood, weight_decay=config.weight_decay)
    sgd = Sgd(lr=config.lr_kl)

    logs: list[list[StepRecord]] = [[] for _ in members]
    for step, (step_seed, weight) in enumerate(zip(step_seeds, weights, strict=True), start=1):
        idx = next(batches[0]) if len(batches) == 1 else np.array([next(b) for b in batches])
        try:
            result = elbo_minibatch(net, x[idx], y[idx], config, weight, step_seed)
        except NonFiniteLossError as err:
            raise TrainingDivergedError(step, err.component) from err
        factor = lr_factor(step, config.steps, config.warmup_ratio)
        adam.step(params, result.likelihood_grad, factor)
        if result.kl_grad is not None:
            sgd.step(kl_params, weight * result.kl_grad, factor)
        if len(logs) == 1:
            rows = [(result.likelihood, result.kl_value, result.train_acc)]
        else:  # one value per member, but a KL left out at weight 0 is a plain 0.0
            kl_values = np.broadcast_to(result.kl_value, len(logs))
            rows = zip(result.likelihood.tolist(), kl_values.tolist(), result.train_acc.tolist())
        for log, (likelihood, kl_value, train_acc) in zip(logs, rows):
            log.append(StepRecord(step, likelihood, kl_value, weight, train_acc))
    return logs


def predict(net: SmallNet, x: np.ndarray, n_samples_list: Sequence[int], seed: int = 0) -> list[np.ndarray]:
    """Class probabilities, one row per example, for each sample count N in
    ``n_samples_list``, in its order.

    N = 0 is the softmax of the member-averaged posterior-mean logits
    (dropout off), where a single net is one member and a ``stack_nets``
    net averages its members.  N >= 1, which a stacked net refuses,
    averages the softmax outputs of N stochastic passes (weight noise
    shared across the batch within a pass, dropout active if the net
    carries it).  The counts share one stream of max(N) passes drawn from
    ``seed``: the prediction at N is its running mean after pass N, bit for
    bit a separate N-pass call.
    """
    if any(n < 0 for n in n_samples_list):
        raise ValueError("n_samples must be >= 0")
    wanted, probs = set(n_samples_list), {}
    top = max(wanted, default=0)
    if top and net.members:
        raise ValueError(f"a stacked net predicts only at N = 0, got N = {top}")
    h0 = np.ascontiguousarray(np.asarray(x, dtype=np.float64).T)
    if 0 in wanted:
        logits = net_forward(net, np.broadcast_to(h0, (*net.members, *h0.shape)), mode="mean").logits
        probs[0] = softmax_columns(logits.reshape(-1, *logits.shape[-2:]).mean(axis=0)).T
    if top:
        rng = np.random.default_rng(seed)
        acc = np.zeros((net.n_classes, h0.shape[1]))
        for n in range(1, top + 1):
            fwd = net_forward(net, h0, mode="shared", rng=rng)
            acc += softmax_columns(fwd.logits)
            if n in wanted:
                probs[n] = (acc / n).T
    return [probs[n] for n in n_samples_list]


def write_trajectory_csv(log: list[StepRecord], path: str) -> None:
    write_csv(path, [f.name for f in fields(StepRecord)], map(astuple, log))
