"""Training loop for the Bayesian adapter network.

One step draws a minibatch, runs K stochastic forward passes, assembles

    loss = mean cross-entropy over the K passes + kl_weight * KL

and applies two optimizers: an adaptive moment-based optimizer (AdamW
style, linear warmup then linear decay) for the likelihood gradients of
every trainable tensor, and plain gradient descent for the KL gradients
of the variational parameters.  The split mirrors the two cost characters:
the likelihood term is noisy and benefits from adaptivity, the KL term is
deterministic and converges naturally under bare descent.  Both steps
take whole vectors in the net's flat layout (``SmallNet.pack``).

The KL weight follows a per-minibatch schedule whose warm-up window is a
pseudo-rescaled epoch: the dataset length L0 is replaced by
L* = 100 * L0**(pi/gamma) so that small and large datasets share a
comparable warm-up horizon, unless ``TrainConfig.kl_window`` fixes it.
Weights sum to one over that window and then hold at their final value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adapter import VariationalAdapter
from .network import (
    AdapterLayer,
    NonFiniteLossError,
    SmallNet,
    cross_entropy,
    kl_term,
    net_backward,
    net_forward,
    softmax_columns,
)
from .parammaps import ParamMap, inverse_map

__all__ = [
    "TrainConfig",
    "StepRecord",
    "ElboResult",
    "TrainingDivergedError",
    "rescaled_length",
    "kl_window",
    "kl_weight_at",
    "init_adapter",
    "build_small_net",
    "elbo_minibatch",
    "train",
    "predict",
    "logits_mean",
    "write_trajectory_csv",
    "lr_factor",
    "AdamW",
    "Sgd",
]

KL_MODES = ("uniform", "blundell", "blob_ascending", "off")
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
    k_train_samples: int = 1
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
    kl_mode: str = "blob_ascending"    # uniform | blundell | blob_ascending | off
    gamma: float = 8.0
    literal_ascending_weights: bool = False
    kl_window: int | None = None       # warm-up window in minibatches; None or 0: from L*
    bayesianize_b: bool = False
    b_std_scale: float = 100.0

    def __post_init__(self) -> None:
        positive = {
            "sigma_p": self.sigma_p, "epsilon": self.epsilon,
            "k_train_samples": self.k_train_samples,
            "lr_likelihood": self.lr_likelihood, "lr_kl": self.lr_kl,
            "batch_size": self.batch_size, "gamma": self.gamma,
            "b_std_scale": self.b_std_scale,
        }
        for name, value in positive.items():
            if not (value > 0):
                raise ValueError(f"{name} must be positive, got {value}")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative 64-bit integer")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ValueError("dropout_p must be in [0, 1)")
        if self.sampling not in SAMPLING_MODES:
            raise ValueError(f"sampling must be one of {SAMPLING_MODES}")
        if self.kl_mode not in KL_MODES:
            raise ValueError(f"kl_mode must be one of {KL_MODES}")
        if self.kl_window is not None and self.kl_window < 0:
            raise ValueError(f"kl_window must be >= 0 (0 or None: from L*), got {self.kl_window}")


def rescaled_length(n_examples: int, gamma: float = 8.0) -> float:
    """Pseudo-rescaled dataset length L* = 100 * L0**(pi/gamma)."""
    if n_examples < 1:
        raise ValueError("dataset must be nonempty")
    return 100.0 * float(n_examples) ** (math.pi / gamma)


def kl_window(config: TrainConfig, n_examples: int) -> int:
    """Warm-up window M in minibatches: ``config.kl_window`` when set and
    non-zero, else ceil(L* / batch_size) for a dataset of n_examples."""
    if config.kl_window:
        return config.kl_window
    try:
        l_star = rescaled_length(n_examples, config.gamma)
    except OverflowError:
        raise ValueError(f"gamma = {config.gamma} overflows L* = 100 * L0**(pi/gamma)") from None
    return max(1, math.ceil(l_star / config.batch_size))


def kl_weight_at(config: TrainConfig, window: int, step: int) -> float:
    """KL weight for a 1-based step; saturates after the warm-up window.

    In ascending mode the literal weights 2^i / (2^M - 1) sum to about 2,
    so by default they are normalized to 2^i / (2^(M+1) - 2), which keeps
    the stated sum-to-one constraint; ``literal_ascending_weights``
    restores the unnormalized form.
    """
    if step < 1 or window < 1:
        raise ValueError(f"step and window must be >= 1, got step={step}, window={window}")
    if config.kl_mode == "off":
        return 0.0
    i = min(step, window)
    # Stable forms: exact powers of two, no overflow for a large window.
    denom = 1.0 - 2.0 ** (-window)
    if config.kl_mode == "uniform":
        return 1.0 / window
    if config.kl_mode == "blundell":
        return 2.0 ** (-i) / denom
    if config.literal_ascending_weights:
        return 2.0 ** (i - window) / denom
    return 2.0 ** (i - window - 1) / denom


def init_adapter(m: int, n: int, r: int, config: TrainConfig, rng: np.random.Generator) -> VariationalAdapter:
    """Fresh adapter: g uniform on [eps/sqrt(2), eps], mean_a uniform on
    +/- sqrt(6/n), b zero.

    For a non-square parameter map the raw g is chosen so the initial
    standard deviation omega matches the square map's, keeping variants
    comparable at step 0.
    """
    g_raw = rng.uniform(config.epsilon / math.sqrt(2.0), config.epsilon, size=(r, n))
    if config.param_map is ParamMap.SQUARE:
        g = g_raw
    else:
        g = inverse_map(config.param_map, g_raw * g_raw)
    bound = math.sqrt(6.0 / n)
    mean_a = rng.uniform(-bound, bound, size=(r, n))
    w0_placeholder = np.zeros((m, n))
    return VariationalAdapter(w0=w0_placeholder, b=np.zeros((m, r)), mean_a=mean_a, g=g)


def build_small_net(
    input_dim: int,
    hidden: tuple[int, ...],
    n_classes: int,
    rank: int,
    config: TrainConfig,
    zero_g: bool = False,
    head_trainable: bool = True,
) -> SmallNet:
    """Random frozen backbone (one adapter per dense layer) plus a trainable head,
    drawn from ``config.seed``.

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
    layers: list[AdapterLayer] = []
    for n_in, n_out in zip(dims[:-1], dims[1:]):
        w0 = rng.normal(0.0, 1.0 / math.sqrt(n_in), size=(n_out, n_in))
        bias = rng.uniform(-0.1, 0.1, size=n_out)
        r_eff = max(1, min(rank, min(n_out, n_in) - 1))
        adapter = init_adapter(n_out, n_in, r_eff, config, rng)
        adapter.w0 = w0
        if zero_g:
            adapter.g = np.zeros_like(adapter.g)
        g_b = None
        if config.bayesianize_b:
            g_b = rng.uniform(config.epsilon / math.sqrt(2.0), config.epsilon, size=(n_out, r_eff))
        layers.append(AdapterLayer(adapter=adapter, bias=bias, g_b=g_b))
    head_w = rng.normal(0.0, 0.5 / math.sqrt(hidden[-1]), size=(n_classes, hidden[-1]))
    head_b = np.zeros(n_classes)
    return SmallNet(
        layers=layers,
        head_w=head_w,
        head_b=head_b,
        param_map=config.param_map,
        dropout_p=config.dropout_p,
        head_trainable=head_trainable,
        b_std_scale=config.b_std_scale,
    )


@dataclass
class ElboResult:
    loss: float
    likelihood: float
    kl_value: float
    kl_weight: float
    train_acc: float
    likelihood_grad: np.ndarray        # in the net's flat layout
    kl_grad: np.ndarray | None         # likewise; None when kl_weight is 0


def elbo_minibatch(
    net: SmallNet,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    config: TrainConfig,
    kl_weight: float,
    seed: int,
) -> ElboResult:
    """Loss and gradients for one minibatch (rows of x_batch are examples).

    Runs K stochastic passes for the likelihood term; the KL term is
    evaluated in closed form whenever the KL path is active.  Gradients
    come back split by path, as flat-layout vectors, so the two optimizers
    can consume them separately.
    """
    if x_batch.shape[0] < 1:
        raise ValueError("batch must be nonempty")
    # Normalized schedules keep kl_weight in [0, 1]; the literal ascending
    # form deliberately overshoots 1 at saturation, so only sanity-check it.
    if not (kl_weight >= 0.0 and math.isfinite(kl_weight)):
        raise ValueError("kl_weight must be finite and >= 0")
    rng = np.random.default_rng(seed)
    h0 = np.ascontiguousarray(x_batch.T)
    labels = np.asarray(y_batch, dtype=np.intp)
    batch = h0.shape[1]
    k = config.k_train_samples
    mode = {"flipout": "flipout", "shared": "shared", "none": "mean"}[config.sampling]
    dropout_active = net.dropout_p > 0.0

    likelihood = 0.0
    probs_sum = np.zeros((net.n_classes, batch))
    onehot = np.zeros((net.n_classes, batch))
    onehot[labels, np.arange(batch)] = 1.0
    for i in range(k):
        fwd = net_forward(net, h0, mode=mode, rng=rng, dropout_active=dropout_active)
        probs = softmax_columns(fwd.logits)
        likelihood += cross_entropy(probs, labels) / k
        probs_sum += probs / k
        d_logits = (probs - onehot) / batch
        grad = net_backward(net, fwd, d_logits)
        if i == 0:
            lik_grad = grad if k == 1 else (1.0 / k) * grad
        else:
            lik_grad += (1.0 / k) * grad
    if not np.isfinite(likelihood):
        raise NonFiniteLossError("likelihood")

    if kl_weight > 0.0:
        kl_value, kl_grad = kl_term(net, config.sigma_p)
    else:
        kl_value, kl_grad = 0.0, None

    loss = likelihood + kl_weight * kl_value
    train_acc = float(np.mean(np.argmax(probs_sum, axis=0) == labels))
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
    are allocated at the first step with the vector's length.
    """

    def __init__(
        self,
        lr: float,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None

    def step(self, params: np.ndarray, grads: np.ndarray, factor: float) -> None:
        """Update ``params`` in place from ``grads`` of the same shape."""
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        lr_t = self.lr * factor
        if self._m is None:
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * grads
        v *= self.beta2
        v += (1.0 - self.beta2) * grads * grads
        update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        if self.weight_decay:
            update = update + self.weight_decay * params
        params -= lr_t * update


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
    net: SmallNet,
    dataset: tuple[np.ndarray, np.ndarray],
    config: TrainConfig,
) -> tuple[SmallNet, list[StepRecord]]:
    """Run the full minibatch loop; the net is updated in place.

    The batch order, the per-step sampling noise, and therefore the whole
    trajectory are functions of config.seed alone; each step's KL weight
    is ``kl_weight_at`` over the window ``kl_window`` of the dataset.

    On entry the trainable arrays are packed into one vector
    (``SmallNet.pack``), and on return every trainable array of the net is
    a view into it.  Both optimizers step the vector at once.  An array
    without a likelihood gradient (only ``g_b`` under sampling "none")
    sits at the end of the layout, outside the span AdamW steps, so it and
    its moments stay untouched; an array without a KL gradient gets a zero
    one, which leaves it bit for bit unchanged under plain descent.
    """
    x, y = dataset
    if x.shape[0] < 1:
        raise ValueError("dataset must be nonempty")
    # With the KL off every weight is 0, so L* (which a tiny gamma overflows) is never needed.
    window = kl_window(config, x.shape[0]) if config.kl_mode != "off" else 1
    root = np.random.SeedSequence(config.seed)
    batch_ss, noise_ss = root.spawn(2)
    batches = _batches(x.shape[0], config.batch_size, np.random.default_rng(batch_ss))
    step_seeds = np.random.default_rng(noise_ss)

    params = net.pack()
    span = params.size
    if config.sampling == "none":
        span -= sum(layer.g_b.size for layer in net.layers if layer.g_b is not None)
    adam = AdamW(lr=config.lr_likelihood, weight_decay=config.weight_decay)
    sgd = Sgd(lr=config.lr_kl)

    log: list[StepRecord] = []
    for step in range(1, config.steps + 1):
        idx = next(batches)
        weight = kl_weight_at(config, window, step)
        step_seed = int(step_seeds.integers(0, 2**63))
        try:
            result = elbo_minibatch(net, x[idx], y[idx], config, weight, step_seed)
        except NonFiniteLossError as err:
            raise TrainingDivergedError(step, err.component) from err
        factor = lr_factor(step, config.steps, config.warmup_ratio)
        adam.step(params[:span], result.likelihood_grad[:span], factor)
        if result.kl_grad is not None:
            sgd.step(params, weight * result.kl_grad, factor)
        log.append(
            StepRecord(
                step=step,
                likelihood_loss=result.likelihood,
                kl_value=result.kl_value,
                kl_weight=result.kl_weight,
                train_acc=result.train_acc,
            )
        )
    return net, log


def predict(net: SmallNet, x: np.ndarray, n_samples: int, seed: int = 0) -> np.ndarray:
    """Class probabilities, one row per example.

    n_samples = 0 uses the posterior-mean weights (and disables dropout);
    n_samples >= 1 averages the softmax outputs of that many stochastic
    passes (weight noise shared across the batch within a pass, dropout
    active if the net carries it).
    """
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    h0 = np.ascontiguousarray(np.asarray(x, dtype=np.float64).T)
    if n_samples == 0:
        fwd = net_forward(net, h0, mode="mean", rng=None, dropout_active=False)
        return softmax_columns(fwd.logits).T
    rng = np.random.default_rng(seed)
    acc = np.zeros((net.n_classes, h0.shape[1]))
    for _ in range(n_samples):
        fwd = net_forward(net, h0, mode="shared", rng=rng, dropout_active=net.dropout_p > 0.0)
        acc += softmax_columns(fwd.logits)
    return (acc / n_samples).T


def logits_mean(net: SmallNet, x: np.ndarray) -> np.ndarray:
    """Posterior-mean logits, one row per example (used by ensembles)."""
    h0 = np.ascontiguousarray(np.asarray(x, dtype=np.float64).T)
    fwd = net_forward(net, h0, mode="mean", rng=None, dropout_active=False)
    return fwd.logits.T


def write_trajectory_csv(log: list[StepRecord], path: str) -> None:
    lines = ["step,likelihood_loss,kl_value,kl_weight,train_acc"]
    for rec in log:
        lines.append(
            f"{rec.step},{rec.likelihood_loss!r},{rec.kl_value!r},{rec.kl_weight!r},{rec.train_acc!r}"
        )
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
