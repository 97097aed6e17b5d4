"""The compared methods, with the one trainer and predictor they share.

Each method is one row of ``METHOD_TABLE``, under the name the CLI and
``results.csv`` use:

* mle  - deterministic adapter, cross-entropy only;
* map  - mle plus decoupled L2 weight decay;
* mcd  - deterministic training with dropout on the adapter-branch inputs,
  dropout kept active at evaluation, predictions averaged over N
  stochastic passes (one trained model, standard MC-dropout reading);
* ens  - independently seeded mle members, trained together as one stacked
  program, whose logits are averaged before the softmax;
* bbb  - the variational loop with the softplus std map, uniform KL
  weighting, and shared-noise sampling instead of flipout, Bayesianizing
  the a-factor only;
* blob - the shared configuration as given: square std map, ascending KL
  weighting, flipout.

A row says which ``TrainConfig`` fields the method overrides, whether its
std parameter is pinned to zero, whether it trains ``n_members`` members
or one, and whether it samples at prediction.  The bbb configuration
differs from the variational default in exactly three fields (param_map,
kl_mode, sampling), which is what makes the ablation grid well defined.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .network import SmallNet, stack_nets
from .network import softmax_columns  # noqa: F401  (bench/run.py traces this name here)
from .parammaps import ParamMap
from .training import StepRecord, TrainConfig, build_small_net, predict, train

__all__ = [
    "Method",
    "METHOD_TABLE",
    "METHODS",
    "SAMPLING_METHODS",
    "BaselineSpec",
    "BaselineModel",
    "derive_config",
    "member_count",
    "train_baseline",
    "predict_baseline",
]


@dataclass(frozen=True)
class Method:
    """One row of the method table."""

    changes: Callable[["BaselineSpec"], dict]  # TrainConfig fields the method overrides
    zero_g: bool     # std parameter pinned to zero (no weight noise)
    ensemble: bool   # trains spec.n_members members instead of one
    sampled: bool    # predicts from N stochastic passes; else every N is 0, the averaged member logits


_DETERMINISTIC = dict(
    sampling="none",
    kl_mode="off",
    param_map=ParamMap.SQUARE,
    weight_decay=0.0,
    dropout_p=0.0,
)

METHOD_TABLE: dict[str, Method] = {
    "mle": Method(lambda spec: _DETERMINISTIC, True, False, False),
    "map": Method(lambda spec: {**_DETERMINISTIC, "weight_decay": spec.weight_decay}, True, False, False),
    "mcd": Method(lambda spec: {**_DETERMINISTIC, "dropout_p": spec.dropout_p}, True, False, True),
    "ens": Method(lambda spec: _DETERMINISTIC, True, True, False),
    "bbb": Method(
        lambda spec: dict(param_map=ParamMap.SOFTPLUS, kl_mode="uniform", sampling="shared"),
        False, False, True,
    ),
    "blob": Method(lambda spec: {}, False, False, True),
}
METHODS = tuple(METHOD_TABLE)
# Methods whose predictions depend on the number of inference samples.
SAMPLING_METHODS = tuple(name for name, row in METHOD_TABLE.items() if row.sampled)


@dataclass(frozen=True)
class BaselineSpec:
    kind: str
    weight_decay: float = 1e-5   # map
    dropout_p: float = 0.1       # mcd
    n_members: int = 3           # ens

    def __post_init__(self) -> None:
        if self.kind not in METHOD_TABLE:
            raise ValueError(f"kind must be one of {METHODS}, got {self.kind!r}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ValueError("dropout_p must be in [0, 1)")
        if type(self.n_members) is not int or self.n_members < 1:
            raise ValueError(f"n_members must be an integer >= 1, got {self.n_members!r}")


@dataclass
class BaselineModel:
    spec: BaselineSpec
    models: list[SmallNet]
    logs: list[list[StepRecord]]


def derive_config(spec: BaselineSpec, config: TrainConfig) -> TrainConfig:
    """Training configuration for a method, derived from the shared one."""
    return replace(config, **METHOD_TABLE[spec.kind].changes(spec))


def member_count(spec: BaselineSpec) -> int:
    """Number of models the method trains: ``n_members`` for ens, else one."""
    return spec.n_members if METHOD_TABLE[spec.kind].ensemble else 1


def _member_seeds(seed: int, n_members: int) -> list[int]:
    """First member reuses the run seed (so a 1-member ensemble is exactly
    the single model); further members get independently spawned seeds."""
    children = np.random.SeedSequence(seed).spawn(n_members)
    extra = [int(child.generate_state(1, dtype=np.uint64)[0] % (2**63)) for child in children]
    return [seed] + extra[1:]


def train_baseline(
    spec: BaselineSpec,
    net_shape: tuple[int, tuple[int, ...], int, int],
    dataset: tuple[np.ndarray, np.ndarray],
    config: TrainConfig,
) -> BaselineModel:
    """Train the requested method; ``net_shape`` is (input_dim, hidden, n_classes, rank).
    The ens members train in one ``train`` call, as one stacked program."""
    row = METHOD_TABLE[spec.kind]
    run_config = derive_config(spec, config)
    members = []
    for member_seed in _member_seeds(run_config.seed, member_count(spec)):
        member_config = replace(run_config, seed=member_seed)
        members.append((build_small_net(*net_shape, member_config, zero_g=row.zero_g), member_config))
    logs = train(members, dataset)
    return BaselineModel(spec=spec, models=[net for net, _ in members], logs=logs)


def predict_baseline(
    model: BaselineModel,
    x: np.ndarray,
    n_samples_list: Sequence[int],
    seed: int = 0,
) -> list[np.ndarray]:
    """Class probabilities, one row per example, for each sample count N in
    ``n_samples_list``, from one ``predict`` call on the one model or, for
    several members (ens), their ``stack_nets`` view.  mcd, bbb and blob
    take every N as given; the other methods do not sample and read every
    N as 0, the softmax of the member-averaged posterior-mean logits.
    """
    net = model.models[0] if len(model.models) == 1 else stack_nets(model.models)[0]
    # min(n, 0) reads every N as 0, and still hands a negative N to predict's check.
    counts = n_samples_list if METHOD_TABLE[model.spec.kind].sampled else [min(n, 0) for n in n_samples_list]
    return predict(net, x, counts, seed)
