"""Bayesian low-rank adapters trained by backpropagation.

Library layout:

* ``adapter``   - the variational low-rank adapter, its per-mode layer op
  and ``ShapeError``;
* ``kl``        - closed-form and full-weight KL routes, both on an omega
  array, the second by column blocks, with ``vec`` and the stacked PSD
  log-determinant/solve it needs, all in NumPy;
* ``parammaps`` - square vs softplus std parameterizations and their race;
* ``network``   - frozen-backbone net with hand-written gradients;
* ``training``  - ELBO minibatch loop, KL re-weighting schedule, predict;
* ``baselines`` - the method table (mle / map / mcd / ens / bbb / blob) and
  its one trainer and predictor;
* ``metrics``   - one ``ece`` report of accuracy, ECE and NLL, reliability bins;
* ``tasks``     - synthetic datasets with controllable shift;
* ``configio``  - the INI config file: ``load_config`` and the example writer;
* ``suite``     - experiment orchestration and theorem verification;
* ``textio``    - the one byte format of every CSV, JSON and model file;
* ``cli``       - the ``bayeslora`` command-line harness.
"""

from .adapter import (
    VariationalAdapter,
    branch_draws,
    forward_flipout,
    forward_mean,
    forward_naive_shared,
)
from .kl import (
    FullWeightGaussian,
    PriorSpec,
    build_full_posterior,
    build_full_prior,
    gaussian_kl,
    kl_closed_form,
    kl_full_weight_regularized,
)
from .metrics import CalibrationReport, ece
from .parammaps import ParamMap, apply_map, convergence_race, kl_grad_rho
from .tasks import Dataset, TaskSpec, generate_task
from .training import (
    TrainConfig,
    build_small_net,
    elbo_minibatch,
    init_adapter,
    kl_window,
    kl_weights,
    predict,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "VariationalAdapter",
    "branch_draws",
    "forward_flipout",
    "forward_mean",
    "forward_naive_shared",
    "FullWeightGaussian",
    "PriorSpec",
    "build_full_posterior",
    "build_full_prior",
    "gaussian_kl",
    "kl_closed_form",
    "kl_full_weight_regularized",
    "CalibrationReport",
    "ece",
    "ParamMap",
    "apply_map",
    "convergence_race",
    "kl_grad_rho",
    "Dataset",
    "TaskSpec",
    "generate_task",
    "TrainConfig",
    "build_small_net",
    "elbo_minibatch",
    "init_adapter",
    "kl_window",
    "kl_weights",
    "predict",
    "train",
    "__version__",
]
