"""Bayesian low-rank adapters trained by backpropagation.

Library layout:

* ``linalg``    - vec and PSD log-determinant/solve;
* ``adapter``   - the variational low-rank adapter and its per-mode layer op;
* ``kl``        - closed-form, Monte-Carlo, and full-weight KL routes;
* ``parammaps`` - square vs softplus std parameterizations and their race;
* ``network``   - frozen-backbone net with hand-written gradients;
* ``training``  - ELBO minibatch loop, KL re-weighting schedule, predict;
* ``baselines`` - the method table (mle / map / mcd / ens / bbb / blob) and
  its one trainer and predictor;
* ``metrics``   - one ``ece`` report of accuracy, ECE and NLL, reliability bins;
* ``tasks``     - synthetic datasets with controllable shift;
* ``suite``     - experiment orchestration and theorem verification;
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
    kl_monte_carlo,
)
from .metrics import CalibrationReport, ece
from .parammaps import ParamMap, apply_map, convergence_race, kl_grad_rho
from .tasks import Dataset, TaskSpec, generate_task
from .training import (
    TrainConfig,
    build_small_net,
    elbo_minibatch,
    init_adapter,
    kl_weight_at,
    kl_window,
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
    "kl_monte_carlo",
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
    "kl_weight_at",
    "kl_window",
    "predict",
    "train",
    "__version__",
]
