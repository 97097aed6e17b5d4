"""The benchmark harness looks up library names from outside the library.

``bench/run.py`` wraps functions at the module attributes its spans name
and cuts ops at ``suite.train_method`` and the oracle groups of
``Verify.GROUPS``; renaming or deleting any of them, or changing the call
shape a span's name function expects, breaks ``--trace 1`` or the op cuts.
The probe installs the harness's tracer and calls through it: a few blob
training steps, the stacked training of the ens members, one sampled
prediction, the ens members' stacked N = 0 prediction, a small suite whose sampled cell predicts several counts in one
call, and a small oracle battery, whose block KL must reach the
log-determinant and the solve through the names the harness wraps.  It runs
in a subprocess because importing
the harness pins BLAS threads and edits the environment.

The harness also keeps its own copy of the benchmark config, ``GRID_INI``;
it must keep loading as ``configs/benchmark.ini`` does.
"""

import ast
import pathlib
import subprocess
import sys

from bayeslora.configio import load_config

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import run
from tracer import Tracer
lib = run.Lib()
tracer = Tracer()
run.register_spans(tracer, lib)
for name in ("train_method",) + run.Verify.GROUPS:
    getattr(lib.suite, name)

from dataclasses import replace
from bayeslora.configio import SuiteConfig
from bayeslora.tasks import TaskSpec
from bayeslora.training import TrainConfig

cfg = SuiteConfig(task=TaskSpec(n_train=40, n_test=20), hidden=(4,),
                  train=TrainConfig(steps=5, batch_size=8))
tracer.install()
train_ds, test_ds = lib.suite.generate_task(cfg.task, seed=1)
trained = lib.suite.train_method("blob", cfg, (train_ds.x, train_ds.y), 0)
lib.suite.predict_method(trained, test_ds.x, 2, 0)
ens = lib.suite.train_method("ens", cfg, (train_ds.x, train_ds.y), 0)
assert len(ens.models) == 3
lib.suite.predict_method(ens, test_ds.x, 0, 0)
results = lib.cli.run_suite(replace(cfg, methods=("ens", "mcd"), seeds=(0,), n_samples_list=(3, 0, 2)))
assert [(r.method, r.n_samples, r.status) for r in results] == [
    ("ens", 0, "ok"), ("mcd", 3, "ok"), ("mcd", 0, "ok"), ("mcd", 2, "ok")], results
lib.cli.verify_theorems(n_draws=2000, flipout_draws=50)
tracer.uninstall()

spans = tracer.aggregate(0, tracer.mark())
# The stacked ens forward, in training and at prediction, takes a
# (members, input_dim, batch) input, so the width label reads the input
# dimension: b2.
expected = ("network.backward.flipout", "network.kl_term", "training.elbo",
            "suite.train_method.blob", "suite.predict_method.n2", "suite.train_method.ens",
            "suite.predict_method.n0", "network.forward.mean.b2", "suite.run_suite", "baselines.predict_baseline",
            "suite.verify_theorems", "kl.kl_full_weight_regularized",
            "linalg.logdet_psd", "linalg.solve_psd")
missing = [name for name in expected if name not in spans]
assert not missing, f"spans not recorded: {missing}; recorded: {sorted(spans)}"
"""


def test_every_name_the_benchmark_binds_exists():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(BENCH)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_grid_config_loads_as_the_committed_config(tmp_path):
    """``GRID_INI``, read from the harness source without importing it and
    filled in at the committed config's steps and seeds, loads as exactly
    the config of ``configs/benchmark.ini``: a loader change that refuses a
    key the harness writes, or reads it differently, fails here."""
    tree = ast.parse((BENCH / "run.py").read_text())
    [grid_ini] = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["GRID_INI"]]
    path = tmp_path / "grid.ini"
    path.write_text(grid_ini.format(steps=6000, seed0=0, seeds="0,1,2,3,4"))
    assert load_config(str(path)) == load_config(str(ROOT / "configs" / "benchmark.ini"))
