"""SciPy stays out of the package.

Every CLI call starts a fresh interpreter, and SciPy more than doubles the
import time of ``bayeslora.cli``.  The package imports no SciPy module: no
command loads one, ``verify-theorems`` included (the full-weight oracle
factors its covariance blocks with NumPy's Cholesky), and no training
method does, the softplus-map bbb net included (``parammaps.map_derivative``
rebuilds ``expit`` from libm).  The probes run in fresh interpreters,
because the test process has long since loaded SciPy for its references.
The import builds no argparse parser either: ``main`` builds it on its first
call.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

TINY_INI = """\
[task]
n_train = 60
n_test = 40

[net]
hidden = 4

[train]
steps = 10
batch_size = 8

[suite]
methods = mle,map,mcd,ens,bbb,blob
seeds = 0
n_samples = 0,5
"""

# argv[1] is the work directory.
PROBE = """
import sys
from pathlib import Path


def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


import bayeslora.cli
assert loaded() == [], f"import bayeslora.cli loaded {loaded()}"
assert bayeslora.cli.build_parser.cache_info().currsize == 0, "import bayeslora.cli built the parser"

work = Path(sys.argv[1])
config = str(work / "tiny.ini")


def run(*argv):
    assert bayeslora.cli.main(list(argv)) == 0, argv
    assert loaded() == [], f"{argv[0]} loaded {loaded()}"


run("write-config", "--out-dir", str(work / "cfg"))
run("gen-data", "--config", config, "--out-dir", str(work / "data"))
run("race", "--square-steps", "20", "--softplus-steps", "20", "--record-every", "5",
    "--out-dir", str(work / "race"))
for method in ("mle", "map", "mcd", "ens", "bbb", "blob"):
    run("train", "--config", config, "--method", method, "--out-dir", str(work / method))
    for n in ("0", "5"):
        run("eval", "--config", config, "--model-dir", str(work / method), "--n-samples", n,
            "--out-dir", str(work / f"eval-{method}-{n}"))
run("suite", "--config", config, "--out-dir", str(work / "suite"))
run("verify-theorems", "--draws", "2000", "--flipout-draws", "2000", "--out-dir", str(work / "verify"))
"""

# bbb, the one softplus-map net, trained first thing in a fresh interpreter.
BBB_PROBE = """
import sys
from bayeslora.cli import main

work = sys.argv[1]
assert main(["train", "--config", work + "/tiny.ini", "--method", "bbb", "--out-dir", work + "/bbb"]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""


def _fresh(script: str, *args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_no_command_loads_scipy(tmp_path):
    (tmp_path / "tiny.ini").write_text(TINY_INI)
    _fresh(BBB_PROBE, str(tmp_path))
    _fresh(PROBE, str(tmp_path))
