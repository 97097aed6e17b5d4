"""The benchmark harness looks up library names from outside the library.

``bench/run.py`` wraps functions at the module attributes its spans name
and cuts ops at ``suite.train_method`` and the oracle groups of
``Verify.GROUPS``; renaming or deleting any of them breaks ``--trace 1`` or
the op cuts.  The probe runs in a subprocess because importing the harness
pins BLAS threads and edits the environment.
"""

import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import run
from tracer import Tracer
lib = run.Lib()
run.register_spans(Tracer(), lib)
for name in ("train_method",) + run.Verify.GROUPS:
    getattr(lib.suite, name)
"""


def test_every_name_the_benchmark_binds_exists():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(BENCH)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
