"""bayeslora benchmark: the `grid`, `eval` and `verify` workloads.

    python3 bench/run.py --workload grid --seed 0 --seconds 35 --trace 0

Each workload is a closed loop with one client: the harness calls the
bayeslora CLI in-process, waits for the result, checks it, and calls again
until ``--seconds`` have passed (at least one full pass always runs).

* grid   - ``bayeslora suite`` over the benchmark grid (6 methods x 5 seeds x
           N in {0, 5, 10}; 500 train / 2000 test examples, batch 32) at
           200 steps.  One pass is one suite run; one op is one
           (method, seed) cell: its training and its predictions.
* eval   - ``bayeslora eval`` ops on models saved by ``bayeslora train`` in
           set-up: 6 methods x shift {none, small, large} x N {0, 5, 10} for
           the sampling methods (N = 0 for mle/map/ens), 36 ops per pass.
* verify - ``bayeslora verify-theorems`` at its CLI defaults.  One pass is
           one battery; one op is one of its oracle groups (posterior
           moments; KL equivalence; flipout and the parameterization race).

The workload seed selects one of 8 input variants (``seed % 8``): the suite
seeds and data seeds of `grid`, and the training and test-set seed of
`eval`.  `verify` runs at the CLI defaults whatever the seed.  Outputs are
checked against ``bench/references.json``; a mismatch is a failed op.

Every timing is CPU time of the harness's process, and each op's time is its
median over the run.  With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see bench/README.md).
"""

from __future__ import annotations

import os

# Pin BLAS threads before NumPy is imported, so the numbers measure the
# program and not the scheduler of a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("BAYESLORA_OUT_DIR", None)

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFS_PATH = BENCH_DIR / "references.json"
WORK_ROOT = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_out"

# Every timing is CPU time of this process (user + system, all threads).  On
# a shared virtual machine the hypervisor can take the vCPU away for a third
# of the wall time (steal), in spells of minutes; CPU time leaves that out.
# The program runs in this one thread (BLAS pinned to 1) and waits on nothing
# but the page cache, so on a dedicated machine its CPU time is its wall time.
CLOCK = time.process_time

WORKLOADS = ("grid", "eval", "verify")
VARIANTS = 8
SETUP_REPS = 7
METHODS = ("mle", "map", "mcd", "ens", "bbb", "blob")
SAMPLING = ("mcd", "bbb", "blob")
N_SAMPLES = (0, 5, 10)
SHIFTS = ("none", "small", "large")
# steps and suite seeds per variant; "tiny" is the smoke-test size.
SIZES = {"standard": {"steps": 200, "seeds": 5}, "tiny": {"steps": 40, "seeds": 1}}

# configs/benchmark.ini with steps and seeds left open; kept here so the
# benchmark's inputs do not change when the repository's config does.
GRID_INI = """\
[task]
generator = gauss_blobs
n_train = 500
n_test = 2000
n_classes = 2
input_dim = 2
noise_scale = 1.25
shift = none

[net]
hidden = 32,32
rank = 2

[train]
sigma_p = 0.2
epsilon = 0.05
k_train_samples = 1
lr_likelihood = 0.02
lr_kl = 0.01
steps = {steps}
batch_size = 32
seed = {seed0}
warmup_ratio = 0.06
weight_decay = 0.0
dropout_p = 0.0
param_map = square
sampling = flipout
bayesianize_b = false
b_std_scale = 100.0

[schedule]
mode = blob_ascending
gamma = 8.0
literal_ascending = false
n_minibatches = auto
rescaled_len = auto

[suite]
methods = mle,map,mcd,ens,bbb,blob
seeds = {seeds}
n_samples = 0,5,10
data_seed_offset = 1000

[baselines]
weight_decay = 1e-05
dropout_p = 0.1
n_members = 3
n_eval_samples = 10
"""

# Per-layer spans.  Leaves report calls and median per-call time; spans with
# traced children also report their self time.  Containers (a baseline kind,
# a CLI subcommand) report calls and self time only.
LEAF_SPANS = (
    "training.adamw_step", "training.sgd_step",
    "network.softmax_xent", "network.load_net", "network.save_net",
    "parammaps.apply_map", "parammaps.map_derivative", "parammaps.convergence_race",
    "metrics.ece", "metrics.export", "tasks.generate_task", "configio.load_config",
    "suite.write_results",
    "adapter.forward_flipout", "adapter.forward_naive_shared", "adapter.forward_mean",
    "kl.build_full_posterior", "kl.build_full_prior", "kl.kl_closed_form",
    "linalg.logdet_psd", "linalg.solve_psd",
)
PARENT_SPANS = (
    "training.elbo", "training.train",
    "network.forward.mean.b32", "network.forward.shared.b32", "network.forward.flipout.b32",
    "network.backward.mean", "network.backward.shared", "network.backward.flipout",
    "network.forward.mean.wide", "network.forward.shared.wide", "network.kl_term",
    "baselines.predict_baseline",
    "suite.run_suite", "suite.train_method", "suite.predict_method", "suite.verify_theorems",
    "kl.kl_full_weight_regularized",
)
CONTAINER_SPANS = tuple(
    [f"baselines.train_baseline.{k}" for k in ("mle", "map", "mc_dropout", "ensemble", "bbb")]
    + [f"cli.{c}" for c in ("train", "eval", "suite", "verify-theorems")]
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out: list[tuple[str, str]] = []
    for span in LEAF_SPANS + PARENT_SPANS + CONTAINER_SPANS:
        out.append((f"{span}.calls", "count"))
        if span not in CONTAINER_SPANS:
            out.append((f"{span}.us", "us"))
        if span not in LEAF_SPANS:
            out.append((f"{span}.self_ms", "ms"))
    out += [(f"suite.train_method.{m}.us_per_step", "us") for m in METHODS]
    out += [(f"suite.predict_method.n{n}.us", "us") for n in N_SAMPLES]
    out += [("trace.overhead_pct", "%"), ("trace.peak_rss_mb", "MiB")]
    return out


END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("op_ms.p50", "ms"), ("op_ms.p90", "ms"),
              ("peak_rss_mb", "MiB"))


# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: always one of the measured values."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads() -> int | None:
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_stamp(workload: str, seed: int, variant: int) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "bayeslora").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "variant": variant,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
    }


class Lib:
    """The bayeslora modules, imported from the checkout's src/."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        from bayeslora import baselines, cli, kl, network, suite, training

        self.cli, self.suite, self.training = cli, suite, training
        self.network, self.baselines, self.kl = network, baselines, kl


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


class Workload:
    """One workload: set-up, then passes of ops.

    ``run_pass`` returns (op durations in s, failure messages, observed
    outputs); the observed outputs are what ``bench/make_refs.py`` records.
    """

    def __init__(self, lib: Lib, size: str, variant: int, refs: dict, work: Path) -> None:
        self.lib = lib
        self.size = SIZES[size]
        self.variant = variant
        self.refs = refs.get(size, {}).get(self.name, {}).get(str(variant))
        self.work = work
        self.tracer = None          # set while a traced pass runs
        self.ini = work / "bench.ini"

    def cli(self, argv: list[str]) -> tuple[int, str]:
        """One CLI call in this process; returns its exit code and stdout."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
            if self.tracer is not None:
                with self.tracer.span(f"cli.{argv[0]}"):
                    code = self.lib.cli.main(argv)
            else:
                code = self.lib.cli.main(argv)
        return code, sink.getvalue()

    def cli_ops(self, argv: list[str], owner, attrs: tuple[str, ...]):
        """One CLI call cut into ops at each call of ``owner.<attr>``.

        The first op runs from the CLI call's start to the second such call,
        the last to the CLI call's end, so the ops cover the whole call.
        Returns the exit code, stdout and the op durations in s.
        """
        marks = Tracer(clock=CLOCK)
        for attr in attrs:
            marks.wrap(owner, attr, "op")
        marks.install()
        try:
            t0 = CLOCK()
            code, text = self.cli(argv)
            end = CLOCK()
        finally:
            marks.uninstall()
        bounds = [t0] + list(marks.start)[1:] + [end]
        return code, text, [b - a for a, b in zip(bounds[:-1], bounds[1:])]

    def count(self, failures: list[str]) -> tuple[int, int, list[str]]:
        """(ops attempted, ops failed, messages) of one pass checked as a whole."""
        return 1, int(bool(failures)), failures

    def write_ini(self, seeds: list[int]) -> None:
        self.ini.write_text(GRID_INI.format(
            steps=self.size["steps"], seed0=seeds[0], seeds=",".join(str(s) for s in seeds)))


class Grid(Workload):
    name = "grid"

    def seeds(self) -> list[int]:
        return [self.size["seeds"] * self.variant + k for k in range(self.size["seeds"])]

    def setup(self) -> None:
        self.write_ini(self.seeds())
        self.out = self.work / "suite"
        # Warm-up: one cell, so lazy initialization is not timed in pass one.
        code, _ = self.cli(["suite", "--config", str(self.ini), "--method", "blob",
                            "--seed", str(self.seeds()[0]), "--n-samples", "0",
                            "--out-dir", str(self.work / "warmup")])
        if code != 0:
            raise RuntimeError("grid warm-up failed")

    def run_pass(self):
        # A cell runs from its training's start to the next cell's start.
        code, _, ops = self.cli_ops(["suite", "--config", str(self.ini), "--out-dir", str(self.out)],
                                    self.lib.suite, ("train_method",))
        failures = []
        if code != 0:
            failures.append(f"suite exit code {code}")
        results = self.out / "results.csv"
        observed = sha256_file(results) if results.is_file() else None
        if observed is not None:
            rows = results.read_text().splitlines()[1:]
            bad = [r for r in rows if r.split(",")[4] != "ok"]
            expected_rows = self.size["seeds"] * (len(METHODS) - len(SAMPLING) + len(SAMPLING) * len(N_SAMPLES))
            if bad:
                failures.append(f"{len(bad)} cells not ok, first: {bad[0]}")
            if len(rows) != expected_rows:
                failures.append(f"{len(rows)} result rows, expected {expected_rows}")
        if observed != self.refs:
            failures.append(f"results.csv sha256 {observed} != reference {self.refs}")
        return ops, failures, observed


class Eval(Workload):
    name = "eval"

    def ops(self) -> list[tuple[str, str, int]]:
        return [(m, shift, n) for m in METHODS for shift in SHIFTS
                for n in (N_SAMPLES if m in SAMPLING else (0,))]

    def setup(self) -> None:
        self.write_ini([self.variant])
        self.models = self.work / "models"
        for method in METHODS:
            code, _ = self.cli(["train", "--config", str(self.ini), "--method", method,
                                "--seed", str(self.variant), "--out-dir", str(self.models / method)])
            if code != 0:
                raise RuntimeError(f"train {method} failed")

    def count(self, failures: list[str]) -> tuple[int, int, list[str]]:
        # Every op is checked on its own and reports at most one failure.
        return len(self.ops()), len(failures), failures

    def run_pass(self):
        out = self.work / "eval"
        times, failures, observed = [], [], {}
        for method, shift, n in self.ops():
            key = f"{method}/{shift}/n{n}"
            argv = ["eval", "--config", str(self.ini), "--model-dir", str(self.models / method),
                    "--n-samples", str(n), "--shift", shift, "--seed", str(self.variant),
                    "--out-dir", str(out)]
            t0 = CLOCK()
            code, _ = self.cli(argv)
            times.append(CLOCK() - t0)
            if code != 0:
                failures.append(f"{key}: eval exit code {code}")
                continue
            report = json.loads((out / "report.json").read_text())
            observed[key] = [report["acc"], report["ece"], report["nll"]]
            expected = (self.refs or {}).get(key)
            if observed[key] != expected:
                failures.append(f"{key}: acc/ece/nll {observed[key]} != reference {expected}")
        return times, failures, observed


class Verify(Workload):
    name = "verify"

    # The battery's oracle groups, in the order it runs them.  The scalar
    # race (pure Python, about 50 ms) stays in the flipout op that precedes
    # it: on its own it would be the median op, and a loaded host slows pure
    # Python code about twice as much as NumPy code.
    GROUPS = ("_posterior_moment_check", "_kl_equivalence_check", "_flipout_checks")

    def setup(self) -> None:
        # Warm-up at a small size; its checks are too small to pass and are not read.
        self.cli(["verify-theorems", "--draws", "2000", "--flipout-draws", "50"])

    def run_pass(self):
        # One op per oracle group, so op_ms.* show which group moved.
        code, text, ops = self.cli_ops(["verify-theorems"], self.lib.suite, self.GROUPS)
        lines = text.splitlines()
        failures = []
        if code != 0:
            failures.append(f"verify-theorems exit code {code}")
        if len(lines) != 7 or not all(line.startswith("PASS") for line in lines):
            failures.append("not every check reads PASS: " + " | ".join(lines))
        return ops, failures, lines


WORKLOAD_CLASSES = {"grid": Grid, "eval": Eval, "verify": Verify}


# --------------------------------------------------------------------------
# Tracing
# --------------------------------------------------------------------------


def _width(h0) -> str:
    batch = h0.shape[1]
    return "wide" if batch > 256 else f"b{batch}"


def register_spans(tracer, lib: Lib) -> None:
    """Wrap each layer's public functions at the names their callers bind."""
    cli, suite, training, network, baselines, kl = (
        lib.cli, lib.suite, lib.training, lib.network, lib.baselines, lib.kl)
    w = tracer.wrap
    w(training, "net_forward",
      lambda net, h0, mode, rng=None, dropout_active=False: f"network.forward.{mode}.{_width(h0)}")
    w(training, "net_backward",
      lambda net, fwd, d_logits: f"network.backward.{fwd.layer_caches[0].mode}")
    w(training, "kl_term", "network.kl_term")
    w(training, "softmax_columns",
      lambda u: "network.softmax_xent" if u.shape[1] <= 256 else "network.softmax.wide")
    w(training, "cross_entropy", "network.softmax_xent")
    w(baselines, "softmax_columns", "network.softmax.wide")
    w(network, "apply_map", "parammaps.apply_map")
    w(network, "map_derivative", "parammaps.map_derivative")
    w(training, "elbo_minibatch", "training.elbo")
    w(training.AdamW, "step", "training.adamw_step")
    w(training.Sgd, "step", "training.sgd_step")
    w(baselines, "train", "training.train")
    w(suite, "train", "training.train")
    w(suite, "train_baseline", lambda spec, *a, **k: f"baselines.train_baseline.{spec.kind}")
    w(suite, "predict_baseline", "baselines.predict_baseline")
    for owner in (suite, cli):
        w(owner, "ece", "metrics.ece")
        w(owner, "generate_task", "tasks.generate_task")
        w(owner, "train_method", lambda method, *a, **k: f"suite.train_method.{method}")
        w(owner, "predict_method", lambda trained, x, n, seed: f"suite.predict_method.n{n}")
    for name in ("report_to_json", "write_bins_csv", "write_reliability_csv"):
        w(cli, name, "metrics.export")
    for name in ("write_results_csv", "write_results_json", "write_summary_csv"):
        w(cli, name, "suite.write_results")
    w(cli, "load_config", "configio.load_config")
    w(cli, "run_suite", "suite.run_suite")
    w(cli, "verify_theorems", "suite.verify_theorems")
    w(cli, "load_net", "network.load_net")
    w(cli, "save_net", "network.save_net")
    for name in ("forward_flipout", "forward_naive_shared", "forward_mean"):
        w(suite, name, f"adapter.{name}")
    for name in ("build_full_posterior", "build_full_prior", "kl_full_weight_regularized",
                 "kl_closed_form"):
        w(suite, name, f"kl.{name}")
    w(kl, "logdet_psd", "linalg.logdet_psd")
    w(kl, "solve_psd", "linalg.solve_psd")
    w(suite, "convergence_race", "parammaps.convergence_race")


def _merged(agg: dict, span: str) -> dict | None:
    """Stats of one span name, or of all its sub-spans (``span.*``)."""
    parts = [v for k, v in agg.items() if k == span or k.startswith(span + ".")]
    if not parts:
        return None
    return {
        "calls": sum(p["calls"] for p in parts),
        "durations": np.concatenate([p["durations"] for p in parts]),
        "self_s": sum(p["self_s"] for p in parts),
    }


def layer_metrics(setup_agg: dict, pass_aggs: list[dict], steps: int) -> dict[str, float]:
    """Per-layer values over one set-up plus one pass (calls repeat exactly)."""
    n = len(pass_aggs)
    values: dict[str, float] = {}

    def stats(span: str):
        setup = _merged(setup_agg, span)
        passes = [_merged(a, span) for a in pass_aggs]
        counts = {p["calls"] if p else 0 for p in passes}
        if len(counts) != 1:
            raise RuntimeError(f"{span}: call count differs between passes: {sorted(counts)}")
        calls = (setup["calls"] if setup else 0) + counts.pop()
        durs = [p["durations"] for p in [setup] + passes if p]
        durations = np.concatenate(durs) if durs else np.zeros(0)
        self_s = (setup["self_s"] if setup else 0.0) + sum(p["self_s"] for p in passes if p) / n
        return calls, durations, self_s

    for name, _ in per_layer_metrics():
        span, _, field = name.rpartition(".")
        if span.startswith("trace"):
            continue
        if field == "us_per_step":
            _, durations, _ = stats(span)
            values[name] = float(np.median(durations)) / steps * 1e6 if durations.size else 0.0
            continue
        calls, durations, self_s = stats(span)
        if field == "calls":
            values[name] = calls
        elif field == "us":
            values[name] = float(np.median(durations)) * 1e6 if durations.size else 0.0
        else:
            values[name] = self_s * 1e3
    return values


def trace_report(setup_agg: dict, pass_aggs: list[dict]) -> list[str]:
    """Human-readable table: calls and self time per span, set-up and per pass."""
    n = len(pass_aggs)
    names = sorted(set(setup_agg) | {k for a in pass_aggs for k in a})
    lines = [f"{'span':44s} {'calls':>8s} {'calls/pass':>10s} {'med us':>10s} "
             f"{'self ms':>10s} {'self ms/pass':>12s}"]
    for name in names:
        s = setup_agg.get(name)
        parts = [a[name] for a in pass_aggs if name in a]
        durs = [x["durations"] for x in ([s] if s else []) + parts]
        med = float(np.median(np.concatenate(durs))) * 1e6
        lines.append(
            f"{name:44s} {s['calls'] if s else 0:8d} {sum(p['calls'] for p in parts) // n:10d} "
            f"{med:10.1f} {(s['self_s'] if s else 0.0) * 1e3:10.2f} "
            f"{sum(p['self_s'] for p in parts) / n * 1e3:12.2f}")
    return lines


# --------------------------------------------------------------------------
# Running a workload
# --------------------------------------------------------------------------


def import_probe() -> float:
    """CPU time, in s, of a cold start of the CLI: a fresh interpreter importing bayeslora."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", "import bayeslora.cli"], env=env, check=True,
                   timeout=120, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)


def run(args) -> int:
    if not (SRC / "bayeslora" / "cli.py").is_file():
        print(f"bench: no bayeslora sources under {SRC}", file=sys.stderr)
        return 2
    lib = Lib()
    refs = json.loads(Path(args.refs).read_text())
    variant = args.seed % VARIANTS
    size = "tiny" if args.tiny else "standard"
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOAD_CLASSES[args.workload](lib, size, variant, refs, work)
        stamp = machine_stamp(args.workload, args.seed, variant)
        return (run_traced if args.trace else run_timed)(args, wl, stamp)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _passes(args, step) -> tuple[int, int, list[str]]:
    """Call ``step()`` until --seconds have passed; at least once."""
    attempted = failed = 0
    messages: list[str] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        for n_ops, n_failed, failures in step():
            attempted += n_ops
            failed += n_failed
            messages.extend(failures)
        if time.perf_counter() >= deadline:
            return attempted, failed, messages


def percentile(name: str, per_op: list[float], q: float) -> float:
    """Quantile over the per-op medians, printed with its sample counts.

    The median is interpolated between the two middle values of an even
    count; other quantiles are nearest-rank.
    """
    value = statistics.median(per_op) if q == 0.5 else quantile(per_op, q)
    beyond = sum(v > value for v in per_op)
    print(f"{name}: q{q:g} of {len(per_op)} per-op medians, {beyond} beyond")
    return value


def run_timed(args, wl: Workload, stamp: dict) -> int:
    probe_times: list[float] = []
    prep_times: list[float] = []
    pass_times: list[float] = []
    op_times: list[list[float]] = []    # one list per op of the pass, in pass order
    start = time.perf_counter()

    def step():
        # Set-ups are spread evenly over the run, so that they meet the same
        # machine speed as the passes; the first one comes before pass one.
        if (len(prep_times) < SETUP_REPS
                and time.perf_counter() >= start + len(prep_times) * args.seconds / SETUP_REPS):
            probe_times.append(import_probe())
            t1 = CLOCK()
            wl.setup()
            prep_times.append(CLOCK() - t1)
        t0 = CLOCK()
        ops, failures, _ = wl.run_pass()
        pass_times.append(CLOCK() - t0)
        if not op_times:
            op_times.extend([] for _ in ops)
        for series, duration in zip(op_times, ops):
            series.append(duration)
        yield wl.count(failures)

    attempted, failed, messages = _passes(args, step)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(f"{wl.name}: {len(prep_times)} set-ups, {len(pass_times)} passes of {len(op_times)} ops")
    print("set-up s, import probe: " + " ".join(f"{t:.3f}" for t in probe_times))
    print("set-up s, preparation: " + " ".join(f"{t:.3f}" for t in prep_times))
    print("pass s: " + " ".join(f"{t:.3f}" for t in pass_times))
    # Each op's time is its median over the run's passes, so one slow spell
    # of the host moves no op; the percentiles are over those medians, one
    # per op of the pass, so they land on the same ops in every run.
    per_op = [statistics.median(series) for series in op_times]
    print("median op ms: " + " ".join(f"{t * 1e3:.1f}" for t in per_op))
    metrics = {
        "setup_s": statistics.median(probe_times) + statistics.median(prep_times),
        "pass_s": sum(per_op),
        "op_ms.p50": percentile("op_ms.p50", per_op, 0.5) * 1e3,
        "op_ms.p90": percentile("op_ms.p90", per_op, 0.9) * 1e3,
        "peak_rss_mb": peak_rss_mib(),
    }
    for message in messages[:20]:
        print("FAILED " + message)
    units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"{name:12s} {value:14.4f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_traced(args, wl: Workload, stamp: dict) -> int:
    tracer = Tracer()
    register_spans(tracer, wl.lib)
    tracer.install()
    wl.tracer = tracer
    lo = tracer.mark()
    try:
        wl.setup()
    finally:
        tracer.uninstall()
        wl.tracer = None
    setup_range = (lo, tracer.mark())
    untraced: list[float] = []
    traced: list[float] = []
    ranges: list[tuple[int, int]] = []

    def step():
        # Alternate untraced and traced passes so drift hits both alike.
        t0 = CLOCK()
        ops, failures, _ = wl.run_pass()
        untraced.append(CLOCK() - t0)
        yield wl.count(failures)
        tracer.install()
        wl.tracer = tracer
        lo = tracer.mark()
        t0 = CLOCK()
        try:
            ops, failures, _ = wl.run_pass()
        finally:
            traced.append(CLOCK() - t0)
            tracer.uninstall()
            wl.tracer = None
        ranges.append((lo, tracer.mark()))
        yield wl.count(failures)

    attempted, failed, messages = _passes(args, step)
    setup_agg = tracer.aggregate(*setup_range)
    pass_aggs = [tracer.aggregate(lo, hi) for lo, hi in ranges]
    values = layer_metrics(setup_agg, pass_aggs, wl.size["steps"])
    # Each traced pass against the untraced pass just before it, so that the
    # machine's drift cancels within a pair.
    overhead = (statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0) * 100.0
    values["trace.overhead_pct"] = overhead
    values["trace.peak_rss_mb"] = peak_rss_mib()

    report = trace_report(setup_agg, pass_aggs)
    TRACE_DIR.mkdir(exist_ok=True)
    trace_path = TRACE_DIR / f"trace-{wl.name}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({
        "stamp": stamp,
        "passes": {"untraced_s": untraced, "traced_s": traced},
        "spans": tracer.names,
        "metrics": values,
        "report": report,
    }, indent=1) + "\n")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(f"{wl.name} traced run: {len(traced)} traced and {len(untraced)} untraced passes; "
          f"tracing overhead {overhead:+.2f} % (median over {len(traced)} traced/untraced pass "
          f"pairs; median pass {statistics.median(traced):.4f} s traced vs "
          f"{statistics.median(untraced):.4f} s untraced); "
          f"{len(tracer.start)} spans recorded; report in {trace_path.relative_to(ROOT)}")
    for line in report:
        print(line)
    for message in messages[:20]:
        print("FAILED " + message)
    units = dict(per_layer_metrics())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k, _ in per_layer_metrics()},
    }))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: 40 steps, one suite seed")
    parser.add_argument("--refs", default=str(REFS_PATH), help="reference outputs (JSON)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


if __name__ == "__main__":
    sys.exit(run(parse_args()))
