"""Command-line harness: dataset generation, training, evaluation, suites.

Subcommands: ``gen-data``, ``train``, ``eval``, ``suite``, ``race``,
``verify-theorems``, and ``write-config``.  All outputs are reproducible:
rerunning a command with the same config and seed produces byte-identical
CSV/JSON files (timings go to stderr only).  The default output directory
comes from the BAYESLORA_OUT_DIR environment variable.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict, replace

from .baselines import METHODS, BaselineModel, BaselineSpec, derive_config, member_count
from .configio import SuiteConfig, load_config, write_example_config
from .metrics import ece, report_to_json, write_bins_csv, write_reliability_csv
from .network import load_net, save_net
from .parammaps import ParamMap, race_curve
from .suite import (
    predict_method,
    run_suite,
    train_method,
    verify_theorems,
    write_results_csv,
    write_results_json,
    write_summary_csv,
)
from .tasks import SHIFTS, generate_task, write_dataset_csv
from .textio import write_csv, write_json, write_lines
from .training import TrainConfig, write_trajectory_csv

ENV_OUT_DIR = "BAYESLORA_OUT_DIR"


def _out_dir(args) -> str:
    out = args.out_dir or os.environ.get(ENV_OUT_DIR) or "bayeslora-out"
    os.makedirs(out, exist_ok=True)
    return out


def _load_suite_config(args) -> SuiteConfig:
    cfg = load_config(args.config) if args.config else SuiteConfig()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, train=replace(cfg.train, seed=args.seed), seeds=(args.seed,))
    if getattr(args, "shift", None) is not None:
        cfg = replace(cfg, task=replace(cfg.task, shift=args.shift))
    if getattr(args, "n_samples", None) is not None:
        cfg = replace(cfg, n_samples_list=(args.n_samples,))
    return cfg


def _cmd_write_config(args) -> int:
    out = _out_dir(args)
    path = os.path.join(out, "config.ini")
    write_example_config(path)
    print(path)
    return 0


def _cmd_gen_data(args) -> int:
    cfg = _load_suite_config(args)
    out = _out_dir(args)
    seed = cfg.data_seed_offset + cfg.train.seed
    train_ds, test_ds = generate_task(cfg.task, seed=seed)
    for dataset, name in ((train_ds, "train.csv"), (test_ds, "test.csv")):
        write_dataset_csv(dataset, os.path.join(out, name))
        print(os.path.join(out, name))
    return 0


def _cmd_train(args) -> int:
    cfg = _load_suite_config(args)
    out = _out_dir(args)
    method = args.method
    seed = cfg.train.seed
    t0 = time.perf_counter()
    train_ds, _ = generate_task(cfg.task, seed=cfg.data_seed_offset + seed)
    trained = train_method(method, cfg, (train_ds.x, train_ds.y), seed)
    print(f"trained {method} (seed {seed}) in {time.perf_counter() - t0:.2f}s", file=sys.stderr)

    manifest = {"method": method, "seed": seed, "baseline": _spec_fields(cfg.baseline)}
    for k, net in enumerate(trained.models):
        save_net(net, os.path.join(out, f"model-{k}.txt"))
        write_trajectory_csv(trained.logs[k], os.path.join(out, f"trajectory-{k}.csv"))
    write_json(os.path.join(out, "model.json"), manifest)
    print(os.path.join(out, "model.json"))
    return 0


def _spec_fields(spec: BaselineSpec) -> dict:
    """The method settings a model.json records: every spec field but the kind."""
    return {name: value for name, value in asdict(spec).items() if name != "kind"}


_MANIFEST_KEYS = {"method", "seed", "baseline"}
_SPEC_KEYS = sorted(_spec_fields(BaselineSpec("mle")))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _load_trained(model_dir: str, train: TrainConfig) -> tuple[BaselineModel, int]:
    """The model ``train`` wrote to ``model_dir`` and its training seed.

    The member files are ``model-{k}.txt`` for k < ``member_count`` of the
    recorded method, and each must hold the std map and dropout rate that
    the method derives from ``train``, and ``model-0.txt``'s layer shapes.
    A bad model.json raises a ValueError naming ``model.json`` and the
    field; a missing or mismatched member, one naming its file.
    """
    try:
        with open(os.path.join(model_dir, "model.json"), "r", encoding="ascii") as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise ValueError(f"model.json: {exc}") from None
    if not isinstance(manifest, dict) or set(manifest) != _MANIFEST_KEYS:
        raise ValueError(f"model.json: keys must be exactly {sorted(_MANIFEST_KEYS)}")
    method, params = manifest["method"], manifest["baseline"]
    if method not in METHODS:
        raise ValueError(f"model.json method: {method!r} is not one of {METHODS}")
    seed = manifest["seed"]
    if not (isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0):
        raise ValueError(f"model.json seed: must be a non-negative integer, got {seed!r}")
    if not (isinstance(params, dict) and sorted(params) == _SPEC_KEYS and all(map(_is_number, params.values()))):
        raise ValueError(f"model.json baseline: must map exactly {_SPEC_KEYS} to numbers")
    try:
        spec = BaselineSpec(kind=method, **params)
    except ValueError as exc:
        raise ValueError(f"model.json baseline: {exc}") from None
    names = [f"model-{k}.txt" for k in range(member_count(spec))]
    for name in names:
        if not os.path.isfile(os.path.join(model_dir, name)):
            raise ValueError(f"{name}: {method} trains {len(names)} member(s), and this file is not in {model_dir}")
    run = derive_config(spec, train)
    models = []
    for name in names:
        net = load_net(os.path.join(model_dir, name))
        for field, want, got in (("param_map", run.param_map.value, net.param_map.value),
                                 ("dropout_p", run.dropout_p, net.dropout_p)):
            if got != want:
                raise ValueError(f"{name} {field}: {method} trains with {want!r} under this config, "
                                 f"the file holds {got!r}")
        if models and net._layout != models[0]._layout:
            raise ValueError(f"{name}: its layer shapes differ from {names[0]}'s")
        models.append(net)
    return BaselineModel(spec=spec, models=models, logs=[[] for _ in models]), seed


def _cmd_eval(args) -> int:
    cfg = _load_suite_config(args)
    out = _out_dir(args)
    trained, model_seed = _load_trained(args.model_dir, cfg.train)
    for name, saved in (("n_classes", trained.models[0].n_classes), ("input_dim", trained.models[0].input_dim)):
        if getattr(cfg.task, name) != saved:
            raise ValueError(f"task.{name}: the config gives {getattr(cfg.task, name)}, the saved model {saved}")
    seed = args.seed if args.seed is not None else model_seed
    _, test_ds = generate_task(cfg.task, seed=cfg.data_seed_offset + seed)
    n_samples = args.n_samples if args.n_samples is not None else 0
    probs = predict_method(trained, test_ds.x, n_samples, seed)
    report = ece(probs, test_ds.y)
    write_lines(os.path.join(out, "report.json"), [report_to_json(report)])
    write_bins_csv(report, os.path.join(out, "bins.csv"))
    write_reliability_csv(report, os.path.join(out, "reliability.csv"))
    print(os.path.join(out, "report.json"))
    return 0


def _cmd_suite(args) -> int:
    cfg = _load_suite_config(args)
    if getattr(args, "method", None):
        cfg = replace(cfg, methods=(args.method,))
    out = _out_dir(args)
    t0 = time.perf_counter()
    results = run_suite(cfg)
    print(f"suite: {len(results)} cells in {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    write_results_csv(results, os.path.join(out, "results.csv"))
    write_results_json(results, os.path.join(out, "results.json"))
    write_summary_csv(results, os.path.join(out, "summary.csv"))
    print(os.path.join(out, "results.csv"))
    return 1 if any(r.status != "ok" for r in results) else 0


@contextlib.contextmanager
def _usage_errors(args, flags: dict[str, str]):
    """Turn a ValueError whose message starts with a parameter named in
    ``flags`` into a usage error (exit 2) naming that parameter's flag.

    For argument errors that no flag type can see, because they depend on
    several flags or on the run; any other ValueError propagates.
    """
    try:
        yield
    except ValueError as exc:
        flag = flags.get(str(exc).split(" ", 1)[0])
        if flag is None:
            raise
        args.usage_error(f"argument {flag}: {exc}")


def _cmd_race(args) -> int:
    out = _out_dir(args)
    with _usage_errors(args, {"lr": "--lr"}):
        curves = [
            (name, race_curve(pmap, args.sigma_p, args.sigma_q0, args.lr, steps, record_every=args.record_every))
            for pmap, steps, name in (
                (ParamMap.SQUARE, args.square_steps, "race_square.csv"),
                (ParamMap.SOFTPLUS, args.softplus_steps, "race_softplus.csv"),
            )
        ]
    for name, curve in curves:
        path = os.path.join(out, name)
        write_csv(path, ("step", "sigma_q"), curve)
        print(path)
    return 0


def _cmd_verify_theorems(args) -> int:
    with _usage_errors(args, {"r": "--r", "full-weight": "--m/--n"}):
        report = verify_theorems(
            m=args.m, n=args.n, r=args.r, sigma_p=args.sigma_p,
            n_draws=args.draws, flipout_draws=args.flipout_draws,
            seed=args.seed if args.seed is not None else 0,
            degenerate_b=args.degenerate_b,
        )
    for line in report.lines():
        print(line)
    if args.out_dir or os.environ.get(ENV_OUT_DIR):
        write_json(os.path.join(_out_dir(args), "theorems.json"), [asdict(c) for c in report.checks])
    return 1 if report.any_failed() else 0


def _bounded(floor: int | float):
    """argparse type: an integer >= an int ``floor``, or a finite float > a
    float ``floor``; anything else exits 2 naming the flag."""
    if isinstance(floor, int):
        convert, ok, want = int, lambda v: v >= floor, f"an integer >= {floor}"
    else:
        convert, ok, want = float, lambda v: math.isfinite(v) and v > floor, f"a finite number > {floor}"

    def parse(text: str):
        try:
            if ok(convert(text)):
                return convert(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {want}, got {text!r}")
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one.

    Each subcommand's ``func`` default binds its ``_cmd_*`` function at that
    first build, so rebinding a ``_cmd_*`` name afterwards does not reach
    ``main``.  ``parse_args`` keeps no state between calls: every call fills a
    fresh namespace.
    """
    parser = argparse.ArgumentParser(
        prog="bayeslora",
        description="Bayesian low-rank adapter benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True, shift=True, n_samples=False):
        p.add_argument("--config", type=str, default=None, help="INI config file")
        p.add_argument("--out-dir", type=str, default=None,
                       help=f"output directory (default ${ENV_OUT_DIR} or ./bayeslora-out)")
        if seed:
            p.add_argument("--seed", type=_bounded(0), default=None, help="override the run seed")
        if shift:
            p.add_argument("--shift", choices=SHIFTS, default=None,
                           help="override the test-set shift")
        if n_samples:
            p.add_argument("--n-samples", type=_bounded(0), default=None, help="inference sample count")

    p = sub.add_parser("write-config", help="write the example config with every default")
    common(p, seed=False, shift=False)
    p.set_defaults(func=_cmd_write_config)

    p = sub.add_parser("gen-data", help="generate the task datasets as CSV")
    common(p)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train one method and save the model")
    common(p)
    p.add_argument("--method", choices=METHODS, required=True, help="method to run")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved model on the task test set")
    common(p, n_samples=True)
    p.add_argument("--model-dir", type=str, required=True, help="directory written by `train`")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("suite", help="run the full method x seed x N grid")
    common(p, n_samples=True)
    p.add_argument("--method", choices=METHODS, default=None, help="method to run")
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("race", help="export the std-parameterization convergence race")
    common(p, seed=False, shift=False)
    p.add_argument("--sigma-p", type=_bounded(0.0), default=1.0)
    p.add_argument("--sigma-q0", type=_bounded(0.0), default=0.01)
    p.add_argument("--lr", type=_bounded(0.0), default=1e-4)
    p.add_argument("--square-steps", type=_bounded(0), default=10_000)
    p.add_argument("--softplus-steps", type=_bounded(0), default=50_000)
    p.add_argument("--record-every", type=_bounded(1), default=50)
    p.set_defaults(func=_cmd_race, usage_error=p.error)

    p = sub.add_parser("verify-theorems", help="run the numeric oracle battery")
    common(p, shift=False)
    p.add_argument("--m", type=_bounded(1), default=4)
    p.add_argument("--n", type=_bounded(1), default=3)
    p.add_argument("--r", type=_bounded(1), default=2)
    p.add_argument("--sigma-p", type=_bounded(0.0), default=0.2)
    p.add_argument("--draws", type=_bounded(2), default=100_000)
    p.add_argument("--flipout-draws", type=_bounded(2), default=10_000)
    p.add_argument("--degenerate-b", action="store_true",
                   help="zero out b to exercise the rank-precondition guard")
    p.set_defaults(func=_cmd_verify_theorems, usage_error=p.error)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
