import configparser
import hashlib
import json
import math
import pathlib
import re
from dataclasses import replace

import numpy as np
import pytest

from bayeslora.baselines import SAMPLING_METHODS, BaselineSpec, derive_config
from bayeslora.cli import ENV_OUT_DIR, _load_trained, build_parser, main
from bayeslora.configio import SuiteConfig, load_config, write_example_config
from bayeslora import suite
from bayeslora.adapter import branch_draws, branch_forward, forward_naive_shared
from bayeslora.kl import build_full_posterior
from bayeslora.parammaps import ParamMap, apply_map
from bayeslora.suite import (
    run_suite,
    verify_theorems,
    write_results_csv,
    write_results_json,
    write_summary_csv,
)
from bayeslora.tasks import TaskSpec
from bayeslora.training import TrainConfig, kl_weights, kl_window

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
BENCHMARK_INI = CONFIGS / "benchmark.ini"

# sha256 of the suite tables for the benchmark config cut to 1 seed, 40
# steps and N in {0, 5}; results.csv was recorded with per-tensor optimizer
# loops.  Any byte of drift in training, prediction or the writers shows here.
GOLDEN_RESULTS_SHA256 = {
    "results.csv": "d930d45343a3933ed2d4bdd00c1dfdbe21bd487abeb0cd150bc23869d67097e2",
    "results.json": "254aecbc8b0f1170b5cf61f106cc275d3216d8bb2280f7c9dc0af60037dd6462",
    "summary.csv": "5784064a952ec3a912f8b770242d802e0675ffd8352bc8000fdf8488136e9fda",
}

# sha256 of every file test_written_files_match_golden writes, recorded when
# each writer still had its own encoder; any byte of drift in a CSV, JSON or
# model file shows here.  theorems.json was re-recorded when the flipout
# variance check became a z-score against the exact naive variance, and
# again when the decorrelation limit began to follow the draw count (at 50
# draws the honest check had read FAIL against a fixed 0.05), and again when
# the full-weight KL began to sum its column blocks by NumPy's Cholesky (the
# lambda = 1e-8 gap and the factor-invariance difference print new digits).
# The model files were re-recorded for model format v2, which changed only
# their header, meta and layer lines, and model.json when it dropped
# n_members and model_files.
GOLDEN_FILES_SHA256 = {
    "data/test.csv": "918eefa59c4c588f926de23cb8572f1cbd35497e2fb9b33194faba3ef44f94da",
    "data/train.csv": "df1af6c56b15364df7fc5152e75bd4fdea7050c38d2c75e1cbf6b122902cb747",
    "eval/bins.csv": "efec4c7b632a50d388cee6e355f7cb9ef377d3274371aa7efbdbe7b10d4915cc",
    "eval/reliability.csv": "a450015b5795047295227d80864dc5f3f56f6ed4c2dda0b979c9e98d625d2170",
    "eval/report.json": "33ddbcaa9de438b5cff92866ab1251e3c1ba23e77e21102fd5f476a95486497c",
    "model/model-0.txt": "13be40de12d38f4b8fafa9bb60c876486afc382c404c4c57bcf05ba36456f72b",
    "model/model.json": "d7ab04e9c6317347bd4823c31d151752bec103f4b2584f485f90d1727f747a9c",
    "model/trajectory-0.csv": "8ef4fce8af8f1f47d9d420b5ccad78b8d7746bc52f7de518b405ca83e5dad9e8",
    "race/race_softplus.csv": "e7902ae7201be5a7c682cb7438f2fd79956a6f5cbd32f0a22df9783ed0d69f1f",
    "race/race_square.csv": "dc205eea0e24d0fd5138ef1e516fcb344d218557ff79c489a46231305c55479f",
    "theorems/theorems.json": "47b4e98dd2e36e3a807e61bfa0cf96a8c3cb9562488505ce5629f1a86cde8946",
}

# sha256 of the stdout of `verify-theorems` at its CLI defaults and, below,
# at other settings: re-recorded, --degenerate-b aside (it runs no KL), when
# the full-weight KL began to sum its column blocks by NumPy's Cholesky.
VERIFY_DEFAULTS_STDOUT_SHA256 = "9bc94540a5c99750db8554ae3352e7bf5a14dcfcc12298a7eca8baec318e99c5"

# The other settings were first recorded before the flipout oracle summed its
# covariance from the branch Gram: the pins guard the printed margins at
# other seeds, shapes and draw counts, and on a zero b.
VERIFY_STDOUT_SHA256 = {
    "--seed 1": "7dad0c531fd5ce0353ebfd086bac6f3fb8e66a2561dc1a6db77488f9c39f9814",
    "--seed 7": "f00d41a5d0c2a7e55d904d291a5762ca0d4101d426da91bd1122a2ca7bec0dc7",
    "--m 6 --n 5 --r 3": "a6bb4e898b866effd60075b6233f1827083064d6a45041d473a7996799d27bd7",
    "--draws 2000 --flipout-draws 50": "903756331a6e78d471ac96bb351f40c8e36aa47649076b02f7f029ac2a194024",
    "--degenerate-b": "50940565b2d03a245624538ec2744f5a02342d36f4d13f670975bb3e772dee14",
}

# sha256 of train's model-k.txt and trajectory-k.csv on TINY_INI for the
# training paths the goldens above miss: (method, extra [train] lines,
# model hashes, trajectory hashes), one hash per member.  Recorded with
# per-layer KL calls and dict-built gradients, before the KL became one pass
# over a contiguous span; the ens row, with its three members trained one
# after another, before they trained as one stacked program.  The model
# hashes were re-recorded for model format v2 (header, meta and layer lines).
GOLDEN_TRAIN_PATHS = {
    "dropout_flipout": (
        "blob", "dropout_p = 0.1",
        ("b38acd140512fde1c7e11b6b904457b40ce2ba8ec717aa15b21595f9037fcfac",),
        ("ab08a8dd601f2e1f6cb34153871355b246577715daf30b5348dbcb6bd97c3d8c",),
    ),
    "bbb": (
        "bbb", "",
        ("0231dd7dcdb1c72e88f6e40bc20cab8d53b5d312662298d969fb27972056869d",),
        ("6c4c31fa3466e3d025a699c2358ec7ccb602231508a5c28f00b7a46c33e3d399",),
    ),
    "ens": (
        "ens", "",
        ("e24c9c28a551b0b612c5d6f0b96f34e21548c1fb80f2e8fe3dd9e1e8f6d550e9",
         "e707c67ea0521bbc145ed81997080742bafbeed120303c2933684d55a3b629ed",
         "cd3cdd78c2411d00f2b1c696ce91ecb80c95be33cfdc282194c2ff156e14b32c"),
        ("30e10e386f78932e97bf85bdf1fa82120a9fde76a3fc6ebebbf931592331b629",
         "5deab0c33a94a0703ecda51547ea6f2422c352102f866d5e6be294dc6c36b4bb",
         "0d251fe3e85f0c254536f2b2682d68b96a0ff75b72592b0006edf007f21b8b28"),
    ),
}

TINY_INI = """\
[task]
n_train = 100
n_test = 150
noise_scale = 1.0

[net]
hidden = 8,8

[train]
steps = 60
batch_size = 16

[suite]
methods = mle,map,mcd,ens,bbb,blob
seeds = 0,1
n_samples = 0,5
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_INI)
    return str(path)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _config_keys(path) -> dict[str, list[str]]:
    parser = configparser.ConfigParser()
    parser.read(path)
    return {section: list(parser[section]) for section in parser.sections()}


class TestConfigIo:
    def test_example_config_round_trips_defaults(self, tmp_path):
        path = tmp_path / "config.ini"
        write_example_config(str(path))
        cfg = load_config(str(path))
        assert cfg.task == TaskSpec()
        assert cfg.train == TrainConfig()
        assert cfg.hidden == SuiteConfig().hidden
        assert cfg.methods == SuiteConfig().methods

    def test_partial_file_uses_defaults(self, tiny_config):
        cfg = load_config(tiny_config)
        assert cfg.task.n_train == 100
        assert cfg.train.steps == 60
        assert cfg.train.sigma_p == TrainConfig().sigma_p
        assert cfg.seeds == (0, 1)

    def test_committed_example_config_matches_writer(self, tmp_path):
        path = tmp_path / "config.ini"
        write_example_config(str(path))
        assert _read(path) == _read(CONFIGS / "example.ini")

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.ini")))
    def test_committed_config_holds_exactly_the_written_keys(self, tmp_path, name):
        """load_config ignores unknown keys, so a retired key would linger unseen."""
        path = tmp_path / "config.ini"
        write_example_config(str(path))
        assert _config_keys(CONFIGS / name) == _config_keys(path)

    def test_schedule_section(self, tmp_path):
        path = tmp_path / "sched.ini"
        path.write_text("[schedule]\nmode = uniform\ngamma = 4.0\n")
        cfg = load_config(str(path))
        assert (cfg.train.kl_mode, cfg.train.gamma) == ("uniform", 4.0)
        assert kl_window(cfg.train, 500) == math.ceil(100.0 * 500 ** (math.pi / 4.0) / 32)

    def test_small_gamma_names_gamma(self, tmp_path):
        """100 * L0**(pi/gamma) overflows a float at gamma = 0.01."""
        path = tmp_path / "gamma.ini"
        path.write_text("[train]\nsteps = 2\n[schedule]\ngamma = 0.01\n")
        with pytest.raises(ValueError, match="^gamma = 0.01"):
            main(["train", "--config", str(path), "--method", "blob", "--out-dir", str(tmp_path)])

    @pytest.mark.parametrize("method, summed, temperature", [("blob", 2983.0, 248.58), ("bbb", 166.67, 13.89)])
    def test_benchmark_temperature(self, method, summed, temperature):
        """What train optimizes on the benchmark config: the KL weights
        summed over the run, against the ELBO's steps / n_train = 12 (one
        full KL per epoch).  The window is M = 36 steps; after it blob keeps
        its last ascending weight, about 0.5, and bbb its uniform 1/36."""
        cfg = load_config(str(BENCHMARK_INI))
        config = derive_config(BaselineSpec(kind=method), cfg.train)
        assert kl_window(config, cfg.task.n_train) == 36
        total = math.fsum(kl_weights(config, cfg.task.n_train))
        assert total == pytest.approx(summed, abs=0.005)
        assert total / (config.steps / cfg.task.n_train) == pytest.approx(temperature, abs=0.005)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("train.steps", "1e3"),
            ("train.sigma_p", "small"),
            ("train.param_map", "cube"),
            ("schedule.gamma", "wide"),
            ("suite.seeds", "0,x"),
            ("suite.methods", "mle,blub"),
            # No key has a computed default: 'auto' is one more bad value.
            ("train.steps", "auto"),
            ("train.sigma_p", "auto"),
            ("schedule.mode", "auto"),
            ("suite.seeds", "auto"),
            ("baselines.n_members", "auto"),
            # An empty value is a bad value, not the default.
            ("train.steps", ""),
            ("suite.seeds", ""),
            # An empty list entry is a bad value, not a skipped one.
            ("suite.seeds", "0,,1"),
            ("suite.n_samples", ",5"),
            ("net.hidden", "32,"),
            ("suite.methods", "mle,,blob"),
        ],
    )
    def test_bad_value_names_its_key(self, tmp_path, field, value):
        section, key = field.split(".")
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ValueError, match=f"^{field}: "):
            load_config(str(path))

    @pytest.mark.parametrize("field", [
        f"{section}.{key}" for section, keys in _config_keys(CONFIGS / "example.ini").items() for key in keys
    ])
    def test_empty_value_names_its_key(self, tmp_path, field):
        """No key keeps its default when present but empty: `key =` is
        refused under its section.key, for every key the config carries."""
        section, key = field.split(".")
        path = tmp_path / "empty.ini"
        path.write_text(f"[{section}]\n{key} =\n")
        with pytest.raises(ValueError, match=f"^{field}: "):
            load_config(str(path))

    def test_retired_variant_keys_are_ignored(self, tmp_path):
        """bayesianize_b, b_std_scale and k_train_samples no longer change a
        config: a file setting them loads as the same file without them."""
        plain = tmp_path / "plain.ini"
        plain.write_text("[train]\nsteps = 7\n")
        retired = tmp_path / "retired.ini"
        retired.write_text("[train]\nsteps = 7\nbayesianize_b = true\nb_std_scale = 5.0\nk_train_samples = 2\n")
        assert load_config(str(retired)) == load_config(str(plain))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("net.rank", "0"),
            ("net.hidden", "0,4"),
            ("net.hidden", "1"),
            ("net.hidden", "32,1"),
            ("net.hidden", ","),
            ("schedule.mode", "blundell"),
            ("schedule.gamma", "-1"),
            ("suite.seeds", "-1"),
            ("suite.seeds", ","),
            ("suite.n_samples", "-2"),
            ("suite.n_samples", ","),
            ("suite.methods", ","),
            ("suite.methods", "mle,mle"),
            ("suite.seeds", "0,0"),
            ("suite.n_samples", "0,0"),
            ("suite.data_seed_offset", "-5"),
            ("train.weight_decay", "-1"),
            ("train.warmup_ratio", "-3"),
            ("train.warmup_ratio", "1.5"),
        ],
    )
    def test_out_of_range_value_names_its_key(self, tmp_path, field, value):
        section, key = field.split(".")
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ValueError, match=f"^{field}: "):
            load_config(str(path))

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("owner, section, key, name", [
        (TrainConfig, "train", "sigma_p", "sigma_p"),
        (TrainConfig, "train", "epsilon", "epsilon"),
        (TrainConfig, "train", "lr_likelihood", "lr_likelihood"),
        (TrainConfig, "train", "lr_kl", "lr_kl"),
        (TrainConfig, "train", "weight_decay", "weight_decay"),
        (TrainConfig, "schedule", "gamma", "gamma"),
        (TrainConfig, "train", "batch_size", "batch_size"),
        (TrainConfig, "train", "steps", "steps"),
        (BaselineSpec, "baselines", "weight_decay", "weight_decay"),
        (TaskSpec, "task", "noise_scale", "noise_scale"),
    ])
    def test_non_finite_value_names_its_field(self, tmp_path, owner, section, key, name, value):
        """An infinite or NaN float is refused where the config is built, by
        field name, and through a config file by section.key."""
        kwargs = {"kind": "map"} if owner is BaselineSpec else {}
        with pytest.raises(ValueError, match=f"^{name} must be "):
            owner(**kwargs, **{name: float(value)})
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ValueError, match=f"^{section}.{key}: "):
            load_config(str(path))

    @pytest.mark.parametrize("value", [3.5, 2.0, True], ids=["fraction", "whole-float", "bool"])
    @pytest.mark.parametrize("owner, name, named", [
        (TrainConfig, "steps", "steps"),
        (TrainConfig, "batch_size", "batch_size"),
        (TrainConfig, "seed", "seed"),
        (TaskSpec, "n_train", "n_train"),
        (TaskSpec, "n_test", "n_test"),
        (TaskSpec, "n_classes", "n_classes"),
        (TaskSpec, "input_dim", "input_dim"),
        (SuiteConfig, "rank", "rank"),
        (SuiteConfig, "data_seed_offset", "data_seed_offset"),
        (SuiteConfig, "hidden", "hidden"),
        (SuiteConfig, "seeds", "seeds"),
        (SuiteConfig, "n_samples_list", "n_samples"),
    ])
    def test_integer_field_rejects_float_and_bool(self, owner, name, named, value):
        """An integer field refuses a float or a bool where the config is
        built, by name, not deep inside training or data generation."""
        if owner is SuiteConfig and name not in ("rank", "data_seed_offset"):
            value = (4, value)  # a list field, with one bad entry
        with pytest.raises(ValueError, match=f"^{named} "):
            owner(**{name: value})

    @pytest.mark.parametrize("methods", [("blub",), ("mle", "blub")])
    def test_unknown_method_rejected_where_the_config_is_built(self, methods):
        """A config built in Python refuses an unknown method by field name,
        so run_suite never meets one and records no per-cell error row."""
        with pytest.raises(ValueError, match="^methods holds unknown method 'blub'"):
            SuiteConfig(methods=methods)

    def test_hidden_floor_is_the_adapter_floor(self, tmp_path):
        """A width of 1 leaves no rank r with 1 <= r < min(m, n): the config
        names net.hidden, and the floor width 2 trains."""
        path = tmp_path / "narrow.ini"
        path.write_text("[net]\nhidden = 1\n")
        with pytest.raises(ValueError, match=r"^net\.hidden: hidden must be >= 2, got 1$"):
            load_config(str(path))
        path.write_text("[net]\nhidden = 2\n[train]\nsteps = 3\n")
        cfg = load_config(str(path))
        x = np.random.default_rng(0).normal(size=(8, cfg.task.input_dim))
        trained = suite.train_method("blob", cfg, (x, np.arange(8) % 2), 0)
        assert trained.models[0].layers[0].adapter.rank == 1

    def test_repeated_hidden_width_is_legal(self, tmp_path):
        path = tmp_path / "net.ini"
        path.write_text("[net]\nhidden = 32,32\n")
        assert load_config(str(path)).hidden == (32, 32)

    def test_percent_is_a_literal_character(self, tmp_path):
        """Values are read raw: a % is no interpolation, just a bad number."""
        path = tmp_path / "pct.ini"
        path.write_text("[task]\nnoise_scale = 1.25%\n")
        with pytest.raises(ValueError, match="^task.noise_scale: .*'1.25%'"):
            load_config(str(path))

    @pytest.mark.parametrize("text, line, reason", [
        ("[task]\nn_train = 50\n\n[task]\nn_test = 40\n", 4, "section \\[task\\] repeats"),
        ("[task]\nn_train = 50\nn_train = 60\n", 3, "key 'n_train' repeats in section \\[task\\]"),
        ("n_train = 50\n[task]\n", 1, "'n_train = 50' comes before any \\[section\\] header"),
        ("[task]\nn_train = 50\n= 60\n", 3, "not a \\[section\\] header"),
    ], ids=["repeated-section", "repeated-key", "no-section-header", "no-key"])
    def test_ini_syntax_error_names_the_file_and_line(self, tmp_path, text, line, reason):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line {line}: {reason}"):
            load_config(str(path))


class TestSuite:
    def test_row_count_follows_expansion_rule(self, tiny_config):
        """6 methods x 2 seeds; N varies only for the 3 sampling methods
        (mcd, bbb, blob): 3*2*2 + 3*2 = 18 rows."""
        cfg = load_config(tiny_config)
        results = run_suite(cfg)
        assert all(r.status == "ok" for r in results)
        expected = len(SAMPLING_METHODS) * 2 * 2 + 3 * 2
        assert len(results) == expected == 18

    def test_single_cell_suite(self, tiny_config):
        cfg = load_config(tiny_config)
        cfg = replace(cfg, methods=("mle",), seeds=(0,))
        results = run_suite(cfg)
        assert len(results) == 1
        assert results[0].status == "ok"
        assert results[0].report is not None

    def test_summary_matches_hand_aggregation(self, tiny_config, tmp_path):
        """summary.csv holds the mean and sample std (ddof=1) over seeds."""
        cfg = load_config(tiny_config)
        cfg = replace(cfg, methods=("mle",), seeds=(0, 1))
        results = run_suite(cfg)
        path = tmp_path / "summary.csv"
        write_summary_csv(results, str(path))
        row = path.read_text().splitlines()[1].split(",")
        accs = [r.report.acc for r in results]
        assert float(row[3]) == np.mean(accs)
        assert float(row[4]) == np.std(accs, ddof=1)

    def test_failure_recorded_not_raised(self, tiny_config, tmp_path):
        cfg = load_config(tiny_config)
        bad_train = replace(cfg.train, lr_likelihood=1e12, lr_kl=1e12)
        cfg = replace(cfg, methods=("blob", "mle"), seeds=(0,), train=bad_train)
        results = run_suite(cfg)
        blob_rows = [r for r in results if r.method == "blob"]
        assert blob_rows and all(r.status.startswith("error:") for r in blob_rows)
        # Error rows keep the CSV rectangular (status text sanitized).
        path = tmp_path / "results.csv"
        write_results_csv(results, str(path))
        lines = path.read_text().splitlines()
        n_cols = len(lines[0].split(","))
        assert all(len(line.split(",")) == n_cols for line in lines[1:])

    def test_gamma_overflow_fails_only_kl_cells(self, tmp_path):
        """L* overflows at gamma = 0.01, but only the KL path reads L*."""
        path = tmp_path / "gamma.ini"
        path.write_text(TINY_INI.replace("seeds = 0,1", "seeds = 0") + "[schedule]\ngamma = 0.01\n")
        cfg = load_config(str(path))
        results = run_suite(replace(cfg, methods=("mle", "blob"), n_samples_list=(0,)))
        status = {r.method: r.status for r in results}
        assert status["mle"] == "ok"
        assert status["blob"].startswith("error: gamma = 0.01 overflows")
        # The CLI exits 1 when any cell failed.
        assert main(["suite", "--config", str(path), "--method", "blob", "--n-samples", "0",
                     "--out-dir", str(tmp_path / "out")]) == 1

    def test_short_benchmark_results_match_golden(self, tmp_path):
        cfg = load_config(str(BENCHMARK_INI))
        cfg = replace(
            cfg, seeds=(0,), n_samples_list=(0, 5), train=replace(cfg.train, steps=40)
        )
        results = run_suite(cfg)
        assert all(r.status == "ok" for r in results)
        hashes = {}
        for name, write in (("results.csv", write_results_csv), ("results.json", write_results_json),
                            ("summary.csv", write_summary_csv)):
            write(results, str(tmp_path / name))
            hashes[name] = hashlib.sha256(_read(tmp_path / name)).hexdigest()
        assert hashes == GOLDEN_RESULTS_SHA256


class TestTheoremBattery:
    def test_default_dims_all_pass(self):
        report = verify_theorems(n_draws=50_000, flipout_draws=10_000, seed=0)
        statuses = {c.name: c.status for c in report.checks}
        assert all(s == "pass" for s in statuses.values()), statuses
        assert not report.any_failed()

    def test_degenerate_b_reports_precondition(self):
        report = verify_theorems(n_draws=2_000, flipout_draws=500, degenerate_b=True)
        by_name = {c.name: c for c in report.checks}
        kl = by_name["full-weight-kl-equivalence"]
        assert kl.status == "precondition_violated"
        assert "rank precondition violated" in kl.margin
        # b = 0 leaves the posterior deterministic; the moment checks still pass.
        assert by_name["posterior-mean-moments"].status == "pass"
        assert by_name["posterior-covariance-moments"].status == "pass"

    def test_covariance_check_catches_one_percent_omega_error(self, monkeypatch):
        """A closed form at omega / 1.01 is what draws taken at omega x 1.01
        are checked against: every covariance entry is off by about 2 %,
        well inside what a 5 % relative-error limit would let through."""
        monkeypatch.setattr(
            suite,
            "build_full_posterior",
            lambda ad, omega: build_full_posterior(ad, omega / 1.01),
        )
        report = verify_theorems(seed=0)
        cov = [c for c in report.checks if c.name == "posterior-covariance-moments"][0]
        assert cov.status == "fail", cov.margin

    @pytest.mark.parametrize("seed", [1, 3, 4, 7, 9])
    def test_covariance_check_passes_honest_draws(self, seed):
        report = verify_theorems(seed=seed, flipout_draws=500)
        cov = [c for c in report.checks if c.name == "posterior-covariance-moments"][0]
        assert cov.status == "pass", cov.margin

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(sigma_p=-1.0), "^sigma_p must be positive, got -1.0"),
            (dict(sigma_p=0.0), "^sigma_p must be positive, got 0.0"),
            (dict(r=3), r"^r must satisfy 1 <= r < min\(m, n\); got r=3, m=4, n=3"),
            (dict(r=0), r"^r must satisfy"),
            (dict(m=2, n=8, r=2), r"^r must satisfy"),
            (dict(seed=-1), "^seed must be >= 0, got -1"),
        ],
    )
    def test_bad_arguments_rejected_before_any_draw(self, monkeypatch, kwargs, message):
        """A bad prior scale or rank names its argument before the moment check runs."""
        def no_draws(*args):
            raise AssertionError("the moment check ran before the arguments were checked")

        monkeypatch.setattr(suite, "_posterior_moment_check", no_draws)
        with pytest.raises(ValueError, match=message):
            verify_theorems(**kwargs)

    @pytest.mark.parametrize("arg", ["n_draws", "flipout_draws"])
    def test_single_draw_rejected(self, arg):
        """Every variance over one draw is 0, so a check on it would pass on no evidence."""
        with pytest.raises(ValueError, match=arg):
            verify_theorems(**{arg: 1})

    def test_dense_oracle_guard(self, monkeypatch):
        """The full-weight guard of build_full_posterior stops the battery before any draw."""
        def no_draws(*args, **kwargs):
            raise AssertionError("weights were drawn before the guard ran")

        monkeypatch.setattr(suite, "sample_full_weights", no_draws)
        monkeypatch.setattr(suite, "branch_draws", no_draws)
        with pytest.raises(ValueError, match="exceeds guard 4096"):
            verify_theorems(m=70, n=70)

    @pytest.mark.parametrize("m, n, r, batch, n_draws", [
        (8, 8, 2, 16, 50),   # m < batch
        (5, 4, 1, 9, 23),    # r = 1
        (6, 7, 3, 4, 14),    # r = 3, m > batch, a whole number of chunks
        (4, 6, 3, 4, 2),     # one short chunk
    ])
    def test_streamed_flipout_moments_match_two_passes(self, monkeypatch, m, n, r, batch, n_draws):
        """The chunked covariance from the branch Gram equals np.cov-style
        centring over the full stack of per-draw perturbations, across
        chunk boundaries."""
        monkeypatch.setattr(suite, "_FLIPOUT_CHUNK", 7)
        adapter = suite._random_adapter(m, n, r, np.random.default_rng(40))
        h = np.random.default_rng(41).normal(size=(n, batch))
        omega = apply_map(ParamMap.SQUARE, adapter.g)
        c_mean = branch_forward("mean", adapter.mean_a, omega, h, ())
        for mode in ("flipout", "shared"):
            streamed = suite._perturbation_cov(adapter, omega, h, mode, n_draws, np.random.default_rng(42))
            rng = np.random.default_rng(42)
            stack = np.stack([
                adapter.b @ (branch_forward(mode, adapter.mean_a, omega, h, branch_draws(mode, rng, n, batch, r))
                             - c_mean)
                for _ in range(n_draws)
            ])
            centred = stack - stack.mean(axis=0)
            two_pass = np.einsum("dki,dkj->kij", centred, centred) / (n_draws - 1)
            assert streamed.shape == (m, batch, batch)
            assert np.max(np.abs(streamed - two_pass)) <= 1e-12 * np.max(np.abs(two_pass)), mode

    @pytest.mark.parametrize("m, n, r", [(4, 3, 2), (6, 5, 3)])
    def test_chunked_full_weight_draws_are_the_one_stack_draw(self, monkeypatch, m, n, r):
        """Draws filled in chunks of 7 are bit for bit one stacked draw of 50,
        and leave the generator where that draw leaves it."""
        monkeypatch.setattr(suite, "_MOMENT_CHUNK", 7)
        adapter = suite._random_adapter(m, n, r, np.random.default_rng(3))
        omega = apply_map(ParamMap.SQUARE, adapter.g)
        rng, twin = np.random.default_rng(8), np.random.default_rng(8)
        flat = suite.sample_full_weights(adapter, omega, 50, rng)
        (e,) = branch_draws("shared", twin, n, n, r, count=50)
        one_stack = forward_naive_shared(adapter, omega, np.eye(n), e).swapaxes(-1, -2).reshape(50, -1)
        np.testing.assert_array_equal(flat, one_stack)
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("seed", [1, 3, 4, 7, 9])
    def test_flipout_checks_pass_honest_draws(self, seed):
        checks = suite._flipout_checks(10_000, seed)
        assert [c.status for c in checks] == ["pass", "pass"], [c.margin for c in checks]

    @pytest.mark.parametrize("seed", [1, 3, 4, 7, 9])
    def test_decorrelation_limit_scales_with_few_draws(self, seed):
        """At 50 draws an honest mean |corr| is about 0.14, far above 0.05;
        the limit follows the sampling noise, so honest draws still pass."""
        corr, _ = suite._flipout_checks(50, seed)
        assert corr.status == "pass", corr.margin
        assert "(<= 0.285)" in corr.margin

    def test_variance_check_catches_five_percent_omega_error(self, monkeypatch):
        """omega x 1.05 in the flipout branch alone: every example's variance
        is 10 % above the exact naive one, z >= 10 at 1e4 draws."""
        def inflated(mode, mean_a, omega, hd, draws):
            return branch_forward(mode, mean_a, omega * 1.05 if mode == "flipout" else omega, hd, draws)

        monkeypatch.setattr(suite, "branch_forward", inflated)
        corr, var = suite._flipout_checks(10_000, 1)
        assert var.name == "flipout-marginal-variance"
        assert (corr.status, var.status) == ("pass", "fail"), var.margin

    @pytest.mark.parametrize("drop", ["both", "batch"])
    def test_decorrelation_check_catches_lost_sign_masks(self, monkeypatch, drop):
        """Flipout with no sign masks, or with one sign pattern for the whole
        batch, is shared sampling: every example sees the same perturbation.
        (Either mask alone decorrelates identical inputs: E[s_i s_j] = 0.)"""
        def masked(mode, rng, n, batch, r, count=None):
            draws = branch_draws(mode, rng, n, batch, r, count)
            if mode != "flipout":
                return draws
            s, t, e = draws
            if drop == "both":
                return np.ones_like(s), np.ones_like(t), e
            return np.repeat(s[..., :1], batch, axis=-1), np.repeat(t[..., :1, :], batch, axis=-2), e

        monkeypatch.setattr(suite, "branch_draws", masked)
        corr, _ = suite._flipout_checks(10_000, 1)
        assert corr.name == "flipout-decorrelation"
        assert corr.status == "fail", corr.margin

    def test_flipout_checks_draw_in_stacks(self, monkeypatch):
        """The oracle asks branch_draws for one stack per chunk and mode, not
        for one draw at a time."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return branch_draws(*args, **kwargs)

        monkeypatch.setattr(suite, "branch_draws", counted)
        suite._flipout_checks(10_000, 1)
        assert 0 < len(calls) <= 2 * math.ceil(10_000 / suite._FLIPOUT_CHUNK)

    @pytest.mark.parametrize("m, n, r", [(4, 3, 2), (5, 4, 3), (12, 10, 7), (3, 3, 1), (40, 30, 17)])
    def test_full_weight_draws_match_the_einsum_reference(self, m, n, r):
        """The draws through the shared-mode op are vec(w0 + b a) of the same
        noise, up to the rounding of b @ a."""
        adapter = suite._random_adapter(m, n, r, np.random.default_rng(m * 100 + n * 10 + r))
        omega = apply_map(ParamMap.SQUARE, adapter.g)
        flat = suite.sample_full_weights(adapter, omega, 500, np.random.default_rng(r))
        eps = np.random.default_rng(r).standard_normal(size=(500, r, n))
        a = adapter.mean_a + omega * eps
        w = adapter.w0[None, :, :] + np.einsum("ij,njk->nik", adapter.b, a)
        reference = w.transpose(0, 2, 1).reshape(500, -1)
        np.testing.assert_allclose(flat, reference, rtol=1e-12, atol=1e-12 * np.abs(reference).max())

    @pytest.mark.parametrize("seed", [0, 5])
    def test_moment_check_draws_the_training_stream(self, seed):
        """The moment check takes one stacked shared-mode draw of training's
        branch_draws from the generator, and nothing more."""
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        adapter = suite._random_adapter(4, 3, 2, rng)
        suite._random_adapter(4, 3, 2, twin)
        suite._posterior_moment_check(adapter, apply_map(ParamMap.SQUARE, adapter.g), 2_000, rng)
        branch_draws("shared", twin, adapter.n, adapter.n, adapter.rank, count=2_000)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_covariance_check_reads_the_training_op(self, monkeypatch):
        """Noise scaled by 1.01 inside the shared-mode op puts every draw's
        covariance about 2 % off the closed form: the check sees the op."""
        monkeypatch.setattr(
            suite, "forward_naive_shared",
            lambda ad, omega, h, noise: forward_naive_shared(ad, omega, h, 1.01 * noise),
        )
        report = verify_theorems(seed=0)
        cov = [c for c in report.checks if c.name == "posterior-covariance-moments"][0]
        assert cov.status == "fail", cov.margin

    def test_race_ordering_reported(self):
        report = verify_theorems(n_draws=2_000, flipout_draws=500, seed=1)
        race = [c for c in report.checks if c.name == "parameterization-race"][0]
        assert race.status == "pass"


class TestCliCommands:
    def test_gen_data_deterministic(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        assert main(["gen-data", "--config", tiny_config, "--out-dir", str(out1)]) == 0
        assert main(["gen-data", "--config", tiny_config, "--out-dir", str(out2)]) == 0
        assert _read(out1 / "train.csv") == _read(out2 / "train.csv")
        assert _read(out1 / "test.csv") == _read(out2 / "test.csv")

    def test_gen_data_shift_flag_changes_test_only(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "p", tmp_path / "s"
        main(["gen-data", "--config", tiny_config, "--out-dir", str(out1)])
        main(["gen-data", "--config", tiny_config, "--out-dir", str(out2), "--shift", "large"])
        assert _read(out1 / "train.csv") == _read(out2 / "train.csv")
        assert _read(out1 / "test.csv") != _read(out2 / "test.csv")

    def test_train_eval_pipeline(self, tiny_config, tmp_path):
        model_dir = tmp_path / "model"
        eval_dir = tmp_path / "eval"
        assert main(["train", "--config", tiny_config, "--method", "blob",
                     "--out-dir", str(model_dir)]) == 0
        assert (model_dir / "model.json").exists()
        assert (model_dir / "model-0.txt").exists()
        assert (model_dir / "trajectory-0.csv").exists()
        assert main(["eval", "--config", tiny_config, "--model-dir", str(model_dir),
                     "--n-samples", "5", "--out-dir", str(eval_dir)]) == 0
        report = json.loads((eval_dir / "report.json").read_text())
        assert 0.0 <= report["acc"] <= 1.0
        assert len(report["bins"]) == 15
        reliability = (eval_dir / "reliability.csv").read_text().splitlines()
        assert reliability[0] == "mean_conf,mean_acc"
        assert all(len(line.split(",")) == 2 for line in reliability[1:])

    def test_train_eval_deterministic_outputs(self, tiny_config, tmp_path):
        outs = []
        for tag in ("a", "b"):
            model_dir = tmp_path / f"model-{tag}"
            eval_dir = tmp_path / f"eval-{tag}"
            main(["train", "--config", tiny_config, "--method", "ens", "--out-dir", str(model_dir)])
            main(["eval", "--config", tiny_config, "--model-dir", str(model_dir),
                  "--out-dir", str(eval_dir)])
            outs.append((model_dir, eval_dir))
        for name in ("model.json", "model-0.txt", "model-1.txt", "model-2.txt"):
            assert _read(outs[0][0] / name) == _read(outs[1][0] / name)
        assert _read(outs[0][1] / "report.json") == _read(outs[1][1] / "report.json")
        assert _read(outs[0][1] / "bins.csv") == _read(outs[1][1] / "bins.csv")

    def test_eval_defaults_to_the_model_seed(self, tiny_config, tmp_path):
        """Without --seed, eval scores a model on its training seed's test
        draw with that seed's prediction noise, as the suite does."""
        main(["train", "--config", tiny_config, "--method", "blob", "--seed", "3",
              "--out-dir", str(tmp_path / "model")])
        main(["eval", "--config", tiny_config, "--model-dir", str(tmp_path / "model"),
              "--n-samples", "5", "--out-dir", str(tmp_path / "eval")])
        main(["suite", "--config", tiny_config, "--method", "blob", "--seed", "3",
              "--out-dir", str(tmp_path / "suite")])
        report = json.loads((tmp_path / "eval" / "report.json").read_text())
        results = (tmp_path / "suite" / "results.csv").read_text().splitlines()
        rows = [line.split(",") for line in results]
        row = next(r for r in rows if r[:3] == ["blob", "3", "5"])
        assert [float(v) for v in row[5:8]] == [report["acc"], report["ece"], report["nll"]]

    @pytest.mark.parametrize("key, value, saved", [("n_classes", 3, 2), ("input_dim", 3, 2)])
    def test_eval_refuses_a_task_the_model_does_not_fit(self, tiny_config, tmp_path, key, value, saved):
        """A config whose task disagrees with the saved model fails before any
        prediction, naming task.<key> and the model's value."""
        model = str(tmp_path / "model")
        main(["train", "--config", tiny_config, "--method", "ens", "--out-dir", model])
        config = tmp_path / "other.ini"
        config.write_text(TINY_INI.replace("[task]\n", f"[task]\n{key} = {value}\n"))
        with pytest.raises(ValueError, match=rf"^task\.{key}: the config gives {value}, the saved model {saved}$"):
            main(["eval", "--config", str(config), "--model-dir", model, "--out-dir", str(tmp_path / "eval")])
        assert not (tmp_path / "eval" / "report.json").exists()

    def test_reused_parser_leaks_no_flags_between_calls(self, tiny_config, tmp_path):
        """An eval after one with --seed, --shift and --n-samples writes what
        the same eval writes as the process's first call."""
        model = str(tmp_path / "model")
        main(["train", "--config", tiny_config, "--method", "blob", "--out-dir", model])
        plain = ["eval", "--config", tiny_config, "--model-dir", model, "--out-dir", str(tmp_path / "eval")]
        build_parser.cache_clear()
        main(plain)
        first = _read(tmp_path / "eval" / "report.json")
        main(plain + ["--seed", "3", "--shift", "large", "--n-samples", "5"])
        assert _read(tmp_path / "eval" / "report.json") != first
        main(plain)
        assert _read(tmp_path / "eval" / "report.json") == first

    def test_reused_parser_still_exits_2_on_a_usage_error(self, tmp_path, capsys):
        assert main(["write-config", "--out-dir", str(tmp_path)]) == 0
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["verify-theorems", "--r", "9"])
            assert exc.value.code == 2
            assert "argument --r: r must satisfy" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method, mutate, field",
        [
            pytest.param("mcd", lambda m, d: m.update(extra=1), "model.json: keys", id="extra-key"),
            pytest.param("mcd", lambda m, d: m.pop("seed"), "model.json: keys", id="missing-key"),
            pytest.param("mcd", lambda m, d: m.update(method="blub"), "model.json method", id="unknown-method"),
            pytest.param("mcd", lambda m, d: m.update(seed=-1), "model.json seed", id="negative-seed"),
            pytest.param("mcd", lambda m, d: m.update(seed=3.0), "model.json seed", id="float-seed"),
            pytest.param("mcd", lambda m, d: m.update(n_members=1, model_files=["model-0.txt"]), "model.json: keys",
                         id="v1-manifest"),
            pytest.param("ens", lambda m, d: (d / "model-1.txt").unlink(), "model-1.txt: ens trains 3 member",
                         id="missing-file"),
            pytest.param("mcd", lambda m, d: (d / "model-0.txt").unlink(), "model-0.txt: mcd trains 1 member",
                         id="missing-only-file"),
            pytest.param("mcd", lambda m, d: m["baseline"].update(n_members=2.5), "model.json baseline: n_members",
                         id="fractional-spec-count"),
            pytest.param("mcd", lambda m, d: m["baseline"].update(n_members=0), "model.json baseline: n_members",
                         id="zero-spec-count"),
            pytest.param("mcd", lambda m, d: m["baseline"].update(dropout_p=1.5), "model.json baseline: dropout_p",
                         id="spec-out-of-range"),
            pytest.param("mcd", lambda m, d: m.update(baseline={}), "model.json baseline", id="empty-baseline"),
            pytest.param("mcd", lambda m, d: m.update(method="ens"), "model-1.txt: ens trains 3 member",
                         id="count-vs-method"),
        ],
    )
    def test_malformed_manifest_names_the_field(self, tiny_config, tmp_path, method, mutate, field):
        model_dir = tmp_path / "model"
        assert main(["train", "--config", tiny_config, "--method", method,
                     "--out-dir", str(model_dir)]) == 0
        assert _load_trained(str(model_dir), TrainConfig())[0].models
        manifest = json.loads((model_dir / "model.json").read_text())
        mutate(manifest, model_dir)
        (model_dir / "model.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"^{field}"):
            _load_trained(str(model_dir), TrainConfig())

    def test_model_json_holds_method_seed_and_baseline_only(self, tiny_config, tmp_path):
        """model.json records each fact once: the member files and their
        count follow from the method and its baseline settings."""
        main(["train", "--config", tiny_config, "--method", "ens", "--out-dir", str(tmp_path)])
        manifest = json.loads((tmp_path / "model.json").read_text())
        assert manifest == {"method": "ens", "seed": 0,
                            "baseline": {"dropout_p": 0.1, "n_members": 3, "weight_decay": 1e-05}}

    def test_member_with_other_layer_shapes_names_the_file(self, tiny_config, tmp_path):
        """An ens member copied from a run of other hidden widths fails at
        load, naming the file, not inside the stacked forward."""
        small = tmp_path / "small.ini"
        small.write_text(TINY_INI.replace("hidden = 8,8", "hidden = 6,6"))
        for name, config in (("wide", tiny_config), ("narrow", str(small))):
            main(["train", "--config", config, "--method", "ens", "--out-dir", str(tmp_path / name)])
        (tmp_path / "wide" / "model-1.txt").write_bytes(_read(tmp_path / "narrow" / "model-1.txt"))
        with pytest.raises(ValueError, match=r"^model-1\.txt: its layer shapes differ from model-0\.txt's$"):
            main(["eval", "--config", tiny_config, "--model-dir", str(tmp_path / "wide"),
                  "--out-dir", str(tmp_path / "eval")])

    @pytest.mark.parametrize(
        "source, target, message",
        [
            pytest.param("bbb", "blob", "param_map: blob trains with 'square' under this config, "
                         "the file holds 'softplus'", id="param_map"),
            pytest.param("mcd", "mle", "dropout_p: mle trains with 0.0 under this config, "
                         "the file holds 0.1", id="dropout_p"),
        ],
    )
    def test_member_settings_that_contradict_the_method_name_the_file(
        self, tiny_config, tmp_path, source, target, message
    ):
        for method in (source, target):
            main(["train", "--config", tiny_config, "--method", method, "--out-dir", str(tmp_path / method)])
        (tmp_path / target / "model-0.txt").write_bytes(_read(tmp_path / source / "model-0.txt"))
        with pytest.raises(ValueError, match=f"^model-0\\.txt {re.escape(message)}$"):
            main(["eval", "--config", tiny_config, "--model-dir", str(tmp_path / target),
                  "--n-samples", "5", "--out-dir", str(tmp_path / "eval")])
        assert not (tmp_path / "eval" / "report.json").exists()

    def test_member_settings_follow_the_config(self, tiny_config, tmp_path):
        """blob takes its dropout rate from [train]: a model trained at 0.1
        evaluates under its own config and fails under the default one."""
        config = tmp_path / "dropout.ini"
        config.write_text(TINY_INI.replace("[train]\n", "[train]\ndropout_p = 0.1\n"))
        model = str(tmp_path / "model")
        main(["train", "--config", str(config), "--method", "blob", "--out-dir", model])
        assert main(["eval", "--config", str(config), "--model-dir", model, "--n-samples", "5",
                     "--out-dir", str(tmp_path / "eval")]) == 0
        with pytest.raises(ValueError, match=r"^model-0\.txt dropout_p: blob trains with 0\.0 under this config"):
            main(["eval", "--config", tiny_config, "--model-dir", model, "--out-dir", str(tmp_path / "eval")])

    @pytest.mark.parametrize(
        "name, body, message",
        [
            pytest.param("model/model.json", b"not json\n", r"^model\.json: Expecting value",
                         id="model-json-not-json"),
            pytest.param("model/model.json", '{"method": "bl\u00f6b"}\n'.encode(), r"^model\.json: 'ascii' codec",
                         id="model-json-not-ascii"),
            pytest.param("model/model-0.txt", "bayeslora-model 2\nmeta \u00e9\n".encode(),
                         r"^\S*model-0\.txt: 'ascii' codec", id="model-file-not-ascii"),
            pytest.param("tiny.ini", b"[task]\nn_train = 1\xff0\n", r"^\S*tiny\.ini: 'utf-8' codec",
                         id="config-not-utf8"),
        ],
    )
    def test_undecodable_file_names_the_file(self, tiny_config, tmp_path, name, body, message):
        model = tmp_path / "model"
        main(["train", "--config", tiny_config, "--method", "blob", "--out-dir", str(model)])
        (tmp_path / name).write_bytes(body)
        with pytest.raises(ValueError, match=message):
            main(["eval", "--config", tiny_config, "--model-dir", str(model), "--out-dir", str(tmp_path / "eval")])

    def test_suite_outputs_and_determinism(self, tmp_path):
        config = tmp_path / "small.ini"
        config.write_text(TINY_INI.replace("mle,map,mcd,ens,bbb,blob", "mle,blob").replace("0,1", "0"))
        s1, s2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["suite", "--config", str(config), "--out-dir", str(s1)]) == 0
        assert main(["suite", "--config", str(config), "--out-dir", str(s2)]) == 0
        for name in ("results.csv", "results.json", "summary.csv"):
            assert _read(s1 / name) == _read(s2 / name)
        lines = (s1 / "results.csv").read_text().splitlines()
        assert lines[0].startswith("method,seed,n_samples")
        assert len(lines) == 1 + 2 + 1  # header + blob rows (N=0,5) + mle row

    def test_race_outputs(self, tmp_path):
        out = tmp_path / "race"
        assert main(["race", "--out-dir", str(out), "--square-steps", "2000",
                     "--softplus-steps", "2000", "--record-every", "200"]) == 0
        square = (out / "race_square.csv").read_text().splitlines()
        softplus = (out / "race_softplus.csv").read_text().splitlines()
        assert square[0] == "step,sigma_q"
        sq_final = float(square[-1].split(",")[1])
        sp_final = float(softplus[-1].split(",")[1])
        assert sq_final > sp_final  # square map opens the std faster

    def test_verify_theorems_exit_code_and_output(self, tmp_path, capsys):
        code = main(["verify-theorems", "--draws", "20000", "--flipout-draws", "3000",
                     "--n", "3", "--m", "4", "--r", "2", "--out-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert "posterior-mean-moments" in captured.out
        assert "parameterization-race" in captured.out
        payload = json.loads((tmp_path / "theorems.json").read_text())
        assert {c["name"] for c in payload} >= {"full-weight-kl-equivalence"}
        # Every check scales its limit with the draw count, so honest draws
        # pass at reduced counts too (the old 5 % variance rule read 0.076 here).
        assert code == 0, captured.out

    def test_verify_theorems_cli_defaults_pass_with_recorded_bytes(self, monkeypatch, capsys):
        """The bench's verify workload runs the battery at the CLI defaults and
        wants 7 lines that all read PASS; its stdout is pinned as recorded, so
        a check added, renamed or moved shows here first."""
        monkeypatch.delenv(ENV_OUT_DIR, raising=False)
        assert main(["verify-theorems"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == 7 and all(line.startswith("PASS") for line in lines), lines
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DEFAULTS_STDOUT_SHA256

    @pytest.mark.parametrize("flags", sorted(VERIFY_STDOUT_SHA256))
    def test_verify_theorems_stdout_matches_recorded_bytes(self, flags, tmp_path, capsys):
        assert main(["verify-theorems", *flags.split(), "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_SHA256[flags], out

    def test_verify_theorems_degenerate_b_no_crash(self, capsys):
        # The degenerate b must be reported, not crash.
        code = main(["verify-theorems", "--draws", "2000", "--degenerate-b"])
        captured = capsys.readouterr()
        assert "rank precondition violated" in captured.out
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["suite", "--n-samples", "-1"],
        ["suite", "--seed", "-1"],
        ["train", "--method", "mle", "--seed", "-3"],
        ["eval", "--model-dir", ".", "--n-samples", "two"],
        ["race", "--record-every", "0"],
        ["race", "--square-steps", "-5"],
        ["race", "--softplus-steps", "-1"],
        ["verify-theorems", "--draws", "1"],
        ["verify-theorems", "--flipout-draws", "1"],
        ["verify-theorems", "--m", "0"],
        ["verify-theorems", "--n", "0"],
        ["verify-theorems", "--r", "-2"],
    ])
    def test_bad_integer_flag_exits_2_naming_the_flag(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: must be an integer >= " in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "abc"])
    @pytest.mark.parametrize("argv", [
        ["race", "--sigma-p"],
        ["race", "--sigma-q0"],
        ["race", "--lr"],
        ["verify-theorems", "--sigma-p"],
    ], ids=" ".join)
    def test_bad_float_flag_exits_2_naming_the_flag(self, argv, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + [value, "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert f"argument {argv[-1]}: must be a finite number > 0.0, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["race", "--lr", "1"], "argument --lr: lr = 1.0 makes the descent diverge: sigma = inf at step 6"),
        (["race", "--lr", "1", "--square-steps", "8"], "argument --lr: lr = 1.0 makes the descent diverge"),
        (["verify-theorems", "--r", "3"],
         "argument --r: r must satisfy 1 <= r < min(m, n); got r=3, m=4, n=3"),
        (["verify-theorems", "--m", "70", "--n", "70"],
         "argument --m/--n: full-weight dimension m*n = 4900 exceeds guard 4096"),
    ], ids=" ".join)
    def test_cross_flag_error_exits_2_naming_the_flag(self, argv, message, tmp_path, capsys):
        """Errors no flag type can see, a diverging race or a rank or size
        that depends on several flags, are usage errors too."""
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert f"bayeslora {argv[0]}: error: {message}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_train_requires_method(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "the following arguments are required: --method" in capsys.readouterr().err

    def test_env_var_out_dir(self, tiny_config, tmp_path, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("BAYESLORA_OUT_DIR", str(target))
        assert main(["gen-data", "--config", tiny_config]) == 0
        assert (target / "train.csv").exists()

    def test_write_config_is_loadable(self, tmp_path):
        assert main(["write-config", "--out-dir", str(tmp_path)]) == 0
        cfg = load_config(str(tmp_path / "config.ini"))
        assert cfg.train == TrainConfig()

    def test_written_files_match_golden(self, tiny_config, tmp_path, capsys):
        """Every file one short run of each writing command leaves, byte for byte."""
        out = tmp_path / "out"
        model = str(out / "model")
        for argv in (
            ["gen-data", "--config", tiny_config, "--out-dir", str(out / "data")],
            ["train", "--config", tiny_config, "--method", "blob", "--out-dir", model],
            ["eval", "--config", tiny_config, "--model-dir", model, "--n-samples", "5",
             "--out-dir", str(out / "eval")],
            ["verify-theorems", "--draws", "2000", "--flipout-draws", "50",
             "--out-dir", str(out / "theorems")],
            ["race", "--square-steps", "300", "--softplus-steps", "300", "--record-every", "7",
             "--out-dir", str(out / "race")],
        ):
            main(argv)
        hashes = {
            path.relative_to(out).as_posix(): hashlib.sha256(_read(path)).hexdigest()
            for path in sorted(out.rglob("*"))
            if path.is_file()
        }
        assert hashes == GOLDEN_FILES_SHA256

    @pytest.mark.parametrize("case", sorted(GOLDEN_TRAIN_PATHS))
    def test_train_paths_match_golden(self, case, tmp_path, capsys):
        """Dropout under flipout, bbb and the ens members: each
        trained model and trajectory, byte for byte."""
        method, extra, model_shas, trajectory_shas = GOLDEN_TRAIN_PATHS[case]
        ini = tmp_path / "tiny.ini"
        ini.write_text(TINY_INI.replace("[train]\n", f"[train]\n{extra}\n"))
        out = tmp_path / "model"
        assert main(["train", "--config", str(ini), "--method", method, "--out-dir", str(out)]) == 0
        assert len(list(out.glob("model-*.txt"))) == len(model_shas)
        hashes = [[hashlib.sha256(_read(out / f"{stem}-{k}.{ext}")).hexdigest() for k in range(len(model_shas))]
                  for stem, ext in (("model", "txt"), ("trajectory", "csv"))]
        assert hashes == [list(model_shas), list(trajectory_shas)]
