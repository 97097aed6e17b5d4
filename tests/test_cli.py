import hashlib
import json
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from bayeslora.baselines import SAMPLING_METHODS
from bayeslora.cli import _load_trained, main
from bayeslora.configio import SuiteConfig, load_config, write_example_config
from bayeslora import suite
from bayeslora.adapter import branch_draws, branch_forward
from bayeslora.kl import build_full_posterior
from bayeslora.suite import (
    run_suite,
    verify_theorems,
    write_results_csv,
    write_results_json,
    write_summary_csv,
)
from bayeslora.tasks import TaskSpec
from bayeslora.training import TrainConfig, kl_window

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
# variance check became a z-score against the exact naive variance.
GOLDEN_FILES_SHA256 = {
    "data/test.csv": "918eefa59c4c588f926de23cb8572f1cbd35497e2fb9b33194faba3ef44f94da",
    "data/train.csv": "df1af6c56b15364df7fc5152e75bd4fdea7050c38d2c75e1cbf6b122902cb747",
    "eval/bins.csv": "efec4c7b632a50d388cee6e355f7cb9ef377d3274371aa7efbdbe7b10d4915cc",
    "eval/reliability.csv": "a450015b5795047295227d80864dc5f3f56f6ed4c2dda0b979c9e98d625d2170",
    "eval/report.json": "33ddbcaa9de438b5cff92866ab1251e3c1ba23e77e21102fd5f476a95486497c",
    "model/model-0.txt": "e8804ba39f45a5b88ff280a40ec79cc8f1fefc0b0467dabee784a07550a62b8c",
    "model/model.json": "4a8b08df17a50431c8e456348f582c3494997f44ae74a270e9d07ac029091ddf",
    "model/trajectory-0.csv": "8ef4fce8af8f1f47d9d420b5ccad78b8d7746bc52f7de518b405ca83e5dad9e8",
    "race/race_softplus.csv": "e7902ae7201be5a7c682cb7438f2fd79956a6f5cbd32f0a22df9783ed0d69f1f",
    "race/race_square.csv": "dc205eea0e24d0fd5138ef1e516fcb344d218557ff79c489a46231305c55479f",
    "theorems/theorems.json": "79ba933508922dad535a2c29d5fabac72362db082a76f5d9bb5bcc80999d1cb3",
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

    def test_schedule_overrides(self, tmp_path):
        path = tmp_path / "sched.ini"
        path.write_text("[schedule]\nn_minibatches = 7\n")
        cfg = load_config(str(path))
        assert kl_window(cfg.train, 500) == 7
        with pytest.raises(ValueError, match="^kl_window"):
            replace(cfg.train, kl_window=-1)

    def test_schedule_auto(self, tiny_config):
        cfg = load_config(tiny_config)
        assert kl_window(cfg.train, 100) >= 1
        assert kl_window(replace(cfg.train, kl_window=0), 100) == kl_window(cfg.train, 100)
        assert cfg.train.kl_mode == "blob_ascending"

    def test_small_gamma_names_gamma(self, tmp_path):
        """100 * L0**(pi/gamma) overflows a float at gamma = 0.01."""
        path = tmp_path / "gamma.ini"
        path.write_text("[train]\nsteps = 2\n[schedule]\ngamma = 0.01\n")
        with pytest.raises(ValueError, match="^gamma = 0.01"):
            main(["train", "--config", str(path), "--method", "blob", "--out-dir", str(tmp_path)])

    def test_bbb_honours_n_minibatches(self, tiny_config):
        """bbb weights the KL uniformly over the warm-up window, so every
        step's weight is 1 / n_minibatches."""
        cfg = load_config(tiny_config)
        cfg = replace(cfg, train=replace(cfg.train, steps=10, kl_window=7))
        train_ds, _ = suite.generate_task(cfg.task, seed=cfg.data_seed_offset)
        trained = suite.train_method("bbb", cfg, (train_ds.x, train_ds.y), 0)
        assert [rec.kl_weight for rec in trained.logs[0]] == [1.0 / 7] * 10

    @pytest.mark.parametrize(
        "field, value",
        [
            ("train.bayesianize_b", "ture"),
            ("train.steps", "1e3"),
            ("train.sigma_p", "small"),
            ("train.param_map", "cube"),
            ("schedule.n_minibatches", "7.5"),
            ("suite.seeds", "0,x"),
            ("suite.methods", "mle,blub"),
        ],
    )
    def test_bad_value_names_its_key(self, tmp_path, field, value):
        section, key = field.split(".")
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ValueError, match=f"^{field}: "):
            load_config(str(path))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("net.rank", "0"),
            ("net.hidden", "0,4"),
            ("net.hidden", ","),
            ("schedule.n_minibatches", "-3"),
            ("schedule.gamma", "-1"),
            ("suite.seeds", "-1"),
            ("suite.seeds", ","),
            ("suite.n_samples", "-2"),
            ("suite.n_samples", ","),
            ("suite.methods", ","),
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

    def test_boolean_spellings(self, tmp_path):
        path = tmp_path / "bool.ini"
        for raw, value in (("1", True), ("Yes", True), ("on", True), ("0", False), ("OFF", False)):
            path.write_text(f"[train]\nbayesianize_b = {raw}\n")
            assert load_config(str(path)).train.bayesianize_b is value


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
            lambda ad: build_full_posterior(replace(ad, g=ad.g / np.sqrt(1.01))),
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
        def no_draws(*args):
            raise AssertionError("weights were drawn before the guard ran")

        monkeypatch.setattr(suite, "sample_full_weights", no_draws)
        with pytest.raises(ValueError, match="exceeds guard 4096"):
            verify_theorems(m=70, n=70)

    def test_streamed_flipout_moments_match_two_passes(self, monkeypatch):
        """The chunked one-pass covariance equals np.cov-style centring over
        the full stack of per-draw perturbations, across chunk boundaries."""
        monkeypatch.setattr(suite, "_FLIPOUT_CHUNK", 7)
        adapter = suite._random_adapter(8, 8, 2, np.random.default_rng(40))
        h = np.random.default_rng(41).normal(size=(8, 16))
        omega = adapter.omega()
        c_mean = branch_forward("mean", adapter.mean_a, omega, h, ())
        for mode in ("flipout", "shared"):
            streamed = suite._perturbation_cov(adapter, h, mode, 50, np.random.default_rng(42))
            rng = np.random.default_rng(42)
            stack = np.stack([
                adapter.b @ (branch_forward(mode, adapter.mean_a, omega, h, branch_draws(mode, rng, 8, 16, 2))
                             - c_mean)
                for _ in range(50)
            ])
            centred = stack - stack.mean(axis=0)
            two_pass = np.einsum("dki,dkj->kij", centred, centred) / 49
            assert np.max(np.abs(streamed - two_pass)) <= 1e-12 * np.max(np.abs(two_pass)), mode

    @pytest.mark.parametrize("seed", [1, 3, 4, 7, 9])
    def test_flipout_checks_pass_honest_draws(self, seed):
        checks = suite._flipout_checks(10_000, seed)
        assert [c.status for c in checks] == ["pass", "pass"], [c.margin for c in checks]

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
        def masked(mode, rng, n, batch, r):
            draws = branch_draws(mode, rng, n, batch, r)
            if mode != "flipout":
                return draws
            s, t, e = draws
            if drop == "both":
                return np.ones_like(s), np.ones_like(t), e
            return np.repeat(s[:, :1], batch, axis=1), np.repeat(t[:1], batch, axis=0), e

        monkeypatch.setattr(suite, "branch_draws", masked)
        corr, _ = suite._flipout_checks(10_000, 1)
        assert corr.name == "flipout-decorrelation"
        assert corr.status == "fail", corr.margin

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

    @pytest.mark.parametrize(
        "mutate, field",
        [
            pytest.param(lambda m: m.update(extra=1), "model.json: keys", id="extra-key"),
            pytest.param(lambda m: m.pop("seed"), "model.json: keys", id="missing-key"),
            pytest.param(lambda m: m.update(method="blub"), "model.json method", id="unknown-method"),
            pytest.param(lambda m: m.update(seed=-1), "model.json seed", id="negative-seed"),
            pytest.param(lambda m: m.update(seed=3.0), "model.json seed", id="float-seed"),
            pytest.param(lambda m: m.update(model_files=[]), "model.json model_files", id="no-files"),
            pytest.param(lambda m: m.update(model_files="model-0.txt"), "model.json model_files",
                         id="files-not-a-list"),
            pytest.param(lambda m: m.update(model_files=["../model-0.txt"]), "model.json model_files",
                         id="file-outside-dir"),
            pytest.param(lambda m: m.update(n_members=5), "model.json n_members", id="count-vs-files"),
            pytest.param(lambda m: m.update(baseline={}), "model.json baseline", id="empty-baseline"),
            pytest.param(lambda m: m.update(method="ens"), "model.json n_members", id="count-vs-method"),
        ],
    )
    def test_malformed_manifest_names_the_field(self, tiny_config, tmp_path, mutate, field):
        model_dir = tmp_path / "model"
        assert main(["train", "--config", tiny_config, "--method", "mcd",
                     "--out-dir", str(model_dir)]) == 0
        assert len(_load_trained(str(model_dir))[0].models) == 1
        manifest = json.loads((model_dir / "model.json").read_text())
        mutate(manifest)
        (model_dir / "model.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"^{field}"):
            _load_trained(str(model_dir))

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
