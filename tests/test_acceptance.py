"""Acceptance gate: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line with margins per criterion.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from bayeslora.baselines import BaselineSpec, predict_baseline, train_baseline
from bayeslora.cli import main
from bayeslora.kl import PriorSpec, kl_closed_form, kl_monte_carlo
from bayeslora.metrics import ece
from bayeslora.suite import (
    _flipout_checks,
    _kl_equivalence_check,
    _posterior_moment_check,
    _race_check,
    _random_adapter,
)
from bayeslora.tasks import TaskSpec, generate_task
from bayeslora.training import TrainConfig, build_small_net, elbo_minibatch


def _report(line: str) -> None:
    print(line)


def test_criterion_01_full_weight_kl_equivalence():
    """20 random adapters: ridged full-weight KL -> closed form as lambda -> 0
    (monotone, final rel gap <= 1e-4), and the prior does not depend on the
    choice of its factor R, by verify-theorems' own KL-equivalence check."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for trial in range(20):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 6))
        r = int(rng.integers(1, min(m, n)))
        sigma_p = 0.2 if trial % 2 == 0 else 1.0
        adapter = _random_adapter(m, n, r, rng)
        checks = _kl_equivalence_check(adapter, sigma_p, degenerate_b=False)
        names = [check.name for check in checks]
        assert names == ["full-weight-kl-equivalence", "prior-factor-choice-invariance"], names
        for check in checks:
            assert check.status == "pass", f"trial {trial} {check.name}: {check.margin}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(
        f"criterion 01 PASS full-weight KL equivalence and prior-factor invariance "
        f"on 20 adapters; last: {checks[0].margin}; {checks[1].margin} ({elapsed:.2f}s < 10s)"
    )


def test_criterion_02_posterior_moments():
    """1e5 sampled vec(w0 + b a): mean within 3 SE, covariance within 4.5
    Wishart SE, by verify-theorems' own posterior-moment check on the
    adapter that ``verify-theorems --seed 0`` builds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    adapter = _random_adapter(4, 3, 2, rng)
    checks = _posterior_moment_check(adapter, 100_000, rng)
    for check in checks:
        assert check.status == "pass", f"{check.name}: {check.margin}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(
        f"criterion 02 PASS posterior moments: mean {checks[0].margin}; "
        f"covariance {checks[1].margin} ({elapsed:.2f}s < 30s)"
    )


def test_criterion_03_kl_monte_carlo_agreement():
    """Closed form within 3 standard errors of the 1e6-sample MC estimate."""
    rng = np.random.default_rng(77)
    worst_z = 0.0
    for trial in range(10):
        r = int(rng.integers(1, 4))
        n = int(rng.integers(2, 5))
        mean_a = rng.normal(0.0, 0.5, size=(r, n))
        g = rng.uniform(0.3, 0.9, size=(r, n))
        prior = PriorSpec(float(rng.uniform(0.15, 1.0)))
        closed = kl_closed_form(mean_a, g, prior)
        est, se = kl_monte_carlo(mean_a, g, prior, 1_000_000, seed=trial)
        z = abs(est - closed) / se
        assert z <= 3.0, f"trial {trial}: z = {z:.2f}"
        worst_z = max(worst_z, z)
    _report(
        f"criterion 03 PASS KL Monte-Carlo agreement: worst |z| {worst_z:.2f} <= 3 "
        f"over 10 configurations at 1e6 samples"
    )


def test_criterion_04_gradient_correctness():
    """Analytic gradients of the minibatch objective wrt mean_a, g, b match
    central finite differences (h = 1e-5) within 1e-5 relative, on a
    6-input / 4-hidden / 3-class net, 10 random points, fixed noise."""
    h = 1e-5
    worst = 0.0
    for point in range(10):
        config = TrainConfig(seed=point, k_train_samples=1)
        net = build_small_net(6, (4,), 3, 2, config)
        rng = np.random.default_rng(1000 + point)
        for layer in net.layers:
            layer.adapter.b[...] = rng.normal(0, 0.5, layer.adapter.b.shape)
            layer.adapter.mean_a[...] = rng.normal(0, 0.5, layer.adapter.mean_a.shape)
            layer.adapter.g[...] = rng.uniform(0.2, 0.8, layer.adapter.g.shape)
        x = rng.normal(size=(8, 6))
        y = rng.integers(0, 3, size=8)
        noise_seed = 5000 + point
        res = elbo_minibatch(net, x, y, config, kl_weight=1.0, seed=noise_seed)
        analytic = net.views(res.likelihood_grad + res.kl_grad)
        for key in ("layers.0.mean_a", "layers.0.g", "layers.0.b"):
            param = net.trainable_params()[key]
            grad = analytic[key]
            flat = param.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up = elbo_minibatch(net, x, y, config, kl_weight=1.0, seed=noise_seed).loss
                flat[idx] = orig - h
                dn = elbo_minibatch(net, x, y, config, kl_weight=1.0, seed=noise_seed).loss
                flat[idx] = orig
                fd = (up - dn) / (2.0 * h)
                an = grad.reshape(-1)[idx]
                err = abs(an - fd)
                rel = err / max(abs(an), abs(fd), 1e-6)
                worst = max(worst, rel)
                if err > 1e-8:
                    assert rel <= 1e-5, f"point {point} {key}[{idx}]: rel {rel:.2e}"
    _report(
        f"criterion 04 PASS gradient correctness: worst rel err {worst:.2e} <= 1e-5 "
        f"on 10 random points (6-4-3 net, fixed noise)"
    )


def test_criterion_05_parameterization_race():
    """Square map opens sigma_q to 0.9 within 10k steps; softplus stalls at
    50k, by verify-theorems' own race check."""
    t0 = time.perf_counter()
    check = _race_check()
    assert check.status == "pass", check.margin
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(f"criterion 05 PASS parameterization race: {check.margin} ({elapsed:.2f}s < 5s)")


def test_criterion_06_flipout_efficiency():
    """b=64, m=n=8, r=2: decorrelated across examples, and each example's
    variance within 4.5 SE of the exact naive-sampling variance, by
    verify-theorems' own flipout checks at 1e4 draws."""
    checks = _flipout_checks(10_000, 5)
    for check in checks:
        assert check.status == "pass", f"{check.name}: {check.margin}"
    _report(f"criterion 06 PASS flipout efficiency: {checks[0].margin}; {checks[1].margin}")


# One shared 5-seed experiment feeds criteria 7 and 8.
_CAL_TASK = TaskSpec(
    generator="gauss_blobs", n_train=500, n_test=2000, n_classes=2,
    input_dim=2, noise_scale=1.25, shift="none",
)
_CAL_SHAPE = (2, (32, 32), 2, 2)
_CAL_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def calibration_runs():
    rows = {"mle": [], "blob": [], "mle_shift": [], "blob_shift": []}
    t0 = time.perf_counter()
    shifted_spec = replace(_CAL_TASK, shift="large")
    for seed in _CAL_SEEDS:
        train_ds, test_ds = generate_task(_CAL_TASK, seed=1000 + seed)
        _, test_shift = generate_task(shifted_spec, seed=1000 + seed)
        config = TrainConfig(seed=seed, steps=6000, batch_size=32, lr_likelihood=2e-2)

        mle = train_baseline(BaselineSpec("mle"), _CAL_SHAPE, (train_ds.x, train_ds.y), config)
        rows["mle"].append(ece(predict_baseline(mle, test_ds.x), test_ds.y))
        rows["mle_shift"].append(ece(predict_baseline(mle, test_shift.x), test_shift.y))

        blob = train_baseline(BaselineSpec("blob"), _CAL_SHAPE, (train_ds.x, train_ds.y), config)
        rows["blob"].append(ece(predict_baseline(blob, test_ds.x, 10, seed), test_ds.y))
        rows["blob_shift"].append(ece(predict_baseline(blob, test_shift.x, 10, seed), test_shift.y))
    rows["elapsed"] = time.perf_counter() - t0
    return rows


def test_criterion_07_calibration_property(calibration_runs):
    """5-seed medians: variational adapter (N=10) beats the deterministic
    baseline on ECE and NLL with accuracy within 3 points."""
    med = lambda key, field: float(np.median([getattr(r, field) for r in calibration_runs[key]]))
    ece_mle, ece_blob = med("mle", "ece"), med("blob", "ece")
    nll_mle, nll_blob = med("mle", "nll"), med("blob", "nll")
    acc_mle, acc_blob = med("mle", "acc"), med("blob", "acc")
    elapsed = calibration_runs["elapsed"]
    assert ece_blob < ece_mle
    assert nll_blob < nll_mle
    assert abs(acc_blob - acc_mle) <= 0.03
    assert elapsed < 300.0
    _report(
        f"criterion 07 PASS calibration property: median ECE {ece_blob:.4f} < {ece_mle:.4f}, "
        f"median NLL {nll_blob:.4f} < {nll_mle:.4f}, acc gap "
        f"{abs(acc_blob - acc_mle):.4f} <= 0.03 ({elapsed:.1f}s < 300s)"
    )


def test_criterion_08_shift_property(calibration_runs):
    """Under the large shift transform, the variational adapter's median NLL
    does not exceed the deterministic baseline's."""
    nll_mle = float(np.median([r.nll for r in calibration_runs["mle_shift"]]))
    nll_blob = float(np.median([r.nll for r in calibration_runs["blob_shift"]]))
    assert nll_blob <= nll_mle
    _report(
        f"criterion 08 PASS shift property: large-shift median NLL "
        f"{nll_blob:.4f} <= {nll_mle:.4f}"
    )


def test_criterion_09_metric_unit_fidelity():
    """Hand-binned 4-example ECE is 0.10; uniform-prediction NLL is log C."""
    probs = np.array([[0.6, 0.4], [0.6, 0.4], [0.9, 0.1], [0.9, 0.1]])
    labels = np.array([0, 1, 0, 0])
    report = ece(probs, labels)
    assert report.ece == pytest.approx(0.10, abs=1e-15)
    for c in (2, 3, 5):
        uniform = np.full((8, c), 1.0 / c)
        value = ece(uniform, np.zeros(8, dtype=int)).nll
        assert value == pytest.approx(math.log(c), abs=1e-12)
    _report(
        f"criterion 09 PASS metric unit fidelity: hand-binned ECE = {report.ece!r} "
        f"(0.10 within float ulp), uniform NLL = log C within 1e-12"
    )


def test_criterion_10_cli_determinism(tmp_path):
    """Rerunning any CLI command with identical config and seed produces
    byte-identical CSV/JSON outputs."""
    config = tmp_path / "tiny.ini"
    config.write_text(
        "[task]\nn_train = 80\nn_test = 120\nnoise_scale = 1.0\n"
        "[net]\nhidden = 8,8\n"
        "[train]\nsteps = 50\nbatch_size = 16\n"
        "[suite]\nmethods = mle,blob\nseeds = 0\nn_samples = 0,5\n"
    )
    checked = []
    for command, outputs in (
        (["gen-data", "--config", str(config)], ("train.csv", "test.csv")),
        (["race", "--square-steps", "1500", "--softplus-steps", "1500",
          "--record-every", "100"], ("race_square.csv", "race_softplus.csv")),
        (["suite", "--config", str(config)], ("results.csv", "results.json", "summary.csv")),
        (["verify-theorems", "--draws", "5000"], ("theorems.json",)),
    ):
        dir_a, dir_b = tmp_path / f"a{len(checked)}", tmp_path / f"b{len(checked)}"
        main(command + ["--out-dir", str(dir_a)])
        main(command + ["--out-dir", str(dir_b)])
        for name in outputs:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name
            checked.append(name)
    # train + eval round trip
    for tag in ("x", "y"):
        main(["train", "--config", str(config), "--method", "blob",
              "--out-dir", str(tmp_path / f"m{tag}")])
        main(["eval", "--config", str(config), "--model-dir", str(tmp_path / f"m{tag}"),
              "--n-samples", "5", "--out-dir", str(tmp_path / f"e{tag}")])
    for name in ("model.json", "trajectory-0.csv"):
        assert (tmp_path / "mx" / name).read_bytes() == (tmp_path / "my" / name).read_bytes()
    for name in ("report.json", "bins.csv"):
        assert (tmp_path / "ex" / name).read_bytes() == (tmp_path / "ey" / name).read_bytes()
        checked.append(name)
    _report(
        f"criterion 10 PASS CLI determinism: {len(checked)} CSV/JSON outputs "
        f"byte-identical across reruns"
    )
