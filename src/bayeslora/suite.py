"""Experiment orchestration and numeric verification of the core identities.

``run_suite`` expands a configuration into (method, seed, n_samples)
cells, trains each (method, seed) model once, evaluates it at every
requested sample count, and writes deterministic CSV/JSON tables; the
aggregate table reports mean and sample standard deviation across seeds.
Wall-clock timings are kept off the serialized outputs so that reruns are
byte-identical.

``verify_theorems`` runs the oracle battery at desk scale: sampled
moments of the induced full-weight posterior, convergence of the
lambda-ridged full-weight KL to the closed form, independence of the
prior from the choice of its low-rank factor, flipout's decorrelation and
marginal-variance guarantees, and the square-vs-softplus convergence
race.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .adapter import VariationalAdapter, branch_draws, forward_flipout, forward_mean, forward_naive_shared
from .baselines import SAMPLING_METHODS, BaselineModel, predict_baseline, train_baseline
from .configio import SuiteConfig
from .kl import (
    PriorSpec,
    build_full_posterior,
    build_full_prior,
    kl_closed_form,
    kl_full_weight_regularized,
)
from .metrics import CalibrationReport, ece
from .parammaps import ParamMap, convergence_race
from .tasks import generate_task
from .training import train  # noqa: F401  (bench/run.py traces training under this name)

__all__ = [
    "RunResult",
    "TheoremCheck",
    "TheoremReport",
    "run_suite",
    "verify_theorems",
    "sample_full_weights",
    "train_method",
    "predict_method",
    "write_results_csv",
    "write_results_json",
    "write_summary_csv",
]

@dataclass
class RunResult:
    method: str
    seed: int
    n_inference_samples: int
    task_label: str
    status: str                        # "ok" or an error description
    report: CalibrationReport | None
    wall_time: float                   # in-memory only, never serialized


def train_method(
    method: str,
    cfg: SuiteConfig,
    dataset: tuple[np.ndarray, np.ndarray],
    seed: int,
) -> BaselineModel:
    """Train one method at one seed on the given dataset."""
    return train_baseline(
        replace(cfg.baseline, kind=method), cfg.net_shape(), dataset, replace(cfg.train, seed=seed)
    )


def predict_method(
    trained: BaselineModel,
    x: np.ndarray,
    n_samples: int,
    seed: int,
) -> np.ndarray:
    return predict_baseline(trained, x, n_samples, seed)


def run_suite(cfg: SuiteConfig) -> tuple[list[RunResult], bool]:
    """All cells of the configured grid; failures are recorded, not raised.

    N-sample counts only vary for the sampling methods (mcd, bbb, blob);
    the deterministic methods emit a single row per seed.
    """
    results: list[RunResult] = []
    any_failed = False
    task_label = f"{cfg.task.generator}/{cfg.task.shift}"
    for seed in cfg.seeds:
        data_seed = cfg.data_seed_offset + seed
        train_ds, test_ds = generate_task(cfg.task, seed=data_seed)
        dataset = (train_ds.x, train_ds.y)
        for method in cfg.methods:
            n_values = cfg.n_samples_list if method in SAMPLING_METHODS else (0,)
            t0 = time.perf_counter()
            try:
                trained = train_method(method, cfg, dataset, seed)
            except Exception as exc:  # per-cell failure, suite continues
                any_failed = True
                for n in n_values:
                    results.append(
                        RunResult(method, seed, n, task_label, f"error: {exc}", None, 0.0)
                    )
                continue
            train_time = time.perf_counter() - t0
            for n in n_values:
                t1 = time.perf_counter()
                try:
                    probs = predict_method(trained, test_ds.x, n, seed)
                    report = ece(probs, test_ds.y)
                    status = "ok"
                except Exception as exc:
                    any_failed = True
                    report, status = None, f"error: {exc}"
                results.append(
                    RunResult(
                        method, seed, n, task_label, status, report,
                        train_time + (time.perf_counter() - t1),
                    )
                )
    return results, any_failed


def _csv_safe(text: str) -> str:
    return text.replace(",", ";").replace("\n", " ")


def write_results_csv(results: list[RunResult], path: str) -> None:
    lines = ["method,seed,n_samples,task,status,acc,ece,nll,n_test"]
    for r in results:
        rep = r.report
        row = f"{r.method},{r.seed},{r.n_inference_samples},{r.task_label},{_csv_safe(r.status)},"
        lines.append(row + (",,," if rep is None else f"{rep.acc!r},{rep.ece!r},{rep.nll!r},{rep.n}"))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_results_json(results: list[RunResult], path: str) -> None:
    payload = []
    for r in results:
        entry = {
            "method": r.method,
            "seed": r.seed,
            "n_samples": r.n_inference_samples,
            "task": r.task_label,
            "status": r.status,
        }
        if r.report is not None:
            entry.update(acc=r.report.acc, ece=r.report.ece, nll=r.report.nll, n_test=r.report.n)
        payload.append(entry)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), std


def write_summary_csv(results: list[RunResult], path: str) -> None:
    """Mean +/- sample standard deviation over seeds per (method, n_samples)."""
    groups: dict[tuple[str, int], list[CalibrationReport]] = {}  # in first-seen order
    for r in results:
        if r.report is not None:
            groups.setdefault((r.method, r.n_inference_samples), []).append(r.report)
    lines = ["method,n_samples,n_seeds,acc_mean,acc_std,ece_mean,ece_std,nll_mean,nll_std"]
    for key, reports in groups.items():
        acc_m, acc_s = _mean_std([rep.acc for rep in reports])
        ece_m, ece_s = _mean_std([rep.ece for rep in reports])
        nll_m, nll_s = _mean_std([rep.nll for rep in reports])
        lines.append(
            f"{key[0]},{key[1]},{len(reports)},{acc_m!r},{acc_s!r},{ece_m!r},{ece_s!r},{nll_m!r},{nll_s!r}"
        )
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# Theorem verification battery
# --------------------------------------------------------------------------


@dataclass
class TheoremCheck:
    name: str
    status: str   # "pass" | "fail" | "precondition_violated"
    margin: str


@dataclass
class TheoremReport:
    checks: list[TheoremCheck]

    def any_failed(self) -> bool:
        return any(c.status == "fail" for c in self.checks)

    def lines(self) -> list[str]:
        width = max(len(c.name) for c in self.checks)
        out = []
        for c in self.checks:
            tag = {"pass": "PASS", "fail": "FAIL", "precondition_violated": "SKIP"}[c.status]
            out.append(f"{tag}  {c.name.ljust(width)}  {c.margin}")
        return out


def _random_adapter(m: int, n: int, r: int, rng: np.random.Generator) -> VariationalAdapter:
    return VariationalAdapter(
        w0=rng.normal(size=(m, n)),
        b=rng.normal(size=(m, r)),
        mean_a=rng.normal(0.0, 0.5, size=(r, n)),
        g=rng.uniform(0.3, 0.9, size=(r, n)),
    )


def _max_z(err: np.ndarray, se: np.ndarray, scale: np.ndarray) -> tuple[float, bool, int]:
    """Largest err / se over the stochastic entries, whether the others are
    exact, and how many entries are stochastic.

    Entries whose standard error is pure float rounding are deterministic;
    there the z-score is noise over noise, so they are checked in absolute
    terms instead.
    """
    stochastic = se > 1e-12 * scale
    exact_ok = bool(np.all(err[~stochastic] <= 1e-9 * scale[~stochastic]))
    max_z = float((err[stochastic] / se[stochastic]).max()) if stochastic.any() else 0.0
    return max_z, exact_ok, int(stochastic.sum())


def sample_full_weights(
    adapter: VariationalAdapter, n_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """(n_draws, m*n) draws of vec(w0 + b a) with a ~ q, column-stacked."""
    eps = rng.standard_normal(size=(n_draws,) + adapter.mean_a.shape)
    a = adapter.mean_a + adapter.omega() * eps
    w = adapter.w0[None, :, :] + np.einsum("ij,njk->nik", adapter.b, a)
    return w.transpose(0, 2, 1).reshape(n_draws, -1)


def _posterior_moment_check(
    adapter: VariationalAdapter, n_draws: int, rng: np.random.Generator
) -> tuple[TheoremCheck, TheoremCheck]:
    """Empirical mean/covariance of vec(w0 + b a), a ~ q, against the closed form."""
    q = build_full_posterior(adapter)
    flat = sample_full_weights(adapter, n_draws, rng)
    emp_mean = flat.mean(axis=0)
    emp_cov = np.cov(flat.T, ddof=1)
    mean_se = flat.std(axis=0, ddof=1) / math.sqrt(n_draws)
    max_z, exact_ok, _ = _max_z(
        np.abs(emp_mean - q.mu[:, 0]), mean_se, np.maximum(1.0, np.abs(q.mu[:, 0]))
    )
    mean_check = TheoremCheck(
        name="posterior-mean-moments",
        status="pass" if max_z <= 3.0 and exact_ok else "fail",
        margin=f"max |z| = {max_z:.3f} (limit 3.0) over {n_draws} draws",
    )
    # Gaussian sample covariances are Wishart: Var(S_ij) = (C_ij^2 + C_ii C_jj) / (n - 1).
    # A z-score holds near-zero entries to their own noise level, where a
    # relative error would be noise over a vanishing denominator.
    diag = np.diag(q.cov)
    cov_se = np.sqrt((q.cov**2 + np.outer(diag, diag)) / (n_draws - 1))
    max_cov_z, cov_exact_ok, n_entries = _max_z(
        np.abs(emp_cov - q.cov), cov_se, np.maximum(1.0, np.abs(q.cov))
    )
    cov_check = TheoremCheck(
        name="posterior-covariance-moments",
        status="pass" if max_cov_z <= 4.5 and cov_exact_ok else "fail",
        margin=f"max |z| = {max_cov_z:.3f} (limit 4.5) on {n_entries} entries",
    )
    return mean_check, cov_check


def _kl_equivalence_check(
    adapter: VariationalAdapter, sigma_p: float, degenerate_b: bool
) -> list[TheoremCheck]:
    prior = PriorSpec(sigma_p)
    if degenerate_b or np.linalg.matrix_rank(adapter.b) < adapter.rank:
        return [
            TheoremCheck(
                name="full-weight-kl-equivalence",
                status="precondition_violated",
                margin="rank precondition violated: b does not have full column rank",
            )
        ]
    q = build_full_posterior(adapter)
    p = build_full_prior(adapter.w0, adapter.b, prior)
    closed = kl_closed_form(adapter.mean_a, adapter.g, prior)
    lambdas = (1e-4, 1e-6, 1e-8)
    gaps = [abs(kl_full_weight_regularized(q, p, lam) - closed) / abs(closed) for lam in lambdas]
    monotone = all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))
    final_ok = gaps[-1] <= 1e-4
    checks = [
        TheoremCheck(
            name="full-weight-kl-equivalence",
            status="pass" if monotone and final_ok else "fail",
            margin=(
                "rel gap over lambda {1e-4,1e-6,1e-8} = "
                + ", ".join(f"{g:.3e}" for g in gaps)
                + " (monotone, final <= 1e-4)"
            ),
        )
    ]
    # The prior may be built from any factor R with R R^T = b b^T.
    rng = np.random.default_rng(12345)
    q_mat, _ = np.linalg.qr(rng.normal(size=(adapter.rank, adapter.rank)))
    p_rot = build_full_prior(adapter.w0, adapter.b, prior, r_factor=adapter.b @ q_mat)
    kl_a = kl_full_weight_regularized(q, p, 1e-8)
    kl_b = kl_full_weight_regularized(q, p_rot, 1e-8)
    rel = abs(kl_a - kl_b) / abs(kl_a)
    checks.append(
        TheoremCheck(
            name="prior-factor-choice-invariance",
            status="pass" if rel <= 1e-8 else "fail",
            margin=f"rel diff between R = b and R = b q = {rel:.3e} (limit 1e-8)",
        )
    )
    return checks


def _flipout_checks(n_draws: int, seed: int) -> list[TheoremCheck]:
    rng = np.random.default_rng(seed)
    m = n = 8
    r, batch = 2, 64
    adapter = _random_adapter(m, n, r, rng)
    h = np.tile(rng.normal(size=(n, 1)), (1, batch))
    mean_out = forward_mean(adapter, h)

    def perturbations(mode: str) -> np.ndarray:
        out = np.empty((n_draws, m, batch))
        for d in range(n_draws):
            draws = branch_draws(mode, rng, n, batch, r)
            if mode == "flipout":
                out[d] = forward_flipout(adapter, h, draws) - mean_out
            else:
                out[d] = forward_naive_shared(adapter, h, *draws) - mean_out
        return out

    def mean_abs_corr(d: np.ndarray) -> float:
        centred = d - d.mean(axis=0, keepdims=True)
        cov = np.einsum("dki,dkj->kij", centred, centred) / (n_draws - 1)
        sd = np.sqrt(np.einsum("kii->ki", cov))
        corr = cov / (sd[:, :, None] * sd[:, None, :] + 1e-300)
        iu = np.triu_indices(batch, 1)
        return float(np.abs(corr[:, iu[0], iu[1]]).mean())

    flip = perturbations("flipout")
    shared = perturbations("shared")
    corr_flip = mean_abs_corr(flip)
    corr_shared = mean_abs_corr(shared)
    corr_check = TheoremCheck(
        name="flipout-decorrelation",
        status="pass" if corr_flip <= 0.05 and corr_shared >= 0.5 else "fail",
        margin=f"mean |corr|: flipout = {corr_flip:.4f} (<= 0.05), shared = {corr_shared:.4f} (>= 0.5)",
    )

    # Naive independent per-example sampling as the marginal-variance oracle.
    naive = np.empty((n_draws, m, batch))
    omega = adapter.omega()
    for d in range(n_draws):
        noise = rng.standard_normal((batch, r, n))
        a = adapter.mean_a[None] + omega[None] * noise
        ah = np.einsum("brn,nb->rb", a, h)
        naive[d] = adapter.w0 @ h + adapter.b @ ah - mean_out
    var_flip = flip.var(axis=0).sum(axis=0)
    var_naive = naive.var(axis=0).sum(axis=0)
    rel = float(np.max(np.abs(var_flip - var_naive) / np.maximum(var_naive, 1e-300)))
    var_check = TheoremCheck(
        name="flipout-marginal-variance",
        status="pass" if rel <= 0.05 else "fail",
        margin=f"max per-example rel diff vs naive sampling = {rel:.4f} (limit 0.05)",
    )
    return [corr_check, var_check]


def _race_check() -> TheoremCheck:
    square = convergence_race(ParamMap.SQUARE, 1.0, 0.01, 1e-4, 0.9, 10_000)
    softplus = convergence_race(ParamMap.SOFTPLUS, 1.0, 0.01, 1e-4, 0.9, 50_000)
    ok = square < 10_000 and softplus == 50_000 and square < softplus
    return TheoremCheck(
        name="parameterization-race",
        status="pass" if ok else "fail",
        margin=f"square reached 0.9 in {square} steps; softplus capped at {softplus}",
    )


def verify_theorems(
    m: int = 4,
    n: int = 3,
    r: int = 2,
    sigma_p: float = 0.2,
    n_draws: int = 100_000,
    flipout_draws: int = 10_000,
    seed: int = 0,
    degenerate_b: bool = False,
) -> TheoremReport:
    """Run the full oracle battery and report per-check margins."""
    for name, value in (("n_draws", n_draws), ("flipout_draws", flipout_draws)):
        if value < 2:  # a spread over one draw is 0 or undefined: a check on it shows nothing
            raise ValueError(f"{name} must be >= 2, got {value}")
    if m * n > 4096:
        raise ValueError("m*n exceeds the dense-oracle guard (4096)")
    rng = np.random.default_rng(seed)
    adapter = _random_adapter(m, n, r, rng)
    if degenerate_b:
        adapter.b = np.zeros_like(adapter.b)

    return TheoremReport(checks=[
        *_posterior_moment_check(adapter, n_draws, rng),
        *_kl_equivalence_check(adapter, sigma_p, degenerate_b),
        *_flipout_checks(flipout_draws, seed + 1),
        _race_check(),
    ])
