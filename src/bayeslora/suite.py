"""Experiment orchestration and numeric verification of the core identities.

``run_suite`` expands a configuration into (method, seed, n_samples)
cells, trains each (method, seed) model once and predicts every requested
sample count of it in one call; the ``write_*`` functions turn its rows into
deterministic CSV/JSON tables, the aggregate one holding the mean and
sample standard deviation across seeds.

``verify_theorems`` runs the oracle battery at desk scale: sampled
moments of the induced full-weight posterior, convergence of the
lambda-ridged full-weight KL to the closed form, independence of the
prior from the choice of its low-rank factor, flipout's decorrelation and
marginal-variance guarantees, and the square-vs-softplus convergence
race.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .adapter import VariationalAdapter, branch_draws, branch_forward, forward_naive_shared
from .adapter import forward_flipout, forward_mean  # noqa: F401  (bench/run.py traces these names here)
from .baselines import SAMPLING_METHODS, BaselineModel, predict_baseline, train_baseline
from .configio import SuiteConfig
from .kl import (
    PriorSpec,
    build_full_posterior,
    build_full_prior,
    kl_closed_form,
    kl_full_weight_regularized,
    vec,
)
from .metrics import CalibrationReport, ece
from .parammaps import ParamMap, apply_map, convergence_race
from .tasks import generate_task
from .textio import write_csv, write_json
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
    n_samples: int
    task: str
    status: str                        # "ok" or an error description
    report: CalibrationReport | None


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
    """Class probabilities of one trained method at one sample count."""
    return predict_baseline(trained, x, (n_samples,), seed)[0]


def run_suite(cfg: SuiteConfig) -> list[RunResult]:
    """All cells of the configured grid; failures are recorded, not raised.

    N-sample counts only vary for the sampling methods (mcd, bbb, blob),
    whose counts are snapshots of one stream of passes; the deterministic
    methods emit a single row per seed.
    """
    results: list[RunResult] = []
    task = f"{cfg.task.generator}/{cfg.task.shift}"
    for seed in cfg.seeds:
        train_ds, test_ds = generate_task(cfg.task, seed=cfg.data_seed_offset + seed)
        dataset = (train_ds.x, train_ds.y)
        for method in cfg.methods:
            n_values = cfg.n_samples_list if method in SAMPLING_METHODS else (0,)
            try:
                trained = train_method(method, cfg, dataset, seed)
                predictions = predict_baseline(trained, test_ds.x, n_values, seed)
            except Exception as exc:  # per-cell failure, suite continues
                for n in n_values:
                    results.append(RunResult(method, seed, n, task, f"error: {exc}", None))
                continue
            for n, probs in zip(n_values, predictions):
                try:
                    report = ece(probs, test_ds.y)
                    status = "ok"
                except Exception as exc:
                    report, status = None, f"error: {exc}"
                results.append(RunResult(method, seed, n, task, status, report))
    return results


def _entry(r: RunResult) -> dict:
    """One cell's results record; a failed cell has no metrics."""
    entry = {f.name: getattr(r, f.name) for f in fields(RunResult) if f.name != "report"}
    if r.report is not None:
        entry.update(acc=r.report.acc, ece=r.report.ece, nll=r.report.nll, n_test=r.report.n)
    return entry


def write_results_csv(results: list[RunResult], path: str) -> None:
    """The results.json records as rows: a failed cell's metrics are empty, and
    commas and newlines in a status become ';' and ' '."""
    header = ("method", "seed", "n_samples", "task", "status", "acc", "ece", "nll", "n_test")
    rows = []
    for r in results:
        entry = {**_entry(r), "status": r.status.replace(",", ";").replace("\n", " ")}
        rows.append([entry.get(name, "") for name in header])
    write_csv(path, header, rows)


def write_results_json(results: list[RunResult], path: str) -> None:
    write_json(path, [_entry(r) for r in results])


def write_summary_csv(results: list[RunResult], path: str) -> None:
    """Mean +/- sample standard deviation over seeds per (method, n_samples)."""
    groups: dict[tuple[str, int], list[CalibrationReport]] = {}  # in first-seen order
    for r in results:
        if r.report is not None:
            groups.setdefault((r.method, r.n_samples), []).append(r.report)
    header = ("method", "n_samples", "n_seeds", "acc_mean", "acc_std", "ece_mean", "ece_std",
              "nll_mean", "nll_std")
    rows = []
    for (method, n), reports in groups.items():
        row = [method, n, len(reports)]
        for name in ("acc", "ece", "nll"):
            values = np.array([getattr(rep, name) for rep in reports])
            row += [float(values.mean()), float(values.std(ddof=1)) if values.size > 1 else 0.0]
        rows.append(row)
    write_csv(path, header, rows)


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
        bias=np.zeros(m),  # the checked passes read the weight op alone
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


# Draws per forward_naive_shared call in the moment oracle: enough that the
# per-call overhead vanishes, and a tenth of the default 1e5-draw stack, so
# each chunk's temporaries are reused from the heap instead of faulted in.
_MOMENT_CHUNK = 10_000


def sample_full_weights(
    adapter: VariationalAdapter, omega: np.ndarray, n_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """(n_draws, m*n) draws of vec(w0 + b a) with a ~ q, column-stacked: the
    shared-mode layer op at input I_n, w0 + b (mean_a + omega e), per noise e.

    The rows are filled in chunks of ``_MOMENT_CHUNK`` draws, each one
    ``branch_draws`` stack pushed through ``forward_naive_shared``; the
    stacks follow one another in the generator's stream, so the array is
    bit for bit the one-stack draw of all n_draws.
    """
    m, n, r = adapter.m, adapter.n, adapter.rank
    eye = np.eye(n)
    flat = np.empty((n_draws, m * n))
    for start in range(0, n_draws, _MOMENT_CHUNK):
        stop = min(start + _MOMENT_CHUNK, n_draws)
        (e,) = branch_draws("shared", rng, n, n, r, count=stop - start)
        flat[start:stop].reshape(-1, n, m)[...] = forward_naive_shared(adapter, omega, eye, e).swapaxes(-1, -2)
    return flat


def _posterior_moment_check(
    adapter: VariationalAdapter, omega: np.ndarray, n_draws: int, rng: np.random.Generator
) -> tuple[TheoremCheck, TheoremCheck]:
    """Empirical mean/covariance of vec(w0 + b a), a ~ q, against the closed form."""
    q = build_full_posterior(adapter, omega)
    mu, cov = vec(q.mean)[:, 0], q.cov
    centred = sample_full_weights(adapter, omega, n_draws, rng)
    emp_mean = centred.mean(axis=0)
    centred -= emp_mean
    emp_cov = centred.T @ centred / (n_draws - 1)
    mean_se = np.sqrt(np.diag(emp_cov) / n_draws)
    max_z, exact_ok, _ = _max_z(np.abs(emp_mean - mu), mean_se, np.maximum(1.0, np.abs(mu)))
    mean_check = TheoremCheck(
        name="posterior-mean-moments",
        status="pass" if max_z <= 3.0 and exact_ok else "fail",
        margin=f"max |z| = {max_z:.3f} (limit 3.0) over {n_draws} draws",
    )
    # Gaussian sample covariances are Wishart: Var(S_ij) = (C_ij^2 + C_ii C_jj) / (n - 1).
    # A z-score holds near-zero entries to their own noise level, where a
    # relative error would be noise over a vanishing denominator.  The dense
    # covariance holds the off-block zeros, so the draws must show them too.
    diag = np.diag(cov)
    cov_se = np.sqrt((cov**2 + np.outer(diag, diag)) / (n_draws - 1))
    max_cov_z, cov_exact_ok, n_entries = _max_z(np.abs(emp_cov - cov), cov_se, np.maximum(1.0, np.abs(cov)))
    cov_check = TheoremCheck(
        name="posterior-covariance-moments",
        status="pass" if max_cov_z <= 4.5 and cov_exact_ok else "fail",
        margin=f"max |z| = {max_cov_z:.3f} (limit 4.5) on {n_entries} entries",
    )
    return mean_check, cov_check


def _kl_equivalence_check(adapter: VariationalAdapter, omega: np.ndarray, sigma_p: float) -> list[TheoremCheck]:
    prior = PriorSpec(sigma_p)
    if np.linalg.matrix_rank(adapter.b) < adapter.rank:
        return [
            TheoremCheck(
                name="full-weight-kl-equivalence",
                status="precondition_violated",
                margin="rank precondition violated: b does not have full column rank",
            )
        ]
    q = build_full_posterior(adapter, omega)
    p = build_full_prior(adapter.w0, adapter.b, prior)
    closed = kl_closed_form(adapter.mean_a, omega, prior)
    lambdas = (1e-4, 1e-6, 1e-8)
    kls = [kl_full_weight_regularized(q, p, lam) for lam in lambdas]
    gaps = [abs(kl - closed) / abs(closed) for kl in kls]
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
    kl_rot = kl_full_weight_regularized(q, p_rot, lambdas[-1])
    rel = abs(kls[-1] - kl_rot) / abs(kls[-1])
    checks.append(
        TheoremCheck(
            name="prior-factor-choice-invariance",
            status="pass" if rel <= 1e-8 else "fail",
            margin=f"rel diff between R = b and R = b q = {rel:.3e} (limit 1e-8)",
        )
    )
    return checks


# Draws stacked per branch_forward call in the flipout oracle: large enough
# that the per-call overhead vanishes, small enough that a stack stays a few MiB.
_FLIPOUT_CHUNK = 1000


def _perturbation_cov(
    adapter: VariationalAdapter, omega: np.ndarray, h: np.ndarray, mode: str, n_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """(m, batch, batch) sample covariance over n_draws of the layer
    perturbation b @ (c - c_mean), one batch x batch matrix per output.

    ``branch_draws`` takes the draws in stacks of ``_FLIPOUT_CHUNK``, the
    same stream as single calls in training's order, and ``branch_forward``
    pushes each stack through at once.  Only the sum and the
    (r*batch, r*batch) Gram of the branch deviation dc = c - c_mean are
    kept; the deterministic b maps them once at the end, as b @ sum(dc) and
    cross[k] = sum_jl b_kj b_kl G[j, :, l, :].
    """
    c_mean = branch_forward("mean", adapter.mean_a, None, h, ())
    r, batch = adapter.rank, h.shape[1]
    total, gram = np.zeros((r, batch)), np.zeros((r * batch, r * batch))
    for start in range(0, n_draws, _FLIPOUT_CHUNK):
        draws = branch_draws(mode, rng, adapter.n, batch, r, min(_FLIPOUT_CHUNK, n_draws - start))
        dc = branch_forward(mode, adapter.mean_a, omega, h, draws) - c_mean
        total += dc.sum(axis=0)
        flat = dc.reshape(len(dc), r * batch)
        gram += flat.T @ flat
    b = adapter.b
    cross = np.einsum("kj,kl,jalb->kab", b, b, gram.reshape(r, batch, r, batch))
    total = b @ total
    return (cross - total[:, :, None] * total[:, None, :] / n_draws) / (n_draws - 1)


def _flipout_checks(n_draws: int, seed: int) -> list[TheoremCheck]:
    """Flipout through the op training runs: examples decorrelate (shared
    draws do not), and each example keeps the marginal of naive
    independent sampling."""
    rng = np.random.default_rng(seed)
    m = n = 8
    r, batch = 2, 64
    adapter = _random_adapter(m, n, r, rng)
    omega = apply_map(ParamMap.SQUARE, adapter.g)
    h = np.tile(rng.normal(size=(n, 1)), (1, batch))

    def mean_abs_corr(cov: np.ndarray) -> float:
        sd = np.sqrt(np.einsum("kii->ki", cov))
        corr = cov / (sd[:, :, None] * sd[:, None, :] + 1e-300)
        iu = np.triu_indices(batch, 1)
        return float(np.abs(corr[:, iu[0], iu[1]]).mean())

    cov_flip = _perturbation_cov(adapter, omega, h, "flipout", n_draws, rng)
    corr_flip = mean_abs_corr(cov_flip)
    corr_shared = mean_abs_corr(_perturbation_cov(adapter, omega, h, "shared", n_draws, rng))
    # Flipout's examples are uncorrelated, so mean |corr| is sampling noise of
    # about sqrt(2 / (pi (D - 1))); honest seeds read up to 1.83 times that
    # (300 seeds at D = 10 to 100), and the limit allows 2.5 times, at least 0.05.
    corr_limit = max(0.05, 2.5 * math.sqrt(2.0 / (math.pi * (n_draws - 1))))
    corr_check = TheoremCheck(
        name="flipout-decorrelation",
        status="pass" if corr_flip <= corr_limit and corr_shared >= 0.5 else "fail",
        margin=(f"mean |corr|: flipout = {corr_flip:.4f} (<= {corr_limit:.4g}), "
                f"shared = {corr_shared:.4f} (>= 0.5)"),
    )

    # Naive sampling gives example i the perturbation covariance
    # C_i = b diag(v_i) b^T, v = (omega^2) @ (h^2) (local reparameterization);
    # given its signs, a flipout example's perturbation is exactly N(0, C_i),
    # so its summed sample variance has Wishart variance 2 tr(C_i^2) / (D - 1).
    v = (omega**2) @ (h**2)
    gram = adapter.b.T @ adapter.b
    var_naive = np.diag(gram) @ v
    var_se = np.sqrt(2.0 * np.sum(v * (gram**2 @ v), axis=0) / (n_draws - 1))
    var_flip = np.einsum("kii->i", cov_flip)
    max_z, exact_ok, _ = _max_z(np.abs(var_flip - var_naive), var_se, np.maximum(1.0, var_naive))
    var_check = TheoremCheck(
        name="flipout-marginal-variance",
        status="pass" if max_z <= 4.5 and exact_ok else "fail",
        margin=f"max |z| = {max_z:.3f} (limit 4.5) vs exact naive variance on {batch} examples",
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
    if not sigma_p > 0.0:
        raise ValueError(f"sigma_p must be positive, got {sigma_p}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 1 <= r < min(m, n):
        raise ValueError(f"r must satisfy 1 <= r < min(m, n); got r={r}, m={m}, n={n}")
    for name, value in (("n_draws", n_draws), ("flipout_draws", flipout_draws)):
        if value < 2:  # a spread over one draw is 0 or undefined: a check on it shows nothing
            raise ValueError(f"{name} must be >= 2, got {value}")
    rng = np.random.default_rng(seed)
    adapter = _random_adapter(m, n, r, rng)
    if degenerate_b:
        adapter.b = np.zeros_like(adapter.b)
    omega = apply_map(ParamMap.SQUARE, adapter.g)

    return TheoremReport(checks=[
        *_posterior_moment_check(adapter, omega, n_draws, rng),
        *_kl_equivalence_check(adapter, omega, sigma_p),
        *_flipout_checks(flipout_draws, seed + 1),
        _race_check(),
    ])
