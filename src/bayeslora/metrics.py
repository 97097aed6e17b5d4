"""One calibration report (``ece``): accuracy, expected calibration error, and NLL.

ECE uses equal-width bins on the top-label confidence: the unit interval
is split into ``n_bins`` right-inclusive bins (a confidence of exactly 0
lands in the first bin) and the error is the count-weighted mean absolute
gap between per-bin accuracy and per-bin confidence.  NLL is reported as
the per-example mean, with the raw sum kept alongside; a true-label
probability of zero is clamped at 1e-12 and counted in the report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BinStat",
    "CalibrationReport",
    "ece",
    "report_to_json",
    "write_bins_csv",
    "write_reliability_csv",
]

NLL_FLOOR = 1e-12


@dataclass(frozen=True)
class BinStat:
    lower: float
    upper: float
    count: int
    mean_conf: float
    mean_acc: float


@dataclass(frozen=True)
class CalibrationReport:
    acc: float
    ece: float
    nll: float
    nll_sum: float
    bins: tuple[BinStat, ...]
    n: int
    n_clamped: int


def _validate(probs: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise ValueError("probs must be a nonempty (n, classes) array")
    if labels.shape != (probs.shape[0],):
        raise ValueError("labels must be one integer per probability row")
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise ValueError("labels out of range")
    if not np.allclose(probs.sum(axis=1), 1.0, atol=1e-9):
        raise ValueError("probability rows must sum to 1 within 1e-9")
    return probs, labels


def _nll_parts(probs: np.ndarray, labels: np.ndarray) -> tuple[float, float, int]:
    picked = probs[np.arange(probs.shape[0]), labels]
    n_clamped = int(np.sum(picked < NLL_FLOOR))
    picked = np.maximum(picked, NLL_FLOOR)
    total = float(-np.sum(np.log(picked)))
    return total / probs.shape[0], total, n_clamped


def ece(probs: np.ndarray, labels: np.ndarray, n_bins: int = 15) -> CalibrationReport:
    """Full calibration report: accuracy (argmax, ties to the lowest class),
    binned ECE, and mean and summed NLL."""
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    probs, labels = _validate(probs, labels)
    n = probs.shape[0]
    confidence = probs.max(axis=1)
    predicted = np.argmax(probs, axis=1)
    correct = (predicted == labels).astype(np.float64)

    edges = np.arange(n_bins + 1) / n_bins
    # Right-inclusive bins (edge[k-1], edge[k]]; confidence 0 joins bin 1.
    bin_index = np.searchsorted(edges[1:], confidence, side="left")
    bin_index = np.clip(bin_index, 0, n_bins - 1)

    bins: list[BinStat] = []
    ece_value = 0.0
    for k in range(n_bins):
        mask = bin_index == k
        count = int(mask.sum())
        if count:
            mean_conf = float(confidence[mask].mean())
            mean_acc = float(correct[mask].mean())
            ece_value += (count / n) * abs(mean_acc - mean_conf)
        else:
            mean_conf = 0.0
            mean_acc = 0.0
        bins.append(
            BinStat(lower=float(edges[k]), upper=float(edges[k + 1]), count=count,
                    mean_conf=mean_conf, mean_acc=mean_acc)
        )

    nll_mean, nll_total, n_clamped = _nll_parts(probs, labels)
    return CalibrationReport(
        acc=float(correct.mean()),
        ece=ece_value,
        nll=nll_mean,
        nll_sum=nll_total,
        bins=tuple(bins),
        n=n,
        n_clamped=n_clamped,
    )


def report_to_json(report: CalibrationReport) -> str:
    payload = {
        "acc": report.acc,
        "ece": report.ece,
        "nll": report.nll,
        "nll_sum": report.nll_sum,
        "n": report.n,
        "n_clamped": report.n_clamped,
        "bins": [
            {
                "lower": b.lower,
                "upper": b.upper,
                "count": b.count,
                "mean_conf": b.mean_conf,
                "mean_acc": b.mean_acc,
            }
            for b in report.bins
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def write_bins_csv(report: CalibrationReport, path: str) -> None:
    """Reliability-diagram bin table."""
    lines = ["bin_lower,bin_upper,count,mean_conf,mean_acc"]
    for b in report.bins:
        lines.append(f"{b.lower!r},{b.upper!r},{b.count},{b.mean_conf!r},{b.mean_acc!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_reliability_csv(report: CalibrationReport, path: str) -> None:
    """Two-column (mean_conf, mean_acc) curve over occupied bins, plot-ready."""
    lines = ["mean_conf,mean_acc"]
    for b in report.bins:
        if b.count:
            lines.append(f"{b.mean_conf!r},{b.mean_acc!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
