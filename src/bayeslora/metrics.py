"""One calibration report (``ece``): accuracy, expected calibration error, and NLL.

ECE uses equal-width bins on the top-label confidence: the unit interval
is split into ``N_BINS`` = 15 right-inclusive bins (a confidence of exactly 0
lands in the first bin) and the error is the count-weighted mean absolute
gap between per-bin accuracy and per-bin confidence.  NLL is reported as
the per-example mean, with the raw sum kept alongside; a true-label
probability of zero is clamped at 1e-12 and counted in the report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .textio import to_json, write_csv

__all__ = [
    "BinStat",
    "CalibrationReport",
    "ece",
    "report_to_json",
    "write_bins_csv",
    "write_reliability_csv",
]

N_BINS = 15
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
    # An absolute bound alone: np.allclose adds a relative 1e-5 and passes a row summing to 1.000005.
    if not np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9):
        raise ValueError("probability rows must sum to 1 within 1e-9")
    return probs, labels


def _nll_parts(probs: np.ndarray, labels: np.ndarray) -> tuple[float, float, int]:
    picked = probs[np.arange(probs.shape[0]), labels]
    n_clamped = int(np.sum(picked < NLL_FLOOR))
    picked = np.maximum(picked, NLL_FLOOR)
    total = float(-np.sum(np.log(picked)))
    return total / probs.shape[0], total, n_clamped


def ece(probs: np.ndarray, labels: np.ndarray) -> CalibrationReport:
    """Full calibration report: accuracy (argmax, ties to the lowest class),
    ``N_BINS``-bin ECE, and mean and summed NLL."""
    probs, labels = _validate(probs, labels)
    n = probs.shape[0]
    predicted = np.argmax(probs, axis=1)
    confidence = probs[np.arange(n), predicted]
    correct = (predicted == labels).astype(np.float64)

    edges = np.arange(N_BINS + 1) / N_BINS
    # Right-inclusive bins (edge[k-1], edge[k]]; confidence 0 joins bin 1.
    bin_index = np.searchsorted(edges[1:], confidence, side="left")
    bin_index = np.clip(bin_index, 0, N_BINS - 1)
    # A stable sort by bin makes each bin one slice holding its examples in
    # their original order, so a slice's mean is the masked mean bit for bit.
    # (On uint8 keys the stable sort is a radix sort.)
    order = np.argsort(bin_index.astype(np.uint8), kind="stable")
    conf_by_bin, correct_by_bin = confidence[order], correct[order]
    ends = np.cumsum(np.bincount(bin_index, minlength=N_BINS)).tolist()

    bins: list[BinStat] = []
    ece_value = 0.0
    start = 0
    for k, end in enumerate(ends):
        count = end - start
        if count:
            mean_conf = float(conf_by_bin[start:end].mean())
            mean_acc = float(correct_by_bin[start:end].mean())
            ece_value += (count / n) * abs(mean_acc - mean_conf)
        else:
            mean_conf = 0.0
            mean_acc = 0.0
        bins.append(
            BinStat(lower=float(edges[k]), upper=float(edges[k + 1]), count=count,
                    mean_conf=mean_conf, mean_acc=mean_acc)
        )
        start = end

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
    # The fields hold only numbers and the bins, so no deep copy is needed.
    return to_json(dict(vars(report), bins=[vars(b) for b in report.bins]))


def write_bins_csv(report: CalibrationReport, path: str) -> None:
    """Reliability-diagram bin table."""
    header = ("bin_lower", "bin_upper", "count", "mean_conf", "mean_acc")
    rows = ((b.lower, b.upper, b.count, b.mean_conf, b.mean_acc) for b in report.bins)
    write_csv(path, header, rows)


def write_reliability_csv(report: CalibrationReport, path: str) -> None:
    """Two-column (mean_conf, mean_acc) curve over occupied bins, plot-ready."""
    occupied = ((b.mean_conf, b.mean_acc) for b in report.bins if b.count)
    write_csv(path, ("mean_conf", "mean_acc"), occupied)
