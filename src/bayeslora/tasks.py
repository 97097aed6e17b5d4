"""Synthetic classification tasks with controllable distribution shift.

Three generators (one example per row, labels in [0, n_classes)):

* gauss_blobs    - class means on the unit circle in the first two input
  dimensions, isotropic Gaussian noise of scale ``noise_scale``;
* two_moons_like - two interleaved half-circle arcs (2 classes);
* ring_vs_disk   - a central disk (class 0) inside an annulus (class 1).

Train and test sets come from independent streams of the same seed.  A
shifted test set applies a fixed affine transform to the features after
generation: a rotation by an angle theta in the first two coordinates
followed by a translation of delta * S along the first axis, where S is
the generator's class-separation unit (distance between adjacent blob
means; 1.0 for the moons; the mid-ring radius for ring_vs_disk).

    shift = "small": theta = 10 degrees, delta = 0.2
    shift = "large": theta = 30 degrees, delta = 0.5
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .textio import write_csv

__all__ = ["TaskSpec", "Dataset", "generate_task", "class_separation", "write_dataset_csv"]

GENERATORS = ("gauss_blobs", "two_moons_like", "ring_vs_disk")
SHIFTS = ("none", "small", "large")
_SHIFT_PARAMS = {"none": (0.0, 0.0), "small": (10.0, 0.2), "large": (30.0, 0.5)}


@dataclass(frozen=True)
class TaskSpec:
    generator: str = "gauss_blobs"
    n_train: int = 500
    n_test: int = 2000
    n_classes: int = 2
    input_dim: int = 2
    noise_scale: float = 0.75
    shift: str = "none"

    def __post_init__(self) -> None:
        for name in ("n_train", "n_test", "n_classes", "input_dim"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.generator not in GENERATORS:
            raise ValueError(f"generator must be one of {GENERATORS}")
        if self.shift not in SHIFTS:
            raise ValueError(f"shift must be one of {SHIFTS}")
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("n_train and n_test must be >= 1")
        if self.input_dim < 2:
            raise ValueError("input_dim must be >= 2")
        if self.generator == "gauss_blobs":
            if self.n_classes < 2:
                raise ValueError("gauss_blobs needs n_classes >= 2")
        elif self.n_classes != 2:
            raise ValueError(f"{self.generator} is a 2-class generator")
        if not 0.0 < self.noise_scale < math.inf:
            raise ValueError(f"noise_scale must be positive and finite, got {self.noise_scale}")


@dataclass
class Dataset:
    x: np.ndarray  # (n, input_dim)
    y: np.ndarray  # (n,) integer labels


def class_separation(spec: TaskSpec) -> float:
    """The generator's unit of distance for shift transforms."""
    if spec.generator == "gauss_blobs":
        return 2.0 * math.sin(math.pi / spec.n_classes)
    if spec.generator == "two_moons_like":
        return 1.0
    return 1.15  # mid-ring radius of ring_vs_disk


def _blob_means(n_classes: int, input_dim: int) -> np.ndarray:
    means = np.zeros((n_classes, input_dim))
    for c in range(n_classes):
        angle = 2.0 * math.pi * c / n_classes
        means[c, 0] = math.cos(angle)
        means[c, 1] = math.sin(angle)
    return means


def _draw(spec: TaskSpec, n: int, rng: np.random.Generator) -> Dataset:
    d = spec.input_dim
    y = rng.integers(0, spec.n_classes, size=n)
    x = np.zeros((n, d))
    if spec.generator == "gauss_blobs":
        means = _blob_means(spec.n_classes, d)
        x = means[y] + spec.noise_scale * rng.standard_normal(size=(n, d))
    elif spec.generator == "two_moons_like":
        phi = rng.uniform(0.0, math.pi, size=n)
        upper = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        lower = np.stack([1.0 - np.cos(phi), 0.5 - np.sin(phi)], axis=1)
        x[:, :2] = np.where(y[:, None] == 0, upper, lower)
        x += spec.noise_scale * rng.standard_normal(size=(n, d))
    else:  # ring_vs_disk
        angle = rng.uniform(0.0, 2.0 * math.pi, size=n)
        r_disk = 0.6 * np.sqrt(rng.uniform(0.0, 1.0, size=n))
        r_ring = rng.uniform(1.0, 1.3, size=n)
        radius = np.where(y == 0, r_disk, r_ring)
        x[:, 0] = radius * np.cos(angle)
        x[:, 1] = radius * np.sin(angle)
        x += spec.noise_scale * rng.standard_normal(size=(n, d))
    return Dataset(x=x, y=y.astype(np.intp))


def _apply_shift(x: np.ndarray, spec: TaskSpec) -> np.ndarray:
    theta_deg, delta = _SHIFT_PARAMS[spec.shift]
    if theta_deg == 0.0 and delta == 0.0:
        return x
    theta = math.radians(theta_deg)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    out = x.copy()
    x0, x1 = x[:, 0].copy(), x[:, 1].copy()
    out[:, 0] = cos_t * x0 - sin_t * x1
    out[:, 1] = sin_t * x0 + cos_t * x1
    out[:, 0] += delta * class_separation(spec)
    return out


def generate_task(spec: TaskSpec, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic (train, test) pair; the shift applies to test features only."""
    train_ss, test_ss = np.random.SeedSequence(seed).spawn(2)
    train = _draw(spec, spec.n_train, np.random.default_rng(train_ss))
    test = _draw(spec, spec.n_test, np.random.default_rng(test_ss))
    test.x = _apply_shift(test.x, spec)
    return train, test


def write_dataset_csv(dataset: Dataset, path: str) -> None:
    header = [f"x{i}" for i in range(dataset.x.shape[1])] + ["label"]
    rows = (x + [label] for x, label in zip(dataset.x.tolist(), dataset.y.tolist()))
    write_csv(path, header, rows)
