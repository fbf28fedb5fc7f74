"""Synthetic Gaussian-blob datasets, delimited-text ingestion, and partitioning.

Partitioning deals a seeded shuffle round-robin so part sizes never differ by
more than one, and batch schedules walk each part sequentially with wraparound
so every training round is replayable. A dealt part is row indices into its
dataset, with no row copied: a federated client copies only the rows of its
current batch, and the dist-train coordinator copies each shard once, to send
it, and scatters its workers' per-row results back through the indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """A labelled sample block, checked when it is built from new samples.

    This is the only place sample values are checked: features finite, labels
    in [0, num_classes). `nn` relies on it and checks shapes and labels only.
    `take` builds a subset of checked rows without checking them again.
    """

    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int class indices
    num_classes: int

    def __post_init__(self) -> None:
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("features must be a non-empty 2-D array")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must have one entry per sample")
        # NaN and +-inf reach the min or the max, so no n x d bool array is needed
        if not (np.isfinite(self.features.min()) and np.isfinite(self.features.max())):
            raise ValueError("features must be finite")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError("labels must lie in [0, num_classes)")

    def __len__(self) -> int:
        return self.features.shape[0]

    def take(self, rows: np.ndarray | slice) -> Dataset:
        """These rows, not checked again: they passed the checks when this Dataset was built.

        An index array copies the rows, a slice views them. At least one row is required.
        """
        features = self.features[rows]
        if features.shape[0] < 1:
            raise ValueError("take needs at least one row")
        subset = object.__new__(Dataset)  # skips __post_init__ and its scan of every value
        subset.__dict__.update(features=features, labels=self.labels[rows],
                               num_classes=self.num_classes)
        return subset


@dataclass(frozen=True)
class Part:
    """One dealt part: row indices into a checked Dataset, with no row copied."""

    dataset: Dataset
    rows: np.ndarray  # indices into dataset, in dealt order

    def __len__(self) -> int:
        return self.rows.shape[0]


def class_directions(num_classes: int, dim: int, seed: int) -> np.ndarray:
    """Deterministic near-orthonormal unit direction per class via Gram-Schmidt."""
    rng = np.random.default_rng(seed)
    dirs: list[np.ndarray] = []
    for _ in range(num_classes):
        v = rng.normal(size=dim)
        residual = v.copy()
        for u in dirs:
            residual -= (residual @ u) * u
        norm = np.linalg.norm(residual)
        if norm > 1e-8:
            dirs.append(residual / norm)
        else:  # more classes than dimensions: fall back to the raw direction
            dirs.append(v / np.linalg.norm(v))
    return np.stack(dirs)


def synth_blobs(
    n: int,
    d: int,
    num_classes: int,
    separation: float,
    seed: int,
) -> Dataset:
    """Isotropic unit-variance Gaussian per class, centered at separation * u_c.

    Labels are interleaved (0, 1, ..., C-1, 0, ...) so class counts are
    balanced within one sample.
    """
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if n < num_classes:
        raise ValueError("n must be >= num_classes")
    if d < 1:
        raise ValueError("d must be >= 1")
    if separation < 0:
        raise ValueError("separation must be >= 0")
    rng = np.random.default_rng(seed)
    centers = separation * class_directions(num_classes, d, seed)
    labels = np.arange(n, dtype=np.int64) % num_classes
    features = rng.normal(size=(n, d))
    for c in range(num_classes):  # in place: no second n x d array of centres
        features[c::num_classes] += centers[c]
    return Dataset(features, labels, num_classes)


def load_csv(path: str | Path, label_column: int, num_classes: int, has_header: bool = False) -> Dataset:
    """Read a comma-separated file: one column holds integer labels, the rest floats.

    Diagnostics use 1-based row and column numbers. Rows must all have the
    same number of columns.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    if has_header:
        lines = lines[1:]
    rows = [line.split(",") for line in lines if line != ""]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(rows[0])
    if not 0 <= label_column < width:
        raise ValueError(f"{path}: label column {label_column} out of range for {width} columns")
    offset = 2 if has_header else 1
    features = np.empty((len(rows), width - 1))
    labels = np.empty(len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(
                f"{path}: row {i + offset} has {len(row)} columns, expected {width}"
            )
        col = 0
        for j, cell in enumerate(row):
            if j == label_column:
                try:
                    label = int(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: unparsable label at row {i + offset}, column {j + 1}: {cell!r}"
                    ) from None
                if not 0 <= label < num_classes:
                    raise ValueError(
                        f"{path}: label {label} at row {i + offset} outside [0, {num_classes})"
                    )
                labels[i] = label
            else:
                try:
                    features[i, col] = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: unparsable value at row {i + offset}, column {j + 1}: {cell!r}"
                    ) from None
                col += 1
    return Dataset(features, labels, num_classes)


def partition(dataset: Dataset, num_parts: int, seed: int) -> list[Part]:
    """Deal a seeded shuffle into disjoint covering parts, as row indices in dealt order."""
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    if num_parts > len(dataset):
        raise ValueError(f"cannot split {len(dataset)} samples into {num_parts} parts")
    perm = np.random.default_rng(seed).permutation(len(dataset))
    parts = [Part(dataset, perm[k::num_parts]) for k in range(num_parts)]
    assert sum(len(p) for p in parts) == len(dataset)
    return parts


def next_round_batch(part: Part, round_index: int, samples_per_round: int) -> Dataset:
    """Samples [round*s, (round+1)*s) of the part, wrapping modulo its size."""
    if samples_per_round < 1:
        raise ValueError("samples_per_round must be >= 1")
    if round_index < 0:
        raise ValueError("round_index must be >= 0")
    n = len(part)
    idx = (round_index * samples_per_round + np.arange(samples_per_round)) % n
    return part.dataset.take(part.rows[idx])
