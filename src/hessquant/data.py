"""Datasets for the classifier pipeline.

Feature matrices are float64 arrays of shape (n, 16) by default and labels are
integer class ids.  A Dataset optionally carries the per-feature
standardization statistics that were used to transform its features, so new
data can be mapped into the same space.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

N_FEATURES = 16
N_CLASSES = 5

# Fixed class means for the synthetic mixture: class c puts `separation` in
# feature coordinates 3c, 3c+1, 3c+2 and zero elsewhere (feature 15 is always
# zero-mean).  Unit covariance, balanced classes.
_MEAN_BLOCK = 3


class CSVFormatError(ValueError):
    """Malformed CSV input; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    mean: np.ndarray | None = None
    std: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if self.labels.ndim != 1 or len(self.labels) != len(self.features):
            raise ValueError("labels must be 1-d and match the number of rows")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")

    def __len__(self) -> int:
        return len(self.features)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def take(self, idx) -> "Dataset":
        return replace(self, features=self.features[idx], labels=self.labels[idx])


def class_means(separation: float = 1.5, n_features: int = N_FEATURES,
                n_classes: int = N_CLASSES) -> np.ndarray:
    """The fixed mixture means used by generate_synthetic."""
    means = np.zeros((n_classes, n_features))
    for c in range(n_classes):
        means[c, _MEAN_BLOCK * c:_MEAN_BLOCK * (c + 1)] = separation
    return means


def generate_synthetic(n: int, seed: int, separation: float = 1.5) -> Dataset:
    """Balanced 5-class Gaussian mixture over 16 features.

    Class c has mean `separation` in coordinates 3c..3c+2 and zero elsewhere;
    all classes share the identity covariance.  Labels cycle 0..4 so class
    counts differ by at most one.  The same seed always produces identical
    arrays byte for byte.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    means = class_means(separation)
    labels = np.arange(n, dtype=np.int64) % N_CLASSES
    features = means[labels] + rng.standard_normal((n, N_FEATURES))
    return Dataset(features=features, labels=labels)


def ingest_csv(path: str, n_features: int = N_FEATURES,
               n_classes: int = N_CLASSES) -> Dataset:
    """Load a dataset from CSV: n_features real columns then an integer label.

    A single leading header row and blank lines are tolerated; there are no
    comment lines.  numpy's C parser reads a file it accepts whole and whose
    values pass every check.  Any other file is read again line by line, and
    that reader alone raises CSVFormatError with the offending 1-based line
    number.  Both readers return the same C-contiguous float64 features and
    int64 labels, bit for bit.
    """
    ds = _ingest_fast(path, n_features, n_classes)
    return ds if ds is not None else _ingest_lines(path, n_features, n_classes)


def _ingest_fast(path: str, n_features: int, n_classes: int) -> Dataset | None:
    """The file through np.loadtxt, or None when the line reader must decide.

    Labels parse as integers, so "3.0" is refused here as it is line by line.
    """
    dtype = [("x", np.float64, (n_features,)), ("y", np.int64)]
    with open(path, newline="") as fh:
        first = fh.readline()
        # a quoted first record may span lines, so only csv can find its end
        if '"' in first:
            return None
        if not _looks_like_header(next(csv.reader([first]), [])):
            fh.seek(0)
        try:
            with warnings.catch_warnings():
                # loadtxt warns, rather than raises, on an empty file and
                # (numpy 1.x) on an integer label written as a float
                warnings.simplefilter("error")
                table = np.loadtxt(fh, delimiter=",", comments=None, dtype=dtype,
                                   ndmin=1)
        except (ValueError, Warning):
            return None
    x, y = table["x"], table["y"]
    if not (len(table) and np.isfinite(x).all() and (y >= 0).all()
            and (y < n_classes).all()):
        return None
    return Dataset(features=np.ascontiguousarray(x), labels=np.ascontiguousarray(y))


def _ingest_lines(path: str, n_features: int, n_classes: int) -> Dataset:
    rows: list[list[float]] = []
    labels: list[int] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        end = 0  # the line the last record ended on: a quoted cell may hold a newline
        for row in reader:
            lineno, end = end + 1, reader.line_num
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if lineno == 1 and _looks_like_header(row):
                continue
            if len(row) != n_features + 1:
                raise CSVFormatError(
                    lineno, f"expected {n_features + 1} columns, got {len(row)}")
            try:
                feats = [float(v) for v in row[:n_features]]
            except ValueError as exc:
                raise CSVFormatError(lineno, f"non-numeric feature: {exc}") from None
            lab_raw = row[n_features].strip()
            try:
                lab = int(lab_raw)
            except ValueError:
                raise CSVFormatError(lineno, f"label is not an integer: {lab_raw!r}") from None
            if not 0 <= lab < n_classes:
                raise CSVFormatError(lineno, f"label {lab} outside 0..{n_classes - 1}")
            if not all(map(math.isfinite, feats)):
                raise CSVFormatError(lineno, "non-finite feature value")
            rows.append(feats)
            labels.append(lab)
    if not rows:
        raise CSVFormatError(1, "no data rows")
    return Dataset(features=np.array(rows), labels=np.array(labels, dtype=np.int64))


def write_csv(ds: Dataset, path: str) -> None:
    """Write features plus label column, one row per sample, no header.

    Each feature is repr() of a Python float, the shortest text that reads
    back as the same float64, so ingest_csv returns the features bit for bit.
    """
    from .ioutil import write_atomic

    labels = ds.labels.astype(np.int64).tolist()
    # one row at a time: a whole-matrix tolist() would hold every float at once
    write_atomic(path, "\n".join([f"{','.join(map(repr, x.tolist()))},{y}"
                                  for x, y in zip(ds.features, labels)]) + "\n")


def standardize(ds: Dataset, mean: np.ndarray | None = None,
                std: np.ndarray | None = None) -> Dataset:
    """Return a copy with zero-mean unit-variance features.

    Statistics are fitted on ds itself unless (mean, std) are supplied, e.g.
    to map validation data into the training split's space.  Near-constant
    columns keep std 1 to stay invertible.
    """
    if mean is None:
        mean = ds.features.mean(axis=0)
        std = ds.features.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
    feats = (ds.features - mean) / std
    return Dataset(features=feats, labels=ds.labels.copy(),
                   mean=np.asarray(mean, dtype=np.float64),
                   std=np.asarray(std, dtype=np.float64))


def split(ds: Dataset, val_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled train/validation split."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ds))
    n_val = max(1, int(round(val_fraction * len(ds))))
    val_idx, train_idx = order[:n_val], order[n_val:]
    return ds.take(train_idx), ds.take(val_idx)


def _looks_like_header(row: list[str]) -> bool:
    for v in row:
        try:
            float(v)
        except ValueError:
            return True
    return False
