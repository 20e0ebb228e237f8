"""Labeled example collections: CSV ingestion, label dictionaries, splits."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import formats

__all__ = [
    "LabelDict",
    "Dataset",
    "load_csv",
    "save_csv",
    "split",
    "make_moons",
]

_MAX_FLOAT = sys.float_info.max  # the largest n that ``_check_n`` admits


@dataclass(frozen=True)
class LabelDict:
    """Dense label dictionary; a label's id is its position in ``names``."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("label names must be unique")

    @property
    def size(self) -> int:
        return len(self.names)

    def id_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown label {name!r}") from None


@dataclass(frozen=True)
class Dataset:
    """Examples with dense integer labels and optional feature vectors.

    Example ids are implicit array positions 0..n-1.  Features, which must
    be finite, are only needed to generate triplets; the learner itself
    never reads them.
    """

    labels: np.ndarray
    label_dict: LabelDict
    features: np.ndarray | None = None

    def __post_init__(self):
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ValueError("labels must be one-dimensional")
        checks = [(np.flatnonzero((labels < 0) | (labels >= self.label_dict.size)),
                   lambda idx: f"label id out of range at {_row(idx)}")]
        if self.features is not None:
            feats = np.ascontiguousarray(self.features, dtype=np.float64)
            if feats.ndim != 2 or feats.shape[0] != labels.size or feats.shape[1] < 1:
                raise ValueError("features must be an (n, D) array with D >= 1")
            checks.append(_check_finite(feats, _row))
            object.__setattr__(self, "features", feats)
        _first_bad(*checks)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return int(self.labels.size)

    @property
    def n_labels(self) -> int:
        return self.label_dict.size

    def take(self, indices: np.ndarray) -> "Dataset":
        """Subset by example indices; the label dictionary is shared."""
        indices = np.asarray(indices, dtype=np.int64)
        feats = None if self.features is None else self.features[indices]
        return Dataset(self.labels[indices], self.label_dict, feats)


def _row(idx: int) -> str:  # how an in-memory constructor names a bad record
    return f"row {idx}"


def _first_bad(*checks) -> None:
    """The one rule for bad input records: raise one ValueError for the lowest index
    that any check rejects, with the message of the first listed check that rejects
    it.  A check is (the indices of the records it rejects, an array or a sequence;
    the message for an index)."""
    first = [(np.min(rows), kind) for kind, (rows, _) in enumerate(checks) if len(rows)]
    if first:
        idx, kind = min(first)
        raise ValueError(checks[kind][1](int(idx)))


def _check_finite(features: np.ndarray, where):
    """The check (see ``_first_bad``) of the examples with a nan or inf feature,
    each named by ``where(index)``."""
    return (np.flatnonzero(~np.isfinite(features).all(axis=1)),
            lambda idx: f"malformed row at {where(idx)}: non-finite feature")


def _check_unit(value: float, what: str) -> None:
    if not 0.0 <= value <= 1.0:  # NaN fails it too
        raise ValueError(f"{what} must lie in [0, 1]")


def _check_n(n) -> None:
    """Refuse a training-set size n below 1, or not finite: a NaN, an infinity or
    an int that no float holds."""
    if not 1 <= n <= _MAX_FLOAT:  # NaN fails it too
        raise ValueError("n must be at least 1" if n < 1 else "n must be finite")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _distinct(values) -> np.ndarray:
    """The distinct values of an array, ascending: ``np.unique`` without the
    ``numpy.ma`` import that numpy 2's ``unique`` makes."""
    ordered = np.sort(values, axis=None)
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def load_csv(path, has_header: bool = False) -> Dataset:
    """Read ``label,f1,...,fD`` rows (label-only rows give a feature-free dataset).

    Label ids are assigned in first-occurrence order.  Row numbers in error
    messages are 1-based file line numbers.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = 1 if has_header else 0
    label_ids: dict[str, int] = {}
    labels: list[int] = []
    rows: list[list[float]] = []
    dim: int | None = None
    malformed = None  # the first malformed line's error; the rows stop above it
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            if all(not rest.strip() for rest in lines[lineno:]):
                break  # trailing blank lines are tolerated
            malformed = f"malformed row at row {lineno}: blank line"
            break
        parts = line.split(",")
        try:
            feats = [float(p) for p in parts[1:]]
        except ValueError:
            malformed = f"malformed row at row {lineno}: non-numeric feature"
            break
        if dim is None:
            dim = len(feats)
        elif len(feats) != dim:
            malformed = f"inconsistent dimension at row {lineno}"
            break
        labels.append(label_ids.setdefault(parts[0], len(label_ids)))
        rows.append(feats)
    features = np.array(rows, dtype=np.float64) if dim else None
    if features is not None:  # the rows above the first malformed line win over it
        _first_bad(_check_finite(features, lambda idx: f"row {start + 1 + idx}"))
    if malformed is not None:
        raise ValueError(malformed)
    if not labels:
        raise ValueError("empty dataset")
    return Dataset(np.array(labels, dtype=np.int64), LabelDict(tuple(label_ids)), features)


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset back to CSV; floats use shortest round-trip decimals.
    A label name ``load_csv`` cannot read back raises: one holding a comma or a
    line break, or a blank one in a feature-free dataset (its rows are blank)."""
    for name in (ds.label_dict.names[y] for y in _distinct(ds.labels).tolist()):
        if "," in name or len(f"{name}.".splitlines()) > 1 or not (
                name.strip() or ds.features is not None):
            raise ValueError(f"label name {name!r} cannot be written to CSV: it holds "
                             "a comma or line break, or is blank in a feature-free row")
    feats = () if ds.features is None else ds.features.T
    formats.save_table(path, [], "{}" + ",{!r}" * len(feats) + "\n",
                       [np.array(ds.label_dict.names, dtype=object)[ds.labels], *feats])


def split(ds: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic disjoint (train, test) partition; |test| = ceil(n * fraction)."""
    _check_unit(test_fraction, "test_fraction")
    n_test = int(math.ceil(ds.n * test_fraction - 1e-12))
    perm = np.random.default_rng(seed).permutation(ds.n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return ds.take(train_idx), ds.take(test_idx)


def make_moons(n: int, noise: float = 0.1, seed: int = 0) -> Dataset:
    """Two interleaved half-circles with Gaussian feature noise, labels "0"/"1"."""
    if n < 2:
        raise ValueError("need at least two examples")
    if not 0.0 <= noise < math.inf:  # NaN fails it too
        raise ValueError("noise must be finite and nonnegative")
    n_top = n - n // 2
    n_bot = n // 2
    t_top = np.linspace(0.0, np.pi, n_top)
    t_bot = np.linspace(0.0, np.pi, n_bot)
    xs = np.concatenate([np.cos(t_top), 1.0 - np.cos(t_bot)])
    ys = np.concatenate([np.sin(t_top), 0.5 - np.sin(t_bot)])
    feats = np.column_stack([xs, ys])
    if noise > 0.0:
        feats += np.random.default_rng(seed).normal(0.0, noise, size=feats.shape)
    labels = np.concatenate([np.zeros(n_top, np.int64), np.ones(n_bot, np.int64)])
    return Dataset(labels, LabelDict(("0", "1")), feats)
