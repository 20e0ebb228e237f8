"""Reference-pair weak classifiers over triplet half-spaces, and the boosting round.

A classifier for a pair (j, k) predicts the label set ``o_j`` on examples
known (via some triplet) to be closer to j, the set ``o_k`` on examples
closer to k, and abstains elsewhere.  Inside a round and in a model's columns
a label set is a bool vector over the labels; at the API and file boundary
(``TripletClassifier``, a view of a model's row, the step functions, model
files) it is an int bitmask, which caps the label space at 64 classes.
``_round`` is the one implementation of a boosting round; ``select_labels``,
``round_weights`` and ``boost.update_weights`` expose its steps one at a time.

A round reads its fired rows of the weights once (``_gather``), sums each
side over a contiguous slice of that gather, which gives the bits a per-side
gather would, and writes the updated rows back with one scatter (``_update``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import Dataset
from .triplets import TripletStore

__all__ = [
    "MAX_LABELS",
    "TripletClassifier",
    "RoundStats",
    "bitmask",
    "mask_labels",
    "select_labels",
    "round_weights",
    "classifier_alpha",
    "z_factor",
]

MAX_LABELS = 64


@dataclass(frozen=True)
class TripletClassifier:
    """Reference pair plus per-side predicted label sets and vote weight.

    Stored canonically with j < k; constructing with j > k swaps the sides.
    o_j is the bitmask predicted for examples closer to j, o_k for examples
    closer to k.  Empty sets are legal predictions, distinct from abstention.
    """

    j: int
    k: int
    o_j: int
    o_k: int
    alpha: float

    def __post_init__(self):
        if self.j == self.k:
            raise ValueError("reference examples j and k must differ")
        if self.j > self.k:
            j, k, o_j, o_k = self.j, self.k, self.o_j, self.o_k
            object.__setattr__(self, "j", k)
            object.__setattr__(self, "k", j)
            object.__setattr__(self, "o_j", o_k)
            object.__setattr__(self, "o_k", o_j)
        if self.o_j < 0 or self.o_k < 0:
            raise ValueError("label-set bitmasks must be nonnegative")
        if not math.isfinite(self.alpha):
            raise ValueError("classifier weight must be finite")


class RoundStats(NamedTuple):
    """Per-round bookkeeping: correct/incorrect mass, normalizer, vote weight."""

    w_plus: float
    w_minus: float
    z: float
    alpha: float


def bitmask(labels) -> int:
    """Pack an iterable of label ids into a bitmask."""
    mask = 0
    for y in labels:
        mask |= 1 << int(y)
    return mask


def mask_labels(mask: int, n_labels: int) -> list[int]:
    """Unpack a bitmask into the sorted list of label ids it contains."""
    return [y for y in range(n_labels) if (mask >> y) & 1]


def _mask_bools(masks, n_labels: int) -> np.ndarray:
    """Decode one bitmask, or an array of them, into bool rows over the labels."""
    shifts = np.arange(n_labels, dtype=np.uint64)  # uint64: bit 63 is legal
    bits = np.asarray(masks, dtype=np.uint64)[..., None] >> shifts
    return (bits & np.uint64(1)).astype(bool)


def fired_buckets(ts: TripletStore, j: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Anchor ids with a triplet revealing their side: (closer to j, closer to k)."""
    if j == k:
        raise ValueError("reference examples j and k must differ")
    lo, hi = min(j, k), max(j, k)
    keys, bounds, anchors, near_lo = ts.pair_groups()
    key = lo * ts.n + hi if 0 <= lo and hi < ts.n else -1  # -1: a pair no row has
    g = keys.searchsorted(key)
    rows = slice(*bounds[g:g + 2].tolist()) if g < keys.size and keys[g] == key else slice(0)
    near_j = near_lo[rows] if j < k else ~near_lo[rows]
    return anchors[rows][near_j], anchors[rows][~near_j]


def _gather(w: np.ndarray, labels: np.ndarray, fwd: np.ndarray, rev: np.ndarray):
    """Both buckets' rows, j side first: (rows, w[rows], labels, true weights, |fwd|)."""
    rows = np.concatenate((fwd, rev), dtype=np.intp)  # intp: numpy indexes by it as is
    row_labels = labels[rows]
    return rows, w.take(rows, axis=0), row_labels, w[rows, row_labels], fwd.size


def _sides(gathered, members: np.ndarray | None = None) -> tuple[np.ndarray, float, float]:
    """Both sides' label sets, as a (2, L) bool matrix, and the round's (W+, W-).

    Without ``members`` each side's set is chosen: the labels whose in-class
    minus out-of-class mass on the side is strictly positive.  An entry (i, y)
    counts as correct when membership of y in its side's set agrees with y
    being i's true label; abstaining examples are not gathered.
    """
    _, w_rows, row_labels, true_w, n_fwd = gathered
    chosen = members is None
    members = np.zeros((2, w_rows.shape[1]), dtype=bool) if chosen else members
    w_plus = w_minus = 0.0
    for side, part in enumerate((slice(None, n_fwd), slice(n_fwd, None))):
        side_w, side_labels, side_true = w_rows[part], row_labels[part], true_w[part]
        if side_labels.size == 0:
            continue
        if chosen:
            in_class = np.bincount(side_labels, weights=side_true, minlength=w_rows.shape[1])
            members[side] = 2.0 * in_class - np.add.reduce(side_w, axis=0) > 0.0
        member = members[side]
        total = float(np.add.reduce(side_w, axis=None))
        all_true = float(np.add.reduce(side_true))
        inside = float(np.add.reduce(side_w[:, member], axis=None))
        inside_true = float(np.add.reduce(side_true[member[side_labels]]))
        w_plus += total - all_true - inside + 2.0 * inside_true
        w_minus += all_true + inside - 2.0 * inside_true
    return members, w_plus, w_minus


def _update(w: np.ndarray, gathered, members: np.ndarray, alpha: float,
            scores: np.ndarray | None = None) -> float:
    """Multiplicative update on the gathered (disjoint) buckets, written back once.

    Entries a side's set gets right shrink by exp(-alpha), the others grow
    by exp(alpha); ``scores``, when given, gains the signed vote.  Returns the
    pre-normalization total after renormalizing ``w`` in place.
    """
    rows, w_rows, row_labels, _, n_fwd = gathered
    row_sets = members.repeat((n_fwd, rows.size - n_fwd), axis=0)  # each row's side's set
    agree = row_sets == np.eye(w.shape[1], dtype=bool).take(row_labels, axis=0)
    w[rows] = w_rows * np.where(agree, math.exp(-alpha), math.exp(alpha))
    if scores is not None:
        scores[rows] = scores.take(rows, axis=0) + np.where(row_sets, alpha, -alpha)
    z = float(np.add.reduce(w, axis=None))
    if z <= 0.0:
        raise ValueError("weight update produced a nonpositive total")
    w /= z
    return z


def _pack_masks(members: np.ndarray) -> np.ndarray:
    """The uint64 bitmask of each bool row over the labels; ``_mask_bools`` inverted."""
    shifts = np.arange(members.shape[-1], dtype=np.uint64)
    return np.bitwise_or.reduce(members.astype(np.uint64) << shifts, axis=-1)


def _round(w: np.ndarray, labels: np.ndarray, fwd: np.ndarray, rev: np.ndarray,
           scores: np.ndarray | None = None) -> tuple[np.ndarray, tuple]:
    """One boosting round on the buckets (closer to j, closer to k) of a pair.

    Chooses both label sets, weighs the classifier, and applies its update
    to ``w`` (and ``scores``) in place; a zero-weight round leaves them
    alone and reports z = 1.  Returns the (2, L) bool sets, j side first,
    and the round's stats (w_plus, w_minus, z, alpha) in ``RoundStats`` order.
    """
    gathered = _gather(w, labels, fwd, rev)
    members, w_plus, w_minus = _sides(gathered)
    alpha = classifier_alpha(w_plus, w_minus, w.shape[0])
    z = _update(w, gathered, members, alpha, scores) if alpha != 0.0 else 1.0
    return members, (w_plus, w_minus, z, alpha)


def select_labels(j: int, k: int, ts: TripletStore, ds: Dataset,
                  w: np.ndarray) -> tuple[int, int]:
    """Choose the predicted label sets for both sides of the pair (j, k)."""
    fwd, rev = fired_buckets(ts, j, k)
    return tuple(_pack_masks(_sides(_gather(w, ds.labels, fwd, rev))[0]).tolist())


def round_weights(h: TripletClassifier, ts: TripletStore, ds: Dataset,
                  w: np.ndarray) -> tuple[float, float]:
    """Weighted mass of correctly and incorrectly classified (example, label) pairs."""
    fwd, rev = fired_buckets(ts, h.j, h.k)
    members = _mask_bools((h.o_j, h.o_k), ds.n_labels)
    return _sides(_gather(w, ds.labels, fwd, rev), members)[1:]


def classifier_alpha(w_plus: float, w_minus: float, n: int) -> float:
    """Smoothed log-odds vote weight; the 1/n terms keep it finite."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return 0.5 * math.log((w_plus + 1.0 / n) / (w_minus + 1.0 / n))


def z_factor(w_plus: float, w_minus: float, n: int) -> float:
    """Weight-update normalizer; at most 1, with equality iff the vote is useless."""
    if n < 1:
        raise ValueError("n must be at least 1")
    ratio = (w_minus + 1.0 / n) / (w_plus + 1.0 / n)
    root = math.sqrt(ratio)
    return (1.0 - w_plus - w_minus) + (w_plus * root + w_minus / root)
