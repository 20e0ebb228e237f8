"""Reference-pair weak classifiers over triplet half-spaces, and the boosting round.

A classifier for a pair (j, k) predicts the label set ``o_j`` on examples
known (via some triplet) to be closer to j, the set ``o_k`` on examples
closer to k, and abstains elsewhere.  Inside a round a label set is a bool
vector over the labels; at the API and file boundary (``TripletClassifier``,
the public step functions, model files) it is an int bitmask, which caps the
label space at 64 classes.  ``_round`` is the one implementation of a
boosting round; ``select_labels``, ``round_weights`` and
``boost.update_weights`` expose its steps one at a time.
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
    lo, hi = (j, k) if j < k else (k, j)
    pkeys, anchors, near_lo = ts.pair_groups()
    start, stop = np.searchsorted(pkeys, [lo * ts.n + hi, lo * ts.n + hi + 1])
    near_lo = near_lo[start:stop]
    anchors = anchors[start:stop]
    if j == lo:
        return anchors[near_lo], anchors[~near_lo]
    return anchors[~near_lo], anchors[near_lo]


def _side(w: np.ndarray, labels: np.ndarray, bucket: np.ndarray,
          member: np.ndarray | None = None) -> tuple[np.ndarray, float, float]:
    """One side of a round: its label set and (correct, incorrect) weighted mass.

    Without ``member`` the set is chosen: the labels whose in-class minus
    out-of-class mass on the bucket is strictly positive.  An entry (i, y)
    counts as correct when membership of y in the set agrees with y being
    i's true label; abstaining examples contribute nothing (they are simply
    not in the bucket).
    """
    n_labels = w.shape[1]
    if bucket.size == 0:
        return (np.zeros(n_labels, dtype=bool) if member is None else member), 0.0, 0.0
    w_bucket = w[bucket]
    bucket_labels = labels[bucket]
    true_w = w[bucket, bucket_labels]
    if member is None:
        in_class = np.bincount(bucket_labels, weights=true_w, minlength=n_labels)
        member = 2.0 * in_class - w_bucket.sum(axis=0) > 0.0
    total = float(w_bucket.sum())
    all_true = float(true_w.sum())
    inside = float(w_bucket[:, member].sum())
    inside_true = float(true_w[member[bucket_labels]].sum())
    w_plus = total - all_true - inside + 2.0 * inside_true
    w_minus = all_true + inside - 2.0 * inside_true
    return member, w_plus, w_minus


def _update(w: np.ndarray, labels: np.ndarray, sides, alpha: float,
            scores: np.ndarray | None = None) -> float:
    """Multiplicative update on the fired ``(bucket, member)`` sides, in place.

    Entries the side's set gets right shrink by exp(-alpha), the others grow
    by exp(alpha); ``scores``, when given, gains the signed vote.  Returns the
    pre-normalization total after renormalizing ``w``.
    """
    e_neg = math.exp(-alpha)
    e_pos = math.exp(alpha)
    col = np.arange(w.shape[1])
    for bucket, member in sides:
        if bucket.size == 0:
            continue
        agree = member[None, :] == (labels[bucket][:, None] == col[None, :])
        w[bucket] *= np.where(agree, e_neg, e_pos)
        if scores is not None:
            scores[bucket] += np.where(member, alpha, -alpha)
    z = float(w.sum())
    if z <= 0.0:
        raise ValueError("weight update produced a nonpositive total")
    w /= z
    return z


def _round(w: np.ndarray, labels: np.ndarray, j: int, k: int, fwd: np.ndarray,
           rev: np.ndarray, scores: np.ndarray | None = None
           ) -> tuple[TripletClassifier, RoundStats]:
    """One boosting round on the buckets (closer to j, closer to k) of a pair.

    Chooses both label sets, weighs the classifier, and applies its update
    to ``w`` (and ``scores``) in place; a zero-weight round leaves them
    alone and reports z = 1.  Returns the classifier and the round's stats.
    """
    o_j, plus_j, minus_j = _side(w, labels, fwd)
    o_k, plus_k, minus_k = _side(w, labels, rev)
    w_plus, w_minus = plus_j + plus_k, minus_j + minus_k
    alpha = classifier_alpha(w_plus, w_minus, w.shape[0])
    z = _update(w, labels, ((fwd, o_j), (rev, o_k)), alpha, scores) \
        if alpha != 0.0 else 1.0
    h = TripletClassifier(j, k, bitmask(np.flatnonzero(o_j)),
                          bitmask(np.flatnonzero(o_k)), alpha)
    return h, RoundStats(w_plus, w_minus, z, alpha)


def select_labels(j: int, k: int, ts: TripletStore, ds: Dataset,
                  w: np.ndarray) -> tuple[int, int]:
    """Choose the predicted label sets for both sides of the pair (j, k)."""
    fwd, rev = fired_buckets(ts, j, k)
    return (bitmask(np.flatnonzero(_side(w, ds.labels, fwd)[0])),
            bitmask(np.flatnonzero(_side(w, ds.labels, rev)[0])))


def round_weights(h: TripletClassifier, ts: TripletStore, ds: Dataset,
                  w: np.ndarray) -> tuple[float, float]:
    """Weighted mass of correctly and incorrectly classified (example, label) pairs."""
    fwd, rev = fired_buckets(ts, h.j, h.k)
    _, plus_j, minus_j = _side(w, ds.labels, fwd, _mask_bools(h.o_j, ds.n_labels))
    _, plus_k, minus_k = _side(w, ds.labels, rev, _mask_bools(h.o_k, ds.n_labels))
    return plus_j + plus_k, minus_j + minus_k


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
