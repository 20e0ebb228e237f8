"""Reference-pair weak classifiers over triplet half-spaces, and the boosting round.

A classifier for a pair (j, k) predicts the label set ``o_j`` on examples
known (via some triplet) to be closer to j, the set ``o_k`` on examples
closer to k, and abstains elsewhere.  Inside a round and in a model's columns
a label set is a bool vector over the labels; at the API and file boundary
(``TripletClassifier``, a view of a model's row, the step functions, model
files) it is an int bitmask, which caps the label space at 64 classes.
``_round`` is the one implementation of a boosting round; ``select_labels``,
``round_weights`` and ``boost.update_weights`` expose its steps one at a time.

A round gathers its fired rows of the weights once, j's side first; one
``bincount`` adds each entry (row, label c) of side s into bin t*2L + s*L + c in
row order, t = 0 iff c is the row's label: the side's in-class mass a and
out-of-class mass o of c.  A label joins its side's set iff a > o, strictly.  A
side's W+ adds a for its set's labels and o for the others, its W- the reverse,
one float at a time, labels ascending; the round adds j's side to k's, so a swap
of the sides keeps the bits.  These sums are fixed by the code, not by numpy.
"""

from __future__ import annotations

import functools
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
    """Anchor ids with a triplet revealing their side: (closer to j, closer to k).

    Both are read-only slices of the store's pair index."""
    if j == k:
        raise ValueError("reference examples j and k must differ")
    lo, hi = min(j, k), max(j, k)
    keys, bounds, split, anchors = ts.pair_groups()
    key = lo * ts.n + hi if 0 <= lo and hi < ts.n else -1  # -1: a pair no row has
    g = int(keys.searchsorted(key))
    start = mid = stop = 0
    if g < keys.size and keys[g] == key:
        start, stop = bounds[g:g + 2].tolist()
        mid = int(split[g])
    near_lo, near_hi = anchors[start:mid], anchors[mid:stop]
    return (near_lo, near_hi) if j < k else (near_hi, near_lo)


@functools.cache
def _bin_table(n_labels: int) -> np.ndarray:
    """Row side*L + y of this (2L, L) table holds the bins of the entries of a
    side's row of label y: t*2L + side*L + c for column c, t = 0 iff c = y."""
    code, col = np.arange(2 * n_labels, dtype=np.intp)[:, None], np.arange(n_labels)
    table = code - code % n_labels + col + 2 * n_labels * (code % n_labels != col)
    table.flags.writeable = False
    return table


def _gather(w: np.ndarray, labels: np.ndarray, fwd: np.ndarray, rev: np.ndarray):
    """Both buckets' rows, j side first: (rows, w[rows], the bins of w[rows])."""
    rows = np.concatenate((fwd, rev), dtype=np.intp)  # intp: numpy indexes by it as is
    codes = labels.take(rows)
    codes[fwd.size:] += w.shape[1]  # side*L + label, the side 0 for j and 1 for k
    return rows, w.take(rows, axis=0), _bin_table(w.shape[1]).take(codes, axis=0)


def _sides(gathered, members: np.ndarray | None = None) -> tuple[np.ndarray, float, float]:
    """Both sides' label sets, as a (2, L) bool matrix, and the round's (W+, W-):
    the masses of the entries (i, y) whose membership of y in their side's set
    agrees, and disagrees, with y being i's label.  Without ``members`` each side's
    set is chosen: the labels whose in-class mass exceeds their out-of-class mass."""
    _, w_rows, bins = gathered
    n_labels, half = w_rows.shape[1], 2 * w_rows.shape[1]
    masses = np.bincount(bins.ravel(), weights=w_rows.ravel(), minlength=2 * half)
    if members is None:
        members = (masses[:half] > masses[half:]).reshape(2, n_labels)
    masses, sides = masses.tolist(), [[0.0, 0.0], [0.0, 0.0]]  # not sum(): it may compensate
    for b, member in enumerate(members.ravel().tolist()):
        a, o, side = masses[b], masses[half + b], sides[b // n_labels]
        side[:] = (side[0] + a, side[1] + o) if member else (side[0] + o, side[1] + a)
    return members, sides[0][0] + sides[1][0], sides[0][1] + sides[1][1]


@functools.lru_cache(maxsize=64)
def _bin_index(sets: bytes) -> np.ndarray:  # sets: a (2, L) bool matrix's bytes
    """Each bin's factor and vote index into (e^alpha, e^-alpha, -alpha, alpha)."""
    member = np.frombuffer(sets, dtype=bool)
    index = np.array((np.concatenate((member, ~member)), np.tile(member, 2) + 2))
    index.flags.writeable = False  # shared by every round with these sets
    return index


def _update(w: np.ndarray, gathered, members: np.ndarray, alpha: float,
            scores: np.ndarray | None = None) -> float:
    """Multiplicative update on the gathered (disjoint) buckets, written back once.

    Entries a side's set gets right shrink by exp(-alpha), the others grow
    by exp(alpha); ``scores``, when given, gains the signed vote.  Returns the
    pre-normalization total after renormalizing ``w`` in place.
    """
    rows, w_rows, bins = gathered
    values = np.array((math.exp(alpha), math.exp(-alpha), -alpha, alpha))
    factors, votes = values.take(_bin_index(members.tobytes()))
    row = f"V{w.strides[0]}"  # a row as one item: its put beats a fancy-index write
    w.view(row).put(rows, (w_rows * factors.take(bins)).view(row))
    if scores is not None:
        scores.view(row).put(rows, (scores.take(rows, axis=0) + votes.take(bins)).view(row))
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
    gathered = _gather(w, ds.labels, *fired_buckets(ts, j, k))
    return tuple(_pack_masks(_sides(gathered)[0]).tolist())


def round_weights(h: TripletClassifier, ts: TripletStore, ds: Dataset,
                  w: np.ndarray) -> tuple[float, float]:
    """Weighted mass of correctly and incorrectly classified (example, label) pairs."""
    gathered = _gather(w, ds.labels, *fired_buckets(ts, h.j, h.k))
    return _sides(gathered, _mask_bools((h.o_j, h.o_k), ds.n_labels))[1:]


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
