"""Reference-pair weak classifiers over triplet half-spaces, and the boosting round.

A classifier for a pair (j, k) predicts the label set ``o_j`` on examples
known (via some triplet) to be closer to j, the set ``o_k`` on examples
closer to k, and abstains elsewhere.  Inside a round and in a model's columns
a label set is a bool vector over the labels; at the API and file boundary
(``TripletClassifier``, a view of a model's row, the step functions, model
files) it is an int bitmask, which caps the label space at 64 classes.
``_round`` is the one implementation of a boosting round; ``select_labels``,
``round_weights`` and ``boost.update_weights`` expose its steps one at a time.

A round reads its fired rows of the weights once (``_gather``), j's side
first, and writes them back with one scatter (``_update``), each row's factors
and votes looked up by its code side*L + label.  Its sums keep the bits of a
round that gathers and sums each side on its own, because each is added in
the same order:

- numpy adds a ``bincount``'s weights and a column sum (a reduction down the
  rows of a C-ordered matrix) in row order, so one ``bincount`` over the codes
  gives both sides' in-class masses, and one over each entry's side*L + column
  both sides' column masses: each bin meets its side's rows in order;
- it adds a whole-array reduction pairwise (in order below 8 entries, in 8
  running sums up to 128, by halves above), so where such a sum starts and
  ends sets its bits.  The four masses of W+ and W- (total, true, inside the
  set, inside and true) are reduced side by side.  Their shortcuts are exact:
  an empty set adds 0.0; a one-label set's inside mass reduces the strided
  column, which numpy adds as it adds the one-column copy; a larger set's
  ``side_w[:, set]`` is a Fortran-ordered copy that adds column after column,
  as ``side_w.T[set]`` does; and a set of every label has inside-true mass
  equal to the true mass;
- a label joins a set when 2a - b > 0, which holds iff 2a > b: a difference
  of finite doubles rounds to zero only when they are equal.
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
def _side_codes(n_labels: int) -> np.ndarray:
    """The (2, L) codes side*L + label."""
    return np.arange(2 * n_labels).reshape(2, n_labels)


@functools.lru_cache(maxsize=256)
def _update_index(sets: bytes, n_labels: int) -> np.ndarray:
    """Indices into (exp(alpha), exp(-alpha), -alpha, alpha) for the label sets
    ``sets``, the bytes of a (2, L) bool matrix: row side*L + y holds the factors
    of that side's examples of label y, then their votes."""
    members = np.frombuffer(sets, dtype=bool).reshape(2, 1, n_labels)
    right = members == np.eye(n_labels, dtype=bool)  # the entries that shrink
    votes = np.broadcast_to(members + 2, right.shape)
    index = np.concatenate((right, votes), axis=2, dtype=np.int8).reshape(2 * n_labels, -1)
    index.flags.writeable = False
    return index


def _gather(w: np.ndarray, labels: np.ndarray, fwd: np.ndarray, rev: np.ndarray):
    """Both buckets' rows, j side first: (rows, w[rows], cells, codes, true weights,
    |fwd|).  A row's code is side*L + its label, the side 0 for j and 1 for k;
    ``cells`` holds side*L + label for each entry of ``w[rows]``.
    """
    rows = np.concatenate((fwd, rev), dtype=np.intp)  # intp: numpy indexes by it as is
    row_labels = labels.take(rows)
    cells = _side_codes(w.shape[1]).repeat((fwd.size, rev.size), axis=0)
    return (rows, w.take(rows, axis=0), cells, row_labels + cells[:, 0],
            w[rows, row_labels], fwd.size)


def _sides(gathered, members: np.ndarray | None = None) -> tuple[np.ndarray, float, float]:
    """Both sides' label sets, as a (2, L) bool matrix, and the round's (W+, W-).

    Without ``members`` each side's set is chosen: the labels whose in-class
    minus out-of-class mass on the side is strictly positive.  An entry (i, y)
    counts as correct when membership of y in its side's set agrees with y
    being i's true label; abstaining examples are not gathered.
    """
    _, w_rows, cells, codes, true_w, n_fwd = gathered
    n_labels = w_rows.shape[1]
    if members is None:
        in_class = np.bincount(codes, weights=true_w, minlength=2 * n_labels)
        column = np.bincount(cells.ravel(), weights=w_rows.ravel(), minlength=2 * n_labels)
        members = (2.0 * in_class > column).reshape(2, n_labels)  # 2a - b > 0 iff 2a > b
    sets = members.tolist()
    in_set = members.ravel().take(codes)  # each row's label is in its side's set
    w_plus = w_minus = 0.0
    for side, part in enumerate((slice(None, n_fwd), slice(n_fwd, None))):
        side_w, side_true, size = w_rows[part], true_w[part], sum(sets[side])
        if side_true.size == 0:
            continue
        total = float(np.add.reduce(side_w, axis=None))
        all_true = float(np.add.reduce(side_true))
        inside = inside_true = 0.0
        if size == 1:
            inside = float(np.add.reduce(side_w[:, sets[side].index(True)]))
        elif size:
            inside = float(np.add.reduce(side_w.T[members[side]], axis=None))
        if size == n_labels:
            inside_true = all_true
        elif size:
            inside_true = float(np.add.reduce(side_true[in_set[part]]))
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
    rows, w_rows, _, codes, _, _ = gathered
    n_labels = w.shape[1]
    values = np.array((math.exp(alpha), math.exp(-alpha), -alpha, alpha))
    by_code = values.take(_update_index(members.tobytes(), n_labels))
    row_values = by_code.take(codes, axis=0)  # each row's factors, then its votes
    w[rows] = w_rows * row_values[:, :n_labels]
    if scores is not None:
        scores[rows] = scores.take(rows, axis=0) + row_values[:, n_labels:]
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
