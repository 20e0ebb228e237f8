"""Reference-pair weak classifiers over triplet half-spaces, and the boosting round.

A classifier for a pair (j, k) predicts the label set ``o_j`` on examples
known (via some triplet) to be closer to j, the set ``o_k`` on examples
closer to k, and abstains elsewhere.  Inside a round and in a model's columns
a label set is a bool vector over the labels; at the API and file boundary
(``TripletClassifier``, a view of a model's row, the step functions, model
files) it is an int bitmask, which caps the label space at 64 classes.
``_play`` is the one boosting round and ``_Run.draw`` the one draw of its pair;
boost's ``_boost``, the one loop of rounds that ``train`` and
``end_to_end_abstention`` share, builds its ``_Run`` once and plays every round on
it, where the step functions (``select_labels``, ``round_weights`` and boost's
``sample_reference_pair`` and ``update_weights``) run on a ``_Run`` built for one call.

A round gathers its fired rows of the weights once, as the store keeps them: those
closer to lo = min(j, k) first.  One ``bincount`` adds each entry (row, label c) of
side s (0 is lo's) into bin t*2L + s*L + c in row order, t = 0 iff c is the row's
label: the side's in-class mass a and out-of-class mass o of c.  A label joins its
side's set iff a > o, strictly.  A side's W+ adds a for its set's labels and o for
the others, its W- the reverse, one float at a time, labels ascending; the round
adds the lo side to the hi side's, so a swap of the sides keeps the bits.  These
sums are fixed by the code.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import Dataset, _check_n
from .triplets import TripletStore, _ID_DTYPE, _pair_rows

__all__ = [
    "MAX_LABELS",
    "TripletClassifier",
    "RoundStats",
    "select_labels",
    "round_weights",
    "classifier_alpha",
    "z_factor",
]

MAX_LABELS = 64


@dataclass(frozen=True, slots=True)
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


def _mask_bools(masks, n_labels: int) -> np.ndarray:
    """Decode one bitmask, or an array of them, into bool rows over the labels."""
    shifts = np.arange(n_labels, dtype=np.uint64)  # uint64: bit 63 is legal
    bits = np.asarray(masks, dtype=np.uint64)[..., None] >> shifts
    return (bits & np.uint64(1)).astype(bool)


def fired_buckets(ts: TripletStore, j: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Anchors with a triplet on {j, k}, (closer to j, closer to k), int32: read-only
    slices of the pair index, or copies of them where the store holds narrower ids."""
    rows, count = _pair_rows(ts.pair_groups(), ts.n, j, k)
    rows = rows.astype(_ID_DTYPE, copy=False)
    return (rows[:count], rows[count:]) if j < k else (rows[count:], rows[:count])


@functools.cache
def _bin_table(n_labels: int) -> np.ndarray:
    """Row y holds the bins t*2L + c of a row of label y on the lo side, t = 0 iff c = y."""
    col = np.arange(n_labels)
    table = col + 2 * n_labels * (col[:, None] != col)
    table.flags.writeable = False
    return table


def _draw_index(cum: np.ndarray, total: float, u: float) -> int:
    """The index a uniform u in [0, 1) draws from ``cum``, cumulative masses to ``total``."""
    idx = int(cum.searchsorted(u * total, "right"))
    if idx >= cum.size:  # u rounded up to the total mass
        idx = cum.size - 1
        while idx > 0 and cum[idx] == cum[idx - 1]:
            idx -= 1
    return idx


def _row_sums(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``w.sum(axis=1)`` bit for bit: numpy adds fewer than 8 entries in order, so
    narrow rows are summed column by column, without its one inner loop per row."""
    if not 1 < w.shape[1] < 8:
        return w.sum(axis=1, out=out)
    cols = w.T
    out = np.add(cols[0], cols[1], out=out)
    for col in range(2, w.shape[1]):
        out += cols[col]
    return out


class _Run:
    """A run's state: ``w`` and ``scores`` (or None), updated in place, their row views,
    ``bins[i]``, example i's bins on the lo side (intp, the size of ``w``), and the
    draw's tables, which ``_update``, the one writer of ``w``, marks stale for ``draw``."""

    def __init__(self, w: np.ndarray, labels: np.ndarray, scores: np.ndarray | None = None):
        self.row = f"V{w.strides[0]}"  # a row as one item: its put beats a fancy-index write
        self.w, self.w_rows, self.scores = w, w.view(self.row), scores
        self.score_rows = None if scores is None else scores.view(self.row)
        self.labels, self.bins = labels, _bin_table(w.shape[1]).take(labels, axis=0)
        self.marg = self.cum = None  # the draw's buffers, filled at its first rebuild
        self.others, self.tables, self.stale = {}, {}, True

    def draw(self, uniform) -> tuple[int, int]:
        """A pair (j, k) from two calls of ``uniform``, each a double in [0, 1): j from
        the example marginal, k from that of the other classes' examples.  A class's
        table is built when j first has that class after ``w`` changed."""
        if self.stale:
            self.marg = _row_sums(self.w, out=self.marg)
            self.cum = np.add.accumulate(self.marg, out=self.cum)
            self.total = float(self.cum[-1])
            if not 0.0 < self.total < math.inf:
                raise ValueError("weight distribution needs a positive finite total")
            self.tables.clear()
            self.stale = False
        j = _draw_index(self.cum, self.total, uniform())
        c = self.labels.item(j)
        if c not in self.tables:
            if c not in self.others:
                self.others[c] = np.flatnonzero(self.labels != c)
            if not self.others[c].size:
                raise ValueError("need at least two classes to sample a reference pair")
            # These are the cumulative masses of the marginal with zeros for j's
            # class, which the draw skips: adding 0.0 changes no partial sum.
            cum = np.add.accumulate(self.marg.take(self.others[c]))
            total = float(cum[-1])
            if not 0.0 < total < math.inf:
                raise ValueError("the examples of classes other than j's carry no mass")
            self.tables[c] = cum, total
        cum, total = self.tables[c]
        return j, int(self.others[c][_draw_index(cum, total, uniform())])


def _gather(run: _Run, rows: np.ndarray, count: int):
    """(rows, their weights, their bins), the first ``count`` rows on the lo side."""
    rows = rows.astype(np.intp)  # numpy indexes by intp as is
    bins = run.bins.take(rows, axis=0)
    bins[count:] += run.w.shape[1]  # side*L + label: one take and add beat a take a side
    return rows, run.w.take(rows, axis=0), bins


def _sides(gathered, members: np.ndarray | None = None) -> tuple[np.ndarray, float, float]:
    """Both sides' label sets, as a (2, L) bool matrix, and the round's (W+, W-):
    the masses of the entries (i, y) whose membership of y in their side's set
    agrees, and disagrees, with y being i's label.  Without ``members`` each side's
    set is chosen: the labels whose in-class mass exceeds their out-of-class mass."""
    _, w_rows, bins = gathered
    n_labels, half = w_rows.shape[1], 2 * w_rows.shape[1]
    masses = np.bincount(bins.ravel(), weights=w_rows.ravel(), minlength=2 * half).tolist()
    sets = bytes(map(operator.gt, masses[:half], masses[half:])) if members is None \
        else members.tobytes()  # the bytes of the (2, L) bool matrix
    sides = [[0.0, 0.0], [0.0, 0.0]]  # not sum(): it may compensate
    for b, member in enumerate(sets):
        a, o, side = masses[b], masses[half + b], sides[b // n_labels]
        side[:] = (side[0] + a, side[1] + o) if member else (side[0] + o, side[1] + a)
    members = _bin_index(sets)[0] if members is None else members
    return members, sides[0][0] + sides[1][0], sides[0][1] + sides[1][1]


@functools.lru_cache(maxsize=64)
def _bin_index(sets: bytes) -> tuple[np.ndarray, np.ndarray]:  # a (2, L) bool matrix's bytes
    """The read-only (2, L) bool sets, and each bin's factor and vote index into
    (e^alpha, e^-alpha, -alpha, alpha)."""
    member = np.frombuffer(sets, dtype=bool)  # read-only, as bytes are
    index = np.array((np.concatenate((member, ~member)), np.tile(member, 2) + 2))
    index.flags.writeable = False
    return member.reshape(2, -1), index


def _update(run: _Run, gathered, members: np.ndarray, alpha: float) -> float:
    """Multiplicative update of the gathered (disjoint) rows, written back once.

    Entries a side's set gets right shrink by exp(-alpha), the others grow
    by exp(alpha); ``run.scores``, when held, gains the signed vote.  Returns the
    pre-normalization total after renormalizing ``run.w`` in place.
    """
    rows, w_rows, bins = gathered
    values = np.array((math.exp(alpha), math.exp(-alpha), -alpha, alpha))
    taken = values.take(_bin_index(members.tobytes())[1]).take(bins, axis=1)
    w_rows *= taken[0]  # the factors, then the votes
    run.w_rows.put(rows, w_rows.view(run.row))
    if run.scores is not None:
        run.score_rows.put(rows, (taken[1] + run.scores.take(rows, axis=0)).view(run.row))
    z = float(np.add.reduce(run.w, axis=None))
    if z <= 0.0:
        raise ValueError("weight update produced a nonpositive total")
    run.w /= z
    run.stale = True
    return z


def _pack_masks(members: np.ndarray) -> np.ndarray:
    """The uint64 bitmask of each bool row over the labels; ``_mask_bools`` inverted."""
    shifts = np.arange(members.shape[-1], dtype=np.uint64)
    return np.bitwise_or.reduce(members.astype(np.uint64) << shifts, axis=-1)


def _play(run: _Run, rows: np.ndarray, count: int) -> tuple[np.ndarray, tuple]:
    """One boosting round on a pair's ``rows``, the first ``count`` closer to its lo,
    the rest to its hi.  Chooses both label sets, weighs the classifier and updates
    ``run.w`` (and ``run.scores``) in place, unless its weight is zero (then z = 1).
    Returns the (2, L) bool sets, lo side first, and the round's stats
    (w_plus, w_minus, z, alpha) in ``RoundStats`` order."""
    gathered = _gather(run, rows, count)
    members, w_plus, w_minus = _sides(gathered)
    alpha = classifier_alpha(w_plus, w_minus, run.w.shape[0])
    z = _update(run, gathered, members, alpha) if alpha != 0.0 else 1.0
    return members, (w_plus, w_minus, z, alpha)


def select_labels(j: int, k: int, ts: TripletStore, ds: Dataset,
                  w: np.ndarray) -> tuple[int, int]:
    """Choose the predicted label sets for both sides of the pair (j, k): (o_j, o_k)."""
    gathered = _gather(_Run(w, ds.labels), *_pair_rows(ts.pair_groups(), ts.n, j, k))
    masks = _pack_masks(_sides(gathered)[0]).tolist()  # lo side first
    return tuple(masks if j < k else masks[::-1])


def round_weights(h: TripletClassifier, ts: TripletStore, ds: Dataset,
                  w: np.ndarray) -> tuple[float, float]:
    """Weighted mass of correctly and incorrectly classified (example, label) pairs."""
    gathered = _gather(_Run(w, ds.labels), *_pair_rows(ts.pair_groups(), ts.n, h.j, h.k))
    return _sides(gathered, _mask_bools((h.o_j, h.o_k), ds.n_labels))[1:]


def classifier_alpha(w_plus: float, w_minus: float, n: int) -> float:
    """Smoothed log-odds vote weight; the 1/n terms keep it finite."""
    _check_n(n)
    return 0.5 * math.log((w_plus + 1.0 / n) / (w_minus + 1.0 / n))


def z_factor(w_plus: float, w_minus: float, n: int) -> float:
    """Weight-update normalizer; at most 1, with equality iff the vote is useless."""
    _check_n(n)
    ratio = (w_minus + 1.0 / n) / (w_plus + 1.0 / n)
    root = math.sqrt(ratio)
    return (1.0 - w_plus - w_minus) + (w_plus * root + w_minus / root)
