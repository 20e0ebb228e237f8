"""Triplet sets: generation, noise, subsampling, persistence, and queries.

A stored triplet (i, j, k) asserts that example i is closer to j than to k.
Stores keep one row per anchor/pair combination in canonical order
(anchor, min(j,k), max(j,k)); orientation is a single bit, so swapping a
triplet never changes its position.  A test set is the same container with
test examples as anchors and training examples as references.

Generation from feature vectors never builds the C(n, 2) table of reference
pairs: per anchor it sorts the distance row to count tied pairs, then
unranks only the drawn pairs.  Time is O(n log n) per anchor plus its tied
pairs, and memory O(n + drawn) per anchor beyond a block of distance rows.
Subsampling draws from fewer than 1e9 candidates (numpy's hypergeometric
sampler limit); a larger total is rejected with a ValueError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import formats
from .dataset import Dataset, _check_unit, _distinct, _first_bad, _round_half_up, _row

__all__ = [
    "Relation",
    "Triplet",
    "TripletStore",
    "TestTripletSet",
    "RatingsTable",
    "METRICS",
    "generate_from_vectors",
    "generate_training_set",
    "generate_test_set",
    "generate_from_ratings",
    "load_ratings",
    "subsample",
    "add_noise",
    "split_store_for_evaluation",
]

METRICS = ("euclidean", "cityblock", "cosine")

_MAX_UNIVERSE = 2_000_000  # with n anchors, keeps (i*n + lo)*n + hi inside int64
_ID_DTYPE = np.int32  # ids as the accessors return them, and the widest id column
_ANCHOR_BLOCK = 256  # anchors per distance block during generation
_RANK_CHUNK = 1 << 14  # an anchor's drawn ranks unranked and written per pass
_DISTANCE_CHUNK = 32  # anchors per pass of the distance kernel over the references
_VOTE_BLOCK = 1 << 16  # ratings candidates per block, so exhaustive runs stay small
_SAMPLER_LIMIT = 1_000_000_000  # numpy's multivariate_hypergeometric("marginals") bound
_INT64 = np.iinfo(np.int64)


def _id_dtype(n_anchors: int, n: int) -> type:
    """The narrowest type of a store's id columns that both universes fit."""
    return np.int16 if max(n_anchors, n) <= np.iinfo(np.int16).max else _ID_DTYPE


def _check_universe(n: int) -> None:
    """Refuse a reference universe of n examples outside [1, _MAX_UNIVERSE]."""
    if not 1 <= n <= _MAX_UNIVERSE:
        raise ValueError(f"universe size must be in [1, {_MAX_UNIVERSE}], got {n}")


class Relation(Enum):
    FORWARD = "forward"
    REVERSE = "reverse"
    ABSENT = "absent"


@dataclass(frozen=True)
class Triplet:
    """Ordered comparison: anchor i is closer to j than to k; a store checks it."""

    i: int
    j: int
    k: int


def _check_vectors(features: np.ndarray | None, metric: str, what: str) -> np.ndarray:
    if features is None:
        raise ValueError(f"{what} has no feature vectors")
    if metric == "cosine" and not np.linalg.norm(features, axis=1).all():
        raise ValueError("cosine distance is undefined for zero-norm vectors, as at "
                         f"{what} row {np.argmin(np.linalg.norm(features, axis=1))}")
    return features


def _pair_keys(lo, hi, n: int, dtype=np.int64) -> np.ndarray:
    """The pair keys lo*n + hi on which the scorer joins store rows and classifiers."""
    keys = np.multiply(lo, n, dtype=dtype)
    return np.add(keys, hi, out=keys)


class TripletStore:
    """Immutable, canonically sorted triplets: anchors 0..n_anchors-1 over
    reference examples 0..n-1.

    A training store has one universe (``n_anchors == n``); a test set
    anchors test examples on pairs of training examples.  Rows are sorted by
    (anchor, lo, hi), so one anchor's rows are contiguous.  A row takes 7 bytes,
    int16 anchor, lo and hi and the bool ``near_lo``, when both universes are at
    most 32,767, else 13, with int32 ids.  The accessors return int32 ids.
    """

    __slots__ = ("n", "n_anchors", "_anchor", "_lo", "_hi", "_near_lo", "_pair_cache")
    _anchor_is_reference = True  # a training anchor is never in its own pairs

    def __init__(self, n, anchor, lo, hi, near_lo):
        self._init(n, n, anchor, lo, hi, near_lo, _row)

    def _init(self, n_anchors, n, anchor, lo, hi, near_lo, where,
              inexact=()) -> "TripletStore":
        """Hold the rows as ids of ``_id_dtype``.  ``where=None`` trusts them to be
        canonical and takes them as they are, else they are checked in int64 and
        sorted; ``inexact`` lists the rows whose ids ``_int64_ids`` rejected."""
        _check_universe(n)
        # packed keys (a*n + lo)*n + hi fit int64, and anchor ids fit int32
        limit = min((2**63 - 1) // (int(n) * int(n)), np.iinfo(_ID_DTYPE).max)
        if not 1 <= n_anchors <= limit:
            raise ValueError(f"anchor universe must be in [1, {limit}] over {n} "
                             f"references, got {n_anchors}")
        self.n_anchors = int(n_anchors)
        self.n = int(n)
        if where is not None:
            anchor, lo, hi, near_lo = self._canonicalize(
                *(np.asarray(col, dtype=np.int64) for col in (anchor, lo, hi)),
                np.asarray(near_lo, dtype=bool), where, inexact)
        dtype = _id_dtype(n_anchors, n)
        self._anchor, self._lo, self._hi = (np.ascontiguousarray(col, dtype=dtype)
                                            for col in (anchor, lo, hi))
        self._near_lo = np.ascontiguousarray(near_lo, dtype=bool)
        self._pair_cache = None
        return self

    def _canonicalize(self, a, lo, hi, near_lo, where, inexact):
        """The int64 rows checked, then as id columns in canonical order.  The
        first bad row raises, named by ``where(row)``: one of ``inexact`` first, of
        a repeated triplet the later row.  (A row outside the universes, or with an
        inexact id, may share a key, but it is bad and comes first.)"""
        if not a.size == lo.size == hi.size == near_lo.size:
            raise ValueError(f"column lengths differ: {a.size}, {lo.size}, {hi.size}, "
                             f"{near_lo.size}")
        keys = (a * self.n + lo) * self.n + hi
        order = np.argsort(keys, kind="stable")  # a repeated key follows its first row
        keys = keys[order]
        repeat = np.flatnonzero(keys[1:] == keys[:-1])
        later = order[repeat + 1]
        same = near_lo[later] == near_lo[order[repeat]]
        outside = ((a < 0) | (a >= self.n_anchors) | (np.minimum(lo, hi) < 0)
                   | (np.maximum(lo, hi) >= self.n))
        _first_bad(_inexact(inexact, where),
                   (np.flatnonzero(lo == hi), lambda row: f"degenerate triplet at "
                    f"{where(row)}: reference examples j and k must differ"),
                   (np.flatnonzero(outside), lambda row: f"example id out of range at "
                    f"{where(row)}: anchors lie in [0, {self.n_anchors}), references in "
                    f"[0, {self.n})"),
                   (np.flatnonzero(lo > hi), lambda row: f"unordered pair at {where(row)}: "
                    "pair columns must satisfy lo < hi"),
                   (later[same], lambda row: f"duplicate triplet at {where(row)}"),
                   (later[~same], lambda row: f"contradictory triplet at {where(row)}"))
        dtype = _id_dtype(self.n_anchors, self.n)
        return (*(col.astype(dtype)[order] for col in (a, lo, hi)), near_lo[order])

    @classmethod
    def _from_ijk(cls, n_anchors, n, i, j, k, where, inexact=()) -> "TripletStore":
        """A store of this kind from (i, j, k) id columns, a bad row named by ``where``;
        ``inexact`` lists the rows whose ids ``_int64_ids`` rejected."""
        return object.__new__(cls)._init(n_anchors, n, i, np.minimum(j, k),
                                         np.maximum(j, k), j < k, where, inexact)

    @classmethod
    def _canonical(cls, n_anchors, n, anchor, lo, hi, near_lo) -> "TripletStore":
        """A store of this kind holding rows trusted to be canonical, unchecked."""
        return object.__new__(cls)._init(n_anchors, n, anchor, lo, hi, near_lo, None)

    @staticmethod
    def from_triplets(n: int, triplets) -> "TripletStore":
        """Build a training store from (i, j, k) tuples; anchors may repeat pair members."""
        rows = [(t.i, t.j, t.k) if isinstance(t, Triplet) else tuple(t) for t in triplets]
        ids, inexact = _int64_ids(rows)
        return TripletStore._from_ijk(n, n, *ids.reshape(len(rows), 3).T,
                                      lambda idx: f"triplet {idx}", inexact)

    @property
    def m(self) -> int:
        return int(self._anchor.size)

    @property
    def anchors(self) -> np.ndarray:
        return self._anchor.astype(_ID_DTYPE, copy=False)

    @property
    def near(self) -> np.ndarray:
        return np.where(self._near_lo, self._lo, self._hi).astype(_ID_DTYPE, copy=False)

    @property
    def far(self) -> np.ndarray:
        return np.where(self._near_lo, self._hi, self._lo).astype(_ID_DTYPE, copy=False)

    def __len__(self) -> int:
        return self.m

    def __iter__(self):
        return map(Triplet, self._anchor.tolist(), self.near.tolist(), self.far.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, TripletStore):
            return NotImplemented
        return (type(self) is type(other)
                and self.n_anchors == other.n_anchors and self.n == other.n
                and all(np.array_equal(mine, theirs) for mine, theirs in zip(
                    (self._anchor, self._lo, self._hi, self._near_lo),
                    (other._anchor, other._lo, other._hi, other._near_lo))))

    def _rows_of(self, i: int) -> slice:
        if not 0 <= i < self.n_anchors:
            return slice(0, 0)
        # needles of the anchors' dtype: any other makes searchsorted convert them all
        start, stop = self._anchor.searchsorted(np.array([i, i + 1], dtype=self._anchor.dtype))
        return slice(int(start), int(stop))

    def lookup(self, i: int, j: int, k: int) -> Relation:
        """Three-way membership: is (i,j,k) stored forward, reversed, or absent?"""
        if j == k:
            raise ValueError("reference examples j and k must differ")
        lo, hi = (j, k) if j < k else (k, j)
        if lo < 0 or hi >= self.n:  # its key could alias a stored pair's
            return Relation.ABSENT
        key = lo * self.n + hi
        rows = self._rows_of(i)
        pkeys = self._keys(rows)
        pos = int(np.searchsorted(pkeys, key))
        if pos >= pkeys.size or pkeys[pos] != key:
            return Relation.ABSENT
        stored_near = lo if self._near_lo[rows.start + pos] else hi
        return Relation.FORWARD if stored_near == j else Relation.REVERSE

    def _keys(self, rows=slice(None)) -> np.ndarray:
        """The pair keys of ``rows``, in a new int64 array."""
        return _pair_keys(self._lo[rows], self._hi[rows], self.n)

    def pairs_for(self, i: int) -> np.ndarray:
        """(count, 2) array of the (near, far) reference ids stored for anchor i."""
        rows = self._rows_of(i)
        lo, hi, near_lo = self._lo[rows], self._hi[rows], self._near_lo[rows]
        return np.column_stack([np.where(near_lo, lo, hi), np.where(near_lo, hi, lo)]
                               ).astype(_ID_DTYPE, copy=False)

    def pair_groups(self):
        """Rows regrouped by reference pair and side: (keys, bounds, split, anchors).

        ``keys`` holds the distinct pair keys lo*n + hi (int64), ascending; the rows
        of pair ``keys[g]`` are ``bounds[g]:bounds[g + 1]`` of ``anchors`` (of the id
        columns' type): those closer to lo up to ``split[g]``, then those closer to
        hi, each run ascending.  ``bounds`` and ``split`` are int32 when the rows
        fit it, else int64.  Cached and read-only.
        """
        if self._pair_cache is None:
            # One unique key per row, ((lo*n + hi)*2 + far_lo)*n_anchors + anchor,
            # sorted in place: uint32 when 2*n*n*n_anchors fits, else uint64, which
            # n_anchors*n*n fitting int64 ensures.  The ids join it as unsigned views
            # (they are nonnegative), since numpy makes uint64 + int16 a float64.
            wide = np.uint32 if 2 * self.n**2 * self.n_anchors <= 1 << 32 else np.uint64
            unsigned = self._anchor.dtype.str.replace("i", "u")
            keys = _pair_keys(self._lo.view(unsigned), self._hi.view(unsigned), self.n, wide)
            keys <<= wide(1)
            keys |= self._near_lo
            keys ^= wide(1)  # far_lo: the rows closer to lo come first
            keys *= wide(self.n_anchors)
            keys += self._anchor.view(unsigned)
            keys.sort()
            anchors = np.empty(keys.size, dtype=self._anchor.dtype)
            # now each row's pair key*2 + far_lo, and its anchor; then its pair key
            np.divmod(keys, wide(self.n_anchors), out=(keys, anchors), casting="unsafe")
            far = np.bitwise_and(keys, wide(1), out=np.empty(keys.size, dtype=np.uint8),
                                 casting="unsafe")
            keys >>= wide(1)
            # In the sparse regime, about one row a pair, a column a pair costs as
            # much as a column a row, so each temporary goes before the next is made.
            starts = np.empty(keys.size, dtype=bool)  # where a pair's rows start
            starts[:1] = True
            np.not_equal(keys[1:], keys[:-1], out=starts[1:])
            first = np.flatnonzero(starts)
            del starts
            # a pair key fits int64, so a uint64 one is viewed as one, not copied
            pairs = (keys.view(np.int64) if wide is np.uint64 else keys)[first]
            del keys
            index = np.int32 if anchors.size <= np.iinfo(np.int32).max else np.int64
            # rows closer to hi, a pair's last rows; none when there are no pairs
            far_count = (np.add.reduceat(far, first, dtype=index) if first.size
                         else np.empty(0, dtype=index))
            del far
            bounds = np.empty(first.size + 1, dtype=index)
            bounds[:-1], bounds[-1] = first, anchors.size
            del first
            split = np.subtract(bounds[1:], far_count, out=far_count)
            self._pair_cache = (pairs.astype(np.int64, copy=False), bounds, split, anchors)
            for col in self._pair_cache:
                col.flags.writeable = False
        return self._pair_cache

    def availability(self) -> float:
        """Fraction present of the n*C(n-1,2) (test set: n_test*C(n_train,2)) candidates."""
        width = self.n - 1 if self._anchor_is_reference else self.n
        total = self.n_anchors * (width * (width - 1) // 2)
        return self.m / total if total else 0.0

    def save(self, path) -> None:
        """Write the canonical text format; equal stores produce identical bytes."""
        formats.save_store(path, "tripletset", (self.n_anchors, self.n, self.m),
                           (self._anchor, self.near, self.far))

    @classmethod
    def load(cls, path) -> "TripletStore":
        return formats.load_store(path, "tripletset", cls._from_ijk)


def _pair_rows(groups, n: int, j: int, k: int) -> tuple[np.ndarray, int]:
    """The rows of the pair {j, k} in ``groups``, the pair index of an n-example store,
    as stored: (anchors, count), the first ``count`` closer to lo = min(j, k)."""
    if j == k:
        raise ValueError("reference examples j and k must differ")
    lo, hi = (j, k) if j < k else (k, j)
    keys, bounds, split, anchors = groups
    key = lo * n + hi if 0 <= lo and hi < n else -1  # -1: a pair no row has
    g = int(keys.searchsorted(key))
    if g < keys.size and keys.item(g) == key:
        start = bounds.item(g)
        return anchors[start:bounds.item(g + 1)], split.item(g) - start
    return anchors[:0], 0


class TestTripletSet(TripletStore):
    """Per test example, the available (near, far) training reference pairs.

    A ``TripletStore`` anchored on the n_test test examples, over pairs of the
    n_train training examples.
    """

    __test__ = False  # not a pytest class, despite the name
    __slots__ = ()
    _anchor_is_reference = False

    def __init__(self, n_test, n_train, x, lo, hi, a_lo):
        self._init(n_test, n_train, x, lo, hi, a_lo, _row)

    @property
    def n_test(self) -> int:
        return self.n_anchors

    @property
    def n_train(self) -> int:
        return self.n

    def save(self, path) -> None:
        formats.save_store(path, "testtriplets", (self.n_anchors, self.n, self.m),
                           (self._anchor, self.near, self.far))

    @classmethod
    def load(cls, path) -> "TestTripletSet":
        return formats.load_store(path, "testtriplets", cls._from_ijk)


# -- generation from feature vectors -----------------------------------------


def _pairs_before(a, m: int):
    """Lexicographic rank, among C(m, 2), of the first pair starting with a."""
    return a * m - a * (a + 1) // 2


def _unrank_pairs(ranks: np.ndarray, m: int,
                  first: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Lexicographic pairs (a, b), a < b, at positions ``ranks`` among C(m, 2).

    Looks the first element up in the table of first-pair ranks ``first``
    (``_pairs_before`` of 0..m-1, built here when not given), in exact integer
    arithmetic.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    if first is None:
        first = _pairs_before(np.arange(m, dtype=np.int64), m)
    a = np.searchsorted(first, ranks, side="right") - 1
    return a, ranks - first[a] + a + 1


def _distances(a: np.ndarray, b: np.ndarray, metric: str) -> np.ndarray:
    """Distances from each row of ``a`` to each row of ``b`` (float64 rows).

    Each sum over the coordinates starts at 0.0 and adds them in order, as
    scipy's ``cdist`` does: euclidean and cityblock are its bits at any dimension,
    cosine up to 3 coordinates (from 4, cdist's unrolled order is a few ulp away).
    """
    if metric == "cosine":  # a norm is the euclidean distance to the origin
        origin = np.zeros((1, a.shape[1]))
        norms_a, norms_b = (_distances(x, origin, "euclidean") for x in (a, b))
    cols = b.T.copy()  # a row per coordinate
    out = np.empty((a.shape[0], b.shape[0]))
    scratch = np.empty((min(_DISTANCE_CHUNK, a.shape[0]), b.shape[0]))
    op = np.multiply if metric == "cosine" else np.subtract
    for start in range(0, a.shape[0], _DISTANCE_CHUNK):
        rows = a[start:start + _DISTANCE_CHUNK]
        block, term = out[start:start + rows.shape[0]], scratch[:rows.shape[0]]
        for k in range(cols.shape[0]):  # the first term goes straight into block
            into = term if k else block
            op(rows[:, k, None], cols[k], out=into)
            if metric == "euclidean":
                np.multiply(into, into, out=into)
            elif metric == "cityblock":
                np.abs(into, out=into)
            if k:
                block += term
        if metric == "cosine":
            np.multiply(norms_a[start:start + rows.shape[0]], norms_b.T, out=term)
            np.clip(np.divide(block, term, out=block), -1.0, 1.0, out=block)
            np.subtract(1.0, block, out=block)
    return np.sqrt(out, out=out) if metric == "euclidean" else out


def _reference_rows(feats: np.ndarray, metric: str, start: int, stop: int,
                    ref: np.ndarray | None) -> np.ndarray:
    """Distances from anchors start..stop-1 to their reference examples.

    Test anchors (``ref`` given) see every training example; a training
    anchor sees every example but itself, so its row has n - 1 entries.
    """
    if ref is not None:
        return _distances(feats[start:stop], ref, metric)
    rows = _distances(feats[start:stop], feats, metric)
    keep = np.ones(rows.shape, dtype=bool)
    local = np.arange(stop - start)
    keep[local, start + local] = False
    return rows[keep].reshape(stop - start, -1)


def _tie_counts(rows: np.ndarray) -> np.ndarray:
    """Per row, the number of index pairs holding equal values; sorts ``rows`` in
    place.  Only a row with a tie gets a table of where its runs start."""
    rows.sort(axis=1)
    equal = rows[:, 1:] == rows[:, :-1]
    counts = np.zeros(rows.shape[0], dtype=np.int64)
    tied = np.flatnonzero(equal.any(axis=1))
    if tied.size:
        cols = np.arange(rows.shape[1])
        run_start = np.zeros((tied.size, rows.shape[1]), dtype=np.int64)
        np.copyto(run_start[:, 1:], cols[1:], where=~equal[tied])
        np.maximum.accumulate(run_start, axis=1, out=run_start)
        counts[tied] = (cols - run_start).sum(axis=1)
    return counts


def _tied_ranks(row: np.ndarray) -> np.ndarray:
    """Ascending lexicographic ranks of the pairs u < v with row[u] == row[v]."""
    m = row.size
    order = np.argsort(row, kind="stable")  # ids ascend within a run of equal values
    ordered = row[order]
    starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    sizes = np.diff(np.append(starts, m))
    position = np.empty(m, dtype=np.int64)
    position[order] = np.arange(m)
    # id u pairs with the ids at the later positions of its run, which ascend;
    # listing u in id order therefore lists the pairs in lexicographic order
    later = (np.repeat(starts + sizes, sizes) - np.arange(m) - 1)[position]
    u = np.repeat(np.arange(m), later)
    v = order[np.repeat(position + 1 - (np.cumsum(later) - later), later)
              + np.arange(u.size)]
    return _pairs_before(u, m) + (v - u - 1)


def _generate_sampled(feats, metric, proportion, rng, ref=None):
    """Shared generator core for training and test triplet sets.

    Test anchors (``ref`` given) pair training examples; without ``ref`` an
    anchor pairs the other examples of ``feats``.

    Enumerates anchor/pair candidates in canonical order, keeps strict
    inequalities, and retains exactly round(proportion * m) of them, uniform
    without replacement.  The per-anchor hypergeometric split followed by a
    within-anchor draw realizes the same law without materializing the full
    candidate set, and consumes the identical RNG sequence as ``subsample``
    applied to a fully materialized store.

    No pass visits all C(m, 2) reference pairs of an anchor.  An anchor's
    candidate count is C(m, 2) minus its tied pairs, counted from its sorted
    distance row; each drawn within-anchor rank is shifted past the tied
    pairs' ranks and unranked into its pair.  That costs O(m log m) per
    anchor, plus the number of its tied pairs (zero for continuous data) and
    O(log m) per drawn pair, and O(m) memory per anchor beyond the distance
    block and its drawn ranks, which are unranked, compared and written
    ``_RANK_CHUNK`` at a time.  Returns the canonical (anchor, lo, hi, near_lo)
    columns, ids of ``_id_dtype``, each filled in place as its anchors' ranks
    are drawn.
    """
    n_anchors = feats.shape[0]
    width = n_anchors - 1 if ref is None else ref.shape[0]
    ties = np.empty(n_anchors, dtype=np.int64)
    for start in range(0, n_anchors, _ANCHOR_BLOCK):
        stop = min(start + _ANCHOR_BLOCK, n_anchors)
        ties[start:stop] = _tie_counts(_reference_rows(feats, metric, start, stop, ref))
    counts = width * (width - 1) // 2 - ties
    total = int(counts.sum())
    keep = total if proportion >= 1.0 else _round_half_up(proportion * total)
    first = _pairs_before(np.arange(width, dtype=np.int64), width)

    dtype = _id_dtype(n_anchors, n_anchors if ref is None else width)
    anchor, lo_ids, hi_ids = (np.empty(keep, dtype=dtype) for _ in range(3))
    near_lo = np.empty(keep, dtype=bool)
    at, block = 0, -1
    # not enumerate: its reused result tuple would hold an anchor's ranks while the
    # next anchor's are drawn
    draws = _per_group_take(counts, keep, rng)
    for a in range(n_anchors):
        ranks = next(draws)
        if ranks.size == 0:
            continue
        if a // _ANCHOR_BLOCK != block:  # a block's distances, once one of it draws
            block = a // _ANCHOR_BLOCK
            start = block * _ANCHOR_BLOCK
            rows = _reference_rows(feats, metric, start,
                                   min(start + _ANCHOR_BLOCK, n_anchors), ref)
        row = rows[a - start]
        if ties[a]:
            tied = _tied_ranks(row)
            tied -= np.arange(tied.size)  # candidate ranks below each tied pair
        for begin in range(0, ranks.size, _RANK_CHUNK):
            chunk = ranks[begin:begin + _RANK_CHUNK]
            if ties[a]:
                chunk = chunk + np.searchsorted(tied, chunk, side="right")
            lo, hi = _unrank_pairs(chunk, width, first)
            part = slice(at, at + chunk.size)
            np.less(row[lo], row[hi], out=near_lo[part])
            if ref is None:  # back to example ids; the shift keeps lo < hi
                lo += lo >= a
                hi += hi >= a
            anchor[part], lo_ids[part], hi_ids[part] = a, lo, hi
            at = part.stop
        del ranks, chunk  # before the next anchor's ranks are drawn
    return anchor, lo_ids, hi_ids, near_lo


def _per_group_take(counts: np.ndarray, keep: int, rng):
    """Sorted within-group ranks realizing a uniform draw of ``keep`` items, an
    iterator in group order.  A group's ranks are drawn as the iterator reaches
    it, so the caller holds one group's at a time; the checks and the split of
    ``keep`` among the groups happen at the call."""
    total = int(counts.sum())
    if keep >= total:
        return (np.arange(c, dtype=np.int64) for c in counts)
    empty = np.empty(0, dtype=np.int64)
    if keep <= 0:
        return itertools.repeat(empty, counts.size)
    if total >= _SAMPLER_LIMIT:
        raise ValueError(f"cannot subsample {total} candidates: the sampler takes "
                         f"fewer than {_SAMPLER_LIMIT}")
    per_group = rng.multivariate_hypergeometric(counts, keep, method="marginals")
    return (np.sort(rng.choice(count, size=k, replace=False)) if k else empty
            for count, k in zip(counts, per_group))


def generate_from_vectors(ds: Dataset, metric: str) -> TripletStore:
    """All strict-inequality triplets (i, j, k), i not in {j, k}, ties dropped."""
    return generate_training_set(ds, metric, proportion=1.0, noise=0.0, seed=0)


def generate_training_set(ds: Dataset, metric: str, proportion: float,
                          noise: float, seed: int) -> TripletStore:
    """Generate, subsample, and perturb in one pass.

    Equivalent to generate_from_vectors -> subsample -> add_noise with the
    child seeds spawned from ``seed``, without materializing the full set.
    """
    return _generate(ds, None, metric, proportion, noise, seed)


def generate_test_set(test_ds: Dataset, train_ds: Dataset, metric: str,
                      proportion: float, noise: float, seed: int) -> TestTripletSet:
    """Test-anchor triplets over training reference pairs, same sampling protocol."""
    return _generate(test_ds, train_ds, metric, proportion, noise, seed)


def _generate(anchor_ds: Dataset, ref_ds: Dataset | None, metric: str,
              proportion: float, noise: float, seed: int) -> TripletStore:
    """The generators' one body; without ``ref_ds`` anchors and references are
    the same examples, which makes a training store."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    _check_unit(proportion, "proportion")
    _check_unit(noise, "noise rate")
    if ref_ds is None:
        feats, ref = _check_vectors(anchor_ds.features, metric, "dataset"), None
    else:
        feats = _check_vectors(anchor_ds.features, metric, "test dataset")
        ref = _check_vectors(ref_ds.features, metric, "training dataset")
        if feats.shape[1] != ref.shape[1]:
            raise ValueError(f"test features have dimension {feats.shape[1]} but "
                             f"training features have dimension {ref.shape[1]}")
    sub_seed, noise_seed = np.random.SeedSequence(seed).spawn(2)
    rows = _generate_sampled(feats, metric, proportion, np.random.default_rng(sub_seed),
                             ref)
    store = (TripletStore._canonical(anchor_ds.n, anchor_ds.n, *rows) if ref_ds is None
             else TestTripletSet._canonical(anchor_ds.n, ref_ds.n, *rows))
    return add_noise(store, noise, noise_seed)


def subsample(ts: TripletStore, proportion: float, seed) -> TripletStore:
    """Keep exactly round(proportion * m) triplets, uniform without replacement."""
    _check_unit(proportion, "proportion")
    keep = _round_half_up(proportion * ts.m)
    if keep >= ts.m:
        return ts
    rng = np.random.default_rng(seed)
    counts = np.bincount(ts._anchor, minlength=ts.n_anchors).astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    idx = np.concatenate([offsets[g] + ranks
                          for g, ranks in enumerate(_per_group_take(counts, keep, rng))])
    return type(ts)._canonical(ts.n_anchors, ts.n, ts._anchor[idx], ts._lo[idx],
                               ts._hi[idx], ts._near_lo[idx])


def add_noise(ts: TripletStore, rate: float, seed) -> TripletStore:
    """Swap j and k on exactly round(rate * m) triplets, chosen uniformly."""
    _check_unit(rate, "noise rate")
    n_swap = _round_half_up(rate * ts.m)
    if n_swap == 0:
        return ts
    idx = np.random.default_rng(seed).choice(ts.m, size=n_swap, replace=False)
    near_lo = ts._near_lo.copy()
    near_lo[idx] = ~near_lo[idx]
    return type(ts)._canonical(ts.n_anchors, ts.n, ts._anchor, ts._lo, ts._hi, near_lo)


# -- generation from ratings --------------------------------------------------


@dataclass(frozen=True)
class RatingsTable:
    """Sparse user x item ratings; item ids are dense 0..n_items-1."""

    user: np.ndarray
    item: np.ndarray
    rating: np.ndarray
    n_items: int

    def __post_init__(self):
        sizes = [np.size(col) for col in (self.user, self.item, self.rating)]
        if len(set(sizes)) > 1:
            raise ValueError("user, item and rating lengths differ: "
                             + ", ".join(map(str, sizes)))
        if sizes[0] == 0:
            raise ValueError("empty ratings table")
        (user, bad_user), (item, bad_item) = map(_int64_ids, (self.user, self.item))
        rating = np.asarray(self.rating, dtype=np.float64)
        _check_ratings(user, item, rating, self.n_items, _row,
                       np.append(bad_user, bad_item))
        self.__dict__.update(user=user, item=item, rating=rating)  # a frozen dataclass

    @classmethod
    def _checked(cls, user, item, rating, where) -> "RatingsTable":
        """The table of int64/int64/float64 columns over items 0..max, its rows
        checked once, the first bad one named by ``where``; it may be empty."""
        n_items = int(item.max()) + 1 if item.size else 0
        _check_ratings(user, item, rating, n_items, where)
        table = object.__new__(cls)
        table.__dict__.update(user=user, item=item, rating=rating, n_items=n_items)
        return table


def _int64_ids(ids) -> tuple[np.ndarray, np.ndarray]:
    """``ids`` (one id or one row of ids per record) as int64, and the indices of
    the records with an id that int64 does not hold exactly (it reads as 0 here)."""
    ids = np.asarray(ids)
    if np.can_cast(ids.dtype, np.int64):  # any integer (or bool) dtype int64 holds
        return ids.astype(np.int64, copy=False), np.empty(0, dtype=np.int64)
    fits = (ids >= _INT64.min) & (ids <= _INT64.max)  # exact on Python ints, too
    with np.errstate(invalid="ignore"):
        out = np.where(fits, ids, 0).astype(np.int64)
    # out of range, a fraction or a NaN; a lone id is record 0
    return out, np.nonzero(np.atleast_1d(~fits | (out != ids)))[0]


def _inexact(records, where):
    """The check (see ``_first_bad``) of the ``records`` that ``_int64_ids`` rejects,
    each named by ``where(index)``."""
    return records, lambda idx: f"id not an int64 integer at {where(idx)}"


def _check_ratings(user, item, rating, n_items: int, where, inexact=()) -> None:
    """Reject the first bad row of the int64/int64/float64 columns, named by
    ``where(index)``: whether it is one of ``inexact``, then its item id, then its
    rating, then whether a row above rated its (user, item)."""
    order = np.lexsort((item, user))  # stable, so a repeat follows its first row
    u, it = user[order], item[order]
    _first_bad(_inexact(inexact, where),
               (np.flatnonzero(item < 0), lambda row: f"negative item id at {where(row)}"),
               (np.flatnonzero(item >= n_items), lambda row: f"item id {int(item[row])} "
                f"out of range for n_items={n_items} at {where(row)}"),
               (np.flatnonzero(~np.isfinite(rating)),
                lambda row: f"non-finite rating at {where(row)}"),
               (order[1:][(u[1:] == u[:-1]) & (it[1:] == it[:-1])],
                lambda row: f"duplicate rating at {where(row)}"))


def load_ratings(path) -> RatingsTable:
    """Read whitespace-separated ``user item rating`` lines; errors name a line."""
    table = formats.load_ratings(path, RatingsTable._checked)
    if table.n_items == 0:  # no rating, and no bad line
        raise ValueError("empty ratings table")
    return table


def generate_from_ratings(ratings: RatingsTable, candidate_limit: int | None = None,
                          seed: int = 0) -> TripletStore:
    """Orient each examined anchor/pair candidate by its net co-rater vote.

    A candidate (i, {j, k}) yields a triplet iff the users who rated all
    three items disagree-count strictly favours one side: each such user
    votes for the item whose rating sits closer to the anchor's.
    """
    n = ratings.n_items
    if n < 3:
        raise ValueError("need at least three items")
    if candidate_limit is not None and candidate_limit < 0:
        raise ValueError("candidate_limit must be nonnegative")
    by_item: list[dict[int, float]] = [{} for _ in range(n)]
    for u, it, r in zip(ratings.user.tolist(), ratings.item.tolist(),
                        ratings.rating.tolist()):
        by_item[it][u] = r

    pair_count = (n - 1) * (n - 2) // 2
    total = n * pair_count
    limited = candidate_limit is not None and candidate_limit < total
    if limited:
        chosen = _sample_indices(total, candidate_limit, np.random.default_rng(seed))
    count = chosen.size if limited else total
    empty = np.empty(0, dtype=np.int64)
    parts = [(empty, empty, empty, np.empty(0, dtype=bool))]
    for start in range(0, count, _VOTE_BLOCK):
        stop = min(start + _VOTE_BLOCK, count)
        g = chosen[start:stop] if limited else np.arange(start, stop, dtype=np.int64)
        anchor, local = np.divmod(g, pair_count)
        lo, hi = _unrank_pairs(local, n - 1)
        lo += lo >= anchor  # skip the anchor itself; keeps lo < hi
        hi += hi >= anchor
        votes = np.array([_pair_vote(by_item[i], by_item[j], by_item[k])
                          for i, j, k in zip(anchor.tolist(), lo.tolist(), hi.tolist())],
                         dtype=np.int64)
        kept = votes != 0
        parts.append((anchor[kept], lo[kept], hi[kept], votes[kept] > 0))
    return TripletStore(n, *(np.concatenate(col) for col in zip(*parts)))


def _pair_vote(anchor: dict, lo: dict, hi: dict) -> int:
    small = min((anchor, lo, hi), key=len)
    vote = 0
    for u, _ in small.items():
        if u in anchor and u in lo and u in hi:
            da = abs(anchor[u] - lo[u])
            db = abs(anchor[u] - hi[u])
            if da < db:
                vote += 1
            elif da > db:
                vote -= 1
    return vote


def _sample_indices(total: int, k: int, rng) -> np.ndarray:
    """k distinct indices in [0, total) without materializing the range."""
    seen = np.empty(0, dtype=np.int64)
    while seen.size < k:
        seen = _distinct(np.concatenate((seen, rng.integers(0, total, size=k - seen.size))))
    return seen


# -- holdout evaluation -------------------------------------------------------


def split_store_for_evaluation(store: TripletStore, train_ids, test_ids
                               ) -> tuple[TripletStore, TestTripletSet]:
    """Partition a full-universe store for holdout evaluation.

    Keeps rows whose both references are held-in: anchors among ``train_ids``
    become the training store (ids relabelled densely, ascending), anchors
    among ``test_ids`` become test-time pairs over the relabelled references.
    Rows anchored on a held-out reference pair are dropped.
    """
    (train_ids, bad_train), (test_ids, bad_test) = map(_int64_ids, (train_ids, test_ids))
    _first_bad(_inexact(bad_train, _row))  # two inputs: the train ids are checked first
    _first_bad(_inexact(bad_test, _row))
    train_ids, test_ids = _distinct(train_ids), _distinct(test_ids)
    if train_ids.size < 2 or test_ids.size < 1:
        raise ValueError("need at least two training ids and one test id")
    ids = np.concatenate([train_ids, test_ids])
    if _distinct(ids).size < ids.size:
        raise ValueError("train and test ids must be disjoint")
    if ids.min() < 0 or ids.max() >= store.n:
        raise ValueError("ids out of range for the store universe")
    dtype = _id_dtype(max(train_ids.size, test_ids.size), train_ids.size)
    to_train = np.full(store.n, -1, dtype=dtype)
    to_train[train_ids] = np.arange(train_ids.size)
    to_test = np.full(store.n, -1, dtype=dtype)
    to_test[test_ids] = np.arange(test_ids.size)

    # ascending relabelling preserves both lo < hi and the canonical order
    lo, hi, near_lo = to_train[store._lo], to_train[store._hi], store._near_lo
    ref_ok = (lo >= 0) & (hi >= 0)
    tr = ref_ok & (to_train[store._anchor] >= 0)
    te = ref_ok & (to_test[store._anchor] >= 0)
    return (TripletStore._canonical(train_ids.size, train_ids.size,
                                    to_train[store._anchor[tr]], lo[tr], hi[tr], near_lo[tr]),
            TestTripletSet._canonical(test_ids.size, train_ids.size,
                                      to_test[store._anchor[te]], lo[te], hi[te], near_lo[te]))
