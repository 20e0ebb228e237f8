"""Triplet sets: generation, noise, subsampling, persistence, and queries.

A stored triplet (i, j, k) asserts that example i is closer to j than to k.
Stores keep one row per anchor/pair combination in canonical order
(anchor, min(j,k), max(j,k)); orientation is a single bit, so swapping a
triplet never changes its position.  Membership queries are binary searches
over the packed key array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.spatial.distance import cdist

from .dataset import Dataset

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

_MAX_UNIVERSE = 2_000_000  # keeps (i*n + lo)*n + hi inside int64
_ANCHOR_BLOCK = 256  # anchors per distance block during generation


class Relation(Enum):
    FORWARD = "forward"
    REVERSE = "reverse"
    ABSENT = "absent"


@dataclass(frozen=True)
class Triplet:
    """Ordered comparison: anchor i is closer to j than to k."""

    i: int
    j: int
    k: int

    def __post_init__(self):
        if self.j == self.k:
            raise ValueError("reference examples j and k must differ")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _check_unit(value: float, what: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} must lie in [0, 1]")


def _check_metric(metric: str) -> None:
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")


def _check_vectors(features: np.ndarray | None, metric: str, what: str) -> np.ndarray:
    if features is None:
        raise ValueError(f"{what} has no feature vectors")
    if metric == "cosine" and np.any(np.linalg.norm(features, axis=1) == 0.0):
        raise ValueError("cosine distance is undefined for zero-norm vectors")
    return features


class TripletStore:
    """Immutable, canonically sorted triplet set over example ids 0..n-1."""

    __slots__ = ("n", "_anchor", "_lo", "_hi", "_near_lo", "_keys", "_pair_cache")

    def __init__(self, n, anchor, lo, hi, near_lo, _trusted=False):
        if n < 1 or n > _MAX_UNIVERSE:
            raise ValueError(f"universe size must be in [1, {_MAX_UNIVERSE}]")
        self.n = int(n)
        self._anchor = np.ascontiguousarray(anchor, dtype=np.int64)
        self._lo = np.ascontiguousarray(lo, dtype=np.int64)
        self._hi = np.ascontiguousarray(hi, dtype=np.int64)
        self._near_lo = np.ascontiguousarray(near_lo, dtype=bool)
        if not _trusted:
            self._validate_and_canonicalize()
        self._keys = (self._anchor * self.n + self._lo) * self.n + self._hi
        self._pair_cache = None

    def _validate_and_canonicalize(self):
        a, lo, hi = self._anchor, self._lo, self._hi
        if not (a.size == lo.size == hi.size == self._near_lo.size):
            raise ValueError("column lengths differ")
        if a.size == 0:
            return
        ids = np.concatenate([a, lo, hi])
        if ids.min() < 0 or ids.max() >= self.n:
            raise ValueError("example id out of range")
        if np.any(lo >= hi):
            raise ValueError("pair columns must satisfy lo < hi")
        keys = (a * self.n + lo) * self.n + hi
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate or contradictory triplet")
        self._anchor = a[order]
        self._lo = lo[order]
        self._hi = hi[order]
        self._near_lo = self._near_lo[order]

    @classmethod
    def from_triplets(cls, n: int, triplets) -> "TripletStore":
        """Build a store from (i, j, k) tuples; anchors may repeat pair members."""
        rows = [(t.i, t.j, t.k) if isinstance(t, Triplet) else tuple(t) for t in triplets]
        if rows:
            arr = np.asarray(rows, dtype=np.int64).reshape(len(rows), 3)
            i, j, k = arr[:, 0], arr[:, 1], arr[:, 2]
        else:
            i = j = k = np.empty(0, dtype=np.int64)
        if np.any(j == k):
            raise ValueError("reference examples j and k must differ")
        return cls(n, i, np.minimum(j, k), np.maximum(j, k), j < k)

    @property
    def m(self) -> int:
        return int(self._anchor.size)

    @property
    def anchors(self) -> np.ndarray:
        return self._anchor

    @property
    def near(self) -> np.ndarray:
        return np.where(self._near_lo, self._lo, self._hi)

    @property
    def far(self) -> np.ndarray:
        return np.where(self._near_lo, self._hi, self._lo)

    def __len__(self) -> int:
        return self.m

    def __iter__(self):
        near, far = self.near, self.far
        for idx in range(self.m):
            yield Triplet(int(self._anchor[idx]), int(near[idx]), int(far[idx]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TripletStore):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and bool(np.array_equal(self._keys, other._keys))
            and bool(np.array_equal(self._near_lo, other._near_lo))
        )

    def lookup(self, i: int, j: int, k: int) -> Relation:
        """Three-way membership: is (i,j,k) stored forward, reversed, or absent?"""
        if j == k:
            raise ValueError("reference examples j and k must differ")
        lo, hi = (j, k) if j < k else (k, j)
        key = (i * self.n + lo) * self.n + hi
        pos = int(np.searchsorted(self._keys, key))
        if pos >= self.m or self._keys[pos] != key:
            return Relation.ABSENT
        stored_near = lo if self._near_lo[pos] else hi
        return Relation.FORWARD if stored_near == j else Relation.REVERSE

    def pair_groups(self):
        """Rows regrouped by reference pair: (sorted pair keys, anchors, near_lo).

        Within one pair key, anchors are ascending.  Cached; treat as read-only.
        """
        if self._pair_cache is None:
            pkeys = self._lo * self.n + self._hi
            order = np.lexsort((self._anchor, pkeys))
            self._pair_cache = (pkeys[order], self._anchor[order], self._near_lo[order])
        return self._pair_cache

    def availability(self) -> float:
        """Fraction of the n*C(n-1,2) anchor/pair candidates present in the store."""
        total = self.n * ((self.n - 1) * (self.n - 2) // 2)
        return self.m / total if total else 0.0

    def save(self, path) -> None:
        """Write the canonical text format; equal stores produce identical bytes."""
        near, far = self.near, self.far
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"tripletset v1 n={self.n} m={self.m}\n")
            _write_id_rows(fh, self._anchor, near, far)

    @classmethod
    def load(cls, path) -> "TripletStore":
        header, cols = _read_id_file(path, "tripletset")
        n, m = _header_ints(header, ("n", "m"), path)
        if cols.shape[0] != m:
            raise ValueError(f"header claims m={m} but file has {cols.shape[0]} triplets")
        i, j, k = cols[:, 0], cols[:, 1], cols[:, 2]
        if np.any(j == k):
            bad = int(np.flatnonzero(j == k)[0]) + 2
            raise ValueError(f"degenerate triplet at line {bad}")
        ids = cols.ravel()
        if m and (ids.min() < 0 or ids.max() >= n):
            bad = int(np.flatnonzero((cols < 0) | (cols >= n)).min() // 3) + 2
            raise ValueError(f"example id out of range at line {bad}")
        lo, hi = np.minimum(j, k), np.maximum(j, k)
        keys = (i * n + lo) * n + hi
        order = np.argsort(keys, kind="stable")
        dup = np.flatnonzero(keys[order][1:] == keys[order][:-1])
        if dup.size:
            first, second = order[dup[0]], order[dup[0] + 1]
            line = int(max(first, second)) + 2
            kind = "duplicate" if j[first] == j[second] else "contradictory"
            raise ValueError(f"{kind} triplet at line {line}")
        return cls(n, i, lo, hi, j < k)


# -- generation from feature vectors -----------------------------------------


def _pair_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = np.triu_indices(n, k=1)
    return lo.astype(np.int64), hi.astype(np.int64)


def _distance_rows(feats: np.ndarray, metric: str, start: int, stop: int,
                   ref: np.ndarray | None = None) -> np.ndarray:
    other = feats if ref is None else ref
    return cdist(feats[start:stop], other, metric=metric)


def _anchor_candidates(d_row, lo, hi, anchor):
    """Valid strict-inequality candidates for one anchor, in (lo, hi) order."""
    dl = d_row[lo]
    dh = d_row[hi]
    valid = dl != dh
    if anchor is not None:
        valid &= (lo != anchor) & (hi != anchor)
    return valid, dl < dh


def _generate_sampled(feats, metric, proportion, rng, *, n_universe, lo, hi,
                      exclude_anchor, ref=None):
    """Shared generator core for training and test triplet sets.

    Enumerates anchor/pair candidates in canonical order, keeps strict
    inequalities, and retains exactly round(proportion * m) of them, uniform
    without replacement.  The per-anchor hypergeometric split followed by a
    within-anchor draw realizes the same law without materializing the full
    candidate set, and consumes the identical RNG sequence as ``subsample``
    applied to a fully materialized store.
    """
    n_anchors = feats.shape[0]
    counts = np.empty(n_anchors, dtype=np.int64)
    for start in range(0, n_anchors, _ANCHOR_BLOCK):
        stop = min(start + _ANCHOR_BLOCK, n_anchors)
        rows = _distance_rows(feats, metric, start, stop, ref)
        for a in range(start, stop):
            anchor = a if exclude_anchor else None
            valid, _ = _anchor_candidates(rows[a - start], lo, hi, anchor)
            counts[a] = int(valid.sum())
    total = int(counts.sum())
    keep = total if proportion >= 1.0 else _round_half_up(proportion * total)
    take = _per_group_take(counts, keep, rng)

    out_a, out_lo, out_hi, out_near = [], [], [], []
    for start in range(0, n_anchors, _ANCHOR_BLOCK):
        stop = min(start + _ANCHOR_BLOCK, n_anchors)
        if not any(t is not None and t.size for t in take[start:stop]):
            continue
        rows = _distance_rows(feats, metric, start, stop, ref)
        for a in range(start, stop):
            ranks = take[a]
            if ranks is None or ranks.size == 0:
                continue
            anchor = a if exclude_anchor else None
            valid, near_lo = _anchor_candidates(rows[a - start], lo, hi, anchor)
            pos = np.flatnonzero(valid)[ranks]
            out_a.append(np.full(pos.size, a, dtype=np.int64))
            out_lo.append(lo[pos])
            out_hi.append(hi[pos])
            out_near.append(near_lo[pos])
    if out_a:
        return (np.concatenate(out_a), np.concatenate(out_lo),
                np.concatenate(out_hi), np.concatenate(out_near))
    empty = np.empty(0, dtype=np.int64)
    return empty, empty.copy(), empty.copy(), np.empty(0, dtype=bool)


def _per_group_take(counts: np.ndarray, keep: int, rng) -> list:
    """Sorted within-group ranks realizing a uniform draw of ``keep`` items."""
    n_groups = counts.size
    if keep >= counts.sum():
        return [np.arange(c, dtype=np.int64) for c in counts]
    if keep <= 0:
        return [None] * n_groups
    per_group = rng.multivariate_hypergeometric(counts, keep, method="marginals")
    take: list = [None] * n_groups
    for g in range(n_groups):
        if per_group[g] > 0:
            take[g] = np.sort(rng.choice(counts[g], size=per_group[g], replace=False))
    return take


def generate_from_vectors(ds: Dataset, metric: str) -> TripletStore:
    """All strict-inequality triplets (i, j, k), i not in {j, k}, ties dropped."""
    return generate_training_set(ds, metric, proportion=1.0, noise=0.0, seed=0)


def generate_training_set(ds: Dataset, metric: str, proportion: float,
                          noise: float, seed: int) -> TripletStore:
    """Generate, subsample, and perturb in one pass.

    Equivalent to generate_from_vectors -> subsample -> add_noise with the
    child seeds spawned from ``seed``, without materializing the full set.
    """
    _check_metric(metric)
    _check_unit(proportion, "proportion")
    _check_unit(noise, "noise rate")
    feats = _check_vectors(ds.features, metric, "dataset")
    sub_seed, noise_seed = np.random.SeedSequence(seed).spawn(2)
    lo, hi = _pair_table(ds.n)
    a, plo, phi, near = _generate_sampled(
        feats, metric, proportion, np.random.default_rng(sub_seed),
        n_universe=ds.n, lo=lo, hi=hi, exclude_anchor=True)
    store = TripletStore(ds.n, a, plo, phi, near, _trusted=True)
    return add_noise(store, noise, noise_seed)


def subsample(ts: TripletStore, proportion: float, seed) -> TripletStore:
    """Keep exactly round(proportion * m) triplets, uniform without replacement."""
    _check_unit(proportion, "proportion")
    keep = _round_half_up(proportion * ts.m)
    if keep >= ts.m:
        return ts
    rng = np.random.default_rng(seed)
    counts = np.bincount(ts._anchor, minlength=ts.n).astype(np.int64)
    take = _per_group_take(counts, keep, rng)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    picked = [offsets[g] + take[g] for g in range(ts.n) if take[g] is not None and take[g].size]
    idx = np.concatenate(picked) if picked else np.empty(0, dtype=np.int64)
    return TripletStore(ts.n, ts._anchor[idx], ts._lo[idx], ts._hi[idx],
                        ts._near_lo[idx], _trusted=True)


def add_noise(ts: TripletStore, rate: float, seed) -> TripletStore:
    """Swap j and k on exactly round(rate * m) triplets, chosen uniformly."""
    _check_unit(rate, "noise rate")
    near_lo = _flip(ts._near_lo, rate, seed)
    if near_lo is ts._near_lo:
        return ts
    return TripletStore(ts.n, ts._anchor, ts._lo, ts._hi, near_lo, _trusted=True)


def _flip(near_lo: np.ndarray, rate: float, seed) -> np.ndarray:
    """Orientation bits with exactly round(rate * m) of them negated, chosen
    uniformly; the input itself when there is nothing to flip."""
    n_swap = _round_half_up(rate * near_lo.size)
    if n_swap == 0:
        return near_lo
    idx = np.random.default_rng(seed).choice(near_lo.size, size=n_swap, replace=False)
    flipped = near_lo.copy()
    flipped[idx] = ~flipped[idx]
    return flipped


# -- generation from ratings --------------------------------------------------


@dataclass(frozen=True)
class RatingsTable:
    """Sparse user x item ratings; item ids are dense 0..n_items-1."""

    user: np.ndarray
    item: np.ndarray
    rating: np.ndarray
    n_items: int

    def __post_init__(self):
        if self.user.size == 0:
            raise ValueError("empty ratings table")
        if self.item.min() < 0:
            raise ValueError("item ids must be nonnegative")
        if not np.all(np.isfinite(self.rating)):
            raise ValueError("non-finite rating")
        if np.unique(np.column_stack([self.user, self.item]), axis=0).shape[0] \
                != self.user.size:
            raise ValueError("duplicate rating for one (user, item)")


def load_ratings(path) -> RatingsTable:
    """Read whitespace-separated ``user item rating`` lines.

    Each (user, item) may be rated once, and ratings must be finite.
    """
    users, items, ratings = [], [], []
    seen: set[tuple[int, int]] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"malformed rating at line {lineno}")
            try:
                user, item, rating = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise ValueError(f"malformed rating at line {lineno}") from None
            if not math.isfinite(rating):
                raise ValueError(f"non-finite rating at line {lineno}")
            if (user, item) in seen:
                raise ValueError(f"duplicate rating at line {lineno}")
            seen.add((user, item))
            users.append(user)
            items.append(item)
            ratings.append(rating)
    if not users:
        raise ValueError("empty ratings table")
    item_arr = np.asarray(items, dtype=np.int64)
    return RatingsTable(np.asarray(users, dtype=np.int64), item_arr,
                        np.asarray(ratings, dtype=np.float64), int(item_arr.max()) + 1)


def _unrank_pair(rank: int, m: int) -> tuple[int, int]:
    """Lexicographic pair (a, b), a < b, at position ``rank`` among C(m, 2)."""
    # offset(a) = a*m - a*(a+1)/2 counts pairs preceding first element a;
    # closed form plus a correction step guards float rounding.
    a = int((2 * m - 1 - math.sqrt((2 * m - 1) ** 2 - 8 * rank)) // 2)
    a = max(a, 0)
    while a * m - a * (a + 1) // 2 > rank:
        a -= 1
    while (a + 1) * m - (a + 1) * (a + 2) // 2 <= rank:
        a += 1
    return a, a + 1 + (rank - (a * m - a * (a + 1) // 2))


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
    if candidate_limit is not None and candidate_limit < total:
        chosen = _sample_indices(total, candidate_limit, np.random.default_rng(seed))
        candidates = ((int(g // pair_count), int(g % pair_count)) for g in chosen)
    else:
        candidates = ((i, r) for i in range(n) for r in range(pair_count))

    out = []
    for i, local in candidates:
        a, b = _unrank_pair(local, n - 1)
        lo = a if a < i else a + 1
        hi = b if b < i else b + 1
        vote = _pair_vote(by_item[i], by_item[lo], by_item[hi])
        if vote > 0:
            out.append((i, lo, hi, True))
        elif vote < 0:
            out.append((i, lo, hi, False))
    if out:
        arr = np.asarray([(r[0], r[1], r[2]) for r in out], dtype=np.int64)
        near = np.asarray([r[3] for r in out], dtype=bool)
        return TripletStore(n, arr[:, 0], arr[:, 1], arr[:, 2], near)
    empty = np.empty(0, dtype=np.int64)
    return TripletStore(n, empty, empty.copy(), empty.copy(), np.empty(0, dtype=bool))


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
    seen: set[int] = set()
    while len(seen) < k:
        draw = rng.integers(0, total, size=k - len(seen))
        seen.update(int(v) for v in draw)
    return np.sort(np.fromiter(seen, dtype=np.int64, count=len(seen)))


# -- test-time triplets --------------------------------------------------------


class TestTripletSet:
    """Per test example, the available (near, far) training reference pairs."""

    __test__ = False  # not a pytest class, despite the name
    __slots__ = ("n_test", "n_train", "_x", "_lo", "_hi", "_a_lo")

    def __init__(self, n_test, n_train, x, lo, hi, a_lo, _trusted=False):
        self.n_test = int(n_test)
        self.n_train = int(n_train)
        self._x = np.ascontiguousarray(x, dtype=np.int64)
        self._lo = np.ascontiguousarray(lo, dtype=np.int64)
        self._hi = np.ascontiguousarray(hi, dtype=np.int64)
        self._a_lo = np.ascontiguousarray(a_lo, dtype=bool)
        if not _trusted:
            self._canonicalize()

    def _canonicalize(self):
        if self._x.size == 0:
            return
        if self._x.min() < 0 or self._x.max() >= self.n_test:
            raise ValueError("test example id out of range")
        refs = np.concatenate([self._lo, self._hi])
        if refs.min() < 0 or refs.max() >= self.n_train:
            raise ValueError("training reference id out of range")
        keys = (self._x * self.n_train + self._lo) * self.n_train + self._hi
        order = np.argsort(keys, kind="stable")
        if np.any(keys[order][1:] == keys[order][:-1]):
            raise ValueError("duplicate or contradictory test pair")
        self._x = self._x[order]
        self._lo = self._lo[order]
        self._hi = self._hi[order]
        self._a_lo = self._a_lo[order]

    @property
    def m(self) -> int:
        return int(self._x.size)

    def pairs_for(self, x: int) -> np.ndarray:
        """(count, 2) array of (near, far) training ids for test example x."""
        start, stop = np.searchsorted(self._x, [x, x + 1])
        near = np.where(self._a_lo[start:stop], self._lo[start:stop], self._hi[start:stop])
        far = np.where(self._a_lo[start:stop], self._hi[start:stop], self._lo[start:stop])
        return np.column_stack([near, far])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TestTripletSet):
            return NotImplemented
        return (self.n_test == other.n_test and self.n_train == other.n_train
                and np.array_equal(self._x, other._x)
                and np.array_equal(self._lo, other._lo)
                and np.array_equal(self._hi, other._hi)
                and np.array_equal(self._a_lo, other._a_lo))

    def save(self, path) -> None:
        near = np.where(self._a_lo, self._lo, self._hi)
        far = np.where(self._a_lo, self._hi, self._lo)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"testtriplets v1 n_test={self.n_test} n_train={self.n_train}\n")
            _write_id_rows(fh, self._x, near, far)

    @classmethod
    def load(cls, path) -> "TestTripletSet":
        header, cols = _read_id_file(path, "testtriplets")
        n_test, n_train = _header_ints(header, ("n_test", "n_train"), path)
        x, a, b = cols[:, 0], cols[:, 1], cols[:, 2]
        if np.any(a == b):
            bad = int(np.flatnonzero(a == b)[0]) + 2
            raise ValueError(f"degenerate test pair at line {bad}")
        return cls(n_test, n_train, x, np.minimum(a, b), np.maximum(a, b), a < b)


def split_store_for_evaluation(store: TripletStore, train_ids, test_ids
                               ) -> tuple[TripletStore, TestTripletSet]:
    """Partition a full-universe store for holdout evaluation.

    Keeps rows whose both references are held-in: anchors among ``train_ids``
    become the training store (ids relabelled densely, ascending), anchors
    among ``test_ids`` become test-time pairs over the relabelled references.
    Rows anchored on a held-out reference pair are dropped.
    """
    train_ids = np.unique(np.asarray(train_ids, dtype=np.int64))
    test_ids = np.unique(np.asarray(test_ids, dtype=np.int64))
    if train_ids.size < 2:
        raise ValueError("need at least two training ids")
    if np.intersect1d(train_ids, test_ids).size:
        raise ValueError("train and test ids must be disjoint")
    ids = np.concatenate([train_ids, test_ids])
    if ids.min() < 0 or ids.max() >= store.n:
        raise ValueError("ids out of range for the store universe")
    to_train = np.full(store.n, -1, dtype=np.int64)
    to_train[train_ids] = np.arange(train_ids.size)
    to_test = np.full(store.n, -1, dtype=np.int64)
    to_test[test_ids] = np.arange(test_ids.size)

    ref_ok = (to_train[store._lo] >= 0) & (to_train[store._hi] >= 0)
    train_rows = ref_ok & (to_train[store._anchor] >= 0)
    test_rows = ref_ok & (to_test[store._anchor] >= 0)
    # ascending relabelling preserves both lo < hi and the canonical order
    train_store = TripletStore(
        train_ids.size,
        to_train[store._anchor[train_rows]],
        to_train[store._lo[train_rows]],
        to_train[store._hi[train_rows]],
        store._near_lo[train_rows], _trusted=True)
    test_set = TestTripletSet(
        test_ids.size, train_ids.size,
        to_test[store._anchor[test_rows]],
        to_train[store._lo[test_rows]],
        to_train[store._hi[test_rows]],
        store._near_lo[test_rows], _trusted=True)
    return train_store, test_set


def generate_test_set(test_ds: Dataset, train_ds: Dataset, metric: str,
                      proportion: float, noise: float, seed: int) -> TestTripletSet:
    """Test-anchor triplets over training reference pairs, same sampling protocol."""
    _check_metric(metric)
    _check_unit(proportion, "proportion")
    _check_unit(noise, "noise rate")
    test_feats = _check_vectors(test_ds.features, metric, "test dataset")
    train_feats = _check_vectors(train_ds.features, metric, "training dataset")
    sub_seed, noise_seed = np.random.SeedSequence(seed).spawn(2)
    lo, hi = _pair_table(train_ds.n)
    x, plo, phi, a_lo = _generate_sampled(
        test_feats, metric, proportion, np.random.default_rng(sub_seed),
        n_universe=train_ds.n, lo=lo, hi=hi, exclude_anchor=False, ref=train_feats)
    return TestTripletSet(test_ds.n, train_ds.n, x, plo, phi,
                          _flip(a_lo, noise, noise_seed), _trusted=True)


# -- shared text I/O -----------------------------------------------------------


def _write_id_rows(fh, c0, c1, c2) -> None:
    block = 1 << 16
    for start in range(0, c0.size, block):
        stop = min(start + block, c0.size)
        lines = [f"{int(c0[i])} {int(c1[i])} {int(c2[i])}" for i in range(start, stop)]
        fh.write("\n".join(lines))
        fh.write("\n")


def _read_id_file(path, expected_kind: str):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        body = fh.read()
    parts = header.split()
    if len(parts) < 2 or parts[0] != expected_kind or parts[1] != "v1":
        raise ValueError(f"version mismatch: expected '{expected_kind} v1' header in {path}")
    tokens = body.split()
    if len(tokens) % 3 != 0:
        raise ValueError(f"malformed triplet line in {path}")
    try:
        cols = np.array([int(t) for t in tokens], dtype=np.int64).reshape(-1, 3)
    except ValueError:
        raise ValueError(f"non-integer id in {path}") from None
    return parts, cols


def _header_ints(parts: list[str], names: tuple[str, str], path) -> tuple[int, int]:
    values = {}
    for token in parts[2:]:
        key, _, val = token.partition("=")
        values[key] = val
    try:
        return int(values[names[0]]), int(values[names[1]])
    except (KeyError, ValueError):
        raise ValueError(f"malformed header in {path}") from None
