"""Strong-classifier scoring, abstention reporting, and prediction output.

Matching test pairs against model classifiers is the prediction bottleneck.
A test set's canonical rows are grouped by example; ``predict_all`` and
``score`` (a one-example test set) join them against the model's sorted
classifier keys, in blocks of whole examples: each row's pair key is
binary-searched among the C keys, every classifier kept on a found pair
fires, and the hits are ordered by (example, classifier).  The cost grows
with the rows present, O(rows log C), not with C times the examples.
``score_naive`` performs the full cross-comparison and exists as the
correctness oracle and benchmark foil.  All feed the identical accumulation
step with the fired classifiers in ascending order, so their outputs agree
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boost import StrongModel
from .triplets import TestTripletSet, TripletStore
from .weak import _mask_bools, fired_buckets

__all__ = [
    "ABSTAIN",
    "Prediction",
    "score",
    "score_naive",
    "resolve",
    "resolve_all",
    "predict_all",
    "signed_scores_on_training",
    "write_predictions_csv",
]

ABSTAIN = -1

_NAIVE_BLOCK = 128  # classifiers per cross-comparison block
_JOIN_BLOCK = 1 << 17  # test-set rows per join block, rounded to whole examples


@dataclass(frozen=True)
class Prediction:
    """Per-label vote totals for one example, plus the raw decision."""

    scores: np.ndarray
    label: int
    matched: int
    fired_alpha: float

    @property
    def abstained(self) -> bool:
        return self.label == ABSTAIN

    def signed_scores(self) -> np.ndarray:
        """Votes recentred so non-fired labels count against: 2*scores - fired."""
        return 2.0 * self.scores - self.fired_alpha


class _ScoringIndex:
    """Classifier columns in training order, plus their keys sorted for the join."""

    __slots__ = ("n_train", "n_labels", "keys", "alpha", "bits_j", "bits_k",
                 "order", "sorted_keys")

    def __init__(self, model: StrongModel):
        self.n_train = model.n_train
        self.n_labels = model.n_labels
        cls = model.classifiers
        self.keys = np.array([h.j * self.n_train + h.k for h in cls], dtype=np.int64)
        self.alpha = np.array([h.alpha for h in cls], dtype=np.float64)
        self.bits_j = _mask_bools([h.o_j for h in cls], self.n_labels)
        self.bits_k = _mask_bools([h.o_k for h in cls], self.n_labels)
        self.order = np.argsort(self.keys, kind="stable")
        self.sorted_keys = self.keys[self.order]


def _index(model: StrongModel) -> _ScoringIndex:
    if model._index_cache is None:
        model._index_cache = _ScoringIndex(model)
    return model._index_cache


def _example(pairs, n_train: int) -> TestTripletSet:
    """One example's (near, far) pairs, validated and sorted as a one-anchor test set."""
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("pairs must be a sequence of (near, far) id pairs")
    a, b = arr[:, 0], arr[:, 1]
    return TestTripletSet(1, n_train, np.zeros(a.size, dtype=np.int64),
                          np.minimum(a, b), np.maximum(a, b), a < b)


def _accumulate(index: _ScoringIndex, fired: np.ndarray,
                near_is_j: np.ndarray) -> Prediction:
    """Sum the votes of the classifiers ``fired`` (ascending indices) in
    classifier order; every scorer ends here, so they agree bit for bit."""
    alpha = index.alpha[fired]
    bits = np.where(near_is_j[:, None], index.bits_j[fired], index.bits_k[fired])
    scores = (alpha[:, None] * bits).sum(axis=0) if alpha.size \
        else np.zeros(index.n_labels)
    label = ABSTAIN if fired.size == 0 else int(np.argmax(scores))
    return Prediction(scores, label, int(fired.size), float(alpha.sum()))


def _join(index: _ScoringIndex, tset: TestTripletSet) -> list[Prediction]:
    """Score every example of ``tset`` by one sorted join of its row pair keys
    against the classifier keys, in blocks of whole examples."""
    keys, n_cls = index.sorted_keys, index.sorted_keys.size
    edges = np.searchsorted(tset.anchors, np.arange(tset.n_test + 1))
    preds = []
    x = 0
    while x < tset.n_test:
        y = max(x + 1, int(np.searchsorted(edges, edges[x] + _JOIN_BLOCK, "right")) - 1)
        block = slice(edges[x], edges[y])
        pkeys = tset._lo[block] * tset.n + tset._hi[block]
        first = np.searchsorted(keys, pkeys)
        # Without classifiers the clipped position would be -1.
        hit = (np.flatnonzero(keys[np.minimum(first, n_cls - 1)] == pkeys) if n_cls
               else np.zeros(0, dtype=np.int64))
        # A pair kept by several classifiers fires each of them.
        first = first[hit]
        count = np.searchsorted(keys, pkeys[hit], "right") - first
        rank = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        fired = index.order[np.repeat(first, count) + rank]
        row = edges[x] + np.repeat(hit, count)
        anchor = tset.anchors[row]
        # Votes ordered by (example, classifier); the key stays below
        # _JOIN_BLOCK * C, since a block of several examples has no more rows.
        by_vote = np.argsort((edges[anchor] - edges[x]) * n_cls + fired)
        fired, near_is_j = fired[by_vote], tset._near_lo[row[by_vote]]
        cuts = np.cumsum(np.bincount(anchor - x, minlength=y - x)).tolist()
        start = 0
        for stop in cuts:
            preds.append(_accumulate(index, fired[start:stop], near_is_j[start:stop]))
            start = stop
        x = y
    return preds


def score(model: StrongModel, pairs) -> Prediction:
    """Vote totals for one example given its (near, far) training pairs.

    Sorts the pairs once, then joins them against the model's sorted
    classifier keys, so the cost is O(|pairs| log |pairs| + |pairs| log C)
    plus the fired classifiers' votes.
    """
    index = _index(model)
    return _join(index, _example(pairs, index.n_train))[0]


def score_naive(model: StrongModel, pairs) -> Prediction:
    """Same contract as ``score`` via the O(|pairs| * C) cross-comparison."""
    index = _index(model)
    example = _example(pairs, index.n_train)
    if example.m == 0:
        return _accumulate(index, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool))
    keys = example._lo * example.n + example._hi
    count = index.keys.size
    matched = np.zeros(count, dtype=bool)
    hit_at = np.zeros(count, dtype=np.int64)
    for start in range(0, count, _NAIVE_BLOCK):
        stop = min(start + _NAIVE_BLOCK, count)
        eq = index.keys[start:stop, None] == keys[None, :]
        matched[start:stop] = eq.any(axis=1)
        hit_at[start:stop] = eq.argmax(axis=1)
    return _accumulate(index, np.flatnonzero(matched), example._near_lo[hit_at[matched]])


def resolve(prediction: Prediction, policy: str = "random", rng=None) -> int:
    """Turn a prediction into a label: break ties, randomize abstentions."""
    n_labels = prediction.scores.size
    if policy == "fixed_lowest":
        if prediction.abstained:
            return 0
        return int(np.argmax(prediction.scores))
    if policy != "random":
        raise ValueError(f"unknown policy {policy!r}")
    if rng is None:
        raise ValueError("the random policy needs a generator")
    if prediction.abstained:
        return int(rng.integers(n_labels))
    best = np.flatnonzero(prediction.scores == prediction.scores.max())
    return int(best[rng.integers(best.size)])


def predict_all(model: StrongModel, tset: TestTripletSet) -> list[Prediction]:
    """Score every test example; resolution is left to the caller."""
    if not isinstance(tset, TestTripletSet):
        raise ValueError("predict_all needs a TestTripletSet of test examples, "
                         f"not a {type(tset).__name__}")
    if tset.n_train != model.n_train:
        raise ValueError("test triplets index a different training universe "
                         f"(n_train={tset.n_train} vs model n={model.n_train})")
    return _join(_index(model), tset)


def resolve_all(predictions, policy: str = "random", seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.array([resolve(p, policy, rng) for p in predictions], dtype=np.int64)


def signed_scores_on_training(model: StrongModel, ts: TripletStore) -> np.ndarray:
    """Recompute the signed training vote totals from a store.

    Matches ``StrongModel.train_scores`` up to float summation order; useful
    after loading a persisted model.
    """
    if ts.n != model.n_train:
        raise ValueError("store universe does not match the model")
    scores = np.zeros((ts.n, model.n_labels))
    index = _index(model)
    for h, bits_j, bits_k in zip(model.classifiers, index.bits_j, index.bits_k):
        if h.alpha == 0.0:
            continue
        fwd, rev = fired_buckets(ts, h.j, h.k)
        scores[fwd] += np.where(bits_j, h.alpha, -h.alpha)
        scores[rev] += np.where(bits_k, h.alpha, -h.alpha)
    return scores


def write_predictions_csv(fh, predictions, resolved: np.ndarray) -> None:
    """Rows ``example_id,label,abstained,score_0,...``; label is the resolved id."""
    n_labels = predictions[0].scores.size if predictions else 0
    header = ",".join(["example_id", "label", "abstained"]
                      + [f"score_{y}" for y in range(n_labels)])
    fh.write(header + "\n")
    for idx, pred in enumerate(predictions):
        cells = [str(idx), str(int(resolved[idx])), str(int(pred.abstained))]
        cells += [repr(float(s)) for s in pred.scores]
        fh.write(",".join(cells) + "\n")
