"""Strong-classifier scoring, abstention reporting, and prediction output.

Matching test pairs against model classifiers is the prediction bottleneck;
``score`` sorts the test pairs once and binary-searches each classifier key,
while ``score_naive`` performs the full cross-comparison and exists as the
correctness oracle and benchmark foil.  Both feed the identical accumulation
step, so their outputs agree bit for bit.
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
    "predict_all",
    "signed_scores_on_training",
    "write_predictions_csv",
]

ABSTAIN = -1

_NAIVE_BLOCK = 128  # classifiers per cross-comparison block


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
    """Classifier columns in training order, ready for vectorized matching."""

    __slots__ = ("n_train", "n_labels", "keys", "alpha", "bits_j", "bits_k")

    def __init__(self, model: StrongModel):
        self.n_train = model.n_train
        self.n_labels = model.n_labels
        cls = model.classifiers
        self.keys = np.array([h.j * self.n_train + h.k for h in cls], dtype=np.int64)
        self.alpha = np.array([h.alpha for h in cls], dtype=np.float64)
        self.bits_j = _mask_bools([h.o_j for h in cls], self.n_labels)
        self.bits_k = _mask_bools([h.o_k for h in cls], self.n_labels)


def _index(model: StrongModel) -> _ScoringIndex:
    if model._index_cache is None:
        model._index_cache = _ScoringIndex(model)
    return model._index_cache


def _pair_arrays(pairs, n_train: int):
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("pairs must be a sequence of (near, far) id pairs")
    a, b = arr[:, 0], arr[:, 1]
    if a.min() < 0 or b.min() < 0 or max(a.max(), b.max()) >= n_train:
        raise ValueError("pair id out of range")
    if np.any(a == b):
        raise ValueError("pair members must differ")
    keys = np.minimum(a, b) * n_train + np.maximum(a, b)
    if np.unique(keys).size != keys.size:
        raise ValueError("duplicate or contradictory pair for one example")
    return a, b


def _accumulate(index: _ScoringIndex, matched: np.ndarray,
                near_is_j: np.ndarray) -> Prediction:
    """Sum fired classifiers' votes in classifier order (shared by both scorers)."""
    alpha = index.alpha[matched]
    bits = np.where(near_is_j[:, None], index.bits_j[matched], index.bits_k[matched])
    scores = (alpha[:, None] * bits).sum(axis=0) if alpha.size \
        else np.zeros(index.n_labels)
    count = int(matched.sum())
    label = ABSTAIN if count == 0 else int(np.argmax(scores))
    return Prediction(scores, label, count, float(alpha.sum()))


def score(model: StrongModel, pairs) -> Prediction:
    """Vote totals for one example given its (near, far) training pairs.

    Sorts the pairs once, then locates every classifier key by binary
    search, so the cost is O(|pairs| log |pairs| + C log |pairs|).
    """
    index = _index(model)
    a, b = _pair_arrays(pairs, index.n_train)
    if a.size == 0 or index.keys.size == 0:
        empty = np.zeros(0, dtype=bool)
        return _accumulate(index, np.zeros(index.keys.size, dtype=bool), empty)
    keys = np.minimum(a, b) * index.n_train + np.maximum(a, b)
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    near_lo_sorted = (a < b)[order]
    pos = np.searchsorted(keys_sorted, index.keys)
    pos_clipped = np.minimum(pos, keys_sorted.size - 1)
    matched = keys_sorted[pos_clipped] == index.keys
    near_is_j = near_lo_sorted[pos_clipped[matched]]
    return _accumulate(index, matched, near_is_j)


def score_naive(model: StrongModel, pairs) -> Prediction:
    """Same contract as ``score`` via the O(|pairs| * C) cross-comparison."""
    index = _index(model)
    a, b = _pair_arrays(pairs, index.n_train)
    if a.size == 0 or index.keys.size == 0:
        empty = np.zeros(0, dtype=bool)
        return _accumulate(index, np.zeros(index.keys.size, dtype=bool), empty)
    keys = np.minimum(a, b) * index.n_train + np.maximum(a, b)
    near_lo = a < b
    count = index.keys.size
    matched = np.zeros(count, dtype=bool)
    hit_at = np.zeros(count, dtype=np.int64)
    for start in range(0, count, _NAIVE_BLOCK):
        stop = min(start + _NAIVE_BLOCK, count)
        eq = index.keys[start:stop, None] == keys[None, :]
        matched[start:stop] = eq.any(axis=1)
        hit_at[start:stop] = eq.argmax(axis=1)
    near_is_j = near_lo[hit_at[matched]]
    return _accumulate(index, matched, near_is_j)


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
    if tset.n_train != model.n_train:
        raise ValueError("test pairs index a different training universe")
    return [score(model, tset.pairs_for(x)) for x in range(tset.n_test)]


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
