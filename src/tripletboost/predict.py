"""Strong-classifier scoring, abstention reporting, and prediction output.

Matching test pairs against model classifiers is the prediction bottleneck.
A test set's canonical rows are grouped by example; ``predict_all`` and
``score`` (a one-example test set) join them against the model's sorted
classifier keys (``StrongModel.sorted_keys``, built with the model, whose
columns hold the votes), in blocks of whole examples: each row's pair key is
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
from .weak import fired_buckets

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


def _accumulate(model: StrongModel, fired: np.ndarray,
                near_is_j: np.ndarray) -> Prediction:
    """Sum the votes of the classifiers ``fired`` (ascending indices) in
    classifier order; every scorer ends here, so they agree bit for bit."""
    alpha = model.alpha[fired]
    bits = model.label_sets[fired, (~near_is_j).astype(np.intp)]  # the near side's set
    scores = (alpha[:, None] * bits).sum(axis=0) if alpha.size \
        else np.zeros(model.n_labels)
    label = ABSTAIN if fired.size == 0 else int(np.argmax(scores))
    return Prediction(scores, label, int(fired.size), float(alpha.sum()))


def _join(model: StrongModel, tset: TestTripletSet) -> list[Prediction]:
    """Score every example of ``tset`` by one sorted join of its row pair keys
    against the model's sorted classifier keys, in blocks of whole examples."""
    keys, n_cls = model.sorted_keys, model.sorted_keys.size
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
        fired = model.key_order[np.repeat(first, count) + rank]
        row = edges[x] + np.repeat(hit, count)
        anchor = tset.anchors[row]
        # Votes ordered by (example, classifier); the key stays below
        # _JOIN_BLOCK * C, since a block of several examples has no more rows.
        by_vote = np.argsort((edges[anchor] - edges[x]) * n_cls + fired)
        fired, near_is_j = fired[by_vote], tset._near_lo[row[by_vote]]
        cuts = np.cumsum(np.bincount(anchor - x, minlength=y - x)).tolist()
        start = 0
        for stop in cuts:
            preds.append(_accumulate(model, fired[start:stop], near_is_j[start:stop]))
            start = stop
        x = y
    return preds


def score(model: StrongModel, pairs) -> Prediction:
    """Vote totals for one example given its (near, far) training pairs.

    Sorts the pairs once, then joins them against the model's sorted
    classifier keys, so the cost is O(|pairs| log |pairs| + |pairs| log C)
    plus the fired classifiers' votes.
    """
    return _join(model, _example(pairs, model.n_train))[0]


def score_naive(model: StrongModel, pairs) -> Prediction:
    """Same contract as ``score`` via the O(|pairs| * C) cross-comparison."""
    example = _example(pairs, model.n_train)
    if example.m == 0:
        return _accumulate(model, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool))
    keys = example._lo * example.n + example._hi
    cls_keys = model.j * model.n_train + model.k
    count = cls_keys.size
    matched = np.zeros(count, dtype=bool)
    hit_at = np.zeros(count, dtype=np.int64)
    for start in range(0, count, _NAIVE_BLOCK):
        stop = min(start + _NAIVE_BLOCK, count)
        eq = cls_keys[start:stop, None] == keys[None, :]
        matched[start:stop] = eq.any(axis=1)
        hit_at[start:stop] = eq.argmax(axis=1)
    return _accumulate(model, np.flatnonzero(matched), example._near_lo[hit_at[matched]])


def _score_matrix(predictions, n_labels: int) -> np.ndarray:
    """The (examples x labels) scores of ``predictions``, each of ``n_labels``."""
    sizes = np.array([p.scores.size for p in predictions], dtype=np.int64)
    bad = np.flatnonzero(sizes != n_labels)
    if bad.size:
        raise ValueError(f"prediction {bad[0]} has {sizes[bad[0]]} scores "
                         f"for {n_labels} labels")
    return np.array([p.scores for p in predictions]).reshape(sizes.size, n_labels)


def _resolve(scores: np.ndarray, policy: str, rng) -> np.ndarray:
    """Label ids of an (examples x labels) score matrix.  ``random`` draws the
    d-th tied maximum of each row, d uniform, with one array-bounded
    ``rng.integers`` call: the values and end state of one scalar call per row.
    """
    if policy == "fixed_lowest":
        return np.argmax(scores, axis=1)
    if policy != "random":
        raise ValueError(f"unknown policy {policy!r}")
    if rng is None:
        raise ValueError("the random policy needs a generator")
    tied = scores == scores.max(axis=1, keepdims=True)
    draw = rng.integers(0, tied.sum(axis=1))
    return np.argmax(np.cumsum(tied, axis=1) > draw[:, None], axis=1)


def resolve(prediction: Prediction, policy: str = "random", rng=None) -> int:
    """Turn a prediction into a label id: the lowest maximal label under
    ``fixed_lowest``, a uniform draw from ``rng`` among the maximal labels
    under ``random``.  An abstention scores zero everywhere, so it resolves
    like a vote in which every label ties: to label 0, or to a uniform draw.
    """
    return int(_resolve(prediction.scores[None, :], policy, rng)[0])


def predict_all(model: StrongModel, tset: TestTripletSet) -> list[Prediction]:
    """Score every test example; resolution is left to the caller."""
    if not isinstance(tset, TestTripletSet):
        raise ValueError("predict_all needs a TestTripletSet of test examples, "
                         f"not a {type(tset).__name__}")
    if tset.n_train != model.n_train:
        raise ValueError("test triplets index a different training universe "
                         f"(n_train={tset.n_train} vs model n={model.n_train})")
    return _join(model, tset)


def resolve_all(predictions, policy: str = "random", seed: int = 0) -> np.ndarray:
    """``resolve`` for each prediction in turn, on one generator seeded ``seed``."""
    if not predictions:
        return np.zeros(0, dtype=np.int64)
    return _resolve(_score_matrix(predictions, predictions[0].scores.size), policy,
                    np.random.default_rng(seed))


def signed_scores_on_training(model: StrongModel, ts: TripletStore) -> np.ndarray:
    """Recompute the signed training vote totals from a store.

    Matches ``StrongModel.train_scores`` up to float summation order; useful
    after loading a persisted model.
    """
    if ts.n != model.n_train:
        raise ValueError("store universe does not match the model")
    scores = np.zeros((ts.n, model.n_labels))
    for j, k, (bits_j, bits_k), alpha in zip(model.j.tolist(), model.k.tolist(),
                                              model.label_sets, model.alpha.tolist()):
        if alpha == 0.0:
            continue
        fwd, rev = fired_buckets(ts, j, k)
        scores[fwd] += np.where(bits_j, alpha, -alpha)
        scores[rev] += np.where(bits_k, alpha, -alpha)
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
