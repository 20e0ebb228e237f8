"""Strong-classifier scoring, abstention reporting, and prediction output.

``predict_all`` and ``score`` (a one-example test set) join a test set's rows,
grouped by example, against the model's classifier keys in blocks of whole
examples: each row's pair key is looked up by address in the model's hashed
slot table (``StrongModel.key_slots``), and every classifier kept on a found
pair fires.  The cost grows with the rows present, not with C times the
examples; ``signed_scores_on_training`` joins a training store the same way.
``score_naive`` is the full cross-comparison, kept as the correctness oracle
and benchmark foil.  Every scorer adds its votes with ``bincount``: a total is
0.0 plus the fired classifiers' votes in ascending classifier order, the order
in which ``train`` adds each round's votes, so all of them agree bit for bit.
``predict_all`` returns columns (``Predictions``), which ``resolve_all``,
``evaluate_predictions`` and the CSV writer read as they are.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import formats
from .boost import StrongModel
from .triplets import TestTripletSet, TripletStore, _int64_ids, _pair_keys

__all__ = [
    "ABSTAIN",
    "Prediction",
    "Predictions",
    "score",
    "score_naive",
    "resolve",
    "resolve_all",
    "predict_all",
    "signed_scores_on_training",
    "write_predictions_csv",
]

ABSTAIN = -1

_JOIN_BLOCK = 1 << 16  # test-set rows per join block, rounded to whole examples


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


class Predictions(Sequence):
    """Many predictions as read-only columns: ``scores`` (examples x labels),
    ``label``, ``matched`` and ``fired_alpha``.  Indexing and iteration give
    ``Prediction`` row views; ``+`` concatenates into a list, as lists do."""

    __slots__ = ("scores", "label", "matched", "fired_alpha")

    def __init__(self, scores, label, matched, fired_alpha):
        for name, col in zip(self.__slots__, (scores, label, matched, fired_alpha)):
            col.flags.writeable = False
            setattr(self, name, col)

    def __len__(self) -> int:
        return self.label.size

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return Predictions(self.scores[idx], self.label[idx], self.matched[idx],
                               self.fired_alpha[idx])
        return Prediction(self.scores[idx], int(self.label[idx]), int(self.matched[idx]),
                          float(self.fired_alpha[idx]))

    def __iter__(self):
        return map(Prediction, self.scores, self.label.tolist(), self.matched.tolist(),
                   self.fired_alpha.tolist())

    def __add__(self, other) -> list:
        return [*self, *other]


def _example(pairs, n_train: int) -> TestTripletSet:
    """One example's (near, far) pairs, validated and sorted as a one-anchor test set."""
    arr, inexact = _int64_ids(pairs)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("pairs must be a sequence of (near, far) id pairs")
    return TestTripletSet._from_ijk(1, n_train, np.zeros(len(arr), dtype=np.int64), *arr.T,
                                    lambda idx: f"pair {idx}", inexact)


def _accumulate(model: StrongModel, n_examples: int, example: np.ndarray,
                votes: np.ndarray, sets: np.ndarray) -> Predictions:
    """Sum the votes of examples 0..``n_examples``-1: vote i, 2*c + s for a fired
    classifier c and its side s (0: the near example is its j), adds alpha[c] *
    ``sets[c, s]`` to the totals of ``example[i]``.  ``bincount`` adds each bin's
    weights one at a time in input order, starting from 0.0, so with an example's
    votes in ascending classifier order each total is 0.0 + v1 + v2 + ..., the
    order of ``train``'s per-round bumps.  Every scorer ends here."""
    n_labels = model.n_labels
    alpha = model.alpha.take(votes >> 1)
    at, flat = votes * n_labels, sets.reshape(-1)  # sets[c, s, y] is flat[at + y]
    scores = np.zeros((n_examples, n_labels))  # bincount of no votes is an int array
    for y in range(n_labels):
        scores[:, y] = np.bincount(example, alpha * flat.take(at + y), n_examples)
    matched = np.bincount(example, minlength=n_examples)
    fired_alpha = np.bincount(example, alpha, n_examples).astype(np.float64)
    return Predictions(scores, np.where(matched > 0, np.argmax(scores, axis=1), ABSTAIN),
                       matched, fired_alpha)


def _join(model: StrongModel, tset: TripletStore, sets: np.ndarray) -> Predictions:
    """Sum the ``sets`` votes of every anchor of ``tset`` by one join of its row pair
    keys against the model's hashed classifier keys, in blocks of whole anchors,
    each block summed as soon as it is matched."""
    n_cls = model.sorted_keys.size
    anchors = tset._anchor  # needles of its dtype, else searchsorted converts it whole
    edges = anchors.searchsorted(np.arange(tset.n_anchors + 1, dtype=anchors.dtype))
    blocks = []
    x = 0
    while x < tset.n_anchors:
        y = max(x + 1, int(np.searchsorted(edges, edges[x] + _JOIN_BLOCK, "right")) - 1)
        block = slice(edges[x], edges[y])
        hit, fired = model._match(tset._keys(block))
        row = edges[x] + hit
        # Sorted by value, the packed votes run in (example, classifier) order; over
        # 2C each is its example's first row in the block, and modulo 2C it is
        # 2*classifier + side.  The key stays below 2 * _JOIN_BLOCK * C, since a
        # block of several examples has no more rows.
        packed = ((edges[anchors[row]] - edges[x]) * n_cls + fired) * 2 + ~tset._near_lo[row]
        first_row, votes = np.divmod(np.sort(packed), 2 * n_cls)
        blocks.append(_accumulate(model, y - x, anchors[edges[x] + first_row] - x, votes,
                                  sets))
        x = y
    return Predictions(*(np.concatenate([getattr(block, name) for block in blocks])
                         for name in Predictions.__slots__))


def score(model: StrongModel, pairs) -> Prediction:
    """Vote totals for one example given its (near, far) training pairs.

    Sorts the pairs once, then looks each up in the model's hashed classifier
    keys, so the cost is O(|pairs| log |pairs|) plus the fired classifiers' votes.
    """
    return _join(model, _example(pairs, model.n_train), model.label_sets)[0]


def score_naive(model: StrongModel, pairs) -> Prediction:
    """Same contract as ``score`` via the O(|pairs| * C) cross-comparison."""
    example = _example(pairs, model.n_train)
    cls_keys = _pair_keys(model.j, model.k, model.n_train)
    side = np.full(cls_keys.size, -1)  # a fired classifier's side, else -1
    for key, near_lo in zip(example._keys().tolist(), example._near_lo.tolist()):
        side[cls_keys == key] = not near_lo
    fired = np.flatnonzero(side >= 0)
    return _accumulate(model, 1, np.zeros(fired.size, dtype=np.intp), 2 * fired + side[fired],
                       model.label_sets)[0]


def _columns(predictions, n_labels: int | None = None) -> Predictions:
    """``predictions`` (``Predictions`` or ``Prediction``s) as columns, each
    prediction holding ``n_labels`` scores: by default as many as ``Predictions``
    hold, even when empty, or as the first ``Prediction``."""
    if isinstance(predictions, Predictions):
        held = predictions.scores.shape[1]
        sizes = np.full(len(predictions), held)
    else:
        sizes = np.array([p.scores.size for p in predictions], dtype=np.int64)
        held = sizes[0] if sizes.size else 0
    n_labels = held if n_labels is None else n_labels
    bad = np.flatnonzero(sizes != n_labels)
    if bad.size:
        raise ValueError(f"prediction {bad[0]} has {sizes[bad[0]]} scores "
                         f"for {n_labels} labels")
    if isinstance(predictions, Predictions):
        return predictions
    scores = np.array([p.scores for p in predictions], dtype=np.float64)
    return Predictions(scores.reshape(sizes.size, n_labels),
                       *(np.array([getattr(p, name) for p in predictions], dtype=dtype)
                         for name, dtype in (("label", np.int64), ("matched", np.int64),
                                             ("fired_alpha", np.float64))))


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
    Each call pays a fixed overhead: resolve many predictions with ``resolve_all``."""
    return int(_resolve(prediction.scores[None, :], policy, rng)[0])


def predict_all(model: StrongModel, tset: TestTripletSet) -> Predictions:
    """Score every test example; resolution is left to the caller."""
    if not isinstance(tset, TestTripletSet):
        raise ValueError("predict_all needs a TestTripletSet of test examples, "
                         f"not a {type(tset).__name__}")
    if tset.n_train != model.n_train:
        raise ValueError("test triplets index a different training universe "
                         f"(n_train={tset.n_train} vs model n={model.n_train})")
    return _join(model, tset, model.label_sets)


def resolve_all(predictions, policy: str = "random", seed: int = 0) -> np.ndarray:
    """``resolve`` for each prediction in turn, on one generator seeded ``seed``."""
    if not predictions:
        return np.zeros(0, dtype=np.int64)
    return _resolve(_columns(predictions).scores, policy, np.random.default_rng(seed))


def signed_scores_on_training(model: StrongModel, ts: TripletStore) -> np.ndarray:
    """Recompute the signed training vote totals from a training store (a fired
    classifier votes +alpha inside its set, -alpha outside).

    Matches ``StrongModel.train_scores``; useful after loading a persisted model.
    """
    if isinstance(ts, TestTripletSet):
        raise ValueError("signed_scores_on_training needs the training store, "
                         "not a TestTripletSet")
    if ts.n != model.n_train:
        raise ValueError("store universe does not match the model")
    return _join(model, ts, np.where(model.label_sets, 1.0, -1.0)).scores


def write_predictions_csv(fh, predictions, resolved: np.ndarray) -> None:
    """Rows ``example_id,label,abstained,score_0,...``; label is the resolved id.
    A ``resolved`` of another length than ``predictions`` raises before any write."""
    cols = _columns(predictions)
    if len(resolved) != len(cols):
        raise ValueError(f"{len(resolved)} resolved labels for {len(cols)} predictions")
    n_labels = cols.scores.shape[1]
    formats.write_table(
        fh, [",".join(["example_id", "label", "abstained",
                       *(f"score_{y}" for y in range(n_labels))])],
        "{},{},{:d}" + ",{!r}" * n_labels + "\n",
        [np.arange(len(cols)), np.asarray(resolved, dtype=np.int64), cols.label == ABSTAIN,
         *cols.scores.T])
