"""Evaluation reports: accuracy, abstention, and ranking metrics."""

from __future__ import annotations

import itertools
import json
from collections.abc import Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import LabelDict
from .predict import ABSTAIN, Prediction, _columns, _resolve

__all__ = ["EvalReport", "evaluate_predictions", "parse_labels_file"]


@dataclass(frozen=True)
class EvalReport:
    """Flat summary of one evaluation run; all rates lie in [0, 1]."""

    accuracy: float
    abstention_rate: float
    per_class_accuracy: dict[str, float]
    precision_at_1: float
    recall_at_k: float
    k: int
    n_examples: int

    def lines(self) -> list[str]:
        out = [
            f"n_examples={self.n_examples}",
            f"accuracy={self.accuracy!r}",
            f"abstention_rate={self.abstention_rate!r}",
            f"precision_at_1={self.precision_at_1!r}",
            f"recall_at_{self.k}={self.recall_at_k!r}",
        ]
        for name, value in self.per_class_accuracy.items():
            out.append(f"per_class_accuracy_{name}={value!r}")
        return out

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def evaluate_predictions(predictions: Sequence[Prediction], truth: list[frozenset[int]],
                         label_dict: LabelDict, policy: str = "random",
                         seed: int = 0, k: int = 5) -> EvalReport:
    """Score predictions (``predict_all``'s columns or ``Prediction``s) against
    (possibly multi-label) ground truth.

    Accuracy counts a resolved label as correct when it belongs to the truth
    set; labels are resolved as ``resolve_all`` does, from one generator
    seeded ``seed``, so an abstention resolves like a vote in which every
    label ties.  Ranking metrics ignore the resolution policy: precision@1
    asks whether the top-voted label is true, recall@k how much of the truth
    the k top-voted labels cover.  Rank ties break toward lower label ids.
    """
    if len(predictions) != len(truth):
        raise ValueError("predictions and truth differ in length")
    if not predictions:
        raise ValueError("nothing to evaluate")
    n_labels, count = label_dict.size, len(predictions)
    k = max(1, min(k, n_labels))
    columns = _columns(predictions, n_labels)
    scores = columns.scores
    true = _truth_matrix(truth, n_labels)
    rows = np.arange(count)
    hit = true[rows, _resolve(scores, policy, np.random.default_rng(seed))]
    ranking = np.argsort(-scores, axis=1, kind="stable")
    covered = np.take_along_axis(true, ranking[:, :k], axis=1).sum(axis=1)
    # cumsum adds in example order, as a running total does; np.sum need not
    recall_sum = float(np.cumsum(covered / true.sum(axis=1))[-1])
    class_total, class_correct = true.sum(axis=0), (true & hit[:, None]).sum(axis=0)
    per_class = {
        label_dict.names[y]: float(class_correct[y] / class_total[y])
        for y in range(n_labels) if class_total[y]
    }
    return EvalReport(
        accuracy=int(hit.sum()) / count,
        abstention_rate=int((columns.label == ABSTAIN).sum()) / count,
        per_class_accuracy=per_class,
        precision_at_1=int(true[rows, ranking[:, 0]].sum()) / count,
        recall_at_k=recall_sum / count,
        k=k,
        n_examples=count,
    )


def _truth_matrix(truth: list[frozenset[int]], n_labels: int) -> np.ndarray:
    """Bool (examples x labels) membership of the truth sets."""
    sizes = np.array([len(t) for t in truth], dtype=np.int64)
    if not sizes.all():
        raise ValueError("every example needs at least one true label "
                         f"(example {np.argmin(sizes)} has none)")
    example = np.repeat(np.arange(sizes.size), sizes)
    ids = np.fromiter(itertools.chain.from_iterable(truth), np.int64, example.size)
    bad = np.flatnonzero((ids < 0) | (ids >= n_labels))
    if bad.size:
        raise ValueError(f"true label {ids[bad[0]]} of example {example[bad[0]]} "
                         f"is outside the {n_labels} labels")
    out = np.zeros((sizes.size, n_labels), dtype=bool)
    out[example, ids] = True
    return out


def parse_labels_file(path, label_dict: LabelDict,
                      has_header: bool = False) -> list[frozenset[int]]:
    """Read truth labels: first CSV cell per row, multi-labels joined by '|'."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = 1 if has_header else 0
    truth: list[frozenset[int]] = []
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        cell = line.split(",")[0]
        names = [part for part in cell.split("|") if part]
        if not names:
            raise ValueError(f"missing label at row {lineno}")
        try:
            truth.append(frozenset(label_dict.id_of(name) for name in names))
        except KeyError as exc:
            raise ValueError(f"unknown label at row {lineno}: {exc}") from None
    if not truth:
        raise ValueError("empty labels file")
    return truth
