"""Evaluation reports: accuracy, abstention, per-class, and ranking metrics."""

import numpy as np
import pytest

from tripletboost import (
    ABSTAIN,
    EvalReport,
    LabelDict,
    Prediction,
    StrongModel,
    TripletClassifier,
    evaluate_predictions,
)
from tripletboost.metrics import parse_labels_file
from tripletboost.predict import score


def _preds(model, pair_lists):
    return [score(model, pairs) for pairs in pair_lists]


def _model(classifiers, n_labels):
    names = tuple(str(y) for y in range(n_labels))
    return StrongModel(classifiers, LabelDict(names), 10)


def _oracle_report(predictions, truth, label_dict, policy, seed, k):
    """The per-example evaluation loop, with one scalar draw per resolution."""
    n_labels = label_dict.size
    k = max(1, min(k, n_labels))
    rng = np.random.default_rng(seed)
    correct = abstained = top1_hits = 0
    recall_sum = 0.0
    class_total = np.zeros(n_labels, dtype=np.int64)
    class_correct = np.zeros(n_labels, dtype=np.int64)
    for pred, truth_set in zip(predictions, truth):
        if policy == "fixed_lowest":
            resolved = 0 if pred.abstained else int(np.argmax(pred.scores))
        elif pred.abstained:
            resolved = int(rng.integers(n_labels))
        else:
            best = np.flatnonzero(pred.scores == pred.scores.max())
            resolved = int(best[rng.integers(best.size)])
        hit = resolved in truth_set
        correct += hit
        abstained += pred.abstained
        ranking = np.lexsort((np.arange(n_labels), -pred.scores))
        top1_hits += int(ranking[0]) in truth_set
        recall_sum += len(truth_set.intersection(ranking[:k].tolist())) / len(truth_set)
        for y in truth_set:
            class_total[y] += 1
            class_correct[y] += hit
    count = len(predictions)
    per_class = {label_dict.names[y]: float(class_correct[y] / class_total[y])
                 for y in range(n_labels) if class_total[y]}
    return EvalReport(correct / count, abstained / count, per_class,
                      top1_hits / count, recall_sum / count, k, count)


def _tie_heavy_case(rng):
    """Predictions with few distinct scores (many ties) and some abstentions."""
    n_labels = int(rng.integers(2, 7))
    count = int(rng.integers(1, 50))
    preds = []
    for _ in range(count):
        if rng.random() < 0.3:
            preds.append(Prediction(np.zeros(n_labels), ABSTAIN, 0, 0.0))
        else:
            scores = rng.integers(0, 3, size=n_labels) * 0.25
            preds.append(Prediction(scores, int(np.argmax(scores)), 1, 0.5))
    truth = [frozenset(rng.choice(n_labels, size=int(rng.integers(1, n_labels + 1)),
                                  replace=False).tolist()) for _ in range(count)]
    return preds, truth, LabelDict(tuple(f"c{y}" for y in range(n_labels)))


class TestEvaluateOracle:
    @pytest.mark.parametrize("policy", ["random", "fixed_lowest"])
    def test_reports_equal_per_example_loop(self, policy):
        rng = np.random.default_rng(11)
        for case in range(150):
            preds, truth, label_dict = _tie_heavy_case(rng)
            for k in range(1, label_dict.size + 2):
                got = evaluate_predictions(preds, truth, label_dict, policy=policy,
                                           seed=case, k=k)
                assert got == _oracle_report(preds, truth, label_dict, policy, case, k)

    def test_recall_sum_keeps_example_order(self):
        """Fractions whose sum depends on the order of addition."""
        preds = [Prediction(np.array([1.0, 0.0, 0.0]), 0, 1, 1.0)] * 40
        truth = [frozenset([0, 1, 2]), frozenset([0])] * 20
        label_dict = LabelDict(("a", "b", "c"))
        got = evaluate_predictions(preds, truth, label_dict, policy="fixed_lowest", k=1)
        want = _oracle_report(preds, truth, label_dict, "fixed_lowest", 0, 1)
        assert got.recall_at_k.hex() == want.recall_at_k.hex()


class TestEvaluateInputs:
    def _preds(self, n_scores=2):
        return [Prediction(np.zeros(n_scores), ABSTAIN, 0, 0.0)] * 3

    @pytest.mark.parametrize("truth, message", [
        ([frozenset([0]), frozenset([-1]), frozenset([1])], "true label -1 of example 1"),
        ([frozenset([0]), frozenset([1]), frozenset([0, 5])], "true label 5 of example 2"),
        ([frozenset([0]), frozenset(), frozenset([1])], r"example 1 has none"),
    ])
    def test_bad_truth_names_the_example(self, truth, message):
        with pytest.raises(ValueError, match=message):
            evaluate_predictions(self._preds(), truth, LabelDict(("a", "b")))

    def test_first_bad_example_wins(self):
        """An out-of-range label is named before an empty truth set further on: the
        first bad example wins, whichever check rejects it."""
        preds = [Prediction(np.zeros(2), ABSTAIN, 0, 0.0)] * 5
        truth = [{0}, {0}, {7}, {0}, set()]
        with pytest.raises(ValueError, match="^true label 7 of example 2 is outside the "
                                             "2 labels$"):
            evaluate_predictions(preds, truth, LabelDict(("a", "b")))
        with pytest.raises(ValueError, match=r"^every example needs at least one true "
                                             r"label \(example 1 has none\)$"):
            evaluate_predictions(preds, [{0}, set(), {7}, {0}, {0}], LabelDict(("a", "b")))

    def test_no_predictions_rejected(self):
        with pytest.raises(ValueError, match="^nothing to evaluate$"):
            evaluate_predictions([], [], LabelDict(("a", "b")))

    def test_score_count_mismatch_names_the_example(self):
        preds = self._preds()
        preds[1] = Prediction(np.zeros(3), ABSTAIN, 0, 0.0)
        with pytest.raises(ValueError, match="prediction 1 has 3 scores for 2 labels"):
            evaluate_predictions(preds, [frozenset([0])] * 3, LabelDict(("a", "b")),
                                 policy="fixed_lowest")


class TestEvaluate:
    def test_perfect_and_abstaining(self):
        model = _model([TripletClassifier(0, 1, 0b01, 0b10, 1.0)], 2)
        preds = _preds(model, [[(0, 1)], [(1, 0)], []])
        truth = [frozenset([0]), frozenset([1]), frozenset([0])]
        report = evaluate_predictions(preds, truth, model.label_dict,
                                      policy="fixed_lowest")
        assert report.abstention_rate == pytest.approx(1 / 3)
        assert report.accuracy == 1.0  # fixed_lowest resolves the abstainer to 0
        assert report.n_examples == 3

    def test_chance_level_for_all_abstaining(self):
        """Pure abstention under the random policy scores about 1/L."""
        model = _model([], 2)
        preds = _preds(model, [[] for _ in range(400)])
        truth = [frozenset([i % 2]) for i in range(400)]
        report = evaluate_predictions(preds, truth, model.label_dict,
                                      policy="random", seed=3)
        assert report.abstention_rate == 1.0
        assert abs(report.accuracy - 0.5) <= 0.09  # ~3.6 sigma

    def test_per_class_accuracy(self):
        model = _model([TripletClassifier(0, 1, 0b01, 0b01, 1.0)], 2)
        preds = _preds(model, [[(0, 1)], [(1, 0)]])  # both predict label 0
        truth = [frozenset([0]), frozenset([1])]
        report = evaluate_predictions(preds, truth, model.label_dict,
                                      policy="fixed_lowest")
        assert report.per_class_accuracy == {"0": 1.0, "1": 0.0}

    def test_ranking_metrics_multilabel(self):
        model = _model([TripletClassifier(0, 1, 0b011, 0, 2.0),
                        TripletClassifier(0, 2, 0b100, 0, 1.0)], 3)
        preds = _preds(model, [[(0, 1), (0, 2)]])
        truth = [frozenset([1, 2])]
        report = evaluate_predictions(preds, truth, model.label_dict,
                                      policy="fixed_lowest", k=2)
        # scores are [2, 2, 1]: top-1 is label 0 (tie toward lower id) -> miss
        assert report.precision_at_1 == 0.0
        # top-2 = {0, 1} covers one of the two true labels
        assert report.recall_at_k == pytest.approx(0.5)

    def test_recall_at_full_label_set_is_one(self):
        rng = np.random.default_rng(0)
        model = _model([TripletClassifier(0, 1, 0b01, 0b10, 0.5)], 3)
        pair_lists = [[(0, 1)], [(1, 0)], []]
        truth = [frozenset(rng.choice(3, size=int(rng.integers(1, 4)),
                                      replace=False).tolist())
                 for _ in pair_lists]
        report = evaluate_predictions(_preds(model, pair_lists), truth,
                                      model.label_dict, policy="fixed_lowest",
                                      k=3)
        assert report.recall_at_k == 1.0

    def test_report_lines_and_json(self):
        model = _model([TripletClassifier(0, 1, 0b01, 0b10, 1.0)], 2)
        preds = _preds(model, [[(0, 1)]])
        report = evaluate_predictions(preds, [frozenset([0])], model.label_dict,
                                      policy="fixed_lowest")
        lines = report.lines()
        assert any(line.startswith("accuracy=") for line in lines)
        assert '"accuracy": 1.0' in report.to_json()

    def test_json_bytes_pinned(self):
        report = EvalReport(0.5, 0.25, {"b": 1.0, 'a"\u00e9': 1 / 3}, 0.75, 0.1 + 0.2, 2, 4)
        assert report.to_json() == (
            '{"abstention_rate": 0.25, "accuracy": 0.5, "k": 2, "n_examples": 4, '
            '"per_class_accuracy": {"a\\"\\u00e9": 0.3333333333333333, "b": 1.0}, '
            '"precision_at_1": 0.75, "recall_at_k": 0.30000000000000004}')

    def test_length_mismatch_rejected(self):
        model = _model([], 2)
        with pytest.raises(ValueError):
            evaluate_predictions(_preds(model, [[]]), [], model.label_dict)


class TestLabelsFile:
    def test_single_and_multi_labels(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("a,0.5,1.0\nb\na|b\n", encoding="utf-8")
        truth = parse_labels_file(path, LabelDict(("a", "b")))
        assert truth == [frozenset([0]), frozenset([1]), frozenset([0, 1])]

    def test_unknown_label_reports_row(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("a\nzzz\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown label at row 2"):
            parse_labels_file(path, LabelDict(("a", "b")))

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("label\na\n", encoding="utf-8")
        truth = parse_labels_file(path, LabelDict(("a", "b")), has_header=True)
        assert truth == [frozenset([0])]

    def test_blank_line_skipped(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("a\n\nb\n", encoding="utf-8")
        assert parse_labels_file(path, LabelDict(("a", "b"))) == [frozenset([0]),
                                                                 frozenset([1])]

    @pytest.mark.parametrize("text, message", [
        ("a\n|,0.5\n", "^missing label at row 2$"),
        ("", "^empty labels file$"),
        ("\n\n", "^empty labels file$"),
    ])
    def test_row_without_label_or_no_rows_rejected(self, tmp_path, text, message):
        path = tmp_path / "labels.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            parse_labels_file(path, LabelDict(("a", "b")))
