"""Scoring, matching equivalence, tie policies, and prediction output."""

import io

import numpy as np
import pytest

from tripletboost import (
    ABSTAIN,
    BoostConfig,
    LabelDict,
    StrongModel,
    TestTripletSet,
    TripletClassifier,
    TripletStore,
    generate_test_set,
    generate_training_set,
    make_moons,
    predict_all,
    resolve,
    resolve_all,
    score,
    score_naive,
    signed_scores_on_training,
    train,
)
from tripletboost import predict as predict_module
from tripletboost.predict import write_predictions_csv


def _model(classifiers, n_train=10, n_labels=2):
    names = tuple(str(y) for y in range(n_labels))
    return StrongModel(classifiers, LabelDict(names), n_train)


def _random_model_and_pairs(rng, n_train=30, n_labels=4, n_cls=60, n_pairs=40):
    classifiers = []
    for _ in range(n_cls):
        j, k = rng.choice(n_train, size=2, replace=False)
        classifiers.append(TripletClassifier(
            int(j), int(k), int(rng.integers(0, 1 << n_labels)),
            int(rng.integers(0, 1 << n_labels)), float(rng.random())))
    seen = set()
    pairs = []
    while len(pairs) < n_pairs:
        a, b = rng.choice(n_train, size=2, replace=False)
        if frozenset((int(a), int(b))) in seen:
            continue
        seen.add(frozenset((int(a), int(b))))
        pairs.append((int(a), int(b)))
    return _model(classifiers, n_train, n_labels), np.array(pairs)


def _reference_prediction(model, pairs, n_labels):
    """Dict-based oracle, independent of both matching implementations."""
    by_pair = {frozenset((int(a), int(b))): (int(a), int(b)) for a, b in pairs}
    scores = np.zeros(n_labels)
    matched = 0
    fired = 0.0
    for h in model.classifiers:
        hit = by_pair.get(frozenset((h.j, h.k)))
        if hit is None:
            continue
        near = hit[0]
        mask = h.o_j if near == h.j else h.o_k
        matched += 1
        fired += h.alpha
        for y in range(n_labels):
            if (mask >> y) & 1:
                scores[y] += h.alpha
    return scores, matched, fired


class TestScore:
    def test_single_classifier_forward(self):
        model = _model([TripletClassifier(1, 2, 0b10, 0, 0.5)])
        pred = score(model, [(1, 2)])
        assert pred.scores.tolist() == [0.0, 0.5]
        assert pred.label == 1
        assert pred.matched == 1
        assert not pred.abstained

    def test_single_classifier_reverse_empty_set(self):
        """The reverse orientation selects the other side's (empty) set; the
        classifier still fires, so this is not an abstention."""
        model = _model([TripletClassifier(1, 2, 0b10, 0, 0.5)])
        pred = score(model, [(2, 1)])
        assert pred.scores.tolist() == [0.0, 0.0]
        assert pred.matched == 1
        assert not pred.abstained

    def test_no_pairs_abstains(self):
        model = _model([TripletClassifier(1, 2, 0b10, 0, 0.5)])
        pred = score(model, [])
        assert pred.abstained
        assert pred.label == ABSTAIN
        assert pred.matched == 0
        assert pred.scores.tolist() == [0.0, 0.0]
        assert score(_model([], 10, 3), []).scores.tolist() == [0.0] * 3

    def test_empty_model_abstains(self):
        pred = score(_model([]), [(1, 2)])
        assert pred.abstained

    def test_duplicate_classifiers_accumulate(self):
        model = _model([TripletClassifier(1, 2, 0b01, 0, 0.5),
                        TripletClassifier(1, 2, 0b01, 0, 0.25)])
        pred = score(model, [(1, 2)])
        assert pred.scores[0] == 0.75
        assert pred.matched == 2

    def test_pair_validation(self):
        model = _model([TripletClassifier(1, 2, 0b01, 0, 0.5)])
        with pytest.raises(ValueError, match="out of range"):
            score(model, [(1, 99)])
        with pytest.raises(ValueError, match="must differ"):
            score(model, [(1, 1)])
        with pytest.raises(ValueError, match="contradictory triplet at pair 1"):
            score(model, [(1, 2), (2, 1)])
        with pytest.raises(ValueError, match="sequence of \\(near, far\\) id pairs"):
            score(model, [(1, 2, 3)])


class TestMatchingEquivalence:
    def test_exact_equality_on_random_instances(self):
        """Sorted matching and the naive scan agree bit for bit."""
        rng = np.random.default_rng(2)
        for _ in range(300):
            model, pairs = _random_model_and_pairs(
                rng,
                n_train=int(rng.integers(5, 40)),
                n_labels=int(rng.integers(2, 6)),
                n_cls=int(rng.integers(0, 80)),
                n_pairs=int(rng.integers(0, 9)))
            fast = score(model, pairs)
            slow = score_naive(model, pairs)
            assert np.array_equal(fast.scores, slow.scores)
            assert fast.matched == slow.matched
            assert fast.label == slow.label
            assert fast.fired_alpha == slow.fired_alpha

    def test_both_match_dictionary_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            model, pairs = _random_model_and_pairs(rng)
            want_scores, want_matched, want_fired = _reference_prediction(
                model, pairs, model.n_labels)
            for fn in (score, score_naive):
                pred = fn(model, pairs)
                np.testing.assert_allclose(pred.scores, want_scores, atol=1e-12)
                assert pred.matched == want_matched
                assert pred.fired_alpha == pytest.approx(want_fired, abs=1e-12)

    def test_scale_invariance_of_decisions(self):
        """Scaling every vote weight by a positive constant changes nothing
        about argmax sets, abstention, or resolution."""
        rng = np.random.default_rng(33)
        model, pairs = _random_model_and_pairs(rng)
        scaled = _model(
            [TripletClassifier(h.j, h.k, h.o_j, h.o_k, 7.5 * h.alpha)
             for h in model.classifiers], model.n_train, model.n_labels)
        p1, p2 = score(model, pairs), score(scaled, pairs)
        assert p1.abstained == p2.abstained
        best1 = np.flatnonzero(p1.scores == p1.scores.max())
        best2 = np.flatnonzero(p2.scores == p2.scores.max())
        np.testing.assert_array_equal(best1, best2)
        r1 = resolve(p1, "random", np.random.default_rng(5))
        r2 = resolve(p2, "random", np.random.default_rng(5))
        assert r1 == r2


class TestResolve:
    def test_fixed_lowest_on_tie(self):
        pred = score(_model([TripletClassifier(0, 1, 0b11, 0, 0.5)]), [(0, 1)])
        assert pred.scores.tolist() == [0.5, 0.5]
        assert resolve(pred, "fixed_lowest") == 0

    def test_unique_argmax_under_both_policies(self):
        model = _model([TripletClassifier(0, 1, 0b10, 0, 0.7),
                        TripletClassifier(0, 2, 0b100, 0, 0.2)], 10, 3)
        pred = score(model, [(0, 1), (0, 2)])
        assert resolve(pred, "fixed_lowest") == 1
        assert resolve(pred, "random", np.random.default_rng(0)) == 1

    def test_abstention_resolves_uniformly(self):
        pred = score(_model([], 10, 4), [(1, 2)])
        rng = np.random.default_rng(1)
        draws = 100_000
        counts = np.bincount([resolve(pred, "random", rng) for _ in range(draws)],
                             minlength=4)
        sigma = np.sqrt(draws * 0.25 * 0.75)
        assert np.all(np.abs(counts - draws / 4) <= 3.5 * sigma)

    @pytest.mark.parametrize("policy", ["random", "fixed_lowest"])
    def test_resolve_all_equals_sequential_resolve(self, policy):
        """One kernel call draws what one ``resolve`` per example draws, and
        leaves the generator where they leave it."""
        rng = np.random.default_rng(8)
        model, _ = _random_model_and_pairs(rng, n_cls=40)
        preds = [score(model, _random_model_and_pairs(rng, n_pairs=int(n))[1])
                 for n in rng.integers(0, 6, size=300)]
        preds += [score(_model([TripletClassifier(0, 1, 0b1111, 0, 1.0)], 10, 4),
                        [(0, 1)])] * 20  # every label ties
        assert any(p.abstained for p in preds) and not all(p.abstained for p in preds)
        sequential = np.random.default_rng(3)
        want = [resolve(p, policy, sequential) for p in preds]
        assert resolve_all(preds, policy, seed=3).tolist() == want
        batched = np.random.default_rng(3)
        stacked = np.array([p.scores for p in preds])
        assert predict_module._resolve(stacked, policy, batched).tolist() == want
        assert batched.random() == sequential.random()

    def test_resolve_all_of_nothing(self):
        assert resolve_all([], "random").tolist() == []

    def test_random_policy_needs_rng(self):
        pred = score(_model([]), [])
        with pytest.raises(ValueError):
            resolve(pred, "random")
        with pytest.raises(ValueError):
            resolve(pred, "sideways")


class TestSignedScores:
    def test_signed_form_matches_definition(self):
        """Fired classifiers vote +alpha inside the set, -alpha outside."""
        model = _model([TripletClassifier(0, 1, 0b01, 0b10, 0.5),
                        TripletClassifier(0, 2, 0b11, 0, 0.2)], 10, 2)
        pred = score(model, [(0, 1), (2, 0)])
        # classifier 1 fires forward (set {0}); classifier 2 fires reverse (empty)
        signed = pred.signed_scores()
        np.testing.assert_allclose(signed, [0.5 - 0.2, -0.5 - 0.2], atol=1e-12)

    def test_training_scores_recomputable_from_store(self):
        ds = make_moons(40, 0.1, 1)
        store = generate_training_set(ds, "euclidean", 0.3, 0.0, 2)
        model = train(ds, store, BoostConfig(rounds=150, seed=6))
        recomputed = signed_scores_on_training(model, store)
        np.testing.assert_allclose(recomputed, model.train_scores, atol=1e-9)


class TestPredictAll:
    def test_pipeline_predictions_and_csv(self, tmp_path):
        ds = make_moons(40, 0.1, 4)
        train_ds, test_ds = ds.take(np.arange(30)), ds.take(np.arange(30, 40))
        store = generate_training_set(train_ds, "euclidean", 0.5, 0.0, 1)
        model = train(train_ds, store, BoostConfig(rounds=300, seed=2))
        tset = generate_test_set(test_ds, train_ds, "euclidean", 0.5, 0.0, 3)
        preds = predict_all(model, tset)
        assert len(preds) == test_ds.n
        resolved = resolve_all(preds, "fixed_lowest")
        buf = io.StringIO()
        write_predictions_csv(buf, preds, resolved)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "example_id,label,abstained,score_0,score_1"
        assert len(lines) == test_ds.n + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[3]) == preds[0].scores[0]

    def test_top_bit_of_a_64_label_space(self):
        """Label id 63 (the top bitmask bit) survives scoring and margins."""
        top = 1 << 63
        model = _model([TripletClassifier(0, 1, top, 0, 0.5)], 10, 64)
        pred = score(model, [(0, 1)])
        assert pred.scores[63] == 0.5
        assert pred.label == 63
        assert score_naive(model, [(0, 1)]).scores[63] == 0.5
        store = TripletStore.from_triplets(10, [(2, 0, 1), (3, 1, 0)])
        signed = signed_scores_on_training(model, store)
        assert signed[2, 63] == 0.5
        assert signed[2, :63].tolist() == [-0.5] * 63
        assert signed[3].tolist() == [-0.5] * 64

    def test_every_entry_equals_score_and_score_naive(self):
        """predict_all matches both per-example scorers bit for bit, abstentions
        included, on a seeded moons corpus."""
        ds = make_moons(60, 0.1, 7)
        train_ds, test_ds = ds.take(np.arange(45)), ds.take(np.arange(45, 60))
        store = generate_training_set(train_ds, "euclidean", 0.3, 0.1, 1)
        model = train(train_ds, store, BoostConfig(rounds=40, seed=3))
        tset = generate_test_set(test_ds, train_ds, "euclidean", 0.02, 0.1, 5)
        preds = predict_all(model, tset)
        assert len(preds) == tset.n_test
        assert 0 < sum(p.abstained for p in preds) < len(preds)
        for x, got in enumerate(preds):
            pairs = tset.pairs_for(x)
            for want in (score(model, pairs), score_naive(model, pairs)):
                assert got.scores.tobytes() == want.scores.tobytes()
                assert (got.label, got.matched) == (want.label, want.matched)
                assert got.fired_alpha.hex() == want.fired_alpha.hex()

    def test_universe_mismatch_rejected(self):
        ds = make_moons(20, 0.1, 0)
        train_ds, test_ds = ds.take(np.arange(15)), ds.take(np.arange(15, 20))
        store = generate_training_set(train_ds, "euclidean", 0.5, 0.0, 1)
        model = train(train_ds, store, BoostConfig(rounds=10, seed=0))
        tset = generate_test_set(test_ds, train_ds, "euclidean", 0.5, 0.0, 1)
        wrong = StrongModel(model.classifiers, model.label_dict, 99)
        with pytest.raises(ValueError, match="n_train=15 vs model n=99"):
            predict_all(wrong, tset)

    def test_training_store_rejected(self):
        store = TripletStore.from_triplets(10, [(2, 0, 1), (3, 1, 0)])
        with pytest.raises(ValueError, match="needs a TestTripletSet"):
            predict_all(_model([TripletClassifier(0, 1, 0b01, 0, 0.5)]), store)

    def test_join_blocks_match_score_naive(self, monkeypatch):
        """A test set spread over many join blocks, with repeated classifier
        pairs and examples without rows, scores like the naive scan."""
        monkeypatch.setattr(predict_module, "_JOIN_BLOCK", 5)
        rng = np.random.default_rng(17)
        n_train, n_test = 12, 40
        model, _ = _random_model_and_pairs(rng, n_train=n_train, n_labels=3,
                                           n_cls=120, n_pairs=0)
        assert len({(h.j, h.k) for h in model.classifiers}) < len(model.classifiers)
        all_pairs = [(a, b) for a in range(n_train) for b in range(a + 1, n_train)]
        anchor, lo, hi, near_lo = [], [], [], []
        for x in range(n_test):
            size = 0 if x % 3 == 1 or x >= n_test - 2 else int(rng.integers(1, 13))
            for idx in rng.choice(len(all_pairs), size, replace=False):
                anchor.append(x)
                lo.append(all_pairs[idx][0])
                hi.append(all_pairs[idx][1])
                near_lo.append(bool(rng.random() < 0.5))
        tset = TestTripletSet(n_test, n_train, anchor, lo, hi, near_lo)
        preds = predict_all(model, tset)
        assert len(preds) == n_test
        assert preds[1].abstained and preds[-1].abstained
        for x, got in enumerate(preds):
            pairs = tset.pairs_for(x)
            want = score_naive(model, pairs)
            assert got.scores.tobytes() == want.scores.tobytes()
            assert (got.label, got.matched) == (want.label, want.matched)
            assert got.fired_alpha.hex() == want.fired_alpha.hex()
            assert got.matched == _reference_prediction(model, pairs, 3)[1]

    def test_empty_model_predict_all_abstains(self):
        tset = TestTripletSet(3, 10, [0, 0, 2], [1, 2, 1], [2, 3, 4], [True, False, True])
        model = _model([], 10, 3)
        preds = predict_all(model, tset) + [score(model, tset.pairs_for(x)) for x in range(3)]
        for got in preds:
            assert got.abstained and got.matched == 0
            assert got.scores.tolist() == [0.0] * 3
