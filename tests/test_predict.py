"""Scoring, matching equivalence, tie policies, and prediction output."""

import io

import numpy as np
import pytest

from tripletboost import (
    ABSTAIN,
    BoostConfig,
    Dataset,
    LabelDict,
    StrongModel,
    TestTripletSet,
    TripletClassifier,
    TripletStore,
    evaluate_predictions,
    generate_test_set,
    generate_training_set,
    load_model,
    make_moons,
    predict_all,
    resolve,
    resolve_all,
    save_model,
    score,
    score_naive,
    signed_scores_on_training,
    train,
)
from tripletboost import boost as boost_module
from tripletboost import predict as predict_module
from tripletboost.predict import write_predictions_csv
from tripletboost.weak import fired_buckets


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

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint32, np.uint64])
    def test_integer_pair_dtypes(self, dtype):
        """Pairs of any integer dtype whose values int64 holds, such as the int32
        ``pairs_for`` returns, score as int64 pairs do."""
        model, pairs = _random_model_and_pairs(np.random.default_rng(7))
        want = score(model, pairs.astype(np.int64))
        for scorer in (score, score_naive):
            got = scorer(model, pairs.astype(dtype))
            np.testing.assert_array_equal(got.scores, want.scores)
            assert (got.matched, got.fired_alpha) == (want.matched, want.fired_alpha)

    def test_uint64_id_beyond_int64_rejected(self):
        model = _model([TripletClassifier(1, 2, 0b01, 0, 0.5)])
        with pytest.raises(ValueError, match="id not an int64 integer at pair 1"):
            score(model, np.array([(1, 2), (2**63, 2)], dtype=np.uint64))


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


def _per_classifier_signed(model, ts):
    """Reference: the signed totals summed one classifier at a time, in training
    order, over the store's rows that reveal each classifier's pair."""
    scores = np.zeros((ts.n, model.n_labels))
    for j, k, (bits_j, bits_k), alpha in zip(model.j.tolist(), model.k.tolist(),
                                              model.label_sets, model.alpha.tolist()):
        if alpha == 0.0:
            continue
        fwd, rev = fired_buckets(ts, j, k)
        scores[fwd] += np.where(bits_j, alpha, -alpha)
        scores[rev] += np.where(bits_k, alpha, -alpha)
    return scores


def _signed_corpus():
    """40 seeded trained models on their stores: 2-5 labels, zero-weight rounds kept
    or dropped, grid features (many tied cityblock or euclidean distances), noise."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n_labels = 2 + seed % 4
        n = int(rng.integers(3 * n_labels, 40))
        ds = Dataset(np.arange(n) % n_labels, LabelDict(tuple("abcde"[:n_labels])),
                     rng.integers(0, 4, size=(n, 2)).astype(float))
        store = generate_training_set(ds, ("cityblock", "euclidean")[seed // 4 % 2],
                                      float(rng.uniform(0.02, 0.5)),
                                      (0.0, 0.1)[seed // 8 % 2], seed)
        cfg = BoostConfig(rounds=int(rng.integers(20, 120)), seed=seed,
                          keep_zero_alpha=bool(seed // 2 % 2))
        yield store, train(ds, store, cfg)


class TestSignedScoresJoin:
    """``signed_scores_on_training`` is the scoring join with a +-1 vote table."""

    def test_equals_per_classifier_loop_and_train_scores(self):
        zero_alpha_models = 0
        for store, model in _signed_corpus():
            got = signed_scores_on_training(model, store)
            want = _per_classifier_signed(model, store)
            assert np.array_equal(got, want)
            assert np.array_equal(got, model.train_scores)
            if (model.alpha == 0.0).any():
                zero_alpha_models += 1  # such a vote may sum to -0.0 where the loop has 0.0
            else:
                assert got.tobytes() == want.tobytes() == model.train_scores.tobytes()
        assert 0 < zero_alpha_models < 40

    def test_saved_and_reloaded_model_and_store(self, tmp_path):
        ds = make_moons(60, 0.1, 2)
        store = generate_training_set(ds, "euclidean", 0.2, 0.1, 4)
        model = train(ds, store, BoostConfig(rounds=300, seed=5))
        save_model(model, tmp_path / "model.txt")
        store.save(tmp_path / "store.txt")
        got = signed_scores_on_training(load_model(tmp_path / "model.txt"),
                                        TripletStore.load(tmp_path / "store.txt"))
        assert got.tobytes() == model.train_scores.tobytes()
        assert got.tobytes() == _per_classifier_signed(model, store).tobytes()

    def test_test_set_rejected(self):
        model = _model([TripletClassifier(0, 1, 0b01, 0b10, 0.5)], 10, 2)
        tset = TestTripletSet(1, 10, [0], [0], [1], [True])
        with pytest.raises(ValueError, match="TestTripletSet"):
            signed_scores_on_training(model, tset)


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


def _random_test_set(rng, n_train, n_test, max_rows):
    """Test examples over random distinct pairs; some examples have no rows, and
    some repeat the pairs of the example before, so vote counts recur."""
    all_pairs = [(a, b) for a in range(n_train) for b in range(a + 1, n_train)]
    anchor, lo, hi, near_lo = [], [], [], []
    chosen = []
    for x in range(n_test):
        if rng.random() < 0.2:
            chosen = []
        elif rng.random() < 0.6:
            size = int(rng.integers(1, min(max_rows, len(all_pairs)) + 1))
            chosen = rng.choice(len(all_pairs), size, replace=False)
        for idx in chosen:
            anchor.append(x)
            lo.append(all_pairs[idx][0])
            hi.append(all_pairs[idx][1])
            near_lo.append(bool(rng.random() < 0.5))
    return TestTripletSet(n_test, n_train, anchor, lo, hi, near_lo)


def _per_example_sums(model, pairs):
    """Scores and fired alpha of one example, one label at a time: each total
    starts at 0.0 and adds the fired classifiers in ascending order, alpha times
    its near side's set for a score, alpha for the fired alpha."""
    near_far = {(int(a), int(b)) for a, b in pairs}
    fired = []
    for c, (j, k) in enumerate(zip(model.j.tolist(), model.k.tolist())):
        if (j, k) in near_far or (k, j) in near_far:
            fired.append((c, int((k, j) in near_far)))
    scores = np.zeros(model.n_labels)
    for y in range(model.n_labels):
        total = 0.0
        for c, side in fired:
            total += float(model.alpha[c]) * float(model.label_sets[c, side, y])
        scores[y] = total
    fired_alpha = 0.0
    for c, _ in fired:
        fired_alpha += float(model.alpha[c])
    return scores, len(fired), fired_alpha


def _assert_columns_match_score_naive(model, tset):
    preds = predict_all(model, tset)
    assert len(preds) == tset.n_test
    for x in range(tset.n_test):
        want = score_naive(model, tset.pairs_for(x))
        assert preds.scores[x].tobytes() == want.scores.tobytes()
        assert (int(preds.label[x]), int(preds.matched[x])) == (want.label, want.matched)
        assert preds.fired_alpha[x].hex() == want.fired_alpha.hex()
        scores, matched, fired_alpha = _per_example_sums(model, tset.pairs_for(x))
        assert (want.scores.tobytes(), want.matched) == (scores.tobytes(), matched)
        assert want.fired_alpha.hex() == fired_alpha.hex()
    return preds


class TestColumnarJoin:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_labels", [1, 2, 5])
    def test_columns_match_score_naive_on_random_models(self, seed, n_labels):
        """Repeated classifier pairs, weights of both signs across many orders of
        magnitude (so votes of 0 * -alpha are -0.0), and examples with no rows,
        with enough votes per example that a pairwise sum, as numpy's ``sum`` adds,
        would give other bits than the in-order sum each scorer adds."""
        rng = np.random.default_rng(seed)
        n_train = int(rng.integers(3, 30))
        pool = rng.choice(n_train, size=(int(rng.integers(1, 40)), 2))
        pool = pool[pool[:, 0] != pool[:, 1]]
        classifiers = [
            TripletClassifier(int(j), int(k), int(rng.integers(0, 1 << n_labels)),
                              int(rng.integers(0, 1 << n_labels)),
                              float(rng.choice([-1.0, 1.0]) * rng.random()
                                    * 10.0 ** rng.integers(-9, 9)))
            for j, k in pool[rng.integers(0, len(pool), size=int(rng.integers(0, 300)))]
        ] if len(pool) else []
        model = _model(classifiers, n_train, n_labels)
        tset = _random_test_set(rng, n_train, int(rng.integers(1, 40)), 200)
        preds = _assert_columns_match_score_naive(model, tset)
        for x in range(0, tset.n_test, 7):
            got = score(model, tset.pairs_for(x))
            assert got.scores.tobytes() == preds.scores[x].tobytes()
            assert got.fired_alpha.hex() == preds.fired_alpha[x].hex()

    def test_empty_model_and_examples_without_rows(self):
        rng = np.random.default_rng(4)
        tset = _random_test_set(rng, 8, 30, 10)
        preds = _assert_columns_match_score_naive(_model([], 8, 3), tset)
        assert preds.matched.tolist() == [0] * 30
        assert preds.label.tolist() == [ABSTAIN] * 30

    def test_colliding_keys_in_a_huge_universe(self):
        """Pairs of a 1.5M-example universe (2.25e12 keys) whose hashes share one
        home slot, so lookups probe a long run of taken slots; the slot table
        stays sized by the classifier count."""
        rng = np.random.default_rng(11)
        n_train, count = 1_500_000, 40
        j = rng.integers(0, n_train - 1, size=200_000)
        k = j + 1 + rng.integers(0, n_train - 1 - j)
        keys = np.unique(j * n_train + k)
        home = boost_module._home(keys, boost_module._slot_bits(count))
        crowded = keys[home == np.bincount(home).argmax()]
        assert crowded.size >= count + 20
        cls_keys = rng.permutation(crowded[:count])
        classifiers = [TripletClassifier(int(key // n_train), int(key % n_train),
                                         int(rng.integers(0, 4)), int(rng.integers(0, 4)),
                                         float(rng.random())) for key in cls_keys]
        model = _model(classifiers + classifiers[:5], n_train, 2)
        assert model.key_slots.nbytes < 4096
        # Each example holds classifier pairs, pairs that share their home but
        # are no classifier's, and pairs elsewhere.
        misses = np.concatenate([crowded[count:count + 20], keys[:20]])
        anchor, lo, hi, near_lo, fired = [], [], [], [], []
        for x in range(6):
            held = rng.choice(cls_keys, 8 * x, replace=False)
            chosen = np.concatenate([held, rng.choice(misses, 5, replace=False)])
            anchor += [x] * chosen.size
            lo += (chosen // n_train).tolist()
            hi += (chosen % n_train).tolist()
            near_lo += (rng.random(chosen.size) < 0.5).tolist()
            fired.append(held.size + int(np.isin(held, cls_keys[:5]).sum()))
        tset = TestTripletSet(6, n_train, anchor, lo, hi, near_lo)
        preds = _assert_columns_match_score_naive(model, tset)
        assert preds.matched.tolist() == fired

    @pytest.mark.parametrize("n_train, n_cls", [(6, 0), (12, 30), (40, 600)])
    def test_slot_table_matches_every_classifier_of_a_key(self, n_train, n_cls):
        rng = np.random.default_rng(n_cls)
        model, _ = _random_model_and_pairs(rng, n_train=n_train, n_cls=n_cls, n_pairs=0)
        keys = model.j * n_train + model.k
        query = rng.permutation(np.concatenate([keys, keys[:5]]))
        rows, fired = model._match(query)
        want = [(row, c) for row, key in enumerate(query.tolist())
                for c in np.flatnonzero(keys == key).tolist()]
        assert sorted(zip(rows.tolist(), fired.tolist())) == want
        runs = np.searchsorted(model.sorted_keys, model.sorted_keys, "right") \
            - np.searchsorted(model.sorted_keys, model.sorted_keys)
        assert model.key_runs.tolist() == runs.tolist()
        assert model.key_slots.dtype == model.key_runs.dtype == np.int32
        absent = np.setdiff1d(np.arange(n_train * n_train), keys)
        assert model._match(absent)[0].size == 0
        for col in (model.key_slots, model.key_runs):
            with pytest.raises(ValueError, match="read-only"):
                col[...] = 0


class TestPredictionColumns:
    def test_reads_like_the_list_of_predictions(self):
        """Items, negative items, slices, iteration and ``+`` give what per-example
        scoring gives; resolution, evaluation and the CSV read both forms alike."""
        rng = np.random.default_rng(6)
        model, _ = _random_model_and_pairs(rng, n_train=12, n_labels=3, n_cls=80, n_pairs=0)
        tset = _random_test_set(rng, 12, 25, 20)
        preds = predict_all(model, tset)
        rows = [score(model, tset.pairs_for(x)) for x in range(25)]

        def key(p):
            return p.scores.tobytes(), p.label, p.matched, p.fired_alpha.hex()

        want = [key(p) for p in rows]
        assert [key(p) for p in preds] == want
        assert [key(preds[x]) for x in range(-25, 25)] == want + want
        assert [key(p) for p in preds[3:20:4]] == want[3:20:4]
        assert [key(p) for p in preds + rows[:2]] == want + want[:2]
        assert any(p.abstained for p in preds) and not all(p.abstained for p in preds)
        with pytest.raises(IndexError):
            preds[25]
        truth = [frozenset([int(rng.integers(3))]) for _ in range(25)]
        for policy in ("random", "fixed_lowest"):
            assert resolve_all(preds, policy, 5).tolist() == resolve_all(rows, policy, 5).tolist()
            assert (evaluate_predictions(preds, truth, model.label_dict, policy, 5, 2)
                    == evaluate_predictions(rows, truth, model.label_dict, policy, 5, 2))
        csv = []
        for form in (preds, rows):
            buf = io.StringIO()
            write_predictions_csv(buf, form, resolve_all(form, "random", 1))
            csv.append(buf.getvalue())
        assert csv[0] == csv[1]

    def test_csv_checks_resolved_before_writing(self):
        """A ``resolved`` column of another length raises and leaves the stream empty."""
        preds = predict_all(_model([TripletClassifier(0, 1, 0b01, 0, 0.5)]),
                            TestTripletSet(3, 10, [0, 1], [0, 2], [1, 3], [True, True]))
        for size in (2, 4):
            buf = io.StringIO()
            with pytest.raises(ValueError, match=f"{size} resolved labels for 3 predictions"):
                write_predictions_csv(buf, preds, np.zeros(size, dtype=np.int64))
            assert buf.getvalue() == ""

    def test_csv_of_no_predictions_keeps_its_score_columns(self):
        """An empty slice still has its labels: the header names every score column."""
        preds = predict_all(_model([TripletClassifier(0, 1, 0b001, 0, 0.5)], 10, 3),
                            TestTripletSet(2, 10, [0], [0], [1], [True]))
        buf = io.StringIO()
        write_predictions_csv(buf, preds[:0], resolve_all(preds[:0]))
        assert buf.getvalue() == "example_id,label,abstained,score_0,score_1,score_2\n"

    def test_columns_are_read_only(self):
        preds = predict_all(_model([TripletClassifier(0, 1, 0b01, 0, 0.5)]),
                            TestTripletSet(2, 10, [0, 1], [0, 2], [1, 3], [True, True]))
        for col in (preds.scores, preds.label, preds.matched, preds.fired_alpha,
                    preds[0].scores):
            with pytest.raises(ValueError, match="read-only"):
                col[...] = 0
        with pytest.raises(ValueError, match="prediction 0 has 2 scores for 3 labels"):
            evaluate_predictions(preds, [frozenset([0])] * 2, LabelDict(("a", "b", "c")))
