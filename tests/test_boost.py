"""Boosting loop: sampling law, weight updates, training, persistence."""

import hashlib
import math

import numpy as np
import pytest

from tripletboost import (
    BoostConfig,
    Dataset,
    LabelDict,
    RoundStats,
    TripletClassifier,
    TripletStore,
    classifier_alpha,
    generate_training_set,
    init_weights,
    load_model,
    make_moons,
    round_weights,
    sample_reference_pair,
    save_model,
    select_labels,
    train,
    training_error_bound,
    update_weights,
    z_factor,
)
from tripletboost.boost import _strict_error


def _three_example_setup():
    """Two examples of one class, one of the other, every pair fully revealed."""
    ds = Dataset(np.array([0, 0, 1]), LabelDict(("a", "b")))
    rows = [(i, 0, 2) for i in range(3)] + [(i, 1, 2) for i in range(3)]
    return ds, TripletStore.from_triplets(3, rows)


class TestInitWeights:
    def test_uniform_values(self):
        w = init_weights(2, 2)
        assert np.all(w == 0.25)
        w = init_weights(3, 2)
        assert np.all(w == 1.0 / 6.0)

    def test_total_mass_one(self):
        for n, n_labels in ((1, 2), (7, 3), (50, 64)):
            assert init_weights(n, n_labels).sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            init_weights(0, 2)
        with pytest.raises(ValueError):
            init_weights(3, 1)


class TestSampleReferencePair:
    def test_two_example_symmetry(self):
        ds = Dataset(np.array([0, 1]), LabelDict(("a", "b")))
        w = init_weights(2, 2)
        rng = np.random.default_rng(0)
        seen = {sample_reference_pair(ds, w, rng) for _ in range(200)}
        assert seen == {(0, 1), (1, 0)}

    def test_concentrated_mass_forces_the_pair(self):
        """With one massive example per class, only that pair can come out."""
        ds = Dataset(np.array([0, 0, 1, 1]), LabelDict(("a", "b")))
        w = np.zeros((4, 2))
        w[1, 0] = 0.5
        w[2, 1] = 0.5
        rng = np.random.default_rng(3)
        for _ in range(50):
            j, k = sample_reference_pair(ds, w, rng)
            assert {j, k} == {1, 2}

    def test_empirical_law_matches_enumeration(self):
        """Pair frequencies follow marginal(j) * restricted-marginal(k) (3-sigma)."""
        rng = np.random.default_rng(5)
        labels = np.array([0, 0, 1, 1])
        ds = Dataset(labels, LabelDict(("a", "b")))
        w = np.random.default_rng(8).random((4, 2))
        w /= w.sum()
        marg = w.sum(axis=1)
        law = {}
        for j in range(4):
            denom = marg[labels != labels[j]].sum()
            for k in range(4):
                if labels[k] != labels[j]:
                    law[(j, k)] = marg[j] / marg.sum() * marg[k] / denom
        draws = 100_000
        counts = {}
        for _ in range(draws):
            pair = sample_reference_pair(ds, w, rng)
            counts[pair] = counts.get(pair, 0) + 1
        assert abs(sum(law.values()) - 1.0) < 1e-12
        for pair, prob in law.items():
            sigma = math.sqrt(draws * prob * (1 - prob))
            assert abs(counts.get(pair, 0) - draws * prob) <= 3.5 * sigma

    def test_single_class_rejected(self):
        ds = Dataset(np.array([0, 0]), LabelDict(("a", "b")))
        with pytest.raises(ValueError, match="two classes"):
            sample_reference_pair(ds, init_weights(2, 2), np.random.default_rng(0))


class TestUpdateWeights:
    def test_zero_alpha_is_identity(self):
        ds, store = _three_example_setup()
        w = init_weights(3, 2)
        h = TripletClassifier(0, 2, 0b01, 0, 0.0)
        w2, z = update_weights(w, h, store, ds)
        assert z == 1.0
        np.testing.assert_array_equal(w2, w)

    def test_all_abstain_is_identity(self):
        ds = Dataset(np.array([0, 0, 1]), LabelDict(("a", "b")))
        store = TripletStore.from_triplets(3, [])
        w = init_weights(3, 2)
        h = TripletClassifier(0, 2, 0b01, 0, 0.4)
        w2, z = update_weights(w, h, store, ds)
        assert z == 1.0
        np.testing.assert_array_equal(w2, w)

    def test_hand_worked_round(self):
        """The pre-normalization total matches the closed-form normalizer."""
        ds, store = _three_example_setup()
        w = init_weights(3, 2)
        alpha = 0.5 * math.log(1.5)
        h = TripletClassifier(0, 2, 0b01, 0, alpha)
        w2, z = update_weights(w, h, store, ds)
        assert z == pytest.approx(0.9526, abs=5e-5)
        assert abs(z - z_factor(2/3, 1/3, 3)) < 1e-12
        assert w2.sum() == pytest.approx(1.0, abs=1e-9)
        # misclassified example 2 gains mass, relative to its uniform start
        assert w2[2, 1] > w[2, 1]
        assert w2[0, 0] < w[0, 0]

    def test_normalization_and_positivity_preserved(self):
        rng = np.random.default_rng(17)
        ds, store = _three_example_setup()
        w = init_weights(3, 2)
        for _ in range(50):
            alpha = float(rng.normal(scale=0.5))
            h = TripletClassifier(0, 2, int(rng.integers(0, 4)),
                                  int(rng.integers(0, 4)), alpha)
            w, z = update_weights(w, h, store, ds)
            assert z > 0.0
            assert np.all(w >= 0.0)
            assert w.sum() == pytest.approx(1.0, abs=1e-9)

    def test_misclassified_true_label_gains_relative_to_abstained(self):
        """Wrongly handled examples concentrate future attention."""
        ds = Dataset(np.array([0, 0, 1, 1]), LabelDict(("a", "b")))
        store = TripletStore.from_triplets(4, [(0, 0, 2), (3, 0, 2)])
        w = init_weights(4, 2)
        h = TripletClassifier(0, 2, 0b10, 0, 0.3)  # predicts "b" on side j
        w2, _ = update_weights(w, h, store, ds)
        # example 0 (true label a, predicted set {b}) is misclassified
        assert w2[0, 0] / w[0, 0] > w2[1, 0] / w[1, 0]  # example 1 abstained


class TestTrain:
    def test_empty_store_trains_nothing(self):
        ds = Dataset(np.array([0, 1, 0]), LabelDict(("a", "b")))
        store = TripletStore.from_triplets(3, [])
        model = train(ds, store, BoostConfig(rounds=5, seed=0))
        assert model.classifiers == []
        assert model.rounds_run == 5
        assert len(model.round_stats) == 5
        assert all(s.alpha == 0.0 and s.z == 1.0 for s in model.round_stats)

    def test_single_round_on_forced_instance(self):
        """Every samplable pair is equally informative, so one round gives
        the hand-computed vote weight."""
        ds, store = _three_example_setup()
        model = train(ds, store, BoostConfig(rounds=1, seed=4))
        assert len(model.classifiers) == 1
        assert model.classifiers[0].alpha == pytest.approx(0.2027, abs=5e-5)

    def test_deterministic_and_bit_identical(self, tmp_path):
        ds = make_moons(40, 0.1, 0)
        store = generate_training_set(ds, "euclidean", 0.2, 0.1, 3)
        cfg = BoostConfig(rounds=200, seed=9)
        m1, m2 = train(ds, store, cfg), train(ds, store, cfg)
        assert m1.classifiers == m2.classifiers
        p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        save_model(m1, p1)
        save_model(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_training_error_bound_holds_on_random_instances(self):
        """Strict training error never exceeds the normalizer-product bound."""
        for seed in range(5):
            ds = make_moons(100, 0.15, seed)
            store = generate_training_set(ds, "euclidean", 0.05, 0.1, seed)
            cfg = BoostConfig(rounds=400, seed=seed, stats_every=100)
            model = train(ds, store, cfg)
            bound = training_error_bound(ds.n_labels, model.z_history())
            err = _strict_error(model.train_scores, ds.labels)
            assert err <= bound + 1e-12
            for cp in model.checkpoints:
                assert cp.train_error <= cp.error_bound + 1e-12

    def test_zero_alpha_rounds_consume_rng_but_add_nothing(self):
        """A store whose every pair fires on one balanced opposite-label pair:
        round count advances, stats record, no classifier appended."""
        ds = Dataset(np.array([0, 1]), LabelDict(("a", "b")))
        store = TripletStore.from_triplets(2, [(0, 0, 1), (1, 0, 1)])
        model = train(ds, store, BoostConfig(rounds=3, seed=1))
        assert model.rounds_run == 3
        assert len(model.round_stats) == 3
        assert model.classifiers == []
        kept = train(ds, store, BoostConfig(rounds=3, seed=1,
                                            keep_zero_alpha=True))
        assert len(kept.classifiers) == 3
        assert all(h.alpha == 0.0 for h in kept.classifiers)

    def test_weights_stay_normalized_every_round(self):
        ds = make_moons(30, 0.1, 2)
        store = generate_training_set(ds, "euclidean", 0.3, 0.0, 1)
        model = train(ds, store, BoostConfig(rounds=100, seed=5))
        for stat in model.round_stats:
            assert 0.0 < stat.z <= 1.0 + 1e-12
            assert stat.w_plus >= 0.0 and stat.w_minus >= 0.0
            assert stat.w_plus + stat.w_minus <= 1.0 + 1e-9

    def test_requires_two_present_classes(self):
        ds = Dataset(np.array([0, 0, 0]), LabelDict(("a", "b")))
        store = TripletStore.from_triplets(3, [])
        with pytest.raises(ValueError, match="two classes"):
            train(ds, store, BoostConfig(rounds=1))

    def test_universe_mismatch_rejected(self):
        ds = Dataset(np.array([0, 1]), LabelDict(("a", "b")))
        store = TripletStore.from_triplets(5, [])
        with pytest.raises(ValueError, match="universe"):
            train(ds, store, BoostConfig(rounds=1))

    def test_rounds_must_be_positive(self):
        with pytest.raises(ValueError):
            BoostConfig(rounds=0)


def _moons_corpus():
    ds = make_moons(350, 0.1, 0)
    store = generate_training_set(ds, "euclidean", 0.1, 0.0, 1)
    return ds, store, BoostConfig(rounds=8000, seed=2, stats_every=1000)


def _five_label_corpus():
    """Sparse, noisy triplets over five labels: many rounds earn weight zero."""
    rng = np.random.default_rng(5)
    labels = np.arange(150) % 5
    feats = rng.normal(size=(150, 3)) + 0.8 * labels[:, None]
    ds = Dataset(labels, LabelDict(tuple("abcde")), feats)
    store = generate_training_set(ds, "euclidean", 0.003, 0.1, 4)
    return ds, store, BoostConfig(rounds=1500, seed=6, keep_zero_alpha=True,
                                  stats_every=250)


# sha256 of (model file, round_stats, train_scores, checkpoints) as float64 bytes
_PINNED = {
    "moons": (_moons_corpus, (
        "603d51035904eb8d4a6d6fe230d62032425213f5a33ce16cac69ca7c6c0b27c5",
        "663c71bc13e40d58347afd387c0c69c1545ec1a5361b7cf24c0cdec94ac0724a",
        "49ec626f23c26c81ccb3de0fe0eb823193030f04c11380e2678b81eaa6995ad0",
        "ccbea666caa7f9d3d7a106efa1ec862789d1b2b44325d07a37e0621435f4edf4")),
    "five_labels": (_five_label_corpus, (
        "0e456852feee7cc94ef5c30d8f9a72aca98329639479ebeef21dc9b16e92fb04",
        "170a33ba25d9d282e40c9b247c64c28b7388feee27a548324e552086fc73b3b8",
        "0f71e8576614e85e69c1296e5e674b00916f31f84a74ddcce44fdc5e4a644b96",
        "6f18605ab9506a7d6413932d18763f0221b979d4dd954ed8e9a1c97c885b6ff2")),
}


@pytest.fixture(scope="module", params=sorted(_PINNED))
def pinned_run(request):
    make, digests = _PINNED[request.param]
    ds, store, cfg = make()
    return ds, store, cfg, train(ds, store, cfg), digests


def _step_api_replay(ds, store, cfg):
    """``train()`` rebuilt from the public per-round functions."""
    rng = np.random.default_rng(cfg.seed)
    w = init_weights(ds.n, ds.n_labels)
    kept, stats = [], []
    for _ in range(cfg.rounds):
        j, k = sample_reference_pair(ds, w, rng)
        o_j, o_k = select_labels(j, k, store, ds, w)
        w_plus, w_minus = round_weights(TripletClassifier(j, k, o_j, o_k, 0.0),
                                        store, ds, w)
        alpha = classifier_alpha(w_plus, w_minus, ds.n)
        h = TripletClassifier(j, k, o_j, o_k, alpha)
        z = 1.0
        if alpha != 0.0:
            w, z = update_weights(w, h, store, ds)
        if alpha != 0.0 or cfg.keep_zero_alpha:
            kept.append(h)
        stats.append(RoundStats(w_plus, w_minus, z, alpha))
    return kept, stats


class TestTrainSnapshots:
    """``train()`` against the step API and against digests of earlier output."""

    def test_step_api_replay_equals_train(self, pinned_run):
        ds, store, cfg, model, _ = pinned_run
        kept, stats = _step_api_replay(ds, store, cfg)
        assert kept == model.classifiers
        assert stats == model.round_stats

    def test_output_digests_pinned(self, pinned_run, tmp_path):
        _, _, _, model, want = pinned_run
        path = tmp_path / "model.txt"
        save_model(model, path)
        stats = np.array([(s.w_plus, s.w_minus, s.z, s.alpha)
                          for s in model.round_stats], dtype=np.float64)
        checkpoints = np.array([tuple(c) for c in model.checkpoints], dtype=np.float64)
        got = tuple(hashlib.sha256(data).hexdigest() for data in (
            path.read_bytes(), stats.tobytes(), model.train_scores.tobytes(),
            checkpoints.tobytes()))
        assert got == want


class TestModelFiles:
    def _model(self):
        ds = make_moons(25, 0.1, 3)
        store = generate_training_set(ds, "euclidean", 0.4, 0.0, 2)
        return train(ds, store, BoostConfig(rounds=50, seed=7))

    def test_round_trip_exact(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        back = load_model(path)
        assert back == model
        assert all(h1.alpha == h2.alpha
                   for h1, h2 in zip(back.classifiers, model.classifiers))
        save_model(back, tmp_path / "again.txt")
        assert path.read_bytes() == (tmp_path / "again.txt").read_bytes()

    def test_header_and_labels_persist(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        first, second = path.read_text(encoding="utf-8").splitlines()[:2]
        assert first == f"tripletboost-model v1 L=2 n=25 C=50"
        assert second == "0\t1"

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("tripletboost-model v7 L=2 n=3 C=1\na\tb\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="version mismatch"):
            load_model(path)

    @pytest.mark.parametrize("row, message", [
        ("1 1 0.5 1 2", "0 <= j < k < 3 at line 4"),  # j == k
        ("2 1 0.5 1 2", "0 <= j < k < 3 at line 4"),  # j > k: not canonical
        ("0 2 nan 1 2", "non-finite alpha at line 4"),
        ("0 2 inf 1 2", "non-finite alpha at line 4"),
        ("0 2 0.5 -1 2", "label set out of range at line 4"),
        ("0 2 0.5 1 -2", "label set out of range at line 4"),
    ])
    def test_bad_classifier_names_the_line(self, tmp_path, row, message):
        path = tmp_path / "bad.txt"
        path.write_text(f"tripletboost-model v1 L=2 n=3 C=2\na\tb\n0 1 0.5 1 2\n{row}\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_model(path)

    @pytest.mark.parametrize("header", ["tripletboost-model v1 L=2 n=3",
                                        "tripletboost-model v1 L=2 n=x C=1"])
    def test_malformed_header(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(f"{header}\na\tb\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed header"):
            load_model(path)

    def test_out_of_range_label_set_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "tripletboost-model v1 L=2 n=3 C=1\na\tb\n0 1 0.5 7 0\n",
            encoding="utf-8")
        with pytest.raises(ValueError, match="label set out of range"):
            load_model(path)


class TestStrictError:
    def test_unique_argmax_counts_as_correct(self):
        scores = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert _strict_error(scores, np.array([0, 1])) == 0.0

    def test_tie_counts_as_error(self):
        scores = np.array([[1.0, 1.0]])
        assert _strict_error(scores, np.array([0])) == 1.0

    def test_abstained_rows_count_as_errors(self):
        scores = np.zeros((2, 3))
        assert _strict_error(scores, np.array([0, 2])) == 1.0
