"""Boosting loop: sampling law, weight updates, training, persistence."""

import gc
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletboost import (
    BoostConfig,
    Dataset,
    LabelDict,
    RoundStats,
    StrongModel,
    TripletClassifier,
    TripletStore,
    classifier_alpha,
    generate_test_set,
    generate_training_set,
    init_weights,
    load_model,
    make_moons,
    round_weights,
    sample_reference_pair,
    save_model,
    score,
    select_labels,
    train,
    training_error_bound,
    update_weights,
    z_factor,
)
from tripletboost.boost import _strict_error
from tripletboost.weak import _mask_bools, _row_sums, fired_buckets


def _three_example_setup():
    """Two examples of one class, one of the other, every pair fully revealed."""
    ds = Dataset(np.array([0, 0, 1]), LabelDict(("a", "b")))
    rows = [(i, 0, 2) for i in range(3)] + [(i, 1, 2) for i in range(3)]
    return ds, TripletStore.from_triplets(3, rows)


def _zero_filled_draw(ds, w, rng):
    """The sampler's earlier form: k from the cumulative sum of the marginal with
    zeros for the examples of j's class."""

    def draw(cum, u):
        idx = int(cum.searchsorted(u, "right"))
        if idx >= cum.size:
            idx = cum.size - 1
            while idx > 0 and cum[idx] == cum[idx - 1]:
                idx -= 1
        return idx

    marg = w.sum(axis=1)
    cum = marg.cumsum()
    j = draw(cum, rng.random() * float(cum[-1]))
    cum_k = np.where(ds.labels != ds.labels[j], marg, 0.0).cumsum()
    return j, draw(cum_k, rng.random() * float(cum_k[-1]))


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

    def test_rounded_up_draw_equals_zero_filled_reference(self):
        """A uniform that rounds up to the total mass lands on the last example with
        mass, past trailing examples of zero mass, as the draw from the cumulative
        sum with zeros for j's class (the sampler's earlier form) did."""

        class Ones:
            def random(self):
                return 1.0

        rng = np.random.default_rng(21)
        for trial in range(200):
            n = int(rng.integers(2, 12))
            labels = rng.integers(0, 3, n)
            labels[:2] = (0, 1)
            w = rng.random((n, 3)) * (rng.random((n, 1)) < 0.6)  # zero-mass rows
            w[:2] += 0.1  # mass in two classes, whatever the class of j
            ds = Dataset(labels, LabelDict(("a", "b", "c")))
            for make in (Ones, lambda: np.random.default_rng(trial)):
                got = sample_reference_pair(ds, w, make())
                assert got == _zero_filled_draw(ds, w, make())
                assert w[got[0]].sum() > 0.0 and w[got[1]].sum() > 0.0

    def test_uniform_blocks_equal_scalar_draws(self):
        """``train`` takes its uniforms in blocks; they are the scalar draws."""
        from tripletboost.boost import _uniforms

        rng = np.random.default_rng(4)
        scalar = [rng.random() for _ in range(20_000)]
        assert list(_uniforms(np.random.default_rng(4), 20_000, block=4096)) == scalar

    def test_row_sums_equal_numpy_bit_for_bit(self):
        """The sampler's marginals are ``w.sum(axis=1)`` for every label count."""
        rng = np.random.default_rng(12)
        for n_labels in range(2, 65):
            for n in (1, 7, 350):
                w = rng.random((n, n_labels)) ** 4 * 10.0 ** rng.integers(-12, 1, (n, 1))
                assert _row_sums(w).tobytes() == w.sum(axis=1).tobytes()

    def test_single_class_rejected(self):
        ds = Dataset(np.array([0, 0]), LabelDict(("a", "b")))
        with pytest.raises(ValueError, match="two classes"):
            sample_reference_pair(ds, init_weights(2, 2), np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.01])
    def test_non_finite_or_negative_weight_rejected(self, bad):
        """A NaN or +inf entry once drew a pair, and a negative one failed as a
        missing class."""
        ds = make_moons(10, 0.1, 0)
        w = init_weights(ds.n, 2)
        w[3, 0] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            sample_reference_pair(ds, w, np.random.default_rng(0))

    def test_massless_distribution_rejected(self):
        ds = Dataset(np.array([0, 1]), LabelDict(("a", "b")))
        with pytest.raises(ValueError, match="positive finite total"):
            sample_reference_pair(ds, np.zeros((2, 2)), np.random.default_rng(0))

    def test_massless_other_classes_named_apart_from_a_missing_class(self):
        """Two classes, but only j's class carries mass: no k can be drawn."""
        ds = Dataset(np.array([0, 0, 1]), LabelDict(("a", "b")))
        w = init_weights(3, 2)
        w[2] = 0.0
        with pytest.raises(ValueError, match="other than j's carry no mass"):
            sample_reference_pair(ds, w, np.random.default_rng(0))


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

    def test_test_set_rejected(self):
        """A test set whose example count equals the universe still has test
        anchors, not training examples."""
        ds = make_moons(60, 0.1, 0)
        train_ds, test_ds = ds.take(np.arange(0, 60, 2)), ds.take(np.arange(1, 60, 2))
        tset = generate_test_set(test_ds, train_ds, "euclidean", 0.5, 0.0, 1)
        assert tset.n_test == tset.n_train == train_ds.n
        with pytest.raises(ValueError, match="needs the training store, not a TestTripletSet"):
            train(train_ds, tset, BoostConfig(rounds=5))

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


def _ten_label_corpus():
    """Ten labels: numpy sums rows of 8 or more entries pairwise, not in order."""
    rng = np.random.default_rng(10)
    labels = np.arange(200) % 10
    feats = rng.normal(size=(200, 3)) + 0.6 * labels[:, None]
    ds = Dataset(labels, LabelDict(tuple("abcdefghij")), feats)
    store = generate_training_set(ds, "euclidean", 0.01, 0.05, 3)
    return ds, store, BoostConfig(rounds=2000, seed=9, stats_every=500)


def _sparse_corpus():
    """Few triplets a pair: about half the rounds earn weight zero and are dropped."""
    ds = make_moons(150, 0.1, 0)
    store = generate_training_set(ds, "euclidean", 0.005, 0.0, 1)
    return ds, store, BoostConfig(rounds=1500, seed=3, stats_every=250)


# sha256 of (model file, round_stats, train_scores, checkpoints) as float64 bytes,
# recorded when the round's W+ and W- became bin sums added in a fixed order
_PINNED = {
    "moons": (_moons_corpus, (
        "921054e1d9796f42ce444ab717a89beeffa2d93ba0ab8b97ab65245334782e80",
        "0245277529017133c092563101bcae71dd66cdd4403f93ef00fd275fa5dd1ecc",
        "d57614dcf6ddada2955af086a214bc385f04815669f1124318bde69138c58b04",
        "545fa77779e7479208eaa0fa5a4ff78c1bbf0c55b893e55c6ad1ad3cfeadd9e1")),
    "five_labels": (_five_label_corpus, (
        "5d1bb90ab7219fc270bc8dc9210e99d31f9c057570c96de4da15f12584a065bb",
        "ac80517efb984e482d260ba1e329ae20118dbcf58953513df22117b7c01576e8",
        "9519ece8bbf1c97d1bae75584083292f53115939d5290b9b3c7d0f7c14e1c539",
        "94a0b03f42c232ebec8a7002531b8b6c05311aafd79765c35c6203c7f8cda1e3")),
    "ten_labels": (_ten_label_corpus, (
        "2dde9773ad2686698f5cecc35682dd8eb790c5ed1aba1f59b6d88bf737c28574",
        "33600547f30d91aaaaf220caa621408c915553f4c39a7165debc9c2e5ecbea30",
        "d44cd813250f8222b982939e4eb9deb2b08f1d4c3bcc9bcdad01402333a7f2b7",
        "8312717945835633601be2e8ff7323da0c3a9fc0ada5ba2df3c8aead5d749828")),
    "sparse": (_sparse_corpus, (
        "bdc65ef9a3b6ff880f6daed395738b2ad5924a9225610a3a549f85ccc22f26f3",
        "7f6bd1043b8dcd97e19f072c9d59ae99e0d4dc2143200ead175736eecbea20b2",
        "79e9bab5c49fed726ef7657f16d937492a1467805fe00bb8b0f9a4d9eaf42ed5",
        "7a8f31aaedd45f823ae8faef7e6c1bb3ad9929198948ea58270f9e0f863a774c")),
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

    def test_checkpoint_bounds_equal_the_bound_function(self, pinned_run):
        """A checkpoint's bound is ``training_error_bound`` of the normalizers up to
        its round, bit for bit: both add the logs one at a time in round order."""
        ds, _, _, model, _ = pinned_run
        z = model.z_history()
        assert model.checkpoints
        for checkpoint in model.checkpoints:
            want = training_error_bound(ds.n_labels, z[:checkpoint.round])
            assert checkpoint.error_bound.hex() == want.hex()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 40), n_labels=st.integers(2, 10),
       proportion=st.sampled_from([0.002, 0.02, 0.1, 0.5, 1.0]), noise=st.sampled_from([0.0, 0.2]),
       rounds=st.integers(1, 40), keep_zero_alpha=st.booleans(),
       stats_every=st.integers(1, 12), seed=st.integers(0, 2**30))
def test_train_equals_step_api_replay_on_random_corpora(n, n_labels, proportion, noise,
                                                        rounds, keep_zero_alpha,
                                                        stats_every, seed):
    """``train`` against the step API, bit for bit, on stores from nearly empty
    (absent pairs, empty buckets) to complete, at label counts on both sides of
    the sampler's 8-label row-sum rule; its training scores and checkpoints
    against the kept classifiers' votes added round by round."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.append(rng.integers(0, n_labels, n - 2), (0, 1)))
    ds = Dataset(labels, LabelDict(tuple(f"c{y}" for y in range(n_labels))),
                 rng.normal(size=(n, 2)))
    store = generate_training_set(ds, "euclidean", proportion, noise, seed)
    cfg = BoostConfig(rounds=rounds, seed=seed, keep_zero_alpha=keep_zero_alpha,
                      stats_every=stats_every)
    model = train(ds, store, cfg)
    kept, stats = _step_api_replay(ds, store, cfg)
    assert kept == model.classifiers
    assert np.array(stats).tobytes() == model.stats.tobytes()
    scores, votes, checkpoints = np.zeros((n, n_labels)), iter(kept), []
    for rnd, stat in enumerate(stats, 1):
        if stat.alpha != 0.0:
            h = next(votes)
            for bucket, mask in zip(fired_buckets(store, h.j, h.k), (h.o_j, h.o_k)):
                scores[bucket] += np.where(_mask_bools(mask, n_labels), h.alpha, -h.alpha)
        elif keep_zero_alpha:
            next(votes)
        if rnd % stats_every == 0 or rnd == rounds:
            checkpoints.append((rnd, _strict_error(scores, labels)))
    assert model.train_scores.tobytes() == scores.tobytes()
    assert [c[:2] for c in model.checkpoints] == checkpoints


def test_sparse_corpus_drops_about_half_the_rounds():
    """The sparse pinned corpus keeps the regime it pins: 30-60% of its rounds
    earn weight zero, so the sampler reuses its tables there."""
    ds, store, cfg = _sparse_corpus()
    zero = train(ds, store, cfg).stats[:, 3] == 0.0
    assert 0.3 <= zero.mean() <= 0.6


class TestMemoryBudget:
    def test_training_builds_nothing_a_store_row(self):
        """``train`` keeps no column a store row: its peak above its start is the
        bookkeeping of its 200 rounds (under 1 KB a round), below 1 byte a row of
        a 421k-row store, and once its model is dropped it holds nothing but the
        round's small caches (bin tables by label count and by label sets).  The
        store's pair index is built first, as the first round would build it.
        Measured with tracemalloc, which counts numpy's buffers exactly."""
        ds = make_moons(120, 0.1, 0)
        store = generate_training_set(ds, "euclidean", 0.5, 0.0, 1)
        store.pair_groups()
        gc.collect()
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            model = train(ds, store, BoostConfig(rounds=200, seed=2, stats_every=50))
            peak = tracemalloc.get_traced_memory()[1] - start
            del model
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert store.m > 400_000
        assert peak / store.m <= 1.0, f"training peaks at {peak / store.m:.2f} B/row"
        assert held <= 16 << 10, f"training holds {held} B after it returns"


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

    @pytest.mark.parametrize("name", ["a\tb", "a\nb", "a\rb"])
    def test_unreadable_label_name_rejected(self, tmp_path, name):
        model = StrongModel([], LabelDict((name, "c")), 3)
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            save_model(model, tmp_path / "model.txt")

    def test_unusual_label_names_round_trip(self, tmp_path):
        model = StrongModel([TripletClassifier(0, 2, 1, 2, 0.5)],
                            LabelDict(("a,b", "x\u2028y", " ")), 3)
        save_model(model, tmp_path / "model.txt")
        assert load_model(tmp_path / "model.txt") == model

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

    @pytest.mark.parametrize("row, message", [
        ("0 2 0.5 0x1 2", "malformed classifier at line 4"),
        ("0 2 0.5 1 +2", "malformed classifier at line 4"),
        ("0 2 0.5 A 2", "malformed classifier at line 4"),
        ("0 2 0.5 1 0X2", "malformed classifier at line 4"),
        ("0 2 0.5 1 -", "malformed classifier at line 4"),
        ("0 2 0.5 -0 2", "label set out of range at line 4"),  # negative, as -1 is
    ])
    def test_label_set_is_bare_lowercase_hex(self, tmp_path, row, message):
        """A label set is read as the writer writes it, digits 0-9a-f only:
        ``int(token, 16)`` loaded 0x1, +2, upper case and -0, and saving wrote them
        back as bare hex."""
        path = tmp_path / "bad.txt"
        path.write_text(f"tripletboost-model v1 L=2 n=3 C=2\na\tb\n0 1 0.5 1 2\n{row}\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_model(path)

    @pytest.mark.parametrize("header", ["tripletboost-model v1 L=2 n=3",
                                        "tripletboost-model v1 L=2 n=x C=1"])
    def test_malformed_header(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(f"{header}\na\tb\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed header"):
            load_model(path)

    @pytest.mark.parametrize("n", ["99999999999999999999", "2000001", "0", "-3"])
    def test_universe_outside_a_stores_named(self, tmp_path, n):
        """A model's pairs index a training store, so its n has a store's range."""
        path = tmp_path / "bad.txt"
        path.write_text(f"tripletboost-model v1 L=2 n={n} C=1\na\tb\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"universe size must be in [1, 2000000], got {n}")):
            load_model(path)

    @pytest.mark.parametrize("header", ["tripletboost-model v1 L=2 n=3 C=-5",
                                        "tripletboost-model v1 L=2 n=3 C=1 n=3"])
    def test_negative_or_repeated_header_value_malformed(self, tmp_path, header):
        path = tmp_path / "bad.txt"
        path.write_text(f"{header}\na\tb\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed header"):
            load_model(path)

    @pytest.mark.parametrize("first, second, message", [
        ("0 2 nan 1 2", "2 1 0.5 1 2", "non-finite alpha at line 3"),
        ("0 2 nan 1 2", "0 2 0.5", "non-finite alpha at line 3"),
        ("0 2 0.5 1 2 9", "2 1 0.5 1 2", "malformed classifier at line 3"),
        ("2 1 nan 7 0", "0 2 0.5", "0 <= j < k < 3 at line 3"),
        ("0 2 nan 7 0", "1 1 0.5 1 2", "label set out of range at line 3"),
    ])
    def test_first_bad_line_wins(self, tmp_path, first, second, message):
        """Across lines the first bad one is named; within a line the checks run
        malformed, then pair, then label set, then alpha."""
        path = tmp_path / "bad.txt"
        path.write_text(f"tripletboost-model v1 L=2 n=3 C=2\na\tb\n{first}\n{second}\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_model(path)

    def test_label_set_past_64_bits_rejected(self, tmp_path):
        """A header may name more than 64 labels, but a label set holds 64."""
        path = tmp_path / "bad.txt"
        names = "\t".join(f"c{y}" for y in range(70))
        path.write_text(f"tripletboost-model v1 L=70 n=3 C=1\n{names}\n"
                        f"0 1 0.5 {1 << 65:x} 0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="label set out of range at line 3"):
            load_model(path)

    def test_out_of_range_label_set_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(
            "tripletboost-model v1 L=2 n=3 C=1\na\tb\n0 1 0.5 7 0\n",
            encoding="utf-8")
        with pytest.raises(ValueError, match="label set out of range"):
            load_model(path)


class TestStrongModel:
    @pytest.mark.parametrize("bad, message", [
        (TripletClassifier(0, 15, 0b01, 0, 0.5), "0 <= j < k < 10 at classifier 1"),
        (TripletClassifier(-1, 3, 0b01, 0, 0.5), "0 <= j < k < 10 at classifier 1"),
        (TripletClassifier(0, 2, 0b100, 0, 0.5), "label set out of range at classifier 1"),
        (TripletClassifier(0, 2, 0, 1 << 64, 0.5), "label set out of range at classifier 1"),
    ])
    def test_classifier_outside_the_model_rejected(self, bad, message):
        """A pair outside the universe would alias another pair's key (0*10+15
        is the key of (1, 5)); a wide label set would be dropped."""
        good = TripletClassifier(1, 5, 0b10, 0b01, 0.25)
        with pytest.raises(ValueError, match=message):
            StrongModel([good, bad], LabelDict(("a", "b")), 10)

    def test_columns_follow_the_classifiers(self):
        """Pairs are stored j < k with the sides' sets swapped to match."""
        model = StrongModel([TripletClassifier(5, 2, 0b01, 0b10, 0.5),
                             TripletClassifier(0, 1, 0b11, 0, -0.25)],
                            LabelDict(("a", "b")), 10)
        assert model.j.tolist() == [2, 0] and model.k.tolist() == [5, 1]
        assert model.label_sets.tolist() == [[[False, True], [True, False]],
                                             [[True, True], [False, False]]]
        assert model.alpha.tolist() == [0.5, -0.25]
        assert model.sorted_keys.tolist() == [1, 25]
        assert model.key_order.tolist() == [1, 0]
        assert model.classifiers == [TripletClassifier(2, 5, 0b10, 0b01, 0.5),
                                     TripletClassifier(0, 1, 0b11, 0, -0.25)]

    def test_rounds_run_is_keyword_only(self):
        """The constructor takes classifiers, labels, n_train and rounds_run by name."""
        classifiers, labels = [TripletClassifier(0, 1, 0b01, 0b10, 0.5)], LabelDict(("a", "b"))
        with pytest.raises(TypeError):
            StrongModel(classifiers, labels, 4, 5)
        assert StrongModel(classifiers, labels, 4, rounds_run=5).rounds_run == 5

    def test_total_alpha_is_the_in_order_sum(self):
        """The weights added one at a time in classifier order, on every Python:
        numpy's pairwise sum, and Python's compensated ``sum`` from 3.12 on, give
        other bits."""
        ds = make_moons(60, 0.1, 1)
        model = train(ds, generate_training_set(ds, "euclidean", 0.3, 0.0, 2),
                      BoostConfig(rounds=400, seed=3))
        total = 0.0
        for h in model.classifiers:
            total += h.alpha
        assert model.total_alpha.hex() == total.hex()

    def test_views_are_copies_and_columns_read_only(self, tmp_path):
        """Editing a returned list changes neither scores, weights nor files."""
        ds, store = _three_example_setup()
        model = train(ds, store, BoostConfig(rounds=5, seed=4))
        before = (score(model, [(0, 2)]).scores.tobytes(), model.total_alpha,
                  model.z_history().tobytes(), model.classifiers, model.round_stats)
        save_model(model, tmp_path / "before.txt")
        model.classifiers.append(TripletClassifier(0, 2, 0b01, 0, 1.0))
        model.classifiers.clear()
        model.round_stats.clear()
        assert (score(model, [(0, 2)]).scores.tobytes(), model.total_alpha,
                model.z_history().tobytes(), model.classifiers, model.round_stats) == before
        assert before[3] and before[4]
        save_model(model, tmp_path / "after.txt")
        assert (tmp_path / "after.txt").read_bytes() == (tmp_path / "before.txt").read_bytes()
        for col in (model.j, model.k, model.alpha, model.label_sets, model.stats,
                    model.key_order, model.sorted_keys):
            with pytest.raises(ValueError, match="read-only"):
                col[...] = 0
        with pytest.raises(AttributeError):
            model.classifiers = []


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
