"""Triplet generation, perturbation, persistence, and query contracts."""

import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import tripletboost.triplets as tb_triplets

from tripletboost import (
    Dataset,
    LabelDict,
    RatingsTable,
    Relation,
    TestTripletSet,
    TripletStore,
    add_noise,
    generate_from_ratings,
    generate_from_vectors,
    generate_test_set,
    generate_training_set,
    load_csv,
    load_ratings,
    make_moons,
    score,
    score_naive,
    split,
    subsample,
)
from tripletboost.boost import StrongModel, load_model
from tripletboost.triplets import _per_group_take, _unrank_pairs
from tripletboost.weak import TripletClassifier


def _vec_dataset(points, labels=None):
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    n = points.shape[0]
    labels = np.zeros(n, dtype=np.int64) if labels is None else np.asarray(labels)
    labels[: min(2, n)] = np.arange(min(2, n))
    return Dataset(labels, LabelDict(("a", "b")), points)


def _brute_force_triplets(points, metric):
    """Independent oracle: all-pairs distance comparisons with the math module."""
    points = np.asarray(points, dtype=float)
    n = len(points)

    def dist(u, v):
        if metric == "euclidean":
            return math.sqrt(sum((a - b) ** 2 for a, b in zip(points[u], points[v])))
        if metric == "cityblock":
            return sum(abs(a - b) for a, b in zip(points[u], points[v]))
        num = sum(a * b for a, b in zip(points[u], points[v]))
        den = math.sqrt(sum(a * a for a in points[u])) * \
            math.sqrt(sum(a * a for a in points[v]))
        return 1.0 - num / den

    out = set()
    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                if i in (j, k):
                    continue
                dj, dk = dist(i, j), dist(i, k)
                if dj < dk:
                    out.add((i, j, k))
                elif dk < dj:
                    out.add((i, k, j))
    return out


class TestGenerateFromVectors:
    def test_one_dimensional_example(self):
        """Points 0, 1, 3: each anchor orients its single remaining pair."""
        ds = _vec_dataset([0.0, 1.0, 3.0])
        store = generate_from_vectors(ds, "euclidean")
        assert store.m == 3
        assert {(t.i, t.j, t.k) for t in store} == {(0, 1, 2), (1, 0, 2), (2, 1, 0)}

    def test_matches_brute_force_all_metrics(self):
        rng = np.random.default_rng(0)
        for metric in ("euclidean", "cityblock", "cosine"):
            points = rng.normal(size=(9, 3)) + 0.5
            ds = _vec_dataset(points)
            store = generate_from_vectors(ds, metric)
            assert {(t.i, t.j, t.k) for t in store} == \
                _brute_force_triplets(points, metric)

    def test_ties_excluded_both_orientations(self):
        """Two identical reference points never orient any anchor."""
        ds = _vec_dataset([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        store = generate_from_vectors(ds, "euclidean")
        assert store.lookup(0, 1, 2) is Relation.ABSENT
        assert store.lookup(0, 2, 1) is Relation.ABSENT

    def test_two_points_give_empty_store(self):
        ds = _vec_dataset([0.0, 1.0])
        assert generate_from_vectors(ds, "euclidean").m == 0

    def test_cosine_zero_vector_rejected(self):
        ds = _vec_dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="zero-norm"):
            generate_from_vectors(ds, "cosine")
        test = _vec_dataset([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="zero-norm vectors, as at test dataset row 1"):
            generate_test_set(test, ds, "cosine", 1.0, 0.0, 0)

    def test_missing_features_rejected(self):
        ds = Dataset(np.array([0, 1, 0]), LabelDict(("a", "b")))
        with pytest.raises(ValueError, match="feature"):
            generate_from_vectors(ds, "euclidean")

    def test_exactly_one_orientation_per_untied_candidate(self):
        rng = np.random.default_rng(3)
        ds = _vec_dataset(rng.normal(size=(8, 2)))
        store = generate_from_vectors(ds, "euclidean")
        for i in range(8):
            for j in range(8):
                for k in range(j + 1, 8):
                    if i in (j, k):
                        continue
                    rel = store.lookup(i, j, k)
                    assert rel in (Relation.FORWARD, Relation.REVERSE)


class TestSubsample:
    def test_identity_and_empty(self):
        store = generate_from_vectors(_vec_dataset(np.arange(6.0)), "euclidean")
        assert subsample(store, 1.0, 5) == store
        assert subsample(store, 0.0, 5).m == 0

    def test_exact_count(self):
        ds = make_moons(30, 0.1, 0)
        store = generate_from_vectors(ds, "euclidean")
        out = subsample(store, 0.1, 3)
        assert out.m == int(math.floor(0.1 * store.m + 0.5))

    def test_subset_and_forward_membership(self):
        ds = make_moons(25, 0.1, 1)
        store = generate_from_vectors(ds, "euclidean")
        out = subsample(store, 0.25, 9)
        for t in out:
            assert store.lookup(t.i, t.j, t.k) is Relation.FORWARD
            assert out.lookup(t.i, t.j, t.k) is Relation.FORWARD

    def test_deterministic(self):
        ds = make_moons(20, 0.1, 2)
        store = generate_from_vectors(ds, "euclidean")
        assert subsample(store, 0.3, 11) == subsample(store, 0.3, 11)

    def test_uniformity_over_small_store(self):
        """Each triplet kept with equal frequency across seeds (3-sigma)."""
        store = generate_from_vectors(_vec_dataset(np.arange(5.0)), "euclidean")
        reps = 3000
        keep = 3
        counts = np.zeros(store.m)
        keys = {(t.i, t.j, t.k): idx for idx, t in enumerate(store)}
        for seed in range(reps):
            for t in subsample(store, keep / store.m, seed):
                counts[keys[(t.i, t.j, t.k)]] += 1
        expected = reps * keep / store.m
        sigma = math.sqrt(reps * (keep / store.m) * (1 - keep / store.m))
        assert np.all(np.abs(counts - expected) <= 4 * sigma)


class TestAddNoise:
    def test_rate_zero_identity(self):
        store = generate_from_vectors(_vec_dataset(np.arange(5.0)), "euclidean")
        assert add_noise(store, 0.0, 1) == store

    def test_full_swap_is_involution(self):
        store = generate_from_vectors(make_moons(15, 0.1, 0), "euclidean")
        swapped = add_noise(store, 1.0, 7)
        assert swapped != store
        assert add_noise(swapped, 1.0, 7) == store
        for t in swapped:
            assert store.lookup(t.i, t.j, t.k) is Relation.REVERSE

    def test_exact_swap_count(self):
        ds = make_moons(12, 0.1, 0)
        store = generate_from_vectors(ds, "euclidean")
        out = add_noise(store, 0.2, 3)
        flipped = sum(store.lookup(t.i, t.j, t.k) is Relation.REVERSE for t in out)
        assert flipped == int(math.floor(0.2 * store.m + 0.5))
        assert out.m == store.m

    def test_same_seed_double_swap_restores(self):
        store = generate_from_vectors(make_moons(12, 0.1, 1), "euclidean")
        assert add_noise(add_noise(store, 0.4, 5), 0.4, 5) == store


class TestFusedGeneration:
    def test_equals_composition(self):
        """The one-pass generator matches generate -> subsample -> add_noise."""
        ds = make_moons(40, 0.1, 4)
        for seed in (0, 1, 99):
            sub_seed, noise_seed = np.random.SeedSequence(seed).spawn(2)
            composed = add_noise(
                subsample(generate_from_vectors(ds, "euclidean"), 0.08, sub_seed),
                0.15, noise_seed)
            fused = generate_training_set(ds, "euclidean", 0.08, 0.15, seed)
            assert fused == composed

    def test_availability_matches_request(self):
        ds = make_moons(40, 0.1, 4)
        fused = generate_training_set(ds, "euclidean", 0.1, 0.0, 0)
        assert abs(fused.availability() - 0.1) < 1e-3


def _rounded_moons(n, seed):
    """Moons with features rounded to one decimal: many tied distances."""
    ds = make_moons(n, 0.1, seed)
    return Dataset(ds.labels, ds.label_dict, np.round(ds.features, 1))


def _shifted_moons(n, seed):
    ds = make_moons(n, 0.1, seed)
    return Dataset(ds.labels, ds.label_dict, ds.features + np.array([2.0, 1.0]))


def _split_generation(ds, metric, proportion, noise, seed):
    train, test = split(ds, 0.2, seed)
    return (generate_training_set(train, metric, proportion, noise, seed),
            generate_test_set(test, train, metric, proportion, noise, seed + 1))


# sha256 of the saved training store and test set, recorded from the
# generator that enumerated the full C(n, 2) pair table for every anchor.
_PINNED_GENERATION = {
    "moons": (
        lambda: _split_generation(make_moons(200, 0.1, 0), "euclidean", 0.01, 0.1, 3),
        "47a14610fdc5f0c2ace3b2c8303b52fe8f24e3853e7851e861125a2b70dbebb5",
        "5d97ecab38fe49224a6c809603e3c2aa087082d36d9727efcbda917ac3ee2d3e"),
    "rounded_euclidean": (
        lambda: _split_generation(_rounded_moons(60, 1), "euclidean", 0.2, 0.1, 5),
        "121a193e6ddac17674ec7eba71dc913a5d5a500f0df31a31377466225a41d295",
        "6398df411df43fd59c6f6bfd778ebb49c8ab04610ce02161f84529ab21597ca3"),
    "rounded_cityblock": (
        lambda: _split_generation(_rounded_moons(60, 1), "cityblock", 0.2, 0.1, 5),
        "68da604faaa2d2b219453ea8344bcf9509b3d171e9dd8ad12eb86b1d4aa8f387",
        "0eed32bf645aefeeb77aa0cb18dbb7830a3d8d6cd2e6b76251e54090841adace"),
    "cosine": (
        lambda: _split_generation(_shifted_moons(80, 2), "cosine", 0.05, 0.1, 7),
        "4883cb7f006b55157180cdb8feb67811d2a17a32ef8c735c8f39c273f9bdd230",
        "19432587beea2ecc561754cac3e00b88d8a7b109306c6f8e3b93a101f36bb473"),
    "full_n30": (
        lambda: (generate_from_vectors(make_moons(30, 0.1, 1), "euclidean"), None),
        "7dbde030df6a569d6f5454c4ec6d7d6785a8175dce39d2fc7dddf664d6a260b7", None),
}


def _dense_oracle(feats, metric, proportion, seed, ref=None):
    """Reference sampler over the full pair table: per anchor, mask every
    C(m, 2) reference pair for strict inequality, then draw as the
    generators do.  Returns (anchor, lo, hi, near_lo) in canonical order."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
    other = feats if ref is None else ref
    dist = cdist(feats, other, metric=metric)
    lo, hi = np.triu_indices(other.shape[0], k=1)
    valid, near = [], []
    for a in range(feats.shape[0]):
        ok = dist[a, lo] != dist[a, hi]
        if ref is None:
            ok &= (lo != a) & (hi != a)
        valid.append(np.flatnonzero(ok))
        near.append(dist[a, lo] < dist[a, hi])
    counts = np.array([v.size for v in valid], dtype=np.int64)
    total = int(counts.sum())
    keep = total if proportion >= 1.0 else int(math.floor(proportion * total + 0.5))
    cols = ([], [], [], [])
    for a, ranks in enumerate(_per_group_take(counts, keep, rng)):
        if ranks is None:
            continue
        pos = valid[a][ranks]
        for col, part in zip(cols, (np.full(pos.size, a), lo[pos], hi[pos],
                                    near[a][pos])):
            col.append(part)
    return tuple(np.concatenate(c) if c else np.empty(0) for c in cols)


def _tied_features(draw, n, dim):
    """Small positive integer coordinates, so distances tie often."""
    values = draw(st.lists(st.integers(1, 4), min_size=n * dim, max_size=n * dim))
    return np.asarray(values, dtype=float).reshape(n, dim)


_proportions = st.sampled_from([0.0, 0.03, 0.3, 0.77, 1.0])


class TestGenerationOracle:
    @pytest.mark.parametrize("case", sorted(_PINNED_GENERATION))
    def test_saved_bytes_pinned(self, case, tmp_path):
        build, want_store, want_tset = _PINNED_GENERATION[case]
        store, tset = build()
        store.save(tmp_path / "store.txt")
        got = hashlib.sha256((tmp_path / "store.txt").read_bytes()).hexdigest()
        assert got == want_store
        if tset is not None:
            tset.save(tmp_path / "tset.txt")
            got = hashlib.sha256((tmp_path / "tset.txt").read_bytes()).hexdigest()
            assert got == want_tset

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(3, 40),
           dim=st.integers(1, 2), metric=st.sampled_from(("euclidean", "cityblock",
                                                          "cosine")),
           proportion=_proportions, seed=st.integers(0, 2**16))
    def test_training_matches_dense_oracle(self, data, n, dim, metric, proportion,
                                           seed):
        feats = _tied_features(data.draw, n, dim)
        ds = Dataset(np.zeros(n, dtype=np.int64), LabelDict(("a",)), feats)
        store = generate_training_set(ds, metric, proportion, 0.0, seed)
        want = _dense_oracle(feats, metric, proportion, seed)
        got = (store.anchors, store._lo, store._hi, store._near_lo)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n_train=st.integers(2, 40), n_test=st.integers(1, 8),
           dim=st.integers(1, 2), metric=st.sampled_from(("euclidean", "cityblock",
                                                          "cosine")),
           proportion=_proportions, seed=st.integers(0, 2**16))
    def test_test_set_matches_dense_oracle(self, data, n_train, n_test, dim, metric,
                                           proportion, seed):
        train_feats = _tied_features(data.draw, n_train, dim)
        test_feats = _tied_features(data.draw, n_test, dim)
        label = LabelDict(("a",))
        train = Dataset(np.zeros(n_train, dtype=np.int64), label, train_feats)
        test = Dataset(np.zeros(n_test, dtype=np.int64), label, test_feats)
        tset = generate_test_set(test, train, metric, proportion, 0.0, seed)
        want = _dense_oracle(test_feats, metric, proportion, seed, ref=train_feats)
        got = (tset.anchors, tset._lo, tset._hi, tset._near_lo)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


class TestSamplerLimit:
    def test_candidate_total_past_limit_rejected(self):
        counts = np.array([600_000_000, 500_000_000], dtype=np.int64)
        with pytest.raises(ValueError, match="1100000000 candidates.*1000000000"):
            _per_group_take(counts, 10, np.random.default_rng(0))

    def test_training_set_past_limit_rejected(self):
        """moons n=1300 has 1300 * C(1299, 2) > 1e9 candidates."""
        with pytest.raises(ValueError, match="fewer than 1000000000"):
            generate_training_set(make_moons(1300, 0.1, 0), "euclidean", 0.001, 0.0, 0)


class TestLookup:
    def test_three_way(self):
        store = TripletStore.from_triplets(3, [(0, 1, 2)])
        assert store.lookup(0, 1, 2) is Relation.FORWARD
        assert store.lookup(0, 2, 1) is Relation.REVERSE
        assert store.lookup(1, 0, 2) is Relation.ABSENT

    def test_equal_references_rejected(self):
        store = TripletStore.from_triplets(3, [(0, 1, 2)])
        with pytest.raises(ValueError):
            store.lookup(0, 1, 1)

    def test_anchor_may_be_reference(self):
        store = TripletStore.from_triplets(3, [(1, 1, 2)])
        assert store.lookup(1, 1, 2) is Relation.FORWARD


class TestStoreInvariants:
    def test_contradictory_construction_rejected(self):
        with pytest.raises(ValueError, match="contradictory triplet at triplet 1"):
            TripletStore.from_triplets(3, [(0, 1, 2), (0, 2, 1)])

    def test_duplicate_construction_rejected(self):
        with pytest.raises(ValueError, match="duplicate triplet at triplet 1"):
            TripletStore.from_triplets(3, [(0, 1, 2), (0, 1, 2)])

    def test_equality_covers_orientation(self):
        a = TripletStore.from_triplets(3, [(0, 1, 2)])
        b = TripletStore.from_triplets(3, [(0, 2, 1)])
        assert a != b

    def test_public_constructors_always_check_rows(self):
        with pytest.raises(TypeError):
            TripletStore(3, [0], [2], [1], [True], _trusted=True)
        with pytest.raises(TypeError):
            TestTripletSet(1, 3, [0], [2], [1], [True], _trusted=True)
        with pytest.raises(ValueError, match="unordered pair at row 0"):
            TestTripletSet(1, 3, [0], [2], [1], [True])


class TestStoreFiles:
    def test_round_trip(self, tmp_path):
        store = generate_training_set(make_moons(20, 0.1, 0), "euclidean",
                                      0.3, 0.1, 5)
        path = tmp_path / "t.txt"
        store.save(path)
        assert TripletStore.load(path) == store

    def test_byte_identical_saves(self, tmp_path):
        store = generate_training_set(make_moons(15, 0.1, 1), "euclidean",
                                      0.5, 0.0, 2)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        store.save(p1)
        TripletStore.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_contradictory_line_reported(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("tripletset v1 n=3 m=2\n0 1 2\n0 2 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="contradictory triplet at line 3"):
            TripletStore.load(path)

    def test_duplicate_line_reported(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("tripletset v1 n=3 m=2\n0 1 2\n0 1 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate triplet at line 3"):
            TripletStore.load(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("tripletset v2 n=3 m=0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="version mismatch"):
            TripletStore.load(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("tripletset v1 n=3\n0 1 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed header"):
            TripletStore.load(path)

    @pytest.mark.parametrize("text", [
        "tripletset v1 n=1_0 m=0\n",
        "tripletset v1 n=\uff11\uff10 m=0\n",  # full-width digits
        "testtriplets v1 n_test=2 n_train=1_0\n",
        "tripletboost-model v1 L=2 n=4 C=\uff11\na\tb\n",
    ])
    def test_header_values_follow_the_token_rule(self, tmp_path, text):
        """A header value is read as a line's id is: ASCII, without ``_``."""
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        load = {"tripletset": TripletStore.load, "testtriplets": TestTripletSet.load,
                "tripletboost-model": load_model}[text.split()[0]]
        with pytest.raises(ValueError, match="malformed header"):
            load(path)

    @pytest.mark.parametrize("text", [
        "tripletset v1 n=3 n=5 m=1\n0 1 2\n",
        "tripletset v1 n=3 m=1 m=1\n0 1 2\n",
        "testtriplets v1 n_test=1 n_train=3 n_test=2\n0 1 2\n",
        "tripletset v1 n=3 m=1 note note\n0 1 2\n",
    ])
    def test_repeated_header_key_malformed(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        load = TestTripletSet.load if text.startswith("test") else TripletStore.load
        with pytest.raises(ValueError, match="malformed header"):
            load(path)

    def test_oversized_header_universe_named(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("tripletset v1 n=99999999999999999999999 m=0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"universe size must be in \[1, "):
            TripletStore.load(path)

    def test_empty_store_round_trip(self, tmp_path):
        store = TripletStore.from_triplets(4, [])
        path = tmp_path / "e.txt"
        store.save(path)
        assert path.read_text(encoding="utf-8") == "tripletset v1 n=4 m=0\n"
        assert TripletStore.load(path) == store

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("tripletset v1 n=3 m=5\n0 1 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="claims m=5"):
            TripletStore.load(path)


class TestRatings:
    def test_unanimous_user_orients(self):
        """One user rating (5, 5, 1) pulls the first two items together."""
        table = RatingsTable(np.array([7, 7, 7]), np.array([0, 1, 2]),
                             np.array([5.0, 5.0, 1.0]), 3)
        store = generate_from_ratings(table)
        assert store.lookup(0, 1, 2) is Relation.FORWARD
        assert store.lookup(1, 0, 2) is Relation.FORWARD
        assert store.lookup(2, 0, 1) is Relation.ABSENT  # |5-1| == |5-1| tie

    def test_no_common_rater_no_triplet(self):
        table = RatingsTable(np.array([1, 2, 3]), np.array([0, 1, 2]),
                             np.array([5.0, 5.0, 1.0]), 3)
        assert generate_from_ratings(table).m == 0

    def test_opposite_votes_cancel(self):
        users = np.array([1, 1, 1, 2, 2, 2])
        items = np.array([0, 1, 2, 0, 1, 2])
        ratings = np.array([5.0, 5.0, 1.0, 5.0, 1.0, 5.0])
        store = generate_from_ratings(RatingsTable(users, items, ratings, 3))
        assert store.lookup(0, 1, 2) is Relation.ABSENT
        assert store.lookup(0, 2, 1) is Relation.ABSENT

    def test_candidate_limit_subset(self):
        rng = np.random.default_rng(0)
        users = np.repeat(np.arange(12), 8)
        items = np.concatenate([rng.choice(8, size=8, replace=False)
                                for _ in range(12)])
        ratings = rng.integers(1, 6, size=users.size).astype(float)
        table = RatingsTable(users, items, ratings, 8)
        full = generate_from_ratings(table)
        limited = generate_from_ratings(table, candidate_limit=40, seed=3)
        assert limited.m <= 40
        for t in limited:
            assert full.lookup(t.i, t.j, t.k) is Relation.FORWARD

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="empty ratings"):
            RatingsTable(np.empty(0, np.int64), np.empty(0, np.int64),
                         np.empty(0), 0)

    def test_duplicate_user_item_rejected(self, tmp_path):
        path = tmp_path / "ratings.txt"
        path.write_text("1 0 5\n1 1 3\n\n1 0 4\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate rating at line 4"):
            load_ratings(path)
        with pytest.raises(ValueError, match="duplicate"):
            RatingsTable(np.array([1, 1, 1]), np.array([0, 1, 0]),
                         np.array([5.0, 3.0, 4.0]), 2)

    def test_nonfinite_rating_rejected(self, tmp_path):
        path = tmp_path / "ratings.txt"
        path.write_text("1 0 5\n1 1 nan\n", encoding="utf-8")
        with pytest.raises(ValueError, match="non-finite rating at line 2"):
            load_ratings(path)
        with pytest.raises(ValueError, match="non-finite"):
            RatingsTable(np.array([1, 1]), np.array([0, 1]),
                         np.array([5.0, math.inf]), 2)

    def test_unrank_pair_enumerates_lexicographically(self):
        for m in range(2, 9):
            pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
            a, b = _unrank_pairs(np.arange(len(pairs)), m)
            assert list(zip(a.tolist(), b.tolist())) == pairs

    def test_unrank_pairs_boundaries_at_largest_universe(self):
        """First and last pair of each first element, at m = 2,000,000."""
        m = 2_000_000
        firsts = np.array([0, 1, 2, m // 2 - 1, m // 2, int(m / math.sqrt(2)),
                           m - 3, m - 2])
        offsets = firsts * m - firsts * (firsts + 1) // 2
        last = offsets + (m - 1 - firsts) - 1
        a, b = _unrank_pairs(np.concatenate([offsets, last]), m)
        np.testing.assert_array_equal(a, np.concatenate([firsts, firsts]))
        np.testing.assert_array_equal(b, np.concatenate([firsts + 1,
                                                         np.full(firsts.size, m - 1)]))
        assert last[-1] == m * (m - 1) // 2 - 1

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="lengths differ: 4, 3, 3"):
            RatingsTable(np.array([1, 1, 2, 2]), np.array([0, 1, 2]),
                         np.array([5.0, 3.0, 4.0]), 3)

    def test_item_id_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="item id 5 out of range for n_items=3"):
            RatingsTable(np.array([1, 1, 1]), np.array([0, 1, 5]),
                         np.array([5.0, 3.0, 4.0]), 3)


def _moons_store(proportion=0.3):
    return generate_training_set(make_moons(20, 0.1, 2), "euclidean", proportion, 0.1, 4)


def _moons_test_set():
    ds = make_moons(30, 0.1, 2)
    return generate_test_set(ds.take(np.arange(20, 30)), ds.take(np.arange(20)),
                             "euclidean", 0.3, 0.0, 4)


def _loaded_from_shuffled_file(tmp_path):
    """A saved store whose body lines are shuffled before loading it back."""
    path = tmp_path / "store.txt"
    _moons_store().save(path)
    header, *body = path.read_text(encoding="utf-8").splitlines()
    body = [body[i] for i in np.random.default_rng(0).permutation(len(body))]
    path.write_text("\n".join([header, *body]) + "\n", encoding="utf-8")
    return [TripletStore.load(path)]


def _from_shuffled_triplets(tmp_path):
    store = _moons_store()
    rows = list(store)
    order = np.random.default_rng(1).permutation(len(rows))
    return [TripletStore.from_triplets(store.n, [rows[i] for i in order])]


def _split_for_evaluation(tmp_path):
    from tripletboost import split_store_for_evaluation

    full = generate_training_set(make_moons(30, 0.1, 2), "euclidean", 0.3, 0.0, 4)
    return list(split_store_for_evaluation(full, np.arange(20), np.arange(20, 30)))


# Each builder returns the stores whose pair index is compared with a lexsort.
_PAIR_GROUP_STORES = {
    "generate_training_set": lambda tmp_path: [_moons_store()],
    "generate_test_set": lambda tmp_path: [_moons_test_set()],
    "load": _loaded_from_shuffled_file,
    "subsample": lambda tmp_path: [subsample(_moons_store(1.0), 0.3, 5)],
    "add_noise": lambda tmp_path: [add_noise(_moons_test_set(), 0.2, 6)],
    "from_triplets": _from_shuffled_triplets,
    "split_store_for_evaluation": _split_for_evaluation,
}


class TestTestTriplets:
    def test_generation_matches_training_protocol(self):
        """Test anchors orient training pairs by the same strict comparison."""
        train = _vec_dataset([0.0, 1.0, 3.0])
        test = _vec_dataset([2.9])
        tset = generate_test_set(test, train, "euclidean", 1.0, 0.0, 0)
        pairs = {tuple(p) for p in tset.pairs_for(0)}
        assert pairs == {(1, 0), (2, 0), (2, 1)}

    def test_round_trip(self, tmp_path):
        ds = make_moons(30, 0.1, 0)
        train, test = ds.take(np.arange(20)), ds.take(np.arange(20, 30))
        tset = generate_test_set(test, train, "cityblock", 0.4, 0.1, 3)
        path = tmp_path / "tt.txt"
        tset.save(path)
        assert TestTripletSet.load(path) == tset

    def test_contradictory_pair_rejected(self, tmp_path):
        path = tmp_path / "tt.txt"
        path.write_text("testtriplets v1 n_test=1 n_train=3\n0 1 2\n0 2 1\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="contradictory triplet at line 3"):
            TestTripletSet.load(path)

    def test_noise_and_proportion_apply(self):
        ds = make_moons(40, 0.1, 5)
        train, test = ds.take(np.arange(30)), ds.take(np.arange(30, 40))
        clean = generate_test_set(test, train, "euclidean", 1.0, 0.0, 1)
        sampled = generate_test_set(test, train, "euclidean", 0.2, 0.0, 1)
        assert sampled.m == int(math.floor(0.2 * clean.m + 0.5))

    def test_dimension_mismatch_rejected(self):
        train = _vec_dataset(np.arange(8.0).reshape(4, 2))
        test = _vec_dataset([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError, match="dimension 3 but training features "
                                             "have dimension 2"):
            generate_test_set(test, train, "euclidean", 1.0, 0.0, 0)

    def test_degenerate_pair_rejected_in_memory(self):
        with pytest.raises(ValueError, match="must differ"):
            TestTripletSet(1, 3, [0], [1], [1], [True])

    def test_unordered_pair_rejected_in_memory(self):
        with pytest.raises(ValueError, match="lo < hi"):
            TestTripletSet(1, 3, [0], [2], [1], [True])

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="column lengths differ: 2, 1, 1, 1"):
            TestTripletSet(1, 3, [0, 0], [1], [2], [True])

    @pytest.mark.parametrize("rows, message", [
        ("0 1 2\n1 0 2\n", "example id out of range at line 3"),
        ("0 1 2\n0 1 3\n", "example id out of range at line 3"),
        ("0 0 1\n0 1 2\n0 1 2\n", "duplicate triplet at line 4"),
        ("0 2 2\n", "degenerate triplet at line 2"),
        ("0 1 2\n\n0 2 1\n", "contradictory triplet at line 4"),  # blank lines count
        ("0 2 1\n0 0 1\n0 1 2\n0 1 1\n", "contradictory triplet at line 4"),  # first wins
    ])
    def test_load_names_the_line(self, tmp_path, rows, message):
        path = tmp_path / "tt.txt"
        path.write_text("testtriplets v1 n_test=1 n_train=3\n" + rows, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            TestTripletSet.load(path)

    @pytest.mark.parametrize("header", ["n_test=3 n_train=4000000000",
                                        "n_test=0 n_train=0"])
    def test_universes_outside_int64_keys_rejected(self, tmp_path, header):
        """Packed keys (x*n + lo)*n + hi would overflow, or there is no universe."""
        path = tmp_path / "tt.txt"
        path.write_text(f"testtriplets v1 {header}\n0 1 2\n1 1 2\n2 1 2\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="universe"):
            TestTripletSet.load(path)

    def test_anchor_universe_bounded_by_key_width(self):
        n = 2_000_000
        limit = (2**63 - 1) // (n * n)
        with pytest.raises(ValueError, match=f"anchor universe must be in \\[1, {limit}\\]"):
            TestTripletSet(limit + 1, n, [], [], [], [])
        tset = TestTripletSet(limit, n, [limit - 1, 0], [n - 2, 0], [n - 1, 1],
                              [True, False])
        assert tset.anchors.tolist() == [0, limit - 1]
        assert tset.lookup(limit - 1, n - 2, n - 1) is Relation.FORWARD
        assert tset.pairs_for(0).tolist() == [[1, 0]]

    def test_availability_counts_all_training_pairs(self):
        """A test anchor pairs all n_train training examples, itself not among them."""
        train = _vec_dataset([0.0, 1.0, 3.0])
        tset = generate_test_set(_vec_dataset([2.9, 7.0]), train, "euclidean", 1.0, 0.0, 0)
        assert tset.m == 6
        assert tset.availability() == 1.0

    def test_equals_composition(self):
        """As for training stores, one pass equals generate -> subsample -> add_noise,
        and both operations keep the test set's kind and universes."""
        ds = make_moons(40, 0.1, 4)
        train, test = ds.take(np.arange(30)), ds.take(np.arange(30, 40))
        full = generate_test_set(test, train, "euclidean", 1.0, 0.0, 0)
        for seed in (0, 1, 99):
            sub_seed, noise_seed = np.random.SeedSequence(seed).spawn(2)
            composed = add_noise(subsample(full, 0.08, sub_seed), 0.15, noise_seed)
            assert type(composed) is TestTripletSet
            assert (composed.n_test, composed.n_train) == (10, 30)
            assert composed == generate_test_set(test, train, "euclidean", 0.08, 0.15, seed)

    @pytest.mark.parametrize("make", sorted(_PAIR_GROUP_STORES))
    def test_pair_groups_regroup_rows(self, make, tmp_path):
        """``pair_groups`` equals a three-key sort (pair, far side, anchor) for a
        store from every constructor: its distinct keys, expanded by their group
        bounds, are the sorted pair keys; its anchors follow the same order; and
        each pair splits where its rows closer to hi begin."""
        for store in _PAIR_GROUP_STORES[make](tmp_path):
            pkeys = store._lo.astype(np.int64) * store.n + store._hi
            order = np.lexsort((store.anchors, ~store._near_lo, pkeys))
            keys, bounds, split, anchors = store.pair_groups()
            assert np.unique(pkeys).size < store.m  # several anchors share a pair
            assert keys.dtype == np.int64 and np.array_equal(keys, np.unique(pkeys))
            assert bounds[0] == 0 and bounds[-1] == store.m and (np.diff(bounds) > 0).all()
            assert anchors.dtype == store.anchors.dtype
            assert np.array_equal(np.repeat(keys, np.diff(bounds)), pkeys[order])
            assert np.array_equal(anchors, store.anchors[order])
            # in the sort, each pair's rows closer to lo come first
            near_lo = store._near_lo[order].astype(np.int64)
            assert np.array_equal(split, bounds[:-1] + np.add.reduceat(near_lo, bounds[:-1]))
            assert not any(col.flags.writeable for col in (keys, bounds, split, anchors))

    def test_not_equal_to_store_with_same_rows(self):
        store = TripletStore(3, [0], [1], [2], [True])
        tset = TestTripletSet(3, 3, [0], [1], [2], [True])
        assert store != tset and tset != store


class TestEvaluationSplit:
    def test_restriction_matches_per_universe_generation(self):
        """Splitting a full store equals generating each part over its ids."""
        from tripletboost import split_store_for_evaluation

        ds = make_moons(20, 0.1, 6)
        full = generate_from_vectors(ds, "euclidean")
        train_ids, test_ids = np.arange(14), np.arange(14, 20)
        train_store, test_set = split_store_for_evaluation(full, train_ids,
                                                           test_ids)
        want_train = generate_from_vectors(ds.take(train_ids), "euclidean")
        assert train_store == want_train
        want_test = generate_test_set(ds.take(test_ids), ds.take(train_ids),
                                      "euclidean", 1.0, 0.0, 0)
        assert test_set == want_test

    def test_disjointness_enforced(self):
        from tripletboost import split_store_for_evaluation

        full = generate_from_vectors(make_moons(10, 0.1, 0), "euclidean")
        with pytest.raises(ValueError, match="disjoint"):
            split_store_for_evaluation(full, [0, 1, 2], [2, 3])

    def test_empty_test_ids_rejected(self):
        """A test set has at least one anchor."""
        from tripletboost import split_store_for_evaluation

        full = generate_from_vectors(make_moons(10, 0.1, 0), "euclidean")
        with pytest.raises(ValueError, match="one test id"):
            split_store_for_evaluation(full, [0, 1, 2], [])

    @pytest.mark.parametrize("train_ids, test_ids, at", [
        ([0.5, 1.7, 2.2, 3.9], [5], "row 0"),
        ([0, 1, 2.0, 3], [4.0, 5.5], "row 1"),
        ([0, 1, math.nan], [4], "row 2"),
    ])
    def test_fractional_or_nan_ids_rejected(self, train_ids, test_ids, at):
        """An id is an integer: a fraction or a NaN is named, never truncated."""
        from tripletboost import split_store_for_evaluation

        full = generate_from_vectors(make_moons(10, 0.1, 0), "euclidean")
        with pytest.raises(ValueError, match=f"^id not an int64 integer at {at}$"):
            split_store_for_evaluation(full, train_ids, test_ids)


class TestRecordChecks:
    """One check per record type: in memory it names the row, in a file the line."""

    _STORE = "tripletset v1 n=3 m=2\n"

    @pytest.mark.parametrize("stem, in_memory, text, load, at", [
        ("degenerate triplet", lambda: TripletStore(3, [0, 0], [1, 1], [2, 1], [True, True]),
         _STORE + "0 1 2\n0 1 1\n", TripletStore.load, "line 3"),
        ("example id out of range",
         lambda: TripletStore(3, [0, 3], [1, 1], [2, 2], [True, True]),
         _STORE + "0 1 2\n3 1 2\n", TripletStore.load, "line 3"),
        ("duplicate triplet", lambda: TripletStore(3, [0, 0], [1, 1], [2, 2], [True, True]),
         _STORE + "0 1 2\n0 1 2\n", TripletStore.load, "line 3"),
        ("contradictory triplet",
         lambda: TestTripletSet(1, 3, [0, 0], [1, 1], [2, 2], [True, False]),
         "testtriplets v1 n_test=1 n_train=3\n0 1 2\n0 2 1\n", TestTripletSet.load,
         "line 3"),
        # a ratings file has no header: its first line is blank
        ("duplicate rating", lambda: RatingsTable(np.array([1, 1]), np.array([0, 0]),
                                                  np.array([5.0, 4.0]), 1),
         "\n1 0 5\n1 0 4\n", load_ratings, "line 3"),
        ("non-finite rating", lambda: RatingsTable(np.array([1, 1]), np.array([0, 1]),
                                                   np.array([5.0, math.nan]), 2),
         "\n1 0 5\n1 1 nan\n", load_ratings, "line 3"),
        ("negative item id", lambda: RatingsTable(np.array([1, 1]), np.array([0, -1]),
                                                  np.array([5.0, 4.0]), 1),
         "\n1 0 5\n1 -1 4\n", load_ratings, "line 3"),
        ("id not an int64 integer",
         lambda: RatingsTable([1, 2**64], [0, 1], [5.0, 4.0], 2),
         "\n1 0 5\n18446744073709551616 1 4\n", load_ratings, "line 3"),
        ("malformed row", lambda: Dataset(np.array([0, 1]), LabelDict(("a", "b")),
                                          np.array([[1.0], [math.inf]])),
         "label,f1\na,1.0\nb,inf\n", lambda path: load_csv(path, has_header=True), "row 3"),
    ], ids=["degenerate", "out-of-range", "duplicate", "contradictory", "duplicate-rating",
            "non-finite-rating", "negative-item", "oversized-id", "non-finite-feature"])
    def test_memory_and_file_agree(self, tmp_path, stem, in_memory, text, load, at):
        with pytest.raises(ValueError, match=f"^{stem} at row 1"):
            in_memory()
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{stem} at {at}"):
            load(path)

    @pytest.mark.parametrize("make, message", [
        (lambda: TripletStore(3, [0], [5], [1], [True]), "example id out of range at row 0"),
        (lambda: TripletStore(3, [0], [2], [-1], [True]),
         "example id out of range at row 0"),
        (lambda: RatingsTable(np.array([1.0, 1.5]), np.array([0, 1]), np.array([5.0, 4.0]),
                              2), "id not an int64 integer at row 1"),
        (lambda: RatingsTable(np.array([1, 1, 2]), np.array([0, 0, -1]),
                              np.array([5.0, 4.0, math.nan]), 2), "duplicate rating at row 1"),
        (lambda: RatingsTable(np.array([1, 2, 1]), np.array([0, 5, 0]),
                              np.array([5.0, math.nan, 4.0]), 2),
         "item id 5 out of range for n_items=2 at row 1"),
    ])
    def test_memory_rows_named_by_kind(self, make, message):
        """An unordered in-memory row with an id out of range is named as out of range,
        and of several bad rows the first is named."""
        with pytest.raises(ValueError, match=f"^{message}"):
            make()

    def test_constructors_name_the_triplet_or_pair(self):
        with pytest.raises(ValueError, match="example id out of range at triplet 2"):
            TripletStore.from_triplets(3, [(0, 1, 2), (1, 0, 2), (2, 5, 0)])
        model = StrongModel([TripletClassifier(0, 1, 0b01, 0b10, 0.5)],
                            LabelDict(("a", "b")), 4)
        with pytest.raises(ValueError, match="degenerate triplet at pair 2"):
            score(model, [(0, 1), (3, 2), (2, 2)])

    @pytest.mark.parametrize("make, message", [
        (lambda model: TripletStore.from_triplets(3, [(0, 1, 2), (1, 2**64, 2)]),
         "id not an int64 integer at triplet 1"),
        (lambda model: TripletStore.from_triplets(3, [(0, 1, 2), (1, 0, 2), (2, 1, -2**63 - 1)]),
         "id not an int64 integer at triplet 2"),
        (lambda model: score(model, [(0, 1), (2**64, 2)]), "id not an int64 integer at pair 1"),
        (lambda model: score_naive(model, [(0, 1), (3, 2), (1, 2**70)]),
         "id not an int64 integer at pair 2"),
    ])
    def test_oversized_ids_name_the_triplet_or_pair(self, make, message):
        model = StrongModel([TripletClassifier(0, 1, 0b01, 0b10, 0.5)],
                            LabelDict(("a", "b")), 4)
        with pytest.raises(ValueError, match=message):
            make(model)

    @pytest.mark.parametrize("header, body, message", [
        ("tripletset v1 n=3 m=3", "0 1 2\n0 1 2\n0 1 x\n", "duplicate triplet at line 3"),
        ("tripletset v1 n=3 m=3", "0 1 2\n\n0 1 7\n0 1\n", "out of range at line 4"),
        ("testtriplets v1 n_test=1 n_train=3", "0 1 2\n0 2 1\n0 1 2 0\n",
         "contradictory triplet at line 3"),
        ("testtriplets v1 n_test=1 n_train=3", "0 1 2\n0 1 x\n0 1 2\n",
         "malformed triplet at line 3"),
    ])
    def test_first_bad_line_wins(self, tmp_path, header, body, message):
        """Rows above a malformed line are checked before it is reported."""
        path = tmp_path / "bad.txt"
        path.write_text(f"{header}\n{body}", encoding="utf-8")
        load = TestTripletSet.load if header.startswith("test") else TripletStore.load
        with pytest.raises(ValueError, match=message):
            load(path)

    @pytest.mark.parametrize("header, body, line", [
        ("tripletset v1 n=6 m=2", "0 1 2 3\n4 5\n", 2),
        ("testtriplets v1 n_test=2 n_train=5", "0 1 2 1\n3 4\n", 2),
        ("tripletset v1 n=6 m=2", "0 1 2\n\n3 4\n5\n", 4),
        ("tripletset v1 n=6 m=2", "0 1 2\n3 4 5.0\n", 3),
        ("tripletset v1 n=3 m=1", "99999999999999999999 1 2\n", 2),
        ("testtriplets v1 n_test=1 n_train=3", "0 1 2\n0 1 -9223372036854775809\n", 3),
    ])
    def test_each_line_holds_three_int64_ids(self, tmp_path, header, body, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"{header}\n{body}", encoding="utf-8")
        load = TestTripletSet.load if header.startswith("test") else TripletStore.load
        with pytest.raises(ValueError, match=f"malformed triplet at line {line}: "
                                             "expected three int64 ids"):
            load(path)

    def test_malformed_rating_waits_for_the_rows_above(self, tmp_path):
        path = tmp_path / "ratings.txt"
        path.write_text("1 0 5\n1 0 4\n1 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate rating at line 2"):
            load_ratings(path)
        path.write_text("1 0 5\n1 1\n1 0 4\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed rating at line 2"):
            load_ratings(path)
        path.write_text("1 0 x\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed rating at line 1"):
            load_ratings(path)

    # Per whitespace format: the lines above its rows, a valid row, a bad row, a
    # line with "{}" where an id and where a real number go, its loader and what
    # it calls a malformed line.
    _FORMATS = {
        "triplets": ("tripletset v1 n=20 m=3\n", "0 1 2\n", "0 2 1\n",
                     {"id": "0 {} 2\n", "number": "0 {} 2\n"}, TripletStore.load,
                     "malformed triplet"),
        "model": ("tripletboost-model v1 L=2 n=20 C=3\na\tb\n", "0 1 0.5 1 2\n",
                  "0 2 nan 1 2\n", {"id": "0 {} 0.5 1 2\n", "number": "0 1 {} 1 2\n"},
                  load_model, "malformed classifier"),
        "ratings": ("", "1 0 5\n", "1 0 4\n", {"id": "1 {} 4\n", "number": "1 1 {}\n"},
                    load_ratings, "malformed rating"),
    }

    @pytest.mark.parametrize("kind", ["triplets", "model", "ratings"])
    @pytest.mark.parametrize("slot, token", [
        ("id", "1_0"), ("id", "\uff11"), ("id", "1\u00a0"), ("number", "1_0.5"),
    ], ids=["underscore", "full-width-digit", "no-break-space", "underscore-real"])
    def test_one_token_rule(self, tmp_path, kind, slot, token):
        """Each format refuses a line with ``_`` or a non-ASCII character, which
        ``int`` and ``float`` would read, and checks the rows above it first."""
        head, good, bad, lines, load, malformed = self._FORMATS[kind]
        line = lines[slot].format(token)
        path = tmp_path / "bad.txt"
        first = head.count("\n") + 2
        path.write_text(head + good + line, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{malformed} at line {first}"):
            load(path)
        path.write_text(head + good + bad + line, encoding="utf-8")
        with pytest.raises(ValueError, match=f"at line {first}$"):
            load(path)

    @pytest.mark.parametrize("kind", ["model", "ratings"])
    @pytest.mark.parametrize("space", ["\x0c", "\x1c"], ids=["form-feed", "file-separator"])
    def test_lines_end_only_at_lf(self, tmp_path, kind, space):
        """A form feed or \\x1c inside a line is whitespace, not a line break, so the
        bad line after it keeps its number."""
        head, good, bad, _, load, _ = self._FORMATS[kind]
        head = head or "\n\n"  # a ratings file has no header: its line 3 is the row
        path = tmp_path / "bad.txt"
        path.write_text(head + good.replace(" ", space, 1) + bad, encoding="utf-8")
        with pytest.raises(ValueError, match="at line 4$"):
            load(path)


def _line_reader_load(cls, path):
    """What ``cls.load`` must give for a file: its header, then its body read by the
    line reader alone (``_records``) and checked by the store's constructor."""
    kind, names = (("testtriplets", ("n_test", "n_train")) if cls is TestTripletSet
                   else ("tripletset", ("n", "n", "m")))
    header, _, body = path.read_text(encoding="utf-8").partition("\n")
    values = tb_triplets._parse_header(header, kind, names, path)
    rows, name, bad = tb_triplets._records(body, 2, lambda i, j, k: (
        tb_triplets._int64(i), tb_triplets._int64(j), tb_triplets._int64(k)))
    ids = np.array(rows, dtype=np.int64).reshape(-1, 3)
    store = cls._from_ijk(*values[:2], *ids.T, name)
    if bad is not None:
        raise ValueError(f"malformed triplet at line {bad[0]}: expected three int64 ids")
    if cls is TripletStore and store.m != values[2]:
        raise ValueError(f"header claims m={values[2]} but file has {store.m} triplets")
    return store


def _outcome(load):
    """A loader's store, or the text of its ValueError."""
    try:
        return load()
    except ValueError as error:
        return str(error)


_TWEAKS = ("tab", "double-space", "blank-line", "sign", "bad-token", "no-final-lf")


@st.composite
def _id_files(draw, test_set):
    """(header, body) of a triplet file: rows of ids with 1-20 digits, some with
    leading zeros or past 255, and a few tweaks off the writer's grammar."""
    n = draw(st.integers(1, 400))
    n_anchors = draw(st.integers(1, 400)) if test_set else n
    digits = draw(st.sampled_from([3, 18, 20]))  # the widest token a body may hold
    anchor, ref = st.integers(0, n_anchors - 1), st.integers(0, n - 1)
    if draw(st.booleans()):  # ids out of range too, up to the widest token
        wide = st.integers(0, 10**digits - 1)
        anchor, ref = st.one_of(anchor, anchor, anchor, wide), st.one_of(ref, ref, ref, wide)
    rows = draw(st.lists(st.tuples(anchor, ref, ref), max_size=30))
    lines = [" ".join(str(v).zfill(draw(st.integers(1, digits))) for v in row)
             for row in rows]
    tweaks = draw(st.lists(st.sampled_from(_TWEAKS), max_size=2))
    for tweak in tweaks:
        at = draw(st.integers(0, max(len(lines) - 1, 0)))
        if not lines or tweak == "no-final-lf":
            continue
        if tweak == "tab":
            lines[at] = lines[at].replace(" ", "\t", 1)
        elif tweak == "double-space":
            lines[at] = lines[at].replace(" ", "  ", 1)
        elif tweak == "blank-line":
            lines.insert(at, "")
        elif tweak == "sign":
            lines[at] = draw(st.sampled_from("+-")) + lines[at]
        else:
            bad = draw(st.sampled_from(["x", "1.0", "1_0", "1e3", ""]))
            lines[at] = lines[at].rpartition(" ")[0] + " " + bad
    body = "".join(line + "\n" for line in lines)
    if "no-final-lf" in tweaks:
        body = body[:-1]
    header = (f"testtriplets v1 n_test={n_anchors} n_train={n}" if test_set
              else f"tripletset v1 n={n} m={len(rows)}")
    return header, body


class TestReaderRoutes:
    """A body in the writer's grammar is read from its bytes, any other body by the
    line reader; the two give the same stores and the same errors."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), test_set=st.booleans(), block=st.sampled_from([1, 20, 1 << 20]))
    def test_routes_agree_with_the_line_reader(self, tmp_path_factory, data, test_set,
                                               block):
        header, body = data.draw(_id_files(test_set))
        path = tmp_path_factory.mktemp("routes") / "triplets.txt"
        path.write_text(f"{header}\n{body}", encoding="utf-8")
        cls = TestTripletSet if test_set else TripletStore
        with mock.patch.object(tb_triplets, "_PARSE_BLOCK", block):
            got = _outcome(lambda: cls.load(path))
        want = _outcome(lambda: _line_reader_load(cls, path))
        assert type(got) is type(want) and got == want

    @pytest.mark.parametrize("body", [
        "", "\n", "0 1 2", "0 1 2\n\n", "\n0 1 2\n", "0 1 2 \n", " 0 1 2\n", "0 1 \n",
        " 1 2\n", "0 1 2\r\n", "0 1 2\n3 4\n", "0 1 2 3\n", "0\t1 2\n", "0 +1 2\n",
        "0 1 000000000000000002\n", "0 1 0000000000000000002\n", "0 1 9999999999999999999\n",
        "0 1 302\n0 2 1\n", "0 1 2\n0 1 2", "0 1 2\n٣ 1 2\n", "0 1\n2\n", "0\n1 2\n",
    ])
    def test_grammar_edges_agree_with_the_line_reader(self, tmp_path, body):
        path = tmp_path / "triplets.txt"
        path.write_text(f"testtriplets v1 n_test=1 n_train=400\n{body}", encoding="utf-8")
        got = _outcome(lambda: TestTripletSet.load(path))
        assert got == _outcome(lambda: _line_reader_load(TestTripletSet, path))

    def test_writer_body_needs_no_line_reader(self, tmp_path, monkeypatch):
        """A saved store loads, and its repeated last line is named, without a scan."""
        store = generate_training_set(make_moons(30, 0.1, 0), "euclidean", 0.5, 0.0, 1)
        path = tmp_path / "t.txt"
        store.save(path)

        def no_scan(*args):
            raise AssertionError("the line reader ran")

        monkeypatch.setattr(tb_triplets, "_records", no_scan)
        assert TripletStore.load(path) == store
        text = path.read_text(encoding="utf-8")
        path.write_text(text + text.splitlines(keepends=True)[-1], encoding="utf-8")
        with pytest.raises(ValueError, match=f"^duplicate triplet at line {store.m + 2}$"):
            TripletStore.load(path)


class TestMemoryBudget:
    def test_bytes_per_row(self):
        """A generated store holds 13 bytes a row (int32 anchor, lo, hi and the bool
        near_lo) and its pair index 5 (int32 anchor and bool near_lo, plus a key and
        a bound per distinct pair); generation writes its rows into the store's own
        columns, and the index sorts one 8-byte key a row in place.  Measured with
        tracemalloc, which counts numpy's buffers exactly on any machine."""
        ds = make_moons(120, 0.1, 0)
        tracemalloc.start()
        try:
            store = generate_training_set(ds, "euclidean", 0.5, 0.0, 1)
            held, gen_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            store.pair_groups()
            index_held, index_peak = (v - held for v in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        per_row = np.array([held, gen_peak, index_held, index_peak]) / store.m
        assert store.m > 400_000
        assert per_row[0] <= 13.5, f"store holds {per_row[0]:.2f} B/row"
        assert per_row[1] <= 16.0, f"generation peaks at {per_row[1]:.2f} B/row"
        assert per_row[2] <= 6.5, f"pair index holds {per_row[2]:.2f} B/row"
        assert per_row[3] <= 16.0, f"pair index build peaks at {per_row[3]:.2f} B/row"
