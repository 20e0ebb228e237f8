"""Triplet generation, perturbation, persistence, and query contracts."""

import math

import numpy as np
import pytest

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
    load_ratings,
    make_moons,
    subsample,
)
from tripletboost.triplets import _unrank_pair


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
        with pytest.raises(ValueError, match="duplicate or contradictory"):
            TripletStore.from_triplets(3, [(0, 1, 2), (0, 2, 1)])

    def test_duplicate_construction_rejected(self):
        with pytest.raises(ValueError, match="duplicate or contradictory"):
            TripletStore.from_triplets(3, [(0, 1, 2), (0, 1, 2)])

    def test_equality_covers_orientation(self):
        a = TripletStore.from_triplets(3, [(0, 1, 2)])
        b = TripletStore.from_triplets(3, [(0, 2, 1)])
        assert a != b


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
        m = 7
        pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
        assert [_unrank_pair(r, m) for r in range(len(pairs))] == pairs


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
        with pytest.raises(ValueError, match="duplicate or contradictory"):
            TestTripletSet.load(path)

    def test_noise_and_proportion_apply(self):
        ds = make_moons(40, 0.1, 5)
        train, test = ds.take(np.arange(30)), ds.take(np.arange(30, 40))
        clean = generate_test_set(test, train, "euclidean", 1.0, 0.0, 1)
        sampled = generate_test_set(test, train, "euclidean", 0.2, 0.0, 1)
        assert sampled.m == int(math.floor(0.2 * clean.m + 0.5))


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
