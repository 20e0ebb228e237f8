"""Label-set selection, weighted performance, vote weights, and the normalizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletboost import (
    Dataset,
    LabelDict,
    Relation,
    RoundStats,
    TripletClassifier,
    TripletStore,
    bitmask,
    classifier_alpha,
    init_weights,
    mask_labels,
    round_weights,
    select_labels,
    update_weights,
    z_factor,
)

# -- independent oracles: literal sums over the defining formulas ---------------


def fired_sides(store, j, k, n):
    fwd = [i for i in range(n) if store.lookup(i, j, k) is Relation.FORWARD]
    rev = [i for i in range(n) if store.lookup(i, j, k) is Relation.REVERSE]
    return fwd, rev


def oracle_mask(bucket, labels, w, n_labels):
    mask = 0
    for y in range(n_labels):
        total = sum((1.0 if labels[i] == y else -1.0) * w[i, y] for i in bucket)
        if total > 0.0:
            mask |= 1 << y
    return mask


def oracle_w_pm(fwd, rev, mask_f, mask_r, labels, w, n_labels):
    w_plus = w_minus = 0.0
    for bucket, mask in ((fwd, mask_f), (rev, mask_r)):
        for i in bucket:
            for y in range(n_labels):
                in_set = bool((mask >> y) & 1)
                if (y == labels[i]) == in_set:
                    w_plus += w[i, y]
                else:
                    w_minus += w[i, y]
    return w_plus, w_minus


def random_instance(rng, n_max=8, n_labels_max=3):
    """A dataset, a one-pair store with random firing, and a random distribution."""
    n = int(rng.integers(3, n_max + 1))
    n_labels = int(rng.integers(2, n_labels_max + 1))
    labels = rng.integers(0, n_labels, size=n)
    labels[0], labels[1] = 0, 1  # two classes guaranteed
    names = tuple(chr(ord("a") + y) for y in range(n_labels))
    ds = Dataset(labels, LabelDict(names), None)
    j, k = rng.choice(n, size=2, replace=False)
    rows = []
    for i in range(n):
        u = rng.random()
        if u < 0.35:
            rows.append((i, j, k))
        elif u < 0.7:
            rows.append((i, k, j))
    store = TripletStore.from_triplets(n, rows)
    w = rng.random((n, n_labels))
    w /= w.sum()
    return ds, store, w, int(j), int(k)


class TestSelectLabels:
    def test_no_fired_examples_gives_empty_sets(self):
        ds = Dataset(np.array([0, 1, 0]), LabelDict(("a", "b")))
        store = TripletStore.from_triplets(3, [])
        assert select_labels(0, 1, store, ds, init_weights(3, 2)) == (0, 0)

    def test_hand_worked_three_examples(self):
        """Two supporters and one opponent leave only the majority label."""
        ds = Dataset(np.array([0, 0, 1]), LabelDict(("a", "b")))
        store = TripletStore.from_triplets(
            3, [(0, 0, 2), (1, 0, 2), (2, 0, 2)])
        o_j, o_k = select_labels(0, 2, store, ds, init_weights(3, 2))
        assert (o_j, o_k) == (0b01, 0)

    def test_balanced_votes_excluded_by_strictness(self):
        """One supporter and one opponent of equal weight leave the set empty."""
        ds = Dataset(np.array([0, 1, 0]), LabelDict(("a", "b")))
        store = TripletStore.from_triplets(3, [(0, 1, 2), (1, 1, 2)])
        w = init_weights(3, 2)
        o_j, o_k = select_labels(1, 2, store, ds, w)
        assert o_j == 0  # +w - w == 0 for both labels
        assert o_k == 0  # nothing fired on the reverse side

    def test_matches_literal_formula_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            ds, store, w, j, k = random_instance(rng)
            fwd, rev = fired_sides(store, j, k, ds.n)
            got = select_labels(j, k, store, ds, w)
            want = (oracle_mask(fwd, ds.labels, w, ds.n_labels),
                    oracle_mask(rev, ds.labels, w, ds.n_labels))
            assert got == want


class TestRoundWeights:
    def test_all_abstain_gives_zero(self):
        ds = Dataset(np.array([0, 1, 0]), LabelDict(("a", "b")))
        store = TripletStore.from_triplets(3, [])
        h = TripletClassifier(0, 1, 0b01, 0, 0.0)
        assert round_weights(h, store, ds, init_weights(3, 2)) == (0.0, 0.0)

    def test_hand_worked_three_examples(self):
        ds = Dataset(np.array([0, 0, 1]), LabelDict(("a", "b")))
        store = TripletStore.from_triplets(
            3, [(0, 0, 2), (1, 0, 2), (2, 0, 2)])
        h = TripletClassifier(0, 2, 0b01, 0, 0.0)
        w_plus, w_minus = round_weights(h, store, ds, init_weights(3, 2))
        assert math.isclose(w_plus, 2.0 / 3.0, abs_tol=1e-12)
        assert math.isclose(w_minus, 1.0 / 3.0, abs_tol=1e-12)

    def test_perfect_classifier_has_no_incorrect_mass(self):
        ds = Dataset(np.array([0, 0, 1]), LabelDict(("a", "b")))
        store = TripletStore.from_triplets(3, [(0, 0, 2), (1, 0, 2)])
        h = TripletClassifier(0, 2, 0b01, 0, 0.0)
        w_plus, w_minus = round_weights(h, store, ds, init_weights(3, 2))
        assert w_minus == 0.0
        assert w_plus > 0.0

    def test_matches_literal_formula_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            ds, store, w, j, k = random_instance(rng)
            o_j, o_k = select_labels(j, k, store, ds, w)
            got = round_weights(TripletClassifier(j, k, o_j, o_k, 0.0),
                                store, ds, w)
            fwd, rev = fired_sides(store, j, k, ds.n)
            want = oracle_w_pm(fwd, rev, o_j, o_k, ds.labels, w, ds.n_labels)
            assert got == pytest.approx(want, abs=1e-12)


class TestClassifierAlpha:
    def test_balanced_mass_gives_zero(self):
        assert classifier_alpha(0.4, 0.4, 17) == 0.0

    def test_hand_values(self):
        assert classifier_alpha(2/3, 1/3, 3) == pytest.approx(
            0.5 * math.log(1.5), abs=1e-12)
        assert classifier_alpha(0.3, 0.1, 10) == pytest.approx(
            0.5 * math.log(2.0), abs=1e-12)

    def test_finite_even_at_zero_mass(self):
        assert math.isfinite(classifier_alpha(0.0, 0.0, 5))
        assert math.isfinite(classifier_alpha(1.0, 0.0, 5))

    @settings(max_examples=300, deadline=None)
    @given(plus_grid=st.integers(0, 1000), minus_grid=st.integers(0, 1000),
           n=st.integers(1, 10**6))
    def test_sign_tracks_mass_difference(self, plus_grid, minus_grid, n):
        """On a grid coarse enough for exact float comparisons, the vote
        weight is positive/zero/negative exactly as W+ exceeds/equals/trails W-."""
        w_plus, w_minus = plus_grid / 1000.0, minus_grid / 1000.0
        alpha = classifier_alpha(w_plus, w_minus, n)
        if plus_grid > minus_grid:
            assert alpha > 0.0
        elif plus_grid < minus_grid:
            assert alpha < 0.0
        else:
            assert alpha == 0.0

    def test_zero_iff_balanced_under_selection(self):
        """With selected label sets, nonzero weight means strictly useful."""
        rng = np.random.default_rng(31)
        for _ in range(200):
            ds, store, w, j, k = random_instance(rng)
            o_j, o_k = select_labels(j, k, store, ds, w)
            w_plus, w_minus = round_weights(
                TripletClassifier(j, k, o_j, o_k, 0.0), store, ds, w)
            alpha = classifier_alpha(w_plus, w_minus, ds.n)
            assert alpha >= 0.0
            assert (alpha != 0.0) == (w_plus > w_minus)


class TestZFactor:
    def test_symmetric_mass_gives_one(self):
        assert z_factor(0.5, 0.5, 3) == 1.0
        assert z_factor(0.0, 0.0, 99) == 1.0

    def test_hand_value(self):
        want = 0.6 + 0.3 * math.sqrt(0.5) + 0.1 * math.sqrt(2.0)
        assert z_factor(0.3, 0.1, 10) == pytest.approx(want, abs=1e-12)
        assert z_factor(0.3, 0.1, 10) == pytest.approx(0.95355, abs=5e-6)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_never_exceeds_one(self, data):
        w_plus = data.draw(st.floats(0.0, 1.0))
        w_minus = data.draw(st.floats(0.0, 1.0 - w_plus))
        n = data.draw(st.integers(1, 10**6))
        z = z_factor(w_plus, w_minus, n)
        assert 0.0 < z <= 1.0 + 1e-12

    def test_matches_update_total_on_random_rounds(self):
        """The normalizer formula equals the actual pre-normalization mass."""
        rng = np.random.default_rng(23)
        for _ in range(300):
            ds, store, w, j, k = random_instance(rng, n_max=10, n_labels_max=4)
            o_j, o_k = select_labels(j, k, store, ds, w)
            probe = TripletClassifier(j, k, o_j, o_k, 0.0)
            w_plus, w_minus = round_weights(probe, store, ds, w)
            alpha = classifier_alpha(w_plus, w_minus, ds.n)
            h = TripletClassifier(j, k, o_j, o_k, alpha)
            _, z = update_weights(w, h, store, ds)
            assert abs(z - z_factor(w_plus, w_minus, ds.n)) < 1e-12


class TestOptimality:
    def test_selection_minimizes_incorrect_mass(self):
        """No label-set assignment beats the chosen one (exhaustive search)."""
        rng = np.random.default_rng(42)
        for _ in range(200):
            ds, store, w, j, k = random_instance(rng, n_max=8, n_labels_max=3)
            n_labels = ds.n_labels
            o_j, o_k = select_labels(j, k, store, ds, w)
            fwd, rev = fired_sides(store, j, k, ds.n)
            _, chosen_minus = oracle_w_pm(fwd, rev, o_j, o_k, ds.labels, w,
                                          n_labels)
            best = min(
                oracle_w_pm(fwd, rev, mf, mr, ds.labels, w, n_labels)[1]
                for mf in range(1 << n_labels)
                for mr in range(1 << n_labels))
            assert chosen_minus <= best + 1e-12

    def test_error_at_most_one_half_on_fired_mass(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            ds, store, w, j, k = random_instance(rng)
            o_j, o_k = select_labels(j, k, store, ds, w)
            w_plus, w_minus = round_weights(
                TripletClassifier(j, k, o_j, o_k, 0.0), store, ds, w)
            if w_plus + w_minus > 0.0:
                assert w_minus / (w_plus + w_minus) <= 0.5 + 1e-12


class TestClassifierType:
    def test_canonical_storage_swaps_sides(self):
        h = TripletClassifier(5, 2, 0b01, 0b10, 0.3)
        assert (h.j, h.k) == (2, 5)
        assert (h.o_j, h.o_k) == (0b10, 0b01)

    def test_equal_references_rejected(self):
        with pytest.raises(ValueError):
            TripletClassifier(1, 1, 0, 0, 0.0)

    def test_nonfinite_weight_rejected(self):
        with pytest.raises(ValueError):
            TripletClassifier(0, 1, 0, 0, float("nan"))

    @given(st.sets(st.integers(0, 63)))
    def test_bitmask_round_trip(self, labels):
        """Packing then unpacking gives the sorted label ids, the 64th bit included."""
        mask = bitmask(labels)
        assert mask_labels(mask, 64) == sorted(labels)
        assert bitmask(mask_labels(mask, 64)) == mask
        assert mask_labels(mask, 3) == sorted(y for y in labels if y < 3)


# -- the gather-once round against a per-side reference round --------------------


def _oracle_side(w, labels, bucket):
    """Reference side: its own gather of ``w[bucket]``, then its label set and W+/W-."""
    n_labels = w.shape[1]
    if bucket.size == 0:
        return np.zeros(n_labels, dtype=bool), 0.0, 0.0
    w_bucket = w[bucket]
    bucket_labels = labels[bucket]
    true_w = w[bucket, bucket_labels]
    in_class = np.bincount(bucket_labels, weights=true_w, minlength=n_labels)
    member = 2.0 * in_class - w_bucket.sum(axis=0) > 0.0
    total = float(w_bucket.sum())
    all_true = float(true_w.sum())
    inside = float(w_bucket[:, member].sum())
    inside_true = float(true_w[member[bucket_labels]].sum())
    return (member, total - all_true - inside + 2.0 * inside_true,
            all_true + inside - 2.0 * inside_true)


def _oracle_round(w, labels, j, k, fwd, rev, scores):
    """Reference round: per-side selection, then the update applied side by side."""
    o_j, plus_j, minus_j = _oracle_side(w, labels, fwd)
    o_k, plus_k, minus_k = _oracle_side(w, labels, rev)
    w_plus, w_minus = plus_j + plus_k, minus_j + minus_k
    alpha = classifier_alpha(w_plus, w_minus, w.shape[0])
    z = 1.0
    if alpha != 0.0:
        col = np.arange(w.shape[1])
        for bucket, member in ((fwd, o_j), (rev, o_k)):
            if bucket.size == 0:
                continue
            agree = member[None, :] == (labels[bucket][:, None] == col[None, :])
            w[bucket] *= np.where(agree, math.exp(-alpha), math.exp(alpha))
            scores[bucket] += np.where(member, alpha, -alpha)
        z = float(w.sum())
        w /= z
    h = TripletClassifier(j, k, bitmask(np.flatnonzero(o_j)), bitmask(np.flatnonzero(o_k)),
                          alpha)
    return h, RoundStats(w_plus, w_minus, z, alpha)


def _round_case(rng, kind):
    """(w, labels, fwd, rev, scores) for one seeded round of the given kind."""
    n_labels = 64 if kind == "top_bit" else int(rng.choice([2, 3, 5, 8, 10, 17, 64]))
    n = int(rng.integers(2, 60))
    labels = rng.integers(0, n_labels, size=n)
    w = rng.random((n, n_labels)) ** 3 + 1e-9
    fired = rng.permutation(n)[:int(rng.integers(0, n + 1))]
    cut = int(rng.integers(0, fired.size + 1))
    fwd, rev = np.sort(fired[:cut]), np.sort(fired[cut:])
    if kind in ("empty_fwd", "empty_rev", "both_empty", "one_row"):
        fwd = fwd[:0] if kind in ("empty_fwd", "both_empty") else fwd
        rev = rev[:0] if kind in ("empty_rev", "both_empty") else rev
        if kind == "one_row":
            fwd, rev = fired[:1], fired[1:2]
    elif kind in ("all_members", "no_members"):  # every label on both sides
        n = 2 * n_labels * int(rng.integers(1, 3))
        labels = np.arange(n) % n_labels
        w = rng.random((n, n_labels)) + 0.5
        w[np.arange(n), labels] *= 1e4 if kind == "all_members" else 1e-4
        fwd, rev = np.arange(n // 2), np.arange(n // 2, n)
    elif kind == "zero_alpha":  # uniform weights, balanced labels: W+ == W-
        n, n_labels = 4, 2
        labels, w = np.array([0, 1, 0, 1]), np.ones((4, 2))
        fwd, rev = np.array([0, 1]), np.array([2, 3])
    elif kind == "top_bit":
        labels[fired] = n_labels - 1
    w /= w.sum()
    scores = rng.normal(size=(n, n_labels))
    return w, labels, fwd, rev, scores


class TestRoundKernel:
    @pytest.mark.parametrize("kind", ["random", "empty_fwd", "empty_rev", "both_empty",
                                      "one_row", "all_members", "no_members",
                                      "zero_alpha", "top_bit"])
    def test_round_equals_per_side_reference_bit_for_bit(self, kind):
        from tripletboost.weak import _pack_masks, _round

        rng = np.random.default_rng(sum(map(ord, kind)))
        for _ in range(60):
            w, labels, fwd, rev, scores = _round_case(rng, kind)
            want_w, want_scores = w.copy(), scores.copy()
            want_h, want_stats = _oracle_round(want_w, labels, 0, 1, fwd, rev, want_scores)
            members, stats = _round(w, labels, fwd, rev, scores)
            assert members.shape == (2, w.shape[1])
            h = TripletClassifier(0, 1, *_pack_masks(members).tolist(), stats[3])
            assert h == want_h
            assert np.array(stats).tobytes() == np.array(want_stats).tobytes()
            assert w.tobytes() == want_w.tobytes()
            assert scores.tobytes() == want_scores.tobytes()
            if kind == "all_members":
                assert h.o_j == h.o_k == (1 << w.shape[1]) - 1
            elif kind == "no_members":
                assert h.o_j == h.o_k == 0
            elif kind == "zero_alpha":
                assert h.alpha == 0.0
            elif kind == "top_bit" and fwd.size:
                assert h.o_j >> 63 == 1
