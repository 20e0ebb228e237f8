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
    TestTripletSet,
    TripletStore,
    classifier_alpha,
    init_weights,
    round_weights,
    select_labels,
    update_weights,
    z_factor,
    add_noise,
    generate_test_set,
    generate_training_set,
    make_moons,
)
from tripletboost.weak import _mask_bools, _pack_masks, _play, _Run, fired_buckets

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
        """Packing then unpacking gives the label set back, the 64th bit included."""
        members = np.isin(np.arange(64), sorted(labels))
        mask = _pack_masks(members)
        assert int(mask) == sum(1 << y for y in labels)
        assert np.array_equal(_mask_bools(mask, 64), members)
        assert np.array_equal(_pack_masks(_mask_bools(mask, 64)), mask)
        assert np.array_equal(_mask_bools(mask, 3), members[:3])


# -- the bin round against a pure-Python reference round -------------------------


def _oracle_masses(w, labels, fwd, rev):
    """Each side's in-class and out-of-class mass of every label, as Python floats:
    j's side first, each entry added into its bin in row order."""
    n_labels, rows, labels = w.shape[1], w.tolist(), labels.tolist()
    inside = [[0.0] * n_labels for _ in range(2)]
    outside = [[0.0] * n_labels for _ in range(2)]
    for side, bucket in enumerate((fwd, rev)):
        for i in bucket.tolist():
            for y in range(n_labels):
                if y == labels[i]:
                    inside[side][y] += rows[i][y]
                else:
                    outside[side][y] += rows[i][y]
    return inside, outside


def _oracle_round(w, labels, j, k, fwd, rev, scores):
    """Reference round: a label joins its side's set iff its in-class mass exceeds
    its out-of-class mass; each side adds its W+ and W- one label at a time, in
    ascending order, then j's side is added to k's; the update runs entry by
    entry.  ``z`` stays numpy's sum."""
    n_labels = w.shape[1]
    inside, outside = _oracle_masses(w, labels, fwd, rev)
    members = [[a > o for a, o in zip(inside[side], outside[side])] for side in range(2)]
    sides = [[0.0, 0.0], [0.0, 0.0]]
    for side in range(2):
        for y in range(n_labels):
            a, o = inside[side][y], outside[side][y]
            right, wrong = (a, o) if members[side][y] else (o, a)
            sides[side][0] += right
            sides[side][1] += wrong
    w_plus, w_minus = sides[0][0] + sides[1][0], sides[0][1] + sides[1][1]
    alpha = classifier_alpha(w_plus, w_minus, w.shape[0])
    z = 1.0
    if alpha != 0.0:
        grow, shrink = math.exp(alpha), math.exp(-alpha)
        rows, votes, labels = w.tolist(), scores.tolist(), labels.tolist()
        for side, bucket in enumerate((fwd, rev)):
            for i in bucket.tolist():
                for y in range(n_labels):
                    member = members[side][y]
                    rows[i][y] *= shrink if member == (y == labels[i]) else grow
                    votes[i][y] += alpha if member else -alpha
        w[:], scores[:] = rows, votes
        z = float(np.add.reduce(w, axis=None))
        w /= z
    h = TripletClassifier(j, k, sum(1 << y for y in range(n_labels) if members[0][y]),
                          sum(1 << y for y in range(n_labels) if members[1][y]), alpha)
    return h, RoundStats(w_plus, w_minus, z, alpha)


def _pairwise_weights(w, labels, fwd, rev, members):
    """(W+, W-) of the (2, L) sets ``members`` as numpy's pairwise per-side sums
    gave them before the bin sums: total, true, inside the set, inside and true."""
    w_plus = w_minus = 0.0
    for bucket, member in zip((fwd, rev), members):
        if bucket.size == 0:
            continue
        true_w = w[bucket, labels[bucket]]
        all_true, inside = float(true_w.sum()), float(w[bucket][:, member].sum())
        inside_true = float(true_w[member[labels[bucket]]].sum())
        w_plus += float(w[bucket].sum()) - all_true - inside + 2.0 * inside_true
        w_minus += all_true + inside - 2.0 * inside_true
    return w_plus, w_minus


def _check_round(w, labels, fwd, rev, scores):
    """``_play`` on the buckets (closer to j, closer to k) against the reference,
    bit for bit, and against itself with the sides swapped; its W+ and W- also
    within 8 eps of their total of the pairwise sums.  Returns the sets and the
    stats."""
    want_w, want_scores = w.copy(), scores.copy()
    want_h, want_stats = _oracle_round(want_w, labels, 0, 1, fwd, rev, want_scores)
    before, swapped_w, swapped_scores = w.copy(), w.copy(), scores.copy()
    members, stats = _play(_Run(w, labels, scores), np.concatenate((fwd, rev)), len(fwd), 0)
    swapped = _play(_Run(swapped_w, labels, swapped_scores),  # k's side first
                    np.concatenate((rev, fwd)), len(rev), 0)
    assert np.array_equal(swapped[0], members[::-1])
    assert np.array(swapped[1]).tobytes() == np.array(stats).tobytes()
    assert swapped_w.tobytes() == w.tobytes() and swapped_scores.tobytes() == scores.tobytes()
    assert members.shape == (2, w.shape[1])
    assert TripletClassifier(0, 1, *_pack_masks(members).tolist(), stats[3]) == want_h
    assert np.array(stats).tobytes() == np.array(want_stats).tobytes()
    assert w.tobytes() == want_w.tobytes()
    assert scores.tobytes() == want_scores.tobytes()
    old = _pairwise_weights(before, labels, fwd, rev, members)
    slack = 8 * np.finfo(float).eps * (stats[0] + stats[1])
    assert abs(stats[0] - old[0]) <= slack and abs(stats[1] - old[1]) <= slack
    return members, stats


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
        """``_play`` against the pure-Python reference, which sums side by side."""
        rng = np.random.default_rng(sum(map(ord, kind)))
        for _ in range(60):
            w, labels, fwd, rev, scores = _round_case(rng, kind)
            members, stats = _check_round(w, labels, fwd, rev, scores)
            o_j, o_k = (int(m) for m in members.sum(axis=1))
            if kind == "all_members":
                assert o_j == o_k == w.shape[1]
            elif kind == "no_members":
                assert o_j == o_k == 0
            elif kind == "zero_alpha":
                assert stats[3] == 0.0
            elif kind == "top_bit" and fwd.size:
                assert members[0, 63]

    def test_summation_block_edges_equal_per_side_reference(self):
        """Sides of 7, 8, 9, 16, 17, 128, 129 and 300 rows, where numpy's pairwise
        sum changed shape (fewer than 8 entries in order, then 8 accumulators, then
        halves past 128), at L = 2, 3, 8 and 64; sets empty, of one, some and every
        label, and a label of j's side whose in-class and out-of-class masses tie
        exactly when added in row order, which keeps it out of the set."""
        sizes = (7, 8, 9, 16, 17, 128, 129, 300)
        rng = np.random.default_rng(20)
        seen, ties = set(), 0
        for n_labels in (2, 3, 8, 64):
            for n_fwd in sizes:
                for n_rev in sizes:
                    for kind in ("none", "one", "some", "all", "tie"):
                        w, labels, fwd, rev, scores = _edge_case(rng, n_fwd, n_rev,
                                                                 n_labels, kind)
                        if kind == "tie":
                            inside, outside = _oracle_masses(w, labels, fwd, rev)
                            tied = [y for y in range(n_labels)
                                    if 0.0 < inside[0][y] == outside[0][y]]
                            ties += bool(tied)
                        members, _ = _check_round(w, labels, fwd, rev, scores)
                        if kind == "tie":
                            assert not members[0, tied].any()
                        for size in members.sum(axis=1).tolist():
                            seen.add("all" if size == n_labels else min(size, 2))
        assert seen == {0, 1, 2, "all"}
        assert ties > 4 * len(sizes) ** 2 // 2


class TestRunDraw:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_labels=st.integers(2, 10))
    def test_draw_after_each_round_equals_a_fresh_run(self, data, n_labels):
        """After rounds with alpha != 0 (``_update`` marks the tables stale) and with
        alpha = 0 (no rows: ``w`` and the tables stay), ``draw`` returns what a new
        ``_Run`` over a copy of ``w`` draws from the same uniforms: the lazy rebuild
        is the eager one."""
        n = data.draw(st.integers(2, 30), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        labels = rng.integers(0, n_labels, n)
        labels[:2] = (0, 1)  # two classes carry mass whatever the class of j
        w = rng.random((n, n_labels)) * (rng.random((n, 1)) < 0.6)  # zero-mass rows
        w[:2] += 0.1
        w /= w.sum()
        run = _Run(w, labels)
        unit = st.floats(0.0, 1.0)
        for fired in data.draw(st.lists(st.integers(0, n), min_size=1, max_size=8),
                               label="rows a round"):
            rows = rng.permutation(n)[:fired]
            _play(run, rows, int(rng.integers(0, fired + 1)), int(rng.integers(0, 2)))
            pairs = data.draw(st.lists(st.tuples(unit, unit), min_size=1, max_size=5),
                              label="uniforms")
            fresh = _Run(run.w.copy(), labels)
            ours, theirs = (iter(np.ravel(pairs).tolist()).__next__ for _ in range(2))
            assert [run.draw(ours) for _ in pairs] == [fresh.draw(theirs) for _ in pairs]


def _edge_case(rng, n_fwd, n_rev, n_labels, kind):
    """(w, labels, fwd, rev, scores) whose sides hold n_fwd and n_rev rows and whose
    label sets come out empty, one label, some labels or every label present; a
    ``tie`` gives a label of j's side equal in-class and out-of-class masses."""
    n = n_fwd + n_rev + 3  # three examples fire nothing
    labels = np.arange(n) % n_labels
    if kind == "one":
        labels[:] = rng.integers(0, n_labels)
    elif kind == "some":
        labels = rng.choice(rng.permutation(n_labels)[:max(2, n_labels // 2)], n)
    rng.shuffle(labels)
    w = rng.random((n, n_labels)) ** 3 + 1e-9
    w[np.arange(n), labels] *= 1e-4 if kind == "none" else 1e4
    w /= w.sum()
    fired = rng.permutation(n)
    fwd, rev = np.sort(fired[:n_fwd]), np.sort(fired[n_fwd:n_fwd + n_rev])
    if kind == "tie":  # the last row's entry makes o == a exactly, added in row order
        y = (labels[fwd[-1]] + 1) % n_labels
        inside = outside = 0.0
        for i in fwd[:-1]:
            if labels[i] == y:
                inside += w[i, y]
            else:
                outside += w[i, y]
        if inside > outside:  # y is on this side, and a positive entry can tie it
            last = inside - outside
            while outside + last != inside:  # step to the double that lands on a
                last = np.nextafter(last, np.inf if outside + last < inside else 0.0)
            w[fwd[-1], y] = last
    return w, labels, fwd, rev, rng.normal(size=(n, n_labels))


def _row_filter(store, j, k):
    """``fired_buckets`` by brute force: scan every row for the pair {j, k}."""
    rows = (store._lo == min(j, k)) & (store._hi == max(j, k))
    near, anchors = store.near[rows], store.anchors[rows]
    return anchors[near == j], anchors[near == k]


class TestFiredBuckets:
    @pytest.mark.parametrize("kind", ["training store", "test set", "empty store"])
    def test_matches_row_filter_for_every_pair(self, kind):
        """Every ordered pair (j > k too), pairs no row has, and ids outside the
        reference universe, whose packed key could alias a stored pair's."""
        ds = make_moons(24, 0.1, 3)
        train, test = ds.take(np.arange(16)), ds.take(np.arange(16, 24))
        store = {
            "training store": lambda: add_noise(
                generate_training_set(train, "euclidean", 0.2, 0.0, 4), 0.3, 5),
            "test set": lambda: generate_test_set(test, train, "cityblock", 0.3, 0.2, 6),
            "empty store": lambda: TestTripletSet(3, 16, [], [], [], []),
        }[kind]()
        absent = 0
        for j in range(-2, 18):
            for k in range(-2, 18):
                if j == k:
                    continue
                got, want = fired_buckets(store, j, k), _row_filter(store, j, k)
                absent += want[0].size + want[1].size == 0
                for have, expected in zip(got, want):
                    assert have.dtype == np.int32
                    np.testing.assert_array_equal(have, expected)
        assert absent > 2 * 16 * 4  # the out-of-universe pairs, and some inside it
