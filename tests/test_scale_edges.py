"""Packed-key arithmetic at the largest universes the stores admit.

Stores hold int32 ids, and every key site widens them to int64 before it
multiplies.  Each query here runs on rows whose reference ids lie near
n - 1 = 1,999,999 (and, for the test set, whose anchors lie near the anchor
cap), and is checked against the same rows relabelled into a six-example
universe, where no key comes near the width of any dtype: a key site that
multiplied in int32 would wrap at the large universe and disagree.
"""

import numpy as np
import pytest

from tripletboost import (
    LabelDict,
    StrongModel,
    TestTripletSet,
    TripletClassifier,
    TripletStore,
    predict_all,
    score,
    score_naive,
    signed_scores_on_training,
)
from tripletboost.weak import fired_buckets

N = 2_000_000  # the largest reference universe
CAP = (2**63 - 1) // N**2  # the largest anchor universe over N references
SMALL = 6
BASE = N - SMALL  # small reference id r is large id BASE + r
TEST_BASE = CAP - SMALL  # small test anchor x is large anchor TEST_BASE + x


def _rows(seed: int):
    """About half of all (anchor, lo, hi) over six ids, random orientation, shuffled."""
    rng = np.random.default_rng(seed)
    rows = [(a, lo, hi) for a in range(SMALL) for lo in range(SMALL)
            for hi in range(lo + 1, SMALL) if rng.random() < 0.5]
    a, lo, hi = np.array(rows).T
    order = rng.permutation(a.size)
    return a[order], lo[order], hi[order], rng.random(a.size) < 0.5


def _stores():
    """(small, large) training stores, and (small, large) test sets, of the same rows."""
    a, lo, hi, near_lo = _rows(0)
    x, t_lo, t_hi, t_near = _rows(1)
    return ((TripletStore(SMALL, a, lo, hi, near_lo),
             TripletStore(N, a + BASE, lo + BASE, hi + BASE, near_lo)),
            (TestTripletSet(SMALL, SMALL, x, t_lo, t_hi, t_near),
             TestTripletSet(CAP, N, x + TEST_BASE, t_lo + BASE, t_hi + BASE, t_near)))


def _models():
    """(small, large) models with the same classifiers, 2 labels."""
    rng = np.random.default_rng(2)
    small, large = [], []
    for _ in range(25):
        j, k = (int(v) for v in rng.choice(SMALL, size=2, replace=False))
        o_j, o_k = (int(v) for v in rng.integers(0, 4, size=2))
        alpha = float(rng.normal())
        small.append(TripletClassifier(j, k, o_j, o_k, alpha))
        large.append(TripletClassifier(j + BASE, k + BASE, o_j, o_k, alpha))
    labels = LabelDict(("a", "b"))
    return StrongModel(small, labels, SMALL), StrongModel(large, labels, N)


def _assert_predictions_equal(got, want):
    for name in ("scores", "label", "matched", "fired_alpha"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("kind", ["store", "test set"])
def test_lookup_and_pairs_for(kind):
    small, large = _stores()[kind == "test set"]
    shift = BASE if kind == "store" else TEST_BASE
    assert large._anchor.dtype == large._lo.dtype == np.int32
    for i in range(SMALL):
        np.testing.assert_array_equal(large.pairs_for(i + shift), small.pairs_for(i) + BASE)
        for j in range(SMALL):
            for k in range(SMALL):
                if j != k:
                    assert (large.lookup(i + shift, j + BASE, k + BASE)
                            is small.lookup(i, j, k))


@pytest.mark.parametrize("kind", ["store", "test set"])
def test_fired_buckets(kind):
    small, large = _stores()[kind == "test set"]
    shift = BASE if kind == "store" else TEST_BASE
    for j in range(SMALL):
        for k in range(SMALL):
            if j != k:
                for got, want in zip(fired_buckets(large, j + BASE, k + BASE),
                                     fired_buckets(small, j, k)):
                    np.testing.assert_array_equal(got, want + shift)


def test_predict_all_score_and_score_naive():
    """The test set's anchors are the six examples; its references lie near N - 1."""
    (_, _), (small_tset, _) = _stores()
    lo, hi = (col.astype(np.int64) + BASE for col in (small_tset._lo, small_tset._hi))
    large_tset = TestTripletSet(SMALL, N, small_tset.anchors, lo, hi, small_tset._near_lo)
    small_model, large_model = _models()
    want = predict_all(small_model, small_tset)
    assert want.matched.sum() > 0
    _assert_predictions_equal(predict_all(large_model, large_tset), want)
    for x in range(SMALL):
        pairs = small_tset.pairs_for(x)
        for scorer in (score, score_naive):
            got, expected = scorer(large_model, pairs + BASE), scorer(small_model, pairs)
            np.testing.assert_array_equal(got.scores, expected.scores)
            assert (got.label, got.matched, got.fired_alpha) == (
                expected.label, expected.matched, expected.fired_alpha)


def test_signed_scores_on_training():
    (small_store, large_store), _ = _stores()
    small_model, large_model = _models()
    got = signed_scores_on_training(large_model, large_store)
    want = signed_scores_on_training(small_model, small_store)
    assert np.abs(want).sum() > 0
    np.testing.assert_array_equal(got[BASE:], want)
    assert not got[:BASE].any()


def test_anchor_cap_holds_int32_ids():
    """Over a small reference universe the anchor universe is capped by int32."""
    cap = 2**31 - 1
    with pytest.raises(ValueError, match=f"anchor universe must be in \\[1, {cap}\\] over 3 "
                                         f"references, got {cap + 1}"):
        TestTripletSet(cap + 1, 3, [], [], [], [])
    tset = TestTripletSet(cap, 3, [cap - 1, 0], [0, 1], [1, 2], [True, False])
    assert tset.anchors.dtype == np.int32 and tset.anchors.tolist() == [0, cap - 1]
    assert tset.pairs_for(cap - 1).tolist() == [[0, 1]]
    assert tset.pairs_for(cap).tolist() == []  # outside the universe: no rows


@pytest.mark.parametrize("make", [
    lambda: TripletStore(3, [2**32], [0], [1], [True]),
    lambda: TripletStore(3, [0], [0], [2**32 + 1], [True]),
    lambda: TestTripletSet(2**31 - 1, 3, [0, 2**32], [0, 0], [1, 1], [True, True]),
])
def test_ids_beyond_int32_are_out_of_range(make):
    """Rows are checked in int64 before the columns narrow, so an id that int32
    would wrap into the universe is still rejected, with its row."""
    with pytest.raises(ValueError, match="example id out of range at row"):
        make()
