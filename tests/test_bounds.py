"""Closed-form guarantees, their Monte Carlo oracles, and margin diagnostics."""

import hashlib
import math

import numpy as np
import pytest

from tripletboost import (
    BoostConfig,
    abstention_bound,
    abstention_limit,
    bound_surface_rows,
    empirical_margin_bound,
    end_to_end_abstention,
    generate_training_set,
    make_moons,
    margin,
    margin_values,
    simulate_abstention,
    train,
    training_error_bound,
    z_factor,
)
from tripletboost.bounds import _logsumexp
from tripletboost.cli import main


def _vote_fixture(n_labels):
    """Signed votes with ties in the top score, smooth values, and rows up to
    |votes| ~ 1e5 whose first half of labels share the top score."""
    rng = np.random.default_rng(100 + n_labels)
    eta = float(rng.uniform(0.5, 40.0))
    ties = rng.integers(-2, 3, size=(30, n_labels)) * (eta / 4)
    smooth = rng.uniform(-eta, eta, size=(30, n_labels))
    big = rng.uniform(-1.0, 1.0, size=(20, n_labels)) * 10.0 ** rng.integers(2, 6, size=(20, 1))
    big[::4, : n_labels // 2] = big[::4, :1]
    votes = np.concatenate([ties, smooth, big])
    return votes, rng.integers(0, n_labels, size=votes.shape[0]), eta


# sha256 of margin_values on _vote_fixture(L), recorded with scipy 1.17.1's
# logsumexp before the margins got their own
_PINNED_MARGINS = {
    2: "231e0ef2b100f8020a3ad398b1b0d59d429c0693c49a1779d650b002f3a7eac0",
    3: "276744cf5ce0167bd6b8ea88870336479afe525500a58548b3af2588c285d06a",
    4: "08a49a64d28423434037a21ab5cfe7c089df53b1b20bcbcb89a755e63f364d06",
    5: "b19b5f4fda0c98615a4c0a7c35eed59e846d78e41753a788e5b5c0c15c460195",
    6: "837db2b369387acb04086af95413a37ce1058396a9a17b92d517fa44dc57aaf7",
    7: "83135e25e6dfa1446715cee6888e5b01805a955e2116d9cc281c56101ddd4207",
    8: "61e401b1b0211f44a00b9cf9c685f4219039740db389543459375d157cbc405f",
    9: "efb87942cc692801fc24fb2db06b686bacac6c651122d416cfc01a0df8c83e9a",
    10: "5a51961cd1464829df1c0c2eeb132e6d7fa0406a5f3f0f73ae5872ca0950e260",
}


class TestTrainingErrorBound:
    def test_empty_history_is_vacuous(self):
        assert training_error_bound(2, []) == 1.0
        assert training_error_bound(4, []) == 2.0

    def test_single_round_value(self):
        z = z_factor(0.3, 0.1, 10)
        assert training_error_bound(2, [z]) == pytest.approx(0.95355, abs=5e-6)

    def test_strictly_below_vacuous_once_useful(self):
        history = [1.0, 1.0, 0.999, 1.0]
        assert training_error_bound(3, history) < 1.5

    def test_product_in_log_domain_matches_direct(self):
        rng = np.random.default_rng(0)
        zs = rng.uniform(0.9, 1.0, size=50)
        direct = 1.0 * np.prod(zs)
        assert training_error_bound(2, zs) == pytest.approx(direct, rel=1e-12)

    def test_invalid_normalizers_rejected(self):
        with pytest.raises(ValueError):
            training_error_bound(2, [0.0])
        with pytest.raises(ValueError):
            training_error_bound(2, [1.1])
        with pytest.raises(ValueError, match=r"round normalizers must lie in \(0, 1\]"):
            training_error_bound(2, [0.9, math.nan])


class TestEmpiricalMarginBound:
    def test_vanishing_margin_recovers_error_bound(self):
        zs = [0.95, 0.99, 0.97]
        wps = [0.4, 0.5, 0.3]
        wms = [0.2, 0.3, 0.2]
        want = training_error_bound(2, zs)
        got = empirical_margin_bound(2, zs, wps, wms, 20, theta=1e-12)
        assert got == pytest.approx(want, rel=1e-9)

    def test_hand_worked_round(self):
        """One round, margin 0.1: normalizer times the odds-ratio correction."""
        z = z_factor(2/3, 1/3, 3)
        got = empirical_margin_bound(2, [z], [2/3], [1/3], 3, theta=0.1)
        ratio = (2/3 + 1/3) / (1/3 + 1/3)
        want = z * math.sqrt(ratio ** 0.1)
        assert got == pytest.approx(want, rel=1e-12)

    def test_monotone_in_theta(self):
        zs, wps, wms = [0.95, 0.9], [0.5, 0.6], [0.1, 0.2]
        values = [empirical_margin_bound(2, zs, wps, wms, 30, theta=t)
                  for t in (0.01, 0.1, 0.3)]
        assert values[0] < values[1] < values[2]

    def test_requires_positive_theta_and_aligned_histories(self):
        with pytest.raises(ValueError):
            empirical_margin_bound(2, [0.9], [0.5], [0.1], 10, theta=0.0)
        with pytest.raises(ValueError):
            empirical_margin_bound(2, [0.9], [0.5], [0.1, 0.2], 10, theta=0.1)
        with pytest.raises(ValueError, match="theta must be positive"):
            empirical_margin_bound(2, [0.9], [0.5], [0.1], 10, theta=math.nan)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args, message", [
        ((2, [0.9], [0.5], [0.1], 0), "n must be at least 1"),  # was ZeroDivisionError
        ((2, [0.9], [0.5], [0.1], -1), "n must be at least 1"),  # was nan
        ((2, [0.9], [0.5], [0.1], math.nan), "n must be at least 1"),
        ((2, [], [], [], 0), "n must be at least 1"),
        ((1, [0.9], [0.5], [0.1], 10), "need at least two labels"),  # was 0.475
        ((1, [], [], [], 10), "need at least two labels"),
        ((2, [0.9], [0.5], [-0.1], 10), "finite and nonnegative"),  # was nan
        ((2, [0.9], [-0.5], [0.1], 10), "finite and nonnegative"),
        ((2, [0.9], [math.nan], [0.1], 10), "finite and nonnegative"),  # was nan
        ((2, [0.9], [0.5], [math.nan], 10), "finite and nonnegative"),
        ((2, [0.9], [0.5], [math.inf], 10), "finite and nonnegative"),
    ])
    def test_bad_inputs_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            empirical_margin_bound(*args, theta=0.1)

    def test_infinite_n_rejected(self):
        """An infinite n is not a training-set size: no warning and no inf bound."""
        with pytest.raises(ValueError, match="n must be finite"):
            empirical_margin_bound(2, [0.9], [0.5], [0.0], math.inf, theta=0.1)

    def test_valid_inputs_keep_their_bits(self):
        """Values recorded before the input checks were added."""
        assert empirical_margin_bound(2, [0.9], [0.5], [0.1], 10, theta=0.1).hex() == \
            "0x1.e6d1f46b1fc71p-1"
        assert empirical_margin_bound(3, [0.9, 0.95], [0.5, 0.4], [0.1, 0.2], 7,
                                      theta=0.3).hex() == "0x1.970ccb16460cfp+0"
        assert empirical_margin_bound(2, [0.9], [0.0], [0.0], 1, theta=0.1) == \
            pytest.approx(0.9)


class TestMargin:
    @pytest.mark.parametrize("n_labels", sorted(_PINNED_MARGINS))
    def test_pinned_bits(self, n_labels):
        votes, labels, eta = _vote_fixture(n_labels)
        got = hashlib.sha256(margin_values(votes, labels, eta).tobytes()).hexdigest()
        assert got == _PINNED_MARGINS[n_labels]

    @pytest.mark.parametrize("n_labels", sorted(_PINNED_MARGINS))
    def test_logsumexp_matches_scipy(self, n_labels):
        """Bit for bit against scipy >= 1.15, which splits the terms tied at the
        row max out of the sum; older scipy adds log(sum) to the max instead."""
        special = pytest.importorskip("scipy.special")
        scipy = pytest.importorskip("scipy")
        if tuple(int(p) for p in scipy.__version__.split(".")[:2]) < (1, 15):
            pytest.skip("scipy before 1.15 computes log(sum) + max")
        votes = _vote_fixture(n_labels)[0]
        for arg in (votes, -votes, np.zeros_like(votes), np.round(votes)):
            np.testing.assert_array_equal(_logsumexp(arg).view(np.int64),
                                          special.logsumexp(arg, axis=1).view(np.int64))

    def test_symmetric_two_label_case(self):
        """One fired classifier covering the true label yields full confidence."""
        signed = np.array([[0.5, -0.5]])
        got = margin_values(signed, np.array([0]), eta=0.5)
        assert got[0] == pytest.approx(1.0, abs=1e-12)
        got = margin_values(signed, np.array([1]), eta=0.5)
        assert got[0] == pytest.approx(-1.0, abs=1e-12)

    def test_nan_total_weight_rejected(self):
        with pytest.raises(ValueError, match="total classifier weight must be positive"):
            margin_values(np.array([[0.5, -0.5]]), np.array([0]), eta=math.nan)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_scores_rejected(self, bad):
        """An infinite vote gave an infinite margin (or NaN), outside [-1, 1]."""
        with pytest.raises(ValueError, match="signed scores must be finite"):
            margin_values(np.array([[bad, 0.0]]), np.array([0]), eta=1.0)

    def test_all_abstained_is_zero(self):
        signed = np.zeros((3, 4))
        got = margin_values(signed, np.array([0, 1, 3]), eta=2.0)
        np.testing.assert_allclose(got, 0.0, atol=1e-12)

    def test_positive_iff_unique_argmax(self):
        """Sign of the margin encodes strict argmax correctness exactly."""
        rng = np.random.default_rng(6)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            n_labels = int(rng.integers(2, 5))
            eta = float(rng.uniform(0.1, 20.0))
            raw = rng.integers(-3, 4, size=(n, n_labels)).astype(float)
            signed = raw * eta / max(1.0, np.abs(raw).max())
            labels = rng.integers(0, n_labels, size=n)
            theta = margin_values(signed, labels, eta)
            rows = np.arange(n)
            true_vals = signed[rows, labels]
            masked = signed.copy()
            masked[rows, labels] = -np.inf
            unique_best = true_vals > masked.max(axis=1)
            np.testing.assert_array_equal(theta > 1e-12, unique_best)

    def test_range_bounded(self):
        rng = np.random.default_rng(8)
        eta = 5.0
        signed = rng.uniform(-eta, eta, size=(50, 3))
        theta = margin_values(signed, rng.integers(0, 3, size=50), eta)
        assert np.all(theta >= -1.0 - 1e-9)
        assert np.all(theta <= 1.0 + 1e-9)

    def test_model_margin_requires_trained_votes(self):
        ds = make_moons(20, 0.1, 0)
        store = generate_training_set(ds, "euclidean", 0.4, 0.0, 1)
        model = train(ds, store, BoostConfig(rounds=100, seed=2))
        values = margin(model, model.train_scores, ds.labels)
        assert values.shape == (20,)
        from tripletboost import StrongModel
        hollow = StrongModel([], ds.label_dict, 20)
        with pytest.raises(ValueError, match="positive"):
            margin(hollow, model.train_scores, ds.labels)

    def test_margin_bound_dominates_empirical_tail(self):
        """P[margin <= theta] never exceeds its bound on trained models."""
        for seed in range(3):
            ds = make_moons(60, 0.15, seed)
            store = generate_training_set(ds, "euclidean", 0.05, 0.1, seed)
            model = train(ds, store, BoostConfig(rounds=500, seed=seed))
            theta_values = margin(model, model.train_scores, ds.labels)
            for theta in (0.05, 0.1, 0.2):
                tail = float(np.mean(theta_values <= theta))
                bound = empirical_margin_bound(
                    2, model.z_history(), model.w_plus_history(),
                    model.w_minus_history(), ds.n, theta)
                assert tail <= bound + 1e-9

    def test_more_triplets_do_not_shrink_median_margin(self):
        """Richer triplet sets support larger vote margins (10-seed check)."""
        sparse, rich = [], []
        for seed in range(10):
            ds = make_moons(60, 0.1, seed)
            for proportion, sink in ((0.01, sparse), (0.10, rich)):
                store = generate_training_set(ds, "euclidean", proportion,
                                              0.0, seed)
                model = train(ds, store, BoostConfig(rounds=600, seed=seed))
                values = margin(model, model.train_scores, ds.labels)
                sink.append(float(np.median(values)))
        assert np.mean(rich) >= np.mean(sparse) - 1e-12


class TestAbstentionBound:
    def test_edge_probabilities(self):
        assert abstention_bound(5, 0.0, 10) == 1.0
        assert abstention_bound(5, 1.0, 10) == 0.0
        assert abstention_bound(5, 0.3, 0) == 1.0

    def test_hand_value(self):
        want = (0.9 + 0.1 * 0.9 ** 10) ** 5
        got = abstention_bound(10, 0.1, 5)
        assert got == pytest.approx(want, rel=1e-15)
        assert got == pytest.approx(0.7141, abs=5e-5)

    def test_real_valued_classifier_count(self):
        assert abstention_bound(10, 0.1, 2.5) == pytest.approx(
            ((0.9 + 0.1 * 0.9 ** 10) ** 2.5), rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            abstention_bound(0, 0.1, 1)
        with pytest.raises(ValueError):
            abstention_bound(5, 1.5, 1)
        with pytest.raises(ValueError):
            abstention_bound(5, 0.1, -1)
        with pytest.raises(ValueError, match="classifier count must be nonnegative"):
            abstention_bound(10, 0.1, math.nan)

    @pytest.mark.parametrize("n", [math.nan, math.inf])
    def test_non_finite_n_rejected(self, n):
        """A NaN n gave nan, and an infinite one (1 - p) ** count."""
        with pytest.raises(ValueError, match="^n must be finite$"):
            abstention_bound(n, 0.1, 3)


class TestSimulateAbstention:
    def test_degenerate_cases(self):
        assert simulate_abstention(5, 0.0, 10, 1000, 0) == (1.0, 0.0)
        assert simulate_abstention(5, 0.4, 0, 1000, 0) == (1.0, 0.0)

    def test_matches_closed_form_small_grid(self):
        """Mechanical simulation agrees with the closed form to 3 sigma."""
        for n, p, count in ((5, 0.2, 3), (10, 0.1, 5), (8, 0.5, 10)):
            est, se = simulate_abstention(n, p, count, 50_000, seed=13)
            want = abstention_bound(n, p, count)
            assert abs(est - want) <= 3.0 * max(se, 1e-9)

    def test_deterministic(self):
        a = simulate_abstention(6, 0.3, 4, 10_000, seed=5)
        b = simulate_abstention(6, 0.3, 4, 10_000, seed=5)
        assert a == b

    @pytest.mark.parametrize("args, message", [
        ((5, 0.1, 2.5, 100), "classifier count must be an integer"),  # were TypeErrors
        ((5, 0.1, math.nan, 100), "classifier count must be an integer"),
        ((5, 0.1, 3, 2.5), "trials must be an integer"),
        ((2.5, 0.1, 3, 100), "n must be an integer"),
        ((5, 1.5, 3, 100), r"^p must lie in \[0, 1\]$"),  # was numpy's message
        ((5, -0.1, 3, 100), r"^p must lie in \[0, 1\]$"),
        ((5, math.nan, 3, 100), r"^p must lie in \[0, 1\]$"),
        ((0, 0.1, 3, 100), "^n must be at least 1$"),  # was (1.0, 0.0)
        ((5, 0.1, -1, 100), "classifier count must be nonnegative"),
        ((5, 0.1, 3, 0), "trials must be at least 1"),
    ])
    def test_bad_inputs_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            simulate_abstention(*args)

    def test_messages_match_the_closed_form(self):
        for n, p in ((0, 0.1), (-3, 0.1), (5, 1.5), (5, math.nan)):
            with pytest.raises(ValueError) as closed:
                abstention_bound(n, p, 3)
            with pytest.raises(ValueError) as simulated:
                simulate_abstention(n, p, 3, 100)
            assert str(simulated.value) == str(closed.value)

    def test_numpy_integer_counts_accepted(self):
        assert simulate_abstention(np.int64(6), 0.3, np.int32(4), np.int64(10_000), 5) == \
            simulate_abstention(6, 0.3, 4, 10_000, seed=5)

    def test_cli_reports_p_out_of_range(self, capsys):
        code = main(["simulate-abstention", "--n", "10", "--p", "1.5",
                     "--classifiers", "5", "--trials", "100"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (1, "", "error: p must lie in [0, 1]\n")


class TestAbstentionLimit:
    def test_low_coverage_regime_saturates(self):
        assert abstention_limit(1.0, 0.5) == 1.0
        assert abstention_limit(1.9, 1.0) == 1.0
        assert abstention_limit(1.0, 2.0) == 1.0

    def test_boundary_constants(self):
        assert abstention_limit(2.5, 0.5) == math.exp(-1.0)
        assert abstention_limit(2.0, 1.0) == math.exp(math.exp(-2.0) - 1.0)
        assert abstention_limit(1.5, 2.0) == math.exp(-2.0)

    def test_high_coverage_regime_vanishes(self):
        assert abstention_limit(2.6, 0.5) == 0.0
        assert abstention_limit(2.1, 1.0) == 0.0
        assert abstention_limit(1.6, 2.0) == 0.0

    def test_full_pairwise_combination_needs_three_halves(self):
        """With every reference pair combined, the knee sits at k = 3/2."""
        assert abstention_limit(1.4, 2.0) == 1.0
        assert abstention_limit(1.5, 2.0) == math.exp(-2.0)
        assert abstention_limit(1.6, 2.0) == 0.0

    def test_range_validation(self):
        for k, beta in ((-0.1, 1.0), (3.0, 1.0), (1.0, -0.5), (1.0, 2.5)):
            with pytest.raises(ValueError):
                abstention_limit(k, beta)


class TestBoundSurface:
    def test_reference_corner_value(self):
        rows, skipped = bound_surface_rows(100, [0.0], [0.0])
        assert not skipped
        k, beta, value = rows[0]
        p = 2.0 * 100.0 ** -3.0
        want = (1.0 - p) + p * (1.0 - p) ** 100  # one classifier
        assert value == pytest.approx(want, rel=1e-15)
        assert 0.999999 < value < 1.0

    def test_monotone_in_both_exponents(self):
        ks = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
        betas = [0.0, 0.5, 1.0, 1.5, 2.0]
        rows, _ = bound_surface_rows(100, ks, betas)
        table = {(k, b): v for k, b, v in rows}
        for b in betas:
            seq = [table[(k, b)] for k in ks]
            assert all(x >= y - 1e-15 for x, y in zip(seq, seq[1:]))
        for k in ks:
            seq = [table[(k, b)] for b in betas]
            assert all(x >= y - 1e-15 for x, y in zip(seq, seq[1:]))

    def test_excess_availability_skipped(self):
        rows, skipped = bound_surface_rows(10, [2.99], [0.0])
        assert not rows
        assert skipped == [(2.99, 0.0)]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            bound_surface_rows(10, [], [1.0])

    @pytest.mark.parametrize("n, k", [(0, 1.0), (-5, 1.5), (math.nan, 1.0)])
    def test_n_below_one_rejected(self, n, k):
        """n is checked before it is raised to a power: 0.0 ** -2 raised
        ZeroDivisionError, and (-5.0) ** -1.5 is a complex p."""
        with pytest.raises(ValueError, match="^n must be (at least 1|finite)$"):
            bound_surface_rows(n, [k], [1.0])

    @pytest.mark.parametrize("k, beta", [(1.0, 400.0), (1000.0, 1.0)])
    def test_overflowing_power_is_a_value_error(self, k, beta):
        """10.0 ** 400 raised OverflowError: (34, 'Numerical result out of range')."""
        with pytest.raises(ValueError, match=f"^a power of n=10 overflows at k={k!r}, "
                                             f"beta={beta!r}$"):
            bound_surface_rows(10, [k], [beta])


class TestEndToEnd:
    def test_smoke_within_range_and_deterministic(self):
        est1, se1 = end_to_end_abstention(6, 3, 0.2, 10, n_models=60,
                                          draws_per_model=4, seed=3)
        est2, se2 = end_to_end_abstention(6, 3, 0.2, 10, n_models=60,
                                          draws_per_model=4, seed=3)
        assert (est1, se1) == (est2, se2)
        assert 0.0 <= est1 <= 1.0
        want = abstention_bound(6, 0.2, 10)
        assert abs(est1 - want) <= 5.0 * max(se1, 1e-3)

    def test_pinned_value(self):
        """Exact output recorded before the round moved into one kernel."""
        assert end_to_end_abstention(6, 3, 0.2, 10, n_models=60, draws_per_model=4,
                                     seed=3) == (0.2, 0.02898957537160537)

    @pytest.mark.parametrize("p, rounds, match", [
        (1.5, 10, r"p must lie in \[0, 1\]"),
        (-0.2, 10, r"p must lie in \[0, 1\]"),
        (float("nan"), 10, r"p must lie in \[0, 1\]"),
        (0.2, -1, "rounds must be nonnegative"),
    ], ids=["p_above_1", "p_below_0", "p_nan", "negative_rounds"])
    def test_out_of_range_inputs_rejected(self, p, rounds, match):
        with pytest.raises(ValueError, match=match):
            end_to_end_abstention(6, 3, p, rounds, n_models=2, draws_per_model=4)

    def test_no_draws_rejected(self):
        with pytest.raises(ValueError, match="at least one draw"):
            end_to_end_abstention(6, 3, 0.2, 10, n_models=2, draws_per_model=0)

    @pytest.mark.parametrize("args, want", [
        ((6, 2, 0.0, 10, 3, 5, 1), ("0x1.0000000000000p+0", "0x0.0p+0")),  # p = 0
        ((4, 2, 0.05, 2, 6, 7, 4), ("0x1.0000000000000p+0", "0x0.0p+0")),  # none kept
        ((7, 2, 0.02, 6, 8, 25, 9), ("0x1.fd70a3d70a3d7p-1", "0x1.47ae147ae1480p-8")),
        ((9, 3, 0.08, 15, 5, 40, 3), ("0x1.0f5c28f5c28f6p-1", "0x1.2b98b8e7632ebp-5")),
        ((10, 3, 0.1, 30, 4, 40, 5), ("0x1.1999999999999p-3", "0x1.08654a2d4f6dap-6")),
        ((5, 5, 0.5, 5, 3, 10, 0), ("0x1.1111111111111p-4", "0x1.1111111111112p-5")),
        ((6, 3, 0.1, 8, 6, 30, 12), ("0x1.527d27d27d27dp-1", "0x1.a97960526d4f5p-5")),
        ((12, 4, 0.08, 12, 4, 30, 21), ("0x1.0444444444444p-1", "0x1.19787e4ffebc2p-5")),
    ])
    def test_hex_snapshot(self, args, want):
        """Exact outputs recorded when each draw was scored by its own ``score``
        call; (7, 2, 0.02, ...) mixes models without and with kept classifiers.
        (12, 4, ...) was recorded while each round drew its pair with a fresh
        other-class index, before the rounds shared one."""
        est, se = end_to_end_abstention(*args)
        assert (est.hex(), se.hex()) == want
