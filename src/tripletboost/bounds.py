"""Computable guarantees: training-error and margin bounds, abstention laws.

Everything here is a closed form over quantities the trainer already
records, plus Monte Carlo oracles that exist to cross-check the closed
forms mechanically rather than re-deriving them.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .boost import StrongModel, _boost, init_weights
from .dataset import Dataset, LabelDict, _check_n, _check_unit, _distinct, _round_half_up
from .predict import ABSTAIN, predict_all
from .triplets import TestTripletSet, _pair_keys
from .weak import _Run

__all__ = [
    "training_error_bound",
    "margin",
    "margin_values",
    "empirical_margin_bound",
    "abstention_bound",
    "simulate_abstention",
    "abstention_limit",
    "bound_surface_rows",
    "end_to_end_abstention",
]

_Z_SLACK = 1e-9  # tolerated float excess over the provable z <= 1


def _check_history(z_history) -> np.ndarray:
    z = np.asarray(z_history, dtype=np.float64)
    if z.size and not (z.min() > 0.0 and z.max() <= 1.0 + _Z_SLACK):  # NaN fails it
        raise ValueError("round normalizers must lie in (0, 1]")
    return z


def training_error_bound(n_labels: int, z_history) -> float:
    """Bound on the strict training error: (L/2) times the normalizer product.

    The logs are added one at a time in round order, as ``train`` adds them for
    its checkpoints, so both give the same bits (``np.sum`` adds pairwise, and
    ``sum`` of floats is compensated from Python 3.12 on)."""
    if n_labels < 2:
        raise ValueError("need at least two labels")
    log_z_sum = 0.0
    for z in _check_history(z_history).tolist():
        log_z_sum += math.log(z)
    return 0.5 * n_labels * math.exp(log_z_sum)


def empirical_margin_bound(n_labels: int, z_history, w_plus_history,
                           w_minus_history, n: int, theta: float) -> float:
    """Bound on the fraction of training examples with confidence margin <= theta."""
    if not theta > 0.0:  # NaN fails it too
        raise ValueError("theta must be positive")
    if n_labels < 2:
        raise ValueError("need at least two labels")
    if not n >= 1:
        raise ValueError("n must be at least 1")
    if not n < math.inf:
        raise ValueError("n must be finite")
    z = _check_history(z_history)
    w_plus = np.asarray(w_plus_history, dtype=np.float64)
    w_minus = np.asarray(w_minus_history, dtype=np.float64)
    if not (z.size == w_plus.size == w_minus.size):
        raise ValueError("round histories must have equal lengths")
    masses = np.concatenate((w_plus, w_minus), axis=None)
    if masses.size and not (masses.min() >= 0.0 and masses.max() < math.inf):  # NaN fails
        raise ValueError("round masses W+ and W- must be finite and nonnegative")
    if z.size == 0:
        return 0.5 * n_labels
    smooth = 1.0 / n
    log_total = float((np.log(z) + 0.5 * theta * (np.log(w_plus + smooth)
                                                  - np.log(w_minus + smooth))).sum())
    if log_total > 700.0:  # vacuous far beyond 1; exp would overflow
        return math.inf
    return 0.5 * n_labels * math.exp(log_total)


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp as scipy >= 1.15 computes it: the m entries tied at
    the row max leave the sum s of exp(a - max), log1p(s / m) + log(m) + max."""
    top = a.max(axis=1, keepdims=True)
    tied = a == top
    m = tied.sum(axis=1, dtype=np.float64)
    terms = np.exp(a - top)
    terms[tied] = 0.0
    return np.log1p(terms.sum(axis=1) / m) + np.log(m) + top[:, 0]


def margin_values(signed_scores, labels, eta: float) -> np.ndarray:
    """Per-example confidence margin of the vote, in [-1, 1].

    ``signed_scores`` holds the signed per-label vote totals F(x, y) with
    abstaining classifiers contributing nothing.  The margin is half the gap
    between the softened score of the true label and the best other label;
    it is positive exactly when the true label is the strict argmax.
    """
    if not eta > 0.0:  # NaN fails it too
        raise ValueError("total classifier weight must be positive")
    votes = np.asarray(signed_scores, dtype=np.float64)
    if not np.isfinite(votes).all():
        raise ValueError("signed scores must be finite")
    labels = np.asarray(labels, dtype=np.int64)
    n, n_labels = votes.shape
    if n_labels < 2:
        raise ValueError("need at least two labels")
    soft = np.empty_like(votes)
    for y in range(n_labels):
        arg = votes.copy()
        arg[:, y] = -arg[:, y]
        soft[:, y] = -(_logsumexp(arg) - math.log(n_labels)) / eta
    rows = np.arange(n)
    true_soft = soft[rows, labels].copy()
    soft[rows, labels] = -np.inf
    return 0.5 * (true_soft - soft.max(axis=1))


def margin(model: StrongModel, signed_scores, labels) -> np.ndarray:
    """Confidence margins under the model's own total vote weight."""
    return margin_values(signed_scores, labels, model.total_alpha)


def abstention_bound(n: int, p: float, classifier_count: float) -> float:
    """Probability that no combined classifier can vote on a fresh example."""
    _check_n(n)
    _check_unit(p, "p")
    if not classifier_count >= 0:  # NaN fails it too
        raise ValueError("classifier count must be nonnegative")
    base = (1.0 - p) + p * (1.0 - p) ** n
    return float(base ** classifier_count)


def _count(value, what: str) -> int:
    """``value`` as an int, if it is an integer (``operator.index``)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer") from None


def simulate_abstention(n: int, p: float, classifier_count: int, trials: int,
                        seed: int = 0) -> tuple[float, float]:
    """Monte Carlo oracle for ``abstention_bound``: (estimate, standard error).

    Each trial draws, per classifier, how many of the n training points it
    fires on and whether it fires on the test point; the trial abstains when
    no classifier does both.
    """
    n, trials = _count(n, "n"), _count(trials, "trials")
    classifier_count = _count(classifier_count, "classifier count")
    _check_n(n)
    _check_unit(p, "p")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if classifier_count < 0:
        raise ValueError("classifier count must be nonnegative")
    rng = np.random.default_rng(seed)
    abstained = 0
    block = max(1, min(trials, 2_000_000 // max(1, classifier_count)))
    for done in range(0, trials, block):
        size = min(block, trials - done)
        fires_train = rng.binomial(n, p, size=(size, classifier_count)) > 0
        fires_test = rng.random((size, classifier_count)) < p
        useful = fires_train & fires_test
        abstained += int((~useful.any(axis=1)).sum())
    estimate = abstained / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, stderr


def abstention_limit(k: float, beta: float) -> float:
    """Asymptotic abstention probability when p = 2n^(k-3) and C = n^beta / 2.

    Piecewise in the exponents: below the regime threshold every test point
    is orphaned (limit 1), above it none are (limit 0), and on the boundary
    the limit is one of three exact constants.
    """
    if not 0.0 <= k < 3.0:
        raise ValueError("k must lie in [0, 3)")
    if not 0.0 <= beta <= 2.0:
        raise ValueError("beta must lie in [0, 2]")
    if beta < 1.0:
        threshold, at_threshold = 3.0 - beta, math.exp(-1.0)
    elif beta == 1.0:
        threshold, at_threshold = 2.0, math.exp(math.exp(-2.0) - 1.0)
    else:
        threshold, at_threshold = (5.0 - beta) / 2.0, math.exp(-2.0)
    if k < threshold:
        return 1.0
    if k == threshold:
        return at_threshold
    return 0.0


def _regime(n, k: float, beta: float) -> tuple[float, float]:
    """The unrounded (p, C) = (2n^(k-3), n^beta / 2) of ``abstention_limit``'s regime."""
    _check_n(n)  # before n is raised to a power
    if math.inf in (abs(k), abs(beta)):  # a NaN goes on, to a NaN p or count
        raise ValueError(f"an exponent is infinite at k={k!r}, beta={beta!r}")
    try:
        return 2.0 * float(n) ** (k - 3.0), float(n) ** beta / 2.0
    except OverflowError:
        raise ValueError(f"a power of n={n} overflows at k={k!r}, beta={beta!r}") from None


def bound_surface_rows(n: int, k_grid, beta_grid):
    """Abstention bound over an exponent grid: rows (k, beta, bound).

    The classifier count n^beta / 2 is rounded half up (so never below 1);
    grid points whose implied availability exceeds 1 are skipped and
    reported in the second return value.
    """
    k_grid = list(k_grid)
    beta_grid = list(beta_grid)
    if not k_grid or not beta_grid:
        raise ValueError("grids must be nonempty")
    rows = []
    skipped = []
    for k in k_grid:
        for beta in beta_grid:
            p, count = _regime(n, k, beta)
            if p > 1.0:
                skipped.append((k, beta))
                continue
            rows.append((k, beta, abstention_bound(n, p, _round_half_up(count))))
    return rows, skipped


def end_to_end_abstention(n: int, n_labels: int, p: float, rounds: int,
                          n_models: int, draws_per_model: int,
                          seed: int = 0) -> tuple[float, float]:
    """Measured abstention of actually trained models under random availability.

    Each model runs ``train``'s loop of rounds (pair sampling, label selection,
    vote weighting, weight update) with every training example revealing its
    side to the round's classifier independently with probability p — the
    regime where the closed form is exact.  Test draw d fires each kept
    classifier with probability p and holds its distinct fired pairs as test
    example d; one ``predict_all`` call, the real scorer, says which draws the
    model abstains on.  Returns the mean abstention rate and its standard
    error over models.
    """
    if n_models < 2:
        raise ValueError("need at least two models for a standard error")
    if draws_per_model < 1:
        raise ValueError("need at least one draw per model")
    if n_labels < 2 or n_labels > n:
        raise ValueError("need 2 <= n_labels <= n")
    _check_unit(p, "p")
    if rounds < 0:
        raise ValueError("rounds must be nonnegative")
    labels = np.arange(n, dtype=np.int64) % n_labels
    ds = Dataset(labels, LabelDict(tuple(str(y) for y in range(n_labels))))
    rates = np.empty(n_models)
    for m_idx, child in enumerate(np.random.SeedSequence(seed).spawn(n_models)):
        rng = np.random.default_rng(child)

        def reveal(j, k):
            revealed = np.flatnonzero(rng.random(n) < p)
            near_lo = (rng.random(n) < 0.5)[revealed] ^ (j > k)  # closer to j, unless j > k
            return np.concatenate((revealed[near_lo], revealed[~near_lo])), near_lo.sum()

        pairs, sets, stats, _ = _boost(_Run(init_weights(n, n_labels), labels), rounds,
                                       rng.random, reveal)
        keep = stats[:, 3] != 0.0
        model = StrongModel._from_columns(ds.label_dict, n, pairs[keep], sets[keep],
                                          stats[keep, 3])
        draw, fired = np.nonzero(rng.random((draws_per_model, model.alpha.size)) < p)
        # the distinct (draw, j, k) rows, sorted, as int64 keys (draw*n + j)*n + k
        key = _distinct(_pair_keys(draw * n + model.j[fired], model.k[fired], n))
        tset = TestTripletSet(draws_per_model, n, key // (n * n), key // n % n, key % n,
                              np.ones(key.size, dtype=bool))
        rates[m_idx] = np.mean(predict_all(model, tset).label == ABSTAIN)
    estimate = float(rates.mean())
    stderr = float(rates.std(ddof=1) / math.sqrt(n_models))
    return estimate, stderr
