"""The boosting loop: weight distribution, pair sampling, rounds, model assembly."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import Dataset, LabelDict
from .triplets import TripletStore, _parse_header
from .weak import (
    MAX_LABELS,
    RoundStats,
    TripletClassifier,
    _mask_bools,
    _round,
    _update,
    fired_buckets,
)

__all__ = [
    "BoostConfig",
    "Checkpoint",
    "StrongModel",
    "init_weights",
    "sample_reference_pair",
    "update_weights",
    "train",
    "save_model",
    "load_model",
]


@dataclass(frozen=True)
class BoostConfig:
    """Training knobs; ``stats_every`` > 0 records train-error checkpoints."""

    rounds: int
    seed: int = 0
    keep_zero_alpha: bool = False
    stats_every: int = 0

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if self.stats_every < 0:
            raise ValueError("stats_every must be nonnegative")


class Checkpoint(NamedTuple):
    round: int
    train_error: float
    error_bound: float


class StrongModel:
    """Weighted vote over triplet classifiers, plus training metadata.

    ``train_scores`` holds the signed per-(example, label) vote totals
    accumulated on the training set (positive entries back the label,
    negative entries oppose it); it is not persisted by ``save_model``.
    """

    def __init__(self, classifiers, label_dict: LabelDict, n_train: int,
                 round_stats=None, rounds_run: int = 0, train_scores=None,
                 checkpoints=None):
        self.classifiers = list(classifiers)
        self.label_dict = label_dict
        self.n_train = int(n_train)
        self.round_stats = list(round_stats) if round_stats is not None else []
        self.rounds_run = int(rounds_run)
        self.train_scores = train_scores
        self.checkpoints = list(checkpoints) if checkpoints is not None else []
        self._index_cache = None

    @property
    def n_labels(self) -> int:
        return self.label_dict.size

    @property
    def total_alpha(self) -> float:
        return float(sum(h.alpha for h in self.classifiers))

    def z_history(self) -> np.ndarray:
        return np.array([s.z for s in self.round_stats])

    def w_plus_history(self) -> np.ndarray:
        return np.array([s.w_plus for s in self.round_stats])

    def w_minus_history(self) -> np.ndarray:
        return np.array([s.w_minus for s in self.round_stats])

    def __eq__(self, other):
        if not isinstance(other, StrongModel):
            return NotImplemented
        return (self.classifiers == other.classifiers
                and self.label_dict == other.label_dict
                and self.n_train == other.n_train
                and self.rounds_run == other.rounds_run)


def init_weights(n: int, n_labels: int) -> np.ndarray:
    """Uniform empirical distribution over (example, label) pairs."""
    if n < 1 or n_labels < 2:
        raise ValueError("need n >= 1 examples and at least 2 labels")
    return np.full((n, n_labels), 1.0 / (n * n_labels))


def _draw_index(cum: np.ndarray, u: float) -> int:
    idx = int(np.searchsorted(cum, u, side="right"))
    if idx >= cum.size:  # u rounded up to the total mass
        idx = cum.size - 1
        while idx > 0 and cum[idx] == cum[idx - 1]:
            idx -= 1
    return idx


def sample_reference_pair(ds: Dataset, w: np.ndarray, rng) -> tuple[int, int]:
    """Draw j from the example marginal, then k from the other-label marginal."""
    marg = w.sum(axis=1)
    cum = np.cumsum(marg)
    total = float(cum[-1])
    if total <= 0.0:
        raise ValueError("weight distribution has no mass")
    j = _draw_index(cum, rng.random() * total)
    allowed = ds.labels != ds.labels[j]
    cum_k = np.cumsum(np.where(allowed, marg, 0.0))
    total_k = float(cum_k[-1])
    if total_k <= 0.0:
        raise ValueError("need at least two classes to sample a reference pair")
    k = _draw_index(cum_k, rng.random() * total_k)
    return j, k


def update_weights(w: np.ndarray, h: TripletClassifier, ts: TripletStore,
                   ds: Dataset) -> tuple[np.ndarray, float]:
    """One multiplicative-update step; abstaining examples keep their weights.

    Returns the new distribution and the pre-normalization total (the
    round's normalizer).  A zero-weight classifier leaves the distribution
    untouched and reports a total of exactly 1.
    """
    fwd, rev = fired_buckets(ts, h.j, h.k)
    if h.alpha == 0.0 or (fwd.size == 0 and rev.size == 0):
        return w.copy(), 1.0
    out = w.copy()
    sides = ((fwd, _mask_bools(h.o_j, ds.n_labels)), (rev, _mask_bools(h.o_k, ds.n_labels)))
    return out, _update(out, ds.labels, sides, h.alpha)


def _strict_error(scores: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of examples whose true label is not the strict unique argmax.

    This is the pessimistic error the training-error bound controls: score
    ties against the true label count as errors.
    """
    rows = np.arange(scores.shape[0])
    true_vals = scores[rows, labels]
    masked = scores.copy()
    masked[rows, labels] = -np.inf
    other_max = masked.max(axis=1)
    return float(np.mean(~(true_vals > other_max)))


def train(ds: Dataset, ts: TripletStore, cfg: BoostConfig) -> StrongModel:
    """Run the full boosting loop and assemble the strong classifier.

    Rounds whose classifier earns weight zero are recorded in the stats but
    contribute no classifier (unless ``keep_zero_alpha``); they still
    consume the sampling RNG, so models are reproducible round for round.
    """
    n, n_labels = ds.n, ds.n_labels
    if n_labels < 2:
        raise ValueError("training needs at least two labels")
    if n_labels > MAX_LABELS:
        raise ValueError(f"at most {MAX_LABELS} labels are supported")
    if np.unique(ds.labels).size < 2:
        raise ValueError("training needs at least two classes present")
    if ts.n != n:
        raise ValueError("triplet store universe does not match the dataset")

    rng = np.random.default_rng(cfg.seed)
    w = init_weights(n, n_labels)
    scores = np.zeros((n, n_labels))
    classifiers: list[TripletClassifier] = []
    stats: list[RoundStats] = []
    checkpoints: list[Checkpoint] = []
    log_z_sum = 0.0

    for rnd in range(1, cfg.rounds + 1):
        j, k = sample_reference_pair(ds, w, rng)
        h, stat = _round(w, ds.labels, j, k, *fired_buckets(ts, j, k), scores)
        if h.alpha != 0.0 or cfg.keep_zero_alpha:
            classifiers.append(h)
        stats.append(stat)
        log_z_sum += math.log(stat.z)
        if cfg.stats_every and (rnd % cfg.stats_every == 0 or rnd == cfg.rounds):
            checkpoints.append(Checkpoint(
                rnd, _strict_error(scores, ds.labels),
                0.5 * n_labels * math.exp(log_z_sum)))

    return StrongModel(classifiers, ds.label_dict, n, stats, cfg.rounds,
                       train_scores=scores, checkpoints=checkpoints)


# -- model persistence ----------------------------------------------------------


def save_model(model: StrongModel, path) -> None:
    """Canonical text format; classifiers keep their training order."""
    names = model.label_dict.names
    if any("\t" in name or "\n" in name for name in names):
        raise ValueError("label names with tabs or newlines cannot be serialized")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"tripletboost-model v1 L={model.n_labels} n={model.n_train} "
                 f"C={model.rounds_run}\n")
        fh.write("\t".join(names) + "\n")
        for h in model.classifiers:
            fh.write(f"{h.j} {h.k} {h.alpha!r} {h.o_j:x} {h.o_k:x}\n")


def load_model(path) -> StrongModel:
    """Read a ``save_model`` file; each classifier error names its line."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        names_line = fh.readline().rstrip("\n")
        body = fh.read().splitlines()
    n_labels, n_train, rounds_run = _parse_header(
        header, "tripletboost-model", ("L", "n", "C"), path)
    names = tuple(names_line.split("\t"))
    if len(names) != n_labels:
        raise ValueError(f"label count disagrees with header in {path}")
    classifiers = []
    for lineno, line in enumerate(body, start=3):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != 5:
            raise ValueError(f"malformed classifier at line {lineno}")
        try:
            j, k = int(tokens[0]), int(tokens[1])
            alpha = float(tokens[2])
            o_j, o_k = int(tokens[3], 16), int(tokens[4], 16)
        except ValueError:
            raise ValueError(f"malformed classifier at line {lineno}") from None
        if not 0 <= j < k < n_train:
            raise ValueError(f"reference pair needs 0 <= j < k < {n_train} at line {lineno}")
        if not (0 <= o_j < 1 << n_labels and 0 <= o_k < 1 << n_labels):
            raise ValueError(f"label set out of range at line {lineno}")
        if not math.isfinite(alpha):
            raise ValueError(f"non-finite alpha at line {lineno}")
        classifiers.append(TripletClassifier(j, k, o_j, o_k, alpha))
    return StrongModel(classifiers, LabelDict(names), n_train,
                       rounds_run=rounds_run)
