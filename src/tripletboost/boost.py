"""The boosting loop: weight distribution, pair sampling, rounds, model assembly.

A model is columns: ``StrongModel`` holds its classifiers and round stats as
read-only arrays, and ``TripletClassifier``/``RoundStats`` objects are views.
``_boost`` is the one loop of rounds, which ``train`` and
``bounds.end_to_end_abstention`` share; it writes each round into a row of
columns preallocated for the run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import formats
from .dataset import Dataset, LabelDict
from .triplets import TestTripletSet, TripletStore, _check_universe, _pair_keys, _pair_rows
from .weak import (
    MAX_LABELS,
    RoundStats,
    TripletClassifier,
    _gather,
    _mask_bools,
    _pack_masks,
    _play,
    _Run,
    _update,
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
    """Weighted vote over triplet classifiers, held as read-only columns.

    Classifier c votes ``alpha[c]`` on the pair ``j[c] < k[c]`` with the (2, L)
    bool ``label_sets[c]``: its set for examples closer to j, then to k.
    ``key_order`` stably sorts the pair keys j*n_train + k into
    ``sorted_keys`` for the scorer, ``key_slots`` finds a key's first position
    there by hashing (see ``_slot_table``) and ``key_runs[p]`` counts the
    classifiers sharing the key at position p; ``stats`` has one ``RoundStats``
    row per round.  ``train_scores`` holds the signed per-(example, label) vote
    totals accumulated on the training set by ``train`` (positive entries back the
    label, negative entries oppose it); it is not persisted by ``save_model``.
    """

    def __init__(self, classifiers, label_dict: LabelDict, n_train: int, *,
                 rounds_run: int = 0):
        rows = [(h.j, h.k, h.o_j, h.o_k, h.alpha) for h in classifiers]
        self._init(label_dict, n_train, *_columns(rows, int(n_train), label_dict.size,
                                                  lambda idx: f"classifier {idx}"),
                   rounds_run=rounds_run)

    def _init(self, label_dict, n_train, pairs, sets, alpha, stats=(), rounds_run=0,
              train_scores=None, checkpoints=None):
        """Hold trusted columns: (j, k) pairs with j < k, their (2, L) label sets
        (j side first) and weights, and one stats row per round.  An array of the
        column's dtype is held as it is, not copied, and made read-only."""
        self.label_dict = label_dict
        self.n_train = int(n_train)
        self.rounds_run = int(rounds_run)
        self.train_scores = train_scores
        self.checkpoints = list(checkpoints) if checkpoints is not None else []
        self.j, self.k = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T.copy()
        self.label_sets = np.asarray(sets, dtype=bool).reshape(-1, 2, label_dict.size)
        self.alpha = np.asarray(alpha, dtype=np.float64)
        self.stats = np.asarray(stats, dtype=np.float64).reshape(-1, 4)
        keys = _pair_keys(self.j, self.k, self.n_train)
        self.key_order = np.argsort(keys, kind="stable")
        self.sorted_keys = keys[self.key_order]
        self.key_slots, self.key_runs = _slot_table(self.sorted_keys)
        for col in (self.j, self.k, self.label_sets, self.alpha, self.stats,
                    self.key_order, self.sorted_keys, self.key_slots, self.key_runs):
            col.flags.writeable = False

    def _match(self, keys: np.ndarray):
        """Each (index into ``keys``, classifier) whose pair key j*n_train + k is
        that key; the classifiers of one index come together, in ascending order.
        A key is looked up in ``key_slots``: one that meets another key probes the
        next slot, until it meets its own or a free slot."""
        slot = _home(keys, _slot_bits(self.sorted_keys.size))
        held = self.key_slots[slot]
        rows = np.flatnonzero(held > 0)  # the keys at a taken slot
        slot, held = slot[rows], held[rows] - 1
        found, first = [rows[:0]], [held[:0]]
        while rows.size:
            own = self.sorted_keys[held] == keys[rows]
            found.append(rows[own])
            first.append(held[own])
            rows, slot = rows[~own], slot[~own] + 1
            held = self.key_slots[slot]
            taken = held > 0
            rows, slot, held = rows[taken], slot[taken], held[taken] - 1
        found, first = np.concatenate(found), np.concatenate(first)
        # A key several classifiers share matches each: positions first, first + 1, ...
        count = self.key_runs[first]
        at = np.repeat(first - np.cumsum(count) + count, count)
        return np.repeat(found, count), self.key_order[at + np.arange(at.size)]

    @classmethod
    def _from_columns(cls, *columns, **meta) -> "StrongModel":
        """A model from ``_init`` alone, without the constructor's conversion and checks."""
        out = object.__new__(cls)
        out._init(*columns, **meta)
        return out

    @property
    def n_labels(self) -> int:
        return self.label_dict.size

    @property
    def classifiers(self) -> list[TripletClassifier]:
        """A new list of views of the classifiers, in training order."""
        masks = _pack_masks(self.label_sets).tolist()
        return [TripletClassifier(j, k, o_j, o_k, alpha) for j, k, (o_j, o_k), alpha
                in zip(self.j.tolist(), self.k.tolist(), masks, self.alpha.tolist())]

    @property
    def round_stats(self) -> list[RoundStats]:
        """A new list of views of the per-round stats, in round order."""
        return [RoundStats(*row) for row in self.stats.tolist()]

    @property
    def total_alpha(self) -> float:
        # in classifier order: an accumulate adds strictly in order, where np.sum
        # adds pairwise and sum() compensates from Python 3.12
        return float(np.add.accumulate(self.alpha)[-1]) if self.alpha.size else 0.0

    def z_history(self) -> np.ndarray:
        return self.stats[:, 2].copy()

    def w_plus_history(self) -> np.ndarray:
        return self.stats[:, 0].copy()

    def w_minus_history(self) -> np.ndarray:
        return self.stats[:, 1].copy()

    def __eq__(self, other):
        if not isinstance(other, StrongModel):
            return NotImplemented
        return (all(np.array_equal(getattr(self, col), getattr(other, col))
                    for col in ("j", "k", "alpha", "label_sets"))
                and self.label_dict == other.label_dict
                and self.n_train == other.n_train
                and self.rounds_run == other.rounds_run)


def _columns(rows, n_train: int, n_labels: int, where):
    """(pairs, label sets, alpha) columns of (j, k, o_j, o_k, alpha) rows.

    The first row that does not fit the model raises, named by ``where(index)``;
    its pair is checked first, then its label sets, then its weight.
    """
    limit = 1 << min(n_labels, MAX_LABELS)  # a label set is at most 64 bits
    for idx, (j, k, o_j, o_k, alpha) in enumerate(rows):
        if not 0 <= j < k < n_train:
            raise ValueError(f"reference pair needs 0 <= j < k < {n_train} at {where(idx)}")
        if not (0 <= o_j < limit and 0 <= o_k < limit):
            raise ValueError(f"label set out of range at {where(idx)}")
        if not math.isfinite(alpha):
            raise ValueError(f"non-finite alpha at {where(idx)}")
    j, k, o_j, o_k, alpha = zip(*rows) if rows else ((),) * 5
    pairs = np.array((j, k), dtype=np.int64).T
    return pairs, _mask_bools(np.array((o_j, o_k), dtype=np.uint64).T, n_labels), alpha


_FIB = np.uint64(0x9E3779B97F4A7C15)  # 2**64 over the golden ratio: Fibonacci hashing


def _slot_bits(size: int) -> int:
    """log2 of the hashed slots for ``size`` keys: more than 8 slots a key, so
    nearly every lookup ends at its home slot."""
    return (8 * size).bit_length() or 1


def _home(keys: np.ndarray, bits: int) -> np.ndarray:
    """Home slots in [0, 2**bits) of nonnegative int64 keys (Fibonacci hashing)."""
    out = keys.view(np.uint64) * _FIB
    out >>= np.uint64(64 - bits)
    return out.view(np.int64)


def _slot_table(sorted_keys: np.ndarray):
    """A linear-probing hash table of the C sorted (nonnegative) keys, and their int32
    run lengths.

    The table has 2**bits + C int32 slots, bits = ``_slot_bits(C)``.  A distinct key
    takes the first slot from its home on that no other key took, and the slot
    holds 1 + the key's first position in ``sorted_keys``; a free slot holds 0.
    The C slots past 2**bits take what probing pushes over the end, so a lookup
    never wraps around.
    """
    size, bits = sorted_keys.size, _slot_bits(sorted_keys.size)
    first = np.flatnonzero(np.diff(sorted_keys, prepend=-1))
    runs = np.diff(first, append=size).astype(np.int32)
    home = _home(sorted_keys[first], bits)
    order = np.argsort(home, kind="stable")
    rank = np.arange(first.size)
    # In home order each key takes max(its home, the slot before it + 1).
    slot = np.maximum.accumulate(home[order] - rank) + rank
    table = np.zeros((1 << bits) + size, dtype=np.int32)
    table[slot] = first[order] + 1
    return table, np.repeat(runs, runs)


def init_weights(n: int, n_labels: int) -> np.ndarray:
    """Uniform empirical distribution over (example, label) pairs."""
    if n < 1 or n_labels < 2:
        raise ValueError("need n >= 1 examples and at least 2 labels")
    return np.full((n, n_labels), 1.0 / (n * n_labels))


def sample_reference_pair(ds: Dataset, w: np.ndarray, rng) -> tuple[int, int]:
    """Draw j from the example marginal, then k from the other-label marginal."""
    if not (0.0 <= w.min() and w.max() < math.inf):  # NaN fails both
        raise ValueError("weights must be finite and nonnegative")
    return _Run(w, ds.labels).draw(rng.random)


def _uniforms(rng, count: int, block: int = 1 << 13):
    """``count`` draws of ``rng.random()``, taken ``block`` at a time: an array
    draw holds the doubles that as many scalar draws return."""
    for start in range(0, count, block):
        yield from rng.random(min(block, count - start)).tolist()


def update_weights(w: np.ndarray, h: TripletClassifier, ts: TripletStore,
                   ds: Dataset) -> tuple[np.ndarray, float]:
    """One multiplicative-update step; abstaining examples keep their weights.

    Returns the new distribution and the pre-normalization total (the
    round's normalizer).  A zero-weight classifier leaves the distribution
    untouched and reports a total of exactly 1.
    """
    run = _Run(w.copy(), ds.labels)
    gathered = _gather(run, *_pair_rows(ts.pair_groups(), ts.n, h.j, h.k))
    if h.alpha == 0.0 or gathered[0].size == 0:
        return run.w, 1.0
    return run.w, _update(run, gathered, _mask_bools((h.o_j, h.o_k), ds.n_labels), h.alpha)


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


def _boost(run: _Run, rounds: int, uniform, rows_of, stats_every: int = 0):
    """Play ``rounds`` rounds on ``run``, each into its own row of preallocated columns.

    A round draws its pair (j, k) with ``uniform`` and plays the rows that
    ``rows_of(j, k)`` returns (see ``_play``).  Returns the (lo, hi) pairs (R, 2),
    the label sets (R, 2, L), lo side first, the stats (R, 4) in ``RoundStats``
    order, and every ``stats_every`` rounds (and after the last) a ``Checkpoint``
    of ``run.scores``; its bound adds the logs of z one at a time, in round order.
    """
    pairs, stats = np.empty((rounds, 2), dtype=np.int64), np.empty((rounds, 4))
    sets = np.empty((rounds, 2, run.w.shape[1]), dtype=bool)
    checkpoints, log_z_sum = [], 0.0
    for rnd in range(rounds):
        j, k = pairs[rnd] = run.draw(uniform)
        sets[rnd], stats[rnd] = _play(run, *rows_of(j, k))
        if stats_every and ((rnd + 1) % stats_every == 0 or rnd + 1 == rounds):
            # every checkpoint but the last closes a block of stats_every rounds
            for z in stats[len(checkpoints) * stats_every:rnd + 1, 2].tolist():
                log_z_sum += math.log(z)
            checkpoints.append(Checkpoint(rnd + 1, _strict_error(run.scores, run.labels),
                                          0.5 * run.w.shape[1] * math.exp(log_z_sum)))
    pairs.sort(axis=1)  # as played, lo side first
    return pairs, sets, stats, checkpoints


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
    if not (ds.labels[1:] != ds.labels[:1]).any():  # np.unique would load numpy.ma
        raise ValueError("training needs at least two classes present")
    if isinstance(ts, TestTripletSet):
        raise ValueError("train needs the training store, not a TestTripletSet")
    if ts.n != n:
        raise ValueError("triplet store universe does not match the dataset")

    uniform = _uniforms(np.random.default_rng(cfg.seed), 2 * cfg.rounds).__next__
    run = _Run(init_weights(n, n_labels), ds.labels, np.zeros((n, n_labels)))
    pairs, sets, stats, checkpoints = _boost(
        run, cfg.rounds, uniform, functools.partial(_pair_rows, ts.pair_groups(), n),
        cfg.stats_every)
    keep = (stats[:, 3] != 0.0) | cfg.keep_zero_alpha
    return StrongModel._from_columns(ds.label_dict, n, pairs[keep], sets[keep], stats[keep, 3],
                                     stats, cfg.rounds, run.scores, checkpoints)


# -- model persistence ----------------------------------------------------------


def save_model(model: StrongModel, path) -> None:
    """Canonical text format; classifiers keep their training order."""
    formats.save_model(path, model.label_dict.names, model.n_train, model.rounds_run,
                       (model.j, model.k, model.alpha, *_pack_masks(model.label_sets).T))


def load_model(path) -> StrongModel:
    """Read a ``save_model`` file; each classifier error names its line."""
    names, n_train, rounds_run, columns = formats.load_model(path, _check_universe, _columns)
    return StrongModel._from_columns(LabelDict(names), n_train, *columns,
                                     rounds_run=rounds_run)
