"""Seeded experiment grids over triplet proportion and noise level."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import boost, dataset, formats, metrics, predict, triplets

__all__ = ["ExperimentSpec", "parse_spec", "run_cell", "run_experiment"]

CSV_HEADER = ("metric", "proportion", "noise", "seed", "accuracy", "abstention_rate")


@dataclass(frozen=True)
class ExperimentSpec:
    """One grid: repetitions x proportions x noise levels on a single dataset.

    ``data`` is a CSV path or the literal "moons" for the built-in synthetic
    generator.  Every cell derives its own integer seed from (seed, rep,
    proportion index, noise index); the dataset and its split are shared by
    all cells of one repetition.
    """

    data: str
    metric: str
    proportions: tuple[float, ...]
    noise_levels: tuple[float, ...]
    rounds: int
    repetitions: int
    seed: int
    out_dir: str
    test_fraction: float = 0.3
    moons_n: int = 500
    moons_noise: float = 0.1
    has_header: bool = False

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if not self.proportions or not self.noise_levels:
            raise ValueError("need at least one proportion and one noise level")
        for value in self.proportions + self.noise_levels:
            dataset._check_unit(value, "proportions and noise levels")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie strictly between 0 and 1")
        if self.metric not in triplets.METRICS:
            raise ValueError(f"unknown metric {self.metric!r}; expected one of "
                             f"{triplets.METRICS}")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _flag(text: str) -> bool:
    if text.lower() not in ("true", "false", "1", "0", "yes", "no"):
        raise ValueError(f"has_header must be boolean-like, got {text!r}")
    return text.lower() in ("true", "1", "yes")


# spec key -> (ExperimentSpec field, parser of its value); the first eight are required
_KEYS = {"data": ("data", str), "metric": ("metric", str),
         "proportions": ("proportions", _floats), "noises": ("noise_levels", _floats),
         "rounds": ("rounds", int), "repetitions": ("repetitions", int),
         "seed": ("seed", int), "out": ("out_dir", str),
         "test_fraction": ("test_fraction", float), "moons_n": ("moons_n", int),
         "moons_noise": ("moons_noise", float), "has_header": ("has_header", _flag)}


def parse_spec(path) -> ExperimentSpec:
    """Parse the key=value spec file ('#' starts a comment); an unknown or a
    repeated key, or a value that does not parse, is rejected, naming its line."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = (part.strip() for part in line.partition("="))
            if not sep:
                raise ValueError(f"expected key=value at line {lineno}")
            if key not in _KEYS or key in values:
                problem = "repeated" if key in values else "unknown"
                raise ValueError(f"{problem} spec key {key!r} at line {lineno}")
            try:
                values[key] = _KEYS[key][1](val)
            except ValueError as exc:
                raise ValueError(f"bad value for spec key {key!r} at line {lineno}: "
                                 f"{exc}") from None
    missing = [key for key in list(_KEYS)[:8] if key not in values]
    if missing:
        raise ValueError(f"missing required spec key: {missing[0]!r}")
    return ExperimentSpec(**{_KEYS[key][0]: val for key, val in values.items()})


def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _load_data(spec: ExperimentSpec, data_seed: int) -> dataset.Dataset:
    if spec.data == "moons":
        return dataset.make_moons(spec.moons_n, spec.moons_noise, data_seed)
    return dataset.load_csv(spec.data, has_header=spec.has_header)


def run_cell(spec: ExperimentSpec, proportion: float, noise: float,
             cell_seed: int, data_seed: int) -> tuple:
    """One grid cell: generate, train, evaluate; returns a CSV row tuple."""
    ds = _load_data(spec, data_seed)
    train_ds, test_ds = dataset.split(ds, spec.test_fraction, data_seed)
    gen_seed, test_seed, train_seed, eval_seed = (
        int(s.generate_state(1)[0])
        for s in np.random.SeedSequence(cell_seed).spawn(4))
    store = triplets.generate_training_set(train_ds, spec.metric, proportion,
                                           noise, gen_seed)
    model = boost.train(train_ds, store,
                        boost.BoostConfig(rounds=spec.rounds, seed=train_seed))
    tset = triplets.generate_test_set(test_ds, train_ds, spec.metric,
                                      proportion, noise, test_seed)
    predictions = predict.predict_all(model, tset)
    truth = [frozenset([int(y)]) for y in test_ds.labels]
    report = metrics.evaluate_predictions(predictions, truth, ds.label_dict,
                                          policy="random", seed=eval_seed)
    return (spec.metric, proportion, noise, cell_seed,
            report.accuracy, report.abstention_rate)


def run_experiment(spec: ExperimentSpec, log=None) -> list[tuple]:
    """Run the whole grid deterministically and write ``results.csv``."""
    rows = []
    for p_idx, proportion in enumerate(spec.proportions):
        for n_idx, noise in enumerate(spec.noise_levels):
            for rep in range(spec.repetitions):
                cell_seed = _derived_seed(spec.seed, rep, p_idx, n_idx)
                data_seed = _derived_seed(spec.seed, rep)
                if log is not None:
                    log(f"cell proportion={proportion} noise={noise} rep={rep}")
                rows.append(run_cell(spec, proportion, noise,
                                     cell_seed, data_seed))
    os.makedirs(spec.out_dir, exist_ok=True)
    formats.save_table(os.path.join(spec.out_dir, "results.csv"), [",".join(CSV_HEADER)],
                       "{},{!r},{!r},{},{!r},{!r}\n",
                       [np.array(col, dtype=object) for col in zip(*rows)])
    return rows
