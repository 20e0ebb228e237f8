"""The benchmark's workloads: seeded inputs, timed passes, output checks.

Every workload runs the same skeleton (``run_workload``):

1. set up (inputs plus a warm-up);
2. timed passes over the workload's body until ``--seconds`` are used
   -> ``wall_s``, and ``peak_rss_mb`` after the first pass; after each
   pass the set-up twice more, until there are ``setup_repeats``
   -> ``setup_s``;
3. any set-ups still missing;
4. output checks, each counted and none allowed to crash the run;
5. a per-example ``score()`` latency probe -> ``predict.score_ms_*``;
6. traced runs only: the same passes again with spans installed, plus the
   step-API replay, a memory probe, and a file/CLI pass over the workload's
   own artifacts, so every layer has numbers on every workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import tripletboost
from tripletboost import boost, bounds, cli, dataset, metrics, predict, triplets, weak

import tracing

METRIC = "euclidean"
MOONS_NOISE = 0.1
REPLAY_ROUNDS = 2000
LATENCY_EXAMPLES = 500  # first examples scored, repeated in order until ...
LATENCY_MIN_S = 1.5  # ... this much scoring time is sampled
LATENCY_MAX_SAMPLES = 5000
MAX_TRACED_PASSES = 3
TOP_K = 2
LAYERS = ("dataset", "triplets", "weak", "boost", "predict", "metrics", "bounds", "bench")


class Seeds:
    """Independent child seeds for every random step, all from the workload seed."""

    def __init__(self, seed: int):
        children = np.random.SeedSequence(seed).spawn(6)
        (self.data, self.gen, self.test, self.train, self.eval,
         self.check) = (int(c.generate_state(1)[0]) for c in children)


class Clock:
    """Wall time of each named stage; in traced runs each stage is also a span."""

    def __init__(self, tracer: tracing.Tracer | None = None):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.tracer = tracer
        self.ops = 0

    def stage(self, name: str, fn, *args, **kwargs):
        with self.tracer.span(f"bench.{name}") if self.tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.samples[name].append(time.perf_counter() - t0)
        self.ops += 1
        return out

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])


class Checks:
    """Output checks: a failure or exception is counted, reported and survived."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.log: list[dict] = []

    def run(self, name: str, fn) -> bool:
        self.attempted += 1
        try:
            ok, detail = bool(fn()), ""
        except Exception:  # a broken check must not end the run
            ok, detail = False, traceback.format_exc()
        if not ok:
            self.failed += 1
            print(f"check failed: {name}\n{detail}", file=sys.stderr)
        self.log.append({"check": name, "ok": ok})
        return ok


@dataclass
class Cell:
    """What one pipeline run produced; checks and the traced extras read it."""

    train_ds: dataset.Dataset
    test_ds: dataset.Dataset
    store: triplets.TripletStore
    tset: triplets.TestTripletSet
    model: boost.StrongModel
    predictions: list
    report: metrics.EvalReport
    rounds: int
    p_train: float
    p_test: float

    @property
    def candidates(self) -> int:
        n, n_test = self.train_ds.n, self.test_ds.n
        return n * math.comb(n - 1, 2) + n_test * math.comb(n, 2)


# -- pipeline steps shared by the workloads -------------------------------------


def make_split(n: int, test_fraction: float, seeds: Seeds):
    ds = dataset.make_moons(n, MOONS_NOISE, seeds.data)
    return dataset.split(ds, test_fraction, seeds.data)


def evaluate(predictions, test_ds, seed):
    predict.resolve_all(predictions, "random", seed)
    truth = [frozenset([int(y)]) for y in test_ds.labels]
    return metrics.evaluate_predictions(predictions, truth, test_ds.label_dict,
                                        policy="random", seed=seed, k=TOP_K)


def certify(model, train_ds, store):
    """The paper's certificates: error bound, margins, abstention bound."""
    err_bound = bounds.training_error_bound(train_ds.n_labels, model.z_history())
    margins = bounds.margin(model, model.train_scores, train_ds.labels)
    abstention = bounds.abstention_bound(train_ds.n, store.availability(),
                                         len(model.classifiers))
    return err_bound, margins, abstention


def in_memory_cell(clock, train_ds, test_ds, p_train, p_test, rounds, seeds) -> Cell:
    store = clock.stage("gen_train", triplets.generate_training_set, train_ds,
                        METRIC, p_train, 0.0, seeds.gen)
    model = clock.stage("train", boost.train, train_ds, store,
                        boost.BoostConfig(rounds=rounds, seed=seeds.train))
    tset = clock.stage("gen_test", triplets.generate_test_set, test_ds, train_ds,
                       METRIC, p_test, 0.0, seeds.test)
    clock.stage("index", predict.score, model, [])
    preds = clock.stage("predict", predict.predict_all, model, tset)
    report = clock.stage("evaluate", evaluate, preds, test_ds, seeds.eval)
    clock.stage("certify", certify, model, train_ds, store)
    return Cell(train_ds, test_ds, store, tset, model, preds, report, rounds,
                p_train, p_test)


def warm_up(seeds: Seeds, train_ds, test_ds) -> None:
    """First calls cost more than later ones; pay that before any timing.

    A small pipeline runs every code path once.  Test triplets for two
    anchors against the full training set allocate the generators' largest
    per-anchor arrays at full size: the first such allocations in a process
    page-fault heavily (n_train=1200: 1.2M faults, +40% generation time), later
    ones reuse memory the allocator keeps.
    """
    small_train, small_test = make_split(120, 0.3, seeds)
    in_memory_cell(Clock(), small_train, small_test, 0.1, 0.1, 300, seeds)
    triplets.generate_test_set(test_ds.take(np.arange(2)), train_ds, METRIC, 1.0, 0.0,
                               seeds.test)


def run_cli(tracer, argv: list[str]) -> str:
    """``tripletboost <argv>`` in-process; returns its standard output."""
    out, err = io.StringIO(), io.StringIO()
    with (tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext(),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"tripletboost {argv[0]} exited {code}: {err.getvalue()}")
    return out.getvalue()


def write_csvs(data_dir, train_ds, test_ds) -> None:
    os.makedirs(data_dir, exist_ok=True)
    dataset.save_csv(train_ds, os.path.join(data_dir, "train.csv"))
    dataset.save_csv(test_ds, os.path.join(data_dir, "test.csv"))


def cli_pass(clock, work_dir, p_train, p_test, rounds, seeds) -> dict:
    """The README walkthrough on the CSVs in ``work_dir``: gen-triplets for the
    training and the test set, train, predict, evaluate.  Returns
    ``evaluate``'s JSON record."""
    path = lambda name: os.path.join(work_dir, name)  # noqa: E731
    gen = ["gen-triplets", "--data", path("train.csv"), "--metric", METRIC,
           "--noise", "0.0"]
    policy = ["--policy", "random", "--seed", str(seeds.eval)]
    commands = {
        "cli_gen_train": gen + ["--proportion", repr(p_train), "--seed", str(seeds.gen),
                                "--out", path("train.trp")],
        "cli_gen_test": gen + ["--test-data", path("test.csv"), "--proportion",
                               repr(p_test), "--seed", str(seeds.test),
                               "--out", path("test.trp")],
        "cli_train": ["train", "--data", path("train.csv"), "--triplets", path("train.trp"),
                      "--rounds", str(rounds), "--seed", str(seeds.train),
                      "--out-model", path("model.txt")],
        "cli_predict": ["predict", "--model", path("model.txt"), "--test-triplets",
                        path("test.trp"), *policy, "--out", path("predictions.csv")],
        "cli_evaluate": ["evaluate", "--model", path("model.txt"), "--test-triplets",
                         path("test.trp"), "--labels", path("test.csv"), *policy,
                         "--k", str(TOP_K)],
    }
    for stage, argv in commands.items():
        text = clock.stage(stage, run_cli, clock.tracer, argv)
    return json.loads(text.strip().splitlines()[-1])


# -- output checks ----------------------------------------------------------------


def check_model(ck: Checks, cell: Cell, seeds: Seeds, naive_examples: int) -> None:
    """Scorer against its oracle, and the training error against its bound."""
    model, tset = cell.model, cell.tset
    rng = np.random.default_rng(seeds.check)
    sample = rng.choice(tset.n_test, size=min(naive_examples, tset.n_test),
                        replace=False)

    def scorer_matches_oracle():
        for x in sample:
            pairs = tset.pairs_for(int(x))
            fast, slow = predict.score(model, pairs), predict.score_naive(model, pairs)
            if not (np.array_equal(fast.scores, slow.scores) and fast.label == slow.label
                    and fast.matched == slow.matched
                    and fast.fired_alpha == slow.fired_alpha):
                return False
        return True

    def error_within_bound():
        rows = np.arange(cell.train_ds.n)
        scores, labels = model.train_scores, cell.train_ds.labels
        others = scores.copy()
        others[rows, labels] = -np.inf
        error = float(np.mean(~(scores[rows, labels] > others.max(axis=1))))
        bound = bounds.training_error_bound(cell.train_ds.n_labels, model.z_history())
        return error <= bound

    def certificates_in_range():
        _, margins, abstention = certify(model, cell.train_ds, cell.store)
        return (bool(np.all(np.abs(margins) <= 1.0 + 1e-12))
                and 0.0 <= abstention <= 1.0)

    ck.run("score_matches_score_naive", scorer_matches_oracle)
    ck.run("training_error_within_bound", error_within_bound)
    ck.run("certificates_in_range", certificates_in_range)


def check_triplets(ck: Checks, cell: Cell, seeds: Seeds, rows: int = 2000) -> None:
    """Sampled generated triplets really have anchor closer to near than far."""
    rng = np.random.default_rng(seeds.check + 1)
    feats, test_feats = cell.train_ds.features, cell.test_ds.features

    def dist(a, b):
        return np.linalg.norm(a - b, axis=1)

    def store_valid():
        s = cell.store
        idx = rng.choice(s.m, size=min(rows, s.m), replace=False)
        a, near, far = s.anchors[idx], s.near[idx], s.far[idx]
        return bool(np.all(dist(feats[a], feats[near]) < dist(feats[a], feats[far])))

    def testset_valid():
        xs = rng.choice(cell.test_ds.n, size=min(50, cell.test_ds.n), replace=False)
        for x in xs:
            pairs = cell.tset.pairs_for(int(x))
            anchor = test_feats[int(x)][None, :]
            if not np.all(dist(anchor, feats[pairs[:, 0]])
                          < dist(anchor, feats[pairs[:, 1]])):
                return False
        return True

    ck.run("training_triplets_valid", store_valid)
    ck.run("test_triplets_valid", testset_valid)


def check_cli_files(ck: Checks, work_dir, cell: Cell, model, cli_report, seeds) -> None:
    """Files the CLI wrote load back equal to the in-memory objects."""
    out = lambda name: os.path.join(work_dir, name)  # noqa: E731
    ref = {}

    def library_pipeline_runs():
        ref["preds"] = predict.predict_all(model, cell.tset)
        ref["report"] = evaluate(ref["preds"], cell.test_ds, seeds.eval)
        return True

    def predictions_match():
        with open(out("predictions.csv"), encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        labels = [int(row.split(",")[1]) for row in rows]
        return labels == predict.resolve_all(ref["preds"], "random", seeds.eval).tolist()

    ck.run("library_pipeline_runs", library_pipeline_runs)

    ck.run("store_file_round_trip",
           lambda: triplets.TripletStore.load(out("train.trp")) == cell.store)
    ck.run("testset_file_round_trip",
           lambda: triplets.TestTripletSet.load(out("test.trp")) == cell.tset)
    ck.run("model_file_round_trip", lambda: boost.load_model(out("model.txt")) == model)
    ck.run("cli_predictions_match_library", predictions_match)
    ck.run("cli_accuracy_matches_library",
           lambda: cli_report["accuracy"] == ref["report"].accuracy)


# -- the workloads ------------------------------------------------------------------


class InMemory:
    """generate -> train -> generate test -> predict -> evaluate -> certify."""

    trace_setup = False
    setup_repeats = 9  # one before the passes, two after each of about four

    def __init__(self, n, test_fraction, proportion, rounds, naive_examples):
        self.n, self.test_fraction = n, test_fraction
        self.p, self.rounds, self.naive_examples = proportion, rounds, naive_examples

    def setup(self, seeds, scratch, clock):
        train_ds, test_ds = make_split(self.n, self.test_fraction, seeds)
        warm_up(seeds, train_ds, test_ds)
        return train_ds, test_ds

    def run_pass(self, state, seeds, clock):
        train_ds, test_ds = state
        return in_memory_cell(clock, train_ds, test_ds, self.p, self.p, self.rounds, seeds)

    def rates(self, setup_clock, clock, cell):
        gen_s = clock.median("gen_train") + clock.median("gen_test")
        return {"train_rounds_per_s": cell.rounds / clock.median("train"),
                "gen_candidates_per_s": cell.candidates / gen_s,
                "predict_examples_per_s": cell.test_ds.n / clock.median("predict")}


class BulkScoring:
    """Set-up trains a large model once; the body scores many held-out examples."""

    trace_setup = True
    setup_repeats = 3  # a set-up takes seconds

    def __init__(self, n, n_test, p_train, p_test, rounds, naive_examples):
        self.n, self.n_test = n, n_test
        self.p_train, self.p_test = p_train, p_test
        self.rounds, self.naive_examples = rounds, naive_examples

    def setup(self, seeds, scratch, clock):
        train_ds, test_ds = make_split(self.n, self.n_test / self.n, seeds)
        if test_ds.n != self.n_test:
            raise RuntimeError(f"split gave {test_ds.n} test examples")
        store = clock.stage("gen_train", triplets.generate_training_set, train_ds,
                            METRIC, self.p_train, 0.0, seeds.gen)
        model = clock.stage("train", boost.train, train_ds, store,
                            boost.BoostConfig(rounds=self.rounds, seed=seeds.train))
        tset = clock.stage("gen_test", triplets.generate_test_set, test_ds, train_ds,
                           METRIC, self.p_test, 0.0, seeds.test)
        for x in range(20):  # warm-up; the first call also builds the scoring index
            predict.score(model, tset.pairs_for(x))
        return train_ds, test_ds, store, model, tset

    def run_pass(self, state, seeds, clock):
        train_ds, test_ds, store, model, tset = state
        preds = clock.stage("predict", predict.predict_all, model, tset)
        report = clock.stage("evaluate", evaluate, preds, test_ds, seeds.eval)
        return Cell(train_ds, test_ds, store, tset, model, preds, report, self.rounds,
                    self.p_train, self.p_test)

    def rates(self, setup_clock, clock, cell):
        gen_s = setup_clock.median("gen_train") + setup_clock.median("gen_test")
        return {"train_rounds_per_s": cell.rounds / setup_clock.median("train"),
                "gen_candidates_per_s": cell.candidates / gen_s,
                "predict_examples_per_s": cell.test_ds.n / clock.median("predict")}


# Bodies of a few seconds, so a run holds several passes and its median rides
# out the minute-to-minute speed changes of a shared machine.
WORKLOADS = {
    # The paper's cell (criterion 7) at a quarter of its 100k rounds, which
    # cost about the same per round; boosting rounds dominate.
    "paper_cell": InMemory(500, 0.3, 0.1, 25_000, naive_examples=5),
    # O(n^3) generation dominates; sparse regime, so abstention is nonzero.
    "gen_scale": InMemory(1000, 0.2, 0.001, 2000, naive_examples=20),
    # Scoring held-out examples against a 10k-classifier model is the whole body.
    "score_bulk": BulkScoring(2350, 2000, 0.1, 0.01, 10_000, naive_examples=20),
}


# -- probes -------------------------------------------------------------------------


def score_latency(cell: Cell) -> tuple[float, list[float]]:
    """Index build on a fresh model copy, then per-example ``score()`` wall times.

    Cheap models are scored for several rounds over the same examples, so the
    median and tail come from a window long enough to ride out short stalls.
    """
    fresh = boost.StrongModel(cell.model.classifiers, cell.model.label_dict,
                              cell.model.n_train)
    t0 = time.perf_counter()
    predict.score(fresh, [])
    index_s = time.perf_counter() - t0
    examples = [cell.tset.pairs_for(x)
                for x in range(min(LATENCY_EXAMPLES, cell.tset.n_test))]
    latencies = []
    while sum(latencies) < LATENCY_MIN_S and len(latencies) < LATENCY_MAX_SAMPLES:
        for pairs in examples:
            t0 = time.perf_counter()
            predict.score(fresh, pairs)
            latencies.append(time.perf_counter() - t0)
    return index_s, latencies


def tail_percentile(samples) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(samples) * (1.0 - q / 100.0) >= 10:
            return q, float(np.percentile(samples, q))
    return 50.0, float(np.percentile(samples, 50.0))


def replay(tracer, ds, store, seed, rounds):
    """The first ``rounds`` rounds of ``train()`` rebuilt from the public step API."""
    step = {name: tracer.wrap(f"{layer}.{name}", getattr(module, name))
            for layer, module, name in (
                ("boost", boost, "sample_reference_pair"), ("weak", weak, "fired_buckets"),
                ("weak", weak, "select_labels"), ("weak", weak, "round_weights"),
                ("weak", weak, "classifier_alpha"), ("boost", boost, "update_weights"))}
    rng = np.random.default_rng(seed)
    w = boost.init_weights(ds.n, ds.n_labels)
    kept, stats, rows = [], [], []
    for _ in range(rounds):
        j, k = step["sample_reference_pair"](ds, w, rng)
        fwd, rev = step["fired_buckets"](store, j, k)
        o_j, o_k = step["select_labels"](j, k, store, ds, w)
        w_plus, w_minus = step["round_weights"](
            weak.TripletClassifier(j, k, o_j, o_k, 0.0), store, ds, w)
        alpha = step["classifier_alpha"](w_plus, w_minus, ds.n)
        z = 1.0
        if alpha != 0.0:
            h = weak.TripletClassifier(j, k, o_j, o_k, alpha)
            w, z = step["update_weights"](w, h, store, ds)
            kept.append(h)
        stats.append(weak.RoundStats(w_plus, w_minus, z, alpha))
        rows.append(fwd.size + rev.size)
    return kept, stats, rows


def generation_peak_mib(cell: Cell, seeds: Seeds) -> float:
    """Peak traced allocation of either generator above its starting point."""
    calls = (
        lambda: triplets.generate_training_set(cell.train_ds, METRIC, cell.p_train, 0.0,
                                               seeds.gen),
        lambda: triplets.generate_test_set(cell.test_ds, cell.train_ds, METRIC,
                                           cell.p_test, 0.0, seeds.test),
    )
    peaks = []
    tracemalloc.start()
    try:
        for call in calls:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return max(peaks) / 2**20


# -- one run ----------------------------------------------------------------------


def fresh_dir(path) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def timed_passes(workload, state, seeds, clock, seconds, after_pass,
                 max_passes=50):
    """Passes until the next one would overrun ``seconds``; at least one.
    ``after_pass()`` runs after each pass, outside its timing.

    Returns (pass walls, peak RSS after the first pass, last cell).  The
    peak is read once, after a fixed history: the allocator keeps freed
    memory in amounts that vary from pass to pass, so a peak over a number of
    passes that depends on the machine's speed would vary too.
    """
    walls, cell, peak_mib = [], None, None
    start = time.perf_counter()
    while len(walls) < max_passes:
        cell = None  # free the last pass's outputs before the next pass
        t0 = time.perf_counter()
        cell = workload.run_pass(state, seeds, clock)
        walls.append(time.perf_counter() - t0)
        if peak_mib is None:
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        after_pass()
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    return walls, peak_mib, cell


def timed_setup(workload, seeds, scratch, clock):
    """One set-up of the workload; returns (wall time, state)."""
    t0 = time.perf_counter()
    state = workload.setup(seeds, fresh_dir(os.path.join(scratch, "setup")), clock)
    return time.perf_counter() - t0, state


def run_workload(name: str, seed: int, seconds: float, trace: bool, scratch: str):
    """Run one workload.

    Returns (checks, operations attempted, end-to-end metrics, per-layer
    metrics or None when untraced, details for the run record).
    """
    workload = WORKLOADS[name]
    seeds = Seeds(seed)
    ck = Checks()

    setup_clock = Clock()
    setup_s, state = timed_setup(workload, seeds, scratch, setup_clock)
    setup_walls = [setup_s]

    def more_setups(count):
        while len(setup_walls) < min(count, workload.setup_repeats):
            setup_walls.append(timed_setup(workload, seeds, scratch, setup_clock)[0])

    # The other set-ups come two after each pass, so that they meet the
    # machine at as many moments as the passes do, and after the memory peak
    # is read: what each one leaves in the allocator varies, and so would a
    # peak taken after them.
    clock = Clock()
    walls, peak_mib, cell = timed_passes(
        workload, state, seeds, clock, seconds,
        after_pass=lambda: more_setups(len(setup_walls) + 2))
    more_setups(workload.setup_repeats)

    check_model(ck, cell, seeds, workload.naive_examples)
    check_triplets(ck, cell, seeds)
    index_s, latencies = score_latency(cell)
    tail_q, tail_s = tail_percentile(latencies)

    e2e = {"setup_s": statistics.median(setup_walls),
           "wall_s": statistics.median(walls),
           "peak_rss_mb": peak_mib}
    # Stage rates and score latency: per-layer, because on the workloads
    # where their stage is short they spread more between runs than any
    # bound allows, and latency also varies with the seed's model.
    rates = {**workload.rates(setup_clock, clock, cell),
             "predict.index_s": index_s,
             "predict.score_ms_p50": 1e3 * statistics.median(latencies),
             "predict.score_ms_tail": 1e3 * tail_s,
             "predict.score_tail_pct": tail_q,
             "predict.score_samples": float(len(latencies))}
    details = {"passes": len(walls), "pass_walls_s": walls, "setup_walls_s": setup_walls,
               "stage_rates": rates,
               "stage_samples_s": dict(clock.samples),
               "setup_stage_samples_s": dict(setup_clock.samples),
               "candidates": cell.candidates, "kept_triplets": cell.store.m + cell.tset.m,
               "classifiers": len(cell.model.classifiers)}

    layers = None
    if trace:
        tracer = tracing.Tracer(f"{name}-{seed}-{os.getpid()}")
        layers, traced_walls = traced_extras(workload, tracer, state, cell, seeds,
                                             scratch, ck, min(len(walls), MAX_TRACED_PASSES))
        layers.update(rates)
        layers["trace.overhead_frac"] = statistics.median(traced_walls) / e2e["wall_s"] - 1.0
        details["trace_file"] = os.path.join(os.path.dirname(scratch),
                                             f"trace-{tracer.run_id}.json")
        tracer.dump(details["trace_file"])
    details["checks"] = ck.log
    attempted = ck.attempted + clock.ops + setup_clock.ops
    if layers is not None:
        layers["bench.failed_ops_frac"] = ck.failed / attempted
    return ck, attempted, e2e, layers, details


def traced_extras(workload, tracer, state, cell, seeds, scratch, ck, passes):
    """Traced passes, replay and file pass; returns (per-layer metrics, pass walls)."""
    undo = tracing.install(tracer, tripletboost)
    rounds = min(REPLAY_ROUNDS, cell.rounds)
    try:
        if workload.trace_setup:
            with tracer.span("bench.setup"):
                workload.setup(seeds, fresh_dir(os.path.join(scratch, "setup")),
                               Clock(tracer))
        traced_walls = []
        for _ in range(passes):
            with tracer.span("bench.pass") as idx:
                workload.run_pass(state, seeds, Clock(tracer))
            traced_walls.append(tracer.duration(idx))
        with tracer.span("bench.certify"):
            certify(cell.model, cell.train_ds, cell.store)
        with tracer.span("bench.replay"):
            kept, stats, rows = replay(tracer, cell.train_ds, cell.store, seeds.train,
                                       rounds)
        with tracer.span("bench.files"):
            files_dir = fresh_dir(os.path.join(scratch, "files"))
            write_csvs(files_dir, cell.train_ds, cell.test_ds)
            cli_report = cli_pass(Clock(tracer), files_dir, cell.p_train, cell.p_test,
                                  rounds, seeds)
    finally:
        tracing.uninstall(undo)

    replay_ok = ck.run("replay_matches_train", lambda: (
        kept == cell.model.classifiers[:len(kept)]
        and stats == cell.model.round_stats[:rounds]))
    replay_model = boost.StrongModel(kept, cell.train_ds.label_dict, cell.train_ds.n,
                                     rounds_run=rounds)
    check_cli_files(ck, files_dir, cell, replay_model, cli_report, seeds)

    layers = layer_metrics(tracer, cell, rows, replay_ok)
    layers["triplets.gen_peak_mb"] = generation_peak_mib(cell, seeds)
    return layers, traced_walls


def layer_metrics(tracer, cell: Cell, replay_rows, replay_ok) -> dict:
    names, roots = tracer.names, tracer.root_of()
    root_name = [names[r] for r in roots]
    main = {"bench.setup", "bench.pass"}
    body = main | {"bench.files"}

    def spans(name, where):
        return [i for i, n in enumerate(names) if n == name and root_name[i] in where]

    def median_s(name, where=body):
        found = spans(name, where)
        if not found:
            raise RuntimeError(f"no {name} span under {sorted(where)}")
        return statistics.median(tracer.duration(i) for i in found)

    def per_root_s(name, where=body):
        sums = defaultdict(float)
        for i in spans(name, where):
            sums[roots[i]] += tracer.duration(i)
        if not sums:
            raise RuntimeError(f"no {name} span under {sorted(where)}")
        return statistics.median(sums.values())

    def mib_per_s(name):
        found = spans(name, body)
        moved = sum(tracer.attrs[i]["bytes"] for i in found)
        return moved / 2**20 / sum(tracer.duration(i) for i in found)

    def replay_us(name):
        found = spans(name, {"bench.replay"})
        if not replay_ok:
            return -1.0  # the split is only reported when the replay matched
        return 1e6 * sum(tracer.duration(i) for i in found) / len(found)

    train_s = median_s("boost.train", main)
    kept = cell.store.m + cell.tset.m
    matched = float(np.mean([p.matched for p in cell.predictions]))
    out = {
        "triplets.gen_train_s": median_s("triplets.generate_training_set"),
        "triplets.gen_test_s": median_s("triplets.generate_test_set"),
        "triplets.candidates": float(cell.candidates),
        "triplets.kept": float(kept),
        "triplets.kept_ratio": kept / cell.candidates,
        "triplets.pair_groups_s": median_s("triplets.TripletStore.pair_groups"),
        "triplets.store_write_mb_per_s": mib_per_s("triplets.TripletStore.save"),
        "triplets.store_read_mb_per_s": mib_per_s("triplets.TripletStore.load"),
        "triplets.testset_write_mb_per_s": mib_per_s("triplets.TestTripletSet.save"),
        "triplets.testset_read_mb_per_s": mib_per_s("triplets.TestTripletSet.load"),
        "boost.model_write_mb_per_s": mib_per_s("boost.save_model"),
        "boost.model_read_mb_per_s": mib_per_s("boost.load_model"),
        "dataset.csv_read_mb_per_s": mib_per_s("dataset.load_csv"),
        "boost.train_s": train_s,
        "boost.round_us": 1e6 * train_s / cell.rounds,
        "boost.sample_us": replay_us("boost.sample_reference_pair"),
        "boost.update_us": replay_us("boost.update_weights"),
        "boost.kept_ratio": len(cell.model.classifiers) / cell.rounds,
        "weak.fired_buckets_us": replay_us("weak.fired_buckets"),
        "weak.select_us": replay_us("weak.select_labels"),
        "weak.round_weights_us": replay_us("weak.round_weights"),
        "weak.bucket_rows_mean": float(np.mean(replay_rows)),
        "predict.predict_all_s": median_s("predict.predict_all", main),
        "predict.pairs_per_example": cell.tset.m / cell.tset.n_test,
        "predict.matched_per_example": matched,
        "predict.match_ratio": matched / len(cell.model.classifiers),
        "predict.write_csv_s": median_s("predict.write_predictions_csv"),
        "metrics.evaluate_s": median_s("metrics.evaluate_predictions", main),
        "metrics.resolve_s": median_s("predict.resolve_all", main),
        "metrics.accuracy": cell.report.accuracy,
        "metrics.abstention_rate": cell.report.abstention_rate,
        "bounds.certify_s": median_s("bench.certify", body | {"bench.certify"}),
        "cli.gen_triplets_s": per_root_s("cli.gen-triplets"),
        "cli.train_s": per_root_s("cli.train"),
        "cli.predict_s": per_root_s("cli.predict"),
        "cli.evaluate_s": per_root_s("cli.evaluate"),
    }
    # Self time by layer over the timed passes, the body the workload measures.
    self_s = tracer.self_times()
    total = sum(tracer.duration(i) for i, p in enumerate(tracer.parents)
                if p < 0 and names[i] == "bench.pass")
    share = defaultdict(float)
    for i, name in enumerate(names):
        if root_name[i] == "bench.pass":
            share[name.split(".", 1)[0]] += self_s[i]
    for layer in LAYERS:
        out[f"{layer}.self_frac"] = share[layer] / total
    return out
