"""Command-line surface: reproducible pipelines over the library.

Data goes to files or stdout; diagnostics go to stderr.  Every command is
deterministic given its flags, including --seed.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from . import bounds, boost, dataset, experiment, formats, metrics, predict, triplets


_GRID_POINTS = 1_000_000  # the most points a lo:hi:count range may ask for


def _parse_grid(text: str, flag: str) -> list[float]:
    """Either a comma list of floats or an inclusive 'lo:hi:count' range of at most
    ``_GRID_POINTS`` points; a larger count is refused before anything is allocated."""
    try:
        if ":" not in text:
            return [float(v) for v in text.split(",")]
        lo, hi, count = text.split(":")
        if int(count) <= _GRID_POINTS:
            return [float(v) for v in np.linspace(float(lo), float(hi), int(count))]
    except ValueError:
        raise ValueError(f"{flag} takes a comma list of numbers or a lo:hi:count range, "
                         f"got {text!r}") from None
    raise ValueError(f"{flag} takes at most {_GRID_POINTS} points in a range, got {count}")


def _output(path):
    """A text stream writing ``path``; "-" is stdout, which stays open."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="\n")


def _cmd_gen_triplets(args) -> int:
    ds = dataset.load_csv(args.data, has_header=args.has_header)
    if args.test_data is None:
        store = triplets.generate_training_set(ds, args.metric, args.proportion,
                                               args.noise, args.seed)
        what = f"{store.m} triplets over n={store.n}"
    else:
        test_ds = dataset.load_csv(args.test_data, has_header=args.has_header)
        store = triplets.generate_test_set(test_ds, ds, args.metric,
                                           args.proportion, args.noise, args.seed)
        what = f"{store.m} test triplets for {store.n_test} examples"
    store.save(args.out)
    print(f"wrote {what} to {args.out}", file=sys.stderr)
    return 0


def _cmd_gen_triplets_ratings(args) -> int:
    table = triplets.load_ratings(args.ratings)
    store = triplets.generate_from_ratings(table, args.candidate_limit, args.seed)
    store.save(args.out)
    print(f"wrote {store.m} triplets over n={store.n} items to {args.out}",
          file=sys.stderr)
    return 0


def _cmd_add_noise(args) -> int:
    store = triplets.TripletStore.load(args.triplets)
    triplets.add_noise(store, args.rate, args.seed).save(args.out)
    return 0


def _cmd_train(args) -> int:
    ds = dataset.load_csv(args.data, has_header=args.has_header)
    store = triplets.TripletStore.load(args.triplets)
    stats_every = args.stats_every if args.stats_every else max(1, args.rounds // 10)
    cfg = boost.BoostConfig(rounds=args.rounds, seed=args.seed,
                            keep_zero_alpha=args.keep_zero_alpha,
                            stats_every=stats_every)
    model = boost.train(ds, store, cfg)
    for cp in model.checkpoints:
        print(f"checkpoint round={cp.round} train_error={cp.train_error!r} "
              f"bound={cp.error_bound!r}")
    boost.save_model(model, args.out_model)
    print(f"kept {model.alpha.size} classifiers out of {model.rounds_run} rounds",
          file=sys.stderr)
    return 0


def _load_model_and_pairs(args):
    return boost.load_model(args.model), triplets.TestTripletSet.load(args.test_triplets)


def _write_predictions(path, predictions, args) -> None:
    """The predictions CSV, labels resolved under --policy and --seed, at ``path``."""
    resolved = predict.resolve_all(predictions, args.policy, args.seed)
    with _output(path) as fh:
        predict.write_predictions_csv(fh, predictions, resolved)


def _cmd_predict(args) -> int:
    model, tset = _load_model_and_pairs(args)
    _write_predictions(args.out, predict.predict_all(model, tset), args)
    return 0


def _cmd_evaluate(args) -> int:
    model, tset = _load_model_and_pairs(args)
    truth = metrics.parse_labels_file(args.labels, model.label_dict,
                                      has_header=args.has_header)
    if len(truth) != tset.n_test:
        raise ValueError(f"labels file has {len(truth)} rows but the test set "
                         f"has {tset.n_test} examples")
    predictions = predict.predict_all(model, tset)
    report = metrics.evaluate_predictions(predictions, truth, model.label_dict,
                                          policy=args.policy, seed=args.seed,
                                          k=args.k)
    if args.out_predictions:
        _write_predictions(args.out_predictions, predictions, args)
    for line in report.lines():
        print(line)
    print(report.to_json())
    return 0


def _cmd_experiment(args) -> int:
    spec = experiment.parse_spec(args.spec)
    rows = experiment.run_experiment(spec, log=lambda msg: print(msg, file=sys.stderr))
    print(f"wrote {len(rows)} rows to {spec.out_dir}/results.csv", file=sys.stderr)
    return 0


def _bound_params(args) -> tuple[float, float]:
    if args.k is not None or args.beta is not None:
        if args.k is None or args.beta is None:
            raise ValueError("--k and --beta must be given together")
        return bounds._regime(args.n, args.k, args.beta)
    if args.p is None or args.classifiers is None:
        raise ValueError("give either --p and --classifiers, or --k and --beta")
    return args.p, float(args.classifiers)


def _cmd_bound(args) -> int:
    p, count = _bound_params(args)
    value = bounds.abstention_bound(args.n, p, count)
    print(f"n={args.n} p={p!r} classifiers={count!r} bound={value!r}")
    return 0


def _cmd_simulate_abstention(args) -> int:
    estimate, stderr = bounds.simulate_abstention(args.n, args.p, args.classifiers,
                                                  args.trials, args.seed)
    closed = bounds.abstention_bound(args.n, args.p, args.classifiers)
    print(f"estimate={estimate!r} stderr={stderr!r} bound={closed!r}")
    return 0


def _cmd_bound_surface(args) -> int:
    rows, skipped = bounds.bound_surface_rows(args.n, _parse_grid(args.k_grid, "--k-grid"),
                                              _parse_grid(args.beta_grid, "--beta-grid"))
    with _output(args.out) as out:
        formats.write_table(out, ["k,beta,bound"], "{:.17g},{:.17g},{:.17g}\n",
                            np.array(rows, dtype=np.float64).reshape(-1, 3).T)
    for k, beta in skipped:
        print(f"skipped k={k!r} beta={beta!r}: availability exceeds 1",
              file=sys.stderr)
    return 0


def _cmd_bound_limit(args) -> int:
    value = bounds.abstention_limit(args.k, args.beta)
    print(f"k={args.k!r} beta={args.beta!r} limit={value!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripletboost",
        description="Classification from passively obtained triplet comparisons.")
    sub = parser.add_subparsers(dest="command", required=True)
    # flags several commands share, each defined once
    seed, header, scoring = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    seed.add_argument("--seed", type=int, default=0)
    header.add_argument("--has-header", action="store_true")
    scoring.add_argument("--model", required=True)
    scoring.add_argument("--test-triplets", required=True)
    scoring.add_argument("--policy", choices=("random", "fixed_lowest"), default="random")

    gen = sub.add_parser("gen-triplets", parents=[seed, header],
                         help="generate triplets from feature vectors")
    gen.add_argument("--data", required=True)
    gen.add_argument("--metric", choices=triplets.METRICS, default="euclidean")
    gen.add_argument("--proportion", type=float, default=1.0)
    gen.add_argument("--noise", type=float, default=0.0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--test-data",
                     help="generate test-time triplets for these examples instead")
    gen.set_defaults(func=_cmd_gen_triplets)

    genr = sub.add_parser("gen-triplets-ratings", parents=[seed],
                          help="generate triplets from a user/item rating table")
    genr.add_argument("--ratings", required=True)
    genr.add_argument("--candidate-limit", type=int, default=None)
    genr.add_argument("--out", required=True)
    genr.set_defaults(func=_cmd_gen_triplets_ratings)

    noise = sub.add_parser("add-noise", parents=[seed],
                           help="swap the orientation of a random share")
    noise.add_argument("--triplets", required=True)
    noise.add_argument("--rate", type=float, required=True)
    noise.add_argument("--out", required=True)
    noise.set_defaults(func=_cmd_add_noise)

    train = sub.add_parser("train", parents=[seed, header],
                           help="boost triplet classifiers into a model")
    train.add_argument("--data", required=True)
    train.add_argument("--triplets", required=True)
    train.add_argument("--rounds", type=int, required=True)
    train.add_argument("--out-model", required=True)
    train.add_argument("--stats-every", type=int, default=0)
    train.add_argument("--keep-zero-alpha", action="store_true")
    train.set_defaults(func=_cmd_train)

    pred = sub.add_parser("predict", parents=[scoring, seed],
                          help="score test examples with a model")
    pred.add_argument("--out", default="-")
    pred.set_defaults(func=_cmd_predict)

    ev = sub.add_parser("evaluate", parents=[scoring, seed, header],
                        help="score predictions against true labels")
    ev.add_argument("--labels", required=True)
    ev.add_argument("--k", type=int, default=5)
    ev.add_argument("--out-predictions")
    ev.set_defaults(func=_cmd_evaluate)

    exp = sub.add_parser("experiment", help="run a proportion x noise grid")
    exp.add_argument("--spec", required=True)
    exp.set_defaults(func=_cmd_experiment)

    bnd = sub.add_parser("bound", help="closed-form abstention bound")
    bnd.add_argument("--n", type=int, required=True)
    bnd.add_argument("--p", type=float)
    bnd.add_argument("--classifiers", type=float)
    bnd.add_argument("--k", type=float)
    bnd.add_argument("--beta", type=float)
    bnd.set_defaults(func=_cmd_bound)

    sim = sub.add_parser("simulate-abstention", parents=[seed],
                         help="Monte Carlo check of the abstention bound")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--p", type=float, required=True)
    sim.add_argument("--classifiers", type=int, required=True)
    sim.add_argument("--trials", type=int, default=100_000)
    sim.set_defaults(func=_cmd_simulate_abstention)

    surf = sub.add_parser("bound-surface",
                          help="abstention bound over an exponent grid, as CSV")
    surf.add_argument("--n", type=int, required=True)
    surf.add_argument("--k-grid", required=True,
                      help="comma list or lo:hi:count range")
    surf.add_argument("--beta-grid", required=True)
    surf.add_argument("--out", default="-")
    surf.set_defaults(func=_cmd_bound_surface)

    lim = sub.add_parser("bound-limit",
                         help="asymptotic abstention regime value")
    lim.add_argument("--k", type=float, required=True)
    lim.add_argument("--beta", type=float, required=True)
    lim.set_defaults(func=_cmd_bound_limit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, MemoryError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
