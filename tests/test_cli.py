"""End-to-end command-line flows and their determinism/error contracts."""

import hashlib
import subprocess
import sys

import numpy as np
import pytest

from tripletboost import make_moons, save_csv
from tripletboost.cli import main


def _moons_csv(tmp_path, n=40, seed=0, name="data.csv"):
    path = tmp_path / name
    save_csv(make_moons(n, 0.1, seed), path)
    return path


def _run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenTriplets:
    def test_full_clean_store_and_determinism(self, tmp_path, capsys):
        data = _moons_csv(tmp_path)
        out1, out2 = tmp_path / "t1.txt", tmp_path / "t2.txt"
        code, _, _ = _run(capsys, "gen-triplets", "--data", data,
                          "--proportion", 1.0, "--noise", 0.0,
                          "--seed", 3, "--out", out1)
        assert code == 0
        code, _, _ = _run(capsys, "gen-triplets", "--data", data,
                          "--proportion", 1.0, "--noise", 0.0,
                          "--seed", 3, "--out", out2)
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_cosine_zero_vector_fails_cleanly(self, tmp_path, capsys):
        data = tmp_path / "zero.csv"
        data.write_text("a,0.0,0.0\nb,1.0,0.0\na,0.0,1.0\n", encoding="utf-8")
        code, out, err = _run(capsys, "gen-triplets", "--data", data,
                              "--metric", "cosine", "--out", tmp_path / "t.txt")
        assert code == 1
        assert "zero-norm" in err
        assert out == ""

    def test_test_data_mode_writes_test_format(self, tmp_path, capsys):
        train_csv = _moons_csv(tmp_path, 30, 0, "train.csv")
        test_csv = _moons_csv(tmp_path, 8, 1, "test.csv")
        out = tmp_path / "tt.txt"
        code, _, _ = _run(capsys, "gen-triplets", "--data", train_csv,
                          "--test-data", test_csv, "--proportion", 0.5,
                          "--seed", 1, "--out", out)
        assert code == 0
        assert out.read_text(encoding="utf-8").startswith(
            "testtriplets v1 n_test=8 n_train=30")


class TestTrainCommand:
    def test_pipeline_train_predict_evaluate(self, tmp_path, capsys):
        ds = make_moons(50, 0.1, 7)
        train_ds = ds.take(np.arange(40))
        test_ds = ds.take(np.arange(40, 50))
        train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
        save_csv(train_ds, train_csv)
        save_csv(test_ds, test_csv)
        triplets_path = tmp_path / "train.trp"
        model_path = tmp_path / "model.txt"
        test_trp = tmp_path / "test.trp"
        preds_csv = tmp_path / "preds.csv"

        code, _, _ = _run(capsys, "gen-triplets", "--data", train_csv,
                          "--proportion", 0.5, "--seed", 5,
                          "--out", triplets_path)
        assert code == 0
        code, out, _ = _run(capsys, "train", "--data", train_csv,
                            "--triplets", triplets_path, "--rounds", 300,
                            "--seed", 2, "--out-model", model_path,
                            "--stats-every", 100)
        assert code == 0
        checkpoints = [line for line in out.splitlines()
                       if line.startswith("checkpoint ")]
        assert len(checkpoints) == 3
        for line in checkpoints:
            fields = dict(part.split("=") for part in line.split()[1:])
            assert float(fields["train_error"]) <= float(fields["bound"]) + 1e-12

        code, _, _ = _run(capsys, "gen-triplets", "--data", train_csv,
                          "--test-data", test_csv, "--proportion", 0.5,
                          "--seed", 6, "--out", test_trp)
        assert code == 0
        code, out, _ = _run(capsys, "predict", "--model", model_path,
                            "--test-triplets", test_trp, "--policy",
                            "fixed_lowest", "--out", preds_csv)
        assert code == 0
        lines = preds_csv.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("example_id,label,abstained,score_0")
        assert len(lines) == 11

        code, out, _ = _run(capsys, "evaluate", "--model", model_path,
                            "--test-triplets", test_trp, "--labels", test_csv,
                            "--policy", "random", "--seed", 1, "--k", 2)
        assert code == 0
        values = dict(line.split("=", 1) for line in out.splitlines()
                      if "=" in line and not line.startswith("{"))
        assert 0.0 <= float(values["accuracy"]) <= 1.0
        assert float(values["recall_at_2"]) == 1.0  # k == L covers everything
        assert out.splitlines()[-1].startswith("{")

    def test_evaluate_predictions_dash_is_stdout(self, tmp_path, capsys, monkeypatch):
        """``--out-predictions -`` prints the CSV before the report; no file "-" appears."""
        ds = make_moons(30, 0.1, 3)
        train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
        save_csv(ds.take(np.arange(24)), train_csv)
        save_csv(ds.take(np.arange(24, 30)), test_csv)
        trp, test_trp, model = tmp_path / "t.trp", tmp_path / "test.trp", tmp_path / "m.txt"
        _run(capsys, "gen-triplets", "--data", train_csv, "--proportion", 0.5,
             "--seed", 1, "--out", trp)
        _run(capsys, "gen-triplets", "--data", train_csv, "--test-data", test_csv,
             "--proportion", 0.5, "--seed", 2, "--out", test_trp)
        _run(capsys, "train", "--data", train_csv, "--triplets", trp, "--rounds", 40,
             "--out-model", model)
        flags = ("evaluate", "--model", model, "--test-triplets", test_trp,
                 "--labels", test_csv, "--seed", 3, "--out-predictions")
        code, report, _ = _run(capsys, *flags, tmp_path / "preds.csv")
        assert code == 0
        monkeypatch.chdir(tmp_path)
        code, out, _ = _run(capsys, *flags, "-")
        assert code == 0
        assert not (tmp_path / "-").exists()
        assert out == (tmp_path / "preds.csv").read_text(encoding="utf-8") + report

    def test_rounds_zero_rejected(self, tmp_path, capsys):
        data = _moons_csv(tmp_path)
        code, _, _ = _run(capsys, "gen-triplets", "--data", data,
                          "--out", tmp_path / "t.txt")
        assert code == 0
        code, _, err = _run(capsys, "train", "--data", data,
                            "--triplets", tmp_path / "t.txt", "--rounds", 0,
                            "--out-model", tmp_path / "m.txt")
        assert code == 1
        assert "rounds" in err

    def test_identical_flags_identical_model_bytes(self, tmp_path, capsys):
        data = _moons_csv(tmp_path)
        trp = tmp_path / "t.txt"
        _run(capsys, "gen-triplets", "--data", data, "--proportion", 0.4,
             "--seed", 9, "--out", trp)
        m1, m2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        for path in (m1, m2):
            code, _, _ = _run(capsys, "train", "--data", data, "--triplets",
                              trp, "--rounds", 150, "--seed", 4,
                              "--out-model", path)
            assert code == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_universe_mismatch_rejected(self, tmp_path, capsys):
        data = _moons_csv(tmp_path, 30)
        other = _moons_csv(tmp_path, 20, 3, "other.csv")
        trp, model_path = tmp_path / "t.txt", tmp_path / "m.txt"
        _run(capsys, "gen-triplets", "--data", data, "--proportion", 0.3,
             "--out", trp)
        _run(capsys, "train", "--data", data, "--triplets", trp,
             "--rounds", 50, "--out-model", model_path)
        wrong_tt = tmp_path / "wrong.trp"
        _run(capsys, "gen-triplets", "--data", other, "--test-data", other,
             "--proportion", 0.3, "--out", wrong_tt)
        code, _, err = _run(capsys, "predict", "--model", model_path,
                            "--test-triplets", wrong_tt)
        assert code == 1
        assert "training universe" in err


class TestAddNoiseCommand:
    def test_swaps_and_round_trips(self, tmp_path, capsys):
        data = _moons_csv(tmp_path, 20)
        clean, noisy, restored = (tmp_path / n for n in ("c.txt", "n.txt", "r.txt"))
        _run(capsys, "gen-triplets", "--data", data, "--out", clean)
        code, _, _ = _run(capsys, "add-noise", "--triplets", clean,
                          "--rate", 1.0, "--seed", 2, "--out", noisy)
        assert code == 0
        assert noisy.read_bytes() != clean.read_bytes()
        code, _, _ = _run(capsys, "add-noise", "--triplets", noisy,
                          "--rate", 1.0, "--seed", 2, "--out", restored)
        assert code == 0
        assert restored.read_bytes() == clean.read_bytes()


class TestRatingsCommand:
    def test_generation_from_ratings_file(self, tmp_path, capsys):
        ratings = tmp_path / "ratings.txt"
        ratings.write_text("7 0 5\n7 1 5\n7 2 1\n", encoding="utf-8")
        out = tmp_path / "t.txt"
        code, _, _ = _run(capsys, "gen-triplets-ratings", "--ratings", ratings,
                          "--out", out)
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "tripletset v1 n=3 m=2"


class TestBoundCommands:
    def test_bound_closed_form(self, capsys):
        code, out, _ = _run(capsys, "bound", "--n", 10, "--p", 0.1,
                            "--classifiers", 5)
        assert code == 0
        assert "bound=0.7140" in out

    def test_bound_exponent_parameterization(self, capsys):
        code, out, _ = _run(capsys, "bound", "--n", 100, "--k", 1.5,
                            "--beta", 2.0)
        assert code == 0
        assert "bound=" in out

    def test_nan_classifier_count_rejected(self, capsys):
        """A NaN count, given or derived from --beta, is an error, not bound=nan."""
        for argv in (("--p", 0.1, "--classifiers", "nan"), ("--k", 1, "--beta", "nan")):
            code, out, err = _run(capsys, "bound", "--n", 10, *argv)
            assert code == 1
            assert err == "error: classifier count must be nonnegative\n"
            assert out == ""

    @pytest.mark.parametrize("argv, message", [
        (("bound", "--n", 0, "--k", 1, "--beta", 1), "n must be at least 1"),
        (("bound-surface", "--n", 0, "--k-grid", 1, "--beta-grid", 1), "n must be at least 1"),
        (("bound-surface", "--n", -5, "--k-grid", 1.5, "--beta-grid", 1),
         "n must be at least 1"),
        (("bound-surface", "--n", 10, "--k-grid", "1:2", "--beta-grid", 1),
         "--k-grid takes a comma list of numbers or a lo:hi:count range, got '1:2'"),
        (("bound-surface", "--n", 10, "--k-grid", 1, "--beta-grid", "0,x"),
         "--beta-grid takes a comma list of numbers or a lo:hi:count range, got '0,x'"),
        (("bound", "--n", 10, "--k", 1, "--beta", 1000),
         "a power of n=10 overflows at k=1.0, beta=1000.0"),
        (("bound-surface", "--n", 10, "--k-grid", 1, "--beta-grid", 400),
         "a power of n=10 overflows at k=1.0, beta=400.0"),
        (("bound", "--n", 10, "--k", 1, "--beta", "inf"),
         "an exponent is infinite at k=1.0, beta=inf"),
        (("bound", "--n", 10, "--k=-inf", "--beta", 1),
         "an exponent is infinite at k=-inf, beta=1.0"),
        (("bound-surface", "--n", 10, "--k-grid", 1, "--beta-grid", "inf"),
         "an exponent is infinite at k=1.0, beta=inf"),
        (("bound-surface", "--n", 10, "--k-grid", "0,inf", "--beta-grid", 1),
         "an exponent is infinite at k=inf, beta=1.0"),
        (("bound-surface", "--n", 100, "--k-grid", "0:3:1000000000", "--beta-grid", "0:2:2"),
         "--k-grid takes at most 1000000 points in a range, got 1000000000"),
        (("bound-surface", "--n", 100, "--k-grid", 1, "--beta-grid", "0:2:10" + "0" * 14),
         "--beta-grid takes at most 1000000 points in a range, got 1000000000000000"),
    ])
    def test_bad_input_is_an_error_line(self, capsys, argv, message):
        """A bad n or grid prints ``error: ...`` and exits 1, not a traceback; a
        range's count above a million is refused before its grid is made."""
        code, out, err = _run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_simulate_agrees(self, capsys):
        code, out, _ = _run(capsys, "simulate-abstention", "--n", 10,
                            "--p", 0.1, "--classifiers", 5,
                            "--trials", 20000, "--seed", 3)
        assert code == 0
        values = dict(part.split("=") for part in out.split())
        assert abs(float(values["estimate"]) - float(values["bound"])) <= \
            3.5 * float(values["stderr"])

    def test_surface_csv(self, tmp_path, capsys):
        out = tmp_path / "surface.csv"
        code, _, _ = _run(capsys, "bound-surface", "--n", 100,
                          "--k-grid", "0:2.5:6", "--beta-grid", "0,1,2",
                          "--out", out)
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "k,beta,bound"
        assert len(lines) == 19

    def test_limit_value(self, capsys):
        import math
        code, out, _ = _run(capsys, "bound-limit", "--k", 1.5, "--beta", 2.0)
        assert code == 0
        assert f"limit={math.exp(-2.0)!r}" in out


class TestExperimentCommand:
    def test_one_by_one_grid(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text(
            "data=moons\nmoons_n=40\nmoons_noise=0.1\nmetric=euclidean\n"
            "proportions=0.3\nnoises=0.0\nrounds=100\nrepetitions=1\n"
            f"seed=5\nout={tmp_path / 'results'}\ntest_fraction=0.25\n",
            encoding="utf-8")
        code, _, _ = _run(capsys, "experiment", "--spec", spec)
        assert code == 0
        lines = (tmp_path / "results" / "results.csv").read_text(
            encoding="utf-8").splitlines()
        assert lines[0] == "metric,proportion,noise,seed,accuracy,abstention_rate"
        assert len(lines) == 2

    def test_row_count_matches_grid(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text(
            "data=moons\nmoons_n=24\nmetric=euclidean\n"
            "proportions=0.2,0.4\nnoises=0.0,0.1\nrounds=40\nrepetitions=2\n"
            f"seed=1\nout={tmp_path / 'res'}\n",
            encoding="utf-8")
        code, _, _ = _run(capsys, "experiment", "--spec", spec)
        assert code == 0
        lines = (tmp_path / "res" / "results.csv").read_text(
            encoding="utf-8").splitlines()
        assert len(lines) == 1 + 2 * 2 * 2


# Every subcommand's flags as the parser defined them before the shared flags
# moved to parent parsers: flag -> (default, required, type, choices, action).
_REQUIRED = (None, True, None, None, "store")
_OPTIONAL = (None, False, None, None, "store")
_SEED = (0, False, int, None, "store")
_SWITCH = (False, False, None, None, "store_true")
_STDOUT = ("-", False, None, None, "store")
_SCORING = {"--model": _REQUIRED, "--test-triplets": _REQUIRED,
            "--policy": ("random", False, None, ("random", "fixed_lowest"), "store")}
_FLAGS = {
    "gen-triplets": {
        "--data": _REQUIRED,
        "--metric": ("euclidean", False, None, ("euclidean", "cityblock", "cosine"),
                     "store"),
        "--proportion": (1.0, False, float, None, "store"),
        "--noise": (0.0, False, float, None, "store"),
        "--seed": _SEED, "--out": _REQUIRED, "--has-header": _SWITCH,
        "--test-data": _OPTIONAL},
    "gen-triplets-ratings": {
        "--ratings": _REQUIRED, "--candidate-limit": (None, False, int, None, "store"),
        "--seed": _SEED, "--out": _REQUIRED},
    "add-noise": {
        "--triplets": _REQUIRED, "--rate": (None, True, float, None, "store"),
        "--seed": _SEED, "--out": _REQUIRED},
    "train": {
        "--data": _REQUIRED, "--triplets": _REQUIRED,
        "--rounds": (None, True, int, None, "store"), "--seed": _SEED,
        "--out-model": _REQUIRED, "--stats-every": (0, False, int, None, "store"),
        "--keep-zero-alpha": _SWITCH, "--has-header": _SWITCH},
    "predict": {**_SCORING, "--seed": _SEED, "--out": _STDOUT},
    "evaluate": {
        **_SCORING, "--labels": _REQUIRED, "--seed": _SEED,
        "--k": (5, False, int, None, "store"), "--has-header": _SWITCH,
        "--out-predictions": _OPTIONAL},
    "experiment": {"--spec": _REQUIRED},
    "bound": {
        "--n": (None, True, int, None, "store"),
        **dict.fromkeys(("--p", "--classifiers", "--k", "--beta"),
                        (None, False, float, None, "store"))},
    "simulate-abstention": {
        "--n": (None, True, int, None, "store"), "--p": (None, True, float, None, "store"),
        "--classifiers": (None, True, int, None, "store"),
        "--trials": (100000, False, int, None, "store"), "--seed": _SEED},
    "bound-surface": {
        "--n": (None, True, int, None, "store"), "--k-grid": _REQUIRED,
        "--beta-grid": _REQUIRED, "--out": _STDOUT},
    "bound-limit": dict.fromkeys(("--k", "--beta"), (None, True, float, None, "store")),
}


class TestParser:
    def test_flags_equal_the_table(self):
        """Each flag keeps its default, required, type, choices and action."""
        import argparse

        from tripletboost.cli import build_parser

        actions = {argparse._StoreAction: "store", argparse._StoreTrueAction: "store_true"}
        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        got = {name: {action.option_strings[0]: (action.default, action.required,
                                                 action.type, action.choices,
                                                 actions[type(action)])
                      for action in parser._actions
                      if not isinstance(action, argparse._HelpAction)}
               for name, parser in sub.choices.items()}
        assert got == _FLAGS


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "tripletboost.cli",
                               "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "gen-triplets" in proc.stdout

    def test_no_scipy_at_run_time(self):
        """Importing the package and the CLI, generating training and test sets
        under each metric and computing margins load no scipy module."""
        script = "\n".join((
            "import sys",
            "import tripletboost, tripletboost.cli",
            "from tripletboost import BoostConfig, bounds, make_moons, train",
            "from tripletboost import generate_test_set, generate_training_set",
            "ds, test = make_moons(30, 0.1, 0), make_moons(10, 0.1, 1)",
            "for metric in ('euclidean', 'cityblock', 'cosine'):",
            "    store = generate_training_set(ds, metric, 0.2, 0.1, 1)",
            "    generate_test_set(test, ds, metric, 0.2, 0.1, 2)",
            "model = train(ds, store, BoostConfig(rounds=20, seed=3))",
            "bounds.margin(model, model.train_scores, ds.labels)",
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
        ))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_no_numpy_ma_at_run_time(self):
        """Generating, training, predicting, evaluating, certifying, measuring
        abstention end to end, writing a CSV and splitting a store load no
        ``numpy.ma``, which numpy 2's ``np.unique`` imports (1.2 MiB of RSS)."""
        script = "\n".join((
            "import os, sys",
            "import tripletboost.cli",
            "from tripletboost import BoostConfig, bounds, make_moons, metrics, train",
            "from tripletboost import generate_test_set, generate_training_set, predict_all",
            "ds, test = make_moons(30, 0.1, 0), make_moons(10, 0.1, 1)",
            "store = generate_training_set(ds, 'euclidean', 0.2, 0.1, 1)",
            "model = train(ds, store, BoostConfig(rounds=20, seed=3))",
            "preds = predict_all(model, generate_test_set(test, ds, 'euclidean', 0.2, 0.1, 2))",
            "truth = [frozenset([int(y)]) for y in test.labels]",
            "metrics.evaluate_predictions(preds, truth, test.label_dict, 'random', 4)",
            "bounds.training_error_bound(ds.n_labels, model.z_history())",
            "bounds.margin(model, model.train_scores, ds.labels)",
            "bounds.abstention_bound(ds.n, store.availability(), len(model.classifiers))",
            "bounds.end_to_end_abstention(6, 3, 0.2, 8, 2, 5, 1)",
            "from tripletboost import save_csv, split_store_for_evaluation",
            "save_csv(ds, os.devnull)",
            "split_store_for_evaluation(store, range(20), range(20, 30))",
            "print('numpy.ma' in sys.modules)",
        ))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestInputErrors:
    def test_oversized_ids_fail_cleanly(self, tmp_path, capsys):
        triplets = tmp_path / "t.txt"
        triplets.write_text("tripletset v1 n=3 m=1\n99999999999999999999 1 2\n",
                            encoding="utf-8")
        ratings = tmp_path / "r.txt"
        ratings.write_text("1 0 5\n99999999999999999999 1 4\n", encoding="utf-8")
        for argv, line in ((("add-noise", "--triplets", triplets, "--rate", 0.5), 2),
                           (("gen-triplets-ratings", "--ratings", ratings), 2)):
            code, out, err = _run(capsys, *argv, "--out", tmp_path / "out.txt")
            assert code == 1
            assert err.startswith("error: ") and f"at line {line}" in err
            assert out == ""

    def test_oversized_model_universe_fails_cleanly(self, tmp_path, capsys):
        model = tmp_path / "m.txt"
        model.write_text("tripletboost-model v1 L=2 n=99999999999999999999 C=1\n"
                         "a\tb\n0 1 0.5 1 2\n", encoding="utf-8")
        test = tmp_path / "t.txt"
        test.write_text("testtriplets v1 n_test=1 n_train=3\n0 1 2\n", encoding="utf-8")
        code, out, err = _run(capsys, "predict", "--model", model, "--test-triplets", test)
        assert code == 1
        assert err.startswith("error: universe size must be in [1, 2000000]")
        assert out == ""

    @pytest.mark.parametrize("command, detail", [
        ("train", "Unable to allocate"),
        (("simulate-abstention", "--n", 10, "--p", 0.5, "--classifiers", 10 ** 17,
          "--trials", 1), "Unable to allocate"),
        (("bound", "--n", 10 ** 400, "--p", 0.5, "--classifiers", 1),
         "int too large to convert to float"),
    ], ids=["train", "simulate-abstention", "bound"])
    def test_input_too_large_to_compute_is_an_error_line(self, tmp_path, capsys, command,
                                                         detail):
        """Sizes far past any address space (10**17 rounds or classifiers) and an n
        no float holds end in one ``error:`` line and exit 1; numpy refuses such an
        array before it touches any memory."""
        if command == "train":
            data = _moons_csv(tmp_path, n=20)
            assert _run(capsys, "gen-triplets", "--data", data, "--proportion", 0.2,
                        "--out", tmp_path / "t.trp")[0] == 0
            command = ("train", "--data", data, "--triplets", tmp_path / "t.trp",
                       "--rounds", 10 ** 17, "--out-model", tmp_path / "big.txt")
        code, out, err = _run(capsys, *command)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and detail in err


def _ratings_fixture(path):
    """Acceptance criterion 9's ratings table (50 items, 60 users, 20 ratings
    each, seed 0), written as ``user item rating`` lines."""
    n_items, n_genres = 50, 6
    rng = np.random.default_rng(0)
    genre_sets = [rng.choice(n_genres, size=int(rng.integers(1, 3)), replace=False)
                  for _ in range(n_items)]
    lines = []
    for user in range(60):
        pref = rng.uniform(1.0, 5.0, size=n_genres)
        for item in rng.choice(n_items, size=20, replace=False).tolist():
            base = float(np.mean([pref[g] for g in genre_sets[item].tolist()]))
            lines.append(f"{user} {item} {base + float(rng.normal(0.0, 0.3))!r}\n")
    path.write_text("".join(lines), encoding="utf-8")


# sha256 of every artefact and printed output of one seeded pass through the CLI.
_ARTEFACT_DIGESTS = {
    "gen-triplets stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "store": "61ea69a89472c9d15cd2fa9ca8b3cdd830ce87d01ecdf553c1ccb1785e859cb1",
    "gen-triplets --test-data stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "test set": "e2aaae97caf074f816818240d695a1704cf54ab4c8ac92089344c9d4222b405b",
    "train stdout": "ee414379255fe1969cea6128081ea08816d42fd097d306182086a0ef8ca33c35",
    "model": "4e8f5077aeb3689f33453dea1002614d261ccb2934c4d03652e62596ed7afd43",
    "predict stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "predict csv": "a4ca951a0638f5f2f102e1b8dbc7f872ad1b6d427990ae73e4c0f5660bec6776",
    "evaluate stdout": "d6368a8f699f6ee74b57acfb48e07644420a2bdecc643914e431b30f31bdde24",
    "evaluate csv": "a4ca951a0638f5f2f102e1b8dbc7f872ad1b6d427990ae73e4c0f5660bec6776",
    "add-noise stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "add-noise store": "ef525707ff60c8cb1a8f04590c69193a5ac00aabcad0e2d81a04adf136e29d5c",
    "gen-triplets-ratings stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "ratings store": "0a85d9e2616d6b318c07e9e5257eac79bf2a11125270f6cba3e53f2bfee1d513",
    "experiment stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "results.csv": "168b27daa95d900cba368f3bc493a35f7122982d1a152fe771e900a16e5c925c",
    "bound": "3c017259f488a49799e409e6c1fbb191c48b80d499f7ba741a323e0218da9adf",
    "bound --k --beta": "0802e9a544fd5855422c4d7dc8480cc6e4a1f160bcf8f4696fb820ea66460c78",
    "simulate-abstention": "8f73fe864ecf65e02ea3020268e9b6163c24781058225ffdad7d4ecc640bad8d",
    "bound-surface": "6d60789c5d302784f09d9c2d42e697af143be879fc044e2367accb7a6c0bdd8a",
    "bound-limit": "d397a28a658df6ef3650f462461f120e43304baadfc9df60fddabc6c34dbe4fe",
}


class TestArtefactDigests:
    def test_every_artefact_keeps_its_bytes(self, tmp_path, capsys):
        """The pipeline on seeded moons (n=120, 2k rounds), criterion 9's ratings,
        a 2x2 experiment grid and each bound command, digest by digest."""
        from tripletboost import split

        def sha(data):
            data = data if isinstance(data, bytes) else data.encode()
            return hashlib.sha256(data).hexdigest()

        got = {}

        def run(name, *argv, files=()):
            code, out, _ = _run(capsys, *argv)
            assert code == 0, name
            got[name] = sha(out)
            for key, path in files:
                got[key] = sha(path.read_bytes())

        train_ds, test_ds = split(make_moons(120, 0.1, 11), 0.3, 12)
        data, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
        save_csv(train_ds, data)
        save_csv(test_ds, test_csv)
        path = {name: tmp_path / name for name in (
            "train.trp", "test.trp", "model.txt", "predict.csv", "evaluate.csv",
            "noisy.trp", "ratings.txt", "ratings.trp")}
        run("gen-triplets stdout", "gen-triplets", "--data", data, "--proportion", 0.3,
            "--noise", 0.1, "--seed", 1, "--out", path["train.trp"],
            files=[("store", path["train.trp"])])
        run("gen-triplets --test-data stdout", "gen-triplets", "--data", data,
            "--test-data", test_csv, "--proportion", 0.3, "--noise", 0.1, "--seed", 2,
            "--out", path["test.trp"], files=[("test set", path["test.trp"])])
        run("train stdout", "train", "--data", data, "--triplets", path["train.trp"],
            "--rounds", 2000, "--seed", 3, "--out-model", path["model.txt"],
            files=[("model", path["model.txt"])])
        scoring = ("--model", path["model.txt"], "--test-triplets", path["test.trp"],
                   "--seed", 4)
        run("predict stdout", "predict", *scoring, "--out", path["predict.csv"],
            files=[("predict csv", path["predict.csv"])])
        run("evaluate stdout", "evaluate", *scoring, "--labels", test_csv,
            "--out-predictions", path["evaluate.csv"],
            files=[("evaluate csv", path["evaluate.csv"])])
        run("add-noise stdout", "add-noise", "--triplets", path["train.trp"],
            "--rate", 0.25, "--seed", 5, "--out", path["noisy.trp"],
            files=[("add-noise store", path["noisy.trp"])])
        _ratings_fixture(path["ratings.txt"])
        run("gen-triplets-ratings stdout", "gen-triplets-ratings", "--ratings",
            path["ratings.txt"], "--seed", 6, "--out", path["ratings.trp"],
            files=[("ratings store", path["ratings.trp"])])
        spec = tmp_path / "spec.txt"
        spec.write_text("data=moons\nmoons_n=40\nmetric=euclidean\nproportions=0.2,0.5\n"
                        "noises=0.0,0.1\nrounds=200\nrepetitions=1\nseed=7\n"
                        f"out={tmp_path / 'grid'}\n", encoding="utf-8")
        run("experiment stdout", "experiment", "--spec", spec,
            files=[("results.csv", tmp_path / "grid" / "results.csv")])
        run("bound", "bound", "--n", 100, "--p", 0.1, "--classifiers", 50)
        run("bound --k --beta", "bound", "--n", 100, "--k", 1.5, "--beta", 1.2)
        run("simulate-abstention", "simulate-abstention", "--n", 10, "--p", 0.1,
            "--classifiers", 5, "--trials", 5000, "--seed", 8)
        run("bound-surface", "bound-surface", "--n", 100, "--k-grid", "0:2.5:6",
            "--beta-grid", "0,1,2")
        run("bound-limit", "bound-limit", "--k", 1.5, "--beta", 2.0)
        assert got == _ARTEFACT_DIGESTS
