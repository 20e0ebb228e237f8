"""End-to-end command-line flows and their determinism/error contracts."""

import subprocess
import sys

import numpy as np

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
