"""Experiment spec files and the checks of an experiment grid."""

import dataclasses
import math

import pytest

from tripletboost import ExperimentSpec, make_moons, parse_spec, run_experiment, save_csv
from tripletboost.cli import main

_REQUIRED = ("data=moons\nmetric=euclidean\nproportions=0.2,0.4\nnoises=0.0\n"
             "rounds=30\nrepetitions=1\nseed=4\nout=res\n")


def _spec(tmp_path, text):
    path = tmp_path / "spec.txt"
    path.write_text(text, encoding="utf-8")
    return parse_spec(path)


class TestParseSpec:
    def test_comments_blank_lines_and_defaults(self, tmp_path):
        spec = _spec(tmp_path, "# a grid\n\n" + _REQUIRED.replace(
            "seed=4\n", "  seed = 4   # spaces and a trailing comment\n\n"))
        assert spec == ExperimentSpec(data="moons", metric="euclidean",
                                      proportions=(0.2, 0.4), noise_levels=(0.0,),
                                      rounds=30, repetitions=1, seed=4, out_dir="res")
        assert (spec.test_fraction, spec.moons_n, spec.moons_noise, spec.has_header) == (
            0.3, 500, 0.1, False)

    def test_optional_keys(self, tmp_path):
        spec = _spec(tmp_path, _REQUIRED + "test_fraction=0.25\nmoons_n=40\n"
                     "moons_noise=0.3\nhas_header=Yes\n")
        assert (spec.test_fraction, spec.moons_n, spec.moons_noise, spec.has_header) == (
            0.25, 40, 0.3, True)

    @pytest.mark.parametrize("text, flag", [
        ("true", True), ("TRUE", True), ("1", True), ("yes", True),
        ("false", False), ("False", False), ("0", False), ("no", False)])
    def test_has_header_values(self, tmp_path, text, flag):
        assert _spec(tmp_path, _REQUIRED + f"has_header={text}\n").has_header is flag

    def test_has_header_must_be_boolean_like(self, tmp_path):
        with pytest.raises(ValueError, match="has_header must be boolean-like, got 'maybe'"):
            _spec(tmp_path, _REQUIRED + "has_header=maybe\n")

    def test_unknown_key_named_with_its_line(self, tmp_path):
        """A misspelled key would otherwise run with the default it meant to set."""
        with pytest.raises(ValueError, match="^unknown spec key 'moons_nosie' at line 10$"):
            _spec(tmp_path, _REQUIRED + "# noise\nmoons_nosie=0.3\n")

    def test_repeated_key_named_with_its_line(self, tmp_path):
        with pytest.raises(ValueError, match="^repeated spec key 'moons_n' at line 10$"):
            _spec(tmp_path, _REQUIRED + "moons_n=40\nmoons_n=60\n")
        with pytest.raises(ValueError, match="^repeated spec key 'seed' at line 9$"):
            _spec(tmp_path, _REQUIRED + "seed=5\n")

    def test_line_without_equals_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="^expected key=value at line 2$"):
            _spec(tmp_path, "data=moons\nmetric\n")

    @pytest.mark.parametrize("old, new, where", [
        ("proportions=0.2,0.4", "proportions=0.2,,0.4", "'proportions' at line 3"),
        ("noises=0.0", "noises=none", "'noises' at line 4"),
        ("rounds=30", "rounds=ten", "'rounds' at line 5"),
        ("rounds=30", "rounds=2.5", "'rounds' at line 5"),
        ("out=res", "out=res\nmoons_n=", "'moons_n' at line 9"),
    ])
    def test_bad_value_named_with_its_key_and_line(self, tmp_path, old, new, where):
        with pytest.raises(ValueError, match=f"^bad value for spec key {where}: "):
            _spec(tmp_path, _REQUIRED.replace(old, new))

    def test_bad_value_named_through_the_cli(self, tmp_path, capsys):
        path = tmp_path / "spec.txt"
        path.write_text(_REQUIRED.replace("0.2,0.4", "0.2,,0.4"), encoding="utf-8")
        assert main(["experiment", "--spec", str(path)]) == 1
        assert capsys.readouterr().err == ("error: bad value for spec key 'proportions' "
                                           "at line 3: could not convert string to float: ''\n")

    @pytest.mark.parametrize("key", ["data", "noises", "out"])
    def test_missing_required_key_named(self, tmp_path, key):
        text = "".join(line + "\n" for line in _REQUIRED.splitlines()
                       if not line.startswith(key + "="))
        with pytest.raises(ValueError, match=f"^missing required spec key: '{key}'$"):
            _spec(tmp_path, text)


class TestSpecChecks:
    _GOOD = ExperimentSpec(data="moons", metric="euclidean", proportions=(0.5,),
                           noise_levels=(0.0,), rounds=10, repetitions=1, seed=0,
                           out_dir="res")

    @pytest.mark.parametrize("change, message", [
        ({"repetitions": 0}, "repetitions must be at least 1"),
        ({"rounds": 0}, "rounds must be at least 1"),
        ({"proportions": ()}, "need at least one proportion and one noise level"),
        ({"noise_levels": ()}, "need at least one proportion and one noise level"),
        ({"proportions": (0.5, 1.5)}, r"must lie in \[0, 1\]"),
        ({"noise_levels": (-0.1,)}, r"must lie in \[0, 1\]"),
        ({"noise_levels": (math.nan,)}, r"must lie in \[0, 1\]"),
        ({"test_fraction": 0.0}, "test_fraction must lie strictly between 0 and 1"),
        ({"test_fraction": 1.0}, "test_fraction must lie strictly between 0 and 1"),
        ({"metric": "euclidian"}, "^unknown metric 'euclidian'; expected one of"),
    ])
    def test_bad_grid_rejected(self, change, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(self._GOOD, **change)

    def test_non_finite_moons_noise_rejected_by_the_run(self, tmp_path):
        spec = dataclasses.replace(self._GOOD, moons_n=20, moons_noise=math.nan,
                                   out_dir=str(tmp_path / "res"))
        with pytest.raises(ValueError, match="noise must be finite and nonnegative"):
            run_experiment(spec)


class TestCsvData:
    def test_grid_on_a_csv_file_with_a_header(self, tmp_path):
        """``data`` names a CSV file; ``has_header`` skips its first line."""
        path = tmp_path / "moons.csv"
        save_csv(make_moons(30, 0.1, 2), path)
        text = path.read_text(encoding="utf-8")
        (tmp_path / "headed.csv").write_text("label,x,y\n" + text, encoding="utf-8")
        rows = []
        for name, header in (("moons.csv", "false"), ("headed.csv", "true")):
            spec = _spec(tmp_path, _REQUIRED.replace("data=moons", f"data={tmp_path / name}")
                         .replace("out=res", f"out={tmp_path / name}.out")
                         + f"has_header={header}\n")
            rows.append(run_experiment(spec))
        assert rows[0] == rows[1] and len(rows[0]) == 2
        assert (tmp_path / "headed.csv.out" / "results.csv").read_text(
            encoding="utf-8").count("\n") == 3
