"""Dataset ingestion, label dictionaries, and split contracts."""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletboost import Dataset, LabelDict, load_csv, make_moons, save_csv, split


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        """Rows label,f1 with first-occurrence label ids."""
        ds = load_csv(_write(tmp_path, "a,0.0\nb,1.0\na,3.0\n"))
        assert ds.n == 3
        assert ds.label_dict.names == ("a", "b")
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.features.tolist() == [[0.0], [1.0], [3.0]]

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty dataset"):
            load_csv(_write(tmp_path, ""))

    def test_inconsistent_dimension_reports_row(self, tmp_path):
        with pytest.raises(ValueError, match="inconsistent dimension at row 2"):
            load_csv(_write(tmp_path, "a,1,2\nb,3\n"))

    def test_label_only_rows(self, tmp_path):
        ds = load_csv(_write(tmp_path, "x\ny\nx\n"))
        assert ds.features is None
        assert ds.labels.tolist() == [0, 1, 0]

    def test_header_skipped(self, tmp_path):
        ds = load_csv(_write(tmp_path, "label,f1\na,1.5\n"), has_header=True)
        assert ds.n == 1
        assert ds.features[0, 0] == 1.5

    def test_non_numeric_feature_reports_row(self, tmp_path):
        with pytest.raises(ValueError, match="malformed row at row 2"):
            load_csv(_write(tmp_path, "a,1.0\nb,oops\n"))

    def test_non_finite_feature_reports_row(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite feature"):
            load_csv(_write(tmp_path, "a,1.0\nb,nan\n"))
        with pytest.raises(ValueError, match="malformed row at row 3: non-finite"):
            load_csv(_write(tmp_path, "label,f1,f2\na,1.0,2.0\nb,3.0,-inf\n"),
                     has_header=True)

    @pytest.mark.parametrize("text, message", [
        ("0,1.0\n0,inf\n0,x\n", "malformed row at row 2: non-finite feature"),
        ("0,1.0\n0,nan\n\n0,2.0\n", "malformed row at row 2: non-finite feature"),
        ("0,1.0\n0,-inf\n0,1.0,2.0\n", "malformed row at row 2: non-finite feature"),
        ("0,1.0\n0,x\n0,inf\n", "malformed row at row 2: non-numeric feature"),
    ])
    def test_first_bad_row_wins(self, tmp_path, text, message):
        """The reader stops at the first malformed line and checks the rows above
        it first, so a non-finite feature above it wins; one below it is never read."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_csv(_write(tmp_path, text))

    def test_interior_blank_line_rejected_trailing_tolerated(self, tmp_path):
        with pytest.raises(ValueError, match="malformed row at row 2"):
            load_csv(_write(tmp_path, "a,1.0\n\nb,2.0\n"))
        ds = load_csv(_write(tmp_path, "a,1.0\nb,2.0\n\n\n"))
        assert ds.n == 2

    def test_round_trip(self, tmp_path):
        """load -> save -> load reproduces the dataset exactly."""
        rng = np.random.default_rng(5)
        for trial in range(5):
            n = int(rng.integers(1, 30))
            n_labels = int(rng.integers(1, 4))
            names = tuple(f"c{i}" for i in range(n_labels))
            labels = rng.integers(0, n_labels, size=n)
            feats = rng.normal(size=(n, int(rng.integers(1, 5))))
            ds = Dataset(labels, LabelDict(names), feats)
            path = tmp_path / f"rt{trial}.csv"
            save_csv(ds, path)
            back = load_csv(path)
            assert back.n == ds.n
            assert [back.label_dict.names[y] for y in back.labels] == \
                [ds.label_dict.names[y] for y in ds.labels]
            np.testing.assert_array_equal(back.features, ds.features)
            save_csv(back, tmp_path / f"rt{trial}b.csv")
            assert (tmp_path / f"rt{trial}.csv").read_bytes() == \
                (tmp_path / f"rt{trial}b.csv").read_bytes()

    @pytest.mark.parametrize("features", [None, np.zeros((2, 1))])
    @pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb", "a\r\n", "a\u2028b"])
    def test_unreadable_label_name_rejected(self, tmp_path, name, features):
        ds = Dataset(np.array([0, 1]), LabelDict((name, "c")), features)
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            save_csv(ds, tmp_path / "out.csv")

    @pytest.mark.parametrize("name", ["", " \t"])
    def test_blank_label_name_needs_features(self, tmp_path, name):
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            save_csv(Dataset(np.array([0, 1]), LabelDict(("c", name))), tmp_path / "a.csv")
        save_csv(Dataset(np.array([0, 1]), LabelDict(("c", name)), np.zeros((2, 1))),
                 tmp_path / "b.csv")
        assert load_csv(tmp_path / "b.csv").label_dict.names == ("c", name)


def _save_csv_cases():
    """Seeded datasets for the byte pins: features with a signed zero, a subnormal
    and extreme magnitudes; no features, with an unused label name save_csv could
    not write; and legal names that are blank, braced, quoted, non-ASCII or a
    no-break space."""
    rng = np.random.default_rng(21)
    feats = rng.normal(size=(40, 3)) * [1.0, 1e-7, 1e12]
    feats[0] = [-0.0, 5e-324, 1.0]
    feats[1] = [1e300, -2.5, 0.1]
    yield "features", Dataset(rng.integers(0, 3, 40), LabelDict(("a", "b", "c")), feats)
    yield "feature-free", Dataset(rng.integers(0, 4, 30),
                                  LabelDict(("zero", "one", "two", "three", "never,used")))
    names = ("", " \t", "{0}", "{}", "\u00e9 \u00f1", '"quoted"', "#", "x;y", "NaN", "\u00a0")
    yield "unusual names", Dataset(np.arange(40) % len(names), LabelDict(names),
                                   rng.uniform(-3, 3, size=(40, 2)))


_SAVE_CSV_DIGESTS = {
    "features": "c928b3df5ee46a8095d9c0fd0492b8434c3b5810190a7abcdbf97d2b89db88e0",
    "feature-free": "d473d2764f40e13c961a6a55880fb62bbcea1631c57d32fb79f8ea139a158ffd",
    "unusual names": "b33ac3aa5fad31d6b58e2adb38d9c2ef3022309a39c5f8992320a03a484e011c",
}


class TestSaveCsvBytes:
    def test_output_digests_pinned(self, tmp_path):
        """save_csv's bytes: label names as they are, shortest round-trip floats,
        UTF-8 and LF."""
        got = {}
        for name, ds in _save_csv_cases():
            save_csv(ds, tmp_path / "out.csv")
            got[name] = hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest()
        assert got == _SAVE_CSV_DIGESTS


class TestDatasetFeatures:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        feats = np.array([[0.0, 1.0], [2.0, bad], [1.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.array([0, 1, 0]), LabelDict(("a", "b")), feats)

    @pytest.mark.parametrize("labels, feats, message", [
        ([0, 5], [[math.inf], [1.0]], "malformed row at row 0: non-finite feature"),
        ([5, 0], [[1.0], [math.nan]], "label id out of range at row 0"),
        ([5, 0], [[math.inf], [1.0]], "label id out of range at row 0"),  # label first
    ])
    def test_first_bad_row_wins(self, labels, feats, message):
        """Across the label check and the feature check the first bad row is named."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            Dataset(np.array(labels), LabelDict(("a", "b")), np.array(feats))

    def test_label_out_of_range_names_the_row(self):
        with pytest.raises(ValueError, match="label id out of range at row 2"):
            Dataset(np.array([0, 1, 2]), LabelDict(("a", "b")))

    def test_labels_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="^labels must be one-dimensional$"):
            Dataset(np.zeros((2, 2), dtype=np.int64), LabelDict(("a", "b")))

    @pytest.mark.parametrize("feats", [np.zeros(2), np.zeros((3, 1)), np.zeros((2, 0))])
    def test_features_must_be_an_n_by_d_array(self, feats):
        """A 1-D array, a row count other than the labels', or no feature column."""
        with pytest.raises(ValueError, match=r"^features must be an \(n, D\) array"):
            Dataset(np.array([0, 1]), LabelDict(("a", "b")), feats)


class TestLabelDict:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            LabelDict(("a", "a"))

    def test_id_lookup(self):
        d = LabelDict(("x", "y"))
        assert d.id_of("y") == 1
        with pytest.raises(KeyError):
            d.id_of("z")


class TestSplit:
    def test_sizes(self):
        ds = make_moons(10, 0.0, 0)
        train, test = split(ds, 0.3, seed=7)
        assert (train.n, test.n) == (7, 3)

    def test_zero_fraction_is_identity(self):
        ds = make_moons(8, 0.0, 0)
        train, test = split(ds, 0.0, seed=1)
        assert test.n == 0
        np.testing.assert_array_equal(train.labels, ds.labels)
        np.testing.assert_array_equal(train.features, ds.features)

    def test_deterministic(self):
        ds = make_moons(20, 0.1, 3)
        a = split(ds, 0.4, seed=9)
        b = split(ds, 0.4, seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.labels, y.labels)
            np.testing.assert_array_equal(x.features, y.features)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 60), frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**30))
    def test_partition_property(self, n, frac, seed):
        """Split is a partition: sizes add up, features are disjointly reused."""
        rng = np.random.default_rng(0)
        feats = np.arange(n, dtype=float).reshape(n, 1)
        ds = Dataset(rng.integers(0, 2, size=n), LabelDict(("a", "b")), feats)
        train, test = split(ds, frac, seed)
        assert train.n + test.n == n
        assert test.n == int(np.ceil(n * frac - 1e-12))
        together = sorted(train.features[:, 0].tolist() + test.features[:, 0].tolist())
        assert together == list(range(n))

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            split(make_moons(4, 0.0, 0), 1.5, 0)


class TestMoons:
    def test_shapes_and_labels(self):
        ds = make_moons(101, 0.05, 2)
        assert ds.n == 101
        assert ds.features.shape == (101, 2)
        assert set(np.unique(ds.labels)) == {0, 1}

    def test_noise_free_is_separable_by_height(self):
        """Without noise the two arcs live in disjoint half-planes (mostly)."""
        ds = make_moons(200, 0.0, 0)
        top = ds.features[ds.labels == 0]
        bottom = ds.features[ds.labels == 1]
        assert top[:, 1].min() >= -1e-9
        assert bottom[:, 1].max() <= 0.5 + 1e-9

    def test_needs_two_examples(self):
        with pytest.raises(ValueError, match="^need at least two examples$"):
            make_moons(1)

    @pytest.mark.parametrize("noise", [-0.5, float("nan"), float("inf")])
    def test_negative_or_non_finite_noise_rejected(self, noise):
        """Such a noise would give noise-free moons (or NaN features) without a word."""
        with pytest.raises(ValueError, match="noise must be finite and nonnegative"):
            make_moons(20, noise, 0)
