from types import SimpleNamespace

import numpy as np
import pytest

from jointhash import data as data_module
from jointhash.data import (
    BLOCK_ROWS,
    Dataset,
    load_dataset,
    parse_run_config,
    read_feature_file,
    read_label_file,
    save_dataset,
    synth_dataset,
    train_test_split,
    write_feature_file,
    write_label_file,
)
from jointhash.errors import ConfigError, DataError, FormatError


class TestFeatureFile:
    def test_roundtrip_64(self, tmp_path):
        feats = np.array([[1.5, -2.25, 3.0], [0.1, 0.2, 0.3]])
        path = tmp_path / "f.feat"
        write_feature_file(path, feats, width=64)
        assert np.array_equal(read_feature_file(path), feats)

    def test_roundtrip_32_widens(self, tmp_path):
        feats = np.array([[1.5, -2.25], [0.5, 4.0]])  # exact in float32
        path = tmp_path / "f.feat"
        write_feature_file(path, feats, width=32)
        loaded = read_feature_file(path)
        assert loaded.dtype == np.float64
        assert np.array_equal(loaded, feats)

    def test_empty_file_is_format_error(self, tmp_path):
        path = tmp_path / "empty.feat"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            read_feature_file(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.feat"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(FormatError, match="magic"):
            read_feature_file(path)

    def test_length_mismatch_names_file(self, tmp_path):
        path = tmp_path / "short.feat"
        write_feature_file(path, np.ones((2, 3)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="short.feat"):
            read_feature_file(path)

    def test_non_finite_rejected_with_offset(self, tmp_path):
        feats = np.ones((2, 2))
        path = tmp_path / "nan.feat"
        write_feature_file(path, feats)
        raw = bytearray(path.read_bytes())
        raw[16:24] = np.array([np.nan]).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="offset 16"):
            read_feature_file(path)

    @pytest.mark.parametrize("width", [32, 64])
    def test_roundtrip_across_blocks(self, tmp_path, width):
        rng = np.random.default_rng(width)
        feats = rng.normal(size=(2 * BLOCK_ROWS + 3, 5))
        if width == 32:
            feats = feats.astype(np.float32).astype(np.float64)
        path = tmp_path / "f.feat"
        write_feature_file(path, feats, width=width)
        loaded = read_feature_file(path)
        assert loaded.dtype == np.float64
        assert np.array_equal(loaded, feats)

    @pytest.mark.parametrize("width", [32, 64])
    def test_non_finite_in_later_block_names_first(self, tmp_path, width):
        d, itemsize = 5, width // 8
        path = tmp_path / "late.feat"
        write_feature_file(path, np.ones((2 * BLOCK_ROWS + 3, d)), width=width)
        raw = bytearray(path.read_bytes())
        first = (BLOCK_ROWS + 7) * d + 2  # second block
        later = (2 * BLOCK_ROWS + 1) * d  # third block
        dtype = "<f4" if width == 32 else "<f8"
        for element, value in ((later, np.nan), (first, -np.inf)):
            offset = 16 + element * itemsize
            raw[offset:offset + itemsize] = np.array([value], dtype).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError) as err:
            read_feature_file(path)
        assert str(err.value) == (f"{path}: non-finite value at element "
                                  f"{first} (offset {16 + first * itemsize})")

    @pytest.mark.parametrize("width", [32, 64])
    def test_trailing_bytes_are_length_mismatch(self, tmp_path, width):
        path = tmp_path / "long.feat"
        write_feature_file(path, np.ones((BLOCK_ROWS + 1, 3)), width=width)
        expected = 16 + (BLOCK_ROWS + 1) * 3 * width // 8
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(FormatError) as err:
            read_feature_file(path)
        assert str(err.value) == (f"{path}: file length {expected + 1} does "
                                  f"not match header (expected {expected} bytes)")

    @pytest.mark.parametrize("width", [32, 64])
    def test_zero_rows(self, tmp_path, width):
        path = tmp_path / "empty.feat"
        write_feature_file(path, np.zeros((0, 4)), width=width)
        loaded = read_feature_file(path)
        assert loaded.shape == (0, 4) and loaded.dtype == np.float64

    def test_file_shrinking_while_read(self, tmp_path, monkeypatch):
        # the size check passes, then the values run out mid-block
        path = tmp_path / "shrunk.feat"
        write_feature_file(path, np.ones((BLOCK_ROWS + 2, 3)), width=32)
        full = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-12])
        monkeypatch.setattr(data_module.os, "fstat",
                            lambda fd: SimpleNamespace(st_size=full))
        with pytest.raises(FormatError, match="shrank"):
            read_feature_file(path)

    def test_bad_width_rejected(self, tmp_path):
        with pytest.raises(DataError):
            write_feature_file(tmp_path / "w.feat", np.ones((1, 1)), width=16)


class TestLabelFile:
    def test_roundtrip_with_header(self, tmp_path):
        path = tmp_path / "labels.txt"
        write_label_file(path, [0, 2, 1], num_classes=5)
        labels, classes = read_label_file(path)
        assert labels.tolist() == [0, 2, 1]
        assert classes == 5

    def test_class_count_inferred(self, tmp_path):
        path = tmp_path / "labels.txt"
        write_label_file(path, [0, 3, 1])
        labels, classes = read_label_file(path)
        assert classes == 4

    def test_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("classes=5\n0\n1\n7\n")
        with pytest.raises(DataError, match=":4"):
            read_label_file(path)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0\nbanana\n")
        with pytest.raises(FormatError, match=":2"):
            read_label_file(path)

    def test_negative_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("0\n-3\n")
        with pytest.raises(DataError):
            read_label_file(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("")
        with pytest.raises(FormatError):
            read_label_file(path)

    @pytest.mark.parametrize("text, line", [
        ("0\n4294967296\n", 2),
        ("0\n99999999999999999999\n", 2),
        ("classes=4294967296\n0\n", 1),
    ])
    def test_above_u32_names_line(self, tmp_path, text, line):
        # code tables store labels, and checkpoints the class count, as u32
        path = tmp_path / "labels.txt"
        path.write_text(text)
        with pytest.raises(DataError, match=f":{line}: "):
            read_label_file(path)

    def test_u32_max_accepted(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("classes=4294967295\n0\n4294967294\n")
        labels, classes = read_label_file(path)
        assert labels.tolist() == [0, 2**32 - 2] and classes == 2**32 - 1


class TestLoadDataset:
    def test_count_mismatch_names_both_files(self, tmp_path):
        write_feature_file(tmp_path / "f.feat", np.ones((3, 2)))
        write_label_file(tmp_path / "l.txt", [0, 1])
        with pytest.raises(DataError) as err:
            load_dataset(tmp_path / "f.feat", tmp_path / "l.txt")
        assert "f.feat" in str(err.value) and "l.txt" in str(err.value)

    def test_save_load_roundtrip(self, tmp_path):
        ds = synth_dataset(3, 4, 5, separation=2.0, seed=0)
        fpath, lpath = save_dataset(ds, tmp_path)
        loaded = load_dataset(fpath, lpath)
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.num_classes == ds.num_classes


class TestDatasetValidation:
    def test_label_range_checked(self):
        with pytest.raises(DataError):
            Dataset(np.ones((2, 2)), np.array([0, 5]), num_classes=3)

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            Dataset(np.array([[1.0, np.inf]]), np.array([0]), num_classes=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 7, 14])
    def test_non_finite_anywhere_rejected(self, bad, at):
        features = np.ones((5, 3))
        features.flat[at] = bad
        with pytest.raises(DataError):
            Dataset(features, np.zeros(5, dtype=int), num_classes=1)

    @pytest.mark.parametrize("features", [
        np.full((4, 2), 1e308), np.full((4, 2), -1e308),
        np.array([[-0.0, 1.0], [2.0, -0.0]]), np.zeros((0, 3)),
    ], ids=["huge", "huge_negative", "negative_zero", "empty"])
    def test_finite_extremes_accepted(self, features):
        ds = Dataset(features, np.zeros(len(features), dtype=int), num_classes=1)
        assert np.array_equal(ds.features, features)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            Dataset(np.ones((3, 2)), np.array([0]), num_classes=2)

    @pytest.mark.parametrize("bad", [2.5, -0.5, np.nan, np.inf])
    def test_non_integral_label_names_row(self, bad):
        labels = np.array([0.0, 1.0, 2.0, bad, 1.0])
        with pytest.raises(DataError, match=r"in row 3 is not an integer"):
            Dataset(np.ones((5, 2)), labels, num_classes=3)

    @pytest.mark.parametrize("labels", [[0, 1 + 0.5j], [0, 1 + 0j]],
                             ids=["imaginary_part", "zero_imaginary_part"])
    def test_complex_labels_rejected(self, labels):
        with pytest.raises(DataError, match="complex dtype"):
            Dataset(np.ones((2, 2)), np.array(labels), num_classes=2)

    def test_integral_float_labels_accepted(self):
        ds = Dataset(np.ones((3, 2)), np.array([0.0, 2.0, 1.0]), num_classes=3)
        assert ds.labels.dtype == np.int64
        assert ds.labels.tolist() == [0, 2, 1]


class TestSynthDataset:
    def test_deterministic_files(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        synth_dataset(3, 5, 4, separation=2.0, seed=42, out_dir=a)
        synth_dataset(3, 5, 4, separation=2.0, seed=42, out_dir=b)
        assert (a / "features.feat").read_bytes() == \
               (b / "features.feat").read_bytes()
        assert (a / "labels.txt").read_text() == (b / "labels.txt").read_text()

    def test_zero_separation_class_blind(self):
        ds = synth_dataset(4, 50, 6, separation=0.0, seed=1)
        # class means coincide at the origin: no class signal in features
        means = np.array([ds.features[ds.labels == c].mean(axis=0)
                          for c in range(4)])
        assert np.max(np.abs(means)) < 0.2

    def test_separation_orders_class_distance(self):
        near = synth_dataset(3, 40, 8, separation=0.5, seed=2)
        far = synth_dataset(3, 40, 8, separation=5.0, seed=2)

        def between_class_gap(ds):
            means = np.array([ds.features[ds.labels == c].mean(axis=0)
                              for c in range(3)])
            return np.linalg.norm(means[0] - means[1])

        assert between_class_gap(far) > between_class_gap(near)

    def test_bounds(self):
        with pytest.raises(ValueError):
            synth_dataset(1, 5, 4, 1.0, 0)
        with pytest.raises(ValueError):
            synth_dataset(3, 1, 4, 1.0, 0)

    def test_acceptance_benchmark_shape(self):
        ds = synth_dataset(10, 100, 64, separation=3.0, seed=0)
        assert len(ds) == 1000 and ds.feature_dim == 64
        assert ds.num_classes == 10


class TestTrainTestSplit:
    def test_stratified_80_20(self):
        ds = synth_dataset(10, 100, 8, separation=1.0, seed=3)
        train_set, test_set = train_test_split(ds, 0.2, seed=0)
        assert len(train_set) == 800 and len(test_set) == 200
        for c in range(10):
            assert (test_set.labels == c).sum() == 20

    def test_deterministic(self):
        ds = synth_dataset(4, 10, 5, separation=1.0, seed=4)
        a_train, a_test = train_test_split(ds, 0.2, seed=7)
        b_train, b_test = train_test_split(ds, 0.2, seed=7)
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_test.features, b_test.features)

    def test_disjoint_and_complete(self):
        ds = synth_dataset(3, 10, 4, separation=1.0, seed=5)
        train_set, test_set = train_test_split(ds, 0.3, seed=1)
        combined = np.vstack([train_set.features, test_set.features])
        assert combined.shape[0] == len(ds)
        # every original row appears exactly once
        original = {tuple(row) for row in ds.features}
        assert {tuple(row) for row in combined} == original

    def test_fraction_bounds(self):
        ds = synth_dataset(2, 4, 3, separation=1.0, seed=6)
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                train_test_split(ds, bad, seed=0)


class TestRunConfig:
    KEYS = frozenset({"features", "labels", "bits", "eta", "out"})

    def test_parse_known_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "features = data/train.feat\n"
            "labels= data/train.txt\n"
            "bits =32\n"
            "eta=0.2\n"
            "\n"
            "out=results\n"
        )
        cfg = parse_run_config(path, self.KEYS)
        assert cfg == {"features": "data/train.feat",
                       "labels": "data/train.txt", "bits": "32",
                       "eta": "0.2", "out": "results"}

    def test_unknown_key_rejected_by_name(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("verbosity=3\n")
        with pytest.raises(ConfigError, match="verbosity"):
            parse_run_config(path, self.KEYS)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just a sentence\n")
        with pytest.raises(ConfigError, match=":1"):
            parse_run_config(path, self.KEYS)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_run_config(tmp_path / "nope.cfg", self.KEYS)
