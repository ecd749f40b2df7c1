import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointhash import _files
from jointhash.data import (
    BLOCK_ROWS,
    Dataset,
    StreamedDataset,
    _block_rows,
    _feature_blocks,
    _parse_canonical,
    class_indices,
    load_dataset,
    parse_run_config,
    read_feature_file,
    read_label_file,
    row_blocks,
    save_dataset,
    synth_dataset,
    train_test_split,
    write_feature_file,
    write_label_file,
)
from jointhash.errors import ConfigError, DataError, DimensionError, FormatError
from jointhash.index import U32_MAX, CodeTable, load_code_table, save_code_table
from jointhash.objective import Hyperparams, label_loss, loss_parts
from jointhash.train import (
    Checkpoint,
    init_params,
    load_checkpoint,
    save_checkpoint,
)


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

    @pytest.mark.parametrize("d, rows", [(0, BLOCK_ROWS), (16, BLOCK_ROWS),
                                         (64, 2048), (128, 1024), (129, 1016),
                                         (1024, 128), (4096, 64), (16384, 64),
                                         (10**6, 64)])
    def test_block_rows_bounded_by_bytes(self, d, rows):
        # 1 MiB of float64 per block, BLOCK_ROWS rows at most, 64 at least
        assert _block_rows(d) == rows

    @pytest.mark.parametrize("width", [32, 64])
    def test_block_wider_than_widening_buffer(self, tmp_path, width):
        # at D = 5000 the 64-row floor makes a block of 2.4 MiB of float64,
        # above the 1 MiB budget; 70 rows are two blocks, and a NaN in the
        # second is named
        d = 5000
        feats = np.random.default_rng(width).normal(size=(70, d))
        feats = feats.astype(np.float32).astype(np.float64)
        path = tmp_path / "wide.feat"
        write_feature_file(path, feats, width=width)
        assert np.array_equal(read_feature_file(path), feats)
        element = 69 * d + 3
        offset = 16 + element * width // 8
        raw = bytearray(path.read_bytes())
        dtype = "<f4" if width == 32 else "<f8"
        raw[offset:offset + width // 8] = np.array([np.nan], dtype).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError) as err:
            read_feature_file(path)
        assert str(err.value) == (f"{path}: non-finite value at element "
                                  f"{element} (offset {offset})")

    @pytest.mark.parametrize("width, value, shown", [(64, np.nan, "nan"),
                                                     (32, 1e39, "1e+39")])
    def test_write_rejects_values_not_finite_as_stored(self, tmp_path, width,
                                                       value, shown):
        # 1e39 is finite as a float64 but overflows to inf as a float32
        path = tmp_path / "f.feat"
        path.write_bytes(b"old")
        feats = np.ones((2, 3))
        feats[1, 1] = value
        with pytest.raises(DataError) as err:
            write_feature_file(path, feats, width=width)
        assert str(err.value) == (f"{path}: element 4 ({shown}) is not "
                                  f"finite as a {width}-bit float")
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["f.feat"]

    def test_bad_width_rejected(self, tmp_path):
        with pytest.raises(DataError):
            write_feature_file(tmp_path / "w.feat", np.ones((1, 1)), width=16)


def _shrinking_feat(path):
    write_feature_file(path, np.ones((BLOCK_ROWS + 2, 3)), width=32)
    return read_feature_file, 16 + BLOCK_ROWS * 3 * 4  # the second block


def _shrinking_htbl(path):
    n = 5
    save_code_table(CodeTable(np.zeros((n, 1), np.uint64), np.arange(n),
                              np.zeros(n), np.zeros(n), code_bits=16), path)
    return load_code_table, 14 + 8 * n + 2 * 4 * n  # the predicted column


def _shrinking_dhcn(path):
    params = init_params(3, 4, 2, seed=0)
    save_checkpoint(Checkpoint(params, Hyperparams(code_bits=4), 1), path)
    return load_checkpoint, 18 + params.flat.nbytes  # the hyperparameters


@pytest.mark.parametrize("write", [_shrinking_feat, _shrinking_htbl,
                                   _shrinking_dhcn], ids=["FEAT", "HTBL", "DHCN"])
def test_file_shrinking_while_read(tmp_path, monkeypatch, write):
    # the size check passes, then the last 12 bytes are missing at their read
    path = tmp_path / "shrunk"
    read, offset = write(path)
    full = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-12])
    monkeypatch.setattr(_files.os, "fstat",
                        lambda fd: SimpleNamespace(st_size=full))
    with pytest.raises(FormatError) as err:
        read(path)
    assert str(err.value) == (f"{path}: file shrank while being read (short "
                              f"read at offset {offset})")


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


def reference_read_label_file(path) -> tuple[np.ndarray, int]:
    """read_label_file's line-by-line parser, kept verbatim as the oracle of
    its one-array path for canonical files."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text at offset {exc.start}") from None
    declared = None
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if lineno == 1 and line.startswith("classes="):
            try:
                declared = int(line.split("=", 1)[1])
            except ValueError:
                raise FormatError(f"{path}:{lineno}: malformed classes header "
                                  f"{line!r}") from None
            if not 1 <= declared <= U32_MAX:
                raise DataError(f"{path}:{lineno}: class count must lie in "
                                f"[1, {U32_MAX}], got {declared}")
            continue
        try:
            value = int(line)
        except ValueError:
            raise FormatError(
                f"{path}:{lineno}: expected an integer label, got {line!r}"
            ) from None
        if not 0 <= value <= U32_MAX:
            raise DataError(f"{path}:{lineno}: label {value} must lie in "
                            f"[0, {U32_MAX}]")
        if declared is not None and value >= declared:
            raise DataError(
                f"{path}:{lineno}: label {value} out of range for "
                f"classes={declared}"
            )
        values.append(value)
    if not values:
        raise FormatError(f"{path}: no labels found")
    labels = np.asarray(values, dtype=np.int64)
    return labels, declared if declared is not None else int(labels.max()) + 1


def label_outcome(read, path):
    try:
        labels, classes = read(path)
    except (FormatError, DataError) as exc:
        return type(exc), str(exc)
    return labels.dtype, labels.tolist(), type(classes), classes


ODD_LINES = ["+7", "1_0", "007", "٣", "１", " 3", "3 ", "\t5", "-1", "x", "",
             "12345678901", "4294967295", "4294967296", "99999999999", "\x85"]


@st.composite
def label_texts(draw):
    """Label files: half canonical, with labels around the declared class
    count and U32_MAX; half with every kind of line that the line-by-line
    parser treats in its own way."""
    if draw(st.booleans()):
        header = draw(st.one_of(st.none(), st.integers(1, 13)))
        label = st.one_of(st.integers(0, 14), st.integers(U32_MAX - 1, 10**10),
                          st.integers(2**63, 2**64), st.integers(0, 10**20))
        zeros = st.integers(0, 12).map(lambda k: "0" * k)
        line = st.one_of(st.builds("{}{}".format, zeros, label), st.just(""))
        lines = draw(st.lists(line, max_size=8))
        if header is not None:
            lines.insert(0, f"classes={header}")
        text = "".join(f"{line}\n" for line in lines)
        return (text[:-1] if draw(st.booleans()) else text).encode()
    line = st.one_of(st.integers(0, 12).map(str), st.integers(0, 2**34).map(str),
                     st.sampled_from(ODD_LINES))
    header = st.one_of(st.none(), st.integers(1, 13).map(lambda c: f"classes={c}"),
                       st.sampled_from(["classes=0", "classes=4294967296",
                                        "classes=x", "classes=", "classes=+3",
                                        " classes=3", "classes=٣", "classes=03"]))
    lines = draw(st.lists(line, max_size=8))
    first = draw(header)
    if first is not None:
        lines.insert(0, first)
    ends = draw(st.lists(st.sampled_from(["\n"] * 6 + ["\r\n", "\r", "\n\n"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(a + b for a, b in zip(lines, ends))
    if draw(st.booleans()) and text.endswith("\n"):
        text = text[:-1]
    return text.encode()


def test_label_parser_matches_line_by_line_parser(tmp_path_factory):
    path = tmp_path_factory.mktemp("labels") / "labels.txt"

    @settings(max_examples=120, derandomize=True, deadline=None, database=None)
    @given(label_texts())
    def check(raw):
        path.write_bytes(raw)
        assert label_outcome(read_label_file, path) == label_outcome(
            reference_read_label_file, path)

    check()


@pytest.mark.parametrize("raw, labels, classes", [
    (b"0\n2\n1\n", [0, 2, 1], None),
    (b"classes=5\n0\n4\n", [0, 4], 5),
    (b"classes=007\n0006\n00\n", [6, 0], 7),
    (b"4294967295\n0\n", [U32_MAX, 0], None),
    (b"classes=4294967295\n4294967294\n", [U32_MAX - 1], U32_MAX),
])
def test_canonical_label_files_parse_at_once(raw, labels, classes):
    got, declared = _parse_canonical(raw)
    assert got.dtype == np.int64 and got.tolist() == labels
    assert declared == classes


@pytest.mark.parametrize("raw", [
    b"0\r\n1\r\n", b"0\n\n1\n", b"+7\n", b"1_0\n", "٣\n".encode(),
    b"0\n1", b" 3\n", b"4294967296\n", b"12345678901\n", b"classes=3\n3\n",
    b"classes=0\n0\n", b"classes=x\n0\n", b"classes=3 \n0\n", b"classes=3\n",
    b"", b"\n", b"1\n18446744073709551615\n",
], ids=["crlf", "blank", "plus", "underscore", "arabic", "no_end", "space",
        "above_u32", "11_digits", "at_classes", "zero_classes", "bad_header",
        "header_space", "empty_body", "empty", "newline", "wraps_int64"])
def test_other_label_files_go_line_by_line(raw):
    assert _parse_canonical(raw) is None


class TestWriteLabelFile:
    @pytest.mark.parametrize("labels, classes, message", [
        ([0, 5], 3, "class index 5 outside [0, 3)"),
        ([0, -1], None, f"class index -1 outside [0, {U32_MAX + 1})"),
        ([2**32], None, f"class index {2**32} outside [0, {U32_MAX + 1})"),
        ([2**70], None, "labels of dtype object are not integer class indices"),
        ([0.5, 1.0], None, "label 0.5 in row 0 is not an integer class index"),
        ([1.0, np.nan], 3, "label nan in row 1 is not an integer class index"),
        (np.zeros(0, np.int64), 4,
         "labels must form a non-empty 1-D array, got shape (0,)"),
        ([0], 0, f"class count must be an integer in [1, {U32_MAX}], got 0"),
        ([0], 2**32, f"class count must be an integer in [1, {U32_MAX}], "
                     f"got {2**32}"),
        ([0], 2.0, f"class count must be an integer in [1, {U32_MAX}], got 2.0"),
        ([[0, 1]], None, "labels must form a non-empty 1-D array, got shape (1, 2)"),
        (["1"], None, "labels of dtype <U1 are not integer class indices"),
    ])
    def test_refuses_what_the_reader_rejects(self, tmp_path, labels, classes,
                                             message):
        path = tmp_path / "labels.txt"
        path.write_bytes(b"old")
        with pytest.raises(DataError) as err:
            write_label_file(path, labels, classes)
        assert str(err.value) == f"{path}: {message}"
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["labels.txt"]

    def test_integral_floats_and_unsigned_are_written(self, tmp_path):
        write_label_file(tmp_path / "a.txt", [0.0, 2.0, 1.0], np.int64(3))
        write_label_file(tmp_path / "b.txt", np.array([U32_MAX], np.uint64))
        assert (tmp_path / "a.txt").read_text() == "classes=3\n0\n2\n1\n"
        assert (tmp_path / "b.txt").read_text() == f"{U32_MAX}\n"

    def test_written_files_read_back(self, tmp_path_factory):
        # a file is written exactly when class_indices accepts its labels,
        # and the reader reads them back equal
        path = tmp_path_factory.mktemp("labels") / "labels.txt"
        label = st.one_of(st.integers(-2, 2**33), st.floats(-2, 20),
                          st.sampled_from([np.nan, np.inf, -np.inf]),
                          st.integers(2**63, 2**64 - 1), st.booleans(),
                          st.integers(0, 12).map(str))

        def readable(labels, classes):
            if not labels or classes is not None and classes < 1:
                return False
            try:
                class_indices(labels, len(labels),
                              U32_MAX + 1 if classes is None else classes)
            except DataError:
                return False
            return True

        @settings(max_examples=60, derandomize=True, deadline=None,
                  database=None)
        @given(st.lists(label, max_size=5),
               st.one_of(st.none(), st.integers(-1, 12)))
        def check(labels, classes):
            path.write_bytes(b"old")
            if not readable(labels, classes):
                with pytest.raises(DataError):
                    write_label_file(path, labels, classes)
                assert path.read_bytes() == b"old"
                return
            write_label_file(path, labels, classes)
            read, read_classes = read_label_file(path)
            assert read.tolist() == labels
            assert read_classes == (classes or int(max(labels)) + 1)

        check()

    def test_save_dataset_refuses_no_rows(self, tmp_path):
        empty = Dataset(np.zeros((0, 3)), np.zeros(0, np.int64), num_classes=4)
        with pytest.raises(DataError, match="non-empty 1-D array"):
            save_dataset(empty, tmp_path / "out")
        assert os.listdir(tmp_path / "out") == []


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


class TestStreamedDataset:
    @pytest.mark.parametrize("width", [32, 64])
    def test_blocks_are_the_loaded_rows(self, tmp_path, width):
        feats = np.random.default_rng(width).normal(size=(2 * BLOCK_ROWS + 3, 4))
        write_feature_file(tmp_path / "f.feat", feats, width=width)
        write_label_file(tmp_path / "l.txt", np.arange(len(feats)) % 3, 5)
        loaded = load_dataset(tmp_path / "f.feat", tmp_path / "l.txt")
        stream = StreamedDataset(tmp_path / "f.feat", tmp_path / "l.txt")
        assert (len(stream), stream.feature_dim, stream.num_classes) == (
            len(loaded), loaded.feature_dim, loaded.num_classes)
        assert np.array_equal(stream.labels, loaded.labels)
        blocks = [block.copy() for block in stream.blocks()]
        assert [len(b) for b in blocks] == [BLOCK_ROWS, BLOCK_ROWS, 3]
        assert all(b.dtype == np.float64 for b in blocks)
        assert np.array_equal(np.concatenate(blocks), loaded.features)

    def test_labels_checked_before_any_value_is_read(self, tmp_path):
        # every value NaN: write_feature_file rejects that, so patch it in
        write_feature_file(tmp_path / "f.feat", np.ones((3, 2)))
        raw = (tmp_path / "f.feat").read_bytes()
        (tmp_path / "f.feat").write_bytes(raw[:16] + np.full(6, np.nan).tobytes())
        write_label_file(tmp_path / "l.txt", [0, 1])
        with pytest.raises(DataError, match="holds 3 rows but .* holds 2 labels"):
            StreamedDataset(tmp_path / "f.feat", tmp_path / "l.txt")

    def test_wide_blocks_are_bounded_by_bytes(self, tmp_path):
        d = 1030
        feats = np.random.default_rng(1).normal(size=(2 * _block_rows(d) + 5, d))
        write_feature_file(tmp_path / "f.feat", feats, width=32)
        write_label_file(tmp_path / "l.txt", np.arange(len(feats)) % 3)
        stream = StreamedDataset(tmp_path / "f.feat", tmp_path / "l.txt")
        blocks = [block.copy() for block in stream.blocks()]
        assert [len(b) for b in blocks] == [127, 127, 5]
        assert np.array_equal(np.concatenate(blocks),
                              feats.astype(np.float32).astype(np.float64))

    @pytest.mark.parametrize("width", [32, 64])
    def test_empty_file_gives_one_empty_block(self, tmp_path, width):
        write_feature_file(tmp_path / "f.feat", np.zeros((0, 7)), width=width)
        blocks = _feature_blocks(tmp_path / "f.feat")
        assert next(blocks) == (0, 7)
        [block] = blocks
        assert block.shape == (0, 7) and block.dtype == np.float64

    def test_blocks_read_once(self, tmp_path):
        write_feature_file(tmp_path / "f.feat", np.ones((3, 2)))
        write_label_file(tmp_path / "l.txt", [0, 1, 0])
        stream = StreamedDataset(tmp_path / "f.feat", tmp_path / "l.txt")
        assert sum(len(b) for b in stream.blocks()) == 3
        with pytest.raises(ValueError, match="once"):
            stream.blocks()


class TestDatasetBlocks:
    @pytest.mark.parametrize("n, d, lengths", [
        (2 * BLOCK_ROWS + 3, 4, [BLOCK_ROWS, BLOCK_ROWS, 3]),
        (BLOCK_ROWS, 4, [BLOCK_ROWS]), (2100, 1030, [127] * 16 + [68]),
        (0, 5, [0])])
    def test_views_of_block_rows(self, n, d, lengths):
        # the row cut of a feature file; an empty dataset gives one empty
        # block, so that encoding it still checks its width
        ds = Dataset(np.zeros((n, d)), np.zeros(n, dtype=int), num_classes=1)
        blocks = list(ds.blocks())
        assert [b.shape for b in blocks] == [(rows, d) for rows in lengths]
        assert all(np.shares_memory(b, ds.features) or not b.size
                   for b in blocks)
        assert [b.shape for b in row_blocks(ds.features)] == \
            [b.shape for b in blocks]


class TestDatasetValidation:
    def test_label_range_checked(self):
        with pytest.raises(DataError, match=r"class index 5 outside \[0, 3\)"):
            Dataset(np.ones((2, 2)), np.array([0, 5]), num_classes=3)

    @pytest.mark.parametrize("labels", [[0, 3], [-1, 0], [0.0, 2.5], [0]],
                             ids=["above", "below", "non_integral", "short"])
    def test_same_message_as_objective(self, labels):
        # one check of class indices; the objective raises DimensionError
        with pytest.raises(DataError) as data_err:
            Dataset(np.ones((2, 2)), np.array(labels), num_classes=3)
        with pytest.raises(DimensionError) as loss_err:
            label_loss(np.full((2, 3), 1.0 / 3.0), np.array(labels))
        assert str(data_err.value) == str(loss_err.value)

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


# labels for two rows of C = 3 classes that class_indices refuses, with its
# message, and labels it accepts, with the class indices they give
_REFUSED_LABELS = [
    pytest.param(["1.5", "0"], "labels of dtype <U3 are not integer class indices",
                 id="float_strings"),
    pytest.param(["a", "0"], "labels of dtype <U1 are not integer class indices",
                 id="word"),
    pytest.param([1, None], "labels of dtype object are not integer class indices",
                 id="none"),
    pytest.param(["1", "2"], "labels of dtype <U1 are not integer class indices",
                 id="integer_strings"),
    pytest.param([b"1", b"0"], "labels of dtype |S1 are not integer class indices",
                 id="bytes"),
    pytest.param(np.array([2**63, 0], np.uint64),
                 f"class index {2**63} outside [0, 3)", id="uint64_wraps_int64"),
    pytest.param(np.array([0, 2**64 - 1], np.uint64),
                 f"class index {2**64 - 1} outside [0, 3)", id="uint64_max"),
    pytest.param(np.array([0, 3], np.uint32), "class index 3 outside [0, 3)",
                 id="uint32_above"),
    pytest.param([[0], [1, 2]],
                 "labels have a ragged shape, not one class index per row",
                 id="ragged"),
    pytest.param([2**63, 0], "class index 9.223372036854776e+18 outside [0, 3)",
                 id="float_beyond_int64"),
    pytest.param([0.0, -2.0**70], "class index -1.1805916207174113e+21 outside "
                 "[0, 3)", id="float_below_int64"),
]
_ACCEPTED_LABELS = [
    pytest.param(np.array([2, 0], np.uint32), [2, 0], id="uint32"),
    pytest.param(np.array([1, 2], np.uint64), [1, 2], id="uint64"),
    pytest.param(np.array([True, False]), [1, 0], id="bool"),
]


class TestOneLabelRule:
    """`class_indices` judges labels for every entry point, and each raises
    its own typed error with that one message."""

    @pytest.mark.parametrize("labels, message", _REFUSED_LABELS)
    def test_dataset_raises_data_error(self, labels, message):
        with pytest.raises(DataError) as err:
            Dataset(np.ones((2, 2)), labels, num_classes=3)
        assert str(err.value) == message

    @pytest.mark.parametrize("labels, message", _REFUSED_LABELS)
    def test_objective_raises_dimension_error(self, labels, message):
        params = init_params(2, 4, 3, seed=0)
        with pytest.raises(DimensionError) as err:
            loss_parts(np.ones((2, 2)), labels, params, Hyperparams())
        assert str(err.value) == message
        with pytest.raises(DimensionError) as err:
            label_loss(np.full((2, 3), 1.0 / 3.0), labels)
        assert str(err.value) == message

    @pytest.mark.parametrize("labels, message", _REFUSED_LABELS)
    def test_writer_raises_data_error_and_keeps_the_file(self, tmp_path, labels,
                                                         message):
        path = tmp_path / "labels.txt"
        path.write_bytes(b"old")
        with pytest.raises(DataError) as err:
            write_label_file(path, labels, 3)
        assert str(err.value) == f"{path}: {message}"
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["labels.txt"]

    @pytest.mark.parametrize("labels, indices", _ACCEPTED_LABELS)
    def test_every_entry_point_accepts(self, tmp_path, labels, indices):
        assert Dataset(np.ones((2, 2)), labels, 3).labels.tolist() == indices
        params, hyper = init_params(2, 4, 3, seed=0), Hyperparams()
        assert loss_parts(np.ones((2, 2)), labels, params, hyper) == \
            loss_parts(np.ones((2, 2)), np.array(indices), params, hyper)
        assert label_loss(np.full((2, 3), 1.0 / 3.0), labels) == \
            label_loss(np.full((2, 3), 1.0 / 3.0), np.array(indices))
        write_label_file(tmp_path / "labels.txt", labels, 3)
        assert read_label_file(tmp_path / "labels.txt")[0].tolist() == indices

    def test_int64_labels_are_not_copied(self):
        labels = np.array([2, 0, 1])
        assert class_indices(labels, 3, 3) is labels


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

    def test_declared_class_count_does_not_matter(self):
        # the split visits the classes present, in ascending order, so a
        # huge declared count neither costs time nor moves a row
        labels = np.repeat([0, 3, 4, 9], [5, 2, 7, 3])
        features = np.random.default_rng(8).normal(size=(len(labels), 3))
        got = train_test_split(Dataset(features, labels, 10**6), 0.3, seed=2)
        want = train_test_split(Dataset(features, labels, 10), 0.3, seed=2)
        for a, b in zip(got, want):
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.labels, b.labels)

    def test_fraction_bounds(self):
        ds = synth_dataset(2, 4, 3, separation=1.0, seed=6)
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                train_test_split(ds, bad, seed=0)

    def test_no_rows_rejected(self):
        ds = Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), num_classes=2)
        with pytest.raises(ValueError, match="cannot split a dataset with no rows"):
            train_test_split(ds, 0.2, seed=0)

    @staticmethod
    def reference_indices(labels, test_fraction, seed):
        # the split's row indices as a scan of every label per class found
        rng = np.random.default_rng(seed)
        train_idx, test_idx = [], []
        for c in np.unique(labels):
            members = np.flatnonzero(labels == c)
            perm = members[rng.permutation(members.size)]
            n_test = int(round(test_fraction * members.size))
            n_test = min(max(n_test, 1), members.size - 1)
            test_idx.append(perm[:n_test])
            train_idx.append(perm[n_test:])
        return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(test_idx))

    # classes absent from the labels, classes of one row and data of one
    # class, in any order of rows
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=40),
           st.sampled_from([0.1, 0.25, 0.5, 0.9]), st.integers(0, 2**32))
    def test_equals_scan_per_class(self, labels, test_fraction, seed):
        labels = np.array(labels)
        features = np.arange(len(labels), dtype=np.float64)[:, None]
        got = train_test_split(Dataset(features, labels, 10), test_fraction, seed)
        want = self.reference_indices(labels, test_fraction, seed)
        for part, idx in zip(got, want):
            assert np.array_equal(part.features[:, 0], idx)
            assert np.array_equal(part.labels, labels[idx])


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
