import csv
import io
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from jointhash.cli import _write_trace_csv, main
from jointhash.data import (
    BLOCK_ROWS,
    load_dataset,
    read_feature_file,
    save_dataset,
    synth_dataset,
    train_test_split,
    write_feature_file,
    write_label_file,
)
from jointhash.index import CodeTable, load_code_table, rank_all, save_code_table
from jointhash.model import ModelParams, pack_codes
from jointhash.objective import Hyperparams
from jointhash.train import (
    Checkpoint,
    EpochStats,
    TrainConfig,
    encode,
    encode_database,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Small synthetic train/query split written as feature/label files."""
    root = tmp_path_factory.mktemp("corpus")
    ds = synth_dataset(4, 30, 16, separation=3.0, seed=0)
    train_set, test_set = train_test_split(ds, 0.2, seed=0)
    save_dataset(train_set, root / "train")
    save_dataset(test_set, root / "query")
    return root


def run(*argv):
    return main([str(a) for a in argv])


def csv_writer_bytes(rows):
    """Reference: the rows as csv.writer writes them, CRLF line ends."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    return text.getvalue().encode()


# floats whose reprs are long, subnormal, in exponent form or signed zero
EDGE_FLOATS = [1e-300, 5e-324, 1e16, -0.0]


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = run("train", "--features", corpus / "train" / "features.feat",
               "--labels", corpus / "train" / "labels.txt",
               "--bits", "8", "--epochs", "30", "--seed", "1", "--out", out)
    assert code == 0
    code = run("encode", "--checkpoint", out / "checkpoint.bin",
               "--features", corpus / "train" / "features.feat",
               "--labels", corpus / "train" / "labels.txt",
               "--codes", out / "db.htbl")
    assert code == 0
    return out


class TestTrain:
    def test_outputs_exist(self, trained):
        assert (trained / "checkpoint.bin").exists()
        assert (trained / "trace.csv").exists()

    def test_trace_csv_shape(self, trained):
        with open(trained / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 30
        assert rows[0]["epoch"] == "1"
        assert float(rows[-1]["total"]) < float(rows[0]["total"])

    def test_trace_csv_bytes_match_csv_writer(self, tmp_path):
        nan, inf = float("nan"), float("inf")
        trace = [EpochStats(1, *EDGE_FLOATS[:3]),
                 EpochStats(2, EDGE_FLOATS[3], nan, -inf),
                 EpochStats(2**32 - 1, 0.1, 1.5, 3.0)]
        _write_trace_csv(trace, tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == csv_writer_bytes(
            [["epoch", "total", "similarity", "label"]]
            + [[row.epoch, repr(row.total), repr(row.similarity),
                repr(row.label)] for row in trace])

    def test_defaults_are_hyperparams_defaults(self, corpus, tmp_path):
        # no hyperparameter flag: the checkpoint of train(ds, Hyperparams())
        assert run("train", "--features", corpus / "train" / "features.feat",
                   "--labels", corpus / "train" / "labels.txt",
                   "--out", tmp_path) == 0
        hyper = Hyperparams()
        params, _ = train(load_dataset(corpus / "train" / "features.feat",
                                       corpus / "train" / "labels.txt"),
                          TrainConfig(hyper))
        save_checkpoint(Checkpoint(params, hyper, hyper.epochs),
                        tmp_path / "library.bin")
        assert (tmp_path / "checkpoint.bin").read_bytes() == \
               (tmp_path / "library.bin").read_bytes()

    def test_checkpoint_loadable(self, trained):
        cp = load_checkpoint(trained / "checkpoint.bin")
        assert cp.params.code_bits == 8
        assert cp.hyper.seed == 1

    def test_deterministic_reruns(self, corpus, tmp_path):
        args = ("--features", corpus / "train" / "features.feat",
                "--labels", corpus / "train" / "labels.txt",
                "--bits", "8", "--epochs", "5", "--seed", "3")
        assert run("train", *args, "--out", tmp_path / "a") == 0
        assert run("train", *args, "--out", tmp_path / "b") == 0
        assert (tmp_path / "a" / "checkpoint.bin").read_bytes() == \
               (tmp_path / "b" / "checkpoint.bin").read_bytes()


class TestEncode:
    def test_table_matches_dataset(self, corpus, trained):
        table = load_code_table(trained / "db.htbl")
        assert len(table) == 96  # 4 classes * 30 * 0.8
        assert table.code_bits == 8

    def test_peak_memory_never_holds_the_feature_matrix(self, tmp_path):
        # encode reads, hashes and drops one block of rows at a time, so the
        # traced peak stays well below the (N, D) float64 feature matrix
        n, d, k = 120_000, 64, 48
        write_feature_file(tmp_path / "db.feat",
                           np.random.default_rng(0).normal(size=(n, d)), width=32)
        write_label_file(tmp_path / "db.labels", np.arange(n) % 10, 10)
        save_checkpoint(Checkpoint(init_params(d, k, 10, seed=0),
                                   Hyperparams(code_bits=k), 0),
                        tmp_path / "cp.bin")
        tracemalloc.start()
        try:
            code = run("encode", "--checkpoint", tmp_path / "cp.bin",
                       "--features", tmp_path / "db.feat",
                       "--labels", tmp_path / "db.labels",
                       "--codes", tmp_path / "db.htbl")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 0.5 * n * d * 8


class TestStreamingEncode:
    """encode streams the feature file; its table and its errors are those of
    hashing the whole loaded dataset at once."""

    D, K, C = 3, 48, 3

    @pytest.fixture
    def files(self, tmp_path):
        n = 2 * BLOCK_ROWS + 3
        rng = np.random.default_rng(7)
        paths = SimpleNamespace(feat=tmp_path / "db.feat",
                                labels=tmp_path / "db.labels",
                                cp=tmp_path / "cp.bin", codes=tmp_path / "db.htbl",
                                n=n)
        write_feature_file(paths.feat, rng.normal(size=(n, self.D)), width=32)
        write_label_file(paths.labels, np.arange(n) % self.C, self.C)
        save_checkpoint(Checkpoint(init_params(self.D, self.K, self.C, seed=3),
                                   Hyperparams(code_bits=self.K), 0), paths.cp)
        return paths

    def encode(self, paths):
        return run("encode", "--checkpoint", paths.cp, "--features", paths.feat,
                   "--labels", paths.labels, "--codes", paths.codes)

    @pytest.mark.parametrize("width", [32, 64])
    @pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                   2 * BLOCK_ROWS + 3])
    def test_table_bytes_match_in_memory_encode(self, files, tmp_path, n, width):
        rng = np.random.default_rng([n, width])
        write_feature_file(files.feat, rng.normal(size=(n, self.D)), width=width)
        write_label_file(files.labels, rng.integers(0, self.C, n), self.C)
        assert self.encode(files) == 0
        params = load_checkpoint(files.cp).params
        save_code_table(encode_database(params, load_dataset(files.feat,
                                                             files.labels)),
                        tmp_path / "ref.htbl")
        assert files.codes.read_bytes() == (tmp_path / "ref.htbl").read_bytes()

    def assert_error_line(self, files, capsys, line):
        code = self.encode(files)
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [f"error: data: {line}"]
        assert not files.codes.exists()

    def test_truncated_header(self, files, capsys):
        files.feat.write_bytes(files.feat.read_bytes()[:10])
        self.assert_error_line(files, capsys, f"{files.feat}: truncated header "
                               "(10 bytes, need 16)")

    def test_bad_magic(self, files, capsys):
        files.feat.write_bytes(b"NOPE" + files.feat.read_bytes()[4:])
        self.assert_error_line(files, capsys,
                               f"{files.feat}: bad magic b'NOPE' at offset 0")

    def test_wrong_file_length(self, files, capsys):
        raw = files.feat.read_bytes()
        files.feat.write_bytes(raw[:-4])
        self.assert_error_line(files, capsys, f"{files.feat}: file length "
                               f"{len(raw) - 4} does not match header "
                               f"(expected {len(raw)} bytes)")

    @pytest.mark.parametrize("width", [32, 64])
    def test_nan_in_second_block(self, files, capsys, width):
        write_feature_file(files.feat, np.ones((files.n, self.D)), width=width)
        raw = bytearray(files.feat.read_bytes())
        element = (BLOCK_ROWS + 2) * self.D + 1
        offset = 16 + element * width // 8
        value = np.array([np.nan], "<f4" if width == 32 else "<f8").tobytes()
        raw[offset:offset + len(value)] = value
        files.feat.write_bytes(bytes(raw))
        self.assert_error_line(files, capsys, f"{files.feat}: non-finite value "
                               f"at element {element} (offset {offset})")

    def test_label_count_differs(self, files, capsys):
        write_label_file(files.labels, np.arange(files.n - 1) % self.C, self.C)
        self.assert_error_line(files, capsys, f"{files.feat} holds {files.n} "
                               f"rows but {files.labels} holds {files.n - 1} "
                               "labels")

    def test_label_out_of_range(self, files, capsys):
        lines = files.labels.read_bytes().splitlines()
        lines[5] = b"7"
        files.labels.write_bytes(b"\n".join(lines) + b"\n")
        self.assert_error_line(files, capsys, f"{files.labels}:6: label 7 out "
                               f"of range for classes={self.C}")

    def test_labels_not_utf8(self, files, capsys):
        raw = files.labels.read_bytes()
        files.labels.write_bytes(raw[:20] + b"\xff" + raw[21:])
        self.assert_error_line(files, capsys,
                               f"{files.labels}: not UTF-8 text at offset 20")

    def test_width_differs_from_checkpoint(self, files, capsys):
        write_feature_file(files.feat, np.ones((files.n, self.D + 1)))
        self.assert_error_line(files, capsys, f"feature dimension {self.D + 1} "
                               f"does not match checkpoint ({self.D})")


def full_ranking_rows(codes, table, topk, radius):
    """Oracle: query's CSV rows from each query's own full ranking."""
    expected = io.StringIO()
    writer = csv.writer(expected)
    for q in range(len(codes)):
        full = rank_all(codes[q], table)
        for rank in range(topk):
            if radius is not None and full.distances[rank] > radius:
                break
            writer.writerow([rank + 1, full.ids[rank], full.distances[rank],
                             full.labels[rank], full.predicted[rank]])
    return expected.getvalue()


class TestQuery:
    def test_exact_row_contract(self, corpus, trained, capsys):
        code = run("query", "--checkpoint", trained / "checkpoint.bin",
                   "--codes", trained / "db.htbl",
                   "--features", corpus / "query" / "features.feat",
                   "--topk", "10")
        assert code == 0
        rows = [line.split(",") for line in
                capsys.readouterr().out.strip().splitlines()]
        assert len(rows) == 10 * 24  # topk rows per query
        first = rows[:10]
        assert [r[0] for r in first] == [str(i) for i in range(1, 11)]
        for r in first:
            assert len(r) == 5  # rank, id, distance, TL, PL
            assert int(r[2]) >= 0

    def test_distances_non_decreasing(self, corpus, trained, capsys):
        run("query", "--checkpoint", trained / "checkpoint.bin",
            "--codes", trained / "db.htbl",
            "--features", corpus / "query" / "features.feat", "--topk", "5")
        out = capsys.readouterr().out.strip().splitlines()
        for q in range(0, len(out), 5):
            dists = [int(line.split(",")[2]) for line in out[q:q + 5]]
            assert dists == sorted(dists)

    def test_radius_filters_rows(self, corpus, trained, capsys):
        run("query", "--checkpoint", trained / "checkpoint.bin",
            "--codes", trained / "db.htbl",
            "--features", corpus / "query" / "features.feat",
            "--topk", "20", "--radius", "0")
        out = capsys.readouterr().out.strip()
        lines = out.splitlines() if out else []
        assert all(int(line.split(",")[2]) == 0 for line in lines)

    @pytest.mark.parametrize("bits", [16, 70])
    def test_rows_match_full_ranking(self, corpus, tmp_path, capsys, bits):
        assert run("train", "--features", corpus / "train" / "features.feat",
                   "--labels", corpus / "train" / "labels.txt", "--bits", bits,
                   "--epochs", "5", "--seed", "2", "--out", tmp_path) == 0
        assert run("encode", "--checkpoint", tmp_path / "checkpoint.bin",
                   "--features", corpus / "train" / "features.feat",
                   "--labels", corpus / "train" / "labels.txt",
                   "--codes", tmp_path / "db.htbl") == 0
        capsys.readouterr()
        table = load_code_table(tmp_path / "db.htbl")
        codes, _ = encode(load_checkpoint(tmp_path / "checkpoint.bin").params,
                          read_feature_file(corpus / "query" / "features.feat"))
        for topk, radius in ((7, None), (30, None), (96, None), (30, bits // 4)):
            argv = ["query", "--checkpoint", tmp_path / "checkpoint.bin",
                    "--codes", tmp_path / "db.htbl",
                    "--features", corpus / "query" / "features.feat",
                    "--topk", topk]
            if radius is not None:
                argv += ["--radius", radius]
            assert run(*argv) == 0
            assert capsys.readouterr().out == full_ranking_rows(
                codes, table, topk, radius)

    @pytest.mark.parametrize("with_radius", [False, True])
    def test_repeated_codes_ranked_once(self, corpus, trained, tmp_path,
                                        capsys, monkeypatch, with_radius):
        # duplicated feature rows give equal codes, interleaved in query order
        features = read_feature_file(corpus / "query" / "features.feat")
        features = features[[0, 1, 0, 2, 1, 0, *range(len(features)), 2]]
        write_feature_file(tmp_path / "repeated.feat", features, width=64)
        table = load_code_table(trained / "db.htbl")
        codes, _ = encode(load_checkpoint(trained / "checkpoint.bin").params,
                          features)
        radius = None
        if with_radius:
            # a distance that rows in the first query's top 12 reach exactly
            radius = int(rank_all(codes[0], table).distances[5])
        expected = full_ranking_rows(codes, table, 12, radius)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return rank_all(*args, **kwargs)

        monkeypatch.setattr("jointhash.cli.rank_all", counted)
        argv = ["query", "--checkpoint", trained / "checkpoint.bin",
                "--codes", trained / "db.htbl",
                "--features", tmp_path / "repeated.feat", "--topk", 12]
        if radius is not None:
            argv += ["--radius", radius]
        assert run(*argv) == 0
        assert capsys.readouterr().out == expected
        assert len(calls) == len(np.unique(codes, axis=0)) < len(codes)

    def test_zero_query_rows_print_nothing(self, trained, tmp_path, capsys,
                                           monkeypatch):
        write_feature_file(tmp_path / "none.feat", np.empty((0, 16)))
        monkeypatch.setattr("jointhash.cli.rank_all", None)  # never called
        assert run("query", "--checkpoint", trained / "checkpoint.bin",
                   "--codes", trained / "db.htbl",
                   "--features", tmp_path / "none.feat") == 0
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("radius", [None, 0])
    def test_u32_ids_match_csv_writer(self, tmp_path, capsys, radius):
        # a code is all +1 or all -1 by the sign of feature 0, and no table
        # row is all -1: those queries show no row within radius 0
        bits, n = 8, 20
        params = ModelParams(np.tile([1.0, 0.0], (bits, 1)), np.zeros(bits),
                             np.ones((2, bits)), np.zeros(2))
        save_checkpoint(Checkpoint(params, Hyperparams(code_bits=bits), 1),
                        tmp_path / "checkpoint.bin")
        rng = np.random.default_rng(0)
        signs = np.where(rng.random((n, bits)) > 0.5, 1, -1)
        signs[::3] = 1
        u32 = 2**32 - 1
        table = CodeTable(codes=pack_codes(signs), ids=u32 - 7 * np.arange(n),
                          labels=rng.integers(u32 - 2, u32, n, endpoint=True),
                          predicted=rng.integers(0, u32, n, endpoint=True),
                          code_bits=bits)
        save_code_table(table, tmp_path / "db.htbl")
        features = np.array([[1.0, 0.0], [-1.0, 0.0], [-2.0, 1.0], [3.0, 0.0]])
        write_feature_file(tmp_path / "q.feat", features)
        codes, _ = encode(params, features)
        expected = full_ranking_rows(codes, table, n, radius).encode()
        argv = ["query", "--checkpoint", tmp_path / "checkpoint.bin",
                "--codes", tmp_path / "db.htbl",
                "--features", tmp_path / "q.feat", "--topk", n]
        if radius is not None:
            argv += ["--radius", radius]
        assert run(*argv) == 0
        assert capsys.readouterr().out.encode() == expected
        assert str(u32).encode() in expected
        if radius == 0:
            assert expected.count(b"\r\n") == 2 * np.all(signs > 0, axis=1).sum()

    def test_topk_out_of_range_is_config_error(self, corpus, trained):
        code = run("query", "--checkpoint", trained / "checkpoint.bin",
                   "--codes", trained / "db.htbl",
                   "--features", corpus / "query" / "features.feat",
                   "--topk", "1000000")
        assert code == 2


class TestEval:
    def test_report_files(self, corpus, trained, tmp_path, capsys):
        code = run("eval", "--checkpoint", trained / "checkpoint.bin",
                   "--codes", trained / "db.htbl",
                   "--features", corpus / "query" / "features.feat",
                   "--labels", corpus / "query" / "labels.txt",
                   "--database", "train", "--out", tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert 0.0 <= doc["map"] <= 1.0
        assert 0.0 <= doc["oa"] <= 1.0
        assert (tmp_path / "curve_topk.csv").exists()
        assert (tmp_path / "curve_radius.csv").exists()
        with open(tmp_path / "curve_radius.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9  # radius 0..8

    def test_hand_built_five_item_table(self, tmp_path):
        # u = f (identity hash layer), database codes and labels fixed by
        # hand; query (0.5, 0.5) binarizes to (1,1) giving distances
        # 0,0,1,2,2 and relevance flags 1,0,1,1,0 for label 0
        from jointhash.index import save_code_table, CodeTable
        from jointhash.model import ModelParams, pack_codes
        from jointhash.objective import Hyperparams
        from jointhash.train import Checkpoint, save_checkpoint
        from jointhash.data import write_feature_file, write_label_file

        params = ModelParams(np.eye(2), np.zeros(2), np.zeros((2, 2)),
                             np.zeros(2))
        save_checkpoint(Checkpoint(params, Hyperparams(code_bits=2), 0),
                        tmp_path / "cp.bin")
        signs = np.array([[1, 1], [1, 1], [1, -1], [-1, -1], [-1, -1]])
        table = CodeTable(np.atleast_2d(pack_codes(signs)), np.arange(5),
                          np.array([0, 1, 0, 0, 1]),
                          np.array([0, 1, 0, 0, 1]), code_bits=2)
        save_code_table(table, tmp_path / "db.htbl")
        write_feature_file(tmp_path / "q.feat", np.array([[0.5, 0.5]]))
        write_label_file(tmp_path / "q.txt", [0], num_classes=2)
        assert run("eval", "--checkpoint", tmp_path / "cp.bin",
                   "--codes", tmp_path / "db.htbl",
                   "--features", tmp_path / "q.feat",
                   "--labels", tmp_path / "q.txt",
                   "--out", tmp_path / "report") == 0
        doc = json.loads((tmp_path / "report" / "report.json").read_text())
        assert doc["map"] == pytest.approx((1 + 2 / 3 + 3 / 4) / 3, abs=1e-12)
        want_p = {"1": 1.0, "2": 0.5, "3": 2 / 3, "4": 0.75, "5": 0.6}
        want_r = {"1": 1 / 3, "2": 1 / 3, "3": 2 / 3, "4": 1.0, "5": 1.0}
        for k, v in want_p.items():
            assert doc["precision_at"][k] == pytest.approx(v, abs=1e-12)
        for k, v in want_r.items():
            assert doc["recall_at"][k] == pytest.approx(v, abs=1e-12)

    def test_database_all_mode(self, corpus, trained, tmp_path):
        code = run("eval", "--checkpoint", trained / "checkpoint.bin",
                   "--codes", trained / "db.htbl",
                   "--features", corpus / "query" / "features.feat",
                   "--labels", corpus / "query" / "labels.txt",
                   "--database", "all", "--out", tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        # database extension: 96 train + 24 queries, minus the query itself
        assert doc["precision_at"].get("119") is not None


class TestCorruptInputs:
    """A corrupt input file is a data error naming the file: exit 3."""

    def run_eval(self, corpus, trained, tmp_path, **files):
        paths = {"checkpoint": trained / "checkpoint.bin",
                 "codes": trained / "db.htbl",
                 "features": corpus / "query" / "features.feat",
                 "labels": corpus / "query" / "labels.txt", **files}
        argv = [arg for key, path in paths.items() for arg in (f"--{key}", path)]
        return run("eval", *argv, "--out", tmp_path / "out")

    def assert_data_error(self, code, capsys, path):
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: data:") and str(path) in err

    def test_code_table_pad_bits_set(self, corpus, trained, tmp_path, capsys):
        raw = bytearray((trained / "db.htbl").read_bytes())
        raw[14 + 1] |= 0x80  # after the 14-byte header: bit 15 of an 8-bit code
        bad = tmp_path / "pad.htbl"
        bad.write_bytes(bytes(raw))
        code = self.run_eval(corpus, trained, tmp_path, codes=bad)
        self.assert_data_error(code, capsys, bad)

    def test_checkpoint_eta_out_of_range(self, corpus, trained, tmp_path,
                                         capsys):
        raw = bytearray((trained / "checkpoint.bin").read_bytes())
        # eta is the first f64 of the 40-byte hyperparameter block, which the
        # u32 epoch follows
        struct.pack_into("<d", raw, len(raw) - 44, 2.0)
        bad = tmp_path / "eta.bin"
        bad.write_bytes(bytes(raw))
        code = self.run_eval(corpus, trained, tmp_path, checkpoint=bad)
        self.assert_data_error(code, capsys, bad)

    def test_checkpoint_lr_not_finite(self, corpus, trained, tmp_path, capsys):
        raw = bytearray((trained / "checkpoint.bin").read_bytes())
        # lr is the third f64 of the hyperparameter block
        struct.pack_into("<d", raw, len(raw) - 44 + 16, float("nan"))
        bad = tmp_path / "lr.bin"
        bad.write_bytes(bytes(raw))
        code = self.run_eval(corpus, trained, tmp_path, checkpoint=bad)
        self.assert_data_error(code, capsys, bad)

    def test_code_table_truncated_header(self, corpus, trained, tmp_path,
                                         capsys):
        bad = tmp_path / "short.htbl"
        bad.write_bytes((trained / "db.htbl").read_bytes()[:10])
        code = run("query", "--checkpoint", trained / "checkpoint.bin",
                   "--codes", bad, "--features",
                   corpus / "query" / "features.feat")
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: data: {bad}: truncated header (10 bytes, need 14)"]

    def test_checkpoint_bad_version(self, corpus, trained, tmp_path, capsys):
        raw = bytearray((trained / "checkpoint.bin").read_bytes())
        raw[4] = 99  # the low byte of the u16 version
        bad = tmp_path / "version.bin"
        bad.write_bytes(bytes(raw))
        code = self.run_eval(corpus, trained, tmp_path, checkpoint=bad)
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: data: {bad}: unsupported checkpoint version 99"]

    def test_label_file_not_utf8(self, corpus, trained, tmp_path, capsys):
        lines = (corpus / "query" / "labels.txt").read_bytes().splitlines()
        lines[2] = b"\xff"
        bad = tmp_path / "labels.txt"
        bad.write_bytes(b"\n".join(lines) + b"\n")
        code = self.run_eval(corpus, trained, tmp_path, labels=bad)
        self.assert_data_error(code, capsys, bad)

    @pytest.mark.parametrize("command", ["encode", "query", "eval"])
    def test_checkpoint_without_classes(self, corpus, trained, tmp_path, capsys,
                                        command):
        # a consistent DHCN file with C = 0: header, K*D + K weights, the
        # hyperparameter block and the epoch
        d, k = 16, 8
        bad = tmp_path / "c0.bin"
        bad.write_bytes(struct.pack("<4sHIII", b"DHCN", 1, d, k, 0)
                        + np.zeros(k * d + k).tobytes()
                        + struct.pack("<dddIIQI", 0.2, 25.0, 3e-4, 32, 1, 0, 1))
        argv = {"encode": ("--labels", corpus / "query" / "labels.txt",
                           "--codes", tmp_path / "db.htbl"),
                "query": ("--codes", trained / "db.htbl"),
                "eval": ("--codes", trained / "db.htbl", "--labels",
                         corpus / "query" / "labels.txt", "--out", tmp_path)}
        code = run(command, "--checkpoint", bad, "--features",
                   corpus / "query" / "features.feat", *argv[command])
        [line] = capsys.readouterr().err.splitlines()
        assert code == 3
        assert line == f"error: data: {bad}: classifier has no classes"

    @pytest.fixture
    def empty_table(self, tmp_path):
        path = tmp_path / "empty.htbl"
        save_code_table(CodeTable(np.zeros((0, 1), np.uint64), [], [], [],
                                  code_bits=8), path)
        return path

    @pytest.mark.parametrize("command", ["query", "eval"])
    def test_empty_code_table(self, corpus, trained, tmp_path, capsys,
                              empty_table, command):
        argv = ("--labels", corpus / "query" / "labels.txt", "--database",
                "train", "--out", tmp_path / "out") if command == "eval" else ()
        code = run(command, "--checkpoint", trained / "checkpoint.bin",
                   "--codes", empty_table,
                   "--features", corpus / "query" / "features.feat", *argv)
        [line] = capsys.readouterr().err.splitlines()
        assert code == 3
        assert line == f"error: data: {empty_table}: code table holds no items"

    def test_empty_code_table_all_mode(self, corpus, trained, tmp_path,
                                       empty_table):
        # the queries alone form the database, each left out of its own list
        assert run("eval", "--checkpoint", trained / "checkpoint.bin",
                   "--codes", empty_table,
                   "--features", corpus / "query" / "features.feat",
                   "--labels", corpus / "query" / "labels.txt",
                   "--database", "all", "--out", tmp_path) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["num_queries"] == 24
        assert doc["precision_at"].get("23") is not None
        assert doc["precision_at"].get("24") is None

    @pytest.mark.parametrize("label", [b"5000000000", b"99999999999999999999"])
    def test_label_above_u32_one_line(self, corpus, trained, tmp_path, capsys,
                                      label):
        # code tables store labels as u32: the label file is rejected before
        # anything is hashed or written. With no classes= header, no class
        # count bounds the label.
        lines = (corpus / "train" / "labels.txt").read_bytes().splitlines()
        assert lines[0].startswith(b"classes=")
        lines = lines[1:]
        lines[3] = label
        bad = tmp_path / "labels.txt"
        bad.write_bytes(b"\n".join(lines) + b"\n")
        code = run("encode", "--checkpoint", trained / "checkpoint.bin",
                   "--features", corpus / "train" / "features.feat",
                   "--labels", bad, "--codes", tmp_path / "db.htbl")
        err = capsys.readouterr().err
        assert code == 3
        [line] = err.splitlines()
        assert line.startswith(f"error: data: {bad}:4: label ")
        assert not (tmp_path / "db.htbl").exists()


_QUERY = ("query", "--checkpoint", "{cp}", "--codes", "{codes}",
          "--features", "{feat}")
_EVAL = ("eval", "--checkpoint", "{cp}", "--codes", "{codes}",
         "--features", "{feat}", "--labels", "{labels}", "--out", "{out}")
_SWEEP = ("sweep", "--features", "{train_feat}", "--labels", "{train_labels}",
          "--epochs", "1", "--out", "{out}")
_CODE_WIDTH = "data: code table holds 16-bit codes but checkpoint emits 8"
_FEATURE_WIDTH = "data: query feature dimension 17 does not match checkpoint (16)"
_SEED_RANGE = "config: seed must fit in an unsigned 64-bit integer"


class TestErrorLines:
    """Each single fault gives its exit code and exactly one stderr line."""

    @pytest.fixture
    def files(self, corpus, trained, tmp_path):
        write_feature_file(tmp_path / "wide.feat", np.ones((3, 17)))
        write_label_file(tmp_path / "wide.txt", [0, 1, 2], 4)
        save_code_table(CodeTable(np.zeros((2, 1), np.uint64), np.arange(2),
                                  np.zeros(2), np.zeros(2), code_bits=16),
                        tmp_path / "wide.htbl")
        (tmp_path / "both.cfg").write_text("database=both\n")
        return {"cp": trained / "checkpoint.bin", "codes": trained / "db.htbl",
                "feat": corpus / "query" / "features.feat",
                "labels": corpus / "query" / "labels.txt",
                "train_feat": corpus / "train" / "features.feat",
                "train_labels": corpus / "train" / "labels.txt",
                "wide_feat": tmp_path / "wide.feat",
                "wide_labels": tmp_path / "wide.txt",
                "wide_codes": tmp_path / "wide.htbl",
                "cfg": tmp_path / "both.cfg", "out": tmp_path / "out"}

    @pytest.mark.parametrize("argv, code, line", [
        pytest.param(("train", "--features", "{train_feat}", "--labels",
                      "{train_labels}", "--bits", "x", "--out", "{out}"), 2,
                     "config: --bits expects a positive integer, got 'x'",
                     id="bits"),
        pytest.param((*_QUERY, "--topk", "x"), 2,
                     "config: --topk expects a positive integer, got 'x'",
                     id="topk"),
        pytest.param(("gradcheck", "--seed", "x"), 2,
                     "config: --seed expects a nonnegative integer, got 'x'",
                     id="gradcheck-seed"),
        pytest.param(("train", "--features", "{train_feat}", "--labels",
                      "{train_labels}", "--seed", "-1", "--out", "{out}"), 2,
                     _SEED_RANGE, id="train-seed-negative"),
        pytest.param(("gradcheck", "--seed", "-1"), 2, _SEED_RANGE,
                     id="gradcheck-seed-negative"),
        pytest.param(("gradcheck", "--seed", str(2**64)), 2, _SEED_RANGE,
                     id="gradcheck-seed-2**64"),
        pytest.param((*_SWEEP, "--seed", "-1"), 2, _SEED_RANGE,
                     id="sweep-seed-negative"),
        pytest.param((*_SWEEP, "--eta", "a,b"), 2,
                     "config: --eta expects comma-separated reals, got 'a,b'",
                     id="sweep-eta"),
        pytest.param((*_SWEEP, "--bits", ","), 2,
                     "config: sweep grids must be nonempty", id="sweep-bits"),
        pytest.param((*_EVAL, "--config", "{cfg}"), 2,
                     "config: --database must be 'train' or 'all', got 'both'",
                     id="config-database"),
        pytest.param((*_QUERY, "--radius", "9"), 2,
                     "config: --radius must lie in [0, 8], got 9", id="radius"),
        pytest.param((*_QUERY, "--codes", "{wide_codes}"), 3, _CODE_WIDTH,
                     id="query-code-width"),
        pytest.param((*_EVAL, "--codes", "{wide_codes}"), 3, _CODE_WIDTH,
                     id="eval-code-width"),
        pytest.param((*_QUERY, "--features", "{wide_feat}"), 3, _FEATURE_WIDTH,
                     id="query-feature-width"),
        pytest.param((*_EVAL, "--features", "{wide_feat}", "--labels",
                      "{wide_labels}"), 3, _FEATURE_WIDTH,
                     id="eval-feature-width"),
    ])
    def test_exit_code_and_line(self, files, capsys, argv, code, line):
        assert run(*(arg.format(**files) for arg in argv)) == code
        assert capsys.readouterr().err.splitlines() == [f"error: {line}"]


class TestGradcheck:
    def test_passes_on_default_seed(self, capsys):
        assert run("gradcheck") == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        worst = float(out.strip().splitlines()[-1].split()[4])
        assert worst < 1e-4

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_error_fails(self, bad, capsys, monkeypatch):
        import jointhash.cli as cli
        from jointhash.objective import GradCheckResult

        errors = {"hash_weights": 1e-9, "cls_bias": bad}
        monkeypatch.setattr(cli, "gradient_check_suite", lambda seed: [
            GradCheckResult(0, Hyperparams(), {"hash_weights": 1e-9}),
            GradCheckResult(1, Hyperparams(), errors)])
        assert run("gradcheck") == 4
        out = capsys.readouterr().out.splitlines()
        assert out[1].endswith(f"worst {bad:.3e} (cls_bias)")
        assert out[-1].startswith(f"FAIL: worst relative error {bad:.3e}")


class TestSweep:
    def test_csv_grid(self, corpus, tmp_path):
        code = run("sweep", "--features", corpus / "train" / "features.feat",
                   "--labels", corpus / "train" / "labels.txt",
                   "--bits", "4,8", "--eta", "0.2", "--beta", "25",
                   "--epochs", "10", "--seed", "0", "--out", tmp_path)
        assert code == 0
        with open(tmp_path / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["bits"] for r in rows] == ["4", "8"]
        for r in rows:
            assert 0.0 <= float(r["map"]) <= 1.0
            assert 0.0 <= float(r["oa"]) <= 1.0

    def test_csv_bytes_match_csv_writer(self, corpus, tmp_path, monkeypatch):
        etas, betas = EDGE_FLOATS[:2] + EDGE_FLOATS[3:], [1e16, 0.0]
        scores = [*EDGE_FLOATS, 0.9999995, 1.0, 0.5, 0.1234565, 1 / 3, 2 / 3,
                  0.0, 1e-7]
        reports = iter(SimpleNamespace(map=m, oa=o)
                       for m, o in zip(scores[::2], scores[1::2]))
        monkeypatch.setattr("jointhash.cli.evaluate",
                            lambda *args, **kwargs: next(reports))
        assert run("sweep", "--features", corpus / "train" / "features.feat",
                   "--labels", corpus / "train" / "labels.txt", "--bits", "4",
                   "--eta", ",".join(map(repr, etas)),
                   "--beta", ",".join(map(repr, betas)),
                   "--epochs", "1", "--out", tmp_path) == 0
        grid = [(4, eta, beta) for eta in etas for beta in betas]
        assert (tmp_path / "sweep.csv").read_bytes() == csv_writer_bytes(
            [["bits", "eta", "beta", "map", "oa"]]
            + [[*point, f"{m:.6f}", f"{o:.6f}"] for point, m, o
               in zip(grid, scores[::2], scores[1::2])])

    @pytest.mark.parametrize("flag, grid, line", [
        pytest.param("--bits", "8,0", "code_bits must be >= 1, got 0",
                     id="bits"),
        pytest.param("--eta", "0.2,1.5", "eta must lie in [0, 1], got 1.5",
                     id="eta"),
        pytest.param("--beta", "25,-1",
                     "beta must be finite and >= 0, got -1.0", id="beta"),
    ])
    def test_bad_grid_point_refused_before_training(self, corpus, tmp_path,
                                                    capsys, monkeypatch, flag,
                                                    grid, line):
        # the bad point comes last: no earlier point trains or prints
        monkeypatch.setattr("jointhash.cli.train", None)  # never called
        assert run("sweep", "--features", corpus / "train" / "features.feat",
                   "--labels", corpus / "train" / "labels.txt", flag, grid,
                   "--epochs", "1", "--out", tmp_path / "out") == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: config: {line}"]
        assert captured.out == ""
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_empty_held_out_split_is_data_error(self, tmp_path, capsys):
        # one row per class leaves no row to hold out
        write_feature_file(tmp_path / "f.feat",
                           np.random.default_rng(0).normal(size=(3, 4)))
        write_label_file(tmp_path / "l.txt", [0, 1, 2], 3)
        assert run("sweep", "--features", tmp_path / "f.feat", "--labels",
                   tmp_path / "l.txt", "--bits", "8", "--epochs", "1",
                   "--out", tmp_path / "out") == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: data: {tmp_path / 'l.txt'}: every class has one row, so "
            "the held-out split is empty"]
        assert not (tmp_path / "out" / "sweep.csv").exists()


class TestConfigHandling:
    def test_config_file_supplies_options(self, corpus, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"features={corpus / 'train' / 'features.feat'}\n"
            f"labels={corpus / 'train' / 'labels.txt'}\n"
            "bits=4\nepochs=3\n"
            f"out={tmp_path / 'from_cfg'}\n"
        )
        assert run("train", "--config", cfg) == 0
        cp = load_checkpoint(tmp_path / "from_cfg" / "checkpoint.bin")
        assert cp.params.code_bits == 4

    def test_flags_override_config(self, corpus, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"features={corpus / 'train' / 'features.feat'}\n"
            f"labels={corpus / 'train' / 'labels.txt'}\n"
            "bits=4\nepochs=3\n"
            f"out={tmp_path / 'cfg_out'}\n"
        )
        assert run("train", "--config", cfg, "--bits", "8",
                   "--out", tmp_path / "flag_out") == 0
        cp = load_checkpoint(tmp_path / "flag_out" / "checkpoint.bin")
        assert cp.params.code_bits == 8

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wibble=1\n")
        assert run("train", "--config", cfg) == 2
        assert "error: config:" in capsys.readouterr().err

    def test_config_not_utf8_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"bits=8\nout=caf\xe9\n")
        assert run("train", "--config", cfg) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == f"error: config: {cfg}: not UTF-8 text at offset 14"

    def test_missing_required_named(self, capsys):
        assert run("train") == 2
        err = capsys.readouterr().err
        assert "--features" in err and "--labels" in err and "--out" in err

    def test_missing_file_exit_3(self, tmp_path, capsys):
        assert run("train", "--features", tmp_path / "none.feat",
                   "--labels", tmp_path / "none.txt",
                   "--out", tmp_path) == 3
        assert "error: data:" in capsys.readouterr().err

    def test_bad_numeric_flag_exit_2(self, corpus, tmp_path, capsys):
        assert run("train", "--features", corpus / "train" / "features.feat",
                   "--labels", corpus / "train" / "labels.txt",
                   "--eta", "2.0", "--out", tmp_path) == 2
        assert "eta" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, field", [("bits", "code_bits"),
                                             ("batch", "batch_size"),
                                             ("epochs", "epochs")])
    def test_u32_checkpoint_field_exit_2(self, corpus, tmp_path, capsys, flag,
                                         field):
        # the checkpoint stores these as u32: rejected before training
        assert run("train", "--features", corpus / "train" / "features.feat",
                   "--labels", corpus / "train" / "labels.txt",
                   f"--{flag}", "5000000000", "--out", tmp_path) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == (f"error: config: {field} must be <= 4294967295, "
                        "got 5000000000")
        assert not (tmp_path / "checkpoint.bin").exists()

    @pytest.mark.parametrize("flag, value", [("lr", "nan"), ("lr", "inf"),
                                             ("beta", "nan"), ("beta", "inf")])
    def test_non_finite_hyperparameter_exit_2(self, corpus, tmp_path, capsys,
                                              flag, value):
        assert run("train", "--features", corpus / "train" / "features.feat",
                   "--labels", corpus / "train" / "labels.txt",
                   f"--{flag}", value, "--out", tmp_path) == 2
        assert "error: config:" in capsys.readouterr().err

    def test_divergence_exit_4(self, corpus, tmp_path, capsys):
        assert run("train", "--features", corpus / "train" / "features.feat",
                   "--labels", corpus / "train" / "labels.txt",
                   "--lr", "1000", "--epochs", "3",
                   "--out", tmp_path) == 4
        assert "error: numeric:" in capsys.readouterr().err

    def test_overflowing_step_one_stderr_line(self, tmp_path):
        # the step of batch 0 overflows; a fresh interpreter shows that no
        # numpy warning reaches stderr beside the error line
        synth_dataset(2, 32, 16, separation=3.0, seed=0, out_dir=tmp_path / "ds")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "jointhash", "train",
             "--features", str(tmp_path / "ds" / "features.feat"),
             "--labels", str(tmp_path / "ds" / "labels.txt"),
             "--lr", "1e308", "--bits", "8", "--batch", "16",
             "--out", str(tmp_path / "run")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 4
        [line] = proc.stderr.splitlines()
        head, loss = line.split("J=")
        assert head == "error: numeric: loss diverged at epoch 1, batch 0: "
        assert np.isfinite(float(loss))
