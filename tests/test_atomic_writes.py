"""Every output file is written to a temporary file and renamed over its target,
so a write that fails partway leaves the old file whole and no debris."""

import builtins
import errno
import os

import pytest

from jointhash import _files, cli
from jointhash._files import atomic_open
from jointhash.data import synth_dataset
from jointhash.index import save_code_table
from jointhash.metrics import evaluate, write_curve_csvs, write_report_json
from jointhash.objective import Hyperparams
from jointhash.train import (
    Checkpoint,
    EpochStats,
    encode_database,
    init_params,
    save_checkpoint,
)

OLD = b"old contents\n"


class _DiskFills:
    """A file that stores half of its first write, then fails as a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.fixture
def disk_fills(monkeypatch):
    monkeypatch.setattr(_files, "open",
                        lambda *a, **kw: _DiskFills(builtins.open(*a, **kw)),
                        raising=False)


def _report_and_table():
    ds = synth_dataset(3, 6, 4, 3.0, seed=0)
    table = encode_database(init_params(4, 8, 3, seed=0), ds)
    return evaluate(table, table.codes, ds.labels), table


def _sweep(out):
    """Exit code of a one-point sweep into out; its inputs go to out/data."""
    synth_dataset(3, 10, 4, 3.0, seed=0, out_dir=out / "data")
    return cli.main(["sweep", "--features", str(out / "data" / "features.feat"),
                     "--labels", str(out / "data" / "labels.txt"),
                     "--bits", "4", "--eta", "0.2", "--beta", "25",
                     "--epochs", "1", "--out", str(out)])


# writer name -> (files it writes, call that writes them into a directory)
WRITERS = {
    "save_checkpoint": (["checkpoint.bin"], lambda out: save_checkpoint(
        Checkpoint(init_params(4, 8, 3, seed=0), Hyperparams(code_bits=8), 1),
        out / "checkpoint.bin")),
    "save_code_table": (["codes.htbl"], lambda out: save_code_table(
        _report_and_table()[1], out / "codes.htbl")),
    "write_report_json": (["report.json"], lambda out: write_report_json(
        _report_and_table()[0], out / "report.json")),
    "write_curve_csvs": (["curve_topk.csv", "curve_radius.csv"],
                         lambda out: write_curve_csvs(_report_and_table()[0], out)),
    "trace_csv": (["trace.csv"], lambda out: cli._write_trace_csv(
        [EpochStats(1, 1.5, 1.0, 0.5)], out / "trace.csv")),
    "sweep_csv": (["sweep.csv"], _sweep),
}


@pytest.mark.parametrize("writer", list(WRITERS))
def test_failed_write_keeps_old_file(writer, tmp_path, disk_fills):
    names, write = WRITERS[writer]
    for name in names:
        (tmp_path / name).write_bytes(OLD)
    before = sorted(os.listdir(tmp_path))
    if writer == "sweep_csv":
        assert write(tmp_path) == 3  # the CLI's exit code for an OSError
    else:
        with pytest.raises(OSError, match="No space left"):
            write(tmp_path)
    for name in names:
        assert (tmp_path / name).read_bytes() == OLD
    after = sorted(p for p in os.listdir(tmp_path) if p != "data")
    assert after == before


@pytest.mark.parametrize("writer", list(WRITERS))
def test_write_replaces_old_file(writer, tmp_path):
    names, write = WRITERS[writer]
    for name in names:
        (tmp_path / name).write_bytes(OLD)
    assert write(tmp_path) in (None, 0)
    for name in names:
        assert (tmp_path / name).read_bytes() != OLD
    assert sorted(p for p in os.listdir(tmp_path) if p != "data") == sorted(names)


class TestAtomicOpen:
    @pytest.mark.parametrize("mode, data", [("w", "new"), ("wb", b"new")])
    def test_exception_keeps_old_file(self, tmp_path, mode, data):
        target = tmp_path / "out"
        target.write_bytes(OLD)
        with pytest.raises(RuntimeError):
            with atomic_open(target, mode) as fh:
                fh.write(data)
                raise RuntimeError("stopped partway")
        assert target.read_bytes() == OLD
        assert os.listdir(tmp_path) == ["out"]

    def test_failure_leaves_no_file_when_none_existed(self, tmp_path):
        with pytest.raises(RuntimeError):
            with atomic_open(tmp_path / "out", "wb") as fh:
                fh.write(b"partial")
                raise RuntimeError("stopped partway")
        assert os.listdir(tmp_path) == []

    def test_creates_file_as_open_would(self, tmp_path):
        with atomic_open(tmp_path / "atomic", "w", newline="") as fh:
            fh.write("a\r\nb\n")
        with open(tmp_path / "plain", "w", newline="") as fh:
            fh.write("a\r\nb\n")
        assert (tmp_path / "atomic").read_bytes() == (tmp_path / "plain").read_bytes()
        assert ((tmp_path / "atomic").stat().st_mode
                == (tmp_path / "plain").stat().st_mode)
        assert sorted(os.listdir(tmp_path)) == ["atomic", "plain"]

    def test_missing_directory_is_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            with atomic_open(tmp_path / "absent" / "out", "wb"):
                pass
