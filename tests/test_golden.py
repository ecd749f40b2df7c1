"""Byte identity of every CLI output on small seeded inputs.

`tests/golden.json` holds the SHA-256 of each output of `train`, `encode`,
`eval --database train|all`, `query` (with and without `--radius`),
`sweep --bits 16,70` and `gradcheck`, and the numpy and BLAS build that made
them. A change that alters output bytes on purpose rewrites the manifest,
from the repository root:

    PYTHONPATH=src python tests/test_golden.py

and lists each changed digest, and why it changed, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from jointhash.cli import main
from jointhash.data import (
    save_dataset,
    synth_dataset,
    train_test_split,
    write_feature_file,
)

MANIFEST = Path(__file__).resolve().with_name("golden.json")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version")}}


def outputs(root: Path) -> dict[str, str]:
    """SHA-256 of every output file and of every stdout, by name; printed
    paths are written relative to root."""
    ds = synth_dataset(4, 20, 16, separation=3.0, seed=0)
    train_set, query_set = train_test_split(ds, 0.25, seed=0)
    db = save_dataset(train_set, root / "db")
    query = save_dataset(query_set, root / "query")
    write_feature_file(root / "db32.feat", train_set.features, width=32)
    model = ("--checkpoint", root / "train" / "checkpoint.bin")
    runs = {
        "train": ("train", "--features", db[0], "--labels", db[1], "--bits", "24",
                  "--epochs", "20", "--seed", "3", "--out", root / "train"),
        "encode": ("encode", *model, "--features", db[0], "--labels", db[1],
                   "--codes", root / "codes.htbl"),
        "encode32": ("encode", *model, "--features", root / "db32.feat",
                     "--labels", db[1], "--codes", root / "codes32.htbl"),
        "eval_train": ("eval", *model, "--codes", root / "codes.htbl",
                       "--features", query[0], "--labels", query[1],
                       "--database", "train", "--out", root / "eval_train"),
        "eval_all": ("eval", *model, "--codes", root / "codes.htbl",
                     "--features", query[0], "--labels", query[1],
                     "--database", "all", "--out", root / "eval_all"),
        "query": ("query", *model, "--codes", root / "codes.htbl",
                  "--features", query[0], "--topk", "20"),
        "query_radius": ("query", *model, "--codes", root / "codes.htbl",
                         "--features", query[0], "--topk", "20", "--radius", "2"),
        "sweep": ("sweep", "--features", db[0], "--labels", db[1],
                  "--bits", "16,70", "--eta", "0.2", "--beta", "25",
                  "--epochs", "5", "--out", root / "sweep"),
        "gradcheck": ("gradcheck", "--seed", "0"),
    }
    digests = {}
    for name, argv in runs.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([str(a) for a in argv])
        assert code == 0, f"{name} exited with {code}"
        text = out.getvalue().replace(str(root), "<root>")
        digests[f"{name}.stdout"] = hashlib.sha256(text.encode()).hexdigest()
    inputs = {*db, *query, root / "db32.feat"}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path not in inputs:
            name = path.relative_to(root).as_posix()
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_outputs_match_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    got = outputs(tmp_path)
    want = manifest["sha256"]
    changed = sorted(name for name in want.keys() | got.keys()
                     if want.get(name) != got.get(name))
    assert not changed, (
        f"{MANIFEST}: {changed} differ from the digests recorded with "
        f"{manifest['environment']}; this build is {environment()}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        manifest = {"environment": environment(), "sha256": outputs(Path(tmp))}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(manifest['sha256'])} digests to {MANIFEST}")
