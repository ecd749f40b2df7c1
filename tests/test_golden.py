"""Byte identity of every CLI output on small seeded inputs.

`tests/golden.json` holds the SHA-256 of each output of `train`, `encode`,
`eval --database train|all`, `query` (with and without `--radius`),
`sweep --bits 16,70` and `gradcheck`, and of the stdout of each demo (which
`tests/test_demos.py` checks). The last bits of training differ between CPU
kernels, so the output digests come in one set per kernel, each with the
build and kernel that made it: the numpy and BLAS versions, OpenBLAS's core
name and numpy's enabled dispatch targets. The test compares the set of the
running kernel, and fails naming that kernel when no set was recorded for
it. The demo digests hold on every recorded kernel and form one set. A
change that alters output bytes on purpose rewrites the manifest, from the
repository root:

    PYTHONPATH=src python tests/test_golden.py

which records this host's kernel and, under SIMULATED_KERNELS, an AVX2 host
without AVX-512, and lists each changed digest, and why it changed, in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import subprocess
import sys
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
ROOT = MANIFEST.parent.parent
DEMOS = ("retrieval_pipeline.py", "hamming_index_basics.py",
         "gradient_verification.py", "hyperparameter_study.py")
# environment variables under which the manifest script records more kernels
SIMULATED_KERNELS = ({"OPENBLAS_CORETYPE": "Haswell",
                      "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},)


def _openblas_core() -> str | None:
    """The kernel OpenBLAS picked (`SkylakeX`, `Haswell`, ...), or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def _cpu_dispatch() -> list[str] | None:
    """numpy's dispatch targets that this CPU enables, or None."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        return None
    return [name for name in umath.__cpu_dispatch__
            if umath.__cpu_features__.get(name)]


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version")},
            "openblas_core": _openblas_core(), "cpu_dispatch": _cpu_dispatch()}


def kernel(env: dict) -> dict:
    """The fields of an environment that pick a digest set."""
    return {key: env[key] for key in ("openblas_core", "cpu_dispatch")}


def digest_set(manifest: dict) -> dict:
    """The manifest's output digests for the running kernel."""
    here = kernel(environment())
    for recorded in manifest["kernels"]:
        if kernel(recorded["environment"]) == here:
            return recorded
    raise AssertionError(
        f"{MANIFEST}: no digests recorded for this kernel {here}; recorded: "
        f"{[kernel(r['environment']) for r in manifest['kernels']]}")


def demo_stdout(demo: str) -> str:
    """A demo's stdout, run from the repository root, with that root's path
    written as <root>."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.replace(str(ROOT), "<root>")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


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
        digests[f"{name}.stdout"] = sha256(text)
    inputs = {*db, *query, root / "db32.feat"}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path not in inputs:
            name = path.relative_to(root).as_posix()
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_outputs_match_manifest(tmp_path):
    recorded = digest_set(json.loads(MANIFEST.read_text()))
    got = outputs(tmp_path)
    want = recorded["sha256"]
    changed = sorted(name for name in want.keys() | got.keys()
                     if want.get(name) != got.get(name))
    assert not changed, (
        f"{MANIFEST}: {changed} differ from the digests recorded with "
        f"{recorded['environment']}; this build is {environment()}")


def digests_here() -> dict:
    """This interpreter's environment and output digests."""
    with tempfile.TemporaryDirectory() as tmp:
        return {"environment": environment(), "sha256": outputs(Path(tmp))}


def recorded_kernel(env_vars: dict) -> dict:
    """`digests_here` of a fresh interpreter run with env_vars added to this
    one's environment."""
    script = "import json, test_golden; print(json.dumps(test_golden.digests_here()))"
    env = dict(os.environ, **env_vars,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


if __name__ == "__main__":
    kernels = []
    for env_vars in ({}, *SIMULATED_KERNELS):
        recorded = recorded_kernel(env_vars)
        if kernel(recorded["environment"]) not in [kernel(k["environment"])
                                                   for k in kernels]:
            kernels.append(recorded)
    manifest = {"kernels": kernels,
                "demos": {demo: sha256(demo_stdout(demo)) for demo in DEMOS}}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(kernels)} sets of output digests "
          f"({[kernel(k['environment']) for k in kernels]}) and "
          f"{len(DEMOS)} demo digests to {MANIFEST}")
