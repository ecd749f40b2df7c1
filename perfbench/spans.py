"""Span recording around calls into the jointhash modules.

The benchmark treats the package as a library: it never edits it. Instead it
replaces each public function it measures with a wrapper that records a span
(name, start, end, parent span, operation id). The wrapper is installed under
every name a caller looks up: `train.py` binds `loss_parts` by name and
`cli.py` binds `rank_all`, `evaluate`, `train` and others, so patching only
the defining module would miss those calls.

Each layer is a module of the package. A function's self time is its span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# (module, function) pairs that get a span. A name missing from the package
# (for example, removed by a later change) is skipped: it yields no span.
TRACED = (
    ("model", "affine_hash"),
    ("model", "binarize"),
    ("model", "class_scores"),
    ("model", "pack_codes"),
    ("objective", "loss_parts"),
    ("objective", "grad_params"),
    ("train", "train"),
    ("train", "sgd_step"),
    ("train", "encode_database"),
    ("train", "load_checkpoint"),
    ("index", "rank_all"),
    ("index", "top_k"),
    ("index", "radius_search"),
    ("index", "save_code_table"),
    ("index", "load_code_table"),
    ("metrics", "evaluate"),
    ("metrics", "write_report_json"),
    ("metrics", "write_curve_csvs"),
    ("data", "read_feature_file"),
    ("data", "read_label_file"),
    ("cli", "main"),
)


def _file_size(path) -> int:
    try:
        return Path(path).stat().st_size
    except (OSError, TypeError):
        return 0


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


# Work counters measured at the call boundary: span name -> function of
# (args, kwargs, result) returning {counter: increment}.
def _pairs(args, kwargs, result):
    m = len(_arg(args, kwargs, 1, "labels"))
    return {"objective.pairs": m * (m - 1) // 2}


def _scanned(table):
    return len(table) * table.codes.shape[1] * 8


def _rank_bytes(args, kwargs, result):
    return {"index.bytes_scanned": _scanned(_arg(args, kwargs, 1, "table"))}


def _radius(args, kwargs, result):
    table = _arg(args, kwargs, 1, "table")
    return {"index.bytes_scanned": _scanned(table),
            "index.radius_search.hits": len(result),
            "index.radius_search.scanned": len(table)}


def _path_bytes(pos, name, counter):
    def count(args, kwargs, result):
        return {counter: _file_size(_arg(args, kwargs, pos, name))}
    return count


def _curve_bytes(args, kwargs, result):
    out = Path(_arg(args, kwargs, 1, "out_dir"))
    return {"metrics.write_curve_csvs.bytes":
            _file_size(out / "curve_topk.csv") + _file_size(out / "curve_radius.csv")}


def _queries(args, kwargs, result):
    return {"metrics.evaluate.queries": int(result.num_queries)}


COUNTERS = {
    "objective.loss_parts": _pairs,
    "index.rank_all": _rank_bytes,
    "index.radius_search": _radius,
    "index.save_code_table": _path_bytes(1, "path", "index.save_code_table.bytes"),
    "index.load_code_table": _path_bytes(0, "path", "index.load_code_table.bytes"),
    "data.read_feature_file": _path_bytes(0, "path", "data.read_feature_file.bytes"),
    "metrics.write_report_json": _path_bytes(1, "path",
                                             "metrics.write_report_json.bytes"),
    "metrics.write_curve_csvs": _curve_bytes,
    "metrics.evaluate": _queries,
}


@dataclass
class _Open:
    index: int
    start: float
    child: float = 0.0


@dataclass
class Recorder:
    """Spans and counters of one traced run, kept in memory until written."""

    op: int = 0
    spans: list = field(default_factory=list)  # (name, start, end, parent, op)
    self_s: dict = field(default_factory=dict)
    calls: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1].index if stack else -1
            frame = _Open(len(self.spans), clock())
            self.spans.append(None)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                self.spans[frame.index] = (name, frame.start, end, parent, self.op)
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame.child
                self.calls[name] = self.calls.get(name, 0) + 1
                if stack:
                    stack[-1].child += duration
            if counter is not None:
                for key, value in _count(counter, args, kwargs, result).items():
                    self.counters[key] = self.counters.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """Spans as tab-separated lines: id, name, start, end, parent, op."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\top\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{op}\n")


def _count(counter, args, kwargs, result) -> dict:
    # A counter that no longer fits a changed signature is dropped, not fatal.
    try:
        return counter(args, kwargs, result)
    except (AttributeError, IndexError, KeyError, TypeError):
        return {}


def install(recorder: Recorder) -> list:
    """Wrap every traced function under every jointhash name bound to it.

    Returns the (module, attribute, original) triples that `uninstall`
    restores.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "jointhash" or n.startswith("jointhash."))]
    patched = []
    for module_name, func_name in TRACED:
        home = sys.modules.get(f"jointhash.{module_name}")
        original = getattr(home, func_name, None) if home is not None else None
        if original is None:
            continue
        wrapper = recorder.wrap(f"{module_name}.{func_name}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, original))
    return patched


def uninstall(patched: list) -> None:
    for module, attr, original in reversed(patched):
        setattr(module, attr, original)
