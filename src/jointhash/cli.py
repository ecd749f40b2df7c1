"""Command-line surface: train, encode, query, eval, gradcheck, sweep.

Options can come from --config (key=value lines) or flags; flags win. Exit
codes: 0 success, 2 config error, 3 data error, 4 numeric failure. Errors
print a single line "error: <category>: <message>" to stderr.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from ._files import atomic_open
from .data import (
    Dataset,
    load_dataset,
    parse_run_config,
    read_feature_file,
    train_test_split,
)
from .errors import ConfigError, DataError, FormatError, NumericError
from .index import CodeTable, load_code_table, rank_all, save_code_table
from .metrics import evaluate, write_curve_csvs, write_report_json
from .objective import GRADCHECK_TOLERANCE, Hyperparams, gradient_check_suite
from .train import (
    Checkpoint,
    TrainConfig,
    encode,
    encode_database,
    load_checkpoint,
    save_checkpoint,
    train,
)

# Every option: flag name -> (metavar, or the tuple of allowed values;
# default, or None). The parser, the defaults, the flag merge and the check on
# config-file keys all derive from this table.
_OPTIONS = {
    "config": ("PATH", None),
    "features": ("PATH", None),
    "labels": ("PATH", None),
    "checkpoint": ("PATH", None),
    "codes": ("PATH", None),
    "bits": ("K", "16"),
    "eta": ("F", "0.2"),
    "beta": ("F", "25"),
    "lr": ("F", "3e-4"),
    "epochs": ("N", "100"),
    "batch": ("N", "32"),
    "seed": ("N", "0"),
    "topk": ("N", "10"),
    "radius": ("N", None),
    "database": (("train", "all"), "train"),
    "out": ("DIR", None),
}
_CONFIG_KEYS = frozenset(_OPTIONS) - {"config"}
_DEFAULTS = {key: default for key, (_, default) in _OPTIONS.items()
             if default is not None}

_REQUIRED = {
    "train": ("features", "labels", "out"),
    "encode": ("checkpoint", "features", "labels", "codes"),
    "query": ("checkpoint", "codes", "features"),
    "eval": ("checkpoint", "codes", "features", "labels", "out"),
    "gradcheck": (),
    "sweep": ("features", "labels", "out"),
}

_SWEEP_DEFAULTS = {"bits": "16,32,48,64", "epochs": "60"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jointhash",
        description="Hash-code retrieval with joint label training",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("train", "learn hash and classifier weights from a feature file"),
        ("encode", "emit the code table for a database"),
        ("query", "rank database items for each query feature row"),
        ("eval", "retrieval and classification metrics for a query set"),
        ("gradcheck", "verify analytic gradients against finite differences"),
        ("sweep", "train/evaluate over a (bits, eta, beta) grid"),
    ):
        p = sub.add_parser(name, help=helptext)
        for name, (shape, _) in _OPTIONS.items():
            kind = "choices" if isinstance(shape, tuple) else "metavar"
            p.add_argument(f"--{name}", **{kind: shape})
    return parser


def _merge_options(args: argparse.Namespace) -> dict[str, str]:
    merged = dict(_DEFAULTS)
    if args.command == "sweep":
        merged.update(_SWEEP_DEFAULTS)
    if args.config is not None:
        merged.update(parse_run_config(args.config, _CONFIG_KEYS))
    for flag in _OPTIONS:
        value = getattr(args, flag, None)
        if value is not None:
            merged[flag] = value
    missing = [k for k in _REQUIRED[args.command] if k not in merged]
    if missing:
        raise ConfigError(
            f"missing required option(s) for {args.command}: "
            + ", ".join(f"--{k}" for k in missing)
        )
    if merged.get("database") not in (None, *_OPTIONS["database"][0]):
        raise ConfigError(
            f"--database must be 'train' or 'all', got {merged['database']!r}"
        )
    return merged


def _parse(opts: dict[str, str], key: str, conv, what: str):
    try:
        return conv(opts[key])
    except (ValueError, TypeError):
        raise ConfigError(f"--{key} expects {what}, got {opts[key]!r}") from None


def _parse_list(opts: dict[str, str], key: str, conv, what: str) -> list:
    try:
        return [conv(part) for part in opts[key].split(",") if part.strip() != ""]
    except (ValueError, TypeError):
        raise ConfigError(
            f"--{key} expects comma-separated {what}, got {opts[key]!r}"
        ) from None


def _hyper_from(opts: dict[str, str], **overrides) -> Hyperparams:
    spec = {
        "eta": ("eta", float, "a real in [0,1]"),
        "beta": ("beta", float, "a real >= 0"),
        "lr": ("lr", float, "a positive real"),
        "code_bits": ("bits", int, "a positive integer"),
        "batch_size": ("batch", int, "a positive integer"),
        "epochs": ("epochs", int, "a nonnegative integer"),
        "seed": ("seed", int, "a nonnegative integer"),
    }
    fields = dict(overrides)
    for name, (key, conv, what) in spec.items():
        if name not in fields:
            fields[name] = _parse(opts, key, conv, what)
    try:
        return Hyperparams(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _outdir(opts: dict[str, str]) -> Path:
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_trace_csv(trace, path) -> None:
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "total", "similarity", "label"])
        for row in trace:
            writer.writerow([row.epoch, repr(row.total), repr(row.similarity),
                             repr(row.label)])


def cmd_train(opts: dict[str, str]) -> int:
    dataset = load_dataset(opts["features"], opts["labels"])
    hyper = _hyper_from(opts)
    out = _outdir(opts)
    params, trace = train(dataset, TrainConfig(hyper))
    save_checkpoint(Checkpoint(params, hyper, hyper.epochs),
                    out / "checkpoint.bin")
    _write_trace_csv(trace, out / "trace.csv")
    print(f"trained {hyper.epochs} epochs; checkpoint at {out / 'checkpoint.bin'}")
    return 0


def cmd_encode(opts: dict[str, str]) -> int:
    cp = load_checkpoint(opts["checkpoint"])
    dataset = load_dataset(opts["features"], opts["labels"])
    if dataset.feature_dim != cp.params.feature_dim:
        raise DataError(
            f"feature dimension {dataset.feature_dim} does not match "
            f"checkpoint ({cp.params.feature_dim})"
        )
    table = encode_database(cp.params, dataset)
    save_code_table(table, opts["codes"])
    print(f"encoded {len(table)} items ({table.code_bits} bits) "
          f"to {opts['codes']}")
    return 0


def cmd_query(opts: dict[str, str]) -> int:
    cp = load_checkpoint(opts["checkpoint"])
    table = load_code_table(opts["codes"])
    if table.code_bits != cp.params.code_bits:
        raise DataError(
            f"code table holds {table.code_bits}-bit codes but checkpoint "
            f"emits {cp.params.code_bits}"
        )
    queries = read_feature_file(opts["features"])
    if queries.shape[1] != cp.params.feature_dim:
        raise DataError(
            f"query feature dimension {queries.shape[1]} does not match "
            f"checkpoint ({cp.params.feature_dim})"
        )
    topk = _parse(opts, "topk", int, "a positive integer")
    if not 1 <= topk <= len(table):
        raise ConfigError(f"--topk must lie in [1, {len(table)}], got {topk}")
    radius = None
    if "radius" in opts:
        radius = _parse(opts, "radius", int, "a nonnegative integer")
        if not 0 <= radius <= table.code_bits:
            raise ConfigError(
                f"--radius must lie in [0, {table.code_bits}], got {radius}"
            )
    codes, _ = encode(cp.params, queries)
    writer = csv.writer(sys.stdout)
    for q in range(codes.shape[0]):
        ranking = rank_all(codes[q], table, topk)
        for rank in range(len(ranking)):
            if radius is not None and ranking.distances[rank] > radius:
                break
            writer.writerow([rank + 1, int(ranking.ids[rank]),
                             int(ranking.distances[rank]),
                             int(ranking.labels[rank]),
                             int(ranking.predicted[rank])])
    return 0


def cmd_eval(opts: dict[str, str]) -> int:
    cp = load_checkpoint(opts["checkpoint"])
    table = load_code_table(opts["codes"])
    if table.code_bits != cp.params.code_bits:
        raise DataError(
            f"code table holds {table.code_bits}-bit codes but checkpoint "
            f"emits {cp.params.code_bits}"
        )
    queries = load_dataset(opts["features"], opts["labels"])
    if queries.feature_dim != cp.params.feature_dim:
        raise DataError(
            f"query feature dimension {queries.feature_dim} does not match "
            f"checkpoint ({cp.params.feature_dim})"
        )
    query_codes, query_predicted = encode(cp.params, queries.features)
    exclude_ids = None
    if opts["database"] == "all":
        # queries join the database; leave-one-out excludes each from its own list
        start = int(table.ids.max()) + 1 if len(table) else 0
        query_ids = np.arange(start, start + len(queries), dtype=np.int64)
        table = CodeTable(
            codes=np.vstack([table.codes, query_codes]),
            ids=np.concatenate([table.ids, query_ids]),
            labels=np.concatenate([table.labels, queries.labels]),
            predicted=np.concatenate([table.predicted, query_predicted]),
            code_bits=table.code_bits,
        )
        exclude_ids = query_ids
    report = evaluate(table, query_codes, queries.labels,
                      query_predicted=query_predicted, exclude_ids=exclude_ids)
    out = _outdir(opts)
    write_report_json(report, out / "report.json")
    write_curve_csvs(report, out)
    print(f"MAP {report.map:.4f}  OA {report.oa:.4f}  "
          f"({report.num_queries} queries, database={opts['database']})")
    return 0


def cmd_gradcheck(opts: dict[str, str]) -> int:
    seed = _parse(opts, "seed", int, "a nonnegative integer")
    results = gradient_check_suite(seed=seed)
    worst = max(err for r in results for err in r.errors.values())
    for r in results:
        block, err = max(r.errors.items(), key=lambda kv: kv[1])
        print(f"config {r.index:2d}: eta={r.hyper.eta:<4} beta={r.hyper.beta:<4} "
              f"worst {err:.3e} ({block})")
    passed = worst < GRADCHECK_TOLERANCE
    print(f"{'PASS' if passed else 'FAIL'}: worst relative error {worst:.3e} "
          f"(tolerance {GRADCHECK_TOLERANCE:g})")
    if not passed:
        raise NumericError(
            f"gradient check failed: worst relative error {worst:.3e}"
        )
    return 0


def _run_sweep_point(train_set: Dataset, test_set: Dataset,
                     hyper: Hyperparams) -> tuple[float, float]:
    params, _ = train(train_set, TrainConfig(hyper))
    table = encode_database(params, train_set)
    query_codes, query_predicted = encode(params, test_set.features)
    report = evaluate(table, query_codes, test_set.labels,
                      query_predicted=query_predicted)
    return report.map, report.oa


def cmd_sweep(opts: dict[str, str]) -> int:
    dataset = load_dataset(opts["features"], opts["labels"])
    bits_grid = _parse_list(opts, "bits", int, "integers")
    eta_grid = _parse_list(opts, "eta", float, "reals")
    beta_grid = _parse_list(opts, "beta", float, "reals")
    if not bits_grid or not eta_grid or not beta_grid:
        raise ConfigError("sweep grids must be nonempty")
    seed = _parse(opts, "seed", int, "a nonnegative integer")
    train_set, test_set = train_test_split(dataset, 0.2, seed)
    out = _outdir(opts)
    rows = []
    for bits in bits_grid:
        for eta in eta_grid:
            for beta in beta_grid:
                hyper = _hyper_from(opts, code_bits=bits, eta=eta, beta=beta)
                map_value, oa = _run_sweep_point(train_set, test_set, hyper)
                rows.append((bits, eta, beta, map_value, oa))
                print(f"bits={bits:<3} eta={eta:<5} beta={beta:<6} "
                      f"MAP={map_value:.4f} OA={oa:.4f}")
    with atomic_open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bits", "eta", "beta", "map", "oa"])
        for bits, eta, beta, map_value, oa in rows:
            writer.writerow([bits, eta, beta, f"{map_value:.6f}", f"{oa:.6f}"])
    return 0


_COMMANDS = {
    "train": cmd_train,
    "encode": cmd_encode,
    "query": cmd_query,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = _merge_options(args)
        return _COMMANDS[args.command](opts)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (FormatError, DataError) as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
