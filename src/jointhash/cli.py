"""Command-line surface: train, encode, query, eval, gradcheck, sweep.

Options can come from --config (key=value lines) or flags; flags win. Exit
codes: 0 success, 2 config error, 3 data error, 4 numeric failure. Errors
print a single line "error: <category>: <message>" to stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ._files import write_binary
from .data import (
    StreamedDataset,
    load_dataset,
    parse_run_config,
    read_feature_file,
    train_test_split,
)
from .errors import ConfigError, DataError, FormatError, NumericError
from .index import CodeTable, load_code_table, per_group, rank_all, save_code_table
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

# Hyperparams field -> the option that sets it; Hyperparams() gives these
# options' defaults
_HYPER_OPTIONS = {"eta": "eta", "beta": "beta", "lr": "lr", "code_bits": "bits",
                  "batch_size": "batch", "epochs": "epochs", "seed": "seed"}
# Every option: flag name -> (metavar, or the tuple of allowed values;
# default, or None; the type its value converts to; what a bad value's error
# says it expects). The parser, the defaults, the flag merge, the check on
# config-file keys and every conversion derive from this table.
_OPTIONS = {
    "config": ("PATH", None, str, ""),
    "features": ("PATH", None, str, ""),
    "labels": ("PATH", None, str, ""),
    "checkpoint": ("PATH", None, str, ""),
    "codes": ("PATH", None, str, ""),
    "bits": ("K", None, int, "a positive integer"),
    "eta": ("F", None, float, "a real in [0,1]"),
    "beta": ("F", None, float, "a real >= 0"),
    "lr": ("F", None, float, "a positive real"),
    "epochs": ("N", None, int, "a nonnegative integer"),
    "batch": ("N", None, int, "a positive integer"),
    "seed": ("N", None, int, "a nonnegative integer"),
    "topk": ("N", "10", int, "a positive integer"),
    "radius": ("N", None, int, "a nonnegative integer"),
    "database": (("train", "all"), "train", str, ""),
    "out": ("DIR", None, str, ""),
}
_CONFIG_KEYS = frozenset(_OPTIONS) - {"config"}
_DEFAULTS = {key: row[1] for key, row in _OPTIONS.items() if row[1] is not None}
_DEFAULTS.update((key, str(getattr(Hyperparams(), name)))
                 for name, key in _HYPER_OPTIONS.items())
# what a comma-separated sweep grid of each type expects
_GRID_OF = {int: "integers", float: "reals"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jointhash",
        description="Hash-code retrieval with joint label training",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, helptext, *_) in _COMMANDS.items():
        p = sub.add_parser(command, help=helptext)
        for name, (shape, *_) in _OPTIONS.items():
            kind = "choices" if isinstance(shape, tuple) else "metavar"
            p.add_argument(f"--{name}", **{kind: shape})
    return parser


def _merge_options(args: argparse.Namespace) -> dict[str, str]:
    _, _, required, defaults = _COMMANDS[args.command]
    merged = {**_DEFAULTS, **defaults}
    if args.config is not None:
        merged.update(parse_run_config(args.config, _CONFIG_KEYS))
    for flag in _OPTIONS:
        value = getattr(args, flag, None)
        if value is not None:
            merged[flag] = value
    missing = [k for k in required if k not in merged]
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


def _parse(opts: dict[str, str], key: str):
    _, _, conv, what = _OPTIONS[key]
    try:
        value = conv(opts[key])
    except (ValueError, TypeError):
        raise ConfigError(f"--{key} expects {what}, got {opts[key]!r}") from None
    # numpy's generators take seeds in the range a checkpoint stores
    if key == "seed" and not 0 <= value < 2**64:
        raise ConfigError("seed must fit in an unsigned 64-bit integer")
    return value


def _parse_list(opts: dict[str, str], key: str) -> list:
    conv = _OPTIONS[key][2]
    try:
        return [conv(part) for part in opts[key].split(",") if part.strip() != ""]
    except (ValueError, TypeError):
        raise ConfigError(f"--{key} expects comma-separated {_GRID_OF[conv]}, "
                          f"got {opts[key]!r}") from None


def _hyper_from(opts: dict[str, str], **overrides) -> Hyperparams:
    fields = {name: _parse(opts, key) for name, key in _HYPER_OPTIONS.items()
              if name not in overrides}
    try:
        return Hyperparams(**fields, **overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _outdir(opts: dict[str, str]) -> Path:
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_trace_csv(trace, path) -> None:
    # repr floats and CRLF line ends, as csv.writer wrote them
    write_binary(path, "".join(
        ["epoch,total,similarity,label\r\n"]
        + [f"{row.epoch},{row.total!r},{row.similarity!r},{row.label!r}\r\n"
           for row in trace]).encode())


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


def _check_width(dim: int, params, what: str) -> None:
    if dim != params.feature_dim:
        raise DataError(f"{what} dimension {dim} does not match checkpoint "
                        f"({params.feature_dim})")


def _encode_file(opts: dict[str, str], params, what: str) -> CodeTable:
    """Codes, predictions and labels of --features/--labels, ids from 0.

    The features are read, checked and hashed one block at a time, after the
    labels and the width check.
    """
    dataset = StreamedDataset(opts["features"], opts["labels"])
    _check_width(dataset.feature_dim, params, what)
    return encode_database(params, dataset)


def _load_model(opts: dict[str, str],
                need_rows: bool) -> tuple[Checkpoint, CodeTable]:
    """The checkpoint and the code table, checked to hold codes of one width;
    with need_rows, the table must also hold at least one item."""
    cp = load_checkpoint(opts["checkpoint"])
    table = load_code_table(opts["codes"])
    if table.code_bits != cp.params.code_bits:
        raise DataError(
            f"code table holds {table.code_bits}-bit codes but checkpoint "
            f"emits {cp.params.code_bits}"
        )
    if need_rows and not len(table):
        raise DataError(f"{opts['codes']}: code table holds no items")
    return cp, table


def cmd_encode(opts: dict[str, str]) -> int:
    cp = load_checkpoint(opts["checkpoint"])
    table = _encode_file(opts, cp.params, "feature")
    save_code_table(table, opts["codes"])
    print(f"encoded {len(table)} items ({table.code_bits} bits) "
          f"to {opts['codes']}")
    return 0


def cmd_query(opts: dict[str, str]) -> int:
    cp, table = _load_model(opts, need_rows=True)
    queries = read_feature_file(opts["features"])
    _check_width(queries.shape[1], cp.params, "query feature")
    topk = _parse(opts, "topk")
    if not 1 <= topk <= len(table):
        raise ConfigError(f"--topk must lie in [1, {len(table)}], got {topk}")
    radius = None
    if "radius" in opts:
        radius = _parse(opts, "radius")
        if not 0 <= radius <= table.code_bits:
            raise ConfigError(
                f"--radius must lie in [0, {table.code_bits}], got {radius}"
            )
    codes, _ = encode(cp.params, queries)

    def rows_text(group: list) -> str:
        ranking = rank_all(codes[group[0]], table, topk)
        shown = len(ranking)
        if radius is not None:
            shown = int(np.searchsorted(ranking.distances, radius, side="right"))
        return "".join(map("%d,%d,%d,%d,%d\r\n".__mod__, zip(
            range(1, shown + 1), ranking.ids[:shown].tolist(),
            ranking.distances[:shown].tolist(),
            ranking.labels[:shown].tolist(),
            ranking.predicted[:shown].tolist())))

    # queries with equal codes print the same rows, made once per code
    sys.stdout.writelines(per_group(codes, rows_text))
    return 0


def cmd_eval(opts: dict[str, str]) -> int:
    cp, table = _load_model(opts, need_rows=opts["database"] == "train")
    queries = _encode_file(opts, cp.params, "query feature")
    exclude_ids = None
    if opts["database"] == "all":
        # queries join the database; leave-one-out excludes each from its own list
        queries.ids += (int(table.ids.max()) + 1) if len(table) else 0
        table = CodeTable(
            codes=np.vstack([table.codes, queries.codes]),
            ids=np.concatenate([table.ids, queries.ids]),
            labels=np.concatenate([table.labels, queries.labels]),
            predicted=np.concatenate([table.predicted, queries.predicted]),
            code_bits=table.code_bits,
        )
        exclude_ids = queries.ids
    report = evaluate(table, queries.codes, queries.labels,
                      query_predicted=queries.predicted, exclude_ids=exclude_ids)
    out = _outdir(opts)
    write_report_json(report, out / "report.json")
    write_curve_csvs(report, out)
    print(f"MAP {report.map:.4f}  OA {report.oa:.4f}  "
          f"({report.num_queries} queries, database={opts['database']})")
    return 0


def cmd_gradcheck(opts: dict[str, str]) -> int:
    results = gradient_check_suite(seed=_parse(opts, "seed"))
    # np.max, unlike max(), returns a NaN wherever it stands
    worst = float(np.max([r.worst for r in results]))
    for r in results:
        print(f"config {r.index:2d}: eta={r.hyper.eta:<4} beta={r.hyper.beta:<4} "
              f"worst {r.worst:.3e} ({r.worst_block})")
    passed = worst < GRADCHECK_TOLERANCE
    print(f"{'PASS' if passed else 'FAIL'}: worst relative error {worst:.3e} "
          f"(tolerance {GRADCHECK_TOLERANCE:g})")
    if not passed:
        raise NumericError(
            f"gradient check failed: worst relative error {worst:.3e}"
        )
    return 0


def cmd_sweep(opts: dict[str, str]) -> int:
    dataset = load_dataset(opts["features"], opts["labels"])
    bits_grid = _parse_list(opts, "bits")
    eta_grid = _parse_list(opts, "eta")
    beta_grid = _parse_list(opts, "beta")
    if not bits_grid or not eta_grid or not beta_grid:
        raise ConfigError("sweep grids must be nonempty")
    # every grid point is checked before the first one trains
    grid = [_hyper_from(opts, code_bits=bits, eta=eta, beta=beta)
            for bits in bits_grid for eta in eta_grid for beta in beta_grid]
    train_set, test_set = train_test_split(dataset, 0.2, _parse(opts, "seed"))
    if not len(test_set):
        raise DataError(f"{opts['labels']}: every class has one row, so the "
                        "held-out split is empty")
    out = _outdir(opts)
    rows = []
    for hyper in grid:
        bits, eta, beta = hyper.code_bits, hyper.eta, hyper.beta
        params, _ = train(train_set, TrainConfig(hyper))
        table = encode_database(params, train_set)
        query_codes, query_predicted = encode(params, test_set.features)
        report = evaluate(table, query_codes, test_set.labels,
                          query_predicted=query_predicted)
        rows.append((bits, eta, beta, report.map, report.oa))
        print(f"bits={bits:<3} eta={eta:<5} beta={beta:<6} "
              f"MAP={report.map:.4f} OA={report.oa:.4f}")
    write_binary(out / "sweep.csv", "".join(
        ["bits,eta,beta,map,oa\r\n"]
        + [f"{bits},{eta},{beta},{map_value:.6f},{oa:.6f}\r\n"
           for bits, eta, beta, map_value, oa in rows]).encode())
    return 0


# Every command: name -> (handler; help text; required options; the defaults
# that differ from _OPTIONS). The parser and the option merge read this table.
_COMMANDS = {
    "train": (cmd_train, "learn hash and classifier weights from a feature file",
              ("features", "labels", "out"), {}),
    "encode": (cmd_encode, "emit the code table for a database",
               ("checkpoint", "features", "labels", "codes"), {}),
    "query": (cmd_query, "rank database items for each query feature row",
              ("checkpoint", "codes", "features"), {}),
    "eval": (cmd_eval, "retrieval and classification metrics for a query set",
             ("checkpoint", "codes", "features", "labels", "out"), {}),
    "gradcheck": (cmd_gradcheck,
                  "verify analytic gradients against finite differences", (), {}),
    "sweep": (cmd_sweep, "train/evaluate over a (bits, eta, beta) grid",
              ("features", "labels", "out"), {"bits": "16,32,48,64", "epochs": "60"}),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = _merge_options(args)
        return _COMMANDS[args.command][0](opts)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (FormatError, DataError, OSError) as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
