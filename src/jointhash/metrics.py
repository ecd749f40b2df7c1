"""Retrieval and classification metrics.

Average precision over a ranked list, MAP over a query set, precision/recall
at k, precision-recall points per Hamming search radius, and overall
classification accuracy. Precision of an empty radius set is defined as 1.0
(vacuous) and such points are counted in the report rather than silently
averaged away.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import starmap
from pathlib import Path

import numpy as np

from ._files import atomic_open
from .errors import DimensionError
from .index import CodeTable, rank_all


@dataclass
class RelevanceList:
    """Ranked binary relevance flags for one query.

    total_relevant counts relevant items in the whole searched database, so
    it may exceed the number of flags set within the (possibly truncated)
    ranked list.
    """

    flags: np.ndarray
    total_relevant: int

    def __post_init__(self):
        self.flags = np.asarray(self.flags, dtype=bool)
        if self.flags.ndim != 1:
            raise DimensionError("relevance flags must form a 1-D list")
        if self.total_relevant < int(self.flags.sum()):
            raise ValueError(
                "total_relevant cannot be smaller than the flags in the list"
            )

    def __len__(self) -> int:
        return self.flags.shape[0]


def average_precision(rel: RelevanceList) -> float:
    """Mean of precision-at-hit over all relevant ranks; 0.0 if no hits."""
    return _average_precision(np.flatnonzero(rel.flags))


def _average_precision(hit_ranks: np.ndarray) -> float:
    if hit_ranks.size == 0:
        return 0.0
    precisions = np.arange(1, hit_ranks.size + 1) / (hit_ranks + 1)
    return float(precisions.mean())


def mean_average_precision(queries: list[RelevanceList]) -> float:
    """Arithmetic mean of per-query average precision."""
    if not queries:
        raise ValueError("MAP requires at least one query")
    return float(np.mean([average_precision(q) for q in queries]))


def precision_at_k(rel: RelevanceList, k: int) -> float:
    """Fraction of the top k that is relevant."""
    if not 1 <= k <= len(rel):
        raise ValueError(f"k must lie in [1, {len(rel)}], got {k}")
    return float(rel.flags[:k].sum() / k)


def recall_at_k(rel: RelevanceList, k: int) -> float:
    """Fraction of all relevant database items found in the top k."""
    if rel.total_relevant < 1:
        raise ValueError("recall is undefined without relevant items")
    if not 1 <= k <= len(rel):
        raise ValueError(f"k must lie in [1, {len(rel)}], got {k}")
    return float(rel.flags[:k].sum() / rel.total_relevant)


@dataclass
class PRCurve:
    """Precision/recall of the radius-t result set, t = 0..K."""

    precision: np.ndarray
    recall: np.ndarray
    vacuous: np.ndarray  # True where the radius set was empty


def _pr_by_radius(distances: np.ndarray, hit_ranks: np.ndarray,
                  code_bits: int) -> PRCurve:
    # the radius-t set is a prefix of the ranking: its size is the number of
    # sorted distances <= t, its hits the number of hit ranks below that size
    # radii in the distances' own dtype, so searchsorted does not widen them
    radii = np.arange(code_bits + 1, dtype=distances.dtype)
    counts = np.searchsorted(distances, radii, side="right")
    hits = np.searchsorted(hit_ranks, counts)
    vacuous = counts == 0
    precision = np.where(vacuous, 1.0, hits / np.maximum(counts, 1))
    if hit_ranks.size > 0:
        recall = hits / hit_ranks.size
    else:
        recall = np.zeros(code_bits + 1)
    return PRCurve(precision=precision, recall=recall, vacuous=vacuous)


def _table_rows(table: CodeTable, ids: np.ndarray) -> np.ndarray:
    """The table row of each id; each id must name exactly one row."""
    sorter = np.argsort(table.ids, kind="stable")
    sorted_ids = table.ids[sorter]
    first = np.searchsorted(sorted_ids, ids, side="left")
    named = np.searchsorted(sorted_ids, ids, side="right") - first
    bad = np.flatnonzero(named != 1)
    if bad.size:
        i = bad[0]
        raise ValueError(f"exclude id {ids[i]} names {named[i]} table rows, "
                         "expected exactly 1")
    return sorter[first]


def _hits_prefix(hit_ranks: np.ndarray, depth: int) -> np.ndarray:
    """Hits within the first 1..depth ranks, as exact float64 counts."""
    run_lengths = np.diff(hit_ranks, prepend=0, append=depth)
    return np.repeat(np.arange(hit_ranks.size + 1, dtype=np.float64),
                     run_lengths)


def _query_pass(query_code: np.ndarray, table: CodeTable, query_label,
                exclude_row: int | None) -> tuple[np.ndarray, PRCurve]:
    """Rank the table for one query, without exclude_row.

    Returns the ranks of the relevant items and the precision/recall curve
    by radius.
    """
    ranking = rank_all(query_code, table)
    order, distances = ranking.order, ranking.distances
    if exclude_row is not None:
        at = np.flatnonzero(order == exclude_row)[0]
        order = np.delete(order, at)
        distances = np.delete(distances, at)
    hit_ranks = np.flatnonzero((table.labels == query_label)[order])
    return hit_ranks, _pr_by_radius(distances, hit_ranks, table.code_bits)


def precision_recall_curve(query_code: np.ndarray, table: CodeTable,
                           query_label: int) -> PRCurve:
    """Precision/recall per Hamming radius for one query against the table."""
    if len(table) == 0:
        raise ValueError("precision-recall curve needs a nonempty table")
    return _query_pass(query_code, table, query_label, None)[1]


def overall_accuracy(predicted: np.ndarray, true: np.ndarray) -> float:
    """Fraction of exact label matches."""
    p = np.asarray(predicted)
    t = np.asarray(true)
    if p.shape != t.shape or p.ndim != 1 or p.size == 0:
        raise DimensionError("predicted and true labels must be equal-length, nonempty")
    return float(np.mean(p == t))


@dataclass
class EvalReport:
    """Aggregated retrieval metrics over a query set, plus optional OA."""

    map: float
    ks: np.ndarray
    precision_at: np.ndarray
    recall_at: np.ndarray
    pr_precision: np.ndarray
    pr_recall: np.ndarray
    vacuous_radius_counts: np.ndarray
    oa: float | None
    num_queries: int
    zero_relevant_queries: int


def evaluate(table: CodeTable, query_codes: np.ndarray,
             query_labels: np.ndarray,
             query_predicted: np.ndarray | None = None,
             exclude_ids: np.ndarray | None = None) -> EvalReport:
    """Rank every query against the table and aggregate all four metrics.

    exclude_ids, when given, holds one table id per query, each naming exactly
    one row, which is left out of that query's ranking (leave-one-out for
    queries that live in the database).
    """
    query_codes = np.atleast_2d(np.asarray(query_codes, dtype=np.uint64))
    query_labels = np.asarray(query_labels)
    nq = query_codes.shape[0]
    if nq == 0:
        raise ValueError("evaluation requires at least one query")
    if len(table) == 0:
        raise ValueError("evaluation requires a nonempty database table")
    for name, per_query in (("query_labels", query_labels),
                            ("query_predicted", query_predicted),
                            ("exclude_ids", exclude_ids)):
        if per_query is not None and np.shape(per_query) != (nq,):
            raise DimensionError(f"{name} has shape {np.shape(per_query)}, "
                                 f"expected one entry per query ({nq})")
    exclude_rows = None
    if exclude_ids is not None:
        exclude_rows = _table_rows(table, np.asarray(exclude_ids))
    depth = len(table) - (0 if exclude_ids is None else 1)
    ks = np.arange(1, depth + 1)
    # float64 operands divide exactly as the integer counts would, and the
    # quotients go through one reused buffer
    k_float = ks.astype(np.float64)
    quotient = np.empty(ks.size)

    aps = np.empty(nq)
    prec_sum = np.zeros(ks.size)
    rec_sum = np.zeros(ks.size)
    pr_prec_sum = np.zeros(table.code_bits + 1)
    pr_rec_sum = np.zeros(table.code_bits + 1)
    vacuous_counts = np.zeros(table.code_bits + 1, dtype=np.int64)
    zero_relevant = 0

    for q in range(nq):
        hit_ranks, curve = _query_pass(
            query_codes[q], table, query_labels[q],
            None if exclude_rows is None else exclude_rows[q])
        total_relevant = hit_ranks.size
        if total_relevant == 0:
            zero_relevant += 1
        aps[q] = _average_precision(hit_ranks)
        hits_at = _hits_prefix(hit_ranks, depth)
        prec_sum += np.divide(hits_at, k_float, out=quotient)
        if total_relevant > 0:
            rec_sum += np.divide(hits_at, total_relevant, out=quotient)
        pr_prec_sum += curve.precision
        pr_rec_sum += curve.recall
        vacuous_counts += curve.vacuous

    oa = None
    if query_predicted is not None:
        oa = overall_accuracy(query_predicted, query_labels)
    return EvalReport(
        map=float(aps.mean()),
        ks=ks,
        precision_at=prec_sum / nq,
        recall_at=rec_sum / nq,
        pr_precision=pr_prec_sum / nq,
        pr_recall=pr_rec_sum / nq,
        vacuous_radius_counts=vacuous_counts,
        oa=oa,
        num_queries=nq,
        zero_relevant_queries=zero_relevant,
    )


# Rows are formatted and written this many at a time, so a writer never holds
# the whole file as one string.
_CHUNK_ROWS = 8192


def _write_rows(fh, row_format: str, separator: str, columns) -> None:
    """Write row_format for each row of the columns, joined by separator."""
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        rows = zip(*(c[start:start + _CHUNK_ROWS].tolist() for c in columns))
        if start:
            fh.write(separator)
        fh.write(separator.join(starmap(row_format.format, rows)))


def write_report_json(report: EvalReport, path) -> None:
    """report.json as json.dumps(indent=2) lays it out.

    The per-k objects are written here row by row, with repr floats and json's
    one entry per key; json.dumps writes the rest.
    """
    head = json.dumps({
        "map": report.map,
        "oa": report.oa,
        "num_queries": report.num_queries,
        "zero_relevant_queries": report.zero_relevant_queries,
    }, indent=2)
    tail = json.dumps({"pr_points": [
        {"radius": t, "precision": p, "recall": r, "vacuous_queries": v}
        for t, (p, r, v) in enumerate(zip(report.pr_precision.tolist(),
                                          report.pr_recall.tolist(),
                                          report.vacuous_radius_counts.tolist()))
    ]}, indent=2)
    with atomic_open(path, "w") as fh:
        fh.write(head[:-2] + ",\n")  # drop the closing "\n}"
        for name, values in (("precision_at", report.precision_at),
                             ("recall_at", report.recall_at)):
            if report.ks.size == 0:
                fh.write(f'  "{name}": {{}},\n')
                continue
            fh.write(f'  "{name}": {{\n')
            _write_rows(fh, '    "{}": {!r}', ",\n",
                        (report.ks, values))
            fh.write("\n  },\n")
        fh.write(tail[2:] + "\n")  # drop the opening "{\n"


def write_curve_csvs(report: EvalReport, out_dir) -> None:
    """curve_topk.csv and curve_radius.csv: 10 decimals, CRLF line ends."""
    out_dir = Path(out_dir)
    with atomic_open(out_dir / "curve_topk.csv", "w", newline="") as fh:
        fh.write("k,precision,recall\r\n")
        _write_rows(fh, "{},{:.10f},{:.10f}\r\n", "",
                    (report.ks, report.precision_at, report.recall_at))
    with atomic_open(out_dir / "curve_radius.csv", "w", newline="") as fh:
        fh.write("radius,precision,recall,vacuous_queries\r\n")
        _write_rows(fh, "{},{:.10f},{:.10f},{}\r\n", "",
                    (np.arange(report.pr_precision.size), report.pr_precision,
                     report.pr_recall, report.vacuous_radius_counts))
