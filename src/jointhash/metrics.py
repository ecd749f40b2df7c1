"""Retrieval and classification metrics.

Average precision over a ranked list, MAP over a query set, precision/recall
at k, precision-recall points per Hamming search radius, and overall
classification accuracy. Precision of an empty radius set is defined as 1.0
(vacuous) and such points are counted in the report rather than silently
averaged away.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
    hits = np.flatnonzero(rel.flags)
    if hits.size == 0:
        return 0.0
    precisions = np.arange(1, hits.size + 1) / (hits + 1)
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


def _pr_by_radius(distances: np.ndarray, relevant: np.ndarray,
                  code_bits: int) -> PRCurve:
    counts = np.bincount(distances, minlength=code_bits + 1).cumsum()
    hits = np.bincount(distances[relevant], minlength=code_bits + 1).cumsum()
    total_relevant = int(relevant.sum())
    vacuous = counts == 0
    precision = np.where(vacuous, 1.0, hits / np.maximum(counts, 1))
    if total_relevant > 0:
        recall = hits / total_relevant
    else:
        recall = np.zeros(code_bits + 1)
    return PRCurve(precision=precision, recall=recall, vacuous=vacuous)


def _ranked(query_code: np.ndarray, table: CodeTable,
            exclude_id: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Ranked labels and distances of the table, without exclude_id's row."""
    ranking = rank_all(query_code, table)
    if exclude_id is None:
        return ranking.labels, ranking.distances
    keep = ranking.ids != exclude_id
    named = keep.size - np.count_nonzero(keep)
    if named != 1:
        raise ValueError(f"exclude id {exclude_id} names {named} table rows, "
                         "expected exactly 1")
    return ranking.labels[keep], ranking.distances[keep]


def precision_recall_curve(query_code: np.ndarray, table: CodeTable,
                           query_label: int,
                           exclude_id: int | None = None) -> PRCurve:
    """Precision/recall per Hamming radius for one query against the table.

    exclude_id, when given, must name exactly one table row, which is left out.
    """
    if len(table) == 0:
        raise ValueError("precision-recall curve needs a nonempty table")
    labels, distances = _ranked(query_code, table, exclude_id)
    return _pr_by_radius(distances, labels == query_label, table.code_bits)


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

    @property
    def pr_points(self) -> list[tuple[float, float]]:
        return list(zip(self.pr_precision.tolist(), self.pr_recall.tolist()))


def evaluate(table: CodeTable, query_codes: np.ndarray,
             query_labels: np.ndarray,
             query_predicted: np.ndarray | None = None,
             exclude_ids: np.ndarray | None = None,
             ks: np.ndarray | None = None) -> EvalReport:
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
    depth = len(table) - (0 if exclude_ids is None else 1)
    if ks is None:
        ks = np.arange(1, depth + 1)
    else:
        ks = np.asarray(ks, dtype=np.int64)
        if ks.size == 0 or ks.min() < 1 or ks.max() > depth:
            raise ValueError(f"ks must lie in [1, {depth}]")

    aps = np.empty(nq)
    prec_sum = np.zeros(ks.size)
    rec_sum = np.zeros(ks.size)
    pr_prec_sum = np.zeros(table.code_bits + 1)
    pr_rec_sum = np.zeros(table.code_bits + 1)
    vacuous_counts = np.zeros(table.code_bits + 1, dtype=np.int64)
    zero_relevant = 0

    for q in range(nq):
        labels, distances = _ranked(
            query_codes[q], table, None if exclude_ids is None else exclude_ids[q])
        flags = labels == query_labels[q]
        rel = RelevanceList(flags, int(flags.sum()))
        if rel.total_relevant == 0:
            zero_relevant += 1
        aps[q] = average_precision(rel)
        hits_prefix = np.cumsum(flags)
        prec_sum += hits_prefix[ks - 1] / ks
        if rel.total_relevant > 0:
            rec_sum += hits_prefix[ks - 1] / rel.total_relevant
        curve = _pr_by_radius(distances, flags, table.code_bits)
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


def write_report_json(report: EvalReport, path) -> None:
    doc = {
        "map": report.map,
        "oa": report.oa,
        "num_queries": report.num_queries,
        "zero_relevant_queries": report.zero_relevant_queries,
        "precision_at": {int(k): p for k, p in
                         zip(report.ks, report.precision_at)},
        "recall_at": {int(k): r for k, r in zip(report.ks, report.recall_at)},
        "pr_points": [
            {"radius": t, "precision": p, "recall": r, "vacuous_queries": int(v)}
            for t, (p, r, v) in enumerate(
                zip(report.pr_precision, report.pr_recall,
                    report.vacuous_radius_counts))
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def write_curve_csvs(report: EvalReport, out_dir) -> None:
    out_dir = Path(out_dir)
    with open(out_dir / "curve_topk.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "precision", "recall"])
        for k, p, r in zip(report.ks, report.precision_at, report.recall_at):
            writer.writerow([int(k), f"{p:.10f}", f"{r:.10f}"])
    with open(out_dir / "curve_radius.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["radius", "precision", "recall", "vacuous_queries"])
        for t, (p, r, v) in enumerate(zip(report.pr_precision,
                                          report.pr_recall,
                                          report.vacuous_radius_counts)):
            writer.writerow([t, f"{p:.10f}", f"{r:.10f}", int(v)])
