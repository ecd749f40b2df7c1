"""Retrieval and classification metrics.

Average precision over a ranked list, MAP over a query set, precision/recall
at k, precision-recall points per Hamming search radius, and overall
classification accuracy. Precision of an empty radius set is defined as 1.0
(vacuous) and such points are counted in the report rather than silently
averaged away.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._files import atomic_open
from .errors import DimensionError
from .index import CodeTable, hamming_distance, per_group, rank_all


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


def _pr_by_radius(counts: np.ndarray, hit_ranks: np.ndarray) -> PRCurve:
    # the radius-t set is a prefix of the ranking: counts[t] is its size, its
    # hits the number of hit ranks below that size
    hits = np.searchsorted(hit_ranks, counts)
    vacuous = counts == 0
    precision = np.where(vacuous, 1.0, hits / np.maximum(counts, 1))
    # with no hit ranks every hit count is 0, so recall is 0 at every radius
    recall = hits / max(hit_ranks.size, 1)
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


# The shared tail is summed this many ranks by at most this many queries at a
# time: a block of quotients stays within 1 MiB.
_TAIL_COLUMNS = 512
_TAIL_ROWS = 255


def _add_tail(prec_sum: np.ndarray, rec_sum: np.ndarray, relevant: np.ndarray,
              start: int, stop: int, k_float: np.ndarray) -> None:
    """Add the terms, on ranks [start, stop), of queries that are all at or
    past their last hit there; relevant holds their hit counts R in query
    order.

    Nothing has been added on those ranks yet. Each query adds R/k to
    precision and exactly 1.0 to recall, so rec_sum is a count and prec_sum a
    sum in query order. Queries of one label mostly share R, so a group's
    distinct R are divided once per block and gathered into query order,
    under a first row that carries the sum of the groups before. numpy
    reduces a block of two or more columns along axis 0 one row after
    another. It would sum one column pairwise, so a lone rank is reduced with
    its right neighbour (k_float runs one rank past the table) and the
    neighbour's sum dropped.
    """
    if relevant.size == 0:
        return
    rec_sum[start:stop] = relevant.size
    groups = []
    for first in range(0, relevant.size, _TAIL_ROWS):
        values, picks = np.unique(relevant[first:first + _TAIL_ROWS],
                                  return_inverse=True)
        groups.append((values[:, None], np.concatenate(([0], picks + 1))))
    for lo in range(start, stop, _TAIL_COLUMNS):
        hi = min(lo + _TAIL_COLUMNS, stop)
        k = k_float[lo:max(hi, lo + 2)]
        total = 0.0
        for values, picks in groups:
            quotients = np.empty((values.shape[0] + 1, k.size))
            quotients[0] = total
            np.divide(values, k, out=quotients[1:])
            total = np.add.reduce(quotients[picks], axis=0)
        prec_sum[lo:hi] = total[:hi - lo]


@dataclass
class _CodeRanking:
    """What the queries sharing one code keep of its full ranking.

    counts[t] is the number of rows within radius t, hit_ranks maps each query
    label to the ranks of the rows with that label, and excluded maps each
    row a query leaves out to its rank and distance.
    """

    counts: np.ndarray
    hit_ranks: dict
    excluded: dict


def _rank_code(query_code: np.ndarray, table: CodeTable, labels,
               exclude_rows: list) -> _CodeRanking:
    """Rank the table once for a code, with the hit ranks of each label."""
    ranking = rank_all(query_code, table)
    # radii in the distances' own dtype, so searchsorted does not widen them
    radii = np.arange(table.code_bits + 1, dtype=ranking.distances.dtype)
    counts = np.searchsorted(ranking.distances, radii, side="right")
    hit_ranks = {label: np.flatnonzero(ranking.labels == label)
                 for label in labels}
    excluded = {}
    for row in exclude_rows:
        # ties keep table order, so the row sits in the ranking's block of
        # rows at its distance, which run in ascending table order
        distance = hamming_distance(query_code, table.codes[row])
        first = int(counts[distance - 1]) if distance else 0
        block = ranking.order[first:counts[distance]]
        excluded[row] = first + int(np.searchsorted(block, row)), distance
    return _CodeRanking(counts, hit_ranks, excluded)


def _query_pass(code: _CodeRanking, label,
                exclude_row: int | None) -> tuple[np.ndarray, PRCurve]:
    """The hit ranks and precision/recall curve of one query with this code
    and label, as if exclude_row had been left out of the table."""
    hit_ranks, counts = code.hit_ranks[label], code.counts
    if exclude_row is not None:
        # drop the row's rank if it is a hit, move later hits up by one, and
        # take the row out of every radius that holds it
        rank, distance = code.excluded[exclude_row]
        at = int(np.searchsorted(hit_ranks, rank))
        later = at + int(at < hit_ranks.size and hit_ranks[at] == rank)
        hit_ranks = np.concatenate([hit_ranks[:at], hit_ranks[later:] - 1])
        counts = counts - (np.arange(counts.size) >= distance)
    return hit_ranks, _pr_by_radius(counts, hit_ranks)


def precision_recall_curve(query_code: np.ndarray, table: CodeTable,
                           query_label: int) -> PRCurve:
    """Precision/recall per Hamming radius for one query against the table."""
    if len(table) == 0:
        raise ValueError("precision-recall curve needs a nonempty table")
    code = _rank_code(query_code, table, [query_label], [])
    return _query_pass(code, query_label, None)[1]


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

    Queries with equal codes share one full ranking of the table: per_group
    ranks each distinct code once and keeps what its queries need of the
    ranking until its last query. Leave-one-out is applied to that shared
    ranking per query, and every sum accumulates in query order, so the
    report's bytes are those of ranking each query on its own.

    A query's precision@k and recall@k terms are +0.0 before its first hit,
    and adding them changes no sum, so they are skipped. From its last hit
    on they are R/k and exactly 1.0, R its hit count. Ranks from the
    frontier, the latest last hit so far, are at or past every earlier
    query's last hit, so they wait. A query whose last hit lies beyond the frontier
    first moves it there, summing the waiting ranks it passes for the
    earlier queries (`_add_tail`), then adds its own terms from its first
    hit to the frontier. The ranks from the final frontier on are summed
    once at the end.
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
        exclude_rows = _table_rows(table, np.asarray(exclude_ids)).tolist()
    depth = len(table) - (0 if exclude_ids is None else 1)
    ks = np.arange(1, depth + 1)
    # float64 operands divide exactly as the integer counts would, and the
    # quotients go through one reused buffer; k_float runs one rank past
    # depth for _add_tail
    k_float = np.arange(1, depth + 2, dtype=np.float64)
    quotient = np.empty(ks.size)

    # hit ranks are keyed by these objects, so a nan label finds its own
    labels = query_labels.tolist()

    def rank_code(queries: list) -> _CodeRanking:
        # the labels and left-out rows of the queries that share a code
        return _rank_code(query_codes[queries[0]], table,
                          {labels[q] for q in queries},
                          [exclude_rows[q] for q in queries if exclude_rows])

    aps = np.empty(nq)
    prec_sum = np.zeros(ks.size)
    rec_sum = np.zeros(ks.size)
    pr_prec_sum = np.zeros(table.code_bits + 1)
    pr_rec_sum = np.zeros(table.code_bits + 1)
    vacuous_counts = np.zeros(table.code_bits + 1, dtype=np.int64)
    zero_relevant = 0
    # ranks from the frontier on are at or past every kept query's last hit;
    # the kept queries are those with hits, relevant[:kept] their hit counts
    frontier = 0
    relevant = np.empty(nq)
    kept = 0

    ranked = per_group(query_codes, rank_code)
    for q, (code, label) in enumerate(zip(ranked, labels)):
        hit_ranks, curve = _query_pass(
            code, label, None if exclude_rows is None else exclude_rows[q])
        aps[q] = _average_precision(hit_ranks)
        pr_prec_sum += curve.precision
        pr_rec_sum += curve.recall
        vacuous_counts += curve.vacuous
        total_relevant = hit_ranks.size
        if total_relevant == 0:
            zero_relevant += 1
            continue
        # before its first hit a query adds +0.0, which changes no sum
        first, last = int(hit_ranks[0]), int(hit_ranks[-1])
        if last > frontier:
            _add_tail(prec_sum, rec_sum, relevant[:kept], frontier, last,
                      k_float)
            frontier = last
        hits_at = np.repeat(np.arange(1, total_relevant + 1, dtype=np.float64),
                            np.diff(hit_ranks, append=frontier))
        span = slice(first, frontier)
        prec_sum[span] += np.divide(hits_at, k_float[span],
                                    out=quotient[:hits_at.size])
        rec_sum[span] += np.divide(hits_at, total_relevant,
                                   out=quotient[:hits_at.size])
        relevant[kept] = total_relevant
        kept += 1
    _add_tail(prec_sum, rec_sum, relevant[:kept], frontier, depth, k_float)

    oa = None
    if query_predicted is not None:  # its shape (nq,) is checked above
        oa = float(np.mean(np.asarray(query_predicted) == query_labels))
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


# Rows are rendered and written this many at a time, so a writer never holds
# the whole file as one string.
_CHUNK_ROWS = 8192
# Digits come from integers y < 2**34 in float64, where floor(y * 0.1) is
# floor(y / 10). Below 2**34, x * 1e10 lies within 2**-20 of x * 10**10; more
# than 2**-18 from a tie, its rint is the half-even integer '%.10f' % x prints.
_FIXED_LIMIT = 2.0**34
_TIE_MARGIN = 2.0**-18


def _render(row_format: str, columns) -> bytes:
    """row_format for each row of the columns, which fill its %d and %.10f
    fields in order, as one (rows, width) byte matrix whose 0 bytes are
    dropped. A field ends in its value's digits, for %.10f those of
    rint(x * 1e10) with a point before the last ten. Any other value
    (negative, -0.0, nan, inf, too large, near a tie) is formatted by % into
    the same matrix, its field widened to fit.
    """
    rows, width, constants, fields = len(columns[0]), 0, [], []
    for i, part in enumerate(re.split(r"(%d|%\.10f)", row_format)):
        if i % 2 == 0:
            constants.append((width, part.encode()))
            width += len(part)
            continue
        values = np.asarray(columns[i // 2])
        if part == "%d":
            frac, y = 0, values.astype(np.float64)
        else:  # clipped below any overflow; y = x * 1e10 wherever it is ok
            frac, y = 10, np.clip(values, -2.0, 2.0) * 1e10
        ok = ~np.signbit(y) & (y < _FIXED_LIMIT)
        y[~ok] = 0.0
        ok &= np.abs(y - np.floor(y) - 0.5) > _TIE_MARGIN
        np.rint(y, out=y)
        bad = np.flatnonzero(~ok)
        texts = [part.encode() % v for v in values[bad].tolist()]
        digits = max(frac + 1, len("%d" % y.max(initial=0)))
        span = max([digits + (frac > 0)] + [len(t) for t in texts])
        fields.append((width, width + span, y, frac, digits, bad, texts))
        width += span
    matrix = np.zeros((rows, width), np.uint8)
    for start, text in constants:
        matrix[:, start:start + len(text)] = np.frombuffer(text, np.uint8)
    q, digit = np.empty(rows), np.empty(rows)
    for start, stop, y, frac, digits, bad, texts in fields:
        for i in range(digits):  # y is floor(n / 10**i), n the field's integer
            np.floor(np.multiply(y, 0.1, out=q), out=q)
            np.subtract(y, np.multiply(q, 10, out=digit), out=digit)
            digit += ord("0")
            if i > frac:
                digit *= y > 0  # blank a leading digit beyond the value's own
            matrix[:, stop - 1 - i - (0 < frac <= i)] = digit
            y, q = q, y
        if frac:
            matrix[:, stop - 1 - frac] = ord(".")
        matrix[bad, start:stop] = 0
        for row, text in zip(bad.tolist(), texts):
            matrix[row, start:start + len(text)] = np.frombuffer(text, np.uint8)
    return matrix.tobytes().replace(b"\0", b"")


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
    with atomic_open(path) as fh:
        fh.write(head[:-2].encode() + b",\n")  # drop the closing "\n}"
        for name, values in (("precision_at", report.precision_at),
                             ("recall_at", report.recall_at)):
            fh.write(f'  "{name}": {{'.encode())
            for start in range(0, report.ks.size, _CHUNK_ROWS):
                rows = slice(start, start + _CHUNK_ROWS)
                # a row opens with the comma that ends the row before it; the
                # bytes template's %r writes each float's repr
                template = _render(',\n    "%d": %r', [report.ks[rows]])
                fh.write(template[0 if start else 1:]
                         % tuple(values[rows].tolist()))
            fh.write(b"\n  },\n" if report.ks.size else b"},\n")
        fh.write(tail[2:].encode() + b"\n")  # drop the opening "{\n"


def write_curve_csvs(report: EvalReport, out_dir) -> None:
    """curve_topk.csv and curve_radius.csv: 10 decimals, CRLF line ends."""
    out_dir = Path(out_dir)
    for name, header, row_format, columns in (
            ("curve_topk.csv", b"k,precision,recall", "%d,%.10f,%.10f\r\n",
             (report.ks, report.precision_at, report.recall_at)),
            ("curve_radius.csv", b"radius,precision,recall,vacuous_queries",
             "%d,%.10f,%.10f,%d\r\n",
             (np.arange(report.pr_precision.size), report.pr_precision,
              report.pr_recall, report.vacuous_radius_counts))):
        with atomic_open(out_dir / name) as fh:
            fh.write(header + b"\r\n")
            for start in range(0, len(columns[0]), _CHUNK_ROWS):
                fh.write(_render(row_format, [c[start:start + _CHUNK_ROWS]
                                              for c in columns]))
