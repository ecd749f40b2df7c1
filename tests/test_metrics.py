import csv
import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jointhash.metrics
from jointhash.errors import DimensionError
from jointhash.index import CodeTable, radius_search, rank_all
from jointhash.metrics import (
    EvalReport,
    PRCurve,
    RelevanceList,
    average_precision,
    evaluate,
    mean_average_precision,
    overall_accuracy,
    precision_at_k,
    precision_recall_curve,
    recall_at_k,
    write_curve_csvs,
    write_report_json,
)
from jointhash.model import pack_codes


def oracle_average_precision(flags):
    """Oracle: the MAP double sum evaluated literally for one query.

    (1/n_i) * sum over relevant ranks j of P(i, j), with P the precision of
    the top-j list.
    """
    flags = list(flags)
    n = sum(flags)
    if n == 0:
        return 0.0
    total = 0.0
    for j in range(1, len(flags) + 1):
        if flags[j - 1]:
            total += sum(flags[:j]) / j
    return total / n


def oracle_evaluate(signs, labels, ids, query_signs, query_labels,
                    exclude_ids=None):
    """Oracle: every evaluate field by plain loops over queries and items.

    Items are ranked by (unpacked Hamming distance, table row), leaving out
    the row whose id is the query's exclude id.
    """
    n, code_bits = signs.shape
    nq = len(query_labels)
    depth = n - (0 if exclude_ids is None else 1)
    ks = list(range(1, depth + 1))
    out = {"ks": ks, "map": 0.0, "precision_at": [0.0] * len(ks),
           "recall_at": [0.0] * len(ks), "pr_precision": [0.0] * (code_bits + 1),
           "pr_recall": [0.0] * (code_bits + 1), "vacuous": [0] * (code_bits + 1),
           "zero_relevant": 0}
    for q in range(nq):
        items = [i for i in range(n)
                 if exclude_ids is None or ids[i] != exclude_ids[q]]
        dist = {i: int(np.sum(signs[i] != query_signs[q])) for i in items}
        ranked = sorted(items, key=lambda i: (dist[i], i))
        flags = [bool(labels[i] == query_labels[q]) for i in ranked]
        total = sum(flags)
        out["zero_relevant"] += total == 0
        out["map"] += oracle_average_precision(flags) / nq
        for j, k in enumerate(ks):
            out["precision_at"][j] += sum(flags[:k]) / k / nq
            if total:
                out["recall_at"][j] += sum(flags[:k]) / total / nq
        for t in range(code_bits + 1):
            within = [f for i, f in zip(ranked, flags) if dist[i] <= t]
            if within:
                out["pr_precision"][t] += sum(within) / len(within) / nq
            else:
                out["pr_precision"][t] += 1.0 / nq
                out["vacuous"][t] += 1
            if total:
                out["pr_recall"][t] += sum(within) / total / nq
    return out


def rel(flags, r=None):
    flags = np.asarray(flags, dtype=bool)
    return RelevanceList(flags, int(flags.sum()) if r is None else r)


class TestAveragePrecision:
    def test_spec_example(self):
        assert abs(average_precision(rel([1, 0, 1])) - 5 / 6) < 1e-12

    def test_all_relevant_prefix(self):
        assert average_precision(rel([1, 1, 1])) == 1.0

    def test_single_late_hit(self):
        assert abs(average_precision(rel([0, 0, 1])) - 1 / 3) < 1e-12

    def test_zero_relevant_defined_as_zero(self):
        assert average_precision(rel([0, 0, 0])) == 0.0

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            flags = rng.random(int(rng.integers(1, 30))) < 0.4
            assert abs(average_precision(rel(flags))
                       - oracle_average_precision(flags)) < 1e-12

    def test_irrelevant_tail_permutation_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            flags = (rng.random(20) < 0.3).astype(int).tolist()
            if not any(flags):
                flags[3] = 1
            last = max(i for i, f in enumerate(flags) if f)
            tail = flags[last + 1:]
            rng.shuffle(tail)
            assert average_precision(rel(flags)) == pytest.approx(
                average_precision(rel(flags[:last + 1] + tail)), abs=1e-15
            )


class TestMeanAveragePrecision:
    def test_single_query(self):
        q = rel([1, 0, 1])
        assert mean_average_precision([q]) == average_precision(q)

    def test_two_queries(self):
        assert mean_average_precision([rel([1, 1]), rel([0, 1])]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_average_precision([])

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            queries = [rel(rng.random(int(rng.integers(1, 15))) < 0.5)
                       for _ in range(int(rng.integers(1, 8)))]
            expected = np.mean([oracle_average_precision(q.flags)
                                for q in queries])
            assert abs(mean_average_precision(queries) - expected) < 1e-12


class TestPrecisionRecallAtK:
    def test_precision_example(self):
        assert precision_at_k(rel([1, 0, 1, 1, 0]), 5) == 0.6

    def test_precision_first_hit(self):
        assert precision_at_k(rel([1, 0]), 1) == 1.0

    def test_recall_example(self):
        assert recall_at_k(rel([1, 1, 1, 0, 0], r=4), 5) == 0.75

    def test_recall_reaches_one_full_depth(self):
        flags = [0, 1, 0, 1, 1]
        assert recall_at_k(rel(flags), len(flags)) == 1.0

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 25))
            flags = rng.random(n) < 0.4
            r = int(flags.sum()) + int(rng.integers(0, 3))
            k = int(rng.integers(1, n + 1))
            hits = int(sum(flags[:k]))
            assert precision_at_k(rel(flags, r or 1), k) == hits / k
            if r >= 1:
                assert recall_at_k(rel(flags, r), k) == hits / r

    def test_recall_monotone_in_k(self):
        flags = rel([0, 1, 0, 0, 1, 1, 0])
        values = [recall_at_k(flags, k) for k in range(1, 8)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_bounds(self):
        with pytest.raises(ValueError):
            precision_at_k(rel([1, 0]), 3)
        with pytest.raises(ValueError):
            recall_at_k(rel([0, 0], r=0), 1)


def build_table(signs, labels):
    return CodeTable(
        codes=np.atleast_2d(pack_codes(signs)),
        ids=np.arange(len(labels)),
        labels=np.asarray(labels),
        predicted=np.asarray(labels),
        code_bits=signs.shape[1],
    )


class TestPrecisionRecallCurve:
    def test_final_radius_covers_database(self):
        rng = np.random.default_rng(4)
        k = 8
        signs = np.where(rng.random((30, k)) > 0.5, 1, -1)
        labels = rng.integers(0, 3, 30)
        table = build_table(signs, labels)
        query = pack_codes(np.where(rng.random(k) > 0.5, 1, -1))
        curve = precision_recall_curve(query, table, query_label=1)
        r = int((labels == 1).sum())
        assert curve.precision[k] == pytest.approx(r / 30)
        assert curve.recall[k] == 1.0

    def test_radius_zero_single_match(self):
        signs = np.array([[1, 1], [1, -1], [-1, -1]])
        labels = np.array([0, 0, 1])
        table = build_table(signs, labels)
        curve = precision_recall_curve(pack_codes(np.array([1, 1])), table,
                                       query_label=0)
        assert curve.precision[0] == 1.0
        assert curve.recall[0] == 0.5  # one of two same-class items

    def test_matches_radius_search_oracle(self):
        rng = np.random.default_rng(5)
        k = 10
        signs = np.where(rng.random((40, k)) > 0.5, 1, -1)
        labels = rng.integers(0, 4, 40)
        table = build_table(signs, labels)
        qsigns = np.where(rng.random(k) > 0.5, 1, -1)
        query = pack_codes(qsigns)
        qlabel = 2
        curve = precision_recall_curve(query, table, query_label=qlabel)
        r = int((labels == qlabel).sum())
        for t in range(k + 1):
            ids = radius_search(query, table, t)
            hits = sum(1 for i in ids if labels[i] == qlabel)
            if ids:
                assert curve.precision[t] == pytest.approx(hits / len(ids))
            else:
                assert curve.precision[t] == 1.0 and curve.vacuous[t]
            assert curve.recall[t] == pytest.approx(hits / r)

    def test_recall_non_decreasing(self):
        rng = np.random.default_rng(6)
        signs = np.where(rng.random((25, 6)) > 0.5, 1, -1)
        table = build_table(signs, rng.integers(0, 2, 25))
        curve = precision_recall_curve(
            pack_codes(np.where(rng.random(6) > 0.5, 1, -1)), table, 0)
        assert np.all(np.diff(curve.recall) >= 0)


class TestOverallAccuracy:
    def test_all_correct(self):
        assert overall_accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_none_correct(self):
        assert overall_accuracy([1, 1], [0, 2]) == 0.0

    def test_half(self):
        assert overall_accuracy([0] * 5 + [1] * 5, [0] * 10) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            overall_accuracy([1], [1, 2])


class TestEvaluate:
    def test_hand_built_five_item_table(self):
        # query code 11; distances: 0,0,1,2,2 -> ranked ids 0,1,2,3,4
        signs = np.array([[1, 1], [1, 1], [1, -1], [-1, -1], [-1, -1]])
        labels = np.array([0, 1, 0, 0, 1])
        table = build_table(signs, labels)
        query = pack_codes(np.array([1, 1]))
        report = evaluate(table, query, np.array([0]),
                          query_predicted=np.array([0]))
        # relevance flags in ranked order: 1,0,1,1,0 ; AP = (1 + 2/3 + 3/4)/3
        assert report.map == pytest.approx((1 + 2 / 3 + 3 / 4) / 3)
        assert report.precision_at.tolist() == pytest.approx(
            [1.0, 0.5, 2 / 3, 0.75, 0.6])
        assert report.recall_at.tolist() == pytest.approx(
            [1 / 3, 1 / 3, 2 / 3, 1.0, 1.0])
        assert report.oa == 1.0

    def test_leave_one_out_exclusion(self):
        signs = np.array([[1, 1], [1, -1], [-1, -1]])
        labels = np.array([0, 0, 1])
        table = build_table(signs, labels)
        query = pack_codes(np.array([1, 1]))
        full = evaluate(table, query, np.array([0]))
        loo = evaluate(table, query, np.array([0]),
                       exclude_ids=np.array([0]))
        # with itself excluded the only same-class item sits at rank 1
        assert loo.map == 1.0
        assert full.map == pytest.approx((1 + 1) / 2)


    @pytest.mark.parametrize("code_bits", [5, 48, 70])
    @pytest.mark.parametrize("mode", ["plain", "leave_one_out"])
    def test_matches_double_loop_oracle(self, code_bits, mode):
        rng = np.random.default_rng(code_bits)
        signs = np.where(rng.random((40, code_bits)) > 0.5, 1, -1)
        signs[20:30] = signs[:10]  # duplicate codes force distance ties
        labels = rng.integers(0, 3, 40)
        ids = rng.permutation(100)[:40]
        table = CodeTable(np.atleast_2d(pack_codes(signs)), ids, labels,
                          labels, code_bits)
        rows = np.array([3, 17, 25, 39])
        query_labels = labels[rows].copy()
        query_labels[1] = 7  # no relevant item
        exclude = None if mode == "plain" else ids[rows]
        report = evaluate(table, np.atleast_2d(pack_codes(signs[rows])),
                          query_labels, exclude_ids=exclude)
        want = oracle_evaluate(signs, labels, ids, signs[rows], query_labels,
                               exclude)
        assert report.ks.tolist() == want["ks"]
        for name in ("precision_at", "recall_at", "pr_precision",
                     "pr_recall"):
            np.testing.assert_allclose(getattr(report, name), want[name],
                                       rtol=0, atol=1e-12, err_msg=name)
        assert report.map == pytest.approx(want["map"], abs=1e-12)
        assert report.vacuous_radius_counts.tolist() == want["vacuous"]
        assert report.zero_relevant_queries == want["zero_relevant"] == 1
        assert report.num_queries == 4

    def test_curve_is_evaluate_of_one_query(self):
        rng = np.random.default_rng(11)
        signs = np.where(rng.random((30, 12)) > 0.5, 1, -1)
        signs[15:] = signs[:15]
        labels = rng.integers(0, 3, 30)
        table = build_table(signs, labels)
        for row in (0, 7, 29):
            code = pack_codes(signs[row])
            curve = precision_recall_curve(code, table, labels[row])
            report = evaluate(table, code, labels[row:row + 1])
            assert np.array_equal(report.pr_precision, curve.precision)
            assert np.array_equal(report.pr_recall, curve.recall)
            assert np.array_equal(report.vacuous_radius_counts,
                                  curve.vacuous.astype(np.int64))

    def test_exclude_ids_one_per_query(self):
        table = build_table(np.array([[1, 1], [1, -1], [-1, -1]]),
                            np.array([0, 0, 1]))
        queries = np.atleast_2d(pack_codes(np.array([[1, 1], [-1, 1]])))
        with pytest.raises(DimensionError):
            evaluate(table, queries, np.array([0, 1]),
                     exclude_ids=np.array([0]))

    def test_exclude_id_naming_no_row(self):
        table = build_table(np.array([[1, 1], [1, -1], [-1, -1]]),
                            np.array([0, 0, 1]))
        with pytest.raises(ValueError, match="names 0 table rows"):
            evaluate(table, pack_codes(np.array([1, 1])), np.array([0]),
                     exclude_ids=np.array([7]))

    def test_exclude_id_naming_two_rows(self):
        table = CodeTable(np.atleast_2d(pack_codes(np.array([[1, 1], [1, -1],
                                                             [-1, -1]]))),
                          ids=np.array([4, 4, 5]), labels=np.array([0, 0, 1]),
                          predicted=np.array([0, 0, 1]), code_bits=2)
        with pytest.raises(ValueError, match="names 2 table rows"):
            evaluate(table, pack_codes(np.array([1, 1])), np.array([0]),
                     exclude_ids=np.array([4]))

    @pytest.mark.parametrize("query_labels, query_predicted", [
        (np.array([0]), None),
        (np.array([0, 1, 0, 1, 0]), None),
        (np.array([0, 1, 0]), np.array([0, 1])),
    ], ids=["too_few_labels", "too_many_labels", "short_predicted"])
    def test_per_query_lengths_checked_before_ranking(self, query_labels,
                                                      query_predicted,
                                                      monkeypatch):
        table = build_table(np.array([[1, 1], [1, -1], [-1, -1]]),
                            np.array([0, 0, 1]))
        queries = np.atleast_2d(pack_codes(np.array([[1, 1], [-1, 1], [1, -1]])))

        def no_ranking(*args, **kwargs):
            raise AssertionError("ranked before validating its inputs")

        monkeypatch.setattr("jointhash.metrics.rank_all", no_ranking)
        with pytest.raises(DimensionError):
            evaluate(table, queries, query_labels,
                     query_predicted=query_predicted)

    def test_zero_relevant_counted(self):
        signs = np.array([[1, 1], [1, -1]])
        table = build_table(signs, np.array([0, 0]))
        report = evaluate(table, pack_codes(np.array([1, 1])), np.array([5]))
        assert report.map == 0.0
        assert report.zero_relevant_queries == 1

    def test_report_files(self, tmp_path):
        rng = np.random.default_rng(7)
        signs = np.where(rng.random((12, 4)) > 0.5, 1, -1)
        labels = rng.integers(0, 3, 12)
        table = build_table(signs, labels)
        qsigns = np.where(rng.random((3, 4)) > 0.5, 1, -1)
        report = evaluate(table, np.atleast_2d(pack_codes(qsigns)),
                          labels[:3], query_predicted=labels[:3])
        write_report_json(report, tmp_path / "report.json")
        write_curve_csvs(report, tmp_path)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["map"] == pytest.approx(report.map)
        assert doc["oa"] == 1.0
        with open(tmp_path / "curve_radius.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5  # radius 0..4
        recalls = [float(r["recall"]) for r in rows]
        assert recalls == sorted(recalls)
        with open(tmp_path / "curve_topk.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12

    def test_all_metrics_within_unit_interval(self):
        rng = np.random.default_rng(8)
        signs = np.where(rng.random((20, 6)) > 0.5, 1, -1)
        labels = rng.integers(0, 2, 20)
        table = build_table(signs, labels)
        qsigns = np.where(rng.random((5, 6)) > 0.5, 1, -1)
        report = evaluate(table, np.atleast_2d(pack_codes(qsigns)),
                          rng.integers(0, 2, 5))
        for arr in (report.precision_at, report.recall_at,
                    report.pr_precision, report.pr_recall):
            assert np.all(arr >= 0) and np.all(arr <= 1)
        assert 0 <= report.map <= 1


def reference_evaluate(table, query_codes, query_labels, query_predicted=None,
                       exclude_ids=None):
    """Reference: evaluate as it was with one full ranking per query.

    A verbatim copy of that per-query loop and the helpers it called; ranking
    shared between queries with equal codes must match it bit for bit.
    """
    def _average_precision(hit_ranks):
        if hit_ranks.size == 0:
            return 0.0
        precisions = np.arange(1, hit_ranks.size + 1) / (hit_ranks + 1)
        return float(precisions.mean())

    def _pr_by_radius(distances, hit_ranks, code_bits):
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

    def _table_rows(table, ids):
        sorter = np.argsort(table.ids, kind="stable")
        sorted_ids = table.ids[sorter]
        first = np.searchsorted(sorted_ids, ids, side="left")
        return sorter[first]

    def _hits_prefix(hit_ranks, depth):
        run_lengths = np.diff(hit_ranks, prepend=0, append=depth)
        return np.repeat(np.arange(hit_ranks.size + 1, dtype=np.float64),
                         run_lengths)

    def _query_pass(query_code, table, query_label, exclude_row):
        ranking = rank_all(query_code, table)
        order, distances = ranking.order, ranking.distances
        if exclude_row is not None:
            at = np.flatnonzero(order == exclude_row)[0]
            order = np.delete(order, at)
            distances = np.delete(distances, at)
        hit_ranks = np.flatnonzero((table.labels == query_label)[order])
        return hit_ranks, _pr_by_radius(distances, hit_ranks, table.code_bits)

    query_codes = np.atleast_2d(np.asarray(query_codes, dtype=np.uint64))
    query_labels = np.asarray(query_labels)
    nq = query_codes.shape[0]
    exclude_rows = None
    if exclude_ids is not None:
        exclude_rows = _table_rows(table, np.asarray(exclude_ids))
    depth = len(table) - (0 if exclude_ids is None else 1)
    ks = np.arange(1, depth + 1)
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


def assert_same_report(got, want):
    """Every EvalReport field equal in value, dtype and shape."""
    for field in fields(EvalReport):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, field.name
            assert np.array_equal(a, b), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


def count_rankings(monkeypatch):
    """Count evaluate's calls of rank_all; returns the list of calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return rank_all(*args, **kwargs)

    monkeypatch.setattr(jointhash.metrics, "rank_all", counted)
    return calls


def shared_code_case(name, code_bits):
    """(table, query codes, query labels, predicted, exclude ids) of a case.

    The table's 60 rows are 4 centre codes with a little bit noise, so many
    rows tie; its ids are not its row numbers.
    """
    rng = np.random.default_rng([code_bits, len(name)])
    n = 60
    centres = np.where(rng.random((4, code_bits)) > 0.5, 1, -1)
    signs = centres[rng.integers(0, 4, n)]
    signs[rng.random(signs.shape) < 0.05] *= -1
    labels = rng.integers(0, 3, n)
    ids = rng.permutation(1000)[:n]
    table = CodeTable(np.atleast_2d(pack_codes(signs)), ids, labels,
                      labels, code_bits)
    pick = {
        "one_code": [0] * 8,
        "interleaved": [0, 1, 0, 2, 1, 0, 3, 2, 3, 1],
        "two_labels": [1] * 6,
        "one_query": [2],
    }
    if name == "distinct":
        qsigns = np.where(rng.random((8, code_bits)) > 0.5, 1, -1)
        qsigns[0, 0], qsigns[1, 0] = 1, -1  # at least two codes even at K=1
    else:
        qsigns = centres[pick[name]]
    nq = len(qsigns)
    qlabels = rng.integers(0, 3, nq)
    if name == "two_labels":
        qlabels = np.array([0, 1, 0, 1, 0, 5])  # 5 labels no row
    exclude = ids[rng.choice(n, nq, replace=False)]
    return table, np.atleast_2d(pack_codes(qsigns)), qlabels, qlabels, exclude


def excluded_row_case(name):
    """Queries that all share one code, each leaving out a row of one kind."""
    rng = np.random.default_rng(len(name))
    n, code_bits = 40, 10
    signs = np.where(rng.random((n, code_bits)) > 0.5, 1, -1)
    signs[10:20] = signs[0]
    labels = rng.integers(0, 3, n)
    table = build_table(signs, labels)
    query = signs[0]
    distance = (signs != query).sum(axis=1)
    qlabels = np.array([0, 1, 2, 0, 1, 2])
    if name == "irrelevant":
        rows = [int(np.flatnonzero(labels != lab)[i])
                for i, lab in enumerate(qlabels)]
    elif name == "nonzero_distance":
        rows = np.flatnonzero(distance > 0)[[0, 3, 5, 8, 13, 21]]
    else:  # first and last table rows
        rows = [0, n - 1, 0, n - 1, n - 1, 0]
    codes = np.atleast_2d(pack_codes(np.tile(query, (len(qlabels), 1))))
    return table, codes, qlabels, None, np.asarray(rows)


class TestSharedRankings:
    """evaluate ranks each distinct query code once and matches the reference
    per-query loop bit for bit."""

    @staticmethod
    def check(monkeypatch, table, codes, labels, predicted, exclude):
        want = reference_evaluate(table, codes, labels, predicted, exclude)
        calls = count_rankings(monkeypatch)
        got = evaluate(table, codes, labels, query_predicted=predicted,
                       exclude_ids=exclude)
        assert_same_report(got, want)
        assert len(calls) == len(np.unique(codes, axis=0))

    @pytest.mark.parametrize("code_bits", [1, 12, 70])
    @pytest.mark.parametrize("name", ["one_code", "distinct", "interleaved",
                                      "two_labels", "one_query"])
    @pytest.mark.parametrize("mode", ["plain", "leave_one_out"])
    def test_equal_to_per_query_reference(self, monkeypatch, name, code_bits,
                                          mode):
        table, codes, labels, predicted, exclude = shared_code_case(
            name, code_bits)
        self.check(monkeypatch, table, codes, labels, predicted,
                   exclude if mode == "leave_one_out" else None)

    @pytest.mark.parametrize("name", ["irrelevant", "nonzero_distance",
                                      "first_and_last"])
    def test_excluded_row_kinds(self, monkeypatch, name):
        self.check(monkeypatch, *excluded_row_case(name))

    @pytest.mark.parametrize("query", [[1, -1], [-1, -1]])
    def test_one_row_table_with_that_row_excluded(self, monkeypatch, query):
        table = build_table(np.array([[1, -1]]), np.array([0]))
        codes = np.atleast_2d(pack_codes(np.array([query, query])))
        self.check(monkeypatch, table, codes, np.array([0, 1]), None,
                   np.array([0, 0]))

    @pytest.mark.parametrize("mode", ["plain", "leave_one_out"])
    def test_blocked_tail_with_moving_frontier(self, monkeypatch, mode):
        """More rows than several tail blocks, more queries with hits than
        one group of them, classes of unequal size, query labels with no
        rows, and a frontier that moves after queries have been kept: the
        tail's sums in query order pin numpy's row-by-row axis-0 reduce."""
        rng = np.random.default_rng(26)
        n, code_bits, nq = 2000, 16, 450
        # each class is the rows about one centre, so a query about its
        # class's centre has all its hits early
        centres = np.where(rng.random((6, code_bits)) > 0.5, 1, -1)
        labels = rng.choice(6, n, p=[0.3, 0.25, 0.2, 0.12, 0.08, 0.05])
        signs = centres[labels]
        signs[rng.random(signs.shape) < 0.02] *= -1
        table = CodeTable(np.atleast_2d(pack_codes(signs)),
                          rng.permutation(n), labels, labels, code_bits)
        qlabels = rng.integers(0, 8, nq)  # 6 and 7 label no row
        qsigns = centres[qlabels % 6]
        qsigns[rng.random(qsigns.shape) < 0.02] *= -1
        codes = np.atleast_2d(pack_codes(qsigns))
        exclude = None
        if mode == "leave_one_out":
            exclude = table.ids[rng.choice(n, nq, replace=False)]
        last_hits = [np.flatnonzero(rank_all(c, table).labels == q)[-1]
                     for c, q in zip(codes, qlabels) if q < 6]
        assert len(last_hits) > jointhash.metrics._TAIL_ROWS
        frontiers = np.unique(np.maximum.accumulate(last_hits))
        assert frontiers.size > 3
        assert n - frontiers[-1] > 2 * jointhash.metrics._TAIL_COLUMNS
        self.check(monkeypatch, table, codes, qlabels, qlabels, exclude)

    def test_tail_of_one_rank(self, monkeypatch):
        """Rows that share the queries' code rank in table order. Ten queries
        end their hits by rank 9. Labels 3 and 4 have one row each, at ranks
        10 and 11, so their queries move the frontier one rank at a time, and
        the tail after the loop is one rank too; label 5 has no row."""
        signs = np.ones((12, 3), dtype=int)
        labels = np.array([0, 2, 1, 0, 2, 0, 1, 2, 0, 0, 3, 4])
        table = build_table(signs, labels)
        qlabels = np.array([0, 2, 2, 0, 1, 2, 1, 0, 2, 2, 3, 4, 5])
        codes = np.atleast_2d(pack_codes(np.ones((qlabels.size, 3), int)))
        self.check(monkeypatch, table, codes, qlabels, None, None)

    def test_random_tables_and_queries(self, monkeypatch):
        calls = count_rankings(monkeypatch)

        @st.composite
        def cases(draw):
            code_bits = draw(st.sampled_from([1, 5, 64, 65]))
            n = draw(st.integers(1, 40))
            seed = draw(st.integers(0, 2**32 - 1))
            rng = np.random.default_rng(seed)
            pool = np.where(rng.random((draw(st.integers(1, 5)), code_bits))
                            > 0.5, 1, -1)
            signs = pool[rng.integers(0, len(pool), n)]
            signs[rng.random(signs.shape) < draw(st.sampled_from([0, 0.1]))] *= -1
            labels = rng.integers(0, 3, n)
            table = CodeTable(np.atleast_2d(pack_codes(signs)),
                              rng.permutation(3 * n)[:n], labels, labels,
                              code_bits)
            nq = draw(st.integers(1, 12))
            qsigns = pool[rng.integers(0, len(pool), nq)]
            qlabels = rng.integers(0, 4, nq)
            exclude = None
            if draw(st.booleans()):
                exclude = table.ids[rng.integers(0, n, nq)]
            return (table, np.atleast_2d(pack_codes(qsigns)), qlabels,
                    qlabels, exclude)

        @settings(max_examples=150, derandomize=True, deadline=None,
                  database=None)
        @given(cases())
        def check(case):
            table, codes, labels, predicted, exclude = case
            want = reference_evaluate(*case)
            calls.clear()
            got = evaluate(table, codes, labels, query_predicted=predicted,
                           exclude_ids=exclude)
            assert_same_report(got, want)
            assert len(calls) == len(np.unique(codes, axis=0))

        check()


def reference_write_report_json(report, path):
    """Reference: the whole document through json.dumps(indent=2)."""
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
    path.write_text(json.dumps(doc, indent=2) + "\n")


def reference_write_curve_csvs(report, out_dir):
    """Reference: one csv.writer row per k and per radius."""
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


class TestReportWriters:
    """The writers produce the reference writers' bytes."""

    @staticmethod
    def report(code_bits, mode):
        # 9000 rows: more than one write chunk of the per-k rows
        rng = np.random.default_rng(code_bits)
        n = 9000
        signs = np.where(rng.random((n, code_bits)) > 0.5, 1, -1)
        signs[n // 2:] = signs[:n // 2]
        labels = rng.integers(0, 3, n)
        table = build_table(signs, labels)
        rows = np.array([5, 600, 8999])
        query_labels = labels[rows].copy()
        query_labels[0] = 9  # no relevant item
        codes = np.atleast_2d(pack_codes(signs[rows]))
        if mode == "no_oa":
            return evaluate(table, codes, query_labels)
        return evaluate(table, codes, query_labels,
                        query_predicted=labels[rows], exclude_ids=rows)

    @pytest.mark.parametrize("code_bits", [1, 33, 64])
    @pytest.mark.parametrize("mode", ["no_oa", "leave_one_out"])
    def test_bytes_match_reference(self, code_bits, mode, tmp_path):
        self.assert_same_bytes(self.report(code_bits, mode), tmp_path)

    def test_empty_ranking_bytes_match_reference(self, tmp_path):
        # a one-row table with that row left out ranks nothing
        table = build_table(np.array([[1, -1]]), np.array([0]))
        report = evaluate(table, pack_codes(np.array([1, -1])), np.array([0]),
                          exclude_ids=np.array([0]))
        assert report.ks.size == 0
        self.assert_same_bytes(report, tmp_path)

    @pytest.mark.parametrize("rows", [8191, 8192, 8193])
    def test_rows_at_chunk_boundary_match_reference(self, rows, tmp_path):
        # one row short of, exactly at and one row past a write chunk
        rng = np.random.default_rng(rows)
        values = rng.random((2, rows)) ** 3
        values[:, :3] = [0.0, 1.0, 1 / 3]
        report = EvalReport(
            map=float(values[0].mean()), ks=np.arange(1, rows + 1),
            precision_at=values[0], recall_at=values[1],
            pr_precision=values[0, :17], pr_recall=values[1, :17],
            vacuous_radius_counts=rng.integers(0, 50, 17), oa=None,
            num_queries=50, zero_relevant_queries=2)
        self.assert_same_bytes(report, tmp_path)

    @staticmethod
    def assert_same_bytes(report, tmp_path):
        (tmp_path / "got").mkdir()
        (tmp_path / "want").mkdir()
        write_report_json(report, tmp_path / "got" / "report.json")
        write_curve_csvs(report, tmp_path / "got")
        reference_write_report_json(report, tmp_path / "want" / "report.json")
        reference_write_curve_csvs(report, tmp_path / "want")
        for name in ("report.json", "curve_topk.csv", "curve_radius.csv"):
            got = (tmp_path / "got" / name).read_bytes()
            assert got == (tmp_path / "want" / name).read_bytes(), name
