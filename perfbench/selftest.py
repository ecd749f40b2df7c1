"""Fast self-test of the benchmark, at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload emits each end-to-end metric of BENCHMARK.json
with its unit, that a traced run emits each per-layer metric and reaches
every layer on the workload listed for it, and that each oracle check
reports a failure when fed a deliberately wrong result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
OUT = HERE / "out" / "selftest"

# figures each workload prints by name, beside the end-to-end metrics
STAGE_FIGURES = {
    "train-acceptance": {"train_s": "s", "encode_s": "s", "eval_s": "s"},
    "search-1m": {"topk_p50_ms": "ms", "topk_p95_ms": "ms", "radius_p50_ms": "ms",
                  "radius_p95_ms": "ms", "search_qps": "1/s"},
    "cli-offline-100k": {"encode_s": "s", "eval_s": "s", "query_s": "s",
                         "oa": "ratio"},
}
COMMON_FIGURES = {"setup_s": "s", "error_rate": "ratio", "request_p95_ms": "ms",
                  "requests_per_s": "1/s"}


def tiny_run(name: str, trace: bool):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.run(workloads.WORKLOADS[name], 7, 0.3, trace, tiny=True, out_dir=OUT)
    lines = out.getvalue().strip().splitlines()
    figures = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == name:
            figures[parts[1]] = parts[3]
    return code, json.loads(lines[-1]), figures


def tearDownModule():
    shutil.rmtree(OUT, ignore_errors=True)


class Metrics(unittest.TestCase):
    def test_benchmark_json_matches_code(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in BENCHMARK["per_layer"]],
                         [(s.name, s.unit, s.better) for s in layers.PER_LAYER])

    def test_untraced_runs_emit_every_end_to_end_metric(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                code, result, figures = tiny_run(name, trace=False)
                self.assertEqual(code, 0)
                self.assertEqual(set(result), {"correct", "attempted", "failed",
                                               "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                for metric in BENCHMARK["end_to_end"]:
                    got = result["metrics"][metric["name"]]
                    self.assertEqual(got["unit"], metric["unit"], metric["name"])
                    self.assertGreater(got["value"], 0, metric["name"])
                self.assertEqual(set(result["metrics"]),
                                 {m["name"] for m in BENCHMARK["end_to_end"]})
                for figure, unit in {**COMMON_FIGURES, **STAGE_FIGURES[name],
                                     "peak_rss_mb": "MB"}.items():
                    self.assertEqual(figures.get(figure), unit, figure)

    def test_traced_runs_reach_every_layer(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                code, result, _ = tiny_run(name, trace=True)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                metrics = result["metrics"]
                self.assertEqual(set(metrics), {m["name"] for m in BENCHMARK["per_layer"]})
                for spec in layers.PER_LAYER:
                    self.assertEqual(metrics[spec.name]["unit"], spec.unit)
                    if spec.workload == name:
                        self.assertGreater(metrics[spec.name]["value"], 0, spec.name)
                spans_file = OUT / f"spans-{name}-seed7-trace1.tsv"
                self.assertGreater(len(spans_file.read_text().splitlines()), 1)


def rss_mb() -> float:
    return int(Path("/proc/self/statm").read_text().split()[1]) * 4096 / 2**20


class Probe:
    """A stand-in workload: request 1 raises, set-up touches SETUP_MB and frees
    it, and each request touches REQUEST_MB."""

    name = "probe"
    min_requests = 4
    setup_samples = 3
    SETUP_MB, REQUEST_MB = 96, 32
    setup_rss = []

    def __init__(self, workdir, tiny=False):
        self.workdir = workdir

    def setup(self, seed):
        block = np.ones(self.SETUP_MB * 2**17)
        Probe.setup_rss.append(rss_mb())
        del block

    def request(self, i):
        if i == 1:
            raise RuntimeError("request 1 fails on purpose")
        block = np.ones(self.REQUEST_MB * 2**17)
        return {}, float(block.sum())

    def check(self, i, result):
        return []

    def verify(self):
        return {}

    def quality(self):
        return 1.0

    def details(self):
        return {}


class Runner(unittest.TestCase):
    def test_failed_request_counts_as_attempted(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(run.run(Probe, 1, 1e-9, False, out_dir=OUT), 0)
        lines = out.getvalue().strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual((result["attempted"], result["failed"]), (4, 1))
        self.assertEqual(result["metrics"]["success_rate"]["value"], 0.75)

        # the peak counts the requests' memory but not the set-up's temporaries
        peak = result["metrics"]["peak_rss_mb"]["value"]
        self.assertGreater(peak, Probe.REQUEST_MB)
        self.assertLess(peak, Probe.setup_rss[0])
        figures = {line.split()[1]: line.split()[2] for line in lines[:-1]
                   if line.startswith("probe ")}
        self.assertEqual(figures["setup_samples"], "3")


class Wrappers(unittest.TestCase):
    def test_wrappers_replace_names_bound_by_callers(self):
        recorder = spans.Recorder()
        patched = spans.install(recorder)
        try:
            for module, attr in (("train", "loss_parts"), ("train", "grad_params"),
                                 ("cli", "rank_all"), ("cli", "evaluate"),
                                 ("cli", "train"), ("cli", "load_code_table"),
                                 ("index", "rank_all")):
                fn = getattr(sys.modules[f"jointhash.{module}"], attr)
                self.assertTrue(hasattr(fn, "__wrapped__"), f"{module}.{attr}")
        finally:
            spans.uninstall(patched)
        self.assertFalse(hasattr(sys.modules["jointhash.train"].loss_parts,
                                 "__wrapped__"))

    def test_missing_name_yields_no_span(self):
        saved = spans.TRACED
        spans.TRACED = saved + (("index", "no_such_function"),)
        try:
            patched = spans.install(spans.Recorder())
            spans.uninstall(patched)
        finally:
            spans.TRACED = saved

    def test_self_time_excludes_children(self):
        recorder = spans.Recorder()

        def child():
            return sum(range(1000))

        wrapped_child = recorder.wrap("m.child", child)
        parent = recorder.wrap("m.parent", lambda: [wrapped_child() for _ in range(3)])
        parent()
        (_, ps, pe, pp, _), = [s for s in recorder.spans if s[0] == "m.parent"]
        child_total = sum(e - s for n, s, e, p, _ in recorder.spans if n == "m.child")
        self.assertEqual(pp, -1)
        self.assertAlmostEqual(recorder.self_s["m.parent"], (pe - ps) - child_total)
        self.assertEqual(recorder.calls["m.child"], 3)


class Oracles(unittest.TestCase):
    def setUp(self):
        # many duplicate codes, so ties decide the order
        rng = np.random.default_rng(3)
        base = rng.integers(0, 2**64, size=4, dtype=np.uint64)
        self.codes = base[rng.integers(0, 4, size=200)][:, None]
        self.codes[::7] ^= np.uint64(1)
        self.ids = np.arange(200)
        self.bits = oracle.unpack_bits(self.codes, 64)
        self.query = self.codes[5, 0] ^ np.uint64(3)
        self.qbits = oracle.unpack_bits(np.array([[self.query]], dtype=np.uint64), 64)[0]
        index = sys.modules["jointhash.index"]
        self.table = index.CodeTable(self.codes, self.ids, self.ids % 4, self.ids % 4, 64)
        self.top = index.top_k(np.array([self.query]), self.table, 20)

    def test_top_k_passes_and_catches_a_swapped_tie(self):
        ids, dists = np.array(self.top.ids), np.array(self.top.distances)
        self.assertEqual(oracle.check_top_k(self.bits, self.ids, self.qbits, 20, ids,
                                            dists), [])
        tie = next(i for i in range(19) if dists[i] == dists[i + 1])
        ids[[tie, tie + 1]] = ids[[tie + 1, tie]]
        self.assertTrue(oracle.check_top_k(self.bits, self.ids, self.qbits, 20, ids,
                                           dists))

    def test_top_k_catches_a_wrong_distance(self):
        dists = np.array(self.top.distances)
        dists[0] += 1
        self.assertTrue(oracle.check_top_k(self.bits, self.ids, self.qbits, 20,
                                           self.top.ids, dists))

    def test_radius_catches_dropped_and_extra_hits(self):
        index = sys.modules["jointhash.index"]
        radius = int(self.top.distances[5])
        hits = index.radius_search(np.array([self.query]), self.table, radius)
        self.assertEqual(oracle.check_radius(self.bits, self.ids, self.qbits, radius,
                                             hits), [])
        dropped = set(hits)
        dropped.pop()
        self.assertTrue(oracle.check_radius(self.bits, self.ids, self.qbits, radius,
                                            dropped))
        extra = set(hits) | {int(np.argmax(oracle.distances(self.bits, self.qbits)))}
        self.assertTrue(oracle.check_radius(self.bits, self.ids, self.qbits, radius,
                                            extra))

    def test_query_rows_catch_a_swapped_tie(self):
        labels = self.ids % 4
        q = self.qbits[None, :]
        order, d = oracle.ranking(self.bits, self.qbits)
        rows = [[str(r), str(p), str(d[p]), str(labels[p]), str(labels[p])]
                for r, p in enumerate(order[:10], start=1)]
        self.assertEqual(oracle.check_query_rows(rows, self.bits, self.ids, labels,
                                                 labels, q, 10), [])
        tie = next(i for i in range(9) if rows[i][2] == rows[i + 1][2])
        rows[tie][1:], rows[tie + 1][1:] = rows[tie + 1][1:], rows[tie][1:]
        self.assertTrue(oracle.check_query_rows(rows, self.bits, self.ids, labels,
                                                labels, q, 10))

    def test_evaluation_check_catches_wrong_figures(self):
        labels = self.ids % 4
        want = oracle.evaluation(self.bits, labels, self.bits[:5], labels[:5],
                                 exclude=np.arange(5))
        self.assertEqual(oracle.check_evaluation(dict(want), want), [])
        self.assertTrue(oracle.check_evaluation(dict(want, map=want["map"] + 1e-6),
                                                want))
        recall = want["recall_at"].copy()
        recall[-1] *= 0.999
        self.assertTrue(oracle.check_evaluation(dict(want, recall_at=recall), want))
        # the same figures without leaving each query out of its own list
        self.assertTrue(oracle.check_evaluation(
            oracle.evaluation(self.bits[5:], labels[5:], self.bits[:5], labels[:5]),
            want))

    def test_average_precision_by_hand(self):
        self.assertAlmostEqual(oracle.average_precision(np.array([1, 0, 1, 0])),
                               (1 + 2 / 3) / 2)
        self.assertEqual(oracle.average_precision(np.zeros(3, dtype=bool)), 0.0)


class WorkloadChecks(unittest.TestCase):
    def test_train_check_catches_nondeterminism(self):
        w = workloads.TrainAcceptance(OUT / "train-check", tiny=True)
        (OUT / "train-check").mkdir(parents=True, exist_ok=True)
        w.setup(1)
        _, result = w.request(0)
        self.assertEqual(w.check(0, result), [])
        _, again = w.request(len(w.pairs))
        again[0].hash_bias[0] += 1e-12
        self.assertTrue(w.check(len(w.pairs), again))

    def test_cli_check_catches_a_failed_command(self):
        w = workloads.CliOffline100K(OUT / "cli-check", tiny=True)
        w.setup(1)
        self.assertTrue(w.check(0, (0, 3, 0, "")))


if __name__ == "__main__":
    unittest.main()
