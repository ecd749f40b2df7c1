"""Per-layer metrics of a traced run, and what each one should move.

Every value is per traced request, so runs of different lengths compare.
`moves` names the figure a change to that layer should move (the stage
figures printed by run.py, such as `train_s`, feed the end-to-end
`request_p50_ms`); `workload` names the workload on which the layer is
measured. BENCHMARK.json's `per_layer` list holds the same names and units.
"""

from __future__ import annotations

from dataclasses import dataclass

TRAIN, SEARCH, CLI = "train-acceptance", "search-1m", "cli-offline-100k"


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: str
    workload: str

    def value(self, recorder, requests: int) -> float:
        span, _, kind = self.name.rpartition(".")
        if kind == "self_s":
            total = recorder.self_s.get(span, 0.0)
        elif kind == "calls":
            total = recorder.calls.get(span, 0)
        elif kind == "hits_per_scanned":
            scanned = recorder.counters.get(span + ".scanned", 0)
            return recorder.counters.get(span + ".hits", 0) / scanned if scanned else 0.0
        else:
            total = recorder.counters.get(self.name, 0)
        return total / max(requests, 1)


def _self(span, moves, workload):
    return Layer(f"{span}.self_s", "s", "lower", moves, workload)


PER_LAYER = (
    _self("objective.loss_parts", "train_s", TRAIN),
    _self("objective.grad_params", "train_s", TRAIN),
    Layer("objective.loss_parts.calls", "count", "lower", "train_s", TRAIN),
    Layer("objective.pairs", "count", "lower", "train_s", TRAIN),
    _self("train.train", "train_s", TRAIN),
    _self("train.sgd_step", "train_s", TRAIN),
    _self("model.affine_hash", "encode_s", CLI),
    _self("model.binarize", "encode_s", CLI),
    _self("model.pack_codes", "encode_s", CLI),
    _self("model.class_scores", "encode_s", CLI),
    _self("train.encode_database", "encode_s", CLI),
    _self("index.top_k", "topk_p50_ms, topk_p95_ms, search_qps", SEARCH),
    _self("index.rank_all", "topk_p50_ms, topk_p95_ms, search_qps; query_s", SEARCH),
    Layer("index.bytes_scanned", "bytes", "lower", "topk_p50_ms, search_qps; query_s",
          SEARCH),
    _self("index.radius_search", "radius_p50_ms, radius_p95_ms", SEARCH),
    Layer("index.radius_search.hits_per_scanned", "ratio", "higher",
          "radius_p50_ms, radius_p95_ms", SEARCH),
    _self("index.save_code_table", "encode_s", CLI),
    Layer("index.save_code_table.bytes", "bytes", "lower", "encode_s", CLI),
    _self("index.load_code_table", "eval_s, query_s", CLI),
    Layer("index.load_code_table.bytes", "bytes", "lower", "eval_s, query_s", CLI),
    _self("train.load_checkpoint", "encode_s, eval_s, query_s", CLI),
    _self("data.read_feature_file", "encode_s, eval_s", CLI),
    Layer("data.read_feature_file.bytes", "bytes", "lower", "encode_s, eval_s", CLI),
    _self("data.read_label_file", "encode_s, eval_s", CLI),
    _self("metrics.evaluate", "eval_s", CLI),
    Layer("metrics.evaluate.queries", "count", "higher", "eval_s", CLI),
    _self("metrics.write_report_json", "eval_s", CLI),
    Layer("metrics.write_report_json.bytes", "bytes", "lower", "eval_s", CLI),
    _self("metrics.write_curve_csvs", "eval_s", CLI),
    Layer("metrics.write_curve_csvs.bytes", "bytes", "lower", "eval_s", CLI),
    _self("cli.main", "encode_s, eval_s, query_s", CLI),
    Layer("trace.overhead_pct", "%", "lower", "request_p50_ms (traced minus untraced)",
          "all"),
)
