"""The benchmark's workloads: inputs made from a seed, timed requests, checks.

Every workload is a closed loop with one client in one process: the runner
issues a request, waits for its result, checks it, then issues the next.
Inputs come from the benchmark's own `np.random.Generator`, never from
`jointhash.synth_dataset`, so a change to the library's generator cannot
change a workload. Library functions are looked up through their module at
call time so that span wrappers installed by `spans.install` see the calls.

A workload provides:

* `setup(seed)`: build the inputs. It is timed `setup_samples` times, the
  later times in forked children spread over the run; the median is
  `setup_s`;
* `request(i)`: one timed request, returning (stage seconds, result);
* `check(i, result)`: cheap per-request checks, untimed;
* `verify()`: oracle checks on a sample of requests after the timed loop,
  returning {request index: problems};
* `quality()`: the retrieval MAP of the workload, and `details()`, extra
  figures printed by name and unit.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import shutil
import struct
import time
from pathlib import Path

import numpy as np

import oracle

# the package re-exports `train` the function over `train` the module, so the
# modules are taken from the import system rather than as package attributes
jt_cli = importlib.import_module("jointhash.cli")
jt_data = importlib.import_module("jointhash.data")
jt_index = importlib.import_module("jointhash.index")
jt_metrics = importlib.import_module("jointhash.metrics")
jt_model = importlib.import_module("jointhash.model")
jt_objective = importlib.import_module("jointhash.objective")
jt_train = importlib.import_module("jointhash.train")

_FEAT = struct.Struct("<4sHIIH")


def gaussian_classes(rng, classes, per_class, dim, separation):
    """separation * centre_c + noise; centres and noise have per-dimension std
    1/sqrt(dim), the shape of the package's acceptance data."""
    scale = 1.0 / np.sqrt(dim)
    centres = rng.normal(0.0, scale, (classes, dim))
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    rng.shuffle(labels)
    return separation * centres[labels] + rng.normal(0.0, scale, (labels.size, dim)), labels


def stratified_split(rng, labels, test_fraction):
    """Positions of train and test rows, the same fraction of every class in test."""
    train_idx, test_idx = [], []
    for c in np.unique(labels):
        members = rng.permutation(np.flatnonzero(labels == c))
        n_test = int(round(test_fraction * members.size))
        test_idx.append(members[:n_test])
        train_idx.append(members[n_test:])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(test_idx))


def write_feat32(path, features):
    n, d = features.shape
    Path(path).write_bytes(_FEAT.pack(b"FEAT", 1, n, d, 32)
                           + np.asarray(features, "<f4").tobytes())


def write_labels(path, labels, classes):
    Path(path).write_text(f"classes={classes}\n"
                          + "".join(f"{int(v)}\n" for v in labels))


def oracle_encode(params, features):
    """Sign bits and predicted labels computed from the raw parameters."""
    u = features @ params.hash_weights.T + params.hash_bias
    predicted = np.argmax(u @ params.cls_weights.T + params.cls_bias, axis=1)
    return (u > 0).astype(np.uint8), predicted


class TrainAcceptance:
    """The acceptance benchmark: train, encode the train split, evaluate the rest.

    Set-up draws PAIRS data sets of the acceptance shape, each with its own
    training seed; request i trains on pair i % PAIRS. At this shape about
    one pair in eight merges two classes onto one code, which costs a tenth
    of that pair's MAP and OA. Quality is therefore the mean over all pairs,
    so a change in how often merges happen moves it, and every pair's figures
    are printed. Requests that repeat a pair must give the same bytes.
    """

    name = "train-acceptance"
    FULL = dict(classes=10, per_class=100, dim=64, separation=3.0, bits=16,
                epochs=100, pairs=20, floor=0.95)
    TINY = dict(classes=3, per_class=12, dim=8, separation=3.0, bits=8,
                epochs=2, pairs=2, floor=0.0)
    setup_samples = 30

    def __init__(self, workdir: Path, tiny: bool = False):
        self.size = self.TINY if tiny else self.FULL
        self.workdir = workdir
        self.min_requests = self.size["pairs"]

    def setup(self, seed: int) -> None:
        s = self.size
        rng = np.random.default_rng([seed, 1])
        self.pairs = []
        for pair in range(s["pairs"]):
            features, labels = gaussian_classes(rng, s["classes"], s["per_class"],
                                                s["dim"], s["separation"])
            train_idx, test_idx = stratified_split(rng, labels, 0.2)
            hyper = jt_objective.Hyperparams(
                eta=0.2, beta=25.0, lr=3e-4, code_bits=s["bits"], batch_size=32,
                epochs=s["epochs"], seed=s["pairs"] * seed + pair)
            self.pairs.append((jt_data.Dataset(features[train_idx], labels[train_idx],
                                               s["classes"]),
                               features[test_idx], labels[test_idx], hyper))
        self.firsts = {}  # pair -> (digest, result)

    def request(self, i: int):
        train_set, test_features, test_labels, hyper = self.pairs[i % len(self.pairs)]
        t0 = time.perf_counter()
        params, _trace = jt_train.train(train_set, jt_train.TrainConfig(hyper))
        t1 = time.perf_counter()
        table = jt_train.encode_database(params, train_set)
        t2 = time.perf_counter()
        u = jt_model.affine_hash(test_features, params)
        query_codes = np.atleast_2d(jt_model.pack_codes(jt_model.binarize(u)))
        predicted = jt_model.predict_labels(jt_model.class_scores(u, params))
        report = jt_metrics.evaluate(table, query_codes, test_labels,
                                     query_predicted=predicted)
        t3 = time.perf_counter()
        stages = {"train_s": t1 - t0, "encode_s": t2 - t1, "eval_s": t3 - t2}
        return stages, (params, table, report)

    def check(self, i: int, result) -> list[str]:
        pair = i % len(self.pairs)
        hyper = self.pairs[pair][3]
        path = self.workdir / "checkpoint.bin"
        jt_train.save_checkpoint(jt_train.Checkpoint(result[0], hyper, hyper.epochs),
                                 path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if pair not in self.firsts:
            self.firsts[pair] = (digest, result)
        elif digest != self.firsts[pair][0]:
            return [f"checkpoint of pair {pair} differs from the first one"]
        return []

    def _reports(self):
        return [result[2] for _digest, result in self.firsts.values()]

    def verify(self) -> dict:
        failed = {}
        for pair, (_digest, (params, table, report)) in self.firsts.items():
            train_set, test_features, test_labels, _hyper = self.pairs[pair]
            train_bits, train_pred = oracle_encode(params, train_set.features)
            test_bits, test_pred = oracle_encode(params, test_features)
            problems = []
            if not np.array_equal(oracle.unpack_bits(table.codes, table.code_bits),
                                  train_bits):
                problems.append("encode_database codes differ from the oracle's")
            if not np.array_equal(table.predicted, train_pred):
                problems.append("encode_database predicted labels differ from the oracle's")
            want = oracle.evaluation(train_bits, train_set.labels, test_bits, test_labels)
            want["oa"] = float(np.mean(test_pred == test_labels))
            problems += oracle.check_evaluation(vars(report), want)
            if problems:
                failed[pair] = problems
        reports = self._reports()
        floor = self.size["floor"]
        if reports and not (np.mean([r.map for r in reports]) >= floor
                            and np.mean([r.oa for r in reports]) >= floor):
            failed.setdefault(0, []).append(f"mean MAP/OA over pairs below {floor}")
        return failed

    def quality(self) -> float:
        reports = self._reports()
        return float(np.mean([r.map for r in reports])) if reports else 0.0

    def details(self) -> dict:
        reports = self._reports()
        out = {"oa": (float(np.mean([r.oa for r in reports])), "ratio"),
               "pairs_below_floor": (sum(min(r.map, r.oa) < self.size["floor"]
                                         for r in reports), "count")} if reports else {}
        for pair in sorted(self.firsts):
            digest, (_p, _t, report) = self.firsts[pair]
            out[f"pair_{pair}_map"] = (report.map, "ratio")
            out[f"pair_{pair}_oa"] = (report.oa, "ratio")
            out[f"pair_{pair}_checkpoint_sha256"] = (digest, "hex")
        return out


class Search1M:
    """top_k then radius_search per query over a table of 10^6 64-bit codes."""

    name = "search-1m"
    FULL = dict(n=10**6, centres=8, k=100, check_every=50)
    TINY = dict(n=3000, centres=4, k=10, check_every=2)
    setup_samples = 30

    def __init__(self, workdir: Path, tiny: bool = False):
        self.size = self.TINY if tiny else self.FULL
        self.workdir = workdir
        # p95 needs at least 200 samples so that 10 lie beyond it
        self.min_requests = 4 if tiny else 200

    def setup(self, seed: int) -> None:
        s = self.size
        rng = np.random.default_rng([seed, 2])
        n = s["n"]
        centres = rng.integers(0, 2**64, size=s["centres"], dtype=np.uint64,
                               endpoint=False)
        labels = rng.integers(0, s["centres"], size=n)
        # each bit flips with probability 1/8: the AND of three random words
        flips = rng.integers(0, 2**64, size=(3, n), dtype=np.uint64)
        codes = centres[labels] ^ (flips[0] & flips[1] & flips[2])
        predicted = np.where(rng.random(n) < 0.05,
                             rng.integers(0, s["centres"], size=n), labels)
        self.table = jt_index.CodeTable(codes=codes[:, None], ids=np.arange(n),
                                        labels=labels, predicted=predicted,
                                        code_bits=64)
        self.query_rng = np.random.default_rng([seed, 3])
        self.queries = []
        self.samples = {}
        self.aps = []
        self.busy_s = 0.0

    def _query(self, i: int):
        while len(self.queries) <= i:
            row = int(self.query_rng.integers(len(self.table)))
            w = self.query_rng.integers(0, 2**64, size=4, dtype=np.uint64)
            code = self.table.codes[row] ^ (w[0] & w[1] & w[2] & w[3])
            self.queries.append((code, int(self.table.labels[row])))
        return self.queries[i]

    def request(self, i: int):
        code, _label = self._query(i)
        t0 = time.perf_counter()
        top = jt_index.top_k(code, self.table, self.size["k"])
        t1 = time.perf_counter()
        radius = int(top.distances[9])
        hits = jt_index.radius_search(code, self.table, radius)
        t2 = time.perf_counter()
        self.busy_s += t2 - t0
        return {"topk_ms": (t1 - t0) * 1e3, "radius_ms": (t2 - t1) * 1e3}, (top, radius, hits)

    def check(self, i: int, result) -> list[str]:
        top, radius, hits = result
        _code, label = self._query(i)
        self.aps.append(oracle.average_precision(top.labels == label))
        if i % self.size["check_every"] == 0:
            self.samples[i] = (np.array(top.ids), np.array(top.distances), radius,
                               hits)
        if len(hits) < 10:
            return [f"radius {radius} returned {len(hits)} hits, fewer than 10"]
        return []

    def verify(self) -> dict:
        bits = oracle.unpack_bits(self.table.codes, 64)
        ids = self.table.ids
        failed = {}
        for i, (got_ids, got_dists, radius, hits) in self.samples.items():
            qbits = oracle.unpack_bits(self._query(i)[0][None, :], 64)[0]
            problems = (oracle.check_top_k(bits, ids, qbits, self.size["k"],
                                           got_ids, got_dists)
                        + oracle.check_radius(bits, ids, qbits, radius, hits))
            if problems:
                failed[i] = problems
        return failed

    def quality(self) -> float:
        return float(np.mean(self.aps)) if self.aps else 0.0

    def details(self) -> dict:
        return {"search_qps": (len(self.aps) / self.busy_s, "1/s"),
                "oracle_checked_queries": (len(self.samples), "count")}


class CliOffline100K:
    """encode, eval --database all, query --topk 10 through jointhash.cli.main."""

    name = "cli-offline-100k"
    FULL = dict(n=100_000, dim=128, classes=10, separation=3.0, queries=200,
                bits=48, fit_items=2000, fit_epochs=20)
    TINY = dict(n=600, dim=16, classes=4, separation=3.0, queries=12,
                bits=48, fit_items=120, fit_epochs=2)
    min_requests = 2
    setup_samples = 5

    def __init__(self, workdir: Path, tiny: bool = False):
        self.size = self.TINY if tiny else self.FULL
        self.workdir = workdir

    def setup(self, seed: int) -> None:
        s = self.size
        rng = np.random.default_rng([seed, 4])
        features, labels = gaussian_classes(rng, s["classes"],
                                            (s["n"] + s["queries"]) // s["classes"],
                                            s["dim"], s["separation"])
        features = features.astype(np.float32).astype(np.float64)
        db = slice(0, s["n"])
        qs = slice(s["n"], s["n"] + s["queries"])
        w = self.workdir
        if w.exists():
            shutil.rmtree(w)
        w.mkdir(parents=True)
        self.paths = {"db_feat": w / "db.feat", "db_labels": w / "db.labels",
                      "q_feat": w / "queries.feat", "q_labels": w / "queries.labels",
                      "checkpoint": w / "checkpoint.bin", "codes": w / "codes.htbl",
                      "out": w / "eval"}
        write_feat32(self.paths["db_feat"], features[db])
        write_labels(self.paths["db_labels"], labels[db], s["classes"])
        write_feat32(self.paths["q_feat"], features[qs])
        write_labels(self.paths["q_labels"], labels[qs], s["classes"])
        fit = rng.choice(s["n"], size=s["fit_items"], replace=False)
        hyper = jt_objective.Hyperparams(code_bits=s["bits"], epochs=s["fit_epochs"],
                                         seed=seed)
        fit_set = jt_data.Dataset(features[fit], labels[fit], s["classes"])
        self.params, _ = jt_train.train(fit_set, jt_train.TrainConfig(hyper))
        jt_train.save_checkpoint(jt_train.Checkpoint(self.params, hyper, hyper.epochs),
                                 self.paths["checkpoint"])
        # the features are read back from the files in verify(), so that the
        # harness holds no copy of them while peak_rss_mb is measured
        self.db_labels, self.q_labels = labels[db], labels[qs]
        self.first = None

    def _cli(self, *argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = jt_cli.main([str(a) for a in argv])
        return code, out.getvalue()

    def request(self, i: int):
        p = self.paths
        t0 = time.perf_counter()
        enc = self._cli("encode", "--checkpoint", p["checkpoint"], "--features",
                        p["db_feat"], "--labels", p["db_labels"], "--codes", p["codes"])
        t1 = time.perf_counter()
        ev = self._cli("eval", "--checkpoint", p["checkpoint"], "--codes", p["codes"],
                       "--features", p["q_feat"], "--labels", p["q_labels"],
                       "--database", "all", "--out", p["out"])
        t2 = time.perf_counter()
        qu = self._cli("query", "--checkpoint", p["checkpoint"], "--codes", p["codes"],
                       "--features", p["q_feat"], "--topk", "10")
        t3 = time.perf_counter()
        stages = {"encode_s": t1 - t0, "eval_s": t2 - t1, "query_s": t3 - t2}
        return stages, (enc[0], ev[0], qu[0], qu[1])

    def _outputs(self) -> dict:
        p = self.paths
        return {name: hashlib.sha256(path.read_bytes()).hexdigest()
                for name, path in (("codes", p["codes"]),
                                   ("report", p["out"] / "report.json"),
                                   ("curve_topk", p["out"] / "curve_topk.csv"),
                                   ("curve_radius", p["out"] / "curve_radius.csv"))}

    def check(self, i: int, result) -> list[str]:
        codes = result[:3]
        if codes != (0, 0, 0):
            return [f"exit codes encode/eval/query = {codes}"]
        outputs = dict(self._outputs(), query=hashlib.sha256(
            result[3].encode()).hexdigest())
        if self.first is None:
            self.first = outputs
            self.query_csv = result[3]
            self.report = json.loads(
                (self.paths["out"] / "report.json").read_text())
            return []
        changed = [k for k in outputs if outputs[k] != self.first[k]]
        return [f"outputs differ from the first request: {changed}"] if changed else []

    def verify(self) -> dict:
        if self.first is None:
            return {}
        p = self.paths
        codes, ids, labels, predicted, bits = oracle.read_code_table(p["codes"])
        db_bits, db_pred = oracle_encode(self.params, oracle.read_feat32(p["db_feat"]))
        q_bits, q_pred = oracle_encode(self.params, oracle.read_feat32(p["q_feat"]))
        table_bits = oracle.unpack_bits(codes, bits)
        problems = []
        if not (np.array_equal(table_bits, db_bits) and np.array_equal(predicted, db_pred)
                and np.array_equal(ids, np.arange(len(ids)))
                and np.array_equal(labels, self.db_labels)):
            problems.append("encoded table differs from the oracle's")
        # eval --database all: queries join the table, each left out of its own list
        n = len(ids)
        all_bits = np.vstack([db_bits, q_bits])
        all_labels = np.concatenate([self.db_labels, self.q_labels])
        exclude = n + np.arange(len(self.q_labels))
        want = oracle.evaluation(all_bits, all_labels, q_bits, self.q_labels, exclude)
        want["oa"] = float(np.mean(q_pred == self.q_labels))
        r = self.report
        got = {"map": r["map"], "oa": r["oa"],
               "precision_at": list(r["precision_at"].values()),
               "recall_at": list(r["recall_at"].values()),
               "pr_precision": [p["precision"] for p in r["pr_points"]],
               "pr_recall": [p["recall"] for p in r["pr_points"]]}
        problems += oracle.check_evaluation(got, want)
        rows = list(csv.reader(io.StringIO(self.query_csv)))
        problems += oracle.check_query_rows(rows, db_bits, ids, labels, db_pred,
                                            q_bits, 10)
        return {0: problems} if problems else {}

    def quality(self) -> float:
        return self.report["map"] if self.first else 0.0

    def details(self) -> dict:
        return {"oa": (self.report["oa"], "ratio")} if self.first else {}


WORKLOADS = {w.name: w for w in (TrainAcceptance, Search1M, CliOffline100K)}
