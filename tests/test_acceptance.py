"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The synthetic benchmark used throughout: 10 classes, 100 samples per class,
64-dim features, well-separated clusters (separation 3.0), 80/20 split,
16-bit codes, eta=0.2, beta=25, lr=3e-4, batch 32, 100 epochs.
"""

import csv
import subprocess
import sys
import time

import numpy as np
import pytest

from jointhash.data import save_dataset, synth_dataset, train_test_split
from jointhash.index import CodeTable, hamming_distance, rank_all
from jointhash.metrics import (
    RelevanceList,
    average_precision,
    evaluate,
    mean_average_precision,
    precision_at_k,
    precision_recall_curve,
    recall_at_k,
)
from jointhash.model import affine_hash, binarize, class_scores, pack_codes
from jointhash.objective import (
    Hyperparams,
    gradient_check_suite,
    label_loss,
    similarity_loss,
    total_loss,
)
from jointhash.train import TrainConfig, encode, encode_database, train

BENCH = dict(classes=10, per_class=100, dim=64, separation=3.0)
BENCH_HYPER = dict(eta=0.2, beta=25.0, lr=3e-4, code_bits=16, batch_size=32,
                   epochs=100)


def report(number, ok, detail):
    print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def run_benchmark(seed, **hyper_overrides):
    """Train on the 80% split, evaluate MAP/OA on the held-out 20%."""
    ds = synth_dataset(seed=seed, **BENCH)
    train_set, test_set = train_test_split(ds, 0.2, seed=seed)
    hyper = Hyperparams(seed=seed, **{**BENCH_HYPER, **hyper_overrides})
    params, _ = train(train_set, TrainConfig(hyper))
    table = encode_database(params, train_set)
    query_codes, predicted = encode(params, test_set.features)
    rep = evaluate(table, query_codes, test_set.labels,
                   query_predicted=predicted)
    return rep.map, rep.oa


def test_criterion_1_gradient_correctness():
    start = time.time()
    results = gradient_check_suite(seed=0, count=20)
    elapsed = time.time() - start
    # np.max, unlike max(), returns a NaN wherever it stands
    worst = float(np.max([r.worst for r in results]))
    etas = {r.hyper.eta for r in results}
    betas = {r.hyper.beta for r in results}
    ok = (worst < 1e-4 and elapsed < 60.0 and len(results) == 20
          and etas == {0.0, 0.2, 1.0} and betas == {0.0, 25.0})
    report(1, ok, f"20 configs, worst relative error {worst:.3e} "
                  f"(tolerance 1e-4), {elapsed:.1f}s")


def test_criterion_2_loss_endpoints():
    from jointhash.model import ModelParams

    mismatches = 0
    for seed in range(50):
        rng = np.random.default_rng([seed, 777])
        d, k, c = rng.integers(2, 9), rng.integers(1, 7), rng.integers(2, 5)
        batch = int(rng.integers(2, 7))
        params = ModelParams(rng.normal(0, 0.5, (k, d)),
                             rng.normal(0, 0.5, k),
                             rng.normal(0, 0.5, (c, k)),
                             rng.normal(0, 0.5, c))
        features = rng.normal(size=(batch, d))
        labels = rng.integers(0, c, batch)
        u = affine_hash(features, params)
        l_sim = similarity_loss(u, binarize(u), labels, 25.0)
        l_lab = label_loss(class_scores(u, params), labels)
        if total_loss(features, labels, params,
                      Hyperparams(eta=0.0, beta=25.0)) != l_lab:
            mismatches += 1
        if total_loss(features, labels, params,
                      Hyperparams(eta=1.0, beta=25.0)) != l_sim:
            mismatches += 1
    report(2, mismatches == 0,
           f"eta endpoints bitwise equal on 50 random batches "
           f"({mismatches} mismatches)")


def test_criterion_3_oracle_ranking():
    rng = np.random.default_rng(3)
    bad_rankings = 0
    for trial in range(100):
        n = int(rng.integers(1, 1001))
        k = int(rng.choice([16, 64]))
        signs = np.where(rng.random((n, k)) > 0.5, 1, -1).astype(np.int8)
        qsigns = np.where(rng.random(k) > 0.5, 1, -1).astype(np.int8)
        table = CodeTable(np.atleast_2d(pack_codes(signs)), np.arange(n),
                          rng.integers(0, 5, n), rng.integers(0, 5, n),
                          code_bits=k)
        ranking = rank_all(pack_codes(qsigns), table)
        # oracle: unpacked elementwise comparison, python stable sort
        dists = [int(np.sum(qsigns != signs[i])) for i in range(n)]
        expected = sorted(range(n), key=lambda i: (dists[i], i))
        if (ranking.order.tolist() != expected
                or ranking.distances.tolist() != [dists[i] for i in expected]):
            bad_rankings += 1

    bad_identity = 0
    for _ in range(10**4):
        k = int(rng.choice([16, 64]))
        sa = np.where(rng.random(k) > 0.5, 1, -1).astype(np.int64)
        sb = np.where(rng.random(k) > 0.5, 1, -1).astype(np.int64)
        d = hamming_distance(pack_codes(sa), pack_codes(sb))
        if d != (k - int(sa @ sb)) // 2:
            bad_identity += 1
    ok = bad_rankings == 0 and bad_identity == 0
    report(3, ok, f"100 tables rank-identical to oracle "
                  f"({bad_rankings} bad), distance identity exact on 10^4 "
                  f"pairs ({bad_identity} bad)")


def oracle_ap(flags):
    flags = list(flags)
    n = sum(flags)
    if n == 0:
        return 0.0
    return sum(sum(flags[:j]) / j
               for j in range(1, len(flags) + 1) if flags[j - 1]) / n


def test_criterion_4_metric_oracles():
    worst = 0.0
    rng = np.random.default_rng(4)

    # frozen spec value first
    ap = average_precision(RelevanceList(np.array([1, 0, 1], dtype=bool), 2))
    worst = max(worst, abs(ap - 0.8333333333333333))

    for _ in range(100):
        n = int(rng.integers(2, 40))
        flags = rng.random(n) < 0.4
        extra = int(rng.integers(0, 4))
        r = int(flags.sum()) + extra
        rel = RelevanceList(flags, max(r, 1))

        worst = max(worst, abs(average_precision(rel) - oracle_ap(flags)))
        k = int(rng.integers(1, n + 1))
        worst = max(worst,
                    abs(precision_at_k(rel, k) - sum(flags[:k]) / k))
        if rel.total_relevant >= 1:
            worst = max(worst, abs(recall_at_k(rel, k)
                                   - sum(flags[:k]) / rel.total_relevant))

        queries = [RelevanceList(rng.random(int(rng.integers(1, 20))) < 0.5, 20)
                   for _ in range(int(rng.integers(1, 6)))]
        oracle_map = sum(oracle_ap(q.flags) for q in queries) / len(queries)
        worst = max(worst, abs(mean_average_precision(queries) - oracle_map))

        # PR over radius against a from-scratch set filter
        kbits = 8
        m = int(rng.integers(2, 30))
        signs = np.where(rng.random((m, kbits)) > 0.5, 1, -1)
        labels = rng.integers(0, 3, m)
        table = CodeTable(np.atleast_2d(pack_codes(signs)), np.arange(m),
                          labels, labels, code_bits=kbits)
        qsigns = np.where(rng.random(kbits) > 0.5, 1, -1)
        qlabel = int(rng.integers(0, 3))
        curve = precision_recall_curve(pack_codes(qsigns), table, qlabel)
        total_rel = int((labels == qlabel).sum())
        for t in range(kbits + 1):
            inside = [i for i in range(m)
                      if int(np.sum(qsigns != signs[i])) <= t]
            hits = sum(1 for i in inside if labels[i] == qlabel)
            want_p = hits / len(inside) if inside else 1.0
            want_r = hits / total_rel if total_rel else 0.0
            worst = max(worst, abs(curve.precision[t] - want_p),
                        abs(curve.recall[t] - want_r))

    report(4, worst < 1e-12,
           f"MAP/P@k/R@k/PR-radius vs brute force on 100 instances, "
           f"worst abs deviation {worst:.2e} (tolerance 1e-12)")


def test_criterion_5_synthetic_end_to_end():
    start = time.time()
    map_value, oa = run_benchmark(seed=0)
    elapsed = time.time() - start
    ok = map_value >= 0.95 and oa >= 0.95 and elapsed < 300.0
    report(5, ok, f"MAP {map_value:.4f} (>= 0.95), OA {oa:.4f} (>= 0.95), "
                  f"{elapsed:.1f}s (< 300s)")


def test_criterion_6_ablation_trends():
    seeds = (0, 1, 2)

    def mean_map(**overrides):
        return float(np.mean([run_benchmark(seed=s, **overrides)[0]
                              for s in seeds]))

    map_ref = mean_map()
    map_eta0 = mean_map(eta=0.0)
    map_eta1 = mean_map(eta=1.0)
    map_beta0 = mean_map(beta=0.0)
    ok = (map_ref >= map_eta0 and map_ref >= map_eta1
          and map_ref > map_beta0)
    report(6, ok,
           f"MAP(eta=0.2)={map_ref:.4f} >= MAP(eta=0)={map_eta0:.4f}, "
           f">= MAP(eta=1)={map_eta1:.4f}; MAP(beta=25)={map_ref:.4f} "
           f"> MAP(beta=0)={map_beta0:.4f} (3-seed means)")


def test_criterion_7_bit_length_sweep(tmp_path):
    ds = synth_dataset(seed=0, **BENCH)
    save_dataset(ds, tmp_path / "bench")
    out = tmp_path / "sweep"
    proc = subprocess.run(
        [sys.executable, "-m", "jointhash", "sweep",
         "--features", str(tmp_path / "bench" / "features.feat"),
         "--labels", str(tmp_path / "bench" / "labels.txt"),
         "--bits", "16,32,48,64", "--eta", "0.2", "--beta", "25",
         "--epochs", "60", "--seed", "0", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    bits = [int(r["bits"]) for r in rows]
    maps = [float(r["map"]) for r in rows]
    monotone = all(b >= a - 0.02 for a, b in zip(maps, maps[1:]))
    ok = bits == [16, 32, 48, 64] and monotone and all(0 <= m <= 1 for m in maps)
    report(7, ok, "sweep CSV rows " +
           ", ".join(f"K={b}:MAP={m:.4f}" for b, m in zip(bits, maps)) +
           " (monotone within 0.02)")


def test_criterion_8_checkpoint_determinism(tmp_path):
    ds = synth_dataset(seed=0, **BENCH)
    train_set, _ = train_test_split(ds, 0.2, seed=0)
    save_dataset(train_set, tmp_path / "bench")
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "jointhash", "train",
             "--features", str(tmp_path / "bench" / "features.feat"),
             "--labels", str(tmp_path / "bench" / "labels.txt"),
             "--bits", "16", "--epochs", "20", "--seed", "11",
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append((out / "checkpoint.bin").read_bytes())
    ok = digests[0] == digests[1] and len(digests[0]) > 0
    report(8, ok, f"two cmd_train runs -> byte-identical checkpoints "
                  f"({len(digests[0])} bytes)")
