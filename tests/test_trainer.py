import copy
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from jointhash.data import (
    BLOCK_ROWS,
    Dataset,
    StreamedDataset,
    synth_dataset,
    write_feature_file,
    write_label_file,
)
from jointhash.errors import (
    DataError,
    DimensionError,
    FormatError,
    TrainingDivergedError,
)
from jointhash.index import load_code_table, save_code_table
from jointhash.model import (
    ModelParams,
    affine_hash,
    binarize,
    class_scores,
    logistic,
    pack_codes,
    predict_labels,
    unpack_codes,
)
from jointhash.objective import (
    Hyperparams,
    label_loss,
    similarity_loss,
    total_loss,
)
from jointhash.train import (
    Checkpoint,
    EpochStats,
    TrainConfig,
    _stream_rng,
    encode,
    encode_database,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    train,
)


def small_dataset(seed=0, classes=3, per_class=8, dim=6):
    return synth_dataset(classes, per_class, dim, separation=3.0, seed=seed)


def quick_hyper(**kw):
    base = dict(eta=0.2, beta=25.0, lr=3e-4, code_bits=8, batch_size=8,
                epochs=5, seed=0)
    base.update(kw)
    return Hyperparams(**base)


class TestSgdStep:
    def make(self):
        rng = np.random.default_rng(0)
        params = ModelParams(rng.normal(size=(3, 4)), rng.normal(size=3),
                             rng.normal(size=(2, 3)), rng.normal(size=2))
        zeros = ModelParams(np.zeros((3, 4)), np.zeros(3), np.zeros((2, 3)),
                            np.zeros(2))
        return params, zeros

    def test_zero_gradient_noop(self):
        params, zeros = self.make()
        before = copy.deepcopy(params)
        sgd_step(params, zeros, lr=0.5)
        for a, b in zip(params.blocks().values(), before.blocks().values()):
            assert np.array_equal(a, b)

    def test_zero_lr_noop(self):
        params, _ = self.make()
        rng = np.random.default_rng(2)
        grads = ModelParams(rng.normal(size=(3, 4)), rng.normal(size=3),
                            rng.normal(size=(2, 3)), rng.normal(size=2))
        before = copy.deepcopy(params)
        sgd_step(params, grads, lr=0.0)
        for a, b in zip(params.blocks().values(), before.blocks().values()):
            assert np.array_equal(a, b)

    def test_step_reduces_convex_toy_loss(self):
        # quadratic surrogate: requesting descent on 0.5*||W||^2
        rng = np.random.default_rng(1)
        params = ModelParams(rng.normal(size=(2, 2)), rng.normal(size=2),
                             rng.normal(size=(2, 2)), rng.normal(size=2))

        def toy(p):
            return sum(float(np.sum(b**2)) for b in p.blocks().values()) / 2

        grads = ModelParams(params.hash_weights.copy(),
                            params.hash_bias.copy(),
                            params.cls_weights.copy(),
                            params.cls_bias.copy())
        before = toy(params)
        sgd_step(params, grads, lr=0.1)
        assert toy(params) < before

    def test_in_place_and_returns_params(self):
        params, zeros = self.make()
        assert sgd_step(params, zeros, lr=0.1) is params

    def test_step_on_copy_moves_only_the_copy(self):
        params, _ = self.make()
        grads = ModelParams(np.ones((3, 4)), np.ones(3), np.ones((2, 3)),
                            np.ones(2))
        before = params.flat.copy()
        moved = sgd_step(copy.deepcopy(params), grads, lr=0.5)
        assert np.array_equal(params.flat, before)
        for name, block in moved.blocks().items():
            assert np.array_equal(block, params.blocks()[name] - 0.5), name


class TestTrain:
    def test_deterministic(self):
        ds = small_dataset()
        p1, t1 = train(ds, TrainConfig(quick_hyper()))
        p2, t2 = train(ds, TrainConfig(quick_hyper()))
        for a, b in zip(p1.blocks().values(), p2.blocks().values()):
            assert np.array_equal(a, b)
        assert [(r.epoch, r.total, r.similarity, r.label) for r in t1] == \
               [(r.epoch, r.total, r.similarity, r.label) for r in t2]

    def test_seed_changes_params(self):
        ds = small_dataset()
        p1, _ = train(ds, TrainConfig(quick_hyper(seed=0)))
        p2, _ = train(ds, TrainConfig(quick_hyper(seed=1)))
        assert not np.array_equal(p1.hash_weights, p2.hash_weights)

    def test_label_loss_trend_eta_zero(self):
        # full batch keeps the per-epoch mean free of shuffle noise, so the
        # trace reflects pure descent
        ds = synth_dataset(3, 20, 8, separation=4.0, seed=2)
        _, trace = train(ds, TrainConfig(quick_hyper(eta=0.0, epochs=5,
                                                     lr=0.05, batch_size=60)))
        values = [r.label for r in trace]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_joint_loss_decreases_epoch1_to_10(self):
        ds = synth_dataset(4, 20, 16, separation=3.0, seed=3)
        _, trace = train(ds, TrainConfig(quick_hyper(epochs=10)))
        assert trace[9].total < trace[0].total

    def test_single_class_rejected(self):
        ds = Dataset(np.random.default_rng(0).normal(size=(6, 4)),
                     np.zeros(6, dtype=int), num_classes=2)
        with pytest.raises(DataError):
            train(ds, TrainConfig(quick_hyper()))

    def test_divergence_aborts_with_context(self):
        ds = synth_dataset(3, 16, 8, separation=3.0, seed=4)
        big = TrainConfig(quick_hyper(lr=50.0, epochs=3))
        with pytest.raises(TrainingDivergedError) as err:
            train(ds, big)
        assert err.value.epoch >= 1

    def test_non_finite_batch_names_epoch_and_batch(self):
        # the first batch's step overflows the weights; the error names that
        # batch and its finite loss, and no numpy warning escapes
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(0, 1, (64, 8)), np.arange(64) % 2, num_classes=2)
        config = TrainConfig(quick_hyper(lr=1e308, beta=25.0, code_bits=8,
                                         batch_size=16))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError) as err:
                train(ds, config)
        assert (err.value.epoch, err.value.batch) == (1, 0)
        assert np.isfinite(err.value.loss)
        assert type(err.value.__cause__) is FloatingPointError

    def test_trace_epochs_one_based(self):
        ds = small_dataset()
        _, trace = train(ds, TrainConfig(quick_hyper(epochs=3)))
        assert [r.epoch for r in trace] == [1, 2, 3]


def two_pass_train(dataset, hyper):
    """Reference training loop with two forward passes per batch.

    The loss comes from the public similarity_loss and label_loss on one
    forward pass; the gradient recomputes u, the codes and the class scores
    on a second. The fused step must match it bit for bit.
    """
    labels = dataset.labels
    n = len(labels)
    params = init_params(dataset.feature_dim, hyper.code_bits,
                         dataset.num_classes, hyper.seed)
    eta, beta = hyper.eta, hyper.beta
    trace = []
    for epoch in range(hyper.epochs):
        perm = _stream_rng(hyper.seed, epoch).permutation(n)
        batch_parts = []
        for start in range(0, n, hyper.batch_size):
            idx = perm[start:start + hyper.batch_size]
            f, y = dataset.features[idx], labels[idx]
            u = affine_hash(f, params)
            sim = similarity_loss(u, binarize(u), y, beta)
            lab = label_loss(class_scores(u, params), y)
            batch_parts.append((eta * sim + (1.0 - eta) * lab, sim, lab))

            m = len(y)
            u = affine_hash(f, params)
            b = binarize(u).astype(np.float64)
            t = class_scores(u, params)
            t[np.arange(m), y] -= 1.0
            g = (1.0 - eta) * t / m
            mism = logistic(0.5 * (u @ u.T)) - (y[:, None] == y[None, :]).astype(np.float64)
            np.fill_diagonal(mism, 0.0)
            du = (eta * (0.5 * (mism @ u) + 2.0 * beta * (u - b))
                  + g @ params.cls_weights)
            sgd_step(params, ModelParams(du.T @ f, du.sum(axis=0), g.T @ u,
                                         g.sum(axis=0)), hyper.lr)
        trace.append(EpochStats(
            epoch=epoch + 1,
            total=float(np.mean([p[0] for p in batch_parts])),
            similarity=float(np.mean([p[1] for p in batch_parts])),
            label=float(np.mean([p[2] for p in batch_parts])),
        ))
    return params, trace


class TestFusedStep:
    def test_one_forward_pass_per_batch(self, monkeypatch):
        import jointhash.objective as objective

        calls = []
        real = objective.affine_hash

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(objective, "affine_hash", counted)
        ds = small_dataset(per_class=9)
        hyper = quick_hyper(epochs=3, batch_size=8)
        train(ds, TrainConfig(hyper))
        assert len(calls) == hyper.epochs * math.ceil(len(ds) / hyper.batch_size)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("eta", [0.0, 0.2, 1.0])
    def test_bitwise_equal_to_two_pass_step(self, seed, eta):
        ds = small_dataset(seed=seed, per_class=9)
        hyper = quick_hyper(eta=eta, seed=seed, epochs=6)
        params, trace = train(ds, TrainConfig(hyper))
        ref_params, ref_trace = two_pass_train(ds, hyper)
        for name, block in params.blocks().items():
            assert block.tobytes() == ref_params.blocks()[name].tobytes(), name
        assert trace == ref_trace

    # 27 rows: batch 8 leaves a ragged last batch of 3, batch 10 one of 7
    @pytest.mark.parametrize("code_bits, batch_size, beta", [
        (1, 8, 25.0),
        (33, 10, 25.0),
        (64, 8, 25.0),
        (16, 1, 25.0),
        (8, 8, 0.0),
        (33, 27, 0.0),
    ], ids=["K1", "K33-ragged7", "K64", "batch1", "beta0", "K33-one-batch-beta0"])
    @pytest.mark.parametrize("eta", [0.0, 0.2, 1.0])
    def test_bitwise_equal_to_two_pass_step_at_edge_shapes(
            self, eta, code_bits, batch_size, beta):
        ds = small_dataset(seed=3, per_class=9)
        hyper = quick_hyper(eta=eta, code_bits=code_bits, batch_size=batch_size,
                            beta=beta, seed=3, epochs=4)
        params, trace = train(ds, TrainConfig(hyper))
        ref_params, ref_trace = two_pass_train(ds, hyper)
        assert params.flat.tobytes() == ref_params.flat.tobytes()
        for name, block in params.blocks().items():
            assert block.tobytes() == ref_params.blocks()[name].tobytes(), name
        assert trace == ref_trace

    # 800 rows in batches of 32, with K=16 and D=64 as in acceptance training
    @pytest.mark.parametrize("eta", [0.0, 0.2, 1.0])
    def test_bitwise_equal_to_two_pass_step_at_acceptance_shape(self, eta):
        ds = synth_dataset(10, 80, 64, separation=3.0, seed=4)
        hyper = Hyperparams(eta=eta, beta=25.0, lr=3e-4, code_bits=16,
                            batch_size=32, epochs=3, seed=4)
        params, trace = train(ds, TrainConfig(hyper))
        ref_params, ref_trace = two_pass_train(ds, hyper)
        assert params.flat.tobytes() == ref_params.flat.tobytes()
        assert trace == ref_trace


class TestEncodeDatabase:
    def test_codes_match_forward_composition(self):
        ds = small_dataset(seed=5)
        params = init_params(ds.feature_dim, 8, ds.num_classes, seed=1)
        table = encode_database(params, ds)
        signs = binarize(affine_hash(ds.features, params))
        assert np.array_equal(unpack_codes(table.codes, 8), signs)
        assert np.array_equal(table.ids, np.arange(len(ds)))
        assert np.array_equal(table.labels, ds.labels)

    def test_empty_dataset(self):
        ds = Dataset(np.zeros((0, 4)), np.zeros(0, dtype=int), num_classes=3)
        params = init_params(4, 8, 3, seed=0)
        assert len(encode_database(params, ds)) == 0

    def test_roundtrips_through_table_file(self, tmp_path):
        ds = small_dataset(seed=6)
        params = init_params(ds.feature_dim, 12, ds.num_classes, seed=2)
        table = encode_database(params, ds)
        save_code_table(table, tmp_path / "db.htbl")
        loaded = load_code_table(tmp_path / "db.htbl")
        assert np.array_equal(loaded.codes, table.codes)
        assert np.array_equal(loaded.predicted, table.predicted)


class TestEncodeBlocks:
    @pytest.mark.parametrize("k", [1, 48, 64, 65])
    @pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS,
                                   BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3])
    def test_matches_whole_array_reference(self, n, k):
        rng = np.random.default_rng([n, k])
        params = ModelParams(rng.normal(size=(k, 6)), rng.normal(size=k),
                             rng.normal(size=(5, k)), rng.normal(size=5))
        f = rng.normal(size=(n, 6))
        u = f @ params.hash_weights.T + params.hash_bias
        codes, predicted = encode(params, f)
        want = pack_codes(binarize(u))
        assert codes.dtype == np.uint64 and codes.shape == want.shape
        assert np.array_equal(codes, want)
        assert predicted.dtype == np.int64
        assert np.array_equal(predicted,
                              np.argmax(class_scores(u, params), axis=1))

    def test_vector_is_one_row(self):
        rng = np.random.default_rng(3)
        params = ModelParams(rng.normal(size=(70, 6)), rng.normal(size=70),
                             rng.normal(size=(4, 70)), rng.normal(size=4))
        f = rng.normal(size=6)
        codes, predicted = encode(params, f)
        want_codes, want_predicted = encode(params, f[None, :])
        assert codes.shape == (1, 2) and predicted.shape == (1,)
        assert np.array_equal(codes, want_codes)
        assert np.array_equal(predicted, want_predicted)

    def test_width_checked_when_empty(self):
        params = init_params(4, 8, 3, seed=0)
        with pytest.raises(DimensionError):
            encode(params, np.zeros((0, 5)))


class TestEncodeMemory:
    """encode_database on a streamed 32-bit feature file holds one float64
    block, its u and the outputs, and no other array of block size."""

    K, C = 48, 10
    MiB = 1 << 20

    def traced_encode(self, tmp_path, n, d):
        feats = np.random.default_rng([n, d]).normal(size=(n, d))
        write_feature_file(tmp_path / "f.feat", feats, width=32)
        write_label_file(tmp_path / "l.txt", np.arange(n) % self.C, self.C)
        params = init_params(d, self.K, self.C, seed=1)
        stream = StreamedDataset(tmp_path / "f.feat", tmp_path / "l.txt")
        tracemalloc.start()
        try:
            table = encode_database(params, stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs = table.codes.nbytes + table.predicted.nbytes + table.ids.nbytes
        return feats.astype(np.float32).astype(np.float64), params, table, \
            peak - outputs

    def bound(self, rows, d):
        # a float64 block, its float32 buffer and its u, plus a margin for
        # the byte-wide (rows, K) arrays of binarize and pack_codes and for
        # small objects; one more u-sized array at D = 128 fails it
        return 8 * rows * (d + self.K) + 4 * rows * d + 2 * rows * self.K \
            + self.MiB // 16

    def test_peak_is_one_block_and_its_u(self, tmp_path):
        _, _, _, peak = self.traced_encode(tmp_path, 2 * BLOCK_ROWS + 3, 128)
        assert peak < self.bound(1024, 128)

    def test_wide_features_peak_independent_of_rows(self, tmp_path):
        # at D = 1024 a block has 128 rows (1 MiB), so files of 9 and 25
        # blocks peak alike; their codes and labels are those of one product
        # over every row
        peaks = []
        for n in (1024 + 5, 3 * 1024 + 7):
            feats, params, table, peak = self.traced_encode(tmp_path, n, 1024)
            peaks.append(peak)
            u = feats @ params.hash_weights.T + params.hash_bias
            assert np.array_equal(table.codes, pack_codes(binarize(u)))
            assert np.array_equal(table.predicted,
                                  predict_labels(class_scores(u, params)))
        assert peaks[0] < self.bound(128, 1024)
        assert abs(peaks[1] - peaks[0]) < self.MiB // 16

    def test_row_floor_sets_the_block_when_very_wide(self, tmp_path):
        # at D = 4096 the 64-row floor gives a 2 MiB block, and its float32
        # buffer takes 1 MiB
        feats, params, table, peak = self.traced_encode(tmp_path, 2 * 64 + 5, 4096)
        u = feats @ params.hash_weights.T + params.hash_bias
        assert np.array_equal(table.codes, pack_codes(binarize(u)))
        assert np.array_equal(table.predicted,
                              predict_labels(class_scores(u, params)))
        assert peak < self.bound(64, 4096)


class TestCheckpointIO:
    def roundtrip(self, tmp_path, cp):
        path = tmp_path / "cp.bin"
        save_checkpoint(cp, path)
        return path, load_checkpoint(path)

    def test_bit_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        params = ModelParams(rng.normal(size=(8, 5)), rng.normal(size=8),
                             rng.normal(size=(3, 8)), rng.normal(size=3))
        cp = Checkpoint(params, quick_hyper(eta=0.375, lr=1.25e-4, seed=99),
                        epoch=17)
        _, loaded = self.roundtrip(tmp_path, cp)
        for a, b in zip(loaded.params.blocks().values(),
                        params.blocks().values()):
            assert np.array_equal(a, b)
        assert loaded.hyper == cp.hyper
        assert loaded.epoch == 17

    def test_body_is_blocks_in_order(self, tmp_path):
        params = init_params(5, 6, 3, seed=4)
        path, _ = self.roundtrip(tmp_path, Checkpoint(params, quick_hyper(), 2))
        body = b"".join(np.ascontiguousarray(b, dtype="<f8").tobytes()
                        for b in params.blocks().values())
        assert path.read_bytes()[18:18 + len(body)] == body

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "cp.bin"
        save_checkpoint(Checkpoint(init_params(3, 4, 2, 0), quick_hyper(), 1),
                        path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "cp.bin"
        save_checkpoint(Checkpoint(init_params(3, 4, 2, 0), quick_hyper(), 1),
                        path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "cp.bin"
        save_checkpoint(Checkpoint(init_params(3, 4, 2, 0), quick_hyper(), 1),
                        path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("fault", ["truncated header", "bad magic",
                                       "bad version", "wrong length"])
    def test_header_messages(self, tmp_path, fault):
        path = tmp_path / "cp.bin"
        save_checkpoint(Checkpoint(init_params(3, 4, 2, 0), quick_hyper(), 1),
                        path)
        raw = path.read_bytes()
        bad, message = {
            "truncated header": (raw[:17], "truncated header (17 bytes, need 18)"),
            "bad magic": (b"XXXX" + raw[4:], "bad magic b'XXXX' at offset 0"),
            "bad version": (raw[:4] + b"\x63\x00" + raw[6:],
                            "unsupported checkpoint version 99"),
            "wrong length": (raw + b"\0", f"file length {len(raw) + 1} does "
                             f"not match header (expected {len(raw)} bytes)"),
        }[fault]
        path.write_bytes(bad)
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: {message}"

    def test_loaded_params_reproduce_loss(self, tmp_path):
        ds = small_dataset(seed=8)
        hyper = quick_hyper(epochs=2)
        params, _ = train(ds, TrainConfig(hyper))
        _, loaded = self.roundtrip(tmp_path, Checkpoint(params, hyper, 2))
        expected = total_loss(ds.features, ds.labels, params, hyper)
        assert total_loss(ds.features, ds.labels, loaded.params,
                          hyper) == expected


def test_checkpoint_bytes_independent_of_blas_threads(tmp_path):
    """Training at the acceptance shape writes the same checkpoint with one
    and with two OpenBLAS threads."""
    synth_dataset(10, 100, 64, separation=3.0, seed=6, out_dir=tmp_path / "ds")
    procs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        procs.append(subprocess.Popen(
            [sys.executable, "-m", "jointhash", "train",
             "--features", str(tmp_path / "ds" / "features.feat"),
             "--labels", str(tmp_path / "ds" / "labels.txt"),
             "--bits", "16", "--batch", "32", "--epochs", "5", "--seed", "6",
             "--out", str(tmp_path / f"threads{threads}")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE))
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    digests = {hashlib.sha256((tmp_path / f"threads{t}" / "checkpoint.bin")
                              .read_bytes()).hexdigest() for t in ("1", "2")}
    assert len(digests) == 1
