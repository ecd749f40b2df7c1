"""Minibatch SGD training and database encoding.

Determinism contract: identical (dataset, config) pairs produce bit-identical
parameters and traces. Parameter init and per-epoch shuffles come from
counter-based Philox streams keyed by (seed, stream), so no global RNG state
is involved.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from ._files import open_binary, read_into, write_binary
from .data import row_blocks
from .errors import DataError, FormatError, NumericError, TrainingDivergedError
from .index import CodeTable
from .model import (
    ModelParams,
    affine_hash,
    binarize,
    class_scores,
    pack_codes,
    packed_words,
    predict_labels,
)
from .objective import Hyperparams, grad_params, loss_parts

INIT_STREAM = 2**64 - 1
INIT_SCALE = 0.01
DIVERGENCE_LIMIT = 1e12

CHECKPOINT_MAGIC = b"DHCN"
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<4sHIII")
# after the parameters: eta, beta, lr, batch_size, epochs, seed, then epoch
_TRAILER = struct.Struct("<dddIIQI")


def _stream_rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class TrainConfig:
    """Training-loop settings: the objective and SGD hyperparameters."""

    hyper: Hyperparams


@dataclass
class EpochStats:
    """Batch-averaged loss values for one epoch (1-based epoch index)."""

    epoch: int
    total: float
    similarity: float
    label: float


@dataclass
class Checkpoint:
    """Trained parameters plus the hyperparameters that produced them."""

    params: ModelParams
    hyper: Hyperparams
    epoch: int


def init_params(feature_dim: int, code_bits: int, num_classes: int,
                seed: int) -> ModelParams:
    """Gaussian(0, 0.01) weights, zero biases."""
    rng = _stream_rng(seed, INIT_STREAM)
    return ModelParams(
        hash_weights=rng.normal(0.0, INIT_SCALE, (code_bits, feature_dim)),
        hash_bias=np.zeros(code_bits),
        cls_weights=rng.normal(0.0, INIT_SCALE, (num_classes, code_bits)),
        cls_bias=np.zeros(num_classes),
    )


def sgd_step(params: ModelParams, grads: ModelParams, lr: float) -> ModelParams:
    """One in-place descent step on all four parameter blocks."""
    params.flat -= lr * grads.flat
    return params


def train(dataset, config: TrainConfig) -> tuple[ModelParams, list[EpochStats]]:
    """Run minibatch SGD over the dataset; returns params and per-epoch trace."""
    hyper = config.hyper
    labels = np.asarray(dataset.labels)
    if np.unique(labels).size < 2:
        raise DataError("training requires samples from at least 2 classes")
    n = len(labels)
    params = init_params(dataset.feature_dim, hyper.code_bits,
                         dataset.num_classes, hyper.seed)
    trace: list[EpochStats] = []
    for epoch in range(hyper.epochs):
        perm = _stream_rng(hyper.seed, epoch).permutation(n)
        losses: list[tuple[float, float, float]] = []
        for start in range(0, n, hyper.batch_size):
            idx = perm[start:start + hyper.batch_size]
            feats = dataset.features[idx]
            ys = labels[idx]
            batch = start // hyper.batch_size
            loss = float("nan")
            try:
                parts = loss_parts(feats, ys, params, hyper)
                loss = parts.total
                if not math.isfinite(loss) or abs(loss) > DIVERGENCE_LIMIT:
                    raise TrainingDivergedError(epoch + 1, batch, loss)
                grads = grad_params(parts, params, hyper)
                # a step that overflows raises here, so the error names this
                # batch rather than the next one that meets inf parameters
                with np.errstate(over="raise"):
                    sgd_step(params, grads, hyper.lr)
            except TrainingDivergedError:
                raise
            except (NumericError, FloatingPointError) as exc:
                raise TrainingDivergedError(epoch + 1, batch, loss) from exc
            losses.append((parts.total, parts.similarity, parts.label))
        total, similarity, label = (float(np.mean(v)) for v in zip(*losses))
        trace.append(EpochStats(epoch + 1, total, similarity, label))
    return params, trace


def _encode_blocks(params: ModelParams, n: int,
                   blocks) -> tuple[np.ndarray, np.ndarray]:
    """Packed codes and predicted labels of n rows given in blocks, in order;
    each block's u is freed before the next is hashed."""
    codes = np.empty((n, packed_words(params.code_bits)), dtype=np.uint64)
    predicted = np.empty(n, dtype=np.int64)
    start = 0
    for block in blocks:
        rows = slice(start, start + len(block))
        u = affine_hash(block, params)
        codes[rows] = pack_codes(binarize(u))
        predicted[rows] = predict_labels(class_scores(u, params))
        del u
        start = rows.stop
    return codes, predicted


def encode(params: ModelParams,
           features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Packed hash codes (one row per feature row) and predicted labels,
    hashed in `data.row_blocks`. A 1-D feature vector is one row."""
    f = np.atleast_2d(features)
    return _encode_blocks(params, len(f), row_blocks(f))


def encode_database(params: ModelParams, dataset) -> CodeTable:
    """Hash codes and predicted labels for every item, in dataset order.

    The dataset is a Dataset or a StreamedDataset; both give their rows in
    the blocks that `encode` cuts an array into, so the codes are those of
    `encode(params, features)`, bit for bit.
    """
    codes, predicted = _encode_blocks(params, len(dataset), dataset.blocks())
    return CodeTable(
        codes=codes,
        ids=np.arange(len(dataset), dtype=np.int64),
        labels=dataset.labels,
        predicted=predicted,
        code_bits=params.code_bits,
    )


def save_checkpoint(cp: Checkpoint, path) -> None:
    p, h = cp.params, cp.hyper
    trailer = np.frombuffer(_TRAILER.pack(h.eta, h.beta, h.lr, h.batch_size,
                                          h.epochs, h.seed, cp.epoch), np.uint8)
    write_binary(path, _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                    p.feature_dim, p.code_bits, p.num_classes),
                 (p.flat, "<f8"), (trailer, None))  # the four blocks, in order


def load_checkpoint(path) -> Checkpoint:
    with open_binary(path, _HEADER, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint",
                     lambda d, k, c: 8 * (k * d + k + c * k + c) + _TRAILER.size
                     ) as (fh, (d, k, c)):
        flat = read_into(fh, path, np.empty(k * d + k + c * k + c, "<f8"))
        eta, beta, lr, batch, epochs, seed, epoch = _TRAILER.unpack(
            read_into(fh, path, np.empty(_TRAILER.size, np.uint8)))
    hash_weights, hash_bias, cls_weights, cls_bias = np.split(
        flat, np.cumsum([k * d, k, c * k]))
    try:
        params = ModelParams(
            hash_weights=hash_weights.reshape(k, d),
            hash_bias=hash_bias,
            cls_weights=cls_weights.reshape(c, k),
            cls_bias=cls_bias,
        )
        hyper = Hyperparams(eta=eta, beta=beta, lr=lr, code_bits=k,
                            batch_size=batch, epochs=epochs, seed=seed)
    except (ValueError, NumericError) as exc:
        raise FormatError(f"{path}: {exc}") from None
    return Checkpoint(params=params, hyper=hyper, epoch=epoch)
