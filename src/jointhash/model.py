"""Model parameters and forward computations of the hash and classifier heads.

Array conventions used throughout the package:

* feature vector   -- 1-D float64 array of length D
* hash-like vector -- 1-D float64 array of length K (pre-binarization output)
* sign code        -- 1-D int8 array of length K with entries in {-1, +1}
* packed code      -- 1-D uint64 array of ceil(K/64) words; bit j of word w
                      (counting from the LSB) holds code position 64*w + j,
                      bit value 1 meaning +1; trailing pad bits are zero
* class distribution -- 1-D float64 array of length C, positive, sums to 1

Batched variants stack these along axis 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError

WORD_BITS = 64


BLOCK_NAMES = ("hash_weights", "hash_bias", "cls_weights", "cls_bias")


class _FlatBlocks:
    """Base of ModelParams and GradientSet: four blocks in one float64 buffer.

    The blocks are views of `flat`, laid out in BLOCK_NAMES order, so one
    operation on `flat` (an SGD step, a finite check) covers all four. The
    constructor copies its inputs into a new buffer; a copy or a pickle
    round trip goes back through the constructor, so its blocks are views of
    its own buffer. Write into a block (`params.cls_bias[:] = 0.0`) rather than
    rebinding its attribute: a rebound attribute is no longer part of `flat`.
    """

    def __post_init__(self):
        blocks = [np.asarray(getattr(self, name), dtype=np.float64)
                  for name in BLOCK_NAMES]
        self._bind(np.concatenate([b.ravel() for b in blocks]), blocks)

    @classmethod
    def _like(cls, other: "_FlatBlocks"):
        """An instance with other's block shapes and an uninitialised buffer."""
        new = cls.__new__(cls)
        new._bind(np.empty_like(other.flat), other.blocks().values())
        return new

    def _bind(self, flat: np.ndarray, shaped) -> None:
        """Set each block to the view of flat shaped like its array in shaped."""
        self.flat = flat
        start = 0
        for name, block in zip(BLOCK_NAMES, shaped):
            stop = start + block.size
            setattr(self, name, flat[start:stop].reshape(block.shape))
            start = stop

    def blocks(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in BLOCK_NAMES}

    def _nonfinite_block(self) -> str | None:
        """Name of the first block holding a NaN or an infinity, else None."""
        if np.isfinite(self.flat).all():
            return None
        return next(name for name, block in self.blocks().items()
                    if not np.isfinite(block).all())

    def __reduce__(self):
        return type(self), tuple(self.blocks().values())


@dataclass
class ModelParams(_FlatBlocks):
    """Hash-layer and classifier weights.

    hash_weights: (K, D), hash_bias: (K,), cls_weights: (C, K), cls_bias: (C,),
    each a view of the parameter vector `flat`.
    """

    hash_weights: np.ndarray
    hash_bias: np.ndarray
    cls_weights: np.ndarray
    cls_bias: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        if self.hash_weights.ndim != 2 or self.cls_weights.ndim != 2:
            raise DimensionError("weight blocks must be 2-D")
        k, _ = self.hash_weights.shape
        c, k2 = self.cls_weights.shape
        if self.hash_bias.shape != (k,):
            raise DimensionError(
                f"hash bias has shape {self.hash_bias.shape}, expected ({k},)"
            )
        if k2 != k:
            raise DimensionError(
                f"classifier expects {k2}-bit input but hash layer emits {k} bits"
            )
        if self.cls_bias.shape != (c,):
            raise DimensionError(
                f"classifier bias has shape {self.cls_bias.shape}, expected ({c},)"
            )
        bad = self._nonfinite_block()
        if bad is not None:
            raise NumericError(f"non-finite values in parameter block {bad!r}")

    @property
    def code_bits(self) -> int:
        return self.hash_weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.hash_weights.shape[1]

    @property
    def num_classes(self) -> int:
        return self.cls_weights.shape[0]


def affine_hash(features: np.ndarray, params: ModelParams) -> np.ndarray:
    """Hash-like features W*f + b for a single feature vector or a batch."""
    f = np.asarray(features, dtype=np.float64)
    if f.shape[-1] != params.feature_dim:
        raise DimensionError(
            f"feature dimension {f.shape[-1]} does not match "
            f"hash layer input {params.feature_dim}"
        )
    return f @ params.hash_weights.T + params.hash_bias


def binarize(u: np.ndarray) -> np.ndarray:
    """Sign codes: +1 where u > 0 and -1 otherwise (so 0 maps to -1)."""
    u = np.asarray(u)
    if not np.isfinite(u).all():
        raise NumericError("cannot binarize non-finite hash-like features")
    return (u > 0).view(np.int8) * np.int8(2) - np.int8(1)


def logistic(x):
    """Numerically stable 1 / (1 + exp(-x)), elementwise."""
    arr = np.asarray(x, dtype=np.float64)
    # exp(-|x|) never overflows; for x < 0 it is exp(x), bit for bit
    e = np.exp(-np.abs(arr))
    out = np.where(arr >= 0, 1.0, e) / (1.0 + e)
    return float(out) if arr.ndim == 0 else out


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction."""
    s = np.asarray(scores, dtype=np.float64)
    shifted = s - s.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def class_scores(u: np.ndarray, params: ModelParams) -> np.ndarray:
    """Class distribution softmax(W*u + b) for one hash-like vector or a batch."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape[-1] != params.code_bits:
        raise DimensionError(
            f"hash-like dimension {u.shape[-1]} does not match "
            f"classifier input {params.code_bits}"
        )
    return softmax(u @ params.cls_weights.T + params.cls_bias)


def predict_labels(t: np.ndarray) -> np.ndarray:
    """Row-wise argmax for a batch of class distributions; ties go low."""
    return np.argmax(np.asarray(t), axis=-1)


def packed_words(bits: int) -> int:
    return (bits + WORD_BITS - 1) // WORD_BITS


def pack_codes(signs: np.ndarray) -> np.ndarray:
    """Pack {-1,+1} sign codes into little-endian uint64 words.

    Accepts a single code (K,) or a batch (N, K); returns (W,) or (N, W)
    with W = ceil(K/64). Pad bits beyond K are zero.
    """
    s = np.atleast_2d(np.asarray(signs))
    if s.size and not np.all(np.abs(s) == 1):
        raise NumericError("sign codes must contain only -1 and +1")
    n, k = s.shape
    words = packed_words(k)
    bits01 = (s > 0).astype(np.uint8)
    packed8 = np.packbits(bits01, axis=-1, bitorder="little")
    full = np.zeros((n, words * 8), dtype=np.uint8)
    full[:, : packed8.shape[1]] = packed8
    out = full.view(np.dtype("<u8"))
    return out[0] if np.asarray(signs).ndim == 1 else out


def unpack_codes(packed: np.ndarray, bits: int) -> np.ndarray:
    """Inverse of pack_codes: packed words back to {-1,+1} int8 codes."""
    p = np.atleast_2d(np.ascontiguousarray(packed, dtype=np.dtype("<u8")))
    if p.shape[-1] != packed_words(bits):
        raise DimensionError(
            f"{p.shape[-1]} words cannot hold a {bits}-bit code "
            f"(expected {packed_words(bits)})"
        )
    as_bytes = p.view(np.uint8)
    bits01 = np.unpackbits(as_bytes, axis=-1, bitorder="little")[:, :bits]
    signs = (bits01.astype(np.int8) * 2) - 1
    return signs[0] if np.asarray(packed).ndim == 1 else signs
