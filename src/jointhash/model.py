"""Model parameters and forward computations of the hash and classifier heads.

Array conventions used throughout the package:

* feature vector   -- 1-D float64 array of length D
* hash-like vector -- 1-D float64 array of length K (pre-binarization output)
* sign code        -- 1-D int8 array of length K with entries in {-1, +1}
* packed code      -- 1-D uint64 array of ceil(K/64) words; bit j of word w
                      (counting from the LSB) holds code position 64*w + j,
                      bit value 1 meaning +1; trailing pad bits are zero
* class distribution -- 1-D float64 array of length C, positive, sums to 1

Batched variants stack these along axis 0. `ModelParams` holds the four
weight blocks, and `objective.grad_params` returns their gradients as a
`ModelParams` of the same layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError

WORD_BITS = 64


BLOCK_NAMES = ("hash_weights", "hash_bias", "cls_weights", "cls_bias")


@dataclass(eq=False)
class ModelParams:
    """Hash-layer and classifier weights, or the gradients of the objective.

    hash_weights: (K, D), hash_bias: (K,), cls_weights: (C, K), cls_bias: (C,),
    each a view of one float64 vector `flat`, laid out in BLOCK_NAMES order,
    so one operation on `flat` (an SGD step, a finite check) covers all four.
    The constructor copies its inputs into a new buffer; a copy or a pickle
    round trip goes back through the constructor, so its blocks are views of
    its own buffer. Write into a block (`params.cls_bias[:] = 0.0`) rather than
    rebinding its attribute: a rebound attribute is no longer part of `flat`.
    Two instances are equal when they have the same block shapes and equal
    `flat` vectors.
    """

    hash_weights: np.ndarray
    hash_bias: np.ndarray
    cls_weights: np.ndarray
    cls_bias: np.ndarray

    def __post_init__(self):
        blocks = [np.asarray(getattr(self, name), dtype=np.float64)
                  for name in BLOCK_NAMES]
        layout, start = [], 0
        for name, block in zip(BLOCK_NAMES, blocks):
            layout.append((name, slice(start, start + block.size), block.shape))
            start += block.size
        self._bind(np.concatenate([b.ravel() for b in blocks]), tuple(layout))
        if self.hash_weights.ndim != 2 or self.cls_weights.ndim != 2:
            raise DimensionError("weight blocks must be 2-D")
        k, _ = self.hash_weights.shape
        c, k2 = self.cls_weights.shape
        if c == 0:
            raise DimensionError("classifier has no classes")
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

    @classmethod
    def _like(cls, other: ModelParams) -> ModelParams:
        """An instance with other's block shapes and an uninitialised buffer,
        such as the gradients of other."""
        new = cls.__new__(cls)
        new._bind(np.empty_like(other.flat), other._layout)
        return new

    def _bind(self, flat: np.ndarray, layout) -> None:
        """Set each block to its view of flat; layout holds one (name, span,
        shape) per block, in BLOCK_NAMES order."""
        self.flat = flat
        self._layout = layout
        for name, span, shape in layout:
            setattr(self, name, flat[span].reshape(shape))

    def blocks(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in BLOCK_NAMES}

    def _nonfinite_block(self) -> str | None:
        """Name of the first block holding a NaN or an infinity, else None."""
        if np.logical_and.reduce(np.isfinite(self.flat)):
            return None
        return next(name for name, block in self.blocks().items()
                    if not np.isfinite(block).all())

    def __reduce__(self):
        return type(self), tuple(self.blocks().values())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        # equal layouts mean equal block shapes
        return self._layout == other._layout and np.array_equal(self.flat, other.flat)

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
    u = f @ params.hash_weights.T
    u += params.hash_bias
    return u


def binarize(u: np.ndarray) -> np.ndarray:
    """Sign codes: +1 where u > 0 and -1 otherwise (so 0 maps to -1)."""
    u = np.asarray(u)
    if not np.logical_and.reduce(np.isfinite(u), axis=None):
        raise NumericError("cannot binarize non-finite hash-like features")
    return (u > 0).view(np.int8) * np.int8(2) - np.int8(1)


def _exp_neg_abs(x: np.ndarray) -> np.ndarray:
    """exp(-|x|): never overflows, and for x < 0 it is exp(x), bit for bit."""
    return np.exp(-np.abs(x))


def _logistic(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) from x and e = _exp_neg_abs(x), as a new array."""
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def logistic(x):
    """Numerically stable 1 / (1 + exp(-x)), elementwise."""
    arr = np.asarray(x, dtype=np.float64)
    out = _logistic(arr, _exp_neg_abs(arr))
    return float(out) if arr.ndim == 0 else out


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction, as one new array."""
    s = np.asarray(scores, dtype=np.float64)
    e = s - np.maximum.reduce(s, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def class_scores(u: np.ndarray, params: ModelParams) -> np.ndarray:
    """Class distribution softmax(W*u + b) for one hash-like vector or a batch."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape[-1] != params.code_bits:
        raise DimensionError(
            f"hash-like dimension {u.shape[-1]} does not match "
            f"classifier input {params.code_bits}"
        )
    scores = u @ params.cls_weights.T
    scores += params.cls_bias
    return softmax(scores)


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
