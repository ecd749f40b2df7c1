"""Packed-bit code table with exact Hamming-distance ranking.

Distances are computed by XOR + popcount over 64-bit words. Pad bits beyond
the code length are zero by construction (enforced when the table is built),
so the inner loop needs no masking. This module is the only place distances
are computed and a table is ordered: rank_all is the one ranking that search
and evaluation build on.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ._files import atomic_open
from .errors import DimensionError, FormatError
from .model import WORD_BITS, packed_words

TABLE_MAGIC = b"HTBL"
TABLE_VERSION = 1
_TABLE_HEADER = struct.Struct("<4sHII")

# HTBL stores ids and labels, DHCN the class count, as u32
U32_MAX = 2**32 - 1


def _pad_is_zero(codes: np.ndarray, bits: int) -> bool:
    rem = bits % WORD_BITS
    if rem == 0 or codes.size == 0:
        return True
    used = np.uint64((1 << rem) - 1)
    pad = codes[:, -1] & ~used
    return not np.any(pad)


@dataclass
class CodeTable:
    """Parallel arrays of packed codes, item ids, and labels."""

    codes: np.ndarray
    ids: np.ndarray
    labels: np.ndarray
    predicted: np.ndarray
    code_bits: int

    def __post_init__(self):
        self.codes = np.ascontiguousarray(self.codes, dtype=np.uint64)
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.predicted = np.asarray(self.predicted, dtype=np.int64)
        if self.codes.ndim != 2:
            raise DimensionError("codes must be a 2-D array of packed words")
        n = self.codes.shape[0]
        if not (self.ids.shape == self.labels.shape == self.predicted.shape == (n,)):
            raise DimensionError("ids, labels, and predicted must have one row per code")
        if self.codes.shape[1] != packed_words(self.code_bits):
            raise DimensionError(
                f"{self.codes.shape[1]} words cannot hold {self.code_bits}-bit codes"
            )
        if not _pad_is_zero(self.codes, self.code_bits):
            raise ValueError("pad bits beyond the code length must be zero")

    def __len__(self) -> int:
        return self.codes.shape[0]


@dataclass
class Ranking:
    """Table rows ordered by ascending distance to a query; ties keep table order.

    Holds the sort order and the sorted distances, whose dtype is the
    narrowest unsigned one that holds code_bits. ids, labels and predicted
    are gathered from the table on first read.
    """

    table: CodeTable
    order: np.ndarray
    distances: np.ndarray

    def __len__(self) -> int:
        return self.order.shape[0]

    @cached_property
    def ids(self) -> np.ndarray:
        return self.table.ids[self.order]

    @cached_property
    def labels(self) -> np.ndarray:
        return self.table.labels[self.order]

    @cached_property
    def predicted(self) -> np.ndarray:
        return self.table.predicted[self.order]


def hamming_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Number of disagreeing bit positions between two packed codes."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.shape != b.shape:
        raise DimensionError(f"packed codes differ in shape: {a.shape} vs {b.shape}")
    return int(np.bitwise_count(a ^ b).sum())


def _distances(query: np.ndarray, table: CodeTable) -> np.ndarray:
    # The narrowest unsigned dtype that holds code_bits (uint8 up to 255 bits)
    # turns numpy's stable sort into a radix sort with the same tie order. It
    # cannot overflow because pad bits are zero in the table and the query.
    q = np.asarray(query, dtype=np.uint64)
    if q.shape != (table.codes.shape[1],):
        raise DimensionError(
            f"query has {q.shape[-1] if q.ndim else 0} words, table rows have "
            f"{table.codes.shape[1]}"
        )
    if not _pad_is_zero(q[None, :], table.code_bits):
        raise ValueError("query pad bits beyond the code length must be zero")
    return np.bitwise_count(table.codes ^ q).sum(
        axis=1, dtype=np.min_scalar_type(table.code_bits))


def rank_all(query: np.ndarray, table: CodeTable,
             depth: int | None = None) -> Ranking:
    """Table items ordered by ascending distance; ties keep table order.

    With a depth, only the first `depth` rows of that ranking are returned
    (all rows when depth is None or at least len(table)). Only the rows
    within the cut radius, the smallest r with at least `depth` rows at
    distance <= r, are sorted, so the result is the full ranking's prefix.
    """
    if depth is not None and depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    d = _distances(query, table)
    if depth is None or depth >= len(d):
        order = np.argsort(d, kind="stable")
    else:
        lo, hi = 0, table.code_bits
        while lo < hi:
            mid = (lo + hi) // 2
            if np.count_nonzero(d <= mid) >= depth:
                hi = mid
            else:
                lo = mid + 1
        rows = np.flatnonzero(d <= lo)
        order = rows[np.argsort(d[rows], kind="stable")[:depth]]
    return Ranking(table, order, d[order])


def radius_search(query: np.ndarray, table: CodeTable, radius: int) -> set[int]:
    """Ids of all items within the given Hamming radius."""
    if not 0 <= radius <= table.code_bits:
        raise ValueError(
            f"radius must lie in [0, {table.code_bits}], got {radius}"
        )
    return set(table.ids[_distances(query, table) <= radius].tolist())


def top_k(query: np.ndarray, table: CodeTable, k: int) -> Ranking:
    """First k entries of rank_all."""
    if not 1 <= k <= len(table):
        raise ValueError(f"k must lie in [1, {len(table)}], got {k}")
    return rank_all(query, table, k)


def save_code_table(table: CodeTable, path) -> None:
    for name, arr in (("ids", table.ids), ("labels", table.labels),
                      ("predicted", table.predicted)):
        if arr.size and (arr.min() < 0 or arr.max() > U32_MAX):
            raise ValueError(f"{name} must fit in unsigned 32-bit integers")
    blob = bytearray()
    blob += _TABLE_HEADER.pack(TABLE_MAGIC, TABLE_VERSION, len(table),
                               table.code_bits)
    blob += np.ascontiguousarray(table.codes, dtype="<u8").tobytes()
    for arr in (table.ids, table.labels, table.predicted):
        blob += arr.astype("<u4").tobytes()
    with atomic_open(path, "wb") as fh:
        fh.write(blob)


def load_code_table(path) -> CodeTable:
    raw = Path(path).read_bytes()
    if len(raw) < _TABLE_HEADER.size:
        raise FormatError(f"{path}: truncated code-table header")
    magic, version, n, bits = _TABLE_HEADER.unpack_from(raw, 0)
    if magic != TABLE_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at offset 0")
    if version != TABLE_VERSION:
        raise FormatError(f"{path}: unsupported code-table version {version}")
    words = packed_words(bits)
    expected = _TABLE_HEADER.size + 8 * n * words + 3 * 4 * n
    if len(raw) != expected:
        raise FormatError(
            f"{path}: file length {len(raw)} does not match header "
            f"(expected {expected} bytes)"
        )
    offset = _TABLE_HEADER.size
    codes = np.frombuffer(raw, dtype="<u8", count=n * words,
                          offset=offset).reshape(n, words).copy()
    offset += 8 * n * words
    u32 = []
    for _ in range(3):
        u32.append(np.frombuffer(raw, dtype="<u4", count=n,
                                 offset=offset).astype(np.int64))
        offset += 4 * n
    try:
        return CodeTable(codes=codes, ids=u32[0], labels=u32[1],
                         predicted=u32[2], code_bits=bits)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
