"""Packed-bit code table with exact Hamming-distance ranking.

Distances are computed by XOR + popcount over 64-bit words. Pad bits beyond
the code length are zero by construction (enforced when the table is built),
so the inner loop needs no masking. This module is the only place distances
are computed and a table is ordered: rank_all is the one ranking that search
and evaluation build on, and per_group the one step that lets queries with
equal codes share it.

The scan walks the table in blocks of _SCAN_ROWS rows and, within a block,
word by word: each word's XOR goes into one reused block buffer and its
popcount is added to the distances. No table-sized temporary is built and
no (rows, words) array is summed along its short axis. Every table size
takes this one path: it is faster than a whole-table XOR on tables larger
than the cache and within timing noise on small ones.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._files import U32_MAX, open_binary, read_into, write_binary
from .errors import DimensionError, FormatError
from .model import WORD_BITS, packed_words

TABLE_MAGIC = b"HTBL"
TABLE_VERSION = 1
_TABLE_HEADER = struct.Struct("<4sHII")

# rank_all guesses its cut radius from every _SAMPLE_STRIDE-th distance with
# a margin of _SAMPLE_FACTOR; at depth 100 on 10^6 64-bit codes that sorts a
# median of about 460 rows and falls back to bisection for 3 queries in 200
_SAMPLE_STRIDE = 64
_SAMPLE_FACTOR = 2

# rows per block of the _distances scan: one word's XOR of a block is 512 KB
_SCAN_ROWS = 65536


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
    n, words = table.codes.shape
    if q.shape != (words,):
        raise DimensionError(
            f"query must be one packed code of shape ({words},), "
            f"got shape {q.shape}"
        )
    if not _pad_is_zero(q[None, :], table.code_bits):
        raise ValueError("query pad bits beyond the code length must be zero")
    # zeros, not empty: the rows of a 0-bit table have no word to count
    d = np.zeros(n, dtype=np.min_scalar_type(table.code_bits))
    block = min(n, _SCAN_ROWS)
    xor = np.empty(block, dtype=np.uint64)
    count = np.empty(block, dtype=np.uint8)
    for start in range(0, n, _SCAN_ROWS):
        rows = slice(start, start + _SCAN_ROWS)
        out = d[rows]
        x, c = xor[:len(out)], count[:len(out)]
        for w in range(words):
            np.bitwise_xor(table.codes[rows, w], q[w], out=x)
            if w == 0:
                np.bitwise_count(x, out=out)
            else:
                np.bitwise_count(x, out=c)
                out += c
    return d


def rank_all(query: np.ndarray, table: CodeTable,
             depth: int | None = None) -> Ranking:
    """Table items ordered by ascending distance; ties keep table order.

    With a depth, only the first `depth` rows of that ranking are returned
    (all rows when depth is None or at least len(table)). A cut radius is
    guessed from a histogram of every _SAMPLE_STRIDE-th distance and the rows
    within it are taken in one pass; a bisection over the larger radii runs
    only when they number fewer than `depth`. Only those rows are stably
    sorted. Any radius holding `depth` rows gives the full ranking's prefix:
    the rows come in table order, and every row beyond it ranks after them.
    """
    if depth is not None and depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    d = _distances(query, table)
    if depth is None or depth >= len(d):
        order = np.argsort(d, kind="stable")
    else:
        need = _SAMPLE_FACTOR * -(-depth // _SAMPLE_STRIDE)
        counts = np.bincount(d[::_SAMPLE_STRIDE], minlength=table.code_bits + 1)
        lo = min(int(np.searchsorted(counts.cumsum(), need)), table.code_bits)
        rows = np.flatnonzero(d <= lo)
        if len(rows) < depth:
            lo, hi = lo + 1, table.code_bits
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


def per_group(keys: np.ndarray, make):
    """For each row of keys in order, yield make(rows) of its group: rows are
    the ascending indices of the rows equal to it. A group's value is made at
    its first row and dropped after its last, so only groups whose rows
    interleave are held at once."""
    _, group_of = np.unique(keys, axis=0, return_inverse=True)
    group_of = group_of.tolist()
    rows = {}
    for row, group in enumerate(group_of):
        rows.setdefault(group, []).append(row)
    held = {}
    for row, group in enumerate(group_of):
        if group not in held:
            held[group] = make(rows[group])
        yield held.pop(group) if rows[group][-1] == row else held[group]


def save_code_table(table: CodeTable, path) -> None:
    for name, arr in (("ids", table.ids), ("labels", table.labels),
                      ("predicted", table.predicted)):
        if arr.size and (arr.min() < 0 or arr.max() > U32_MAX):
            raise ValueError(f"{name} must fit in unsigned 32-bit integers")
    write_binary(path, _TABLE_HEADER.pack(TABLE_MAGIC, TABLE_VERSION,
                                          len(table), table.code_bits),
                 (table.codes, "<u8"), (table.ids, "<u4"),
                 (table.labels, "<u4"), (table.predicted, "<u4"))


def load_code_table(path) -> CodeTable:
    with open_binary(path, _TABLE_HEADER, TABLE_MAGIC, TABLE_VERSION, "code-table",
                     lambda n, bits: (8 * packed_words(bits) + 3 * 4) * n
                     ) as (fh, (n, bits)):
        codes = read_into(fh, path, np.empty((n, packed_words(bits)), "<u8"))
        # one u32 buffer; each column is widened before the next is read
        column = np.empty(n, "<u4")
        ids, labels, predicted = [read_into(fh, path, column).astype(np.int64)
                                  for _ in range(3)]
    try:
        return CodeTable(codes=codes, ids=ids, labels=labels,
                         predicted=predicted, code_bits=bits)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
