"""Brute-force oracles that share no code with the package they check.

Codes are compared as unpacked bit arrays, distances are per-item counts of
differing bits, and rankings come from `np.lexsort` on (table position,
distance), so ties keep table order. Each check returns a list of problems;
an empty list means the result is correct.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

_HTBL = struct.Struct("<4sHII")
_FEAT = struct.Struct("<4sHIIH")


def unpack_bits(codes: np.ndarray, bits: int) -> np.ndarray:
    """(N, words) little-endian uint64 codes -> (N, bits) uint8 of 0/1."""
    raw = np.ascontiguousarray(codes, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, bitorder="little")[:, :bits]


def distances(table_bits: np.ndarray, query_bits: np.ndarray) -> np.ndarray:
    return np.count_nonzero(table_bits != query_bits, axis=1)


def ranking(table_bits: np.ndarray, query_bits: np.ndarray):
    """(order, distances): table positions by ascending distance, ties by position."""
    d = distances(table_bits, query_bits)
    return np.lexsort((np.arange(d.size), d)), d


def check_top_k(table_bits, ids, query_bits, k, got_ids, got_dists) -> list[str]:
    order, d = ranking(table_bits, query_bits)
    want = order[:k]
    problems = []
    if not np.array_equal(np.asarray(got_ids), ids[want]):
        problems.append("top_k ids or tie order differ from the oracle")
    if not np.array_equal(np.asarray(got_dists), d[want]):
        problems.append("top_k distances differ from the oracle")
    return problems


def check_radius(table_bits, ids, query_bits, radius, got) -> list[str]:
    d = distances(table_bits, query_bits)
    want = set(ids[d <= radius].tolist())
    if set(got) != want:
        return [f"radius {radius}: {len(want - set(got))} hits missing, "
                f"{len(set(got) - want)} extra"]
    return []


def average_precision(flags: np.ndarray) -> float:
    """Mean precision at each relevant rank of a ranked 0/1 list; 0 if none."""
    hits = np.flatnonzero(flags)
    if hits.size == 0:
        return 0.0
    return float(np.mean(np.arange(1, hits.size + 1) / (hits + 1)))


def evaluation(table_bits, table_labels, query_bits, query_labels, exclude=None):
    """MAP, P@k and R@k for k = 1.., and precision/recall per radius, averaged
    over queries; exclude[q] is a table position left out of query q's list."""
    nq, bits = query_bits.shape
    depth = table_bits.shape[0] - (0 if exclude is None else 1)
    ks = np.arange(1, depth + 1)
    aps = []
    sums = {"precision_at": np.zeros(depth), "recall_at": np.zeros(depth),
            "pr_precision": np.zeros(bits + 1), "pr_recall": np.zeros(bits + 1)}
    for q in range(nq):
        d = distances(table_bits, query_bits[q])
        keep = np.ones(d.size, dtype=bool)
        if exclude is not None:
            keep[exclude[q]] = False
        d, labels = d[keep], table_labels[keep]
        relevant = labels == query_labels[q]
        flags = relevant[np.argsort(d, kind="stable")]
        aps.append(average_precision(flags))
        hits = np.cumsum(flags)
        total = int(relevant.sum())
        sums["precision_at"] += hits / ks
        if total:
            sums["recall_at"] += hits / total
        within = np.cumsum(np.bincount(d, minlength=bits + 1))
        hits_within = np.cumsum(np.bincount(d[relevant], minlength=bits + 1))
        sums["pr_precision"] += np.where(within == 0, 1.0,
                                         hits_within / np.maximum(within, 1))
        if total:
            sums["pr_recall"] += hits_within / total
    return {"map": float(np.mean(aps)), **{k: v / nq for k, v in sums.items()}}


def check_evaluation(got: dict, want: dict, tol: float = 1e-9) -> list[str]:
    """Compare an evaluation's figures (scalars or arrays) with the oracle's."""
    problems = []
    for key, value in want.items():
        g = np.asarray(got.get(key), dtype=float)
        if g.shape != np.shape(value) or not np.allclose(g, value, rtol=tol, atol=tol):
            problems.append(f"{key} differs from the oracle's")
    return problems


def check_query_rows(rows: list[list[str]], table_bits, ids, labels, predicted,
                     query_bits, k) -> list[str]:
    """CSV rows (rank, id, distance, label, predicted) against the oracle's top k."""
    want = []
    for q in range(query_bits.shape[0]):
        order, d = ranking(table_bits, query_bits[q])
        for rank, pos in enumerate(order[:k], start=1):
            want.append([str(rank), str(ids[pos]), str(d[pos]), str(labels[pos]),
                         str(predicted[pos])])
    if rows != want:
        bad = next((i for i, (a, b) in enumerate(zip(rows, want)) if a != b),
                   min(len(rows), len(want)))
        return [f"query rows differ from the oracle's top {k} at row {bad} "
                f"({len(rows)} rows, expected {len(want)})"]
    return []


def read_code_table(path):
    """Independent HTBL reader: (codes, ids, labels, predicted, bits)."""
    raw = Path(path).read_bytes()
    magic, _version, n, bits = _HTBL.unpack_from(raw, 0)
    if magic != b"HTBL":
        raise ValueError(f"{path}: not a code table")
    words = (bits + 63) // 64
    offset = _HTBL.size
    codes = np.frombuffer(raw, "<u8", n * words, offset).reshape(n, words)
    offset += 8 * n * words
    cols = []
    for _ in range(3):
        cols.append(np.frombuffer(raw, "<u4", n, offset).astype(np.int64))
        offset += 4 * n
    return codes, cols[0], cols[1], cols[2], bits


def read_feat32(path) -> np.ndarray:
    """Independent reader of a FEAT file of 32-bit floats, widened to float64."""
    raw = Path(path).read_bytes()
    magic, _version, n, d, width = _FEAT.unpack_from(raw, 0)
    if magic != b"FEAT" or width != 32:
        raise ValueError(f"{path}: not a FEAT file of 32-bit values")
    return np.frombuffer(raw, "<f4", n * d, _FEAT.size).reshape(n, d).astype(np.float64)
