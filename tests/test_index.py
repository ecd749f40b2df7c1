import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointhash import index
from jointhash.errors import DimensionError, FormatError
from jointhash.index import (
    CodeTable,
    hamming_distance,
    load_code_table,
    per_group,
    radius_search,
    rank_all,
    save_code_table,
    top_k,
)
from jointhash.model import pack_codes, unpack_codes


def naive_distance(sa, sb):
    """Oracle: count disagreeing positions on unpacked sign codes."""
    return int(sum(1 for x, y in zip(sa, sb) if x != y))


def random_signs(rng, n, k):
    return np.where(rng.random((n, k)) > 0.5, 1, -1).astype(np.int8)


def make_table(signs, labels=None, predicted=None):
    n, k = signs.shape
    return CodeTable(
        codes=np.atleast_2d(pack_codes(signs)),
        ids=np.arange(n),
        labels=np.zeros(n, dtype=int) if labels is None else labels,
        predicted=np.zeros(n, dtype=int) if predicted is None else predicted,
        code_bits=k,
    )


def check_depth_prefix(qsigns, signs, table, depth):
    """rank_all at a depth against the brute-force oracle and the full
    ranking's prefix: order, ids, distances and their dtype."""
    query = pack_codes(qsigns)
    dists = [naive_distance(qsigns, row) for row in signs]
    expected = sorted(range(len(signs)), key=lambda i: (dists[i], i))[:depth]
    r = rank_all(query, table, depth)
    full = rank_all(query, table)
    assert r.order.tolist() == expected
    assert r.ids.tolist() == table.ids[expected].tolist()
    assert r.distances.tolist() == [dists[i] for i in expected]
    assert r.distances.dtype == np.min_scalar_type(table.code_bits)
    assert np.array_equal(r.order, full.order[:depth])
    assert np.array_equal(r.ids, full.ids[:depth])
    assert np.array_equal(r.distances, full.distances[:depth])


class TestHammingDistance:
    def test_identical(self):
        code = pack_codes(np.array([1, -1, 1, -1]))
        assert hamming_distance(code, code) == 0

    def test_complementary(self):
        a = np.ones(70, dtype=np.int8)
        assert hamming_distance(pack_codes(a), pack_codes(-a)) == 70

    def test_hand_count(self):
        a = pack_codes(np.array([1, -1, 1, -1]))
        b = pack_codes(np.array([1, 1, -1, -1]))
        assert hamming_distance(a, b) == 2

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            hamming_distance(np.zeros(1, dtype=np.uint64),
                             np.zeros(2, dtype=np.uint64))

    @pytest.mark.parametrize("k", [16, 64, 100, 256])
    def test_dot_product_identity(self, k):
        rng = np.random.default_rng(k)
        for _ in range(200):
            sa, sb = random_signs(rng, 2, k)
            d = hamming_distance(pack_codes(sa), pack_codes(sb))
            assert d == (k - int(sa.astype(int) @ sb.astype(int))) // 2

    def test_metric_properties(self):
        rng = np.random.default_rng(1)
        signs = random_signs(rng, 30, 48)
        packed = np.atleast_2d(pack_codes(signs))
        for _ in range(200):
            i, j, l = rng.integers(0, 30, 3)
            dij = hamming_distance(packed[i], packed[j])
            dji = hamming_distance(packed[j], packed[i])
            dil = hamming_distance(packed[i], packed[l])
            dlj = hamming_distance(packed[l], packed[j])
            assert dij == dji
            assert hamming_distance(packed[i], packed[i]) == 0
            assert dij <= dil + dlj


class TestRankAll:
    def test_single_item(self):
        signs = np.array([[1, -1, 1]], dtype=np.int8)
        table = make_table(signs)
        r = rank_all(pack_codes(np.array([1, 1, 1])), table)
        assert len(r) == 1 and r.ids[0] == 0 and r.distances[0] == 1

    def test_exact_match_first(self):
        rng = np.random.default_rng(2)
        signs = random_signs(rng, 20, 16)
        table = make_table(signs)
        query = np.atleast_2d(pack_codes(signs))[7]
        r = rank_all(query, table)
        assert r.ids[0] == 7 and r.distances[0] == 0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n = int(rng.integers(1, 200))
            k = int(rng.choice([8, 16, 33, 64, 255, 256]))
            signs = random_signs(rng, n, k)
            qsigns = random_signs(rng, 1, k)[0]
            table = make_table(signs)
            r = rank_all(pack_codes(qsigns), table)
            # oracle: unpacked loop distances, sorted by (distance, index)
            dists = [naive_distance(qsigns, signs[i]) for i in range(n)]
            expected = sorted(range(n), key=lambda i: (dists[i], i))
            assert r.order.tolist() == expected
            assert r.distances.tolist() == [dists[i] for i in expected]
            assert r.distances.dtype == np.min_scalar_type(k)

    @pytest.mark.parametrize("k", [1, 8, 33, 64, 255, 256, 300])
    def test_depth_is_prefix_of_brute_force(self, k):
        # 1-4 distinct codes make ties that cross the cut radius
        rng = np.random.default_rng(k)
        for distinct in (1, 2, 3, 4):
            n = int(rng.integers(5, 40))
            signs = random_signs(rng, distinct, k)[rng.integers(0, distinct, n)]
            table = CodeTable(np.atleast_2d(pack_codes(signs)),
                              ids=rng.permutation(n) * 3 + 7,
                              labels=rng.integers(0, 3, n),
                              predicted=rng.integers(0, 3, n), code_bits=k)
            for qsigns in (signs[rng.integers(n)], random_signs(rng, 1, k)[0]):
                dists = [naive_distance(qsigns, row) for row in signs]
                sorted_d = sorted(dists)
                # depth d ends inside a tie group when rows d-1 and d tie
                inside = [d for d in range(1, n) if sorted_d[d - 1] == sorted_d[d]]
                assert inside
                for depth in (1, int(rng.choice(inside)), n - 1, n):
                    check_depth_prefix(qsigns, signs, table, depth)

    # With 4 or more strides of 64 rows, the rows at positions 0, 64, 128, ...
    # are the ones rank_all samples to guess its cut radius.
    @pytest.mark.parametrize("k", [1, 64, 65, 256, 300])
    @pytest.mark.parametrize("n", [4 * 64, 10 * 64 + 17])
    def test_sampled_rows_nearest_runs_bisection(self, k, n):
        # the sampled rows hold the query's code and no other row does, so for
        # depths from n/64 + 1 to 64 the sample puts the cut at 0, where fewer
        # than depth rows lie, and the bisection over the larger radii must run
        rng = np.random.default_rng([k, n])
        qsigns = random_signs(rng, 1, k)[0]
        others = random_signs(rng, 3, k)
        others[0] = -qsigns
        others[1:, 0] = -qsigns[0]
        signs = others[rng.integers(0, 3, n)]
        signs[::64] = qsigns
        table = make_table(signs, labels=rng.integers(0, 3, n))
        sampled = len(range(0, n, 64))
        for depth in (sampled + 1, sampled + 2, 2 * sampled, 64, n // 2, n - 1):
            check_depth_prefix(qsigns, signs, table, depth)

    @pytest.mark.parametrize("k", [1, 64, 65, 256, 300])
    @pytest.mark.parametrize("n", [4 * 64, 10 * 64 + 17])
    def test_sampled_rows_farthest_take_whole_table(self, k, n):
        # the sampled rows hold the query's complement, so the sample puts the
        # cut at k and every row is a candidate; the sort, not the table
        # order, must pick the first depth rows
        rng = np.random.default_rng([k, n, 1])
        qsigns = random_signs(rng, 1, k)[0]
        near = random_signs(rng, 3, k)
        near[0] = qsigns
        signs = near[rng.integers(0, 3, n)]
        signs[::64] = -qsigns
        table = make_table(signs, labels=rng.integers(0, 3, n))
        for depth in (1, n // 64 + 1, 100, n // 2, n - 1):
            check_depth_prefix(qsigns, signs, table, depth)

    @settings(max_examples=200, derandomize=True, deadline=None,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2000),
           k=st.integers(1, 300), distinct=st.integers(1, 5),
           noise=st.sampled_from([0.0, 0.02, 0.2]), data=st.data())
    def test_depth_is_prefix_of_full_ranking(self, seed, n, k, distinct, noise,
                                             data):
        # few distinct codes in random row order put long tie runs anywhere
        # in the table, sampled or not; bit noise spreads them over radii
        rng = np.random.default_rng(seed)
        signs = random_signs(rng, distinct, k)[rng.integers(0, distinct, n)]
        signs[rng.random((n, k)) < noise] *= -1
        table = make_table(signs)
        query = pack_codes(signs[rng.integers(n)] if rng.random() < 0.5
                           else random_signs(rng, 1, k)[0])
        depth = data.draw(st.integers(1, n + 2), label="depth")
        full = rank_all(query, table)
        r = rank_all(query, table, depth)
        assert np.array_equal(r.order, full.order[:depth])
        assert np.array_equal(r.distances, full.distances[:depth])
        assert r.distances.dtype == full.distances.dtype
        assert np.array_equal(r.ids, full.ids[:depth])

    @pytest.mark.parametrize("depth", [0, -1, -50])
    def test_depth_below_one_rejected(self, depth):
        table = make_table(np.ones((3, 4), dtype=np.int8))
        with pytest.raises(ValueError, match="depth"):
            rank_all(pack_codes(np.ones(4, dtype=np.int8)), table, depth)

    def test_query_pad_bits_rejected(self):
        # at K=255 distances are uint8; a set pad bit would make 256 wrap to 0
        table = make_table(-np.ones((2, 255), dtype=np.int8))
        query = np.full(4, 2**64 - 1, dtype=np.uint64)
        with pytest.raises(ValueError, match="pad bits"):
            rank_all(query, table)

    def test_stable_tie_order(self):
        signs = np.array([[1, 1], [1, -1], [1, 1], [-1, 1]], dtype=np.int8)
        table = make_table(signs)
        r = rank_all(pack_codes(np.array([1, 1])), table)
        assert r.ids.tolist() == [0, 2, 1, 3]


class TestRadiusSearch:
    def test_full_radius_returns_everything(self):
        rng = np.random.default_rng(4)
        signs = random_signs(rng, 50, 12)
        table = make_table(signs)
        assert radius_search(pack_codes(signs[0]), table, 12) == set(range(50))

    def test_zero_radius_exact_matches(self):
        signs = np.array([[1, 1], [1, -1], [1, 1]], dtype=np.int8)
        table = make_table(signs)
        assert radius_search(pack_codes(np.array([1, 1])), table, 0) == {0, 2}

    def test_matches_filter_oracle(self):
        rng = np.random.default_rng(5)
        signs = random_signs(rng, 120, 24)
        qsigns = random_signs(rng, 1, 24)[0]
        table = make_table(signs)
        got = radius_search(pack_codes(qsigns), table, 3)
        expected = {i for i in range(120)
                    if naive_distance(qsigns, signs[i]) <= 3}
        assert got == expected

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(6)
        signs = random_signs(rng, 60, 10)
        table = make_table(signs)
        query = pack_codes(random_signs(rng, 1, 10)[0])
        previous = set()
        for r in range(11):
            current = radius_search(query, table, r)
            assert previous <= current
            previous = current
        assert len(previous) == 60

    def test_radius_bounds(self):
        table = make_table(np.ones((3, 4), dtype=np.int8))
        query = pack_codes(np.ones(4, dtype=np.int8))
        with pytest.raises(ValueError):
            radius_search(query, table, 5)
        with pytest.raises(ValueError):
            radius_search(query, table, -1)


class TestTopK:
    @pytest.mark.parametrize("k", [1, 25, 49, 50])
    def test_prefix_of_rank_all(self, k):
        rng = np.random.default_rng(7)
        # random codes, then three distinct codes so that ties cross the cut
        for signs in (random_signs(rng, 50, 16),
                      random_signs(rng, 3, 16)[rng.integers(0, 3, 50)]):
            table = make_table(signs)
            query = pack_codes(random_signs(rng, 1, 16)[0])
            full = rank_all(query, table)
            head = top_k(query, table, k)
            assert head.order.tolist() == full.order[:k].tolist()
            assert head.ids.tolist() == full.ids[:k].tolist()
            assert head.distances.tolist() == full.distances[:k].tolist()

    def test_k_bounds(self):
        table = make_table(np.ones((3, 4), dtype=np.int8))
        query = pack_codes(np.ones(4, dtype=np.int8))
        with pytest.raises(ValueError):
            top_k(query, table, 0)
        with pytest.raises(ValueError):
            top_k(query, table, 4)


class TestPerGroup:
    """per_group yields, row by row, one value per group of equal rows."""

    # codes of six queries in three groups whose rows interleave
    KEYS = np.array([[3, 1], [0, 2], [3, 1], [5, 5], [0, 2], [3, 1]], np.uint64)

    def test_values_come_back_in_row_order(self):
        assert list(per_group(self.KEYS, tuple)) == [
            (0, 2, 5), (1, 4), (0, 2, 5), (3,), (1, 4), (0, 2, 5)]

    def test_make_called_once_per_key_with_its_rows_ascending(self):
        calls = []

        def make(rows):
            calls.append(list(rows))
            return len(calls)

        assert list(per_group(self.KEYS, make)) == [1, 2, 1, 3, 2, 1]
        assert calls == [[0, 2, 5], [1, 4], [3]]

    def test_value_released_after_its_last_row(self):
        class Value:
            pass

        refs = {}

        def make(rows):
            value = Value()
            refs[rows[0]] = weakref.ref(value)
            return value

        groups = per_group(np.array([7, 8, 7, 9]), make)
        next(groups)  # row 0 of the group {0, 2}
        assert refs[0]() is not None
        next(groups)  # row 1, the whole group {1}
        assert refs[0]() is not None and refs[1]() is None
        next(groups)  # row 2, the last of {0, 2}
        assert refs[0]() is None
        next(groups)
        assert refs[3]() is None
        assert next(groups, None) is None

    @pytest.mark.parametrize("keys", [np.empty((0, 2), np.uint64),
                                      np.empty(0, np.int64)])
    def test_zero_rows_yield_nothing(self, keys):
        calls = []
        assert list(per_group(keys, calls.append)) == []
        assert calls == []


class TestBlockedScan:
    """_distances scans the table in blocks of index._SCAN_ROWS rows."""

    @pytest.mark.parametrize("k", [1, 33, 64, 65, 128, 255, 256, 300])
    @pytest.mark.parametrize("scan_rows,n", [(1, 5), (3, 9), (3, 11),
                                             (64, 3 * 64 + 17)])
    def test_block_boundaries_match_oracle(self, monkeypatch, scan_rows, n, k):
        # several blocks and, but for n = 9, a ragged last one; few distinct
        # codes with bit noise put tie runs across the block boundaries
        monkeypatch.setattr(index, "_SCAN_ROWS", scan_rows)
        rng = np.random.default_rng([scan_rows, n, k])
        signs = random_signs(rng, 3, k)[rng.integers(0, 3, n)]
        signs[rng.random((n, k)) < 0.05] *= -1
        table = make_table(signs)
        for qsigns in (signs[-1], random_signs(rng, 1, k)[0]):
            query = pack_codes(qsigns)
            dists = [naive_distance(qsigns, row) for row in signs]
            d = index._distances(query, table)
            assert d.tolist() == dists
            assert d.dtype == np.min_scalar_type(k)
            r = rank_all(query, table)
            assert r.order.tolist() == sorted(range(n), key=lambda i: (dists[i], i))
            for depth in (1, scan_rows + 1, n // 2, n - 1):
                check_depth_prefix(qsigns, signs, table, depth)
            for radius in sorted(set(dists))[:3] + [k]:
                assert radius_search(query, table, radius) == {
                    i for i in range(n) if dists[i] <= radius}

    def test_empty_table(self):
        table = CodeTable(np.zeros((0, 2), dtype=np.uint64),
                          np.zeros(0, dtype=int), np.zeros(0, dtype=int),
                          np.zeros(0, dtype=int), code_bits=100)
        query = pack_codes(np.ones(100, dtype=np.int8))
        for depth in (None, 1, 5):
            r = rank_all(query, table, depth)
            assert len(r) == 0 and r.ids.tolist() == []
            assert r.distances.dtype == np.uint8
        assert radius_search(query, table, 100) == set()

    def test_zero_bit_codes_tie_at_distance_zero(self):
        # an HTBL header may declare 0 bits; its rows hold no words
        table = CodeTable(np.zeros((5, 0), dtype=np.uint64), np.arange(5),
                          np.zeros(5, dtype=int), np.zeros(5, dtype=int),
                          code_bits=0)
        r = rank_all(np.zeros(0, dtype=np.uint64), table)
        assert r.order.tolist() == [0, 1, 2, 3, 4]
        assert r.distances.tolist() == [0] * 5

    def test_peak_memory_below_table_size(self):
        # the scan's temporaries are block-sized; a table-sized XOR would
        # alone reach codes.nbytes
        rng = np.random.default_rng(11)
        n = 4 * index._SCAN_ROWS
        codes = rng.integers(0, 2**63, (n, 1), dtype=np.uint64)
        table = CodeTable(codes, np.arange(n), np.zeros(n, dtype=int),
                          np.zeros(n, dtype=int), code_bits=64)
        query = codes[0].copy()
        table_bytes = table.codes.nbytes
        tracemalloc.start()
        try:
            index._distances(query, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table_bytes

    @pytest.mark.parametrize("query,shape", [
        (np.zeros((1, 1), dtype=np.uint64), "(1, 1)"),
        (np.uint64(0), "()"),
    ])
    def test_query_shape_error_names_both_shapes(self, query, shape):
        table = make_table(np.ones((3, 4), dtype=np.int8))
        expected = f"query must be one packed code of shape (1,), got shape {shape}"
        with pytest.raises(DimensionError, match=re.escape(expected)):
            rank_all(query, table)


class TestCodeTableValidation:
    def test_rejects_nonzero_pad_bits(self):
        codes = np.array([[np.uint64(1 << 40)]], dtype=np.uint64)
        with pytest.raises(ValueError):
            CodeTable(codes, np.array([0]), np.array([0]), np.array([0]),
                      code_bits=8)

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionError):
            CodeTable(np.zeros((2, 1), dtype=np.uint64), np.array([0]),
                      np.array([0, 1]), np.array([0, 1]), code_bits=4)


class TestCodeTableFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(8)
        signs = random_signs(rng, 37, 48)
        table = CodeTable(
            codes=np.atleast_2d(pack_codes(signs)),
            ids=np.arange(37),
            labels=rng.integers(0, 5, 37),
            predicted=rng.integers(0, 5, 37),
            code_bits=48,
        )
        path = tmp_path / "table.htbl"
        save_code_table(table, path)
        loaded = load_code_table(path)
        assert loaded.code_bits == 48
        assert np.array_equal(loaded.codes, table.codes)
        assert np.array_equal(loaded.ids, table.ids)
        assert np.array_equal(loaded.labels, table.labels)
        assert np.array_equal(loaded.predicted, table.predicted)
        assert np.array_equal(unpack_codes(loaded.codes, 48), signs)

    def test_empty_table_roundtrip(self, tmp_path):
        table = CodeTable(np.zeros((0, 1), dtype=np.uint64),
                          np.zeros(0, dtype=int), np.zeros(0, dtype=int),
                          np.zeros(0, dtype=int), code_bits=16)
        path = tmp_path / "empty.htbl"
        save_code_table(table, path)
        assert len(load_code_table(path)) == 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.htbl"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(FormatError):
            load_code_table(path)

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(9)
        table = make_table(random_signs(rng, 5, 16))
        path = tmp_path / "t.htbl"
        save_code_table(table, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError):
            load_code_table(path)

    def test_trailing_garbage(self, tmp_path):
        rng = np.random.default_rng(10)
        table = make_table(random_signs(rng, 5, 16))
        path = tmp_path / "t.htbl"
        save_code_table(table, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError):
            load_code_table(path)

    @pytest.mark.parametrize("fault", ["truncated header", "bad magic",
                                       "bad version", "wrong length"])
    def test_header_messages(self, tmp_path, fault):
        path = tmp_path / "t.htbl"
        save_code_table(make_table(random_signs(np.random.default_rng(11),
                                                5, 16)), path)
        raw = path.read_bytes()
        bad, message = {
            "truncated header": (raw[:10], "truncated header (10 bytes, need 14)"),
            "bad magic": (b"NOPE" + raw[4:], "bad magic b'NOPE' at offset 0"),
            "bad version": (raw[:4] + b"\x02\x00" + raw[6:],
                            "unsupported code-table version 2"),
            "wrong length": (raw[:-1], f"file length {len(raw) - 1} does not "
                             f"match header (expected {len(raw)} bytes)"),
        }[fault]
        path.write_bytes(bad)
        with pytest.raises(FormatError) as err:
            load_code_table(path)
        assert str(err.value) == f"{path}: {message}"

    def test_peak_memory(self, tmp_path):
        # save writes one array at a time and load reads into the arrays it
        # returns, so neither holds the file as one blob
        n = 200_000
        rng = np.random.default_rng(12)
        table = CodeTable(rng.integers(0, 2**63, (n, 1), dtype=np.uint64),
                          np.arange(n), rng.integers(0, 10, n),
                          rng.integers(0, 10, n), code_bits=64)
        path = tmp_path / "t.htbl"
        tracemalloc.start()
        try:
            save_code_table(table, path)
            _, save_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            loaded = load_code_table(path)
            _, load_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert save_peak < table.codes.nbytes
        returned = sum(a.nbytes for a in (loaded.codes, loaded.ids,
                                          loaded.labels, loaded.predicted))
        assert load_peak < 1.25 * returned
        assert np.array_equal(loaded.codes, table.codes)
