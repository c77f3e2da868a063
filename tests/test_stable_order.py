"""The radix stable-sort kernel and the CSR builders that sort with it.

``stable_order`` must be ``np.argsort(kind="stable")`` element for
element: both CSR builders depend on equal keys keeping their input
order (that is what makes ``dedup="first"`` pick the first occurrence
and ``dedup="sum"`` add in file order).  The builder tests use vertex
ids past ``2**16`` so every sort key needs two or more 16-bit digits,
and compare both builders with an independent comparison-sort
reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import build_csr_store, from_edge_array, open_csr_store
from repro.graph.builder import stable_order
from repro.graph.io import EdgeChunk

BOUNDARY = [0, 1, 2**16 - 1, 2**16, 2**32 - 1, 2**32, 2**48, 2**63 - 1]


def assert_same_order(keys):
    got = stable_order(keys)
    want = np.argsort(np.asarray(keys), kind="stable")
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@st.composite
def key_arrays(draw):
    """A few distinct values, boundary ones included, repeated many
    times in any order: heavy duplicates test stability."""
    pool = draw(st.lists(
        st.one_of(st.sampled_from(BOUNDARY), st.integers(0, 2**63 - 1)),
        min_size=1, max_size=8,
    ))
    idx = draw(st.lists(st.integers(0, len(pool) - 1), max_size=400))
    return np.array([pool[i] for i in idx], dtype=np.int64)


class TestStableOrder:
    @settings(max_examples=200, deadline=None)
    @given(key_arrays())
    def test_property_matches_stable_argsort(self, keys):
        assert_same_order(keys)

    def test_empty_and_one(self):
        assert_same_order(np.empty(0, dtype=np.int64))
        assert_same_order(np.array([7], dtype=np.int64))
        assert_same_order(np.array([2**63 - 1], dtype=np.int64))

    @pytest.mark.parametrize("value", BOUNDARY)
    def test_all_equal(self, value):
        assert_same_order(np.full(5000, value, dtype=np.int64))

    @pytest.mark.parametrize("top", BOUNDARY[1:])
    def test_heavy_duplicates_up_to(self, top):
        """Large enough that an unstable digit pass reorders ties."""
        rng = np.random.default_rng(top % 1000)
        pool = np.array(
            [0, top, top // 2, max(top - 2**16, 0), top % 2**16], dtype=np.int64
        )
        assert_same_order(pool[rng.integers(0, pool.size, size=50_000)])

    def test_every_digit_decides(self):
        """Keys that differ in one 16-bit digit only, for each of the
        four digits, and agree everywhere else."""
        rng = np.random.default_rng(5)
        for d in range(4):
            background = 0x1234_5678_9ABC_DEF0 & ~(0xFFFF << (16 * d))
            digit = rng.integers(0, 3, size=20_000) << (16 * d)
            assert_same_order(background + digit)

    def test_random_wide_keys(self):
        rng = np.random.default_rng(9)
        for top in (2**17, 2**33, 2**63 - 1):
            assert_same_order(rng.integers(0, top, size=30_000))

    def test_non_contiguous(self):
        rng = np.random.default_rng(2)
        base = rng.integers(0, 2**40, size=(3000, 3))
        base[::7] = base[0]
        assert_same_order(base[:, 1])
        assert_same_order(base.ravel()[::5])
        assert_same_order(base[::-1, 0])

    @pytest.mark.parametrize("dtype", [
        np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32,
        np.uint64, np.int64,
    ])
    def test_integer_dtypes(self, dtype):
        rng = np.random.default_rng(3)
        top = min(np.iinfo(dtype).max, 2**63 - 1)
        keys = rng.integers(0, top, size=4000, endpoint=True).astype(dtype)
        keys[rng.random(keys.size) < 0.5] = keys[0]
        assert_same_order(keys)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            stable_order(np.array([3, -1, 2]))


# -- both CSR builders past 2**16 vertices ------------------------------------

N_WIDE = 100_003  # > 2**16: row ids take 2 digits, packed keys 3


def _reference_csr(src, dst, w, n, dedup, keep_loops):
    """The builders' contract by comparison sorts only: canonical
    ``u <= v``, a stable sort by ``(u, v)``, duplicate groups reduced in
    input order, then both directions ordered by ``(row, neighbour)``."""
    u, v = np.minimum(src, dst), np.maximum(src, dst)
    if not keep_loops:
        keep = u != v
        u, v, w = u[keep], v[keep], w[keep]
    order = np.lexsort((v, u))
    u, v, w = u[order], v[order], w[order]
    _, start = np.unique(u * n + v, return_index=True)
    w = np.add.reduceat(w, start) if dedup == "sum" else w[start]
    u, v = u[start], v[start]
    nl = u != v
    rows = np.concatenate([u[nl], v[nl], u[~nl]])
    cols = np.concatenate([v[nl], u[nl], v[~nl]])
    wts = np.concatenate([w[nl], w[nl], w[~nl]])
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[order], wts[order]


def _wide_edges(seed=4, num_edges=6000):
    """Endpoints from 300 ids spread over ``0..N_WIDE-1`` (including
    ``2**16 - 1``, ``2**16`` and the last id), so pairs repeat often,
    each copy with its own weight, and some are loops."""
    rng = np.random.default_rng(seed)
    ids = np.unique(np.concatenate([
        rng.integers(0, N_WIDE, size=297), [2**16 - 1, 2**16, N_WIDE - 1],
    ]))
    src = ids[rng.integers(0, ids.size, size=num_edges)]
    dst = ids[rng.integers(0, ids.size // 6, size=num_edges)]
    loop = rng.random(num_edges) < 0.1
    dst[loop] = src[loop]
    w = rng.uniform(0.5, 2.0, size=num_edges)
    return src, dst, w


def _as_bytes(indptr, indices, weights):
    return tuple(
        np.ascontiguousarray(a).tobytes() for a in (indptr, indices, weights)
    )


class TestWideBuilders:
    @pytest.mark.parametrize("block_entries", [64, 777, 1 << 20])
    @pytest.mark.parametrize("keep_loops", [False, True])
    @pytest.mark.parametrize("dedup", ["sum", "first"])
    def test_store_matches_in_ram(self, tmp_path, dedup, keep_loops,
                                  block_entries):
        src, dst, w = _wide_edges()
        ref = _as_bytes(*_reference_csr(src, dst, w, N_WIDE, dedup, keep_loops))
        ram = from_edge_array(src, dst, w, num_vertices=N_WIDE, dedup=dedup,
                              keep_self_loops=keep_loops)
        assert _as_bytes(ram.indptr, ram.indices, ram.weights) == ref
        chunks = (
            EdgeChunk(src[lo:lo + 500], dst[lo:lo + 500], w[lo:lo + 500])
            for lo in range(0, src.size, 500)
        )
        build_csr_store(chunks, tmp_path / "s", num_vertices=N_WIDE,
                        dedup=dedup, keep_self_loops=keep_loops,
                        block_entries=block_entries)
        g = open_csr_store(tmp_path / "s")
        assert _as_bytes(g.indptr, g.indices, g.weights) == ref
        assert g.num_self_loops == ram.num_self_loops

    def test_duplicates_are_present(self):
        """The fixture exercises dedup: most canonical pairs repeat."""
        src, dst, _ = _wide_edges()
        key = np.minimum(src, dst) * N_WIDE + np.maximum(src, dst)
        assert np.unique(key).size < 0.8 * key.size
