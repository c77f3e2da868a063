"""GraphDelta batches and the in-place CSR patch paths.

The load-bearing invariant: applying a delta — in RAM or on disk —
must be *bitwise identical* to rebuilding the graph with
``from_edge_array`` from the patched edge list.  The hypothesis
property test drives random insert/delete/reweight mixes through both
paths.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.graph import (
    GraphDelta,
    Graph,
    apply_delta,
    apply_delta_to_store,
    dirty_region,
    erdos_renyi,
    from_edge_array,
    graph_to_store,
    open_csr_store,
    read_delta_file,
    ring_of_cliques,
    store_header,
    write_delta_file,
)


def _patched_edge_list(graph, delta):
    """Reference semantics: edit the (u<=v) edge list in plain Python."""
    src, dst, w = graph.edge_array()
    edges = {
        (int(u), int(v)): float(x) for u, v, x in zip(src, dst, w)
    }
    for i in range(len(delta)):
        key = (int(delta.src[i]), int(delta.dst[i]))
        op = int(delta.op[i])
        if op == GraphDelta.DELETE:
            del edges[key]
        else:
            edges[key] = float(delta.weight[i])
    if not edges:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    items = list(edges.items())
    us = np.array([k[0] for k, _ in items], dtype=np.int64)
    vs = np.array([k[1] for k, _ in items], dtype=np.int64)
    ws = np.array([x for _, x in items], dtype=np.float64)
    return us, vs, ws


def _assert_bitwise(a: Graph, b: Graph):
    assert np.asarray(a.indptr).tobytes() == np.asarray(b.indptr).tobytes()
    assert np.asarray(a.indices).tobytes() == np.asarray(b.indices).tobytes()
    assert np.asarray(a.weights).tobytes() == np.asarray(b.weights).tobytes()
    assert a.num_self_loops == b.num_self_loops
    assert a.sorted_rows and b.sorted_rows


class TestGraphDelta:
    def test_canonical_orientation(self):
        d = GraphDelta.build(insert=([5, 1], [2, 4], [1.0, 2.0]))
        assert d.src.tolist() == [2, 1]
        assert d.dst.tolist() == [5, 4]

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self-loops"):
            GraphDelta.build(insert=([3], [3], [1.0]))

    def test_rejects_duplicates_across_orientation(self):
        with pytest.raises(ValueError, match="duplicate"):
            GraphDelta.build(
                insert=([1], [2], [1.0]), delete=([2], [1])
            )

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="positive"):
            GraphDelta.build(insert=([0], [1], [0.0]))
        with pytest.raises(ValueError, match="finite"):
            GraphDelta.build(reweight=([0], [1], [np.inf]))

    def test_delete_weights_ignored(self):
        d = GraphDelta.build(delete=([0], [1]))
        assert d.weight.tolist() == [0.0]
        assert d.counts() == {"insert": 0, "delete": 1, "reweight": 0}

    def test_touched_and_len(self):
        d = GraphDelta.build(
            insert=([0], [9], [1.0]), reweight=([4], [2], [0.5])
        )
        assert len(d) == 2 and not d.is_empty
        assert d.touched_vertices().tolist() == [0, 2, 4, 9]
        assert d.num_structural == 1
        assert GraphDelta.empty().is_empty


class TestApplyDelta:
    def _graph(self, seed=0):
        return erdos_renyi(60, 0.1, seed=seed)

    def test_empty_delta_is_identity(self):
        g = self._graph()
        assert apply_delta(g, GraphDelta.empty()) is g

    def test_reweight_shares_structure(self):
        g = self._graph()
        u, v = int(g._row_of_entry()[0]), int(g.indices[0])
        d = GraphDelta.build(reweight=([u], [v], [7.5]))
        out = apply_delta(g, d)
        assert out.indices is g.indices and out.indptr is g.indptr
        assert out.edge_weight(u, v) == 7.5
        assert out.edge_weight(v, u) == 7.5

    def test_insert_existing_rejected(self):
        g = self._graph()
        u, v = int(g._row_of_entry()[0]), int(g.indices[0])
        with pytest.raises(ValueError, match="already present"):
            apply_delta(g, GraphDelta.build(insert=([u], [v], [1.0])))

    def test_delete_missing_rejected(self):
        g = self._graph()
        # (u, u+1) absent edge: find one
        for u in range(g.num_vertices - 1):
            if not g.has_edge(u, u + 1):
                break
        with pytest.raises(ValueError, match="not present"):
            apply_delta(g, GraphDelta.build(delete=([u], [u + 1])))

    def test_insert_grows_vertex_set(self):
        g = self._graph()
        n = g.num_vertices
        d = GraphDelta.build(insert=([0], [n + 1], [2.0]))
        out = apply_delta(g, d)
        assert out.num_vertices == n + 2
        assert out.edge_weight(0, n + 1) == 2.0
        assert out.degree(n) == 0
        out.validate()

    def test_mixed_matches_rebuild(self):
        g = self._graph(3)
        src, dst, w = g.edge_array()
        d = GraphDelta.build(
            insert=([src[0]], [g.num_vertices - 1], [1.5])
            if not g.has_edge(int(src[0]), g.num_vertices - 1)
            else None,
            delete=([src[1]], [dst[1]]),
            reweight=([src[2]], [dst[2]], [9.0]),
        )
        out = apply_delta(g, d)
        pu, pv, pw = _patched_edge_list(g, d)
        ref = from_edge_array(pu, pv, pw, num_vertices=out.num_vertices)
        _assert_bitwise(out, ref)


class TestDirtyRegion:
    def test_one_hop(self):
        g = ring_of_cliques(4, 5).graph
        d = GraphDelta.build(delete=([0], [int(g.neighbors(0)[0])]))
        patched = apply_delta(g, d)
        mask = dirty_region(patched, d, hops=1)
        seeds = d.touched_vertices()
        assert mask[seeds].all()
        expect = set(seeds.tolist())
        for s in seeds:
            expect.update(patched.neighbors(int(s)).tolist())
        assert set(np.flatnonzero(mask).tolist()) == expect

    def test_zero_hops_and_empty(self):
        g = ring_of_cliques(3, 4).graph
        assert not dirty_region(g, GraphDelta.empty()).any()
        d = GraphDelta.build(reweight=([0], [int(g.neighbors(0)[0])], [2.0]))
        mask = dirty_region(g, d, hops=0)
        assert sorted(np.flatnonzero(mask).tolist()) \
            == d.touched_vertices().tolist()


class TestDeltaFile:
    def test_round_trip(self, tmp_path):
        d = GraphDelta.build(
            insert=([0, 2], [5, 7], [1.0, 0.25]),
            delete=([1], [3]),
            reweight=([4], [6], [2.5]),
        )
        path = tmp_path / "d.txt"
        write_delta_file(path, d)
        back = read_delta_file(path)
        assert back.src.tolist() == d.src.tolist()
        assert back.dst.tolist() == d.dst.tolist()
        assert back.op.tolist() == d.op.tolist()
        assert back.weight.tolist() == d.weight.tolist()

    def test_default_insert_weight_and_comments(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("# header\n\n+ 3 4\n- 1 2\n")
        d = read_delta_file(path)
        assert d.weight[0] == 1.0
        assert d.counts() == {"insert": 1, "delete": 1, "reweight": 0}

    def test_bad_line_located(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("+ 1 2\n* 3 4\n")
        with pytest.raises(ValueError, match=r"d.txt:2"):
            read_delta_file(path)


class TestStoreDelta:
    def test_reweight_in_place(self, tmp_path):
        g = erdos_renyi(40, 0.15, seed=1)
        graph_to_store(g, tmp_path / "s")
        u, v = int(g._row_of_entry()[0]), int(g.indices[0])
        d = GraphDelta.build(reweight=([u], [v], [3.25]))
        header = apply_delta_to_store(tmp_path / "s", d)
        ref = apply_delta(g, d)
        back = open_csr_store(tmp_path / "s")
        _assert_bitwise(back, ref)
        assert header["total_weight"] == float(ref.total_weight)

    def test_structural_matches_rebuild(self, tmp_path):
        g = erdos_renyi(50, 0.12, seed=2)
        graph_to_store(g, tmp_path / "s")
        src, dst, _ = g.edge_array()
        ins = ([0], [g.num_vertices + 2], [4.0])
        d = GraphDelta.build(insert=ins, delete=([src[0]], [dst[0]]))
        header = apply_delta_to_store(tmp_path / "s", d, block_entries=64)
        ref = apply_delta(g, d)
        back = open_csr_store(tmp_path / "s")
        _assert_bitwise(back, ref)
        assert header["num_vertices"] == ref.num_vertices
        assert header["nnz"] == ref.nnz
        # Header matches graph_to_store of the rebuilt graph exactly.
        graph_to_store(ref, tmp_path / "ref")
        want = json.loads((tmp_path / "ref" / "header.json").read_text())
        got = store_header(tmp_path / "s")
        assert got == want

    def test_presence_errors(self, tmp_path):
        g = erdos_renyi(30, 0.2, seed=3)
        graph_to_store(g, tmp_path / "s")
        u, v = int(g._row_of_entry()[0]), int(g.indices[0])
        with pytest.raises(ValueError, match="already present"):
            apply_delta_to_store(
                tmp_path / "s", GraphDelta.build(insert=([u], [v], [1.0]))
            )


@st.composite
def _graph_and_delta(draw):
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(6, 40))
    p = draw(st.floats(0.05, 0.4))
    g = erdos_renyi(n, p, seed=seed)
    src, dst, w = g.edge_array()
    m = src.size

    n_del = draw(st.integers(0, min(4, m)))
    n_rew = draw(st.integers(0, min(4, max(0, m - n_del))))
    pick = rng.permutation(m)[: n_del + n_rew] if m else np.empty(0, int)
    del_idx, rew_idx = pick[:n_del], pick[n_del:]

    # Candidate inserts: absent (u, v) pairs, possibly growing n.
    n_ins = draw(st.integers(0, 4))
    ins_u, ins_v, ins_w = [], [], []
    seen = {(int(a), int(b)) for a, b in zip(src, dst)}
    # Deleted edges are legal insert targets too, but keep it simple:
    # exclude anything currently present or already chosen.
    tries = 0
    hi = n + draw(st.integers(0, 3))
    while len(ins_u) < n_ins and tries < 50:
        tries += 1
        a, b = int(rng.integers(0, hi)), int(rng.integers(0, hi))
        a, b = min(a, b), max(a, b)
        if a == b or (a, b) in seen:
            continue
        seen.add((a, b))
        ins_u.append(a)
        ins_v.append(b)
        ins_w.append(float(rng.uniform(0.1, 5.0)))

    delta = GraphDelta.build(
        insert=(ins_u, ins_v, ins_w) if ins_u else None,
        delete=(src[del_idx], dst[del_idx]) if n_del else None,
        reweight=(
            src[rew_idx],
            dst[rew_idx],
            rng.uniform(0.1, 5.0, size=rew_idx.size),
        )
        if n_rew
        else None,
    )
    return g, delta


@settings(max_examples=40, deadline=None)
@given(gd=_graph_and_delta())
def test_property_apply_matches_rebuild(gd):
    g, delta = gd
    out = apply_delta(g, delta)
    pu, pv, pw = _patched_edge_list(g, delta)
    ref = from_edge_array(pu, pv, pw, num_vertices=out.num_vertices)
    _assert_bitwise(out, ref)
    out.validate()


@settings(max_examples=12, deadline=None)
@given(gd=_graph_and_delta())
def test_property_store_matches_ram(gd, tmp_path_factory):
    g, delta = gd
    store = tmp_path_factory.mktemp("store")
    graph_to_store(g, store)
    apply_delta_to_store(store, delta, block_entries=97)
    ref = apply_delta(g, delta)
    back = open_csr_store(store)
    _assert_bitwise(back, ref)
    # Header is byte-comparable with graph_to_store of the rebuilt graph.
    ref_dir = tmp_path_factory.mktemp("ref")
    graph_to_store(ref, ref_dir)
    want = json.loads((ref_dir / "header.json").read_text())
    assert store_header(store) == want


_NO_MA = """
import sys
from repro.graph import GraphDelta, read_delta_file

batch = read_delta_file(sys.argv[1])
assert len(batch) == 3
GraphDelta.build(insert=([1, 4], [2, 5], [1.0, 2.0]), delete=([3], [1]))
try:
    GraphDelta.build(insert=([1], [2], [1.0]), delete=([2], [1]))
except ValueError as exc:
    assert "duplicate edge within one delta batch" in str(exc), exc
else:
    raise AssertionError("duplicate edge accepted")
assert "numpy.ma" not in sys.modules, "numpy.ma imported"
"""


def test_delta_batches_do_not_import_numpy_ma(tmp_path):
    """A flag-less ``np.unique`` imports ``numpy.ma`` (about 10 ms per
    process) in numpy 2.4; parsing and checking a delta batch, with or
    without a duplicate, must not."""
    path = tmp_path / "batch.delta"
    path.write_text("+ 0 1 2.0\n- 1 2\n~ 2 3 0.5\n")
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _NO_MA, str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
