"""Partition-then-load: shard plans and the out-of-core rank loader.

``load_shard`` must reproduce — field by field, bitwise — the
:class:`LocalGraph` that the in-RAM pipeline (``FlowNetwork.from_graph``
+ ``build_local_graphs``) builds for the same contiguous block-balanced
ownership with zero hubs.  That identity is what makes
``external_infomap`` a drop-in for ``distributed_infomap`` modulo the
partition choice.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.core import InfomapConfig, external_infomap
from repro.core.distributed import _rank_program
from repro.core.flow import FlowNetwork
from repro.graph import graph_to_store, load_dataset, powerlaw_planted_partition
from repro.partition import (
    OneDPartition,
    build_local_graphs,
    entry_balanced_bounds,
    load_shard,
    plan_shards,
)
from repro.simmpi.engine import run_spmd


@pytest.fixture(scope="module")
def graph():
    return powerlaw_planted_partition(600, 10, seed=6).graph


@pytest.fixture(scope="module")
def store(graph, tmp_path_factory):
    d = tmp_path_factory.mktemp("store")
    graph_to_store(graph, d)
    return d


def reference_views(graph, nranks):
    part = OneDPartition.block_balanced(graph, nranks)
    net = FlowNetwork.from_graph(graph)
    return build_local_graphs(
        net,
        entry_rank=part.owner[graph._row_of_entry()],
        owner=part.owner,
        is_hub=np.zeros(graph.num_vertices, dtype=bool),
        nranks=nranks,
    )


def run_load_shard(store, plan, chunk_entries=None):
    def prog(comm, d, plan):
        kw = {} if chunk_entries is None else {"chunk_entries": chunk_entries}
        lg, stats = load_shard(comm, d, plan, **kw)
        return lg, stats

    return run_spmd(prog, plan.nranks, fn_args=(store, plan)).results


class TestShardPlan:
    def test_bounds_cover_and_balance(self, graph, store):
        for p in (1, 2, 5, 8):
            plan = plan_shards(store, p)
            assert plan.bounds[0] == 0
            assert plan.bounds[-1] == graph.num_vertices
            assert plan.entries.sum() == graph.indices.size
            # entry-balanced: no rank exceeds target + one max row
            target = graph.indices.size / p
            maxrow = int(np.diff(graph.indptr).max())
            assert plan.entries.max() <= target + maxrow

    def test_owner_matches_block_balanced(self, graph, store):
        for p in (2, 4, 7):
            plan = plan_shards(store, p)
            part = OneDPartition.block_balanced(graph, p)
            np.testing.assert_array_equal(plan.owner_array(), part.owner)

    def test_owner_of(self, graph, store):
        plan = plan_shards(store, 4)
        gids = np.arange(graph.num_vertices, dtype=np.int64)
        np.testing.assert_array_equal(plan.owner_of(gids),
                                      plan.owner_array())

    def test_shard_nbytes(self, graph, store):
        plan = plan_shards(store, 3)
        total = sum(plan.shard_csr_nbytes(r) for r in range(3))
        # indptr overlap (+1 per rank) makes the sum slightly exceed
        # the whole graph's CSR bytes.
        assert total >= graph.csr_nbytes

    def test_bounds_monotonic_skewed(self):
        # A giant row must not break monotonicity of the cuts.
        indptr = np.array([0, 1000, 1001, 1002, 1003], dtype=np.int64)
        b = entry_balanced_bounds(indptr, 4)
        assert np.all(np.diff(b) >= 0)
        assert b[0] == 0 and b[-1] == 4


class TestLoadShardBitwise:
    @pytest.mark.parametrize("nranks", [1, 2, 4, 5])
    def test_fields_match_reference(self, graph, store, nranks):
        views = reference_views(graph, nranks)
        plan = plan_shards(store, nranks)
        out = run_load_shard(store, plan)
        for r in range(nranks):
            lg, stats = out[r]
            ref = views[r]
            assert lg.num_owned == ref.num_owned
            assert lg.num_hubs == 0 == ref.num_hubs
            assert lg.num_ghosts == ref.num_ghosts
            for f in ("global_of", "indptr", "nbr", "ghost_owner",
                      "boundary_local", "neighbor_ranks", "hub_home"):
                np.testing.assert_array_equal(
                    np.asarray(getattr(lg, f)), np.asarray(getattr(ref, f)),
                    err_msg=f"rank {r} field {f}")
            for f in ("flow", "exit0", "nbr_flow"):
                a = np.asarray(getattr(lg, f))
                b = np.asarray(getattr(ref, f))
                assert a.tobytes() == b.tobytes(), f"rank {r} field {f}"
            assert len(lg.boundary_ranks) == len(ref.boundary_ranks)
            for x, y in zip(lg.boundary_ranks, ref.boundary_ranks):
                np.testing.assert_array_equal(np.asarray(x), np.asarray(y))
            assert stats["csr_nbytes"] == plan.shard_csr_nbytes(r)

    def test_chunk_size_invariant(self, graph, store):
        plan = plan_shards(store, 3)
        big = run_load_shard(store, plan)
        small = run_load_shard(store, plan, chunk_entries=97)
        for r in range(3):
            for f in ("flow", "exit0", "nbr_flow", "nbr", "indptr"):
                a = np.asarray(getattr(big[r][0], f))
                b = np.asarray(getattr(small[r][0], f))
                assert a.tobytes() == b.tobytes(), f"rank {r} field {f}"

    def test_wrong_comm_size_raises(self, store):
        plan = plan_shards(store, 3)

        def prog(comm, d, plan):
            return load_shard(comm, d, plan)

        with pytest.raises(ValueError, match="plan is for 3 ranks"):
            run_spmd(prog, 2, fn_args=(store, plan))


class TestExternalInfomap:
    @pytest.mark.parametrize("nranks", [1, 3])
    def test_matches_inram_reference_run(self, tmp_path, nranks):
        ds = load_dataset("dblp", seed=0, scale=0.25)
        g = ds.graph
        graph_to_store(g, tmp_path / "s")
        cfg = InfomapConfig(seed=3)
        views = reference_views(g, nranks)
        ref = run_spmd(_rank_program, nranks,
                       fn_args=(cfg, g.num_vertices),
                       fn_kwargs={"views": views})
        out = external_infomap(tmp_path / "s", nranks, cfg)
        m_ref = np.full(g.num_vertices, -1, np.int64)
        for rr in ref.results:
            m_ref[rr["vertices"]] = rr["modules"]
        _, expected = np.unique(m_ref, return_inverse=True)
        np.testing.assert_array_equal(expected, out.membership)
        assert ref.results[0]["codelength"] == out.codelength
        assert ref.results[0]["codelength_history"] == \
            out.extras["codelength_history"]

    def test_extras_and_chunk_invariance(self, tmp_path):
        # Chunk-size invariance itself: test_chunk_size_invariant.
        ds = load_dataset("dblp", seed=0, scale=0.25)
        graph_to_store(ds.graph, tmp_path / "s")
        a = external_infomap(tmp_path / "s", 3, InfomapConfig(seed=3))
        assert a.extras["num_hubs"] == 0
        assert len(a.extras["ingest_per_rank"]) == 3
        assert a.extras["ingest_seconds_max"] >= 0
        assert a.extras["shard_bounds"][0] == 0
        assert a.extras["shard_bounds"][-1] == ds.graph.num_vertices

    def test_procs_backend_identical_and_rss_reported(self, tmp_path):
        ds = load_dataset("dblp", seed=0, scale=0.25)
        graph_to_store(ds.graph, tmp_path / "s")
        cfg = InfomapConfig(seed=3)
        a = external_infomap(tmp_path / "s", 3, cfg)
        b = external_infomap(tmp_path / "s", 3, cfg, backend="procs")
        np.testing.assert_array_equal(a.membership, b.membership)
        assert a.codelength == b.codelength
        rss = b.extras["peak_rss_per_rank"]
        assert len(rss) == 3 and all(x > 0 for x in rss)

    def test_ranks_do_not_import_experiment_harness(self, tmp_path):
        # A fresh interpreter, so modules other tests loaded do not
        # count: a rank samples its memory without pulling in
        # repro.bench and the experiment harness it loads.
        script = (
            "import sys\n"
            "from repro.core import external_infomap\n"
            "from repro.graph import graph_to_store, ring_of_cliques\n"
            f"graph_to_store(ring_of_cliques(6, 4).graph, {str(tmp_path / 's')!r})\n"
            f"external_infomap({str(tmp_path / 's')!r}, 2, backend='threads')\n"
            "assert 'repro.bench' not in sys.modules\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", script], env=env, check=True)

    def test_empty_store_rejected(self, tmp_path):
        from repro.graph import build_csr_store

        build_csr_store(iter(()), tmp_path / "s", num_vertices=4)
        with pytest.raises(ValueError, match="no edges"):
            external_infomap(tmp_path / "s", 2)
