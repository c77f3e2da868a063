"""Incremental warm-start re-solve: oracle, no-op invariant, repair.

The contract under test (ISSUE 8):

* **Oracle** — for any delta batch, the warm re-solve's codelength
  matches a cold solve of the post-delta graph to 1e-9 relative, for
  both solvers.
* **No-op invariant** — seeding a solver with its own converged
  partition and an empty delta terminates after one sweep/round with
  zero moves and the identical codelength.
* **Cached modules** — a warm seed keeps every cached module whole; a
  module a delete cut is split into its connected pieces, and a
  non-empty frontier always reaches the coarse levels.
* **O(changed region)** — the warm solve's edge-scan work counters are
  strictly below the cold solve's (the benchmark guards the 5x floor;
  here we pin the mechanism).
* **View repair** — `repair_local_views` leaves every field of every
  rank view bitwise equal to a fresh `local_views_1d` build on the
  patched graph, and warm distributed runs are bitwise identical
  across the threads and procs backends.
"""

import gc
import os
import time

import numpy as np
import pytest

from repro import (
    IncrementalSession,
    InfomapConfig,
    distributed_infomap,
    sequential_infomap,
)
from repro.core.flow import FlowNetwork
from repro.core.incremental import split_cut_modules, warm_seed_membership
from repro.graph import (
    GraphDelta,
    apply_delta,
    count_disconnected_modules,
    dirty_region,
    from_edge_array,
    planted_partition,
    ring_of_cliques,
)
from repro.partition import OneDPartition, local_views_1d, repair_local_views
from repro.partition.distgraph import local_views_delegate
from repro.partition.delegates import delegate_partition
from tests.test_procs_backend import _no_leaked_children


REL_TOL = 1e-9


def _graph(seed=5, communities=8, size=25):
    return planted_partition(communities, size, 0.3, 0.01, seed=seed).graph


def _mixed_delta(graph, rng, n_del=3, n_ins=3, n_rew=2):
    """A delta with deletes, inserts and reweights drawn from *graph*."""
    rows = graph._row_of_entry()
    mask = rows < graph.indices
    eu, ev = rows[mask], graph.indices[mask]
    pick = rng.choice(eu.size, n_del + n_rew, replace=False)
    del_idx, rew_idx = pick[:n_del], pick[n_del:]
    present = set(zip(eu.tolist(), ev.tolist()))
    n = graph.num_vertices
    ins = []
    while len(ins) < n_ins:
        a, b = sorted(rng.integers(0, n, 2).tolist())
        if a != b and (a, b) not in present and (a, b) not in ins:
            ins.append((a, b))
    return GraphDelta.build(
        insert=(
            np.array([e[0] for e in ins]),
            np.array([e[1] for e in ins]),
            np.full(n_ins, 1.5),
        ),
        delete=(eu[del_idx], ev[del_idx]),
        reweight=(eu[rew_idx], ev[rew_idx], np.full(n_rew, 0.5)),
    )


def _rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _assert_no_worse(warm_len, cold_len):
    """Warm quality oracle for accumulated-delta runs.

    Both solves are greedy, so after several batches they can land in
    *different* local optima — in practice the warm start (which keeps
    the converged structure outside the dirty region) lands in an
    equal or better one.  The one-sided bound is the real contract:
    incremental must never degrade quality relative to a full re-solve.
    """
    assert warm_len <= cold_len + REL_TOL * abs(cold_len), (
        f"warm {warm_len} worse than cold {cold_len}"
    )


# ---------------------------------------------------------------------------
# warm_seed_membership
# ---------------------------------------------------------------------------

class TestWarmSeed:
    def test_clean_modules_keep_grouping(self):
        # Every cached module keeps its members, dirty or not, under its
        # minimum member id.
        cached = np.array([1, 1, 0, 0, 2, 2], dtype=np.int64)
        seed = warm_seed_membership(cached)
        assert seed.tolist() == [0, 0, 2, 2, 4, 4]

    def test_split_pieces_get_distinct_labels(self):
        # Path 0-1-2-3 and edge 4-5, cached as modules {0,1,2,3} and
        # {4,5}; deleting 1-2 cuts the first in two.
        g = from_edge_array(
            np.array([0, 1, 2, 4]), np.array([1, 2, 3, 5]), num_vertices=6
        )
        cached = np.array([3, 3, 3, 3, 1, 1], dtype=np.int64)
        delta = GraphDelta.build(delete=(np.array([1]), np.array([2])))
        patched = apply_delta(g, delta)
        seed, split, num_split = split_cut_modules(
            patched, warm_seed_membership(cached), delta
        )
        assert seed.tolist() == [0, 0, 2, 2, 4, 4]
        assert split.tolist() == [True] * 4 + [False] * 2
        assert num_split == 1
        assert count_disconnected_modules(patched, seed) == 0

    def test_labels_in_vertex_id_space(self):
        rng = np.random.default_rng(0)
        cached = rng.integers(0, 10, 50).astype(np.int64)
        seed = warm_seed_membership(cached)
        assert seed.min() >= 0 and seed.max() < 50
        assert np.array_equal(seed[seed], seed)  # each label is a member

    def test_shape_mismatch_raises(self):
        g = _graph(seed=1, communities=2, size=5)
        with pytest.raises(ValueError, match="seed"):
            split_cut_modules(g, np.zeros(3, np.int64), GraphDelta.empty())


# ---------------------------------------------------------------------------
# Sequential warm start
# ---------------------------------------------------------------------------

class TestSequentialWarm:
    def test_oracle_mixed_delta(self):
        g = _graph()
        cfg = InfomapConfig(seed=11)
        session = IncrementalSession(g, cfg)
        session.solve()
        delta = _mixed_delta(g, np.random.default_rng(0))
        warm = session.update(delta)
        cold = sequential_infomap(session.graph, cfg)
        assert _rel_err(warm.codelength, cold.codelength) < REL_TOL

    def test_oracle_multi_batch(self):
        g = _graph(seed=7)
        cfg = InfomapConfig(seed=3)
        session = IncrementalSession(g, cfg)
        session.solve()
        rng = np.random.default_rng(42)
        for _ in range(4):
            delta = _mixed_delta(session.graph, rng)
            warm = session.update(delta)
            cold = sequential_infomap(session.graph, cfg)
            _assert_no_worse(warm.codelength, cold.codelength)

    def test_noop_invariant(self):
        g = _graph()
        cfg = InfomapConfig(seed=11)
        session = IncrementalSession(g, cfg)
        base = session.solve()
        res = session.update(GraphDelta.empty())
        assert res.codelength == base.codelength
        assert res.converged
        # One level, one sweep, zero moves, zero swept work.
        assert len(res.levels) == 1
        assert res.levels[0].sweeps == 1
        assert res.levels[0].moves == 0
        ev = session.events[-1]
        assert ev["work"]["vertices_swept"] == 0
        assert ev["work"]["edges_scanned"] == 0

    def test_warm_work_below_cold(self):
        g = _graph()
        cfg = InfomapConfig(seed=11)
        session = IncrementalSession(g, cfg)
        session.solve()
        delta = _mixed_delta(g, np.random.default_rng(1))
        session.update(delta)
        warm_work = session.events[-1]["work"]
        cold_work: dict = {}
        sequential_infomap(session.graph, cfg, work=cold_work)
        assert 0 < warm_work["edges_scanned"] < cold_work["edges_scanned"]
        assert 0 < warm_work["vertices_swept"] < cold_work["vertices_swept"]

    def test_work_counters_do_not_perturb(self):
        # The cold path with counters attached is byte-identical to
        # the cold path without them.
        g = _graph(seed=2)
        cfg = InfomapConfig(seed=5)
        plain = sequential_infomap(g, cfg)
        counted = sequential_infomap(g, cfg, work={})
        assert plain.codelength == counted.codelength
        assert np.array_equal(plain.membership, counted.membership)

    def test_update_before_solve_raises(self):
        session = IncrementalSession(_graph())
        with pytest.raises(RuntimeError, match="solve"):
            session.update(GraphDelta.empty())

    def test_vertex_growth_rejected(self):
        g = _graph()
        session = IncrementalSession(g)
        session.solve()
        n = g.num_vertices
        delta = GraphDelta.build(
            insert=(np.array([0]), np.array([n + 3]), np.array([1.0]))
        )
        with pytest.raises(ValueError, match="cold solve"):
            session.update(delta)


# ---------------------------------------------------------------------------
# Distributed warm start
# ---------------------------------------------------------------------------

class TestDistributedWarm:
    def test_oracle_mixed_delta(self):
        g = _graph()
        cfg = InfomapConfig(seed=11)
        session = IncrementalSession(g, cfg, nranks=4)
        session.solve()
        delta = _mixed_delta(g, np.random.default_rng(0))
        warm = session.update(delta)
        cold = distributed_infomap(session.graph, 4, cfg)
        assert _rel_err(warm.codelength, cold.codelength) < REL_TOL

    def test_oracle_repaired_views_multi_batch(self):
        # Batch 2+ exercises repair_local_views (batch 1 builds views).
        g = _graph(seed=7)
        cfg = InfomapConfig(seed=3)
        session = IncrementalSession(g, cfg, nranks=3)
        session.solve()
        rng = np.random.default_rng(42)
        for i in range(3):
            delta = _mixed_delta(session.graph, rng)
            warm = session.update(delta)
            cold = distributed_infomap(session.graph, 3, cfg)
            _assert_no_worse(warm.codelength, cold.codelength)
            if i > 0:
                assert session.events[-1]["repair"] is not None

    def test_noop_invariant(self):
        g = _graph()
        cfg = InfomapConfig(seed=11)
        session = IncrementalSession(g, cfg, nranks=4)
        base = session.solve()
        res = session.update(GraphDelta.empty())
        assert _rel_err(res.codelength, base.codelength) < 1e-12
        assert res.converged
        # One stage-1 round finds zero moves and stage 2 is skipped.
        assert res.extras["stage1_rounds"] == 1
        assert len(res.levels) == 1
        assert res.levels[0].moves == 0

    def test_threads_procs_bitwise(self):
        g = _graph(seed=4, communities=6, size=20)
        cfg = InfomapConfig(seed=9)
        cold = distributed_infomap(g, 3, cfg)
        delta = _mixed_delta(g, np.random.default_rng(8))
        patched = apply_delta(g, delta)
        dirty = dirty_region(patched, delta, hops=1)
        seed = warm_seed_membership(cold.membership)
        out = {}
        for backend in ("threads", "procs"):
            out[backend] = distributed_infomap(
                patched, 3, cfg,
                seed_membership=seed, active=dirty, backend=backend,
            )
        assert out["threads"].codelength == out["procs"].codelength
        assert np.array_equal(
            out["threads"].membership, out["procs"].membership
        )
        assert (
            out["threads"].extras["codelength_history"]
            == out["procs"].extras["codelength_history"]
        )

    def test_warm_work_below_cold(self):
        g = _graph()
        cfg = InfomapConfig(seed=11)
        session = IncrementalSession(g, cfg, nranks=4)
        session.solve()
        delta = _mixed_delta(g, np.random.default_rng(1))
        session.update(delta)
        warm_work = session.events[-1]["work"]["total_work_max"]
        cold = distributed_infomap(session.graph, 4, cfg)
        assert 0 < warm_work < cold.extras["total_work_max"]

    def test_warm_work_tracks_changed_region(self):
        # The golden incremental fixture: a warm update costs a fraction
        # of a cold solve of the patched graph, not most of one.
        g = _graph()
        cfg = InfomapConfig(seed=11)
        session = IncrementalSession(g, cfg, nranks=3)
        session.solve()
        delete_src = np.array([0, 60, 130])
        delta = GraphDelta.build(
            insert=(np.array([3, 41, 77]), np.array([180, 122, 199]),
                    np.full(3, 1.5)),
            delete=(delete_src, g.indices[g.indptr[delete_src]]),
            reweight=(np.array([10]), g.indices[g.indptr[[10]]],
                      np.array([0.5])),
        )
        session.update(delta)
        warm_work = session.events[-1]["work"]["total_work_max"]
        cold = distributed_infomap(session.graph, 3, cfg)
        assert 0 < warm_work <= 0.3 * cold.extras["total_work_max"]

    def test_seed_shape_validated(self):
        g = _graph()
        with pytest.raises(ValueError, match="seed_membership"):
            distributed_infomap(
                g, 2, seed_membership=np.zeros(3, np.int64)
            )
        with pytest.raises(ValueError, match="active"):
            distributed_infomap(
                g, 2,
                seed_membership=np.zeros(g.num_vertices, np.int64),
                active=np.ones(3, dtype=bool),
            )


# ---------------------------------------------------------------------------
# Resident rank job: one launch per session, views spliced in the ranks
# ---------------------------------------------------------------------------

def _shm_segments():
    """Shared-memory segments currently linked (procs rings, flags)."""
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - platform without it
        return set()


def _stream(graph, batches, seed=21):
    """A stream of *batches* mixed deltas, each drawn on the graph the
    previous ones produced."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(batches):
        delta = _mixed_delta(graph, rng, 2, 2, 1)
        graph = apply_delta(graph, delta)
        out.append(delta)
    return out


def _ledger(res):
    """Ledger snapshot with the run-dependent timings dropped."""

    def strip(x):
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items() if "seconds" not in k}
        if isinstance(x, list):
            return [strip(v) for v in x]
        return x

    return strip(res.extras["comm_snapshot"])


def _assert_same_result(a, b):
    assert np.array_equal(a.membership, b.membership)
    assert a.extras["codelength_history"] == b.extras["codelength_history"]
    assert _ledger(a) == _ledger(b)


def _resident_view(comm):
    return comm.resident["view"]


def _fail_on_rank_one(real):
    def repair(lg, *args, **kwargs):
        if lg.rank == 1:
            raise RuntimeError("injected splice failure")
        return real(lg, *args, **kwargs)

    return repair


def _stall_rank_one(real):
    def repair(lg, *args, **kwargs):
        if lg.rank == 1:
            time.sleep(2.0)
        return real(lg, *args, **kwargs)

    return repair


class TestResidentJob:
    NRANKS = 2

    @staticmethod
    def _graph():
        return _graph(seed=4, communities=6, size=20)

    def _session(self, backend="procs", **kwargs):
        session = IncrementalSession(
            self._graph(), InfomapConfig(seed=9), nranks=self.NRANKS,
            backend=backend, **kwargs,
        )
        session.solve()
        return session

    # -- lifecycle ------------------------------------------------------
    def test_close_leaks_nothing(self):
        before = _shm_segments()
        session = self._session()
        for delta in _stream(session.graph, 2):
            session.update(delta)
        assert _no_leaked_children()  # the ranks stay up between batches
        session.close()
        assert not _no_leaked_children()
        assert _shm_segments() <= before
        session.close()  # idempotent

    def test_with_exit_leaks_nothing(self):
        before = _shm_segments()
        with self._session() as session:
            for delta in _stream(session.graph, 2):
                session.update(delta)
        assert not _no_leaked_children()
        assert _shm_segments() <= before

    def test_dropped_session_leaks_nothing(self):
        before = _shm_segments()
        session = self._session()
        for delta in _stream(session.graph, 2):
            session.update(delta)
        del session
        gc.collect()
        assert not _no_leaked_children()
        assert _shm_segments() <= before

    @pytest.mark.parametrize("backend", ["threads", "procs"])
    def test_relaunch_after_rank_failure(self, backend, monkeypatch):
        import repro.core.distributed as dist

        d1, d2 = _stream(self._graph(), 2)
        fresh = self._session(backend)
        fresh.update(d1)
        want = fresh.update(d2)
        fresh.close()

        before = _shm_segments()
        session = self._session(backend)
        # Patched before the launch, so forked ranks inherit it.
        monkeypatch.setattr(
            dist, "repair_local_view", _fail_on_rank_one(dist.repair_local_view)
        )
        session.update(d1)
        graph = session.graph
        with pytest.raises(RuntimeError, match="injected splice failure"):
            session.update(d2)
        monkeypatch.undo()
        assert not _no_leaked_children()
        assert _shm_segments() <= before
        assert session.graph is graph and session.num_updates == 1
        got = session.update(d2)
        assert session.events[-1]["launched"]
        _assert_same_result(got, want)
        session.close()

    def test_rank_killed_between_updates(self):
        before = _shm_segments()
        d1, d2 = _stream(self._graph(), 2)
        fresh = self._session()
        fresh.update(d1)
        want = fresh.update(d2)
        fresh.close()

        session = self._session()
        session.update(d1)
        (victim,) = [
            p for p in _no_leaked_children() if p.name == "simmpi-rank-1"
        ]
        victim.kill()
        victim.join()
        with pytest.raises(RuntimeError, match="without reporting"):
            session.update(d2)
        assert not _no_leaked_children()
        assert _shm_segments() <= before
        _assert_same_result(session.update(d2), want)
        session.close()

    def test_watchdog_timeout_leaks_nothing(self, monkeypatch):
        import repro.core.distributed as dist

        from repro.simmpi import DeadlockError

        before = _shm_segments()
        session = self._session()
        monkeypatch.setattr(
            dist, "repair_local_view", _stall_rank_one(dist.repair_local_view)
        )
        d1, d2 = _stream(session.graph, 2)
        session.update(d1)
        session.timeout = 1.0
        with pytest.raises(DeadlockError):
            session.update(d2)
        assert not _no_leaked_children()
        assert _shm_segments() <= before

    # -- equivalence ----------------------------------------------------
    def test_stream_threads_procs_bitwise(self):
        out = {}
        for backend in ("threads", "procs"):
            with self._session(backend) as session:
                stream = _stream(session.graph, 4)
                out[backend] = [session.update(d) for d in stream]
        for a, b in zip(out["threads"], out["procs"]):
            _assert_same_result(a, b)

    @pytest.mark.parametrize("backend", ["threads", "procs"])
    def test_each_update_equals_a_one_shot_solve(self, backend):
        with self._session(backend) as session:
            for delta in _stream(session.graph, 3):
                prev = session.result.membership
                got = session.update(delta)
                seed, split, _ = split_cut_modules(
                    session.graph, warm_seed_membership(prev), delta
                )
                active = dirty_region(session.graph, delta, hops=1) | split
                want = distributed_infomap(
                    session.graph, self.NRANKS, session.config,
                    seed_membership=seed, active=active, backend=backend,
                )
                _assert_same_result(got, want)

    @pytest.mark.parametrize("backend", ["threads", "procs"])
    def test_spliced_view_equals_fresh_build(self, backend):
        from repro.core.distributed import _warm_rank_program
        from repro.simmpi import SpmdJob

        g = _graph(seed=3, communities=5, size=15)
        n = g.num_vertices
        cfg = InfomapConfig(seed=2)
        seed = warm_seed_membership(sequential_infomap(g, cfg).membership)
        with SpmdJob(self.NRANKS, backend=backend) as job:
            kw = {"cfg": cfg, "n0": n, "seed_membership": seed,
                  "active_seed": None}
            job.call(_warm_rank_program, fn_kwargs={**kw, "graph": g})
            for delta in _stream(g, 2, seed=5):
                g = apply_delta(g, delta)
                job.call(_warm_rank_program, fn_kwargs={**kw, "delta": delta})
                got = job.call(_resident_view).results
                part = OneDPartition.round_robin(n, self.NRANKS)
                net = FlowNetwork.from_graph(g)
                _assert_views_equal(
                    got,
                    [local_views_1d(net, part, rank=r)[0]
                     for r in range(self.NRANKS)],
                )

    # -- events ---------------------------------------------------------
    def test_launched_on_first_update_only(self):
        from repro.obs import Tracer, delta_rows

        tracer = Tracer()
        session = self._session("threads", tracer=tracer)
        stream = _stream(session.graph, 3)
        for delta in stream[:2]:
            session.update(delta)
        session.close()
        session.update(stream[2])  # a closed session relaunches
        session.close()
        assert [e["launched"] for e in session.events] == [True, False, True]
        assert [e["repair"] is None for e in session.events] == [
            True, False, True
        ]
        assert all(e["repair_seconds"] > 0 for e in session.events)
        assert session.events[1]["repair"]["ranks_touched"]
        rows = delta_rows(tracer.merged_events())
        assert [r["launched"] for r in rows] == [True, False, True]


# ---------------------------------------------------------------------------
# Cached modules: split on a cut, hand over to the coarse levels
# ---------------------------------------------------------------------------

def _cold(graph, nranks, cfg):
    if nranks == 1:
        return sequential_infomap(graph, cfg)
    return distributed_infomap(graph, nranks, cfg)


class TestCachedModules:
    @pytest.mark.parametrize("nranks", [1, 3])
    def test_cut_module_splits(self, nranks):
        # Deleting the 9 edges joining {0,1,2} to {3,4,5} cuts clique 0
        # in two; kept whole, the cached module would be disconnected.
        g = ring_of_cliques(8, 6).graph
        cfg = InfomapConfig()
        session = IncrementalSession(g, cfg, nranks=nranks)
        session.solve()
        a, b = np.meshgrid([0, 1, 2], [3, 4, 5])
        warm = session.update(
            GraphDelta.build(delete=(a.ravel(), b.ravel()))
        )
        cold = _cold(session.graph, nranks, cfg)
        assert _rel_err(warm.codelength, cold.codelength) < REL_TOL
        assert warm.codelength == pytest.approx(3.07491, abs=1e-5)
        assert count_disconnected_modules(session.graph, warm.membership) == 0
        assert session.events[-1]["split_modules"] == 1

    @pytest.mark.parametrize("nranks", [1, 3])
    def test_frontier_reaches_coarse_levels(self, nranks):
        # One edge between cliques 0 and 1 moves no vertex, but it
        # changes the coarse graph's weights: level 0 must hand over.
        g = ring_of_cliques(8, 6).graph
        cfg = InfomapConfig()
        session = IncrementalSession(g, cfg, nranks=nranks)
        session.solve()
        warm = session.update(
            GraphDelta.build(insert=(np.array([1]), np.array([8]),
                                     np.array([1.0])))
        )
        cold = _cold(session.graph, nranks, cfg)
        assert len(warm.levels) >= 2
        assert _rel_err(warm.codelength, cold.codelength) < REL_TOL


# ---------------------------------------------------------------------------
# View repair
# ---------------------------------------------------------------------------

def _assert_views_equal(repaired, fresh):
    assert len(repaired) == len(fresh)
    scalar = ("rank", "nranks", "num_owned", "num_hubs", "num_ghosts")
    arrays = (
        "global_of", "flow", "exit0", "indptr", "nbr", "nbr_flow",
        "hub_home", "ghost_owner", "boundary_local", "neighbor_ranks",
    )
    for a, b in zip(repaired, fresh):
        for f in scalar:
            assert getattr(a, f) == getattr(b, f), f
        for f in arrays:
            x, y = getattr(a, f), getattr(b, f)
            assert x.dtype == y.dtype, f
            assert x.tobytes() == y.tobytes(), f
        assert len(a.boundary_ranks) == len(b.boundary_ranks)
        for x, y in zip(a.boundary_ranks, b.boundary_ranks):
            assert x.tobytes() == y.tobytes()


class TestRepairLocalViews:
    @pytest.mark.parametrize("nranks", [2, 4])
    def test_bitwise_equals_fresh_build(self, nranks):
        g = _graph(seed=3, communities=5, size=15)
        n = g.num_vertices
        part = OneDPartition.round_robin(n, nranks)
        views = local_views_1d(FlowNetwork.from_graph(g), part)
        delta = _mixed_delta(g, np.random.default_rng(17), 4, 4, 3)
        patched = apply_delta(g, delta)
        net = FlowNetwork.from_graph(patched)
        repair_local_views(views, patched, delta, part, network=net)
        _assert_views_equal(views, local_views_1d(net, part))

    def test_repeated_repairs_stay_exact(self):
        g = _graph(seed=9, communities=4, size=12)
        n = g.num_vertices
        part = OneDPartition.round_robin(n, 3)
        views = local_views_1d(FlowNetwork.from_graph(g), part)
        rng = np.random.default_rng(5)
        for _ in range(4):
            delta = _mixed_delta(g, rng, 2, 2, 1)
            g = apply_delta(g, delta)
            net = FlowNetwork.from_graph(g)
            repair_local_views(views, g, delta, part, network=net)
            _assert_views_equal(views, local_views_1d(net, part))

    def test_reweight_only_refreshes_flows(self):
        g = _graph(seed=1, communities=4, size=12)
        part = OneDPartition.round_robin(g.num_vertices, 2)
        views = local_views_1d(FlowNetwork.from_graph(g), part)
        delta = _mixed_delta(g, np.random.default_rng(2), 0, 0, 4)
        patched = apply_delta(g, delta)
        net = FlowNetwork.from_graph(patched)
        stats = repair_local_views(views, patched, delta, part, network=net)
        assert stats["ranks_touched"] == []
        _assert_views_equal(views, local_views_1d(net, part))

    def test_delegate_views_rejected(self):
        g = _graph(seed=1, communities=4, size=12)
        net = FlowNetwork.from_graph(g)
        dpart = delegate_partition(g, 2, d_high=8)
        views = local_views_delegate(net, dpart)
        part = OneDPartition.round_robin(g.num_vertices, 2)
        if not any(v.num_hubs for v in views):
            pytest.skip("no hubs at this scale")
        with pytest.raises(ValueError, match="delegate-free"):
            repair_local_views(views, g, GraphDelta.empty(), part)


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------

class TestDeltaObservability:
    def test_tracer_records_delta_instants(self):
        from repro.obs import Tracer, delta_rows

        g = _graph(seed=2, communities=4, size=15)
        tracer = Tracer()
        session = IncrementalSession(g, InfomapConfig(seed=7), tracer=tracer)
        session.solve()
        rng = np.random.default_rng(3)
        session.update(_mixed_delta(g, rng, 1, 1, 1))
        session.update(_mixed_delta(session.graph, rng, 1, 1, 1))
        rows = delta_rows(tracer.merged_events())
        assert [r["batch"] for r in rows] == [1, 2]
        assert all(r["insert"] == 1 and r["delete"] == 1 for r in rows)
        assert all(r["dirty_vertices"] > 0 for r in rows)
        assert [r["launched"] for r in rows] == [False, False]

    def test_split_modules_reach_the_trace(self):
        from repro.obs import Tracer, delta_rows

        tracer = Tracer()
        session = IncrementalSession(
            ring_of_cliques(8, 6).graph, InfomapConfig(), tracer=tracer
        )
        session.solve()
        a, b = np.meshgrid([0, 1, 2], [3, 4, 5])
        session.update(GraphDelta.build(delete=(a.ravel(), b.ravel())))
        session.update(GraphDelta.empty())
        rows = delta_rows(tracer.merged_events())
        assert [r["split_modules"] for r in rows] == [1, 0]

    def test_session_events_record_work_and_repair(self):
        g = _graph(seed=2, communities=4, size=15)
        session = IncrementalSession(g, InfomapConfig(seed=7))
        session.solve()
        session.update(_mixed_delta(g, np.random.default_rng(3)))
        ev = session.events[-1]
        assert ev["batch"] == 1
        assert ev["insert"] == 3 and ev["delete"] == 3
        assert ev["work"]["edges_scanned"] > 0
        assert ev["repair"] is None  # sequential: no views to repair
        assert ev["launched"] is False  # sequential: no rank job


# ---------------------------------------------------------------------------
# CLI-facing session resume
# ---------------------------------------------------------------------------

class TestFromMembership:
    def test_seeded_session_matches_solved_session(self):
        g = _graph(seed=6)
        cfg = InfomapConfig(seed=13)
        solved = IncrementalSession(g, cfg)
        base = solved.solve()
        resumed = IncrementalSession.from_membership(
            g, base.membership, cfg
        )
        assert _rel_err(resumed.result.codelength, base.codelength) < 1e-12
        delta = _mixed_delta(g, np.random.default_rng(4))
        a = solved.update(delta)
        b = resumed.update(delta)
        assert a.codelength == b.codelength
        assert np.array_equal(a.membership, b.membership)

    def test_bad_shape_rejected(self):
        g = _graph(seed=6)
        with pytest.raises(ValueError, match="membership"):
            IncrementalSession.from_membership(g, np.zeros(3, np.int64))
