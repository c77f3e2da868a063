"""Distributed Infomap end-to-end: equivalence, convergence, quality."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import gossipmap
from repro.core import (
    DistributedInfomap,
    FlowNetwork,
    IncrementalSession,
    InfomapConfig,
    ModuleStats,
    SequentialInfomap,
    distributed_infomap,
    sequential_infomap,
)
from repro.graph import (
    GraphDelta,
    count_disconnected_modules,
    from_edges,
    load_dataset,
    planted_partition,
    powerlaw_planted_partition,
    ring_of_cliques,
)
from repro.metrics import nmi
from repro.obs.export import convergence_rows
from repro.obs.trace import Tracer

import repro


class TestSingleRankEquivalence:
    def test_matches_sequential_codelength(self):
        lg = powerlaw_planted_partition(600, 8, mu=0.2, seed=1)
        seq = SequentialInfomap().run(lg.graph)
        dist = distributed_infomap(lg.graph, 1)
        assert dist.codelength == pytest.approx(seq.codelength, rel=0.02)

    def test_exact_on_cliques(self):
        lg = ring_of_cliques(6, 5)
        seq = SequentialInfomap().run(lg.graph)
        dist = distributed_infomap(lg.graph, 1)
        assert dist.codelength == pytest.approx(seq.codelength)
        assert nmi(dist.membership, seq.membership) == pytest.approx(1.0)


class TestMultiRank:
    @pytest.mark.parametrize("p", [2, 3, 4, 8])
    def test_clique_recovery_at_any_rank_count(self, p):
        lg = ring_of_cliques(8, 6)
        res = distributed_infomap(lg.graph, p)
        assert res.num_modules == 8
        assert nmi(res.membership, lg.labels) == pytest.approx(1.0)

    @pytest.mark.parametrize("p", [2, 4])
    def test_planted_partition_recovery(self, p):
        lg = planted_partition(5, 30, 0.4, 0.01, seed=2)
        res = distributed_infomap(lg.graph, p)
        assert nmi(res.membership, lg.labels) > 0.9

    def test_codelength_close_to_sequential(self):
        """The Figure-4 claim: converged distributed MDL ≈ sequential."""
        lg = powerlaw_planted_partition(1200, 12, mu=0.2, seed=3)
        seq = SequentialInfomap().run(lg.graph)
        dist = distributed_infomap(lg.graph, 4)
        assert dist.converged
        gap = (dist.codelength - seq.codelength) / seq.codelength
        assert gap < 0.05  # within 5% of sequential

    def test_reported_codelength_is_exact(self):
        """The L in the result must equal a from-scratch recomputation
        on the original graph — the distributed reduction is exact."""
        lg = powerlaw_planted_partition(500, 8, seed=4)
        res = distributed_infomap(lg.graph, 4)
        net = FlowNetwork.from_graph(lg.graph)
        stats = ModuleStats.from_membership(net, res.membership)
        assert stats.codelength() == pytest.approx(res.codelength,
                                                   abs=1e-9)

    def test_history_monotone_after_round_one(self):
        lg = powerlaw_planted_partition(600, 8, seed=5)
        res = distributed_infomap(lg.graph, 4)
        hist = res.extras["codelength_history"]
        assert hist[-1] <= hist[0]
        assert res.converged

    def test_every_vertex_assigned(self):
        lg = powerlaw_planted_partition(400, 6, seed=6)
        res = distributed_infomap(lg.graph, 5)
        assert res.membership.size == 400
        assert res.membership.min() >= 0
        mods = np.unique(res.membership)
        np.testing.assert_array_equal(mods, np.arange(mods.size))

    def test_deterministic_given_seed(self):
        lg = powerlaw_planted_partition(300, 6, seed=7)
        a = distributed_infomap(lg.graph, 3, InfomapConfig(seed=5))
        b = distributed_infomap(lg.graph, 3, InfomapConfig(seed=5))
        np.testing.assert_array_equal(a.membership, b.membership)
        assert a.codelength == b.codelength

    def test_more_ranks_than_vertices(self):
        lg = ring_of_cliques(3, 4)  # 12 vertices
        res = distributed_infomap(lg.graph, 16)
        assert res.num_modules == 3

    def test_empty_graph_rejected(self):
        g = from_edges([], num_vertices=5)
        with pytest.raises(ValueError):
            distributed_infomap(g, 2)

    def test_object_api(self):
        lg = ring_of_cliques(4, 4)
        algo = DistributedInfomap(nranks=2, config=InfomapConfig(seed=1))
        res = algo.run(lg.graph)
        assert res.method == "distributed"
        with pytest.raises(ValueError):
            DistributedInfomap(nranks=0)


class TestInstrumentation:
    @pytest.fixture(scope="class")
    def result(self):
        data = load_dataset("dblp", seed=0, scale=0.6)
        # Fix d_high low so delegates exist and the Broadcast
        # Delegates phase is exercised.
        return distributed_infomap(data.graph, 4, InfomapConfig(d_high=4))

    def test_phase_seconds_cover_figure8_components(self, result):
        phases = result.extras["phase_seconds_max"]
        from repro.core import PHASES

        for ph in PHASES:
            assert ph in phases
            assert phases[ph] >= 0.0

    def test_comm_bytes_metered(self, result):
        assert result.extras["total_comm_bytes"] > 0
        assert result.extras["max_rank_comm_bytes"] > 0
        snap = result.extras["comm_snapshot"]
        assert len(snap) == 4

    def test_modeled_time_positive_and_decomposed(self, result):
        modeled = result.extras["modeled"]
        assert modeled["total"] > 0
        # "measurement" is reproduction instrumentation (the exact-L
        # reduction) and "serialization" is the measured codec wall
        # time of the simulator; both are excluded from the modeled
        # total.
        parts = [v for k, v in modeled.items()
                 if k not in ("total", "measurement", "serialization")]
        assert sum(parts) == pytest.approx(modeled["total"])
        # The codec diagnostic is still surfaced, and nonzero: frames
        # (the default) meter real encode/decode seconds.
        assert modeled["serialization"] > 0.0

    def test_stage_split_recorded(self, result):
        assert 0 < result.extras["stage1_seconds_max"] <= (
            result.extras["total_seconds_max"] + 1e-9
        )
        assert result.extras["stage1_work_max"] > 0

    def test_per_rank_metadata(self, result):
        assert len(result.extras["entries_per_rank"]) == 4
        assert len(result.extras["ghosts_per_rank"]) == 4
        assert result.extras["d_high"] == 4  # fixed by the fixture


class TestConfigurationSwitches:
    @pytest.fixture(scope="class")
    def lfr(self):
        return powerlaw_planted_partition(900, 10, mu=0.2, seed=8)

    def test_min_local_consensus_runs(self, lfr):
        res = distributed_infomap(
            lfr.graph, 4, InfomapConfig(delegate_consensus="min_local")
        )
        assert res.converged

    def test_ids_only_swap_degrades_quality(self, lfr):
        """The paper's Figure-3 argument: boundary-ID-only exchange
        loses accuracy relative to the full Module_Info swap."""
        full = distributed_infomap(
            lfr.graph, 4, InfomapConfig(full_module_info=True)
        )
        ids_only = distributed_infomap(
            lfr.graph, 4, InfomapConfig(full_module_info=False)
        )
        assert ids_only.codelength >= full.codelength - 1e-6

    def test_min_label_off_still_terminates(self, lfr):
        res = distributed_infomap(
            lfr.graph, 4, InfomapConfig(min_label=False, max_rounds=25)
        )
        assert res.membership.size == 900  # bounded by max_rounds

    def test_no_pruning_same_result_shape(self, lfr):
        res = distributed_infomap(
            lfr.graph, 2, InfomapConfig(prune_inactive=False, max_rounds=30)
        )
        assert res.converged

    def test_custom_d_high(self, lfr):
        res = distributed_infomap(lfr.graph, 4, InfomapConfig(d_high=10**9))
        assert res.extras["num_hubs"] == 0
        assert res.converged

    def test_rebalance_off(self, lfr):
        res = distributed_infomap(lfr.graph, 4,
                                  InfomapConfig(rebalance=False))
        assert res.converged

    def test_invalid_consensus_rejected(self):
        with pytest.raises(ValueError):
            InfomapConfig(delegate_consensus="quantum")


class TestQualityAgainstSequential:
    """Distributed codelength on the Fig-4 graphs, default config, p=4.

    Before the swap-back rule the gaps were 6.4% (amazon), 8.7% (dblp)
    and 5.5% (youtube); with it they are 1.4%, 1.3% and 0.25%.
    """

    @pytest.mark.parametrize("name", ["amazon", "dblp", "youtube"])
    def test_within_two_percent(self, name):
        graph = load_dataset(name, scale=0.5, seed=0).graph
        seq = sequential_infomap(graph)
        dist = distributed_infomap(graph, 4, backend="threads")
        gap = (dist.codelength - seq.codelength) / seq.codelength
        assert gap < 0.02, f"{name}: {100 * gap:.2f}% above sequential"

    @pytest.mark.xfail(
        strict=True,
        reason="synchronous rounds still merge one dblp module across a "
        "cut; splitting modules into components before the merge is "
        "the fix",
    )
    def test_no_disconnected_modules(self):
        graph = load_dataset("dblp", scale=0.5, seed=0).graph
        res = distributed_infomap(graph, 4)
        assert count_disconnected_modules(graph, res.membership) == 0

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="a warm update splits only the modules a delete cut, so "
        "the cold solve's one disconnected amazon module survives it; "
        "splitting modules into components before the merge is the fix",
    )
    def test_no_disconnected_modules_after_warm_update(self):
        graph = load_dataset("amazon", scale=0.5, seed=0).graph
        session = IncrementalSession(graph, nranks=4, backend="threads")
        session.solve()
        nbrs = set(graph.neighbors(0).tolist())
        v = next(v for v in range(1, graph.num_vertices) if v not in nbrs)
        res = session.update(GraphDelta(
            src=[0], dst=[v], weight=[1.0], op=[GraphDelta.INSERT]
        ))
        assert count_disconnected_modules(session.graph, res.membership) == 0


class TestSwapBackRule:
    """A vertex never re-enters the module it left the round before."""

    @pytest.fixture(scope="class")
    def traced(self):
        graph = load_dataset("dblp", scale=0.5, seed=0).graph
        out = {}
        for backend in ("threads", "procs"):
            tracer = Tracer()
            res = distributed_infomap(
                graph, 4, InfomapConfig(seed=1), tracer=tracer,
                backend=backend,
            )
            out[backend] = (res, convergence_rows(tracer.merged_events()))
        return out

    def test_trace_rows_sum_to_extras(self, traced):
        for res, rows in traced.values():
            per_level = [0] * len(res.levels)
            for row in rows:
                per_level[row["level"]] += row["swap_backs"]
            assert per_level == res.extras["swap_backs"]
            assert sum(per_level) > 0

    def test_backends_count_alike(self, traced):
        (res_t, rows_t), (res_p, rows_p) = traced["threads"], traced["procs"]
        assert res_t.extras["swap_backs"] == res_p.extras["swap_backs"]
        assert ([r["swap_backs"] for r in rows_t]
                == [r["swap_backs"] for r in rows_p])

    def test_max_flow_rule_untouched(self):
        res = gossipmap(
            powerlaw_planted_partition(300, 6, mu=0.1, seed=11).graph, 4,
            InfomapConfig(seed=5),
        )
        assert res.extras["swap_backs"] == [0] * len(res.levels)


class TestWorkloadBalanceInRun:
    def test_entries_balanced_across_ranks(self):
        data = load_dataset("uk2005", seed=0, scale=0.3)
        res = distributed_infomap(data.graph, 8)
        entries = np.asarray(res.extras["entries_per_rank"])
        assert entries.max() <= entries.mean() * 1.05 + 1


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 1000), p=st.integers(2, 6))
def test_property_distributed_converges_and_is_exactly_reported(seed, p):
    lg = powerlaw_planted_partition(250, 6, mu=0.25, seed=seed)
    res = distributed_infomap(lg.graph, p, InfomapConfig(seed=seed))
    assert res.membership.size == 250
    net = FlowNetwork.from_graph(lg.graph)
    stats = ModuleStats.from_membership(net, res.membership)
    assert stats.codelength() == pytest.approx(res.codelength, abs=1e-9)


def test_import_loads_numpy_random():
    # numpy loads numpy.random lazily.  Procs ranks fork from the
    # process that imported the solver, and each builds a generator:
    # unless the import loaded numpy.random, every rank imports it
    # again.  A fresh interpreter, so other tests' imports do not count.
    script = (
        "import sys\n"
        "import repro.core.distributed\n"
        "assert 'numpy.random' in sys.modules\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", script], env=env, check=True)
