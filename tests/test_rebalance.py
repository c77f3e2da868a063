"""Mid-run dynamic repartitioner (repro.partition.rebalance).

Three layers of coverage:

* a direct SPMD unit test of :func:`maybe_rebalance` with a forced
  work-skew, asserting the post-migration structural invariants
  (layout validity, entry conservation, per-gid membership
  preservation, ghost-owner consistency, boundary symmetry);
* whole-pipeline runs through :func:`distributed_infomap` — default-off
  bitwise cleanliness, forced migrations with ledger accounting,
  quality preservation on a crisp-community graph, threads-vs-procs
  bitwise equivalence with rebalancing enabled;
* the observability surface — ``rebalance`` instants folding into
  :func:`repro.obs.rebalance_rows` and the ``inspect`` CLI table.
"""

import numpy as np
import pytest

from repro.core import FlowNetwork, InfomapConfig, distributed_infomap
from repro.core.swap import LocalModuleState
from repro.core.timing import PHASE_REBALANCE, PhaseTimer
from repro.graph import planted_partition, powerlaw_planted_partition
from repro.partition import delegate_partition, local_views_delegate
from repro.partition import rebalance
from repro.partition.rebalance import maybe_rebalance
from repro.simmpi import run_spmd


# ---------------------------------------------------------------------------
# Direct SPMD unit test of one migration event
# ---------------------------------------------------------------------------

def _rebalance_prog(comm):
    graph = powerlaw_planted_partition(400, 8, mu=0.2, seed=3).graph
    net = FlowNetwork.from_graph(graph)
    dp = delegate_partition(graph, comm.size, d_high=10_000)  # no hubs
    lg = local_views_delegate(net, dp)[comm.rank]
    state = LocalModuleState(lg)
    timer = PhaseTimer(comm)
    cfg = InfomapConfig(dynamic_rebalance=True, rebalance_threshold=1.0)
    before_entries = lg.num_entries
    before_mods = {
        int(g): int(m)
        for g, m in zip(lg.global_of[: lg.num_owned],
                        state.module_of[: lg.num_owned])
    }

    # Rank 0 pretends to be the straggler: everyone else idles.
    work = 1000.0 if comm.rank == 0 else 1.0
    out = maybe_rebalance(
        comm, lg, state, cfg, timer, np.ones(lg.num_owned, dtype=bool),
        work_window=work, rounds_window=1,
    )
    assert out is not None, "forced skew must trigger a migration"
    lg2, st2 = out.lg, out.state
    lg2.validate()
    assert out.active.size == lg2.num_owned
    assert PHASE_REBALANCE in timer.seconds

    return {
        "rank": comm.rank,
        "info": out.info,
        "before_entries": before_entries,
        "before_mods": before_mods,
        "entries": lg2.num_entries,
        "owned": lg2.global_of[: lg2.num_owned].tolist(),
        "mods": st2.module_of[: lg2.num_owned].tolist(),
        "ghosts": lg2.global_of[lg2.ghost_slice()].tolist(),
        "ghost_owner": lg2.ghost_owner.tolist(),
        "boundary": {
            int(lg2.global_of[v]): sorted(lg2.boundary_ranks[i].tolist())
            for i, v in enumerate(lg2.boundary_local.tolist())
        },
        "neighbor_ranks": lg2.neighbor_ranks.tolist(),
    }


def test_forced_migration_invariants(monkeypatch):
    monkeypatch.setattr(rebalance, "MAX_VERTICES", 64)
    p = 4
    res = run_spmd(_rebalance_prog, p)
    outs = res.results

    # The decision is collective: identical event record everywhere.
    infos = [o["info"] for o in outs]
    assert all(i == infos[0] for i in infos)
    assert infos[0]["donor"] == 0
    assert 1 <= infos[0]["vertices"] <= 64
    assert infos[0]["skew"] > 1.0
    receiver = infos[0]["receiver"]
    assert receiver != 0

    # Entries moved, never created or lost.
    assert (
        sum(o["entries"] for o in outs)
        == sum(o["before_entries"] for o in outs)
    )
    assert outs[0]["entries"] < outs[0]["before_entries"]
    assert outs[receiver]["entries"] > outs[receiver]["before_entries"]

    # Ownership is a partition of the original owned sets.
    owner_of = {}
    for o in outs:
        for g in o["owned"]:
            assert g not in owner_of, "vertex owned by two ranks"
            owner_of[g] = o["rank"]
    assert len(owner_of) == sum(len(o["before_mods"]) for o in outs)

    # Migration never touches memberships: per-gid module unchanged.
    before = {}
    for o in outs:
        before.update(o["before_mods"])
    for o in outs:
        for g, m in zip(o["owned"], o["mods"]):
            assert before[g] == m

    # Every ghost points at the rank that actually owns the vertex now.
    for o in outs:
        for g, r in zip(o["ghosts"], o["ghost_owner"]):
            assert owner_of[g] == r, f"stale ghost owner for {g}"

    # Boundary symmetry: r ghosts v  <=>  owner(v) lists r under v.
    for o in outs:
        for g in o["ghosts"]:
            assert o["rank"] in outs[owner_of[g]]["boundary"][g]
    for o in outs:
        for g, ranks in o["boundary"].items():
            assert owner_of[g] == o["rank"]
            for r in ranks:
                assert g in outs[r]["ghosts"]
        # neighbor_ranks covers both directions, never self.
        assert o["rank"] not in o["neighbor_ranks"]


def _noop_prog(comm):
    graph = planted_partition(4, 20, 0.4, 0.05, seed=1).graph
    net = FlowNetwork.from_graph(graph)
    dp = delegate_partition(graph, comm.size, d_high=10_000)
    lg = local_views_delegate(net, dp)[comm.rank]
    state = LocalModuleState(lg)
    timer = PhaseTimer(comm)
    cfg = InfomapConfig(dynamic_rebalance=True, rebalance_threshold=2.0)
    out = maybe_rebalance(
        comm, lg, state, cfg, timer, np.ones(lg.num_owned, dtype=bool),
        work_window=1.0, rounds_window=1,  # uniform load: skew == 1.0
    )
    return out is None


def test_under_threshold_is_uniform_noop():
    res = run_spmd(_noop_prog, 3)
    assert res.results == [True, True, True]


# ---------------------------------------------------------------------------
# Whole-pipeline behaviour
# ---------------------------------------------------------------------------

def test_disabled_by_default_leaves_no_trace():
    g = powerlaw_planted_partition(300, 6, mu=0.2, seed=4).graph
    r = distributed_infomap(g, 4, InfomapConfig(seed=7))
    assert r.extras["rebalance_events"] == []
    for snap in r.extras["comm_snapshot"]:
        assert PHASE_REBALANCE not in snap["bytes_by_phase"]
        assert PHASE_REBALANCE not in snap["logical_bytes_by_phase"]


def test_forced_migrations_fire_and_are_metered():
    g = powerlaw_planted_partition(400, 8, mu=0.25, seed=5).graph
    cfg = InfomapConfig(
        seed=7, dynamic_rebalance=True,
        rebalance_threshold=1.0, rebalance_interval=1,
    )
    r = distributed_infomap(g, 4, cfg)
    events = r.extras["rebalance_events"]
    assert events, "threshold 1.0 on a skewed graph must migrate"
    for ev in events:
        assert set(ev) == {
            "donor", "receiver", "vertices", "entries", "skew",
            "round", "level",
        }
        assert ev["vertices"] >= 1
        assert ev["donor"] != ev["receiver"]
        assert ev["skew"] >= 1.0
    # Migration traffic is charged to its own phase, physically and
    # logically, in every rank's ledger view of the job.
    phys = sum(
        snap["bytes_by_phase"].get(PHASE_REBALANCE, 0)
        for snap in r.extras["comm_snapshot"]
    )
    logical = sum(
        snap["logical_bytes_by_phase"].get(PHASE_REBALANCE, 0)
        for snap in r.extras["comm_snapshot"]
    )
    assert phys > 0 and logical > 0


def test_quality_preserved_on_crisp_communities():
    # On a graph with unambiguous structure both runs converge to the
    # same partition, so enabling rebalance must not change the answer
    # (memberships never change during a migration event).
    g = planted_partition(8, 24, 0.4, 0.01, seed=2).graph
    off = distributed_infomap(g, 4, InfomapConfig(seed=7))
    on = distributed_infomap(g, 4, InfomapConfig(
        seed=7, dynamic_rebalance=True,
        rebalance_threshold=1.0, rebalance_interval=1,
    ))
    assert on.extras["rebalance_events"], "expected migrations"
    assert abs(on.codelength - off.codelength) <= 1e-9 * abs(off.codelength)
    assert on.num_modules == off.num_modules


def test_threads_and_procs_agree_with_rebalance_on():
    g = powerlaw_planted_partition(300, 6, mu=0.2, seed=9).graph
    cfg = InfomapConfig(
        seed=3, dynamic_rebalance=True,
        rebalance_threshold=1.0, rebalance_interval=1,
    )
    rt = distributed_infomap(g, 4, cfg, backend="threads")
    rp = distributed_infomap(g, 4, cfg, backend="procs")
    assert np.array_equal(rt.membership, rp.membership)
    assert rt.codelength == rp.codelength
    assert rt.extras["rebalance_events"] == rp.extras["rebalance_events"]
    assert rt.extras["rebalance_events"]


def test_serial_backend_is_a_noop():
    g = planted_partition(4, 20, 0.4, 0.05, seed=1).graph
    r = distributed_infomap(g, 1, InfomapConfig(
        seed=7, dynamic_rebalance=True, rebalance_threshold=1.0,
        rebalance_interval=1,
    ), backend="serial")
    assert r.extras["rebalance_events"] == []


def test_config_validation():
    with pytest.raises(ValueError):
        InfomapConfig(rebalance_threshold=0.5)
    with pytest.raises(ValueError):
        InfomapConfig(rebalance_interval=0)


# ---------------------------------------------------------------------------
# Observability surface
# ---------------------------------------------------------------------------

def test_rebalance_rows_and_inspect(tmp_path, capsys):
    from repro.obs import (
        Tracer, build_run_artifact, rebalance_rows, write_run_artifact,
    )

    g = powerlaw_planted_partition(400, 8, mu=0.25, seed=5).graph
    cfg = InfomapConfig(
        seed=7, dynamic_rebalance=True,
        rebalance_threshold=1.0, rebalance_interval=1,
    )
    tracer = Tracer()
    r = distributed_infomap(g, 4, cfg, tracer=tracer)
    events = tracer.merged_events()
    rows = rebalance_rows(events)
    assert len(rows) == len(r.extras["rebalance_events"])
    for row, ev in zip(
        rows, sorted(r.extras["rebalance_events"],
                     key=lambda e: (e["level"], e["round"]))
    ):
        assert row["donor"] == ev["donor"]
        assert row["receiver"] == ev["receiver"]
        assert row["vertices"] == ev["vertices"]
        # The instant is collective — every rank reports it.
        assert row["ranks"] == 4

    path = tmp_path / "run.json"
    write_run_artifact(path, build_run_artifact(tracer, r))
    from repro.cli import main

    assert main(["inspect", str(path)]) == 0
    out = capsys.readouterr().out
    assert "rebalance migrations by (level, round)" in out


def test_cluster_cli_rebalance_flags(tmp_path, capsys):
    from repro.cli import main

    from repro.graph import write_edgelist

    edges = tmp_path / "g.txt"
    g = planted_partition(4, 15, 0.5, 0.05, seed=1).graph
    write_edgelist(g, edges)
    rc = main([
        "cluster", "--input", str(edges), "--method", "distributed",
        "--ranks", "3", "--rebalance", "--rebalance-threshold", "1.0",
    ])
    assert rc == 0
    assert "bits" in capsys.readouterr().out
