"""Swap-protocol throughput for the array-backed ModuleTable.

Not a paper figure — this tracks the absolute throughput of the full
swap+rebuild cycle (membership churn → membership-sync delta →
contribution → delta swap prepare → apply at the receivers → rebuild
from caches → table snapshot) run loopback over the local views of a
50k-vertex delegate-partitioned scale-free graph.  The dict oracle it
used to race against is retired; what remains is an absolute
rounds/sec record plus a determinism guard: two runs of the identical
churn schedule must end in bitwise-equal tables.  Results land in
``BENCH_swap.json`` at the repo root;
``repro.bench.export.merge_bench_reports`` folds every
``BENCH_*.json`` into one trajectory report.
"""

import time

import numpy as np
import pytest

from repro.bench.export import result_to_json
from repro.core import FlowNetwork
from repro.core.swap import LocalModuleState
from repro.graph import barabasi_albert
from repro.partition import delegate_partition, local_views_delegate

N_VERTICES = 50_000
ATTACH = 5
NRANKS = 4
D_HIGH = 64  # BA(m=5) has min degree 5; delegate only the heavy tail
N_ROUNDS = 8


def _build_views():
    g = barabasi_albert(N_VERTICES, ATTACH, seed=42)
    net = FlowNetwork.from_graph(g)
    dp = delegate_partition(g, NRANKS, d_high=D_HIGH)
    return local_views_delegate(net, dp)


def _churn_schedule(views):
    """Per-round, per-rank (movers, targets) — same for every run."""
    rng = np.random.default_rng(7)
    schedule = []
    for _ in range(N_ROUNDS):
        per_rank = []
        for v in views:
            n_moves = max(v.num_owned // 20, 1)
            movers = rng.integers(0, v.num_owned, size=n_moves)
            targets = v.global_of[
                rng.integers(0, v.num_local, size=n_moves)
            ]
            per_rank.append((movers, targets))
        schedule.append(per_rank)
    return schedule


def _run_cycle(views, schedule):
    states = [LocalModuleState(v) for v in views]
    ghost_indexes = [
        {
            int(v.global_of[li]): li
            for li in range(v.num_owned + v.num_hubs, v.num_local)
        }
        for v in views
    ]
    nranks = len(views)
    t0 = time.perf_counter()
    for per_rank in schedule:
        for st, (movers, targets) in zip(states, per_rank):
            st.module_of[movers] = targets
        sync = [st.prepare_membership_sync_delta() for st in states]
        for dest in range(nranks):
            inbox = [
                sync[src][dest]
                for src in range(nranks)
                if src != dest and dest in sync[src]
            ]
            states[dest].apply_membership_sync(inbox, ghost_indexes[dest])
        owns = [st.contribution() for st in states]
        deltas = [
            st.prepare_swap_delta(own) for st, own in zip(states, owns)
        ]
        for dest in range(nranks):
            inbox = {
                src: deltas[src][dest]
                for src in range(nranks)
                if src != dest and dest in deltas[src]
            }
            states[dest].apply_swap_delta(inbox)
            states[dest].rebuild_table_from_caches(owns[dest])
        snaps = [st.table_arrays() for st in states]
    elapsed = time.perf_counter() - t0
    return {
        "elapsed_s": elapsed,
        "rounds_per_s": N_ROUNDS / elapsed,
        "table_sizes": [int(s.mod_ids.size) for s in snaps],
    }, snaps


def swap_throughput() -> dict:
    views = _build_views()
    schedule = _churn_schedule(views)

    row_a, snaps_a = _run_cycle(views, schedule)
    # Second run from fresh state: same schedule ⇒ bitwise-equal tables.
    row_b, snaps_b = _run_cycle(views, schedule)

    deterministic = all(
        np.array_equal(sa.mod_ids, sb.mod_ids)
        and np.array_equal(sa.exit, sb.exit)
        and np.array_equal(sa.sum_p, sb.sum_p)
        and np.array_equal(sa.members, sb.members)
        for sa, sb in zip(snaps_a, snaps_b)
    )

    rows = [
        {"run": "first", **row_a},
        {"run": "repeat", **row_b},
    ]
    lines = [
        f"swap+rebuild throughput, n={N_VERTICES} BA(m={ATTACH}), "
        f"{NRANKS} ranks, {N_ROUNDS} rounds"
    ]
    for r in rows:
        lines.append(
            f"  {r['run']:>6}  {r['rounds_per_s']:>8.2f} rounds/s  "
            f"({r['elapsed_s']:.2f}s)"
        )
    return {
        "text": "\n".join(lines),
        "rows": rows,
        "deterministic": deterministic,
        "n": N_VERTICES,
        "nranks": NRANKS,
        "rounds": N_ROUNDS,
    }


@pytest.mark.throughput_guard
def test_swap_throughput(run_once, bench_report_path):
    out = run_once(swap_throughput)
    print("\n" + out["text"])
    assert out["deterministic"], "identical schedule diverged across runs"
    assert all(r["rounds_per_s"] > 0 for r in out["rows"])

    result_to_json(out, bench_report_path("BENCH_swap.json"))
