"""End-to-end round throughput of the typed frame codec.

Records one full distributed round's message complement — membership
churn, sparse membership-sync exchange, delegate-proposal allgather,
full swap-batch exchange — driven through :func:`repro.simmpi.run_spmd`
at 4 ranks over the local views of a 50k-vertex delegate-partitioned
scale-free graph.  The payload schedule is precomputed, so the timed
region only moves bytes.

Asserted invariants (no throughput floor: the frame codec is the only
transport, so there is no in-runtime baseline to hold a ratio against;
its end-to-end cost is covered by the repo benchmark's distributed
workloads):

* per-rank move counts equal the schedule's;
* per-rank checksums over every decoded column equal the checksums of
  the same columns read straight from the schedule, with no transport.

Results land in ``BENCH_wire.json`` at the repo root;
``repro.bench.export.merge_bench_reports`` folds every
``BENCH_*.json`` into one trajectory report.
"""

import statistics
import time

import numpy as np
import pytest

from repro.bench.export import result_to_json
from repro.core import FlowNetwork
from repro.core.swap import LocalModuleState
from repro.graph import barabasi_albert
from repro.partition import delegate_partition, local_views_delegate
from repro.simmpi import run_spmd

N_VERTICES = 50_000
ATTACH = 5
NRANKS = 4
D_HIGH = 64
N_ROUNDS = 8
CHURN_DIV = 2  # heavy churn: num_owned // 2 movers per rank per round
N_PROPOSALS = 30_000  # delegate-proposal columns gathered per rank
N_REPS = 5


def _build_workload():
    """Precompute every payload a round ships, outside the clock.

    Runs the real swap protocol loopback once to capture, per round
    and per rank, the outgoing membership-sync columns and the full
    ``prepare_swap`` batches, plus synthetic delegate-proposal columns
    (hubs, deltas, targets) for the allgather leg.  The timed region
    then only moves bytes — the workload is transport-dominated by
    construction.
    """
    g = barabasi_albert(N_VERTICES, ATTACH, seed=42)
    net = FlowNetwork.from_graph(g)
    dp = delegate_partition(g, NRANKS, d_high=D_HIGH)
    views = local_views_delegate(net, dp)

    rng = np.random.default_rng(7)
    schedule, proposals = [], []
    for _ in range(N_ROUNDS):
        per_rank, prop_rank = [], []
        for v in views:
            n_moves = max(v.num_owned // CHURN_DIV, 1)
            movers = rng.integers(0, v.num_owned, size=n_moves)
            targets = v.global_of[
                rng.integers(0, v.num_local, size=n_moves)
            ]
            per_rank.append((movers, targets))
            prop_rank.append((
                rng.integers(0, N_VERTICES, size=N_PROPOSALS),
                rng.random(N_PROPOSALS),
                rng.integers(0, N_VERTICES, size=N_PROPOSALS),
            ))
        schedule.append(per_rank)
        proposals.append(prop_rank)

    states = [LocalModuleState(v) for v in views]
    ghost_indexes = [
        {
            int(v.global_of[li]): li
            for li in range(v.num_owned + v.num_hubs, v.num_local)
        }
        for v in views
    ]
    sync_payloads, swap_payloads = [], []
    for per_rank in schedule:
        for st, (movers, targets) in zip(states, per_rank):
            st.module_of[movers] = targets
        sync = [st.prepare_membership_sync_delta() for st in states]
        sync_payloads.append(sync)
        for dest in range(NRANKS):
            inbox = [
                sync[src][dest]
                for src in range(NRANKS)
                if src != dest and dest in sync[src]
            ]
            states[dest].apply_membership_sync(
                inbox, ghost_indexes[dest]
            )
        owns = [st.contribution() for st in states]
        swap_payloads.append(
            [st.prepare_swap(own) for st, own in zip(states, owns)]
        )
    return schedule, proposals, sync_payloads, swap_payloads


def _checksum(inbox, gathered) -> float:
    """Sum every column that crossed the wire, in deterministic order
    (ascending sources / ranks)."""
    acc = np.float64(0.0)
    for got in inbox:
        for src in sorted(got):
            for c in got[src]:
                acc += np.asarray(c).sum(dtype=np.float64)
    for parts in gathered:
        for cols in parts:
            for c in cols:
                acc += np.asarray(c).sum(dtype=np.float64)
    return float(acc)


def _outgoing(payloads, rank):
    return {d: c for d, c in payloads[rank].items() if d != rank}


def _expected(schedule, proposals, sync_payloads, swap_payloads):
    """Per-rank ``(moves, checksum)`` read straight off the schedule."""
    out = []
    for rank in range(NRANKS):
        inbox, gathered = [], []
        moves = 0
        for rnd in range(N_ROUNDS):
            moves += schedule[rnd][rank][0].size
            for payloads in (sync_payloads[rnd], swap_payloads[rnd]):
                inbox.append({
                    src: payloads[src][rank]
                    for src in range(NRANKS)
                    if src != rank and rank in payloads[src]
                })
            gathered.append(list(proposals[rnd]))
        out.append((moves, _checksum(inbox, gathered)))
    return out


def _make_prog(schedule, proposals, sync_payloads, swap_payloads):
    def prog(comm):
        inbox, gathered = [], []
        moves = 0
        comm.barrier()
        t0 = time.perf_counter()
        for rnd in range(N_ROUNDS):
            movers, _targets = schedule[rnd][comm.rank]
            moves += movers.size
            inbox.append(
                comm.exchange(_outgoing(sync_payloads[rnd], comm.rank))
            )
            gathered.append(comm.allgather(proposals[rnd][comm.rank]))
            inbox.append(
                comm.exchange(_outgoing(swap_payloads[rnd], comm.rank))
            )
        elapsed = time.perf_counter() - t0
        comm.barrier()
        return moves, _checksum(inbox, gathered), elapsed

    return prog


def wire_throughput() -> dict:
    workload = _build_workload()
    prog = _make_prog(*workload)
    expected = _expected(*workload)

    run_spmd(prog, NRANKS)  # warm the code path
    times = []
    for _rep in range(N_REPS):
        res = run_spmd(prog, NRANKS)
        times.append(max(r[2] for r in res.results))
        outcomes = [(r[0], r[1]) for r in res.results]
        ledger = res.ledger

    med = statistics.median(times)
    row = {
        "codec": "frames",
        "median_s": med,
        "rounds_per_s": N_ROUNDS / med,
        "all_s": sorted(times),
        "physical_bytes_per_rank": [
            ledger.for_rank(r).total_bytes_sent for r in range(NRANKS)
        ],
        "logical_bytes_per_rank": [
            ledger.for_rank(r).total_logical_bytes for r in range(NRANKS)
        ],
        "moves_per_rank": [m for m, _c in outcomes],
    }
    text = (
        f"wire round throughput, n={N_VERTICES} BA(m={ATTACH}), "
        f"{NRANKS} ranks, {N_ROUNDS} rounds, median of {N_REPS}\n"
        f"  frames  {row['rounds_per_s']:>8.2f} rounds/s"
        f"  ({med * 1e3:.1f} ms)"
    )
    return {
        "text": text,
        "rows": [row],
        "moves_match_schedule": (
            [m for m, _ in outcomes] == [m for m, _ in expected]
        ),
        "checksums_match_schedule": (
            [c for _, c in outcomes] == [c for _, c in expected]
        ),
        "n": N_VERTICES,
        "nranks": NRANKS,
        "rounds": N_ROUNDS,
        "proposals_per_rank": N_PROPOSALS,
    }


@pytest.mark.throughput_guard
def test_wire_throughput(run_once, bench_report_path):
    out = run_once(wire_throughput)
    print("\n" + out["text"])
    assert out["moves_match_schedule"], "ranks applied the wrong moves"
    assert out["checksums_match_schedule"], (
        "decoded values diverged from the payload schedule"
    )
    result_to_json(out, bench_report_path("BENCH_wire.json"))
