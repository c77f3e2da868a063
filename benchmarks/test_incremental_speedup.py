"""Incremental-solve guard: warm re-solve costs O(changed region).

Guards the incremental subsystem (``repro.core.incremental``) end to
end: a resident :class:`IncrementalSession` absorbs a stream of small
delta batches — each touching at most 1% of the edges — and each warm
re-solve must beat a cold solve of the same post-delta snapshot by a
wide margin in *work*, not just wall clock.  The edge-scan counters
(``work["edges_scanned"]`` from the sweep kernel) are the primary
metric: wall clock on a warm cache can flatter the incremental path,
whereas the counters measure exactly how much of the graph the solver
actually revisited.

Asserted invariants, per batch (sequential solver, same seed):

* warm ``edges_scanned`` is >= ``MIN_WORK_SPEEDUP``x below the cold
  re-solve's counter;
* warm wall clock (delta apply + dirty-region seed + solve) beats the
  cold re-solve by >= ``MIN_TIME_SPEEDUP``x;
* the warm codelength stays within ``QUALITY_BAND`` relative of the
  cold codelength.  After accumulated batches the two greedy
  trajectories land in different local optima and the noise runs in
  *both* directions (cold full re-solves are frequently the worse of
  the two here); the band catches an incremental path that degrades
  quality while the strict per-batch 1e-9 oracle lives in
  ``tests/test_incremental.py`` where single deterministic batches
  make it exact;
* the dirty region stays a small fraction of the graph (the warm
  start's whole premise).

Results land in ``BENCH_incremental.json`` at the repo root (with the
host stamp ``result_to_json`` adds);
``repro.bench.export.merge_bench_reports`` folds it into the
trajectory report.  ``REPRO_BENCH_SMOKE=1`` shrinks the graph so
``scripts/check.sh`` finishes fast; the work-counter and quality
invariants are asserted either way (the wall-clock floor is relaxed in
smoke, where fixed per-call overheads dominate the tiny solve).
"""

import os
import time

import numpy as np
import pytest

from repro.bench.export import result_to_json
from repro.core import IncrementalSession, InfomapConfig, sequential_infomap
from repro.graph import GraphDelta, from_edge_array

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

NUM_COMMS = 12 if _SMOKE else 32
COMM_SIZE = 48 if _SMOKE else 64
NUM_BATCHES = 4
SEED = 17
MIN_WORK_SPEEDUP = 5.0
MIN_TIME_SPEEDUP = 1.5 if _SMOKE else 5.0
QUALITY_BAND = 5e-3


def _community_graph():
    """Crisp communities joined by single weak bridge edges.

    Each community is a circulant ring (every member linked to its
    next two neighbours) plus a hub — the community's first vertex —
    linked to every other member, so Infomap resolves one module per
    community.  Consecutive communities share exactly one weak bridge.
    Inter-community connectivity being *sparse and structured* matters
    here: a random-background graph (e.g. planted partition with
    uniform ``p_out``) hands every vertex a handful of scattered
    external neighbours, so the 1-hop dirty frontier of even a tiny
    localized delta sprays across the whole vertex set and the warm
    re-solve degenerates to a full sweep.
    """
    src_parts, dst_parts, w_parts = [], [], []
    for c in range(NUM_COMMS):
        base = c * COMM_SIZE
        ids = np.arange(base, base + COMM_SIZE, dtype=np.int64)
        off = ids - base
        for k in (1, 2):
            src_parts.append(ids)
            dst_parts.append(base + (off + k) % COMM_SIZE)
            w_parts.append(np.full(COMM_SIZE, 1.0))
        others = ids[1:]
        src_parts.append(np.full(others.size, base, dtype=np.int64))
        dst_parts.append(others)
        w_parts.append(np.full(others.size, 1.0))
        nxt = ((c + 1) % NUM_COMMS) * COMM_SIZE
        src_parts.append(np.asarray([base + 1], dtype=np.int64))
        dst_parts.append(np.asarray([nxt + 1], dtype=np.int64))
        w_parts.append(np.asarray([0.05]))
    return from_edge_array(
        np.concatenate(src_parts),
        np.concatenate(dst_parts),
        np.concatenate(w_parts),
    )


def _delta_batch(graph, rng, budget: int, comms: list[int]) -> GraphDelta:
    """A mixed delta touching at most *budget* undirected edges.

    All edits land inside the communities listed in *comms* — delta
    batches in a dynamic graph are bursts around an active region, and
    localized churn is precisely the regime where the warm start pays
    (a scattered batch's 1-hop dirty frontier covers the whole graph
    no matter how few edges it edits).  Half deletions of existing
    intra-community edges, half insertions of currently absent
    intra-community pairs (so the planted structure stays crisp), plus
    a few reweights — the three delta kinds the subsystem supports, in
    one batch.
    """
    rows = graph._row_of_entry()
    comm_of = np.minimum(rows // COMM_SIZE, NUM_COMMS - 1)
    in_comms = np.isin(comm_of, comms)
    mask = (rows < graph.indices) & in_comms & (
        comm_of == np.minimum(graph.indices // COMM_SIZE, NUM_COMMS - 1)
    )
    # Leave the hub spokes alone: with them intact every community stays
    # a crisp star+ring module, keeping the warm and cold partitions in
    # the same neighbourhood of optima (the QUALITY_BAND contract).
    mask &= (rows % COMM_SIZE != 0) & (graph.indices % COMM_SIZE != 0)
    eu, ev = rows[mask], graph.indices[mask]
    n_rew = max(2, budget // 8)
    n_del = (budget - n_rew) // 2
    n_ins = budget - n_rew - n_del
    pick = rng.choice(eu.size, n_del + n_rew, replace=False)
    del_idx, rew_idx = pick[:n_del], pick[n_del:]
    present = set(zip(eu.tolist(), ev.tolist()))
    ins: list[tuple[int, int]] = []
    while len(ins) < n_ins:
        base = int(rng.choice(comms)) * COMM_SIZE
        a, b = sorted((base + rng.integers(1, COMM_SIZE, 2)).tolist())
        if a != b and (a, b) not in present and (a, b) not in ins:
            ins.append((a, b))
    return GraphDelta.build(
        insert=(
            np.asarray([e[0] for e in ins], dtype=np.int64),
            np.asarray([e[1] for e in ins], dtype=np.int64),
            np.full(n_ins, 1.0),
        ),
        delete=(eu[del_idx], ev[del_idx]),
        reweight=(eu[rew_idx], ev[rew_idx], np.full(n_rew, 0.5)),
    )


def incremental_speedup() -> dict:
    graph = _community_graph()
    cfg = InfomapConfig(seed=SEED)
    session = IncrementalSession(graph, cfg)
    session.solve()

    num_edges = graph.num_edges
    budget = max(4, num_edges // 100)  # <= 1% of the edges per batch
    rng = np.random.default_rng(SEED)

    rows = []
    for b in range(NUM_BATCHES):
        comms = [(2 * b) % NUM_COMMS, (2 * b + 1) % NUM_COMMS]
        delta = _delta_batch(session.graph, rng, budget, comms)
        t0 = time.perf_counter()
        warm = session.update(delta)
        warm_seconds = time.perf_counter() - t0
        event = session.events[-1]

        cold_work: dict = {}
        t0 = time.perf_counter()
        cold = sequential_infomap(session.graph, cfg, work=cold_work)
        cold_seconds = time.perf_counter() - t0

        rows.append({
            "batch": event["batch"],
            "delta_edges": len(delta),
            "dirty_fraction": event["dirty_fraction"],
            "warm_edges_scanned": int(event["work"]["edges_scanned"]),
            "cold_edges_scanned": int(cold_work["edges_scanned"]),
            "work_speedup": (
                cold_work["edges_scanned"]
                / max(event["work"]["edges_scanned"], 1)
            ),
            "warm_seconds": warm_seconds,
            "cold_seconds": cold_seconds,
            "time_speedup": cold_seconds / max(warm_seconds, 1e-12),
            "warm_codelength": float(warm.codelength),
            "cold_codelength": float(cold.codelength),
        })

    lines = [
        f"incremental warm-start, {NUM_COMMS}x{COMM_SIZE} hub+ring "
        f"communities, {num_edges} edges, batches of {budget} edge ops"
        + (" [smoke]" if _SMOKE else ""),
    ]
    for r in rows:
        lines.append(
            f"  batch {r['batch']}: dirty {r['dirty_fraction']:6.2%}  "
            f"work {r['warm_edges_scanned']:>8} vs "
            f"{r['cold_edges_scanned']:>8} ({r['work_speedup']:5.1f}x)  "
            f"wall {r['warm_seconds']:.3f}s vs {r['cold_seconds']:.3f}s "
            f"({r['time_speedup']:.1f}x)  "
            f"L {r['warm_codelength']:.6f} vs {r['cold_codelength']:.6f}"
        )
    return {
        "text": "\n".join(lines),
        "rows": rows,
        "n": NUM_COMMS * COMM_SIZE,
        "num_edges": int(num_edges),
        "delta_budget": int(budget),
        "batches": NUM_BATCHES,
        "smoke": _SMOKE,
    }


@pytest.mark.incremental_guard
def test_incremental_speedup(run_once, bench_report_path):
    out = run_once(incremental_speedup)
    print("\n" + out["text"])
    assert len(out["rows"]) == NUM_BATCHES

    for r in out["rows"]:
        assert r["delta_edges"] <= out["delta_budget"]
        assert r["dirty_fraction"] < 0.5, (
            f"batch {r['batch']}: dirty region covers "
            f"{r['dirty_fraction']:.0%} of the graph — not incremental"
        )
        assert r["work_speedup"] >= MIN_WORK_SPEEDUP, (
            f"batch {r['batch']}: warm scan {r['warm_edges_scanned']} vs "
            f"cold {r['cold_edges_scanned']} is only "
            f"{r['work_speedup']:.1f}x, need >= {MIN_WORK_SPEEDUP}x"
        )
        assert r["time_speedup"] >= MIN_TIME_SPEEDUP, (
            f"batch {r['batch']}: warm {r['warm_seconds']:.3f}s vs cold "
            f"{r['cold_seconds']:.3f}s is only {r['time_speedup']:.1f}x, "
            f"need >= {MIN_TIME_SPEEDUP}x"
        )
        gap = abs(r["warm_codelength"] - r["cold_codelength"])
        assert gap <= QUALITY_BAND * abs(r["cold_codelength"]), (
            f"batch {r['batch']}: warm codelength "
            f"{r['warm_codelength']} vs cold {r['cold_codelength']} "
            f"differs by {gap / abs(r['cold_codelength']):.2e} relative, "
            f"band is {QUALITY_BAND}"
        )

    result_to_json(out, bench_report_path("BENCH_incremental.json"))
