"""Dynamic-repartitioner guard: skew reduction without quality loss.

Guards the work-stealing repartitioner (``repro.partition.rebalance``)
end to end on a deliberately pathological input: a crisp-community
graph whose high-degree vertices all share the same residue mod the
rank count, so the 1D round-robin placement (delegates disabled via a
huge ``d_high``) piles their adjacency onto rank 0.  Statically that
skew is unfixable without delegates; the dynamic repartitioner must
discover it from the live edge-scan counters and migrate it away
mid-run.

Asserted invariants (rebalance ON vs OFF, same seed, 8 ranks):

* the max/mean *Find Best Module* edge-scan skew, accumulated over all
  of stage 1, improves by >= 1.3x;
* the final codelength matches the non-rebalanced run within 1e-9
  relative (memberships never change during a migration, and on a
  crisp graph both trajectories converge to the same partition);
* every migration event's traffic is accounted under the dedicated
  ``rebalance`` phase of the per-rank comm ledger, both physically
  (frame bytes) and logically (payload bytes).

Results land in ``BENCH_rebalance.json`` at the repo root (with the
host stamp ``result_to_json`` adds);
``repro.bench.export.merge_bench_reports`` folds it into the
trajectory report.  ``REPRO_BENCH_SMOKE=1`` shrinks the communities so
``scripts/check.sh`` finishes fast; every invariant is asserted either
way.
"""

import os

import numpy as np
import pytest

from repro.bench.export import result_to_json
from repro.core import InfomapConfig, distributed_infomap
from repro.core.timing import PHASE_FIND_BEST, PHASE_REBALANCE
from repro.graph import from_edge_array

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

NRANKS = 8
NUM_COMMS = 8
COMM_SIZE = 48 if _SMOKE else 128
MIN_SKEW_IMPROVEMENT = 1.3
SEED = 7


def _hub_heavy_graph():
    """Crisp communities whose heavy vertices all land on rank 0.

    Each community is a circulant ring (every member linked to its next
    two neighbours) plus *heavy* members — the ids congruent to
    0 mod ``NRANKS`` — linked to every other member.  Round-robin 1D
    ownership therefore gives rank 0 every heavy adjacency list.  A
    weak ring of inter-community edges keeps the graph connected
    without blurring the planted structure.
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
        for h in ids[ids % NRANKS == 0].tolist():
            others = ids[ids != h]
            src_parts.append(np.full(others.size, h, dtype=np.int64))
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


def _stage1_work_skew(result) -> float:
    works = np.asarray([
        snap["work"].get(PHASE_FIND_BEST, 0.0)
        for snap in result.extras["per_rank_stage1_timer"]
    ])
    return float(works.max() / works.mean())


def _rebalance_bytes(result, key: str) -> int:
    return sum(
        snap[key].get(PHASE_REBALANCE, 0)
        for snap in result.extras["comm_snapshot"]
    )


def rebalance_skew() -> dict:
    graph = _hub_heavy_graph()
    # Both runs share the profile: no delegates (the skew must be real),
    # deterministic order, and no inactive-set pruning so every round
    # scans every vertex — the accumulated counters then reflect the
    # ownership layout, not the convergence schedule.
    base_kwargs = dict(
        seed=SEED, d_high=10**9, shuffle=False, prune_inactive=False,
    )
    off = distributed_infomap(
        graph, NRANKS, InfomapConfig(**base_kwargs)
    )
    on = distributed_infomap(
        graph, NRANKS, InfomapConfig(
            **base_kwargs,
            dynamic_rebalance=True,
            rebalance_threshold=1.05,
            rebalance_interval=1,
        )
    )

    skew_off = _stage1_work_skew(off)
    skew_on = _stage1_work_skew(on)
    events = on.extras["rebalance_events"]
    rows = [
        {
            "rebalance": False,
            "skew": skew_off,
            "codelength": float(off.codelength),
            "num_modules": int(off.num_modules),
        },
        {
            "rebalance": True,
            "skew": skew_on,
            "skew_improvement": skew_off / skew_on,
            "codelength": float(on.codelength),
            "num_modules": int(on.num_modules),
            "events": len(events),
            "vertices_migrated": sum(e["vertices"] for e in events),
            "entries_migrated": sum(e["entries"] for e in events),
            "rebalance_bytes_physical": _rebalance_bytes(
                on, "bytes_by_phase"
            ),
            "rebalance_bytes_logical": _rebalance_bytes(
                on, "logical_bytes_by_phase"
            ),
        },
    ]
    lines = [
        f"dynamic rebalance, {NUM_COMMS}x{COMM_SIZE} hub-heavy "
        f"communities, {NRANKS} ranks"
        + (" [smoke]" if _SMOKE else ""),
        f"  off  skew {skew_off:6.2f}  L={float(off.codelength):.6f}",
        f"  on   skew {skew_on:6.2f}  L={float(on.codelength):.6f}  "
        f"({len(events)} events, "
        f"{rows[1]['vertices_migrated']} vertices, "
        f"{skew_off / skew_on:.2f}x skew improvement)",
    ]
    return {
        "text": "\n".join(lines),
        "rows": rows,
        "n": NUM_COMMS * COMM_SIZE,
        "nranks": NRANKS,
        "smoke": _SMOKE,
    }


@pytest.mark.rebalance_guard
def test_rebalance_skew(run_once, bench_report_path):
    out = run_once(rebalance_skew)
    print("\n" + out["text"])
    off, on = out["rows"]

    assert on["events"] > 0, "the forced skew must trigger migrations"
    improvement = on["skew_improvement"]
    assert improvement >= MIN_SKEW_IMPROVEMENT, (
        f"skew improved only {improvement:.2f}x "
        f"(off {off['skew']:.2f} -> on {on['skew']:.2f}), "
        f"need >= {MIN_SKEW_IMPROVEMENT}x"
    )
    assert abs(on["codelength"] - off["codelength"]) <= (
        1e-9 * abs(off["codelength"])
    ), "rebalancing changed the answer on a crisp-community graph"
    assert on["rebalance_bytes_physical"] > 0
    assert on["rebalance_bytes_logical"] > 0

    result_to_json(out, bench_report_path("BENCH_rebalance.json"))
