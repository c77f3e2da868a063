"""Nonblocking-overlap throughput guard.

Guards the tentpole claim of the interior/boundary overlapped sweep
(:mod:`repro.simmpi.requests` + ``InfomapConfig.overlap``): with the
process backend on a multi-core host, posting the membership sync and
the round reductions early and draining them behind the interior sweep

* hides at least 30% of the blocking mode's request-wait seconds, and
* lifts round throughput (rounds per wall-second) by at least 1.15x,

while staying **bitwise identical** to the blocking path — the
equivalence half is asserted unconditionally, on every host.  On a
single-core host the ranks time-share one CPU, so there is no latency
to hide; the ratio assertions auto-skip (the JSON report still lands,
with the honest host stamp that explains the skip).

Results land in ``BENCH_overlap.json`` at the repo root.
``REPRO_BENCH_SMOKE=1`` shrinks the graph so ``scripts/check.sh``
finishes quickly.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.bench.export import result_to_json
from repro.core import InfomapConfig, distributed_infomap
from repro.graph import barabasi_albert
from repro.obs.live import LivePlane, LiveSnapshot

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

N_VERTICES = 3_000 if _SMOKE else 12_000
ATTACH = 6  # hub-heavy preferential attachment: boundary-dense cut
NRANKS = 4
MIN_WAIT_HIDDEN = 0.30   # overlap wait <= 0.7x blocking wait
MIN_THROUGHPUT = 1.15    # rounds/sec lift
MULTI_CORE = (os.cpu_count() or 1) >= 2


def _wait_overlap_totals(result) -> tuple[float, float]:
    wait = overlap = 0.0
    for st in result.extras["comm_snapshot"]:
        wait += sum(st["wait_seconds_by_phase"].values())
        overlap += sum(st["overlap_seconds_by_phase"].values())
    return wait, overlap


def overlap_throughput() -> dict:
    g = barabasi_albert(N_VERTICES, ATTACH, seed=42)
    base = dict(seed=13, backend="procs", d_high=64)

    t0 = time.perf_counter()
    r_block = distributed_infomap(
        g, NRANKS, InfomapConfig(overlap=False, **base)
    )
    dt_block = time.perf_counter() - t0

    plane = LivePlane(NRANKS, shared=True)
    try:
        t0 = time.perf_counter()
        r_over = distributed_infomap(
            g, NRANKS, InfomapConfig(overlap=True, **base), live=plane
        )
        dt_over = time.perf_counter() - t0
        snap = LiveSnapshot.from_plane(plane)
    finally:
        plane.close(unlink=True)

    # -- equivalence (asserted on every host) ---------------------------
    identical = bool(
        np.array_equal(
            np.asarray(r_block.membership), np.asarray(r_over.membership)
        )
        and r_block.codelength == r_over.codelength
        and r_block.extras["codelength_history"]
        == r_over.extras["codelength_history"]
    )
    reconciled = True
    for rank, st in enumerate(r_over.extras["comm_snapshot"]):
        reconciled &= snap.field("bytes_sent")[rank] == (
            st["p2p_bytes_sent"] + st["collective_bytes_in"]
        )
        reconciled &= abs(
            snap.field("wait_seconds")[rank]
            - sum(st["wait_seconds_by_phase"].values())
        ) < 1e-9
        reconciled &= abs(
            snap.field("overlap_seconds")[rank]
            - sum(st["overlap_seconds_by_phase"].values())
        ) < 1e-9

    # -- ratios ---------------------------------------------------------
    wait_block, _ = _wait_overlap_totals(r_block)
    wait_over, hidden_over = _wait_overlap_totals(r_over)
    rounds = int(r_block.extras["stage1_rounds"])
    thr_block = rounds / dt_block
    thr_over = rounds / dt_over
    wait_ratio = wait_over / wait_block if wait_block > 0 else 1.0
    thr_ratio = thr_over / thr_block if thr_block > 0 else 1.0

    rows = [
        {
            "variant": "blocking",
            "seconds": dt_block,
            "rounds": rounds,
            "rounds_per_sec": thr_block,
            "wait_seconds": wait_block,
        },
        {
            "variant": "overlap",
            "seconds": dt_over,
            "rounds": rounds,
            "rounds_per_sec": thr_over,
            "wait_seconds": wait_over,
            "hidden_seconds": hidden_over,
            "wait_ratio": wait_ratio,
            "throughput_ratio": thr_ratio,
        },
    ]
    text = (
        f"overlap vs blocking, n={N_VERTICES} BA(m={ATTACH}), "
        f"p={NRANKS} procs, cpus={os.cpu_count()}\n"
        f"  wait   {wait_block:.3f}s -> {wait_over:.3f}s "
        f"(ratio {wait_ratio:.3f}, hidden {hidden_over:.3f}s)\n"
        f"  rounds/s {thr_block:.3f} -> {thr_over:.3f} "
        f"(x{thr_ratio:.3f})"
    )
    return {
        "text": text,
        "rows": rows,
        "identical": identical,
        "reconciled": reconciled,
        "multi_core": MULTI_CORE,
    }


@pytest.mark.overlap_guard
def test_overlap_throughput(run_once, bench_report_path):
    out = run_once(overlap_throughput)
    print("\n" + out["text"])
    assert out["identical"], "overlap mode changed the clustering"
    assert out["reconciled"], "live plane and ledger disagree"

    # The report (with its honest host stamp) lands before any skip, so
    # single-core hosts still contribute a data point.
    path = bench_report_path("BENCH_overlap.json")
    result_to_json(out, path)
    data = json.loads(path.read_text())
    assert data["host"]["cpus"] >= 1
    assert "load_avg" in data["host"]
    assert data["rows"][1]["wait_ratio"] == out["rows"][1]["wait_ratio"]

    if not out["multi_core"]:
        pytest.skip(
            "single-core host: ranks time-share one CPU, no latency to "
            "hide — ratio assertions need >= 2 cpus"
        )
    over = out["rows"][1]
    assert over["wait_ratio"] <= 1.0 - MIN_WAIT_HIDDEN, over
    assert over["throughput_ratio"] >= MIN_THROUGHPUT, over
