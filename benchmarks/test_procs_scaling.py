"""Process-backend scaling guard: procs vs threads on a multi-core host.

Guards the tentpole of the multiprocess SPMD backend: the full
distributed Infomap pipeline at 4 ranks on a generated scale-free
graph, run once per backend.  The thread backend serializes rank
compute on the GIL, so on a host with enough cores the process backend
must win by a real margin; on a single-core host (CI containers) the
speedup guard auto-skips — there is no parallelism to buy — while the
equivalence assertions still run.

Asserted invariants:

* threads and procs produce **bitwise-identical memberships** and
  identical codelength trajectories (the backends differ only in
  transport, never in decisions);
* identical logical (``payload_nbytes``) ledger totals and message
  counts per phase per rank;
* on a multi-core host: median procs speedup >= 1.5x over threads.

Results land in ``BENCH_procs.json`` at the repo root (including the
host's CPU count, so a recorded sub-1.5x speedup on a 1-CPU box is
legible rather than alarming);
``repro.bench.export.merge_bench_reports`` folds every
``BENCH_*.json`` into one trajectory report.

``REPRO_BENCH_SMOKE=1`` shrinks the graph and repetition count so the
whole guard finishes in seconds — the profile ``scripts/check.sh``
uses; equivalence is asserted either way.
"""

import os
import statistics
import time

import numpy as np
import pytest

from repro.bench.export import result_to_json
from repro.core import InfomapConfig, distributed_infomap
from repro.graph import barabasi_albert

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

N_VERTICES = 2_000 if _SMOKE else 20_000
ATTACH = 5
NRANKS = 4
N_REPS = 1 if _SMOKE else 3
MIN_SPEEDUP = 1.5
SEED = 11


def _run_backend(graph, backend):
    cfg = InfomapConfig(seed=SEED)
    t0 = time.perf_counter()
    result = distributed_infomap(graph, NRANKS, cfg, backend=backend)
    return time.perf_counter() - t0, result


def procs_scaling() -> dict:
    graph = barabasi_albert(N_VERTICES, ATTACH, seed=SEED)

    for backend in ("threads", "procs"):  # warm both code paths
        _run_backend(graph, backend)

    times: dict = {"threads": [], "procs": []}
    results: dict = {}
    for _rep in range(N_REPS):
        for backend in ("threads", "procs"):
            elapsed, result = _run_backend(graph, backend)
            times[backend].append(elapsed)
            results[backend] = result

    rt, rp = results["threads"], results["procs"]
    ledger_equal = all(
        st["logical_bytes_by_phase"] == sp["logical_bytes_by_phase"]
        and st["messages_by_phase"] == sp["messages_by_phase"]
        for st, sp in zip(rt.extras["comm_snapshot"],
                          rp.extras["comm_snapshot"])
    )

    rows = []
    for backend in ("threads", "procs"):
        med = statistics.median(times[backend])
        r = results[backend]
        rows.append({
            "backend": backend,
            "median_s": med,
            "all_s": sorted(times[backend]),
            "codelength": float(r.codelength),
            "num_modules": int(r.membership.max()) + 1,
            "converged": bool(r.converged),
        })
    speedup = rows[0]["median_s"] / rows[1]["median_s"]
    rows[1]["speedup"] = speedup

    cpus = os.cpu_count() or 1
    lines = [
        f"procs-vs-threads backend, n={N_VERTICES} BA(m={ATTACH}), "
        f"{NRANKS} ranks, {cpus} cpus, median of {N_REPS}"
        + (" [smoke]" if _SMOKE else "")
    ]
    for r in rows:
        lines.append(
            f"  {r['backend']:>7}  {r['median_s']:>7.2f} s"
            + (f"  (speedup {r['speedup']:.2f}x)" if "speedup" in r
               else "")
        )
    return {
        "text": "\n".join(lines),
        "rows": rows,
        "membership_equal": bool(
            np.array_equal(rt.membership, rp.membership)
        ),
        "trajectory_equal": (
            rt.extras["codelength_history"]
            == rp.extras["codelength_history"]
        ),
        "ledger_equal": ledger_equal,
        "n": N_VERTICES,
        "nranks": NRANKS,
        "cpus": cpus,
        "smoke": _SMOKE,
    }


@pytest.mark.procs_guard
def test_procs_scaling(run_once, bench_report_path):
    out = run_once(procs_scaling)
    print("\n" + out["text"])
    assert out["membership_equal"], (
        "procs backend produced a different membership than threads"
    )
    assert out["trajectory_equal"], (
        "codelength trajectories diverged across backends"
    )
    assert out["ledger_equal"], (
        "per-phase logical ledger totals diverged across backends"
    )

    result_to_json(out, bench_report_path("BENCH_procs.json"))

    if out["cpus"] < NRANKS:
        pytest.skip(
            f"host has {out['cpus']} CPUs < {NRANKS} ranks: no "
            "parallelism for the process backend to exploit; "
            "equivalence asserted, speedup guard skipped"
        )
    speedup = out["rows"][1]["speedup"]
    assert speedup >= MIN_SPEEDUP, (
        f"procs/threads speedup {speedup:.2f} < {MIN_SPEEDUP} on a "
        f"{out['cpus']}-CPU host"
    )
