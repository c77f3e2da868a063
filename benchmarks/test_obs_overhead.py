"""Tracing overhead and fidelity guard for the run-trace subsystem.

Two claims are guarded:

* **overhead** — a fully-traced greedy sweep stays within 10% of the
  untraced wall clock.  The disabled path costs one attribute check per
  would-be event, and the enabled path appends one small dict per
  event; per-sweep (not per-vertex) events keep both negligible.
* **fidelity** — a traced distributed run on the dblp stand-in is
  bitwise-identical to the untraced run (membership and codelength
  trajectory), its meter events reconcile exactly with the
  communication ledger, and the Perfetto export is valid with one
  track per rank.

Results land in ``BENCH_obs.json`` at the repo root.
"""

import json
import time

import numpy as np
import pytest

from repro.bench.export import result_to_json
from repro.core import InfomapConfig, distributed_infomap, sequential_infomap
from repro.graph import barabasi_albert, load_dataset
from repro.obs import (
    Tracer,
    build_manifest,
    build_run_artifact,
    phase_byte_totals,
    to_chrome_trace,
)

N_VERTICES = 20_000
ATTACH = 5
MAX_OVERHEAD = 1.10
PAIRS = 5


def obs_overhead() -> dict:
    g = barabasi_albert(N_VERTICES, ATTACH, seed=42)
    cfg = InfomapConfig(seed=13, max_levels=2)

    # Measure interleaved traced/untraced pairs and take the *median*
    # of the per-pair ratios: back-to-back runs see the same machine
    # state, so slow drift (thermals, noisy neighbours) cancels inside
    # each pair, and the median discards the odd pair that straddled a
    # load spike — which a plain best-of-N on each side does not.
    ratios: list[float] = []
    r_plain = r_traced = None
    tracers: list[Tracer] = []
    for _ in range(PAIRS):
        t0 = time.perf_counter()
        r_plain = sequential_infomap(g, cfg)
        dt_plain = time.perf_counter() - t0

        tracer = Tracer()
        tracers.append(tracer)
        t0 = time.perf_counter()
        r_traced = sequential_infomap(g, cfg, tracer=tracer)
        dt_traced = time.perf_counter() - t0
        ratios.append(dt_traced / dt_plain)

    overhead = float(np.median(ratios))
    rows = [
        {
            "variant": "untraced",
            "codelength": r_plain.codelength,
        },
        {
            "variant": "traced",
            "codelength": r_traced.codelength,
            "overhead": overhead,
            "ratios": ratios,
            "events": tracers[-1].num_events(),
        },
    ]
    text = (
        f"tracing overhead, n={N_VERTICES} BA(m={ATTACH}), "
        f"median of {PAIRS} interleaved pairs\n"
        f"  ratios {['%.3f' % r for r in ratios]}\n"
        f"  overhead {overhead:.3f}x "
        f"({tracers[-1].num_events()} events)"
    )
    return {
        "text": text,
        "rows": rows,
        "identical": bool(
            np.array_equal(r_plain.membership, r_traced.membership)
            and r_plain.codelength == r_traced.codelength
        ),
    }


@pytest.mark.obs_guard
def test_obs_overhead(run_once, bench_report_path):
    out = run_once(obs_overhead)
    print("\n" + out["text"])
    assert out["identical"], "tracing changed the clustering outcome"
    traced_row = out["rows"][1]
    assert traced_row["overhead"] <= MAX_OVERHEAD, traced_row

    result_to_json(out, bench_report_path("BENCH_obs.json"))


@pytest.mark.obs_guard
def test_traced_distributed_dblp_artifact(tmp_path):
    """Traced dblp stand-in run: bitwise equal, reconciled, exportable."""
    data = load_dataset("dblp", scale=0.5)
    cfg = InfomapConfig(seed=5)
    nranks = 4

    plain = distributed_infomap(data.graph, nranks, cfg)
    tracer = Tracer()
    traced = distributed_infomap(data.graph, nranks, cfg, tracer=tracer)

    # Bitwise-identical clustering and codelength trajectory.
    assert np.array_equal(plain.membership, traced.membership)
    assert (
        plain.extras["codelength_history"]
        == traced.extras["codelength_history"]
    )

    # Exact ledger reconciliation of the meter events.
    totals = phase_byte_totals(tracer.merged_events())
    assert (
        sum(slot["bytes"] for slot in totals.values())
        == traced.extras["total_comm_bytes"]
    )

    # Valid Perfetto export with one track per rank.
    artifact = build_run_artifact(
        tracer, traced,
        manifest=build_manifest(
            config=cfg, nranks=nranks, graph=data.graph,
            method="distributed",
        ),
    )
    path = tmp_path / "dblp.perfetto.json"
    path.write_text(json.dumps(to_chrome_trace(artifact)))
    trace = json.loads(path.read_text())
    tids = {
        e["tid"] for e in trace["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert tids == set(range(nranks))
    assert artifact["convergence"], "no round samples recorded"
