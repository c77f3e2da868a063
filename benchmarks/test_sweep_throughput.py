"""Sweep throughput: batched move kernel vs scalar loop.

Not a paper figure — this guards the vectorized batch engine in
``repro.core.kernels``.  Both modes run the same greedy sweeps from the
same singleton start on a 50k-vertex scale-free graph; because the
batched sweep is decision-equivalent by construction, the move counts
and codelengths must match exactly while the batch path clears a 3×
throughput floor.  Each mode runs :data:`REPEATS` times, interleaved,
and the speedup compares median run times, so one slow spell does not
decide it.  Results land in ``BENCH_sweep.json`` at the repo root for
trend tracking.
"""

import time

import numpy as np
import pytest

from repro.bench.export import result_to_json
from repro.core import FlowNetwork, InfomapConfig, ModuleStats
from repro.core.sequential import _sweep_batched, _sweep_scalar
from repro.graph import barabasi_albert

N_VERTICES = 50_000
ATTACH = 5
N_SWEEPS = 3
REPEATS = 3
MIN_SPEEDUP = 3.0


def _run_mode(network, order, sweep_fn, config):
    n = network.graph.num_vertices
    membership = np.arange(n, dtype=np.int64)
    stats = ModuleStats.from_membership(network, membership)
    t0 = time.perf_counter()
    moved = 0
    for _ in range(N_SWEEPS):
        moved += sweep_fn(network, membership, stats, order, config)[0]
    elapsed = time.perf_counter() - t0
    return {
        "elapsed_s": elapsed,
        "vertices_per_s": N_SWEEPS * n / elapsed,
        "moved": moved,
        "codelength": stats.codelength(),
    }


def sweep_throughput() -> dict:
    g = barabasi_albert(N_VERTICES, ATTACH, seed=42)
    network = FlowNetwork.from_graph(g)
    order = np.random.default_rng(7).permutation(g.num_vertices)
    order = order.astype(np.int64)

    modes = [("scalar", 0, _sweep_scalar)] + [
        ("batch", bs, _sweep_batched) for bs in (128, 256, 512)
    ]
    runs: dict[int, list[dict]] = {bs: [] for _, bs, _ in modes}
    for _ in range(REPEATS):
        for _mode, bs, fn in modes:
            runs[bs].append(
                _run_mode(network, order, fn, InfomapConfig(batch_size=bs))
            )
    rows = []
    for mode, bs, _fn in modes:
        # The median run by time; every run is kept for the checks.
        row = sorted(runs[bs], key=lambda r: r["elapsed_s"])[REPEATS // 2]
        rows.append({"mode": mode, "batch_size": bs, **row, "runs": runs[bs]})
    for r in rows[1:]:
        r["speedup"] = rows[0]["elapsed_s"] / r["elapsed_s"]

    lines = [
        f"sweep throughput, n={N_VERTICES} BA(m={ATTACH}), "
        f"{N_SWEEPS} sweeps, median of {REPEATS} runs"
    ]
    for r in rows:
        lines.append(
            f"  {r['mode']:>6} bs={r['batch_size']:<5} "
            f"{r['vertices_per_s']:>12,.0f} v/s  "
            f"({r['elapsed_s']:.2f}s, speedup "
            f"{r.get('speedup', 1.0):.2f}x)"
        )
    return {
        "text": "\n".join(lines),
        "rows": rows,
        "n": N_VERTICES,
        "sweeps": N_SWEEPS,
        "repeats": REPEATS,
    }


@pytest.mark.throughput_guard
def test_sweep_throughput(run_once, bench_report_path):
    out = run_once(sweep_throughput)
    print("\n" + out["text"])
    rows = out["rows"]
    scalar = rows[0]
    batches = rows[1:]
    # Decision equivalence: identical move counts and bitwise-equal
    # codelengths in every run of every mode.
    for r in rows:
        for run in r["runs"]:
            assert run["moved"] == scalar["moved"], r
            assert run["codelength"] == scalar["codelength"], r
    # The perf claim: the default batch size clears the 3x floor.
    default_bs = InfomapConfig().batch_size
    default_row = next(r for r in batches if r["batch_size"] == default_bs)
    assert default_row["speedup"] >= MIN_SPEEDUP, default_row

    result_to_json(out, bench_report_path("BENCH_sweep.json"))
