"""Out-of-core ingestion guard: streaming parse, external build, RSS.

Three stages, one report (``BENCH_ingest.json``):

* **parse** — the chunked numpy parsers (edge-list and METIS) must
  beat the pre-PR per-line Python loops by >= ``MIN_PARSE_SPEEDUP``
  on a million-edge file, and the resulting CSR must be
  *byte-identical* (the legacy readers are kept precisely to serve as
  this oracle);
* **build** — a generated multi-million-edge stream goes through the
  two-pass external CSR builder at >= ``MIN_BUILD_EDGES_PER_SEC``,
  never holding all edges in memory;
* **cluster** — the store is clustered with ``backend="procs"`` via
  the partition-then-load path.  Two per-rank RSS guards (growth =
  ``VmHWM`` minus RSS sampled at rank start; Linux resets a child's
  high-water mark to its RSS at fork):

  - *ingest-stage* (asserted): peak sampled right after ``load_shard``
    must stay within ``RSS_BUDGET_FACTOR`` x that rank's shard CSR
    bytes plus a small scale-independent allowance.  That is the
    out-of-core property this PR controls: loading touches only the
    shard, never the whole graph.
  - *whole-run* (reported, not asserted): the final peak additionally
    includes solver workspace — module tables, ghost/delegate
    structures, frame buffers — which on an unstructured random
    graph is dominated by the ghost set (~every vertex is a ghost of
    every rank under 1D partitioning) and therefore scales with the
    *graph*, not the shard.  Bounding that is a solver property far
    outside this layer; the number is kept in the report so
    regressions are visible in ``BENCH_ingest.json`` diffs.

``REPRO_BENCH_SMOKE=1`` shrinks the edge counts so ``scripts/check.sh
--run-bench`` finishes quickly; every invariant is asserted either
way.
"""

import os
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench.export import result_to_json
from repro.core import InfomapConfig, external_infomap
from repro.graph import (
    build_csr_store,
    read_edgelist,
    read_edgelist_legacy,
    read_metis,
    read_metis_legacy,
)
from repro.graph.io import EdgeChunk, iter_edgelist_chunks, iter_metis_chunks
from repro.graph.io import (  # the pre-PR per-line loops
    _parse_edgelist_perline,
    _parse_metis_perline,
)
from repro.partition import plan_shards

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

PARSE_EDGES = 120_000 if _SMOKE else 1_000_000
BUILD_EDGES = 200_000 if _SMOKE else 10_000_000
BUILD_VERTICES = BUILD_EDGES // 10
NRANKS = 4
SEED = 17
#: Timing repetitions per parser; the per-format ratio uses the min of
#: each side, the standard noise-robust estimator.
PARSE_REPS = 1 if _SMOKE else 3

#: Floor for ``min(legacy) / min(chunked)``.  Measured on the 1-core
#: CI VM at 10**6 edges: edge-list 4.2-5.2x, METIS 3.9-5.5x across
#: runs — the spread is CPU-frequency noise, which hits the
#: interpreter-bound legacy loop harder than the memory-bound numpy
#: parsers.  Typical runs reach ~5x; the assertion floor sits below
#: the worst observed min-ratio so the guard only fires on a real
#: regression (e.g. a parser falling back to a per-line path).  Smoke
#: files are small enough that fixed per-call overhead dominates,
#: hence the lower floor.
MIN_PARSE_SPEEDUP = 2.2 if _SMOKE else 3.5
MIN_BUILD_EDGES_PER_SEC = 30_000 if _SMOKE else 150_000
RSS_BUDGET_FACTOR = 2.0
#: Scale-independent per-rank allowance: interpreter + numpy + frame
#: rings exist regardless of shard size, so the factor alone would be
#: unmeetable for tiny smoke shards.  64 MiB is far below one full-run
#: shard (~80 MiB of CSR), so the scaling property is still guarded.
RSS_FIXED_ALLOWANCE = 64 << 20


def _edge_stream(num_edges, num_vertices, chunk=1 << 19):
    """Deterministic random edge chunks, never materialized whole."""
    for start in range(0, num_edges, chunk):
        m = min(chunk, num_edges - start)
        rng = np.random.default_rng(SEED + start)
        src = rng.integers(0, num_vertices, size=m)
        dst = rng.integers(0, num_vertices, size=m)
        w = rng.uniform(0.5, 1.5, size=m)
        yield EdgeChunk(src, dst, w)


def _write_parse_edgelist(path):
    with open(path, "w", encoding="utf-8") as fh:
        for c in _edge_stream(PARSE_EDGES, PARSE_EDGES // 10):
            np.savetxt(fh, np.column_stack([c.src, c.dst, c.weights]),
                       fmt="%d %d %.6f")


def _write_parse_metis(path):
    """A METIS fmt=0 file with ~PARSE_EDGES undirected edges."""
    rng = np.random.default_rng(SEED)
    n = PARSE_EDGES // 10
    src = rng.integers(0, n, size=PARSE_EDGES)
    dst = rng.integers(0, n, size=PARSE_EDGES)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    key = np.minimum(src, dst) * n + np.maximum(src, dst)
    _, idx = np.unique(key, return_index=True)
    src, dst = src[idx], dst[idx]
    allsrc = np.concatenate([src, dst])
    alldst = np.concatenate([dst, src])
    order = np.argsort(allsrc, kind="stable")
    alldst = alldst[order]
    indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(allsrc, minlength=n))]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {src.size}\n")
        for u in range(n):
            fh.write(" ".join(
                str(v + 1) for v in alldst[indptr[u]:indptr[u + 1]]
            ) + "\n")
    return int(src.size)


def _csr_identical(a, b):
    assert a.indptr.tobytes() == b.indptr.tobytes()
    assert a.indices.tobytes() == b.indices.tobytes()
    assert a.weights.tobytes() == b.weights.tobytes()


def _time_min(fn, reps):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _stage_parse(tmp):
    el = Path(tmp) / "edges.txt"
    _write_parse_edgelist(el)
    t_el_legacy = _time_min(
        lambda: _parse_edgelist_perline(el, comments="#", weighted=None),
        PARSE_REPS,
    )
    t_el_chunked = _time_min(
        lambda: list(iter_edgelist_chunks(el)), PARSE_REPS
    )
    _csr_identical(read_edgelist_legacy(el), read_edgelist(el))
    el.unlink()

    mt = Path(tmp) / "graph.metis"
    metis_m = _write_parse_metis(mt)
    t_mt_legacy = _time_min(lambda: _parse_metis_perline(mt), PARSE_REPS)
    t_mt_chunked = _time_min(
        lambda: list(iter_metis_chunks(mt)), PARSE_REPS
    )
    _csr_identical(read_metis_legacy(mt), read_metis(mt))
    mt.unlink()

    return {
        "stage": "parse",
        "formats": {
            "edgelist": {
                "edges": PARSE_EDGES,
                "legacy_seconds": t_el_legacy,
                "chunked_seconds": t_el_chunked,
                "speedup": t_el_legacy / t_el_chunked,
            },
            "metis": {
                "edges": metis_m,
                "legacy_seconds": t_mt_legacy,
                "chunked_seconds": t_mt_chunked,
                "speedup": t_mt_legacy / t_mt_chunked,
            },
        },
    }


def _stage_build(store):
    t0 = time.perf_counter()
    header = build_csr_store(
        _edge_stream(BUILD_EDGES, BUILD_VERTICES), store
    )
    dt = time.perf_counter() - t0
    return {
        "stage": "build",
        "edges_in": BUILD_EDGES,
        "num_vertices": int(header["num_vertices"]),
        "num_edges": int(header["num_edges"]),
        "nnz": int(header["nnz"]),
        "seconds": dt,
        "edges_per_sec": BUILD_EDGES / dt,
    }


def _stage_cluster(store):
    plan = plan_shards(store, NRANKS)
    cfg = InfomapConfig(
        seed=SEED, backend="procs",
        # Bound the solve hard: the guard is about ingest memory, not
        # quality, and the ingest peak is sampled before any of this
        # runs.  Two move rounds at one level still exercise the full
        # swap/frame machinery on every rank.
        threshold=1e-3, round_threshold_rel=1e-3,
        max_levels=1, max_rounds=2,
    )
    t0 = time.perf_counter()
    # 4 ranks time-slice one CI core, so wall clock is ~4x the useful
    # work; the engine watchdog's default 600 s fires on the full-scale
    # graph even though every rank is runnable.
    result = external_infomap(store, NRANKS, cfg, timeout=3600.0)
    dt = time.perf_counter() - t0
    peaks = result.extras["peak_rss_per_rank"]
    ingest = result.extras["ingest_per_rank"]
    ranks = []
    for r in range(NRANKS):
        shard_bytes = plan.shard_csr_nbytes(r)
        before = int(ingest[r]["rss_before_bytes"])
        load_growth = int(ingest[r]["peak_rss_after_load_bytes"]) - before
        run_growth = int(peaks[r]) - before
        load_budget = RSS_BUDGET_FACTOR * shard_bytes + RSS_FIXED_ALLOWANCE
        ranks.append({
            "rank": r,
            "shard_csr_bytes": shard_bytes,
            "rss_before_bytes": before,
            "peak_rss_after_load_bytes":
                int(ingest[r]["peak_rss_after_load_bytes"]),
            "peak_rss_bytes": int(peaks[r]),
            "load_growth_bytes": load_growth,
            "load_budget_bytes": int(load_budget),
            "load_budget_ratio": load_growth / load_budget,
            "run_growth_bytes": run_growth,
        })
    return {
        "stage": "cluster",
        "nranks": NRANKS,
        "seconds": dt,
        "codelength": float(result.codelength),
        "num_modules": int(result.num_modules),
        "ingest_seconds_max": result.extras["ingest_seconds_max"],
        "ranks": ranks,
        "max_load_budget_ratio":
            max(x["load_budget_ratio"] for x in ranks),
        "max_run_growth_bytes":
            max(x["run_growth_bytes"] for x in ranks),
    }


def ingest_scale() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        parse_row = _stage_parse(tmp)
        store = Path(tmp) / "store"
        build_row = _stage_build(store)
        cluster_row = _stage_cluster(store)
    rows = [parse_row, build_row, cluster_row]
    lines = [
        f"out-of-core ingestion, {BUILD_EDGES:,} edges, {NRANKS} ranks"
        + (" [smoke]" if _SMOKE else ""),
    ]
    for fmt, row in parse_row["formats"].items():
        lines.append(
            f"  parse   {fmt:8s} {row['speedup']:5.1f}x vs per-line "
            f"({row['legacy_seconds']:.2f}s -> "
            f"{row['chunked_seconds']:.2f}s, {row['edges']:,} edges)"
        )
    lines += [
        f"  build   {build_row['edges_per_sec']:,.0f} edges/s "
        f"({build_row['seconds']:.2f}s, nnz={build_row['nnz']:,})",
        f"  cluster L={cluster_row['codelength']:.4f} "
        f"{cluster_row['num_modules']} modules in "
        f"{cluster_row['seconds']:.1f}s; worst rank at "
        f"{cluster_row['max_load_budget_ratio']:.2f} of its ingest RSS "
        f"budget (whole-run peak growth "
        f"{cluster_row['max_run_growth_bytes'] / 2**20:,.0f} MiB, "
        f"solver-dominated, reported only)",
    ]
    return {
        "text": "\n".join(lines),
        "rows": rows,
        "smoke": _SMOKE,
    }


@pytest.mark.ingest_guard
def test_ingest_scale(run_once, bench_report_path):
    out = run_once(ingest_scale)
    print("\n" + out["text"])
    parse_row, build_row, cluster_row = out["rows"]

    for fmt, row in parse_row["formats"].items():
        assert row["speedup"] >= MIN_PARSE_SPEEDUP, (
            f"chunked {fmt} parse only {row['speedup']:.1f}x the "
            f"per-line loop, need >= {MIN_PARSE_SPEEDUP}x"
        )
    assert build_row["edges_per_sec"] >= MIN_BUILD_EDGES_PER_SEC, (
        f"external build ran at {build_row['edges_per_sec']:,.0f} "
        f"edges/s, need >= {MIN_BUILD_EDGES_PER_SEC:,}"
    )
    assert cluster_row["num_modules"] > 1
    for row in cluster_row["ranks"]:
        assert row["load_growth_bytes"] <= row["load_budget_bytes"], (
            f"rank {row['rank']} ingest grew "
            f"{row['load_growth_bytes']:,} bytes, budget "
            f"{row['load_budget_bytes']:,} "
            f"(shard {row['shard_csr_bytes']:,} bytes)"
        )

    result_to_json(out, bench_report_path("BENCH_ingest.json"))
