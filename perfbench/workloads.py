"""The four workloads: set-up, one measured operation, output checks and
the per-layer numbers each operation yields.

Every call into the program goes through a public entry point and is
wrapped in a benchmark span named ``<layer>.<call>``.  Layer counters
come from what the program already returns: ``ClusteringResult.extras``
and ``IncrementalSession.events``.  Nothing here reaches into the
program's internals.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.config import InfomapConfig
from repro.core.distributed import distributed_infomap, external_infomap
from repro.core.flow import FlowNetwork
from repro.core.incremental import IncrementalSession
from repro.core.mapequation import ModuleStats
from repro.core.sequential import sequential_infomap
from repro.core.timing import (
    PHASE_BROADCAST_DELEGATES,
    PHASE_FIND_BEST,
    PHASE_MEASUREMENT,
    PHASE_OTHER,
    PHASE_SWAP_BOUNDARY,
)
from repro.graph.delta import read_delta_file
from repro.graph.extcsr import edgelist_to_store, open_csr_store
from repro.graph.io import read_edgelist
from repro.metrics.nmi import nmi
from repro.partition.delegates import delegate_partition
from repro.partition.distgraph import build_local_graphs

import inputs

CONFIG = InfomapConfig()
NRANKS = 2
BACKEND = "procs"
#: An operation slower than this counts as failed (timed out); the
#: distributed entry points also get it as their rank watchdog timeout.
OP_TIMEOUT_S = 120.0
#: Largest allowed gap between a reported codelength and its recompute.
CODELENGTH_TOL = 1e-9

_PHASE_METRICS = (
    ("core.find_best_s", PHASE_FIND_BEST),
    ("core.delegates_s", PHASE_BROADCAST_DELEGATES),
    ("core.swap_s", PHASE_SWAP_BOUNDARY),
    ("core.other_s", PHASE_OTHER),
    ("core.measurement_s", PHASE_MEASUREMENT),
)


class CheckFailed(Exception):
    """An output failed its correctness check, or a call timed out."""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


@dataclass
class Op:
    """One measured operation (a solve, or a stream of updates)."""

    seconds: float
    codelength: float
    nmi: float
    layers: dict[str, float] = field(default_factory=dict)


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any rank process it has reaped.

    ``RUSAGE_CHILDREN`` covers the procs backend's ranks, so a
    multi-process run cannot report less memory than its largest rank.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ranks = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, ranks) / 1024.0


def timed(spans, name: str, fn, *args, **kwargs) -> tuple[Any, float]:
    """Call *fn* after a full collection, inside span *name*.

    Returns ``(result, seconds)``; a call slower than ``OP_TIMEOUT_S``
    counts as failed.
    """
    gc.collect()
    with spans.span(name):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
    if dt > OP_TIMEOUT_S:
        raise CheckFailed(f"{name} took {dt:.1f} s > {OP_TIMEOUT_S} s")
    return out, dt


def rank_layers(results: list) -> dict[str, float]:
    """Per-layer counters of distributed results, summed over *results*.

    Seconds are the max-rank ``phase_seconds_max`` figures; edge scans,
    bytes and messages are totals over ranks; waits and codec time are
    the busiest rank's.
    """
    out: dict[str, float] = {key: 0.0 for key, _ in _PHASE_METRICS}
    fb_s = fb_w = scans = moves = 0.0
    totals = {k: 0.0 for k in (
        "core.rounds", "core.levels", "simmpi.bytes", "simmpi.bytes_max_rank",
        "simmpi.messages", "simmpi.collectives", "simmpi.wait_s",
        "simmpi.overlap_s", "simmpi.codec_s",
    )}
    skew = ghosts = 0.0
    for res in results:
        ex = res.extras
        for key, phase in _PHASE_METRICS:
            out[key] += ex["phase_seconds_max"].get(phase, 0.0)
        for t in ex["per_rank_timer"]:
            fb_s += t["seconds"].get(PHASE_FIND_BEST, 0.0)
            fb_w += t["work"].get(PHASE_FIND_BEST, 0.0)
            scans += sum(t["work"].values())
        moves += sum(lv.moves for lv in res.levels)
        snap = ex["comm_snapshot"]
        totals["core.rounds"] += ex["stage1_rounds"]
        totals["core.levels"] += len(res.levels)
        totals["simmpi.bytes"] += ex["total_comm_bytes"]
        totals["simmpi.bytes_max_rank"] += ex["max_rank_comm_bytes"]
        totals["simmpi.messages"] += sum(
            s["p2p_messages_sent"] + s["collective_calls"] for s in snap
        )
        totals["simmpi.collectives"] += sum(s["collective_calls"] for s in snap)
        totals["simmpi.wait_s"] += max(
            sum(s["wait_seconds_by_phase"].values()) for s in snap
        )
        totals["simmpi.overlap_s"] += max(
            sum(s["overlap_seconds_by_phase"].values()) for s in snap
        )
        totals["simmpi.codec_s"] += max(
            sum(s["encode_seconds_by_phase"].values())
            + sum(s["decode_seconds_by_phase"].values())
            for s in snap
        )
        entries = ex["entries_per_rank"]
        skew = max(skew, max(entries) / (sum(entries) / len(entries)))
        ghosts = max(ghosts, max(ex["ghosts_per_rank"]))
    out.update(totals)
    out["core.edges_scanned"] = scans
    out["core.ns_per_edge"] = 1e9 * fb_s / fb_w if fb_w else 0.0
    out["core.moves_per_kscan"] = 1000.0 * moves / scans if scans else 0.0
    out["partition.entry_skew"] = skew
    out["partition.ghosts_max"] = ghosts
    return out


class Workload:
    """Base: a named input, a timed set-up and a measured operation."""

    name = ""
    #: Set-ups before each measured operation; ``setup_s`` is the median
    #: over the run, so its samples span the whole run like the ops do.
    setups_per_op = 1
    #: Per-layer metric that is the median set-up time, if any.
    setup_metric: "str | None" = None
    #: Whether the set-up and the operation run on procs rank processes
    #: (their host time is then the slowest CPU's; see ``probe.py``).
    #: A workload with no ranks is pinned to one CPU, so that the
    #: host-speed probes time the CPU its work runs on.
    ranks_in_setup = False
    ranks_in_op = True

    def __init__(self, spans, tally: Tally) -> None:
        self.spans = spans
        self.tally = tally
        self._net: "tuple[Any, FlowNetwork] | None" = None

    def inputs(self, workdir: Path, seed: int, tiny: bool) -> inputs.Input:
        return inputs.friendster(workdir, seed, tiny=tiny)

    def setup(self, inp: inputs.Input) -> tuple[Any, float]:
        raise NotImplementedError

    def run(self, inp: inputs.Input, state: Any, *, traced: bool,
            tracer: Any) -> Op:
        raise NotImplementedError

    def finish_layers(self, inp: inputs.Input, state: Any,
                      layers: dict[str, float]) -> None:
        """Add layer numbers timed once per traced run, outside the ops."""

    # -- checks ----------------------------------------------------------
    def check(self, res, graph, inp: inputs.Input) -> None:
        """Membership covers every vertex, and the reported codelength
        equals the map equation recomputed from scratch."""
        with self.spans.span("check.codelength"):
            memb = np.asarray(res.membership)
            if memb.shape != (inp.num_vertices,):
                raise CheckFailed(
                    f"membership shape {memb.shape}, "
                    f"expected ({inp.num_vertices},)"
                )
            if memb.min() < 0:
                raise CheckFailed("a vertex has no module")
            if self._net is None or self._net[0] is not graph:
                self._net = (graph, FlowNetwork.from_graph(graph))
            ref = ModuleStats.from_membership(self._net[1], memb).codelength()
            if not abs(ref - res.codelength) <= CODELENGTH_TOL:
                raise CheckFailed(
                    f"codelength {res.codelength!r} != recomputed {ref!r}"
                )

    def nmi(self, res, inp: inputs.Input) -> float:
        with self.spans.span("metrics.nmi"):
            return float(nmi(inp.labels, res.membership))

    def read(self, inp: inputs.Input) -> tuple[Any, float]:
        self.tally.attempted += 1
        g, dt = timed(self.spans, "graph.read_edgelist", read_edgelist,
                      inp.edges)
        if (g.num_vertices, g.num_edges) != (inp.num_vertices, inp.num_edges):
            raise CheckFailed(
                f"read n={g.num_vertices} m={g.num_edges}, wrote "
                f"n={inp.num_vertices} m={inp.num_edges}"
            )
        return g, dt


class SeqFriendster(Workload):
    name = "seq-friendster"
    setups_per_op = 5
    setup_metric = "graph.read_s"
    ranks_in_op = False

    def setup(self, inp):
        return self.read(inp)

    def run(self, inp, g, *, traced, tracer):
        # Every op counts edge scans (one vectorised sum per sweep), so
        # obs.trace_overhead compares like with like.
        work: dict[str, int] = {}
        self.tally.attempted += 1
        res, dt = timed(self.spans, "core.sequential_infomap",
                        sequential_infomap, g, CONFIG, tracer=tracer,
                        work=work)
        self.check(res, g, inp)
        op = Op(dt, res.codelength, self.nmi(res, inp))
        if traced:
            scans = float(work["edges_scanned"])
            op.layers = {
                "core.edges_scanned": scans,
                "core.rounds": float(sum(lv.sweeps for lv in res.levels)),
                "core.levels": float(len(res.levels)),
                "core.moves_per_kscan":
                    1000.0 * sum(lv.moves for lv in res.levels) / scans,
            }
            if tracer is not None:
                # The move sweeps are the sequential find-best phase.
                sweep_s = 1e-6 * sum(
                    ev["dur_us"] for ev in tracer.merged_events()
                    if ev["kind"] == "span" and ev["name"] == "sweep"
                )
                op.layers["core.find_best_s"] = sweep_s
                op.layers["core.other_s"] = dt - sweep_s
                op.layers["core.ns_per_edge"] = 1e9 * sweep_s / scans
        return op


class DistFriendster(Workload):
    name = "dist-friendster-p2"
    setups_per_op = 5
    setup_metric = "graph.read_s"

    def setup(self, inp):
        return self.read(inp)

    def run(self, inp, g, *, traced, tracer):
        self.tally.attempted += 1
        res, dt = timed(self.spans, "core.distributed_infomap",
                        distributed_infomap, g, NRANKS, CONFIG,
                        backend=BACKEND, tracer=tracer, timeout=OP_TIMEOUT_S)
        self.check(res, g, inp)
        op = Op(dt, res.codelength, self.nmi(res, inp))
        if traced:
            op.layers = rank_layers([res])
            op.layers["partition.hubs"] = float(res.extras["num_hubs"])
            op.layers["simmpi.outside_ranks_s"] = (
                dt - res.extras["total_seconds_max"]
            )
        return op

    def finish_layers(self, inp, g, layers):
        """Time the solve's partitioning calls on their own (the solve
        makes them internally, where no span can reach), and take them
        out of the time spent outside the ranks."""
        net = FlowNetwork.from_graph(g)
        d_high = CONFIG.resolve_d_high(NRANKS, g.nnz / g.num_vertices)
        deleg, views = [], []
        for _ in range(5):
            dpart, dt = timed(self.spans, "partition.delegate_partition",
                              delegate_partition, g, NRANKS, d_high=d_high,
                              rebalance=CONFIG.rebalance)
            deleg.append(dt)
            _, dt = timed(self.spans, "partition.build_local_graphs",
                          build_local_graphs, net,
                          entry_rank=dpart.entry_rank, owner=dpart.owner,
                          is_hub=dpart.is_hub, nranks=NRANKS)
            views.append(dt)
        layers["partition.delegate_s"] = statistics.median(deleg)
        layers["partition.views_s"] = statistics.median(views)
        layers["simmpi.outside_ranks_s"] -= (
            layers["partition.delegate_s"] + layers["partition.views_s"]
        )


class IncrFriendster(Workload):
    name = "incr-friendster-p2"
    ranks_in_setup = True

    def __init__(self, spans, tally):
        super().__init__(spans, tally)
        self.read_seconds: list[float] = []

    def inputs(self, workdir, seed, tiny):
        return inputs.friendster(workdir, seed, tiny=tiny, deltas=True)

    def setup(self, inp):
        g, t_read = self.read(inp)
        self.read_seconds.append(t_read)
        session = IncrementalSession(g, CONFIG, nranks=NRANKS, backend=BACKEND)
        self.tally.attempted += 1
        cold, t_solve = timed(self.spans, "core.IncrementalSession.solve",
                              session.solve)
        self.check(cold, g, inp)
        return (g, cold), t_read + t_solve

    def run(self, inp, state, *, traced, tracer):
        """One closed-loop stream: each batch is read and issued only
        after the previous ``update()`` returned.  The session resumes
        from the cold membership, exactly what ``solve()`` left cached."""
        g0, cold = state
        with self.spans.span("core.IncrementalSession.from_membership"):
            session = IncrementalSession.from_membership(
                g0, cold.membership, CONFIG, nranks=NRANKS, backend=BACKEND,
                tracer=tracer,
            )
        total = 0.0
        results, walls = [], []
        for path in inp.deltas:
            with self.spans.span("graph.read_delta_file"):
                delta = read_delta_file(path)
            self.tally.attempted += 1
            res, dt = timed(self.spans, "core.IncrementalSession.update",
                            session.update, delta)
            self.check(res, session.graph, inp)
            total += dt
            results.append(res)
            walls.append(dt)
        op = Op(total, res.codelength, self.nmi(res, inp))
        if traced:
            events = session.events
            op.layers = rank_layers(results)
            cold_work = cold.extras["total_work_max"]
            op.layers.update({
                "graph.delta_apply_s": sum(e["apply_seconds"] for e in events),
                "graph.dirty_fraction": statistics.fmean(
                    e["dirty_fraction"] for e in events
                ),
                "partition.repair_s": sum(e["repair_seconds"] for e in events),
                "partition.hubs": float(cold.extras["num_hubs"]),
                "core.warm_work_ratio": statistics.fmean(
                    r.extras["total_work_max"] / cold_work for r in results
                ),
                "simmpi.outside_ranks_s": sum(
                    w - e["apply_seconds"] - e["repair_seconds"]
                    - r.extras["total_seconds_max"]
                    for w, e, r in zip(walls, events, results)
                ),
            })
        return op

    def finish_layers(self, inp, state, layers):
        layers["graph.read_s"] = statistics.median(self.read_seconds)


class OocCliques(Workload):
    name = "ooc-cliques-p2"
    setup_metric = "graph.store_build_s"

    def inputs(self, workdir, seed, tiny):
        return inputs.cliques(workdir, seed, tiny=tiny)

    def setup(self, inp):
        store = inp.edges.parent / "store"
        shutil.rmtree(store, ignore_errors=True)
        self.tally.attempted += 1
        _, dt = timed(self.spans, "graph.edgelist_to_store",
                      edgelist_to_store, inp.edges, store)
        return store, dt

    def run(self, inp, store, *, traced, tracer):
        self.tally.attempted += 1
        res, dt = timed(self.spans, "core.external_infomap",
                        external_infomap, store, NRANKS, CONFIG,
                        backend=BACKEND, tracer=tracer, timeout=OP_TIMEOUT_S)
        self.check(res, open_csr_store(store), inp)
        rank_peak = max(res.extras["peak_rss_per_rank"])
        if peak_rss_mb() < rank_peak / 2**20:
            raise CheckFailed(
                f"peak_rss_mb {peak_rss_mb():.1f} misses a rank's "
                f"{rank_peak / 2**20:.1f} MB"
            )
        op = Op(dt, res.codelength, self.nmi(res, inp))
        if traced:
            op.layers = rank_layers([res])
            ingest = res.extras["ingest_seconds_max"]
            op.layers["partition.shard_load_s"] = ingest
            op.layers["simmpi.outside_ranks_s"] = (
                dt - res.extras["total_seconds_max"] - ingest
            )
        return op


WORKLOADS = {
    wl.name: wl
    for wl in (SeqFriendster, DistFriendster, IncrFriendster, OocCliques)
}
