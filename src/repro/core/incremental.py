"""Incremental Infomap: delta ingestion + warm-start re-solve.

A dynamic graph arrives as a base snapshot plus a stream of edge
batches.  Re-clustering each snapshot from scratch costs O(graph) per
batch; this module makes each batch cost O(changed region) instead:

1. **Patch** — :func:`repro.graph.apply_delta` splices the batch into
   the CSR (touched rows only; untouched entry bytes are preserved).
2. **Dirty frontier** — every vertex within ``config.warm_dirty_hops``
   hops of a delta endpoint (:func:`repro.graph.dirty_region`).  One hop
   covers every vertex whose map-equation neighbourhood term the delta
   can change.
3. **Warm seed** — the cached converged membership as it is, relabeled
   into vertex-id space (each module takes its minimum member's id;
   :func:`warm_seed_membership`).  A delete can cut a cached module in
   two; each module that lost an internal edge is split into its
   connected components on the patched graph, each piece labeled by
   its own minimum member id (:func:`split_cut_modules`).
4. **Warm re-solve** — the solvers start from the seeded partition with
   the active sweep set initialized to the dirty frontier plus the
   members of split modules; converged regions are only revisited
   when a neighbour or module changes, so the per-batch edge-scan work
   tracks the delta size, not the graph (the property
   ``benchmarks/test_incremental_speedup.py`` guards with work
   counters).  A non-empty frontier always reaches the coarse levels,
   whose edge weights the delta changed, even when level 0 commits no
   move.  A distributed session keeps one resident SPMD job
   (:class:`repro.simmpi.engine.SpmdJob`) from its first update to
   :meth:`IncrementalSession.close`: each rank keeps a graph replica
   and its own view, applies each batch to both in place
   (:func:`repro.partition.repair.repair_local_view`), and re-solves.

Quality is anchored by a full-re-solve oracle: the incremental
codelength must match a cold solve of the post-delta graph to 1e-9
relative (``tests/test_incremental.py``).
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from ..graph.delta import GraphDelta, apply_delta, dirty_region
from ..graph.graph import Graph, gather_rows
from ..obs.live import NULL_LIVE
from ..simmpi.engine import SpmdJob
from .config import InfomapConfig
from .distributed import _warm_solve, distributed_infomap
from .flow import FlowNetwork
from .result import ClusteringResult
from .sequential import sequential_infomap

__all__ = ["IncrementalSession", "split_cut_modules", "warm_seed_membership"]


def warm_seed_membership(cached: np.ndarray) -> np.ndarray:
    """Seed membership for a warm start, in vertex-id label space.

    Solver module labels must live in ``[0, n)``.  Each cached module
    keeps its members and is relabeled to its minimum member id, so
    any piece later split off a module can take its own minimum member
    id without colliding with another module's label.
    """
    cached = np.asarray(cached, dtype=np.int64)
    n = cached.size
    if n == 0:
        return cached.copy()
    rep = np.full(int(cached.max()) + 1, n, dtype=np.int64)
    np.minimum.at(rep, cached, np.arange(n, dtype=np.int64))
    return rep[cached]


def split_cut_modules(
    graph: Graph, seed: np.ndarray, delta: GraphDelta
) -> tuple[np.ndarray, np.ndarray, int]:
    """Split the seeded modules a delta's deletes disconnected.

    A module that lost an internal edge may fall apart on the patched
    *graph*.  Min-label propagation over that module's intra-module
    edges finds its pieces; each piece is labeled by its minimum
    member id, which no other module can hold under
    :func:`warm_seed_membership`'s labeling.

    Returns ``(seed, split, num_split)``: the seed with every cut
    module split (a copy; *seed* is not modified), a ``bool[n]`` mask
    of the members of the modules that split, and their number.
    """
    seed = np.asarray(seed, dtype=np.int64)
    n = graph.num_vertices
    if seed.shape != (n,):
        raise ValueError(
            f"seed shape {seed.shape} does not match {n} vertices"
        )
    split = np.zeros(n, dtype=bool)
    dele = delta.op == GraphDelta.DELETE
    u, v = delta.src[dele], delta.dst[dele]
    inside = seed[u] == seed[v]
    if not inside.any():
        return seed.copy(), split, 0
    members = np.flatnonzero(np.isin(seed, seed[u[inside]]))
    entries, owner = gather_rows(graph.indptr, members)
    dst = graph.indices[entries]
    keep = seed[members[owner]] == seed[dst]
    # Positions in the ascending *members*: the minimum position of a
    # piece is its minimum member id.
    src = owner[keep]
    dst = np.searchsorted(members, dst[keep])
    label = np.arange(members.size, dtype=np.int64)
    while True:
        nxt = label.copy()
        np.minimum.at(nxt, src, label[dst])
        nxt = nxt[nxt]  # a label is a same-piece member: jump through it
        if np.array_equal(nxt, label):
            break
        label = nxt
    out = seed.copy()
    out[members] = members[label]
    # A module split iff its members now carry more than one label.
    cut = np.unique(seed[members][out[members] != seed[members]])
    split[members[np.isin(seed[members], cut)]] = True
    return out, split, int(cut.size)


class IncrementalSession:
    """A resident clustering that absorbs :class:`GraphDelta` batches.

    Example::

        with IncrementalSession(graph, config, nranks=4) as session:
            session.solve()                      # cold baseline
            for batch in stream:
                result = session.update(batch)   # O(changed region)

    Args:
        graph: the base snapshot.
        config: solver knobs; ``warm_dirty_hops`` sets the warm
            start's dirty region.
        nranks: 1 (default) runs the sequential solver; more ranks run
            the distributed solver.  Its first update launches one
            resident rank job that serves every later update: the
            driver sends each rank the delta, the warm seed and the
            active mask, and each rank splices the view it keeps.
            :meth:`close` (or leaving a ``with`` block, or dropping the
            session) stops the ranks; a failed update ends the job, and
            the next update launches a fresh one from :attr:`graph`.
        backend: SPMD backend override for distributed sessions.
        tracer: optional :class:`~repro.obs.trace.Tracer`; each batch
            emits a ``delta`` instant (rank 0) that
            :func:`repro.obs.export.delta_rows` and the CLI ``inspect``
            deltas table render.
        live: optional :class:`~repro.obs.live.LivePlane`; it is passed
            through to every solve and each absorbed batch additionally
            bumps the rank-0 ``batches`` live counter and re-publishes
            the codelength gauge, so ``repro-infomap status`` shows
            batch progress between solves.  Distributed sessions on the
            procs backend need a ``shared=True`` plane.

    Attributes:
        graph: the current (post-delta) snapshot.
        result: the current :class:`ClusteringResult`.
        events: one dict per absorbed batch — delta counts, dirty-region
            size, number of split modules, ``launched`` (this update
            started the rank job), repair stats (summed over ranks) and
            seconds (the slowest rank's view build or splice), solver
            work counters, phase seconds.

    Vertex growth is not incremental: a delta referencing ids beyond
    the current graph raises — grow via a new session / cold solve.
    """

    #: Watchdog budget of one distributed update, in seconds; exceeded
    #: ⇒ :class:`~repro.simmpi.errors.DeadlockError` and the job ends.
    timeout = 600.0

    def __init__(
        self,
        graph: Graph,
        config: InfomapConfig | None = None,
        *,
        nranks: int = 1,
        backend: str | None = None,
        tracer: Any = None,
        live: Any = None,
    ) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        self.graph = graph
        self.config = config or InfomapConfig()
        self.nranks = nranks
        self.backend = backend
        self.tracer = tracer
        self.live = live
        self.result: ClusteringResult | None = None
        self.events: list[dict[str, Any]] = []
        self.num_updates = 0
        self._job: SpmdJob | None = None

    @classmethod
    def from_membership(
        cls,
        graph: Graph,
        membership: np.ndarray,
        config: InfomapConfig | None = None,
        **kwargs: Any,
    ) -> "IncrementalSession":
        """Resume a session from a previously emitted partition.

        The CLI ``update`` subcommand's entry point: instead of a cold
        :meth:`solve`, seed the cache with a membership loaded from disk
        (its codelength is recomputed from the map equation).
        """
        from .mapequation import ModuleStats

        memb = np.asarray(membership, dtype=np.int64)
        if memb.shape != (graph.num_vertices,):
            raise ValueError(
                f"membership must have shape ({graph.num_vertices},), "
                f"got {memb.shape}"
            )
        session = cls(graph, config, **kwargs)
        stats = ModuleStats.from_membership(
            FlowNetwork.from_graph(graph), memb
        )
        session.result = ClusteringResult(
            membership=memb,
            codelength=stats.codelength(),
            levels=[],
            method="cached",
            converged=True,
        )
        return session

    # -- cold baseline -----------------------------------------------------
    def solve(self) -> ClusteringResult:
        """Cold solve of the current snapshot (the warm-start cache)."""
        if self.nranks == 1:
            self.result = sequential_infomap(
                self.graph, self.config, tracer=self.tracer, live=self.live
            )
        else:
            self.result = distributed_infomap(
                self.graph,
                self.nranks,
                self.config,
                tracer=self.tracer,
                live=self.live,
                backend=self.backend,
            )
        return self.result

    # -- incremental updates ----------------------------------------------
    def update(self, delta: GraphDelta) -> ClusteringResult:
        """Absorb one delta batch and warm re-solve the dirty region."""
        if self.result is None:
            raise RuntimeError(
                "call solve() before update(): warm starts re-seed from "
                "the cached partition"
            )
        cfg = self.config
        n = self.graph.num_vertices
        if len(delta) and int(delta.dst.max()) >= n:
            raise ValueError(
                "delta references vertices beyond the current graph; "
                "vertex growth requires a cold solve"
            )

        t0 = time.perf_counter()
        patched = apply_delta(self.graph, delta)
        dirty = dirty_region(patched, delta, hops=cfg.warm_dirty_hops)
        seed, split, num_split = split_cut_modules(
            patched, warm_seed_membership(self.result.membership), delta
        )
        active = dirty | split
        t_apply = time.perf_counter() - t0

        repair_stats: dict[str, Any] | None = None
        work: dict[str, int] = {}
        launched = False
        t1 = time.perf_counter()
        if self.nranks == 1:
            t_repair = 0.0
            res = sequential_infomap(
                patched,
                cfg,
                tracer=self.tracer,
                live=self.live,
                seed_membership=seed,
                active=active,
                work=work,
            )
        else:
            launched = self._job is None
            if launched:
                self._job = SpmdJob(
                    self.nranks,
                    backend=self.backend or cfg.backend,
                    live=self.live if self.live is not None else cfg.live,
                )
            try:
                # A new job's ranks inherit the patched graph and build
                # their views; a running job's ranks patch their own.
                res = _warm_solve(
                    self.nranks, cfg, seed, active,
                    graph=patched if launched else None,
                    delta=None if launched else delta,
                    job=self._job, timeout=self.timeout, tracer=self.tracer,
                )
            except BaseException:
                # A failed call has already ended the job; the next
                # update relaunches from the unchanged self.graph.
                self.close()
                raise
            t_repair = res.extras["splice_seconds_max"]
            repair_stats = res.extras["splice"]
            work = {
                "stage1_work_max": res.extras["stage1_work_max"],
                "total_work_max": res.extras["total_work_max"],
            }
        t_solve = time.perf_counter() - t1 - t_repair

        self.graph = patched
        self.result = res
        self.num_updates += 1
        event = {
            "batch": self.num_updates,
            "edges": len(delta),
            **delta.counts(),
            "dirty_vertices": int(dirty.sum()),
            "dirty_fraction": float(dirty.mean()) if n else 0.0,
            "split_modules": num_split,
            "launched": launched,
            "codelength": float(res.codelength),
            "converged": bool(res.converged),
            "apply_seconds": t_apply,
            "repair_seconds": t_repair,
            "solve_seconds": t_solve,
            "work": dict(work),
            "repair": repair_stats,
        }
        self.events.append(event)
        res.extras["delta_event"] = event
        plane = self.live if self.live is not None else cfg.live
        lv = plane.for_rank(0) if plane is not None else NULL_LIVE
        if lv.enabled:
            lv.add("batches", 1)
            lv.update(codelength=float(res.codelength))
        tr = self.tracer
        if tr is not None and getattr(tr, "enabled", False):
            tr.for_rank(0).instant(
                "delta",
                args={
                    k: v
                    for k, v in event.items()
                    if k not in ("work", "repair")
                },
            )
        return res

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Stop the session's rank job, if one runs (idempotent).

        The ranks are joined and every shared segment is unlinked.  A
        later :meth:`update` launches a fresh job.  A session dropped
        without ``close()`` is cleaned up when it is garbage-collected.
        """
        job, self._job = self._job, None
        if job is not None:
            job.close()

    def __enter__(self) -> "IncrementalSession":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
