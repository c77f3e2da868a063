"""Sequential Infomap — Algorithm 1 of the paper, the quality reference.

Greedy two-level map-equation minimization with hierarchical merging:

1. visit probabilities from relative degrees (Phase 1),
2. repeated sweeps moving each vertex into the neighbouring module with
   the most negative ΔL until no vertex moves (Phase 2),
3. merge modules into a coarser graph and repeat until one level's
   improvement drops below θ (Phase 3).

Every distributed-quality claim in the paper (Figs 4–5, Table 2) is a
comparison against this algorithm, so it is implemented straight off
the pseudocode with no shortcuts.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..graph.graph import Graph, gather_rows
from ..obs.live import NULL_LIVE
from ..obs.trace import NULL_BUFFER
from .config import InfomapConfig
from .flow import FlowNetwork
from .kernels import aggregate_block_flows, module_record, score_block, sweep
from .mapequation import ModuleStats, RunPlan
from .moves import MIN_IMPROVEMENT, best_move, score_vertex
from .result import ClusteringResult, LevelRecord

__all__ = ["SequentialInfomap", "cluster_level", "sequential_infomap"]

#: Cap on full-graph move sweeps per level (Algorithm 1's inner loop).
MAX_SWEEPS = 30


def _sweep_scalar(
    network: FlowNetwork,
    membership: np.ndarray,
    stats: ModuleStats,
    order: np.ndarray,
    config: InfomapConfig,
) -> tuple[int, int, int]:
    """Legacy one-vertex-at-a-time sweep (``batch_size=0``).

    Returns ``(moves, exact re-scores, bulk commits)``; every visit is a
    re-score, and none is a bulk commit.
    """
    moved = 0
    for u in order:
        prop = best_move(network, membership, stats, int(u))
        if prop.is_move:
            stats.apply_move(
                old=prop.current, new=prop.target,
                p_u=prop.p_u, x_u=prop.x_u,
                d_old=prop.d_old, d_new=prop.d_new,
            )
            membership[u] = prop.target
            moved += 1
    return moved, int(order.size), 0


class _StatsStore:
    """:class:`ModuleStats` as the batched ladder's module store
    (protocol: :mod:`repro.core.kernels` docs), with no min-label rule.
    """

    zero_slack = 0.0
    bmods: frozenset = frozenset()
    bmask = None

    def __init__(
        self, network: FlowNetwork, membership: np.ndarray,
        stats: ModuleStats,
    ) -> None:
        self.network = network
        self.membership = membership
        self.stats = stats
        self.indptr = network.graph.indptr
        self.indices = network.graph.indices
        self.id_space = network.graph.num_vertices
        # Live module records, dropped when a commit writes the module.
        self.records: dict[int, tuple] = {}

    def score(self, block: np.ndarray):
        g = self.network.graph
        stats = self.stats
        agg = aggregate_block_flows(
            g.indptr, g.indices, g.weights, block, self.membership,
            self.network.node_flow, id_space=self.id_space,
        )
        return agg, score_block(
            agg,
            q_seg=stats.exit[agg.seg_mods], p_seg=stats.sum_p[agg.seg_mods],
            q_old=stats.exit[agg.current], p_old=stats.sum_p[agg.current],
            sum_exit=stats.sum_exit,
        )

    def sum_exit(self) -> float:
        return float(self.stats.sum_exit)

    def record(self, m: int):
        rec = self.records.get(m)
        if rec is None:
            rec = self.records[m] = module_record(
                self.stats.exit.item(m), self.stats.sum_p.item(m)
            )
        return rec

    def exact(self, u: int, cur: int, walk=None, i: int = 0):
        if walk is None:
            prop = best_move(self.network, self.membership, self.stats, u)
            if not prop.is_move:
                return None
            return prop.target, prop.p_u, prop.x_u, prop.d_old, prop.d_new
        mods, flows, p_u, x_u, d_old = walk.segment(i, False)
        tgt, delta, d_new = score_vertex(
            self.stats, cur, mods, flows, p_u=p_u, x_u=x_u, d_old=d_old
        )
        if delta < -MIN_IMPROVEMENT:
            return tgt, p_u, x_u, d_old, d_new
        return None

    def commit(self, u: int, cur: int, tgt: int, p_u: float, x_u: float,
               d_old: float, d_new: float) -> bool:
        self.stats.apply_move(old=cur, new=tgt, p_u=p_u, x_u=x_u,
                              d_old=d_old, d_new=d_new)
        self.membership[u] = tgt
        self.records.pop(cur, None)
        self.records.pop(tgt, None)
        return True

    def plan_extras(
        self, pos: np.ndarray, entries: np.ndarray, old: np.ndarray,
        new: np.ndarray,
    ) -> dict:
        stats = self.stats
        return {
            "n_old": stats.members[old], "q_new": stats.exit[new],
            "p_new": stats.sum_p[new], "n_new": stats.members[new],
            "clamp": True,
        }

    def commit_run(self, plan: RunPlan, lo: int, hi: int) -> int:
        self.stats.apply_plan(plan, lo, hi)
        self.membership[plan.vertices[lo:hi]] = plan.mods[lo:hi, 1]
        records = self.records
        if records:
            for m in plan.old[lo:hi] + plan.new[lo:hi]:
                if m in records:
                    del records[m]
        return hi - lo


def _sweep_batched(
    network: FlowNetwork,
    membership: np.ndarray,
    stats: ModuleStats,
    order: np.ndarray,
    config: InfomapConfig,
) -> tuple[int, int, int]:
    """The batched ladder over the live stats: the scalar sweep's
    moves.  Returns ``(moves, score_vertex + best_move calls, bulk
    commits)``."""
    return sweep(
        _StatsStore(network, membership, stats), order, config.batch_size
    )


def cluster_level(
    network: FlowNetwork,
    config: InfomapConfig,
    rng: np.random.Generator,
    *,
    node_term: float | None = None,
    initial_stats: ModuleStats | None = None,
    trace: Any = None,
    seed_membership: np.ndarray | None = None,
    active: np.ndarray | None = None,
    work: "dict[str, int] | None" = None,
    live: Any = None,
) -> tuple[np.ndarray, ModuleStats, int, int]:
    """One level of greedy clustering: Lines 7–23 of Algorithm 1.

    Starts from singleton modules and sweeps vertices in randomized
    order until a sweep commits no move (or :data:`MAX_SWEEPS`).

    Args:
        node_term: level-0 ``−Σ plogp(p_α)`` to thread through coarse
            levels (see :meth:`ModuleStats.from_membership`).
        initial_stats: optional precomputed singleton-membership stats
            for *network* (they are **mutated in place**); callers that
            already built them to read the pre-clustering codelength
            pass them here to skip a duplicate O(n+m) recomputation.
            When *seed_membership* is given, the stats must have been
            built from that seed, not from singletons.
        trace: optional :class:`~repro.obs.trace.RankTraceBuffer`; each
            sweep lands as a span with its committed-move count, and
            its exact re-scores and bulk commits (``exact_rescores``,
            ``bulk_commits``) as span args.
        seed_membership: optional warm-start membership (module ids in
            the ``0..n-1`` id space) replacing the singleton init.
        active: optional ``bool[n]`` sweep mask — only active vertices
            are visited.  After each sweep the set contracts to the
            movers, their stored neighbours, and every member of a
            module a mover left or joined (the same rule as the
            distributed ``prune_inactive`` path), so warm re-solves
            sweep O(changed region), not O(n).  ``None`` keeps the
            visit-everything behaviour — the cold path is untouched.
        work: optional counter dict; ``vertices_swept`` and
            ``edges_scanned`` are accumulated across sweeps (the
            O(changed region) evidence the incremental benchmark
            asserts on), and ``exact_rescores`` counts the exact
            per-vertex scorer calls (``score_vertex`` plus
            ``best_move``), which each sweep span also carries.
        live: optional :class:`~repro.obs.live.LiveMetrics` row; each
            sweep publishes the round gauge and bumps the ``sweeps``,
            ``moves`` and ``edges_scanned`` live counters.  Like
            tracing, live publishing never alters a decision.

    Returns:
        ``(membership, stats, sweeps, total_moves)`` where membership
        uses module ids in ``0..n-1`` (not compacted).
    """
    buf = trace if trace is not None else NULL_BUFFER
    lv = live if live is not None else NULL_LIVE
    graph = network.graph
    n = graph.num_vertices
    if seed_membership is not None:
        membership = np.asarray(seed_membership, dtype=np.int64).copy()
    else:
        membership = np.arange(n, dtype=np.int64)
    stats = (
        initial_stats
        if initial_stats is not None
        else ModuleStats.from_membership(
            network, membership, node_term=node_term
        )
    )

    order = np.arange(n)
    total_moves = 0
    sweeps = 0
    for sweeps in range(1, MAX_SWEEPS + 1):
        if config.shuffle:
            rng.shuffle(order)
        sweep_order = order if active is None else order[active[order]]
        if work is not None or lv.enabled:
            scanned = int(
                np.sum(
                    graph.indptr[sweep_order + 1] - graph.indptr[sweep_order]
                )
            )
            if work is not None:
                work["vertices_swept"] = (
                    work.get("vertices_swept", 0) + int(sweep_order.size)
                )
                work["edges_scanned"] = (
                    work.get("edges_scanned", 0) + scanned
                )
            if lv.enabled:
                lv.update(round=sweeps)
                lv.add("edges_scanned", scanned)
        prev = membership.copy() if active is not None else None
        buf.set_context(round=sweeps)
        span_args: dict[str, int] = {}
        with buf.span("sweep", args=span_args):
            sweep = _sweep_batched if config.batch_size > 0 else _sweep_scalar
            moved, rescores, bulk = sweep(
                network, membership, stats, sweep_order, config
            )
            span_args["exact_rescores"] = rescores
            span_args["bulk_commits"] = bulk
        if work is not None:
            work["exact_rescores"] = work.get("exact_rescores", 0) + rescores
        if buf.enabled:
            buf.instant("sweep_done", args={"moves": int(moved)})
            buf.counter("moves", int(moved))
        if lv.enabled:
            lv.add_many(sweeps=1, moves=moved)
        total_moves += moved
        if moved == 0:
            break
        if active is not None:
            changed = np.flatnonzero(membership != prev)
            changed_mods = np.union1d(prev[changed], membership[changed])
            active[:] = False
            active[changed] = True
            entries, _ = gather_rows(graph.indptr, changed)
            active[graph.indices[entries]] = True
            active |= np.isin(membership, changed_mods)
    buf.set_context(round=None)
    return membership, stats, sweeps, total_moves


def sequential_infomap(
    graph: Graph,
    config: InfomapConfig | None = None,
    *,
    tracer: Any = None,
    live: Any = None,
    seed_membership: np.ndarray | None = None,
    active: np.ndarray | None = None,
    work: "dict[str, int] | None" = None,
) -> ClusteringResult:
    """Run Algorithm 1 on *graph* and return the flat partition.

    The outer loop coarsens until the codelength improvement of a level
    falls below ``config.threshold`` or ``config.max_levels`` is hit.
    With a tracer (argument or ``config.tracer``) the run additionally
    records a rank-0 timeline: one span per level and sweep plus
    per-level codelength/module-count samples.  Tracing never alters a
    decision, so traced and untraced runs are bitwise-identical.

    With a live plane (argument or ``config.live``; see
    :class:`~repro.obs.live.LivePlane`) the run additionally publishes
    rank-0 progress — level/round gauges, sweep/move/edge counters and
    the running codelength — so ``repro-infomap status``/``watch`` can
    observe the solve mid-flight.  Like tracing, live publishing is
    write-only and never alters a decision.

    Warm starts (:mod:`repro.core.incremental`) pass
    ``seed_membership`` — an ``int64[n]`` membership in the vertex-id
    module space — and optionally ``active``, a ``bool[n]`` dirty
    frontier; both apply to level 0 only (coarse levels always run the
    normal full sweep on their much smaller graphs).  A seeded level 0
    ends the solve only when nothing was active; otherwise the coarse
    levels run whatever level 0 committed, since the delta changed
    their edge weights.  ``work`` accumulates per-sweep visit counters
    (see :func:`cluster_level`).  Omitting all three leaves the cold
    path byte-identical to before.
    """
    cfg = config or InfomapConfig()
    tr = tracer if tracer is not None else cfg.tracer
    buf = tr.for_rank(0) if tr is not None and tr.enabled else NULL_BUFFER
    plane = live if live is not None else cfg.live
    lv = plane.for_rank(0) if plane is not None else NULL_LIVE
    rng = np.random.default_rng(cfg.seed)
    network = FlowNetwork.from_graph(graph)

    n0 = graph.num_vertices
    global_membership = np.arange(n0, dtype=np.int64)
    levels: list[LevelRecord] = []
    converged = False
    # The node codebook always encodes original-vertex visits, so this
    # term is computed once and threaded through every coarse level.
    from .mapequation import plogp

    node_term0 = -float(plogp(network.node_flow).sum())
    final_codelength = 0.0
    # Read before level 0 contracts the active set in place.
    hand_over = seed_membership is not None and (
        active is None or bool(active.any())
    )

    for level in range(cfg.max_levels):
        n = network.graph.num_vertices
        seed = seed_membership if level == 0 else None
        level_active = active if level == 0 else None
        # One initial-stats build per level: read the pre-clustering
        # codelength from it, then hand it to cluster_level (which
        # mutates it) instead of recomputing the same O(n+m) pass.
        initial_stats = ModuleStats.from_membership(
            network,
            np.asarray(seed, dtype=np.int64)
            if seed is not None
            else np.arange(n, dtype=np.int64),
            node_term=node_term0,
        )
        l_before = initial_stats.codelength()
        if level == 0:
            final_codelength = l_before

        buf.set_context(level=level)
        if lv.enabled:
            lv.update(level=level)
        with buf.span("cluster_level"):
            membership, stats, sweeps, moves = cluster_level(
                network, cfg, rng, node_term=node_term0,
                initial_stats=initial_stats, trace=buf,
                seed_membership=seed, active=level_active, work=work,
                live=lv,
            )
        l_after = stats.codelength()

        coarse_network, community_of = network.coarsen(membership)
        levels.append(
            LevelRecord(
                level=level,
                num_vertices=n,
                num_modules=coarse_network.graph.num_vertices,
                codelength_before=l_before,
                codelength_after=l_after,
                sweeps=sweeps,
                moves=moves,
            )
        )
        global_membership = community_of[global_membership]
        final_codelength = l_after
        if buf.enabled:
            buf.instant(
                "level_done",
                args={
                    "num_vertices": int(n),
                    "num_modules": int(coarse_network.graph.num_vertices),
                    "codelength": float(l_after),
                    "moves": int(moves),
                },
            )
            buf.counter("codelength", float(l_after))
        if lv.enabled:
            lv.update(codelength=float(l_after))

        settled = moves == 0 or l_before - l_after < cfg.threshold
        if settled and not (level == 0 and hand_over):
            converged = True
            break
        if coarse_network.graph.num_vertices == n:
            converged = True
            break
        network = coarse_network
    buf.set_context(level=None)

    return ClusteringResult(
        membership=global_membership,
        codelength=final_codelength,
        levels=levels,
        method="sequential",
        converged=converged,
    )


class SequentialInfomap:
    """Object-style API around :func:`sequential_infomap`.

    Example::

        from repro import SequentialInfomap, ring_of_cliques

        lg = ring_of_cliques(8, 6)
        result = SequentialInfomap().run(lg.graph)
        print(result.summary())
    """

    def __init__(
        self,
        config: InfomapConfig | None = None,
        *,
        tracer: Any = None,
    ) -> None:
        self.config = config or InfomapConfig()
        self.tracer = tracer

    def run(self, graph: Graph) -> ClusteringResult:
        return sequential_infomap(graph, self.config, tracer=self.tracer)
