"""In-place repair of 1D local views after a :class:`GraphDelta`.

The warm-start path (:mod:`repro.core.incremental`) keeps each rank's
:class:`~repro.partition.distgraph.LocalGraph` view alive across delta
batches, inside the rank (the session's resident SPMD job).
Rebuilding a view from scratch costs a global lexsort plus boundary
bookkeeping over every ghost — O(graph) work that would dwarf an
O(changed region) re-solve.  :func:`repair_local_view` instead splices
the delta into one rank's view, from that rank's own data plus the
patched graph; :func:`repair_local_views` does it for every rank:

* **Row splice** — only the CSR rows of delta endpoints change; kept
  entries are shifted, deleted entries dropped, inserted entries placed
  at their (row, global-dst) sorted position, matching the fresh-build
  entry order exactly.
* **Ghost set repair** — a rank gains a ghost when an inserted edge
  references a remote vertex it never saw, and loses one when the last
  referencing entry is deleted.  The ghost segment stays sorted by
  global id (the fresh-build invariant), so neighbour indices are
  remapped through an old→new local map.
* **Boundary repair** — each owned endpoint's ghosting-rank set is
  recomputed from its new adjacency and merged into
  ``boundary_local`` / ``boundary_ranks`` at its sorted position.
* **Wholesale flow refresh** — a delta changes the graph's total weight
  ``W``, and every stored flow is normalized by ``2W``, so ``flow`` /
  ``exit0`` / ``nbr_flow`` are re-gathered from the new
  :class:`~repro.core.flow.FlowNetwork`.  The gathers are elementwise
  fancy-indexing, bitwise identical to a fresh build.

The contract tests assert repaired views equal
:func:`~repro.partition.distgraph.local_views_1d` on the patched graph
field-for-field, bitwise.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.flow import FlowNetwork
from ..graph.delta import GraphDelta
from ..graph.graph import Graph, gather_rows
from .distgraph import LocalGraph, sorted_unique
from .oned import OneDPartition

__all__ = ["repair_local_view", "repair_local_views", "sum_repair_stats"]


def _recompute_neighbor_ranks(lg: LocalGraph, rank: int) -> None:
    """``neighbor_ranks`` from the ghost owners and boundary rank lists."""
    nr = np.flatnonzero(np.bincount(
        np.concatenate([lg.ghost_owner, *lg.boundary_ranks]),
        minlength=lg.nranks,
    ))
    lg.neighbor_ranks = nr[nr != rank]


def _local_keys(lg: LocalGraph, indptr: np.ndarray, dst: np.ndarray,
                n: int) -> np.ndarray:
    """``row * n + global dst`` per entry: ascending, since each row's
    entries are sorted by global destination (the fresh-build order)."""
    rows = np.repeat(
        np.arange(lg.num_owned, dtype=np.int64), np.diff(indptr)
    )
    return rows * n + dst


def _splice_rank(
    lg: LocalGraph,
    dels: np.ndarray,
    inss: np.ndarray,
    owner: np.ndarray,
    num_vertices: int,
) -> dict[str, int]:
    """Structurally splice one rank's CSR + ghost segment in place.

    *dels* / *inss* are ``int64[k, 2]`` (src_global, dst_global)
    directed entries whose source this rank owns.  Flows are not
    touched here — the caller refreshes them wholesale afterwards.
    """
    n = num_vertices
    rank = lg.rank
    owned_g = lg.global_of[: lg.num_owned]
    ghost_old = lg.global_of[lg.ghost_slice()]
    nbr_global = lg.global_of[lg.nbr]

    def owned_index(gids: np.ndarray) -> np.ndarray:
        s = np.searchsorted(owned_g, gids)
        bad = (s >= lg.num_owned) | (owned_g[np.minimum(s, lg.num_owned - 1)]
                                     != gids)
        if bad.any():
            raise AssertionError(
                f"vertex {int(gids[bad][0])} is not owned by rank {rank}"
            )
        return s

    # --- delete positions -----------------------------------------------
    keys = _local_keys(lg, lg.indptr, nbr_global, n)
    del_key = owned_index(dels[:, 0]) * n + dels[:, 1]
    del_pos = np.searchsorted(keys, del_key)
    found = del_pos < keys.size
    found[found] = keys[del_pos[found]] == del_key[found]
    if not found.all():
        u, v = dels[~found][0].tolist()
        raise AssertionError(
            f"delete: entry ({u}, {v}) missing from rank {rank}"
        )
    keep = np.ones(nbr_global.size, dtype=bool)
    keep[del_pos] = False
    kept_g = nbr_global[keep]
    removed_rows = np.bincount(
        np.searchsorted(lg.indptr, del_pos, side="right"),
        minlength=lg.indptr.size,
    )[: lg.indptr.size]
    kept_indptr = lg.indptr - np.cumsum(removed_rows)

    # --- insert positions in kept space ---------------------------------
    # Sorted by (row, dst) so np.insert's pre-insert-array position
    # semantics place equal-position runs in ascending dst order.
    ins_s = owned_index(inss[:, 0])
    order = np.lexsort((inss[:, 1], ins_s))
    ins_s, ins_dst = ins_s[order], inss[order, 1]
    kept_keys = _local_keys(lg, kept_indptr, kept_g, n)
    at = np.searchsorted(kept_keys, ins_s * n + ins_dst)
    new_g_dst = np.insert(kept_g, at, ins_dst) if ins_s.size else kept_g
    new_indptr = kept_indptr + np.concatenate(
        ([0], np.cumsum(np.bincount(ins_s, minlength=lg.num_owned)))
    )

    # --- ghost segment repair -------------------------------------------
    add = sorted_unique(inss[owner[inss[:, 1]] != rank, 1])
    drop = sorted_unique(dels[owner[dels[:, 1]] != rank, 1])
    drop = drop[
        ~np.isin(drop, add) & ~np.isin(drop, new_g_dst)
        & np.isin(drop, ghost_old)
    ]
    added = add[~np.isin(add, ghost_old)]
    ghost_new = np.sort(
        np.concatenate([ghost_old[~np.isin(ghost_old, drop)], added])
    ).astype(np.int64)

    new_global_of = np.concatenate([owned_g, ghost_new]).astype(np.int64)
    local_of = np.full(n, -1, dtype=np.int64)
    local_of[new_global_of] = np.arange(new_global_of.size, dtype=np.int64)
    new_nbr = local_of[new_g_dst]
    if new_nbr.size and new_nbr.min() < 0:
        raise AssertionError("spliced entry references an unknown vertex")

    lg.num_ghosts = int(ghost_new.size)
    lg.global_of = new_global_of
    lg.indptr = new_indptr.astype(np.int64)
    lg.nbr = new_nbr
    lg.ghost_owner = owner[ghost_new].astype(np.int64)
    return {
        "entries_deleted": int(del_pos.size),
        "entries_inserted": int(ins_s.size),
        "ghosts_added": int(added.size),
        "ghosts_removed": int(drop.size),
    }


def _repair_boundary(
    lg: LocalGraph, graph: Graph, owner: np.ndarray, endpoints: np.ndarray
) -> int:
    """Recompute the ghosting ranks of this rank's *endpoints* (owned,
    ascending) and merge them into the boundary bookkeeping, keeping
    ``boundary_local`` ascending and each rank list sorted (the
    fresh-build / repartitioner invariant).  Returns how many endpoints
    changed their entry."""
    rank = lg.rank
    s = np.searchsorted(lg.global_of[: lg.num_owned], endpoints)
    entries, which = gather_rows(graph.indptr, endpoints)
    nbr_rank = owner[graph.indices[entries]].astype(np.int64)
    remote = nbr_rank != rank
    pairs = sorted_unique(which[remote] * lg.nranks + nbr_rank[remote])
    ep, granks = pairs // lg.nranks, pairs % lg.nranks
    bounds = np.searchsorted(ep, np.arange(endpoints.size + 1))

    bl = lg.boundary_local
    br = lg.boundary_ranks
    j = np.searchsorted(bl, s)
    present = j < bl.size
    present[present] = bl[j[present]] == s[present]
    updates = 0
    fresh_s: list[int] = []
    fresh_r: list[np.ndarray] = []
    for i in range(endpoints.size):
        new = granks[bounds[i]:bounds[i + 1]]
        if present[i]:
            old = br[int(j[i])]
            updates += old.size != new.size or bool((old != new).any())
        else:
            updates += bool(new.size)
        if new.size:
            fresh_s.append(int(s[i]))
            fresh_r.append(new)
    kept = np.flatnonzero(~np.isin(bl, s))
    merged = np.concatenate([bl[kept], np.asarray(fresh_s, dtype=np.int64)])
    order = np.argsort(merged, kind="stable")
    ranks = [br[k] for k in kept.tolist()] + fresh_r
    lg.boundary_local = merged[order]
    lg.boundary_ranks = [ranks[k] for k in order.tolist()]
    return updates


def _rank_edits(
    delta: GraphDelta, owner: np.ndarray, rank: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """This rank's directed entry edits: ``(dels, inss, endpoints)``.

    (u, v) lives on owner(u) and (v, u) on owner(v); a self-loop stores
    a single entry.  *endpoints* are this rank's owned structural
    endpoints, ascending.
    """
    structural = delta.op != GraphDelta.REWEIGHT
    src = delta.src[structural].astype(np.int64)
    dst = delta.dst[structural].astype(np.int64)
    dele = delta.op[structural] == GraphDelta.DELETE
    both = np.concatenate([np.stack([src, dst], 1), np.stack([dst, src], 1)])
    is_del = np.concatenate([dele, dele])
    mine = owner[both[:, 0]] == rank
    mine[src.size:] &= src != dst
    dels, inss = both[mine & is_del], both[mine & ~is_del]
    endpoints = sorted_unique(both[mine, 0])
    return dels, inss, endpoints


def repair_local_view(
    lg: LocalGraph,
    graph: Graph,
    delta: GraphDelta,
    part: OneDPartition,
    *,
    network: FlowNetwork | None = None,
) -> dict[str, Any]:
    """Patch one rank's 1D view in place to match the post-delta *graph*.

    Reads only the view, the delta, the ownership map and the patched
    graph, so each rank of a resident job splices its own view.

    Args:
        lg: the view built (or previously repaired) for the pre-delta
            graph with :func:`local_views_1d` on *part*.  Must be
            delegate-free (``num_hubs == 0``); warm starts partition 1D
            precisely because the delegate planner is an O(graph) pass.
        graph: the graph *after* ``apply_delta`` — same vertex count as
            the view (incremental vertex growth requires a cold solve).
        delta: the applied batch.
        part: the ownership map the view was carved with.
        network: optionally the precomputed ``FlowNetwork`` of *graph*;
            built here if absent.

    Returns:
        A stats dict (entries spliced, ghosts added/removed, boundary
        updates, ``ranks_touched`` — ``[rank]`` or ``[]``); see
        :func:`sum_repair_stats`.

    Postcondition: every field of the view is bitwise equal to a fresh
    ``local_views_1d(FlowNetwork.from_graph(graph), part, rank=rank)``.
    """
    owner = part.owner
    n = graph.num_vertices
    if owner.size != n:
        raise ValueError(
            f"partition covers {owner.size} vertices, graph has {n} "
            "(grow the graph with a cold solve, then go incremental)"
        )
    if lg.num_hubs:
        raise ValueError("repair_local_view requires a delegate-free 1D view")
    if len(delta) and int(delta.dst.max()) >= n:
        raise ValueError("delta references vertices beyond the graph")

    rank = lg.rank
    dels, inss, endpoints = _rank_edits(delta, owner, rank)
    stats: dict[str, Any] = {
        "entries_deleted": 0,
        "entries_inserted": 0,
        "ghosts_added": 0,
        "ghosts_removed": 0,
        "boundary_updates": 0,
        "ranks_touched": [],
    }
    if endpoints.size:
        stats.update(_splice_rank(lg, dels, inss, owner, n))
        stats["boundary_updates"] = _repair_boundary(
            lg, graph, owner, endpoints
        )
        stats["ranks_touched"] = [rank]
        _recompute_neighbor_ranks(lg, rank)
        lg.invalidate_boundary_groups()

    # Wholesale flow refresh: the 2W normalization shifted every stored
    # flow.  Elementwise fancy indexing — bitwise identical to the
    # fresh build's gathers.
    net = network if network is not None else FlowNetwork.from_graph(graph)
    entries, _ = gather_rows(graph.indptr, lg.global_of[: lg.num_owned])
    lg.nbr_flow = net.graph.weights[entries]
    lg.flow = net.node_flow[lg.global_of]
    lg.exit0 = net.node_exit_flow()[lg.global_of]
    return stats


def sum_repair_stats(per_rank: "list[dict[str, Any]]") -> dict[str, Any]:
    """Job-wide repair stats: counters summed, ``ranks_touched`` joined."""
    out: dict[str, Any] = {}
    for st in per_rank:
        for k, v in st.items():
            out[k] = out.get(k, [] if k == "ranks_touched" else 0) + v
    out["ranks_touched"] = sorted(out.get("ranks_touched", []))
    return out


def repair_local_views(
    views: list[LocalGraph],
    graph: Graph,
    delta: GraphDelta,
    part: OneDPartition,
    *,
    network: FlowNetwork | None = None,
) -> dict[str, Any]:
    """:func:`repair_local_view` on every rank's view; returns the
    summed stats.  Postcondition: every view is bitwise equal to a
    fresh ``local_views_1d(FlowNetwork.from_graph(graph), part)``."""
    for lg in views:
        if lg.num_hubs:
            raise ValueError(
                "repair_local_views requires delegate-free 1D views"
            )
    net = network if network is not None else FlowNetwork.from_graph(graph)
    return sum_repair_stats(
        [repair_local_view(lg, graph, delta, part, network=net)
         for lg in views]
    )
