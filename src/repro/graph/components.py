"""Connected components: hygiene for real-world edge lists.

Real graph dumps arrive with isolated vertices and small disconnected
fragments; Infomap handles them (each fragment clusters independently),
but users routinely want the giant component only, and the dataset
loaders use these helpers to report connectivity.  Implemented with an
iterative frontier BFS over the CSR (no recursion, no per-vertex Python
allocations).
"""

from __future__ import annotations

import numpy as np

from .builder import from_edge_array
from .graph import Graph

__all__ = [
    "connected_components",
    "num_connected_components",
    "largest_component",
    "component_sizes",
    "count_disconnected_modules",
]


def connected_components(graph: Graph) -> np.ndarray:
    """Component label per vertex (labels are 0..k-1 by discovery order)."""
    n = graph.num_vertices
    labels = np.full(n, -1, dtype=np.int64)
    comp = 0
    for seed in range(n):
        if labels[seed] != -1:
            continue
        labels[seed] = comp
        frontier = np.array([seed], dtype=np.int64)
        while frontier.size:
            # Gather all neighbours of the frontier in one shot.
            starts = graph.indptr[frontier]
            ends = graph.indptr[frontier + 1]
            total = int((ends - starts).sum())
            if total == 0:
                break
            nbrs = np.concatenate(
                [graph.indices[s:e] for s, e in zip(starts, ends)]
            )
            fresh = nbrs[labels[nbrs] == -1]
            if fresh.size == 0:
                break
            fresh = np.unique(fresh)
            labels[fresh] = comp
            frontier = fresh
        comp += 1
    return labels


def count_disconnected_modules(graph: Graph, membership: np.ndarray) -> int:
    """Number of modules whose induced subgraph is not connected.

    A module of one vertex is connected.  Uses no solver code, so it
    checks a clustering against independent truth: every module an
    Infomap level merges into one supernode should be one piece.
    """
    membership = np.asarray(membership, dtype=np.int64)
    if membership.shape != (graph.num_vertices,):
        raise ValueError(
            f"membership must have shape ({graph.num_vertices},), "
            f"got {membership.shape}"
        )
    src, dst, _w = graph.edge_array()
    inside = membership[src] == membership[dst]
    intra = from_edge_array(
        src[inside], dst[inside], num_vertices=graph.num_vertices
    )
    labels = connected_components(intra)
    # Each intra-module component lies inside one module, so a module
    # is disconnected iff it holds two or more component labels.
    pieces = np.unique(membership * np.int64(graph.num_vertices) + labels)
    _mods, per_module = np.unique(
        pieces // np.int64(graph.num_vertices), return_counts=True
    )
    return int((per_module > 1).sum())


def num_connected_components(graph: Graph) -> int:
    """Number of connected components (isolated vertices count)."""
    labels = connected_components(graph)
    return int(labels.max()) + 1 if labels.size else 0


def component_sizes(graph: Graph) -> np.ndarray:
    """Component sizes, descending."""
    labels = connected_components(graph)
    if labels.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.bincount(labels))[::-1].astype(np.int64)


def largest_component(graph: Graph) -> tuple[Graph, np.ndarray]:
    """Induced subgraph of the largest component.

    Returns ``(subgraph, original_ids)`` with
    ``original_ids[new_id] == old_id`` — the same convention as the IO
    relabeling helpers.
    """
    labels = connected_components(graph)
    if labels.size == 0:
        raise ValueError("empty graph has no components")
    sizes = np.bincount(labels)
    keep = labels == int(np.argmax(sizes))
    original_ids = np.flatnonzero(keep)
    remap = np.full(graph.num_vertices, -1, dtype=np.int64)
    remap[original_ids] = np.arange(original_ids.size)

    src, dst, w = graph.edge_array()
    mask = keep[src]  # both endpoints share a component
    sub = from_edge_array(
        remap[src[mask]], remap[dst[mask]], w[mask],
        num_vertices=original_ids.size,
        keep_self_loops=bool(graph.num_self_loops),
    )
    return sub, original_ids
