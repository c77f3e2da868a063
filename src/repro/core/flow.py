"""Random-walk flow on a graph: the quantities the map equation codes.

For an undirected graph the stationary visit probability of a vertex is
its relative weighted degree, ``p_α = deg_w(α) / 2W`` (§2.2 of the
paper; self-loops contribute to the visit probability but never to exit
flow).  A :class:`FlowNetwork` stores the graph with its edge weights
*converted to flow units* — each stored adjacency entry's weight is the
per-direction random-walk flow along that edge — plus the per-vertex
visit probabilities.  That normalization makes every level of the
multi-level algorithm uniform: a coarsened network's edge weights are
already flows, and super-vertex visit probabilities are inherited sums,
exactly how the merge phase of Algorithm 1 behaves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.coarsen import coarsen as _coarsen
from ..graph.graph import Graph

__all__ = ["FlowNetwork"]


@dataclass(frozen=True)
class FlowNetwork:
    """A graph in flow units plus per-vertex visit probabilities.

    Attributes:
        graph: adjacency whose ``weights`` are per-direction flows;
            ``Σ_{non-self entries} w = total inter-vertex flow``.
        node_flow: ``float64[n]`` visit probabilities, ``Σ = 1`` at
            level 0 (coarser levels inherit the same total).

    Invariant: ``node_flow[u] >= node_exit_flow()[u]`` (a vertex's
    visit probability includes its self-loop mass).
    """

    graph: Graph
    node_flow: np.ndarray

    def __post_init__(self) -> None:
        if self.node_flow.shape != (self.graph.num_vertices,):
            raise ValueError(
                f"node_flow shape {self.node_flow.shape} does not match "
                f"{self.graph.num_vertices} vertices"
            )

    @classmethod
    def from_graph(cls, graph: Graph) -> "FlowNetwork":
        """Normalize a raw weighted graph into flow units.

        ``p_α = deg_w(α)/2W`` with self-loops counted twice in the
        degree (their two half-edges both stay at α), and every stored
        adjacency weight divided by ``2W``.
        """
        W = graph.total_weight
        if W <= 0:
            raise ValueError("graph has no edges; flow is undefined")
        node_flow = graph.weighted_degrees(self_loop_factor=2.0) / (2.0 * W)
        flow_graph = Graph(
            indptr=graph.indptr,
            indices=graph.indices,
            weights=graph.weights / (2.0 * W),
            num_self_loops=graph.num_self_loops,
            sorted_rows=graph.sorted_rows,
        )
        return cls(graph=flow_graph, node_flow=node_flow)

    # -- per-vertex flow quantities ----------------------------------------
    def node_exit_flow(self) -> np.ndarray:
        """Flow leaving each vertex toward *other* vertices.

        Equals the vertex's exit probability when it forms a singleton
        module — the paper's ``q`` initialization (Algorithm 1 line 10).
        """
        g = self.graph
        out = np.zeros(g.num_vertices)
        rows = g._row_of_entry()
        nonself = rows != g.indices
        np.add.at(out, rows[nonself], g.weights[nonself])
        return out

    def total_flow(self) -> float:
        """Σ node_flow (1.0 at level 0, preserved by coarsening)."""
        return float(self.node_flow.sum())

    # -- multi-level support -----------------------------------------------------
    def coarsen(self, membership: np.ndarray) -> tuple["FlowNetwork", np.ndarray]:
        """Merge communities into super-vertices, flows inherited.

        Returns ``(coarse_network, community_of)`` where
        ``community_of[u]`` is the compacted coarse id of fine vertex
        ``u``.  The coarse graph keeps intra-community flow as
        self-loops so visit probabilities remain consistent.
        """
        cg = _coarsen(self.graph, membership)
        coarse_flow = np.zeros(cg.num_communities)
        np.add.at(coarse_flow, cg.community_of, self.node_flow)
        return (
            FlowNetwork(graph=cg.graph, node_flow=coarse_flow),
            cg.community_of,
        )

    def __repr__(self) -> str:
        return (
            f"FlowNetwork(n={self.graph.num_vertices}, "
            f"m={self.graph.num_edges}, total_flow={self.total_flow():.6f})"
        )

