"""GossipMap-like distributed Infomap baseline (Bae & Howe 2015).

The comparator behind the paper's Table 3.  GossipMap runs flow-based
clustering on a vertex-programming framework (GraphLab) where each
vertex decides from *local* information and community knowledge spreads
epidemically.  Per §2.3 of the paper, the operative differences from
the delegate algorithm are:

* plain 1D partitioning — hubs sit on single ranks, so workload and
  ghost traffic are imbalanced (Figures 6–7's 1D series);
* only community *IDs* of boundary vertices are exchanged — no
  ``Module_Info`` aggregates — so each rank scores moves against its
  own partial view and needs many more rounds for information to
  diffuse.

This re-implementation runs on the same SPMD substrate and move kernel
as the main algorithm with exactly those two switches flipped, which
makes the Table-3 speedup attribution clean: any time difference is the
partitioning + information-swap design, not incidental implementation
quality.
"""

from __future__ import annotations

from typing import Any

from ..core.config import InfomapConfig
from ..core.distributed import _assemble_result, _launch
from ..core.flow import FlowNetwork
from ..core.result import ClusteringResult
from ..graph.graph import Graph
from ..partition.distgraph import local_views_1d
from ..partition.oned import OneDPartition
from ..simmpi.costmodel import MachineModel

__all__ = ["gossipmap"]


def gossipmap(
    graph: Graph,
    nranks: int,
    config: InfomapConfig | None = None,
    *,
    machine: MachineModel | None = None,
    timeout: float = 600.0,
    tracer: Any = None,
    live: Any = None,
    backend: str | None = None,
) -> ClusteringResult:
    """Run the GossipMap-like baseline on *nranks* simulated ranks.

    Accepts the same configuration as the main algorithm; the
    GossipMap-defining switches (1D partitioning, boundary-ID-only
    exchange) are forced.  *tracer*, *live* and *backend* behave as in
    :func:`~repro.core.distributed.distributed_infomap`: observing a run
    never changes its result.
    """
    base = config or InfomapConfig()
    cfg = base.with_(
        # Local decision rule: move toward maximum aggregate flow
        # (§2.3), not map-equation ΔL.
        move_rule="max_flow",
        full_module_info=False,  # IDs only — no Module_Info aggregates
        # GraphLab's gather-apply-scatter engine re-gathers over every
        # edge of a scheduled vertex each superstep and mirrors hub
        # vertices across machines; there is no sparse re-evaluation
        # set of the kind our rounds use, which is a large part of why
        # the paper measures GossipMap as slow (§1, §2.1).  Model that
        # as a full scan per round.
        prune_inactive=False,
        # Local decisions need more rounds to diffuse community info.
        max_rounds=max(base.max_rounds, 100),
    )
    if graph.num_edges == 0:
        raise ValueError("cannot cluster a graph with no edges")

    network = FlowNetwork.from_graph(graph)
    part = OneDPartition.round_robin(graph, nranks)
    res = _launch(
        nranks, cfg, n0=graph.num_vertices,
        views=local_views_1d(network, part),
        timeout=timeout, tracer=tracer, live=live, backend=backend,
    )
    return _assemble_result(
        res, graph.num_vertices, nranks, machine, method="gossipmap"
    )
