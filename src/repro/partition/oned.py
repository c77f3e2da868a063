"""1D vertex partitioning: the baseline the paper argues against.

A 1D partition assigns every vertex — and with it the vertex's *entire*
adjacency list — to one rank.  It is what prior distributed clustering
work used (§2.3), and on scale-free graphs it concentrates hub
adjacency lists on single ranks, producing the imbalance Figures 6–7
measure.  Two flavours are provided: contiguous blocks and the
round-robin assignment the paper's delegate scheme uses for its
low-degree vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.graph import Graph

__all__ = [
    "OneDPartition",
    "block_owners",
    "entry_balanced_bounds",
    "round_robin_owners",
]


def block_owners(num_vertices: int, nranks: int) -> np.ndarray:
    """Contiguous-range ownership: rank r owns one ~n/p slice.

    The natural layout for file-split ingestion; pathological for web
    crawls whose vertex ids cluster by host.
    """
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    return (
        np.arange(num_vertices, dtype=np.int64) * nranks // max(num_vertices, 1)
    ).astype(np.int64)


def round_robin_owners(num_vertices: int, nranks: int) -> np.ndarray:
    """Cyclic ownership ``owner(u) = u mod p`` (the paper's 1D flavour)."""
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    return (np.arange(num_vertices, dtype=np.int64) % nranks).astype(np.int64)


def entry_balanced_bounds(indptr: np.ndarray, nranks: int) -> np.ndarray:
    """Contiguous row ranges with ~equal adjacency *entries* per rank.

    Returns ``bounds`` (``int64[nranks+1]``, ``bounds[0]=0``,
    ``bounds[-1]=n``); rank r owns rows ``[bounds[r], bounds[r+1])``.
    Row ``v`` goes to the rank whose entry quota its prefix sum falls
    into — one ``searchsorted`` over ``indptr``, which is why the
    out-of-core shard planner can run it on a memmapped ``xadj``
    without reading the adjacency at all.  Contiguity is what lets a
    rank later read exactly one slice of the on-disk CSR.
    """
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    indptr = np.asarray(indptr)
    n = indptr.size - 1
    nnz = int(indptr[-1])
    targets = (np.arange(1, nranks, dtype=np.int64) * nnz) // nranks
    cuts = np.searchsorted(indptr, targets, side="left").astype(np.int64)
    bounds = np.empty(nranks + 1, dtype=np.int64)
    bounds[0] = 0
    bounds[1:nranks] = np.minimum(cuts, n)
    bounds[nranks] = n
    # Degenerate quotas (huge rows, tiny graphs) can produce decreasing
    # cuts; enforce monotonicity so every row has exactly one owner.
    np.maximum.accumulate(bounds, out=bounds)
    return bounds


@dataclass(frozen=True)
class OneDPartition:
    """A plain 1D partition: every vertex's adjacency lives with its owner.

    Attributes:
        owner: ``int64[n]`` — owning rank per vertex.
        nranks: number of ranks.
    """

    owner: np.ndarray
    nranks: int

    def __post_init__(self) -> None:
        if self.owner.size and (
            self.owner.min() < 0 or self.owner.max() >= self.nranks
        ):
            raise ValueError("owner entries must lie in [0, nranks)")

    @classmethod
    def round_robin(cls, graph_or_n: "Graph | int", nranks: int) -> "OneDPartition":
        n = graph_or_n if isinstance(graph_or_n, int) else graph_or_n.num_vertices
        return cls(owner=round_robin_owners(n, nranks), nranks=nranks)

    @classmethod
    def block(cls, graph_or_n: "Graph | int", nranks: int) -> "OneDPartition":
        n = graph_or_n if isinstance(graph_or_n, int) else graph_or_n.num_vertices
        return cls(owner=block_owners(n, nranks), nranks=nranks)

    @classmethod
    def block_balanced(cls, graph: Graph, nranks: int) -> "OneDPartition":
        """Contiguous blocks sized by adjacency entries, not vertices.

        The ownership the out-of-core shard loader uses: same row
        ranges as :func:`entry_balanced_bounds` on the graph's indptr.
        """
        bounds = entry_balanced_bounds(graph.indptr, nranks)
        owner = np.repeat(
            np.arange(nranks, dtype=np.int64), np.diff(bounds)
        )
        return cls(owner=owner, nranks=nranks)

    @property
    def num_vertices(self) -> int:
        return self.owner.size

    def local_vertices(self, rank: int) -> np.ndarray:
        """Global ids of the vertices owned by *rank*."""
        return np.flatnonzero(self.owner == rank)

    def edges_per_rank(self, graph: Graph) -> np.ndarray:
        """Stored adjacency entries per rank — the paper's workload proxy.

        Under 1D partitioning every adjacency entry of vertex ``u``
        lives on ``owner[u]``, so the per-rank workload is the sum of
        owned vertices' degrees (Figure 6's y-axis).
        """
        if self.owner.size != graph.num_vertices:
            raise ValueError("partition size does not match graph")
        counts = np.zeros(self.nranks, dtype=np.int64)
        np.add.at(counts, self.owner, graph.degrees())
        return counts
