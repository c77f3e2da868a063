"""Per-rank local graph views: what each rank actually holds in memory.

After partitioning, a rank stores (a) its owned low-degree vertices
with their full adjacency, (b) a *delegate copy* of every hub with the
subset of hub adjacency entries placed on this rank, and (c) ghost
stubs for remote neighbours.  :class:`LocalGraph` packages exactly that
— in local index space, so the distributed algorithm never touches the
global graph — plus the boundary bookkeeping the swap protocol needs
(who ghosts my vertices, who owns my ghosts).

Construction note (documented substitution): the paper performs
partitioning itself in parallel during ingest; here the partition is
computed once, deterministically, and each rank's view is carved out up
front.  Both produce identical local views, and none of the measured
stages (Figures 8–10) include ingest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.flow import FlowNetwork
from .delegates import DelegatePartition
from .oned import OneDPartition

__all__ = ["LocalGraph", "build_local_graphs", "local_views_1d", "local_views_delegate"]


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` by sort and neighbour compare: numpy's hashed
    unique is several times slower on the id arrays the views use."""
    s = np.sort(a)
    if s.size > 1:
        s = s[np.concatenate(([True], s[1:] != s[:-1]))]
    return s


def dense_unique(size: int, *parts: np.ndarray) -> np.ndarray:
    """``np.unique`` of the non-negative ints in *parts*, all below
    *size*, from a presence mask: no sort."""
    seen = np.zeros(size, dtype=bool)
    for part in parts:
        seen[part] = True
    return np.flatnonzero(seen)


def dense_isin(values: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``np.isin(values, ids)`` for non-negative ints, from a presence
    mask over *ids*' range whose last entry, ``False``, every larger
    value reads."""
    seen = np.zeros(int(ids.max(initial=-1)) + 2, dtype=bool)
    seen[ids] = True
    return seen[np.minimum(values, seen.size - 1)]


@dataclass
class LocalGraph:
    """One rank's subgraph in local index space.

    Local indices are laid out ``[owned | hubs | ghosts]``:

    Attributes:
        rank, nranks: identity.
        num_owned, num_hubs, num_ghosts: segment sizes.
        global_of: ``int64[L]`` local → global vertex id.
        flow: ``float64[L]`` visit probabilities (static preprocessing
            output, replicated like the paper's delegate metadata).
        exit0: ``float64[L]`` singleton exit flows (total non-self link
            flow per vertex) — the Algorithm 1 line-10 initialization,
            precomputed during preprocessing so ghosts carry it too.
        indptr/nbr/nbr_flow: CSR over local *source* indices
            ``0..num_owned+num_hubs-1``; ``nbr`` holds local indices.
        hub_home: ``bool[num_hubs]`` — True where this rank is the
            hub's accounting home (carries its visit mass exactly once
            across the job).
        ghost_owner: ``int64[num_ghosts]`` owning rank per ghost.
        boundary_local: local indices (owned segment) of vertices some
            other rank ghosts.
        boundary_ranks: per boundary vertex, the ranks ghosting it.
        neighbor_ranks: ranks this rank exchanges with each round.

    :meth:`boundary_groups` inverts ``boundary_ranks`` into a
    per-destination group-by (computed lazily, cached) — the columnar
    swap/membership-sync paths iterate destinations, not vertices.
    """

    rank: int
    nranks: int
    num_owned: int
    num_hubs: int
    num_ghosts: int
    global_of: np.ndarray
    flow: np.ndarray
    exit0: np.ndarray
    indptr: np.ndarray
    nbr: np.ndarray
    nbr_flow: np.ndarray
    hub_home: np.ndarray
    ghost_owner: np.ndarray
    boundary_local: np.ndarray
    boundary_ranks: list[np.ndarray]
    neighbor_ranks: np.ndarray
    _boundary_groups: "dict[int, np.ndarray] | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def boundary_groups(self) -> dict[int, np.ndarray]:
        """Per destination rank: boundary *positions* ghosted there.

        ``groups[dest]`` is an ``int64`` array of indices into
        ``boundary_local``/``boundary_ranks``, in boundary order (the
        stable sort preserves it), so
        ``boundary_local[groups[dest]]`` are the vertices whose module
        info / membership must be shipped to *dest*.  Destinations with
        no boundary vertices are absent.
        """
        if self._boundary_groups is None:
            groups: dict[int, np.ndarray] = {}
            if self.boundary_local.size:
                counts = np.fromiter(
                    (br.size for br in self.boundary_ranks),
                    dtype=np.int64, count=len(self.boundary_ranks),
                )
                pos = np.repeat(
                    np.arange(counts.size, dtype=np.int64), counts
                )
                dests = np.concatenate(self.boundary_ranks)
                order = np.argsort(dests, kind="stable")
                dsorted = dests[order]
                psorted = pos[order]
                starts = np.flatnonzero(
                    np.concatenate(([True], dsorted[1:] != dsorted[:-1]))
                )
                bounds = np.append(starts, dsorted.size)
                for i, s in enumerate(starts.tolist()):
                    groups[int(dsorted[s])] = psorted[s:bounds[i + 1]]
            self._boundary_groups = groups
        return self._boundary_groups

    def invalidate_boundary_groups(self) -> None:
        """Drop the cached group-by after ``boundary_local`` /
        ``boundary_ranks`` edits (the dynamic repartitioner's ghost-set
        repair mutates them in place on third-party ranks)."""
        self._boundary_groups = None

    @property
    def num_local(self) -> int:
        return self.num_owned + self.num_hubs + self.num_ghosts

    @property
    def num_sources(self) -> int:
        """Vertices with locally stored adjacency (owned + hub copies)."""
        return self.num_owned + self.num_hubs

    @property
    def num_entries(self) -> int:
        """Locally stored adjacency entries — the rank's workload."""
        return int(self.nbr.size)

    @property
    def csr_nbytes(self) -> int:
        """Bytes of the local CSR columns (indptr + nbr + nbr_flow) —
        the denominator of the out-of-core per-rank RSS budget."""
        return int(
            self.indptr.nbytes + self.nbr.nbytes + self.nbr_flow.nbytes
        )

    def hub_slice(self) -> slice:
        return slice(self.num_owned, self.num_owned + self.num_hubs)

    def ghost_slice(self) -> slice:
        return slice(self.num_owned + self.num_hubs, self.num_local)

    def neighbors_of(self, local_idx: int) -> tuple[np.ndarray, np.ndarray]:
        """(local neighbour indices, per-direction flows) of a source."""
        lo, hi = self.indptr[local_idx], self.indptr[local_idx + 1]
        return self.nbr[lo:hi], self.nbr_flow[lo:hi]

    def validate(self) -> None:
        """Structural checks used by tests."""
        if self.global_of.size != self.num_local:
            raise ValueError("global_of size mismatch")
        if self.indptr.size != self.num_sources + 1:
            raise ValueError("indptr must cover owned+hub sources")
        if self.nbr.size and self.nbr.max() >= self.num_local:
            raise ValueError("neighbor index out of local range")
        if self.boundary_local.size and (
            self.boundary_local.max() >= self.num_owned
        ):
            raise ValueError("boundary vertices must be owned")


def build_local_graphs(
    network: FlowNetwork,
    *,
    entry_rank: np.ndarray,
    owner: np.ndarray,
    is_hub: np.ndarray,
    nranks: int,
    rank: "int | None" = None,
) -> list[LocalGraph]:
    """Carve the flow network into per-rank :class:`LocalGraph` views.

    Generic over the placement: pass a delegate placement (stage 1) or
    a plain 1D placement with ``is_hub`` all-False (stage 2).  With a
    *rank*, only that rank's view is built (a one-element list); it is
    the view of the full build.
    """
    g = network.graph
    n = g.num_vertices
    rows = g._row_of_entry()
    hubs = np.flatnonzero(is_hub)
    exit0_all = network.node_exit_flow()

    # Group stored entries by (rank, source) once, globally; rows are
    # already ascending, so a stable sort by rank is that grouping.
    order = np.argsort(entry_rank, kind="stable")
    e_rank = entry_rank[order]
    e_src = rows[order]
    e_dst = g.indices[order]
    e_flow = g.weights[order]
    rank_bounds = np.searchsorted(e_rank, np.arange(nranks + 1))

    # Which ranks ghost each vertex (for boundary bookkeeping): one
    # (vertex, ghosting rank) pair per ghost, grouped by the owner.
    ghost_sets: list[np.ndarray] = []
    for r in range(nranks):
        lo, hi = rank_bounds[r], rank_bounds[r + 1]
        dsts = e_dst[lo:hi]
        mask = ~is_hub[dsts] & (owner[dsts] != r)
        ghost_sets.append(sorted_unique(dsts[mask]))
    ghost_v = np.concatenate(ghost_sets)
    ghost_r = np.repeat(
        np.arange(nranks, dtype=np.int64), [gs.size for gs in ghost_sets]
    )
    ghost_home = owner[ghost_v]

    locals_: list[LocalGraph] = []
    for r in range(nranks) if rank is None else (rank,):
        lo, hi = rank_bounds[r], rank_bounds[r + 1]
        srcs = e_src[lo:hi]
        dsts = e_dst[lo:hi]
        flws = e_flow[lo:hi]

        owned = np.flatnonzero((owner == r) & ~is_hub)
        ghosts = ghost_sets[r]
        global_of = np.concatenate([owned, hubs, ghosts]).astype(np.int64)
        local_of = np.full(n, -1, dtype=np.int64)
        local_of[global_of] = np.arange(global_of.size)

        # Local CSR over sources (owned first, hubs after).
        num_sources = owned.size + hubs.size
        src_local = local_of[srcs]
        if src_local.size and src_local.min() < 0:
            raise AssertionError("entry stored on a rank lacking its source")
        csr_order = np.argsort(src_local, kind="stable")
        src_sorted = src_local[csr_order]
        nbr = local_of[dsts[csr_order]]
        if nbr.size and nbr.min() < 0:
            raise AssertionError("entry target missing from local view")
        nbr_flow = flws[csr_order]
        indptr = np.zeros(num_sources + 1, dtype=np.int64)
        np.add.at(indptr, src_sorted + 1, 1)
        np.cumsum(indptr, out=indptr)

        # Pairs are unique, so sorting by (vertex, rank) lists each
        # boundary vertex once, with its ghosting ranks ascending.
        mine = ghost_home == r
        bv, bvr = ghost_v[mine], ghost_r[mine]
        order = np.lexsort((bvr, bv))
        bv, bvr = bv[order], bvr[order]
        starts = np.flatnonzero(np.diff(bv, prepend=-1))
        boundary = bv[starts]
        boundary_local = local_of[boundary].astype(np.int64)
        ends = np.append(starts[1:], bvr.size).tolist()
        boundary_ranks = [
            bvr[a:b] for a, b in zip(starts.tolist(), ends)
        ]
        nbr_ranks = np.flatnonzero(
            np.bincount(bvr, minlength=nranks)
            + np.bincount(owner[ghosts], minlength=nranks)
        )

        locals_.append(
            LocalGraph(
                rank=r,
                nranks=nranks,
                num_owned=owned.size,
                num_hubs=hubs.size,
                num_ghosts=ghosts.size,
                global_of=global_of,
                flow=network.node_flow[global_of],
                exit0=exit0_all[global_of],
                indptr=indptr,
                nbr=nbr,
                nbr_flow=nbr_flow,
                hub_home=(owner[hubs] == r),
                ghost_owner=owner[ghosts].astype(np.int64),
                boundary_local=boundary_local,
                boundary_ranks=boundary_ranks,
                neighbor_ranks=nbr_ranks[nbr_ranks != r],
            )
        )
    return locals_


def local_views_delegate(
    network: FlowNetwork, dpart: DelegatePartition
) -> list[LocalGraph]:
    """Local views for stage 1 (clustering with delegates)."""
    return build_local_graphs(
        network,
        entry_rank=dpart.entry_rank,
        owner=dpart.owner,
        is_hub=dpart.is_hub,
        nranks=dpart.nranks,
    )


def local_views_1d(
    network: FlowNetwork, part: OneDPartition, rank: "int | None" = None
) -> list[LocalGraph]:
    """Local views for stage 2 (plain 1D, no delegates); only *rank*'s
    when given (:func:`build_local_graphs`)."""
    g = network.graph
    rows = g._row_of_entry()
    return build_local_graphs(
        network,
        entry_rank=part.owner[rows].astype(np.int64),
        owner=part.owner,
        is_hub=np.zeros(g.num_vertices, dtype=bool),
        nranks=part.nranks,
        rank=rank,
    )
