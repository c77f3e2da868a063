"""Partition-then-load: each rank reads only its shard of a CSR store.

The in-RAM pipeline builds every rank's :class:`LocalGraph` from one
global :class:`FlowNetwork` held in a single address space
(:func:`repro.partition.distgraph.build_local_graphs`).  This module
is the out-of-core replacement: ranks agree on contiguous row ranges
computed from the store's ``xadj`` alone (:func:`plan_shards`), then
each rank reads *only its own row slice* of the on-disk CSR in
fixed-size chunks (positioned reads — the local analogue of
``MPI_File_read_at_all``), fetching ghost vertex flows from their
owners over the existing sparse exchange — so per-rank peak RSS
scales with the shard, not the graph.

The produced LocalGraph is **field-for-field identical** (bitwise) to
what ``build_local_graphs`` yields for the same block ownership with
``is_hub`` all-False, because every float is accumulated in the same
element order the in-RAM path uses:

* ``flow`` sums *raw* weights per row first (``np.add.at`` per chunk
  into one global accumulator ≡ one whole-array ``np.add.at``), adds
  the self-loop extra only after the base pass completes (matching
  ``weighted_degrees``'s two-pass order), then divides by ``2W``;
* ``exit0`` divides each weight by ``2W`` *first* and then sums the
  non-self entries per row (matching ``node_exit_flow`` operating on
  the flow graph) — the opposite order, and the ulps differ, so the
  two must not be conflated;
* ``nbr_flow`` is the elementwise ``w / 2W``, chunk-invariant.

``W`` is the store header's total weight, so every rank scales by the
identical constant without reading the weights column up front.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..graph.extcsr import ADJ_FILE, WTS_FILE, XADJ_FILE, store_header
from ..obs.live import PHASE_INGEST
from ..simmpi.comm import Communicator
from .distgraph import LocalGraph, sorted_unique
from .oned import entry_balanced_bounds

__all__ = ["ShardPlan", "plan_shards", "load_shard"]

#: Adjacency entries read per chunk while streaming a shard.  Bounds the
#: load-time temporaries to ~24 bytes x this many entries per rank;
#: results are chunk-size invariant (bitwise), so this only trades peak
#: RSS against read-call overhead.
DEFAULT_CHUNK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class ShardPlan:
    """The tiny, rank-replicated description of a partitioned store.

    Everything a rank needs before touching the big files: contiguous
    row ``bounds`` (rank r owns rows ``[bounds[r], bounds[r+1])``),
    per-shard entry counts, and the header scalars.  A few hundred
    bytes regardless of graph size — this is what gets shipped to
    worker processes instead of the graph.
    """

    bounds: np.ndarray
    entries: np.ndarray
    nranks: int
    num_vertices: int
    nnz: int
    num_self_loops: int
    total_weight: float

    def owner_of(self, gids: np.ndarray) -> np.ndarray:
        """Owning rank per global vertex id (vectorized bisect)."""
        return (
            np.searchsorted(self.bounds, gids, side="right").astype(np.int64)
            - 1
        )

    def owner_array(self) -> np.ndarray:
        """Dense ``int64[n]`` owner map (test/compat helper — O(n),
        defeats the point of out-of-core if used on the hot path)."""
        return np.repeat(
            np.arange(self.nranks, dtype=np.int64), np.diff(self.bounds)
        )

    def shard_csr_nbytes(self, rank: int) -> int:
        """Bytes of rank's LocalGraph CSR columns — the RSS budget
        denominator: indptr (owned+1 int64) + nbr (int64) + nbr_flow
        (float64) per stored entry."""
        owned = int(self.bounds[rank + 1] - self.bounds[rank])
        return 8 * (owned + 1) + 16 * int(self.entries[rank])


def plan_shards(store_dir: str | Path, nranks: int) -> ShardPlan:
    """Cut a CSR store into entry-balanced contiguous row shards.

    Touches only the header and ``xadj`` (binary searches on the
    memmap page in O(p log n) bytes) — never the adjacency.
    """
    store = Path(store_dir)
    header = store_header(store)
    if header["total_weight"] <= 0.0:
        raise ValueError("graph has no edges; nothing to partition")
    n = int(header["num_vertices"])
    xadj = np.memmap(store / XADJ_FILE, dtype=np.int64, mode="r", shape=(n + 1,))
    bounds = entry_balanced_bounds(xadj, nranks)
    entries = np.diff(np.asarray(xadj[bounds], dtype=np.int64))
    return ShardPlan(
        bounds=bounds,
        entries=entries,
        nranks=nranks,
        num_vertices=n,
        nnz=int(header["nnz"]),
        num_self_loops=int(header["num_self_loops"]),
        total_weight=float(header["total_weight"]),
    )


def load_shard(
    comm: Communicator,
    store_dir: str | Path,
    plan: ShardPlan,
    *,
    chunk_entries: int = DEFAULT_CHUNK_ENTRIES,
) -> tuple[LocalGraph, dict]:
    """Build this rank's :class:`LocalGraph` from its store shard.

    Collective: every rank of ``comm`` must call it (two sparse
    exchange rounds fetch ghost flows and register boundaries).
    Returns ``(local_graph, ingest_stats)``.
    """
    if comm.size != plan.nranks:
        raise ValueError(
            f"plan is for {plan.nranks} ranks but comm has {comm.size}"
        )
    t0 = time.perf_counter()
    prev_phase = comm.stats.phase
    comm.set_phase(PHASE_INGEST)
    try:
        lg, stats = _load_shard_body(comm, Path(store_dir), plan, chunk_entries)
    finally:
        comm.set_phase(prev_phase)
    stats["seconds"] = time.perf_counter() - t0
    return lg, stats


def _chunk_rows(
    indptr: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, int]:
    """Local row index per entry in the (local) entry range [lo, hi)."""
    r0 = int(np.searchsorted(indptr, lo, side="right")) - 1
    r1 = int(np.searchsorted(indptr, hi, side="left"))
    span = np.clip(indptr[r0 : r1 + 1], lo, hi)
    return (
        np.repeat(np.arange(r0, r1, dtype=np.int64), np.diff(span)),
        r0,
    )


def _load_shard_body(
    comm: Communicator,
    store: Path,
    plan: ShardPlan,
    chunk_entries: int,
) -> tuple[LocalGraph, dict]:
    r = comm.rank
    n = plan.num_vertices
    b0, b1 = int(plan.bounds[r]), int(plan.bounds[r + 1])
    num_owned = b1 - b0
    denom = 2.0 * plan.total_weight

    xadj = np.memmap(store / XADJ_FILE, dtype=np.int64, mode="r", shape=(n + 1,))
    indptr = np.array(xadj[b0 : b1 + 1], dtype=np.int64)
    e0, e1 = int(indptr[0]), int(indptr[-1])
    indptr -= e0
    num_entries = e1 - e0

    # The adjacency/weight columns are streamed with positioned
    # buffered reads rather than a memmap slice: mapped file pages
    # count toward the process's resident high-water mark even after
    # the view is dropped, so streaming the whole shard through a
    # memmap would charge ~16 bytes/entry of peak RSS for data we only
    # need one chunk at a time.  ``seek`` + ``fromfile`` is the exact
    # local analogue of ``MPI_File_read_at_all`` (see docs/PORTING.md).
    def _read(fh, dtype, start, count):
        fh.seek(start * dtype.itemsize)
        out = np.fromfile(fh, dtype=dtype, count=count)
        if out.size != count:  # pragma: no cover - truncated store
            raise OSError(
                f"{fh.name}: short read at entry {start} "
                f"({out.size} of {count})"
            )
        return out

    _I8, _F8 = np.dtype(np.int64), np.dtype(np.float64)

    # Pass 1: stream owned rows — accumulate raw strengths (node flow)
    # and flow-unit exit sums in the in-RAM path's element order, fill
    # nbr_flow, and discover ghosts.
    nbr_flow = np.empty(num_entries, dtype=np.float64)
    strength = np.zeros(num_owned, dtype=np.float64)
    self_extra = np.zeros(num_owned, dtype=np.float64)
    exit_acc = np.zeros(num_owned, dtype=np.float64)
    ghosts = np.empty(0, dtype=np.int64)
    num_chunks = 0
    if num_entries:
        with open(store / ADJ_FILE, "rb") as adj_fh, \
                open(store / WTS_FILE, "rb") as wts_fh:
            for lo in range(e0, e1, chunk_entries):
                hi = min(lo + chunk_entries, e1)
                num_chunks += 1
                a = _read(adj_fh, _I8, lo, hi - lo)
                w = _read(wts_fh, _F8, lo, hi - lo)
                rows, _ = _chunk_rows(indptr, lo - e0, hi - e0)
                fw = w / denom
                nbr_flow[lo - e0 : hi - e0] = fw
                np.add.at(strength, rows, w)
                selfs = a == (rows + b0)
                if np.any(selfs):
                    # Deferred: weighted_degrees applies the self-loop
                    # doubling only after its full base pass; adding it
                    # mid-stream would change the float accumulation
                    # order for rows that span a chunk boundary.
                    np.add.at(self_extra, rows[selfs], w[selfs])
                np.add.at(exit_acc, rows[~selfs], fw[~selfs])
                remote = a[(a < b0) | (a >= b1)]
                if remote.size:
                    ghosts = sorted_unique(np.concatenate([ghosts, remote]))
    strength += self_extra
    node_flow = strength / denom

    # Round 1: ask each ghost's owner for its (flow, exit0); the same
    # message registers us as a ghosting rank for boundary bookkeeping.
    gowner = plan.owner_of(ghosts)
    seg = np.searchsorted(ghosts, plan.bounds).astype(np.int64)
    requests = {
        q: ghosts[seg[q] : seg[q + 1]]
        for q in range(plan.nranks)
        if q != r and seg[q + 1] > seg[q]
    }
    inbound = comm.exchange(requests)

    # Boundary bookkeeping from the inbound requests: sources arrive in
    # ascending rank order, so a stable sort by gid leaves each
    # vertex's requester list ascending — the build_local_graphs order.
    req_srcs = sorted(inbound)
    if req_srcs:
        all_gids = np.concatenate([inbound[q] for q in req_srcs])
        all_reqs = np.concatenate(
            [
                np.full(inbound[q].size, q, dtype=np.int64)
                for q in req_srcs
            ]
        )
        order = np.argsort(all_gids, kind="stable")
        gsorted = all_gids[order]
        rsorted = all_reqs[order]
        starts = np.flatnonzero(
            np.concatenate(([True], gsorted[1:] != gsorted[:-1]))
        )
        ends = np.append(starts[1:], gsorted.size)
        boundary_local = gsorted[starts] - b0
        boundary_ranks = [
            rsorted[s:e].copy() for s, e in zip(starts, ends)
        ]
    else:
        boundary_local = np.empty(0, dtype=np.int64)
        boundary_ranks = []

    # Round 2: answer with the requested vertices' flow columns; the
    # replies concatenate back in ghost (ascending gid) order.
    replies = {
        q: (
            node_flow[inbound[q] - b0].copy(),
            exit_acc[inbound[q] - b0].copy(),
        )
        for q in req_srcs
    }
    returned = comm.exchange(replies)
    owners_in = sorted(returned)
    if owners_in:
        ghost_flow = np.concatenate([returned[q][0] for q in owners_in])
        ghost_exit = np.concatenate([returned[q][1] for q in owners_in])
    else:
        ghost_flow = np.empty(0, dtype=np.float64)
        ghost_exit = np.empty(0, dtype=np.float64)

    # Pass 2: re-read the adjacency to map global dsts to local ids
    # (owned rows rebase; ghosts binary-search the sorted ghost list).
    nbr = np.empty(num_entries, dtype=np.int64)
    if num_entries:
        with open(store / ADJ_FILE, "rb") as adj_fh:
            for lo in range(e0, e1, chunk_entries):
                hi = min(lo + chunk_entries, e1)
                a = _read(adj_fh, _I8, lo, hi - lo)
                own = (a >= b0) & (a < b1)
                local = np.where(
                    own, a - b0, num_owned + np.searchsorted(ghosts, a)
                )
                nbr[lo - e0 : hi - e0] = local

    nbr_ranks = set(int(q) for q in req_srcs)
    nbr_ranks.update(int(q) for q in sorted_unique(gowner).tolist())
    nbr_ranks.discard(r)

    lg = LocalGraph(
        rank=r,
        nranks=plan.nranks,
        num_owned=num_owned,
        num_hubs=0,
        num_ghosts=int(ghosts.size),
        global_of=np.concatenate(
            [np.arange(b0, b1, dtype=np.int64), ghosts]
        ),
        flow=np.concatenate([node_flow, ghost_flow]),
        exit0=np.concatenate([exit_acc, ghost_exit]),
        indptr=indptr,
        nbr=nbr,
        nbr_flow=nbr_flow,
        hub_home=np.empty(0, dtype=bool),
        ghost_owner=gowner.astype(np.int64),
        boundary_local=boundary_local.astype(np.int64),
        boundary_ranks=boundary_ranks,
        neighbor_ranks=np.asarray(sorted(nbr_ranks), dtype=np.int64),
    )
    stats = {
        "num_owned": num_owned,
        "num_entries": num_entries,
        "num_ghosts": int(ghosts.size),
        "num_chunks": num_chunks,
        "csr_nbytes": lg.csr_nbytes,
    }
    return lg, stats
