"""Edge deltas: batched graph mutations that patch CSR in place.

The incremental pipeline (DESIGN §3j) feeds on :class:`GraphDelta`
batches — parallel arrays of edge inserts / deletes / reweights — and
applies them to an existing CSR **without** re-canonicalizing the whole
edge set:

* :func:`apply_delta` patches an in-RAM :class:`~repro.graph.graph.Graph`:
  a reweight-only batch shares ``indptr``/``indices`` and copies only
  the weights column; a structural batch row-splices the three columns
  (keep-mask deletion + sorted insertion), touching O(nnz) memory once
  but never re-sorting.
* :func:`apply_delta_to_store` does the same to an on-disk CSR store
  (:mod:`repro.graph.extcsr`): reweights are written through a ``r+``
  memmap; structural batches stream row blocks through a tmp-file
  splice so peak RAM stays O(block), then ``os.replace`` swaps the
  columns in atomically.

Both paths are **bitwise identical** to rebuilding with
:func:`repro.graph.builder.from_edge_array` from the patched edge list:
the builder's canonical layout orders every adjacency row by neighbour
id and never perturbs weight bits when edges are unique, so a sorted
splice that lands the same values in the same slots reproduces the
exact bytes.  A hypothesis property test pins this down.

:func:`dirty_region` computes the h-hop neighbourhood of a delta's
endpoints on the *patched* graph — the dirty frontier the warm-start
solvers sweep first (see :mod:`repro.core.incremental`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graph import Graph, gather_rows

__all__ = [
    "GraphDelta",
    "apply_delta",
    "apply_delta_to_store",
    "dirty_region",
    "read_delta_file",
    "write_delta_file",
]


def _as_ids(arr, name: str) -> np.ndarray:
    out = np.asarray(arr, dtype=np.int64).ravel()
    if out.size and out.min() < 0:
        raise ValueError(f"{name}: vertex ids must be non-negative")
    return out


@dataclass(frozen=True)
class GraphDelta:
    """One batch of edge mutations against an undirected graph.

    Parallel arrays, one slot per edge: ``(src[i], dst[i])`` is the
    edge (canonicalized to ``src <= dst`` at construction),
    ``op[i]`` one of :data:`INSERT` / :data:`DELETE` /
    :data:`REWEIGHT`, and ``weight[i]`` the new weight (ignored and
    zeroed for deletes).

    Invariants enforced here so the apply paths can stay branch-free:
    no self-loops, no duplicate ``(u, v)`` within a batch, and every
    insert/reweight weight finite and positive (the same rule the
    builder applies — zero-weight edges carry no flow).
    """

    INSERT = 0
    DELETE = 1
    REWEIGHT = 2

    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    op: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.uint8))

    def __post_init__(self) -> None:
        src = _as_ids(self.src, "delta src")
        dst = _as_ids(self.dst, "delta dst")
        wts = np.asarray(self.weight, dtype=np.float64).ravel()
        ops = np.asarray(self.op, dtype=np.uint8).ravel()
        if not (src.size == dst.size == wts.size == ops.size):
            raise ValueError("delta arrays must have equal length")
        if ops.size and ops.max(initial=0) > self.REWEIGHT:
            raise ValueError("delta op out of range (0=insert 1=delete 2=reweight)")
        if np.any(src == dst):
            raise ValueError("delta edges must not be self-loops")
        changes = ops != self.DELETE
        if not np.all(np.isfinite(wts[changes])):
            raise ValueError("edge weights must be finite")
        if np.any(wts[changes] <= 0):
            raise ValueError("edge weights must be positive")
        # Canonical orientation + zeroed delete weights.
        u = np.minimum(src, dst)
        v = np.maximum(src, dst)
        wts = np.where(changes, wts, 0.0)
        if u.size:
            hi = int(max(u.max(), v.max())) + 1
            key = np.sort(u * np.int64(hi) + v)
            if np.any(key[1:] == key[:-1]):
                raise ValueError("duplicate edge within one delta batch")
        object.__setattr__(self, "src", u)
        object.__setattr__(self, "dst", v)
        object.__setattr__(self, "weight", wts)
        object.__setattr__(self, "op", ops)

    @classmethod
    def build(
        cls,
        *,
        insert: "tuple | None" = None,
        delete: "tuple | None" = None,
        reweight: "tuple | None" = None,
    ) -> "GraphDelta":
        """Assemble a batch from per-op edge tuples.

        ``insert``/``reweight`` are ``(src, dst, weight)``; ``delete``
        is ``(src, dst)``.  Any argument may be omitted.
        """
        srcs, dsts, wts, ops = [], [], [], []
        if insert is not None:
            s, d, w = insert
            s = _as_ids(s, "insert src")
            srcs.append(s)
            dsts.append(_as_ids(d, "insert dst"))
            wts.append(np.asarray(w, dtype=np.float64).ravel())
            ops.append(np.full(s.size, cls.INSERT, dtype=np.uint8))
        if delete is not None:
            s, d = delete
            s = _as_ids(s, "delete src")
            srcs.append(s)
            dsts.append(_as_ids(d, "delete dst"))
            wts.append(np.zeros(s.size))
            ops.append(np.full(s.size, cls.DELETE, dtype=np.uint8))
        if reweight is not None:
            s, d, w = reweight
            s = _as_ids(s, "reweight src")
            srcs.append(s)
            dsts.append(_as_ids(d, "reweight dst"))
            wts.append(np.asarray(w, dtype=np.float64).ravel())
            ops.append(np.full(s.size, cls.REWEIGHT, dtype=np.uint8))
        if not srcs:
            return cls.empty()
        return cls(
            src=np.concatenate(srcs),
            dst=np.concatenate(dsts),
            weight=np.concatenate(wts),
            op=np.concatenate(ops),
        )

    @classmethod
    def empty(cls) -> "GraphDelta":
        return cls(
            src=np.empty(0, dtype=np.int64),
            dst=np.empty(0, dtype=np.int64),
            weight=np.empty(0, dtype=np.float64),
            op=np.empty(0, dtype=np.uint8),
        )

    def __len__(self) -> int:
        return int(self.src.size)

    @property
    def is_empty(self) -> bool:
        return self.src.size == 0

    @property
    def num_structural(self) -> int:
        """Edges that change the adjacency structure (insert + delete)."""
        return int(np.count_nonzero(self.op != self.REWEIGHT))

    def touched_vertices(self) -> np.ndarray:
        """Sorted unique endpoints of every edge in the batch."""
        return np.unique(np.concatenate([self.src, self.dst]))

    def counts(self) -> dict[str, int]:
        """``{"insert": .., "delete": .., "reweight": ..}`` sizes."""
        c = np.bincount(self.op, minlength=3)
        return {
            "insert": int(c[self.INSERT]),
            "delete": int(c[self.DELETE]),
            "reweight": int(c[self.REWEIGHT]),
        }

    def __repr__(self) -> str:
        c = self.counts()
        return (
            f"GraphDelta(+{c['insert']} -{c['delete']} ~{c['reweight']})"
        )


# ---------------------------------------------------------------------------
# In-RAM apply
# ---------------------------------------------------------------------------

def _locate(entry_key: np.ndarray, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of *key* in the strictly increasing *entry_key*.

    Returns ``(pos, found)`` — the insertion point per key and whether
    an exact match sits there.
    """
    pos = np.searchsorted(entry_key, key)
    if entry_key.size:
        found = (pos < entry_key.size) & (
            entry_key[np.minimum(pos, entry_key.size - 1)] == key
        )
    else:
        found = np.zeros(key.size, dtype=bool)
    return pos, found


def _check_presence(
    delta: GraphDelta, found: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate per-op presence; return (ins, del, rew) index arrays."""
    ins = np.flatnonzero(delta.op == GraphDelta.INSERT)
    dele = np.flatnonzero(delta.op == GraphDelta.DELETE)
    rew = np.flatnonzero(delta.op == GraphDelta.REWEIGHT)
    bad_ins = ins[found[ins]]
    if bad_ins.size:
        i = int(bad_ins[0])
        raise ValueError(
            f"insert: edge ({delta.src[i]}, {delta.dst[i]}) already present"
        )
    for name, idx in (("delete", dele), ("reweight", rew)):
        bad = idx[~found[idx]]
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"{name}: edge ({delta.src[i]}, {delta.dst[i]}) not present"
            )
    return ins, dele, rew


def apply_delta(
    graph: Graph,
    delta: GraphDelta,
    *,
    num_vertices: "int | None" = None,
) -> Graph:
    """Apply a delta batch to a CSR graph; return the patched graph.

    Requires the builder's canonical layout (``sorted_rows=True``) so
    edge entries resolve by binary search.  Inserts may introduce new
    vertex ids (the vertex set grows to ``max id + 1``, or further via
    *num_vertices*); deletes and reweights must name present edges.

    A reweight-only batch is O(touched) on a copied weights column and
    **shares** ``indptr``/``indices`` with the input.  A structural
    batch splices all three columns (one pass, no sort).  Either way
    the result is bitwise identical to ``from_edge_array`` on the
    patched edge list.
    """
    if not graph.sorted_rows:
        raise ValueError("apply_delta requires a sorted_rows CSR graph")
    n_old = graph.num_vertices
    n_new = n_old
    if len(delta):
        n_new = max(n_new, int(delta.dst.max()) + 1)
    if num_vertices is not None:
        if num_vertices < n_new:
            raise ValueError("num_vertices smaller than max vertex id + 1")
        n_new = int(num_vertices)
    if delta.is_empty and n_new == n_old:
        return graph

    rows = graph._row_of_entry()
    stride = np.int64(n_new)
    entry_key = rows * stride + graph.indices

    # Both stored directions of each delta edge.
    k_fwd = delta.src * stride + delta.dst
    k_rev = delta.dst * stride + delta.src
    pos_fwd, found = _locate(entry_key, k_fwd)
    pos_rev, _ = _locate(entry_key, k_rev)
    ins, dele, rew = _check_presence(delta, found)

    if not ins.size and not dele.size:
        # Reweight-only: structure unchanged, weights column copied.
        new_w = np.array(graph.weights)
        new_w[pos_fwd[rew]] = delta.weight[rew]
        new_w[pos_rev[rew]] = delta.weight[rew]
        indptr = graph.indptr
        if n_new > n_old:
            indptr = np.concatenate(
                [indptr, np.full(n_new - n_old, indptr[-1], dtype=np.int64)]
            )
        return Graph(
            indptr=indptr,
            indices=graph.indices,
            weights=new_w,
            num_self_loops=graph.num_self_loops,
            sorted_rows=True,
        )

    w_work = np.array(graph.weights)
    w_work[pos_fwd[rew]] = delta.weight[rew]
    w_work[pos_rev[rew]] = delta.weight[rew]

    keep = np.ones(graph.nnz, dtype=bool)
    keep[pos_fwd[dele]] = False
    keep[pos_rev[dele]] = False
    kept_rows = rows[keep]
    kept_dst = graph.indices[keep]
    kept_w = w_work[keep]

    ins_rows = np.concatenate([delta.src[ins], delta.dst[ins]])
    ins_dst = np.concatenate([delta.dst[ins], delta.src[ins]])
    ins_w = np.concatenate([delta.weight[ins], delta.weight[ins]])
    order = np.argsort(ins_rows * stride + ins_dst)
    ins_rows, ins_dst, ins_w = ins_rows[order], ins_dst[order], ins_w[order]

    # np.insert positions index the *pre-insert* array, so one
    # searchsorted against the kept keys places every new entry.
    at = np.searchsorted(kept_rows * stride + kept_dst, ins_rows * stride + ins_dst)
    new_indices = np.insert(kept_dst, at, ins_dst)
    new_weights = np.insert(kept_w, at, ins_w)

    deg = np.diff(graph.indptr)
    if n_new > n_old:
        deg = np.concatenate([deg, np.zeros(n_new - n_old, dtype=np.int64)])
    deg = deg - np.bincount(
        np.concatenate([delta.src[dele], delta.dst[dele]]), minlength=n_new
    ) + np.bincount(ins_rows, minlength=n_new)
    indptr = np.zeros(n_new + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    return Graph(
        indptr=indptr,
        indices=new_indices,
        weights=new_weights,
        num_self_loops=graph.num_self_loops,
        sorted_rows=True,
    )


# ---------------------------------------------------------------------------
# On-disk apply
# ---------------------------------------------------------------------------

def _store_positions(
    xadj: np.ndarray,
    adj: np.ndarray,
    rows: np.ndarray,
    dsts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row binary search without materializing O(nnz) keys.

    The store path keeps the adjacency memmapped; deltas are tiny, so
    a Python loop over delta entries beats building a full key column.
    """
    n = xadj.size - 1
    pos = np.empty(rows.size, dtype=np.int64)
    found = np.zeros(rows.size, dtype=bool)
    for i in range(rows.size):
        r = int(rows[i])
        if r >= n:
            pos[i] = int(xadj[-1])
            continue
        lo, hi = int(xadj[r]), int(xadj[r + 1])
        p = lo + int(np.searchsorted(adj[lo:hi], dsts[i]))
        pos[i] = p
        found[i] = p < hi and adj[p] == dsts[i]
    return pos, found


def _store_total_weight(
    wts: np.ndarray, xadj: np.ndarray, adj: np.ndarray, num_self_loops: int
) -> float:
    """``Graph.total_weight`` semantics on store columns, bit-exact.

    ``np.sum`` over the memmapped column uses the same pairwise
    reduction as an in-RAM array of equal length, so the header value
    matches ``graph_to_store`` on the rebuilt graph byte for byte.
    """
    nonself = float(wts.sum())
    self_w = 0.0
    if num_self_loops:
        loop_w = []
        for r in range(xadj.size - 1):
            lo, hi = int(xadj[r]), int(xadj[r + 1])
            seg = adj[lo:hi]
            hit = np.flatnonzero(seg == r)
            if hit.size:
                loop_w.append(wts[lo + hit[0]])
        self_w = float(np.asarray(loop_w).sum())
    return (nonself - self_w) / 2.0 + self_w


def apply_delta_to_store(
    store_dir: "str | Path",
    delta: GraphDelta,
    *,
    num_vertices: "int | None" = None,
    block_entries: "int | None" = None,
) -> dict:
    """Patch an on-disk CSR store in place; return the updated header.

    Reweight-only batches write straight through an ``r+`` memmap of
    ``weights.bin`` — O(touched) I/O.  Structural batches stream row
    blocks through tmp column files (peak RAM stays O(block)), then
    ``os.replace`` the columns and rewrite ``xadj.bin`` + header.

    The patched store is bitwise identical to ``graph_to_store`` of
    the rebuilt patched graph.
    """
    from .extcsr import (
        ADJ_FILE,
        DEFAULT_BLOCK_ENTRIES,
        HEADER_FILE,
        WTS_FILE,
        XADJ_FILE,
        store_header,
    )

    block = int(block_entries or DEFAULT_BLOCK_ENTRIES)
    store = Path(store_dir)
    header = store_header(store)
    if not header.get("sorted_rows", False):
        raise ValueError(f"{store}: store rows not sorted; cannot patch")
    n_old = int(header["num_vertices"])
    nnz_old = int(header["nnz"])
    n_loops = int(header["num_self_loops"])

    n_new = n_old
    if len(delta):
        n_new = max(n_new, int(delta.dst.max()) + 1)
    if num_vertices is not None:
        if num_vertices < n_new:
            raise ValueError("num_vertices smaller than max vertex id + 1")
        n_new = int(num_vertices)

    xadj = np.fromfile(store / XADJ_FILE, dtype=np.int64)
    if nnz_old:
        adj = np.memmap(store / ADJ_FILE, dtype=np.int64, mode="r", shape=(nnz_old,))
    else:
        adj = np.empty(0, dtype=np.int64)

    pos_fwd, found = _store_positions(xadj, adj, delta.src, delta.dst)
    pos_rev, _ = _store_positions(xadj, adj, delta.dst, delta.src)
    ins, dele, rew = _check_presence(delta, found)

    if not ins.size and not dele.size:
        if rew.size:
            wts = np.memmap(
                store / WTS_FILE, dtype=np.float64, mode="r+", shape=(nnz_old,)
            )
            wts[pos_fwd[rew]] = delta.weight[rew]
            wts[pos_rev[rew]] = delta.weight[rew]
            wts.flush()
        if n_new > n_old:
            grown = np.concatenate(
                [xadj, np.full(n_new - n_old, xadj[-1], dtype=np.int64)]
            )
            (store / XADJ_FILE).write_bytes(grown.tobytes())
        nnz_new, xadj_new = nnz_old, None
    else:
        # Structural splice, streamed block by block into tmp columns.
        keep = np.ones(nnz_old, dtype=bool)
        keep[pos_fwd[dele]] = False
        keep[pos_rev[dele]] = False
        stride = np.int64(n_new)
        ins_rows = np.concatenate([delta.src[ins], delta.dst[ins]])
        ins_dst = np.concatenate([delta.dst[ins], delta.src[ins]])
        ins_w = np.concatenate([delta.weight[ins], delta.weight[ins]])
        order = np.argsort(ins_rows * stride + ins_dst)
        ins_rows, ins_dst, ins_w = ins_rows[order], ins_dst[order], ins_w[order]

        if nnz_old:
            wts = np.memmap(
                store / WTS_FILE, dtype=np.float64, mode="r", shape=(nnz_old,)
            )
        else:
            wts = np.empty(0, dtype=np.float64)
        rew_vals = np.zeros(nnz_old, dtype=np.float64)
        rew_mask = np.zeros(nnz_old, dtype=bool)
        rew_vals[pos_fwd[rew]] = delta.weight[rew]
        rew_mask[pos_fwd[rew]] = True
        rew_vals[pos_rev[rew]] = delta.weight[rew]
        rew_mask[pos_rev[rew]] = True

        deg_old = np.diff(xadj)
        if n_new > n_old:
            deg_old = np.concatenate(
                [deg_old, np.zeros(n_new - n_old, dtype=np.int64)]
            )
            xadj = np.concatenate(
                [xadj, np.full(n_new - n_old, xadj[-1], dtype=np.int64)]
            )
        tmp_adj = store / (ADJ_FILE + ".tmp")
        tmp_wts = store / (WTS_FILE + ".tmp")
        nnz_new = 0
        with open(tmp_adj, "wb") as fa, open(tmp_wts, "wb") as fw:
            r0 = 0
            while r0 < n_new:
                r1 = int(
                    np.searchsorted(xadj, xadj[r0] + block, side="right")
                ) - 1
                r1 = min(max(r1, r0 + 1), n_new)
                lo, hi = int(xadj[r0]), int(xadj[r1])
                a = np.array(adj[lo:hi])
                w = np.array(wts[lo:hi])
                sel = rew_mask[lo:hi]
                w[sel] = rew_vals[lo:hi][sel]
                km = keep[lo:hi]
                rows_blk = np.repeat(
                    np.arange(r0, r1, dtype=np.int64), deg_old[r0:r1]
                )
                kr, kd, kw = rows_blk[km], a[km], w[km]
                in_blk = (ins_rows >= r0) & (ins_rows < r1)
                if np.any(in_blk):
                    ir, idst, iw = (
                        ins_rows[in_blk], ins_dst[in_blk], ins_w[in_blk],
                    )
                    at = np.searchsorted(kr * stride + kd, ir * stride + idst)
                    kd = np.insert(kd, at, idst)
                    kw = np.insert(kw, at, iw)
                fa.write(kd.tobytes())
                fw.write(kw.tobytes())
                nnz_new += kd.size
                r0 = r1
        os.replace(tmp_adj, store / ADJ_FILE)
        os.replace(tmp_wts, store / WTS_FILE)
        deg_new = deg_old - np.bincount(
            np.concatenate([delta.src[dele], delta.dst[dele]]), minlength=n_new
        ) + np.bincount(ins_rows, minlength=n_new)
        xadj_new = np.zeros(n_new + 1, dtype=np.int64)
        np.cumsum(deg_new, out=xadj_new[1:])
        (store / XADJ_FILE).write_bytes(xadj_new.tobytes())

    # Rewritten header with recomputed totals.
    del adj
    xadj_cur = np.fromfile(store / XADJ_FILE, dtype=np.int64)
    if nnz_new:
        adj_cur = np.memmap(
            store / ADJ_FILE, dtype=np.int64, mode="r", shape=(nnz_new,)
        )
        wts_cur = np.memmap(
            store / WTS_FILE, dtype=np.float64, mode="r", shape=(nnz_new,)
        )
    else:
        adj_cur = np.empty(0, dtype=np.int64)
        wts_cur = np.empty(0, dtype=np.float64)
    header = dict(header)
    header.update(
        num_vertices=n_new,
        nnz=int(nnz_new),
        num_edges=(int(nnz_new) + n_loops) // 2,
        total_weight=_store_total_weight(wts_cur, xadj_cur, adj_cur, n_loops),
    )
    (store / HEADER_FILE).write_text(json.dumps(header, indent=1))
    return header


# ---------------------------------------------------------------------------
# Dirty region
# ---------------------------------------------------------------------------

def dirty_region(
    graph: Graph, delta: GraphDelta, *, hops: int = 1
) -> np.ndarray:
    """Boolean mask of vertices within *hops* of the delta's endpoints.

    Computed on the **patched** graph so newly inserted edges extend
    the frontier.  ``hops=0`` marks only the endpoints themselves; the
    warm-start default is 1 hop — every vertex whose neighbourhood
    term in the map equation changed.
    """
    mask = np.zeros(graph.num_vertices, dtype=bool)
    if delta.is_empty:
        return mask
    frontier = delta.touched_vertices()
    if frontier.size and frontier[-1] >= graph.num_vertices:
        raise ValueError("delta touches vertices beyond the patched graph")
    mask[frontier] = True
    for _ in range(int(hops)):
        entries, _ = gather_rows(graph.indptr, frontier)
        if not entries.size:
            break
        nbrs = np.unique(graph.indices[entries])
        fresh = nbrs[~mask[nbrs]]
        if not fresh.size:
            break
        mask[fresh] = True
        frontier = fresh
    return mask


# ---------------------------------------------------------------------------
# Delta files
# ---------------------------------------------------------------------------

def read_delta_file(path: "str | Path", *, comments: str = "#") -> GraphDelta:
    """Parse a delta file into a :class:`GraphDelta`.

    One mutation per line::

        + u v [w]    insert edge (default weight 1.0)
        - u v        delete edge
        ~ u v w      reweight edge

    Blank lines and ``#`` comments are skipped.  Deltas are small by
    definition (they describe a drift, not a graph), so this is a
    plain line parser, not a chunked reader.
    """
    srcs: list[int] = []
    dsts: list[int] = []
    wts: list[float] = []
    ops: list[int] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith(comments):
                continue
            parts = line.split()
            tag = parts[0]
            try:
                if tag == "+" and len(parts) in (3, 4):
                    srcs.append(int(parts[1]))
                    dsts.append(int(parts[2]))
                    wts.append(float(parts[3]) if len(parts) == 4 else 1.0)
                    ops.append(GraphDelta.INSERT)
                elif tag == "-" and len(parts) == 3:
                    srcs.append(int(parts[1]))
                    dsts.append(int(parts[2]))
                    wts.append(0.0)
                    ops.append(GraphDelta.DELETE)
                elif tag == "~" and len(parts) == 4:
                    srcs.append(int(parts[1]))
                    dsts.append(int(parts[2]))
                    wts.append(float(parts[3]))
                    ops.append(GraphDelta.REWEIGHT)
                else:
                    raise ValueError("unrecognized mutation")
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: bad delta line {line!r} ({exc})"
                ) from None
    return GraphDelta(
        src=np.asarray(srcs, dtype=np.int64),
        dst=np.asarray(dsts, dtype=np.int64),
        weight=np.asarray(wts, dtype=np.float64),
        op=np.asarray(ops, dtype=np.uint8),
    )


def write_delta_file(path: "str | Path", delta: GraphDelta) -> None:
    """Write a delta in the :func:`read_delta_file` format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# repro-infomap graph delta\n")
        for i in range(len(delta)):
            u, v = int(delta.src[i]), int(delta.dst[i])
            op = int(delta.op[i])
            if op == GraphDelta.INSERT:
                fh.write(f"+ {u} {v} {float(delta.weight[i])!r}\n")
            elif op == GraphDelta.DELETE:
                fh.write(f"- {u} {v}\n")
            else:
                fh.write(f"~ {u} {v} {float(delta.weight[i])!r}\n")
