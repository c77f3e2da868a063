"""Out-of-core CSR store: build on disk, re-open in O(1), mmap in.

The paper ingests billion-edge crawls that never fit one address
space; this module is the repo's scaled-down analogue of that ingest
phase.  A *store* is a directory holding the three CSR columns as raw
little-endian binary files plus a JSON header:

    header.json   num_vertices, nnz, self-loops, total weight, dtypes
    xadj.bin      int64[n+1]    row offsets
    adjncy.bin    int64[nnz]    neighbour ids (rows sorted ascending)
    weights.bin   float64[nnz]  per-entry weights

Building is streaming and external: pass A canonicalizes edge chunks
(``u <= v``, loop policy) into flat on-disk triples while counting raw
per-row degrees; pass B counting-scatters both mirror directions into
a pre-dedup on-disk CSR (per-row entries in file order); pass C walks
contiguous row blocks, sorts each row by neighbour, merges duplicates
under the same dedup policy as :func:`repro.graph.builder.from_edge_array`,
and compacts in place.  Peak RAM is O(num_vertices) counters plus one
block of entries — never the edge set.

Both sorting passes use :func:`repro.graph.builder.stable_order`, the
in-RAM builder's kernel: LSD radix passes of numpy's stable ``uint16``
argsort over the 16-bit digits of the key (pass B's row ids; pass C's
packed ``(row - r0) * n + neighbour``, below ``n**2``).  A stable
sort's permutation is unique, so the kernel's is exactly
``np.argsort(kind="stable")``'s.

The result is **bitwise identical** to the in-RAM builder: within a
duplicate group entries stay in file order (stable sorts throughout),
so ``dedup="sum"`` reduces the identical float sequence and
``dedup="first"`` picks the identical survivor.  Tests assert byte
equality of all three columns.

``open_csr_store`` returns a normal :class:`~repro.graph.graph.Graph`
whose columns are read-only ``np.memmap`` views — every downstream
consumer (partitioners, solvers, fingerprinting) takes it unchanged
because memmaps are ndarray subclasses.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .builder import stable_order, validate_edge_chunk
from .graph import Graph
from .io import DEFAULT_CHUNK_BYTES, EdgeChunk, iter_edgelist_chunks, iter_metis_chunks

__all__ = [
    "HEADER_FILE",
    "XADJ_FILE",
    "ADJ_FILE",
    "WTS_FILE",
    "DEFAULT_BLOCK_ENTRIES",
    "build_csr_store",
    "graph_to_store",
    "open_csr_store",
    "store_header",
    "edgelist_to_store",
    "metis_to_store",
    "snap_to_store",
]

HEADER_FILE = "header.json"
XADJ_FILE = "xadj.bin"
ADJ_FILE = "adjncy.bin"
WTS_FILE = "weights.bin"

#: Entries processed per block in the scatter/compaction passes
#: (1M entries ≈ 16 MB of int64+float64 temporaries).
DEFAULT_BLOCK_ENTRIES = 1 << 20

_FORMAT = "repro-extcsr"
_VERSION = 1


def _scatter_side(
    adj: np.ndarray,
    wgt: np.ndarray,
    nxt: np.ndarray,
    rows: np.ndarray,
    dsts: np.ndarray,
    ws: np.ndarray,
) -> None:
    """Counting-scatter one mirror direction of a block.

    ``nxt`` holds each row's write cursor; entries of the same row land
    at consecutive cursor positions *in block order* (stable sort),
    which is what keeps duplicate groups in file order end to end.
    """
    if not rows.size:
        return
    order = stable_order(rows)
    rs = rows[order]
    starts = np.flatnonzero(np.concatenate(([True], rs[1:] != rs[:-1])))
    lens = np.diff(np.append(starts, rs.size))
    idx_in_run = np.arange(rs.size, dtype=np.int64) - np.repeat(starts, lens)
    pos = nxt[rs] + idx_in_run
    adj[pos] = dsts[order]
    wgt[pos] = ws[order]
    nxt[rs[starts]] += lens


def build_csr_store(
    chunks: Iterable[EdgeChunk],
    out_dir: str | Path,
    *,
    num_vertices: int | None = None,
    dedup: str = "sum",
    keep_self_loops: bool = False,
    block_entries: int = DEFAULT_BLOCK_ENTRIES,
) -> dict:
    """Stream edge chunks into an on-disk CSR store; return its header.

    Mirrors :func:`repro.graph.builder.from_edge_array` (same
    canonicalization, dedup policies, validation messages, and bitwise
    output) but never materializes more than ``block_entries`` edges
    plus O(num_vertices) degree counters in RAM.
    """
    if dedup not in ("sum", "first", "error"):
        raise ValueError(f"unknown dedup policy {dedup!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tmp_u, tmp_v, tmp_w = (out / f"_{c}.tmp" for c in "uvw")

    # Pass A: canonicalize chunks to flat on-disk triples + raw degrees.
    deg = np.zeros(1024, dtype=np.int64)
    max_raw = -1
    saw_edges = False
    m_canon = 0
    with open(tmp_u, "wb") as fu, open(tmp_v, "wb") as fv, open(tmp_w, "wb") as fw:
        for chunk in chunks:
            src, dst, wts = validate_edge_chunk(
                chunk.src, chunk.dst, chunk.weights
            )
            if not src.size:
                continue
            saw_edges = True
            max_raw = max(max_raw, int(src.max()), int(dst.max()))
            if max_raw >= deg.size:
                deg = np.concatenate(
                    [deg, np.zeros(max_raw + 1 - deg.size, dtype=np.int64)]
                )
            u = np.minimum(src, dst)
            v = np.maximum(src, dst)
            if not keep_self_loops:
                nonloop = u != v
                u, v, wts = u[nonloop], v[nonloop], wts[nonloop]
            deg += np.bincount(u, minlength=deg.size)
            deg += np.bincount(v[u != v], minlength=deg.size)
            fu.write(u.tobytes())
            fv.write(v.tobytes())
            fw.write(wts.tobytes())
            m_canon += u.size

    n = int(num_vertices) if num_vertices is not None else (
        max_raw + 1 if saw_edges else 0
    )
    if saw_edges and max_raw >= n:
        for p in (tmp_u, tmp_v, tmp_w):
            os.unlink(p)
        raise ValueError("num_vertices smaller than max vertex id + 1")
    deg = deg[:n] if deg.size >= n else np.concatenate(
        [deg, np.zeros(n - deg.size, dtype=np.int64)]
    )
    xadj_raw = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=xadj_raw[1:])
    nnz_raw = int(xadj_raw[-1])

    adj_path, wts_path = out / ADJ_FILE, out / WTS_FILE
    nnz = 0
    n_loops = 0
    sum_all = 0.0
    sum_self = 0.0
    deg_final = np.zeros(n, dtype=np.int64)
    if nnz_raw:
        # Pass B: counting-scatter both mirror directions by row.
        u_all = np.memmap(tmp_u, dtype=np.int64, mode="r")
        v_all = np.memmap(tmp_v, dtype=np.int64, mode="r")
        w_all = np.memmap(tmp_w, dtype=np.float64, mode="r")
        adj = np.memmap(adj_path, dtype=np.int64, mode="w+", shape=(nnz_raw,))
        wgt = np.memmap(wts_path, dtype=np.float64, mode="w+", shape=(nnz_raw,))
        nxt = xadj_raw[:-1].copy()
        for lo in range(0, m_canon, block_entries):
            hi = min(lo + block_entries, m_canon)
            ub = np.array(u_all[lo:hi])
            vb = np.array(v_all[lo:hi])
            wb = np.array(w_all[lo:hi])
            nonloop = ub != vb
            _scatter_side(adj, wgt, nxt, ub, vb, wb)
            _scatter_side(
                adj, wgt, nxt, vb[nonloop], ub[nonloop], wb[nonloop]
            )
        del u_all, v_all, w_all

        # Pass C: per row block, sort rows by neighbour, dedup, compact
        # in place (the write cursor never passes the read cursor).
        write = 0
        r0 = 0
        while r0 < n:
            r1 = int(
                np.searchsorted(
                    xadj_raw, xadj_raw[r0] + block_entries, side="right"
                )
            ) - 1
            r1 = min(max(r1, r0 + 1), n)
            lo, hi = int(xadj_raw[r0]), int(xadj_raw[r1])
            a = np.array(adj[lo:hi])
            rows = np.repeat(
                np.arange(r0, r1, dtype=np.int64),
                deg[r0:r1],
            )
            # (rows - r0) * n + a < n**2, the bound from_edge_array's
            # u * n + v assumes; stable, so ties keep file order.  Rows
            # are ascending already, so the sort leaves them in place.
            order = stable_order((rows - r0) * np.int64(n) + a)
            a = a[order]
            w = np.asarray(wgt[lo:hi])[order]
            del order
            if a.size:
                grp = np.concatenate(
                    ([True], (rows[1:] != rows[:-1]) | (a[1:] != a[:-1]))
                )
                starts = np.flatnonzero(grp)
                if starts.size != a.size and dedup == "error":
                    raise ValueError("parallel edges present and dedup='error'")
                if dedup == "sum" and starts.size != a.size:
                    wf = np.add.reduceat(w, starts)
                else:
                    wf = w[starts]
                af, rf = a[starts], rows[starts]
                deg_final[r0:r1] += np.bincount(rf - r0, minlength=r1 - r0)
                loop_mask = af == rf
                n_loops += int(np.count_nonzero(loop_mask))
                sum_all += float(np.sum(wf))
                sum_self += float(np.sum(wf[loop_mask]))
                k = af.size
                adj[write : write + k] = af
                wgt[write : write + k] = wf
                write += k
            r0 = r1
        nnz = write
        adj.flush()
        wgt.flush()
        del adj, wgt
        os.truncate(adj_path, nnz * 8)
        os.truncate(wts_path, nnz * 8)
    else:
        adj_path.write_bytes(b"")
        wts_path.write_bytes(b"")
    for p in (tmp_u, tmp_v, tmp_w):
        os.unlink(p)

    xadj = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg_final, out=xadj[1:])
    (out / XADJ_FILE).write_bytes(xadj.tobytes())

    header = {
        "format": _FORMAT,
        "version": _VERSION,
        "num_vertices": n,
        "nnz": nnz,
        "num_self_loops": n_loops,
        "num_edges": (nnz + n_loops) // 2,
        "total_weight": (sum_all - sum_self) / 2.0 + sum_self,
        "sorted_rows": True,
        "dtypes": {"xadj": "int64", "adjncy": "int64", "weights": "float64"},
        "files": {"xadj": XADJ_FILE, "adjncy": ADJ_FILE, "weights": WTS_FILE},
    }
    (out / HEADER_FILE).write_text(json.dumps(header, indent=1))
    return header


def graph_to_store(
    graph: Graph,
    out_dir: str | Path,
    *,
    block_entries: int = DEFAULT_BLOCK_ENTRIES,
) -> dict:
    """Persist an already-built :class:`Graph` as a CSR store.

    Column bytes are streamed out in blocks (works for memmapped
    inputs too); the header records the exact counts so re-opening is
    metadata-only.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for arr, fname in (
        (graph.indptr, XADJ_FILE),
        (graph.indices, ADJ_FILE),
        (graph.weights, WTS_FILE),
    ):
        with open(out / fname, "wb") as fh:
            for i in range(0, arr.size, block_entries):
                fh.write(np.ascontiguousarray(arr[i : i + block_entries]).tobytes())
    header = {
        "format": _FORMAT,
        "version": _VERSION,
        "num_vertices": graph.num_vertices,
        "nnz": graph.nnz,
        "num_self_loops": graph.num_self_loops,
        "num_edges": graph.num_edges,
        "total_weight": float(graph.total_weight),
        "sorted_rows": bool(graph.sorted_rows),
        "dtypes": {"xadj": "int64", "adjncy": "int64", "weights": "float64"},
        "files": {"xadj": XADJ_FILE, "adjncy": ADJ_FILE, "weights": WTS_FILE},
    }
    (out / HEADER_FILE).write_text(json.dumps(header, indent=1))
    return header


def store_header(store_dir: str | Path) -> dict:
    """Read and sanity-check a store's ``header.json``."""
    path = Path(store_dir) / HEADER_FILE
    if not path.is_file():
        raise FileNotFoundError(f"{store_dir}: not a CSR store (no {HEADER_FILE})")
    header = json.loads(path.read_text())
    if header.get("format") != _FORMAT:
        raise ValueError(f"{path}: unknown store format {header.get('format')!r}")
    if header.get("version") != _VERSION:
        raise ValueError(f"{path}: unsupported store version {header.get('version')!r}")
    return header


def open_csr_store(store_dir: str | Path) -> Graph:
    """Open a CSR store as a :class:`Graph` with memmapped columns.

    O(1): only the header is parsed; the columns are read-only
    ``np.memmap`` views paged in on access.  Zero-edge stores fall back
    to plain empty arrays (zero-length files cannot be mapped).
    """
    store = Path(store_dir)
    header = store_header(store)
    n = int(header["num_vertices"])
    nnz = int(header["nnz"])
    xadj = np.memmap(store / XADJ_FILE, dtype=np.int64, mode="r", shape=(n + 1,))
    if nnz:
        adj = np.memmap(store / ADJ_FILE, dtype=np.int64, mode="r", shape=(nnz,))
        wts = np.memmap(store / WTS_FILE, dtype=np.float64, mode="r", shape=(nnz,))
    else:
        adj = np.empty(0, dtype=np.int64)
        wts = np.empty(0, dtype=np.float64)
    return Graph(
        indptr=xadj,
        indices=adj,
        weights=wts,
        num_self_loops=int(header["num_self_loops"]),
        sorted_rows=bool(header.get("sorted_rows", False)),
    )


def edgelist_to_store(
    path: str | Path,
    out_dir: str | Path,
    *,
    comments: str = "#",
    weighted: "bool | None" = None,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    dedup: str = "sum",
    keep_self_loops: bool = False,
    block_entries: int = DEFAULT_BLOCK_ENTRIES,
) -> dict:
    """Stream an edge-list file straight into a CSR store.

    The fully out-of-core ingest path: text chunks in, memmap CSR out,
    never all edges in RAM.  Vertex ids must already be compact
    (``0..n-1``); files with arbitrary ids go through
    :func:`repro.graph.io.read_edgelist` with ``relabel=True`` instead.
    """
    chunks = iter_edgelist_chunks(
        path, comments=comments, weighted=weighted, chunk_bytes=chunk_bytes
    )
    return build_csr_store(
        chunks,
        out_dir,
        dedup=dedup,
        keep_self_loops=keep_self_loops,
        block_entries=block_entries,
    )


def snap_to_store(
    path: str | Path,
    out_dir: str | Path,
    *,
    weighted: "bool | None" = None,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    dedup: str = "sum",
    keep_self_loops: bool = False,
    block_entries: int = DEFAULT_BLOCK_ENTRIES,
) -> dict:
    """Stream a SNAP edge list into a CSR store.

    SNAP downloads are ``#``-commented whitespace edge lists, exactly
    what :func:`edgelist_to_store` streams already; this alias pins the
    SNAP comment convention (mirroring
    :func:`repro.graph.io.read_snap`).  Ids must be compact ``0..n-1``
    — SNAP files with sparse id spaces go through
    :func:`repro.graph.io.read_snap` with ``relabel=True`` and then
    :func:`graph_to_store`.
    """
    return edgelist_to_store(
        path,
        out_dir,
        comments="#",
        weighted=weighted,
        chunk_bytes=chunk_bytes,
        dedup=dedup,
        keep_self_loops=keep_self_loops,
        block_entries=block_entries,
    )


def metis_to_store(
    path: str | Path,
    out_dir: str | Path,
    *,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    block_entries: int = DEFAULT_BLOCK_ENTRIES,
) -> dict:
    """Stream a METIS ``.graph`` file into a CSR store.

    Applies the same header validation as
    :func:`repro.graph.io.read_metis` (row count against *n*, edge
    count against *m*) and the METIS reader's ``dedup="first"``.
    """
    it = iter_metis_chunks(path, chunk_bytes=chunk_bytes)
    _tag, n, m, _has_ew = next(it)
    state: dict = {}

    def gen() -> Iterator[EdgeChunk]:
        for item in it:
            if item[0] == "rows":
                state["rows"] = item[1]
            else:
                yield EdgeChunk(src=item[1], dst=item[2], weights=item[3])

    header = build_csr_store(
        gen(), out_dir, num_vertices=n, dedup="first",
        block_entries=block_entries,
    )
    if state.get("rows", 0) != n:
        raise ValueError(
            f"{path}: header says n={n} but found {state.get('rows', 0)} rows"
        )
    if header["num_edges"] != m:
        raise ValueError(
            f"{path}: header says m={m} but adjacency has {header['num_edges']}"
        )
    return header
