"""Graph construction: canonicalize raw edges into the CSR format.

Everything here is vectorized numpy (sort + bincount) so building a
million-edge graph costs milliseconds, per the optimization guide's
"no Python loops over edges" rule.  Every stable integer sort of the
ingest path runs through :func:`stable_order`, a radix sort over
16-bit digits.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .graph import Graph

__all__ = [
    "from_edges",
    "from_edge_array",
    "from_adjacency",
    "relabel_compact",
    "stable_order",
    "validate_edge_chunk",
]

#: Bits per radix digit: numpy sorts ``uint16`` keys by radix sort.
_DIGIT_BITS = 16


def stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for a 1-D array of
    non-negative integer keys.

    An LSD radix sort: one stable ``uint16`` argsort (numpy's radix
    sort) per 16-bit digit, lowest digit first, over as many digits as
    ``keys.max()`` needs; each pass reads its digit through a
    ``uint16`` view of the keys.  A stable sort's permutation is unique
    (equal keys keep their input order), and each pass is stable on its
    digit, so the result equals numpy's stable ``int64`` argsort
    element for element, several times faster on the dense vertex ids
    and packed ``row * n + col`` keys the builders sort.  Peak
    transients are about 25 bytes per key.

    Keys of any integer dtype are taken as ``int64``; a negative key
    raises ``ValueError``.  Returns an ``int64`` (``intp``) permutation.
    """
    keys = np.ascontiguousarray(keys, dtype="<i8")
    if not keys.size:
        return np.empty(0, dtype=np.intp)
    if keys.min() < 0:
        raise ValueError("stable_order keys must be non-negative")
    top = int(keys.max()).bit_length()
    digits = keys.view("<u2").reshape(keys.size, 64 // _DIGIT_BITS)
    order = np.argsort(digits[:, 0], kind="stable")
    for d in range(1, -(-top // _DIGIT_BITS)):
        order = order[np.argsort(digits[order, d], kind="stable")]
    return order


def validate_edge_chunk(
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coerce and validate one block of raw edges.

    The shared front door of :func:`from_edge_array` (which validates
    the whole edge set at once) and the out-of-core store builder
    (which validates chunk by chunk) — both reject the same inputs with
    the same messages.

    Returns ``(src, dst, weights)`` as ``int64``/``int64``/``float64``
    arrays, weights defaulting to all-ones.
    """
    src = np.asarray(src, dtype=np.int64).ravel()
    dst = np.asarray(dst, dtype=np.int64).ravel()
    if src.shape != dst.shape:
        raise ValueError(f"src and dst differ in length: {src.size} vs {dst.size}")
    if weights is None:
        wts = np.ones(src.size, dtype=np.float64)
    else:
        wts = np.asarray(weights, dtype=np.float64).ravel()
        if wts.shape != src.shape:
            raise ValueError("weights length must match edge count")
        if not np.all(np.isfinite(wts)):
            raise ValueError("edge weights must be finite")
        if np.any(wts <= 0):
            raise ValueError("edge weights must be positive")
    if src.size and (src.min() < 0 or dst.min() < 0):
        raise ValueError("vertex ids must be non-negative")
    return src, dst, wts


def from_edges(
    edges: Iterable[tuple[int, int] | tuple[int, int, float]],
    *,
    num_vertices: int | None = None,
    dedup: str = "sum",
    keep_self_loops: bool = False,
) -> Graph:
    """Build a :class:`Graph` from an iterable of ``(u, v[, w])`` tuples.

    Convenience wrapper over :func:`from_edge_array`; see it for the
    parameter semantics.
    """
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
    for e in edges:
        if len(e) == 2:
            u, v = e  # type: ignore[misc]
            w = 1.0
        else:
            u, v, w = e  # type: ignore[misc]
        us.append(u)
        vs.append(v)
        ws.append(w)
    src = np.asarray(us, dtype=np.int64)
    dst = np.asarray(vs, dtype=np.int64)
    wts = np.asarray(ws, dtype=np.float64)
    return from_edge_array(
        src, dst, wts, num_vertices=num_vertices, dedup=dedup,
        keep_self_loops=keep_self_loops,
    )


def from_edge_array(
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray | None = None,
    *,
    num_vertices: int | None = None,
    dedup: str = "sum",
    keep_self_loops: bool = False,
) -> Graph:
    """Build a :class:`Graph` from parallel numpy edge arrays.

    Args:
        src, dst: endpoint arrays (any integer dtype); edges are
            undirected, so ``(u, v)`` and ``(v, u)`` are the same edge.
        weights: optional per-edge weights (default all 1.0).
        num_vertices: explicit vertex count; default ``max(id)+1``
            (isolated trailing vertices need the explicit form).
        dedup: what to do with parallel edges — ``"sum"`` their weights
            (default; matches multigraph flow semantics), ``"first"``
            keep the first occurrence, or ``"error"``.
        keep_self_loops: drop self-loops by default (community
            detection input convention); keep them for coarsened graphs.

    Two sorts, both :func:`stable_order`: the canonical edges by the
    packed key ``u * n + v`` (stable, so a duplicate group keeps input
    order: ``"first"`` keeps the first occurrence and ``"sum"`` adds
    weights in input order), with a head mask over the sorted keys
    marking each group's first entry; then both mirror directions by
    ``src * n + dst``, which orders every row by neighbour.  Both keys
    are below ``n**2``, which must fit ``int64`` (``n < 3.03e9``).

    Raises:
        ValueError: negative ids, shape mismatch, or non-finite /
            non-positive weights (zero-weight edges carry no flow and
            would produce log(0) downstream — reject early).
    """
    src, dst, wts = validate_edge_chunk(src, dst, weights)

    n = int(num_vertices) if num_vertices is not None else (
        int(max(src.max(initial=-1), dst.max(initial=-1))) + 1 if src.size else 0
    )
    if src.size and max(src.max(initial=0), dst.max(initial=0)) >= n:
        raise ValueError("num_vertices smaller than max vertex id + 1")

    # Canonical orientation u <= v, then dedup on the (u, v) key.
    u = np.minimum(src, dst)
    v = np.maximum(src, dst)
    if not keep_self_loops:
        mask = u != v
        u, v, wts = u[mask], v[mask], wts[mask]

    if u.size:
        key = u * np.int64(n) + v
        order = stable_order(key)
        key, u, v, wts = key[order], u[order], v[order], wts[order]
        del order
        start = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        del key
        if start.size != u.size:
            if dedup == "error":
                raise ValueError("parallel edges present and dedup='error'")
            if dedup == "first":
                u, v, wts = u[start], v[start], wts[start]
            elif dedup == "sum":
                seg = np.add.reduceat(wts, start)
                u, v, wts = u[start], v[start], seg
            else:
                raise ValueError(f"unknown dedup policy {dedup!r}")
        del start

    loops = u == v
    n_loops = int(np.count_nonzero(loops))

    # Assemble both directions for non-self edges, one entry for loops.
    nl = ~loops
    all_src = np.concatenate([u[nl], v[nl], u[loops]])
    all_dst = np.concatenate([v[nl], u[nl], v[loops]])
    all_w = np.concatenate([wts[nl], wts[nl], wts[loops]])
    del u, v, wts, loops, nl

    # Entries are distinct (src, dst) pairs, so this sort by the packed
    # key orders every adjacency row by neighbour id (recorded for
    # searchsorted edge lookups).
    order = stable_order(all_src * np.int64(n) + all_dst)
    all_dst, all_w = all_dst[order], all_w[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(all_src, minlength=n), out=indptr[1:])
    return Graph(
        indptr=indptr, indices=all_dst, weights=all_w, num_self_loops=n_loops,
        sorted_rows=True,
    )


def from_adjacency(adj: Sequence[Sequence[int]]) -> Graph:
    """Build an unweighted graph from an adjacency-list-of-lists.

    Each undirected edge may appear in one or both endpoint lists;
    duplicates collapse to a single unit-weight edge.
    """
    us: list[int] = []
    vs: list[int] = []
    for u, nbrs in enumerate(adj):
        for v in nbrs:
            us.append(u)
            vs.append(v)
    return from_edge_array(
        np.asarray(us, dtype=np.int64),
        np.asarray(vs, dtype=np.int64),
        num_vertices=len(adj),
        dedup="first",
    )


def relabel_compact(
    src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relabel arbitrary vertex ids onto ``0..n-1``.

    Returns ``(new_src, new_dst, original_ids)`` where
    ``original_ids[new_id] == old_id``.  Used by the IO readers, whose
    files routinely skip ids.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    ids = np.unique(np.concatenate([src, dst]))
    new_src = np.searchsorted(ids, src)
    new_dst = np.searchsorted(ids, dst)
    return new_src, new_dst, ids
