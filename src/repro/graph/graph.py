"""Immutable CSR graph: the storage format every algorithm runs on.

The paper's workload model (§3.3) is "work per vertex ∝ its edge
count", so the core data structure is a compressed-sparse-row adjacency
whose per-vertex neighbour slices are contiguous numpy views — the
layout the optimization guide calls for (sequential access, views not
copies, vectorized degree math).

Conventions:

* Undirected, weighted.  Every undirected edge ``{u, v}`` with ``u != v``
  is stored **twice** (once in each endpoint's adjacency row).
* Self-loops ``{u, u}`` are stored **once** in ``u``'s row.  Their
  weight is kept (coarsened graphs need intra-community mass) but the
  flow machinery excludes them from exit probabilities, matching the
  paper ("self-connected edges excluded").
* ``num_edges`` counts undirected edges (self-loops count once);
  ``indices.size`` is therefore ``2*num_edges - num_self_loops``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = ["Graph", "gather_rows"]


def gather_rows(
    indptr: np.ndarray, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the CSR entry ranges of a block of vertices.

    The vectorized replacement for ``for v in vertices: slice(...)``:
    one call yields the entry indices of every vertex's adjacency run,
    in per-vertex CSR order, plus which block position each entry
    belongs to.

    Args:
        indptr: ``int64[n+1]`` CSR row offsets.
        vertices: ``int64[B]`` row ids to gather (any order, repeats
            allowed).

    Returns:
        ``(entries, owner)`` where ``entries[j]`` indexes into the CSR
        data arrays and ``owner[j]`` is the position in *vertices* the
        entry belongs to.  ``owner`` is non-decreasing.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    starts = indptr[vertices]
    deg = indptr[vertices + 1] - starts
    total = int(deg.sum())
    owner = np.repeat(np.arange(vertices.size, dtype=np.int64), deg)
    if total == 0:
        return np.empty(0, dtype=np.int64), owner
    # Within-run offset = global position minus the run's start in the
    # concatenation; add the run's CSR start to land on the entry.
    run_start = np.cumsum(deg) - deg
    entries = np.arange(total, dtype=np.int64) + np.repeat(
        starts - run_start, deg
    )
    return entries, owner


@dataclass(frozen=True)
class Graph:
    """An immutable undirected weighted graph in CSR form.

    Attributes:
        indptr: ``int64[n+1]`` row offsets into ``indices``/``weights``.
        indices: ``int64[nnz]`` neighbour vertex ids.
        weights: ``float64[nnz]`` edge weights (per adjacency entry; the
            two stored directions of one undirected edge carry the same
            weight).
        num_self_loops: number of distinct self-loop edges.
        sorted_rows: True when every adjacency row is sorted by
            neighbour id (the builder's canonical layout), enabling
            ``searchsorted`` lookups in :meth:`has_edge` /
            :meth:`edge_weight`.

    Construct through :mod:`repro.graph.builder` (which canonicalizes,
    deduplicates and validates) rather than directly.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    num_self_loops: int = 0
    sorted_rows: bool = False

    def __post_init__(self) -> None:
        if self.indptr.ndim != 1 or self.indptr.size < 1:
            raise ValueError("indptr must be a 1-D array of size n+1 >= 1")
        if self.indices.shape != self.weights.shape:
            raise ValueError("indices and weights must have the same shape")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must start at 0 and end at nnz")

    # -- sizes ---------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.indptr.size - 1

    @property
    def nnz(self) -> int:
        """Number of stored adjacency entries (directed half-edges)."""
        return self.indices.size

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (self-loops counted once)."""
        return (self.nnz + self.num_self_loops) // 2

    @property
    def total_weight(self) -> float:
        """Sum of undirected edge weights W (self-loops counted once)."""
        nonself = float(self.weights.sum())
        # Every non-self edge was counted twice above; self-loops once.
        self_w = self.self_loop_weights().sum() if self.num_self_loops else 0.0
        return (nonself - self_w) / 2.0 + self_w

    @property
    def csr_nbytes(self) -> int:
        """Bytes of the three CSR columns (the graph's storage cost)."""
        return int(
            self.indptr.nbytes + self.indices.nbytes + self.weights.nbytes
        )

    @property
    def is_memmapped(self) -> bool:
        """True when the CSR columns are file-backed ``np.memmap`` views
        (an out-of-core store opened by
        :func:`repro.graph.extcsr.open_csr_store`)."""
        return any(
            isinstance(a, np.memmap)
            for a in (self.indptr, self.indices, self.weights)
        )

    # -- per-vertex views -----------------------------------------------------
    def neighbors(self, u: int) -> np.ndarray:
        """Neighbour ids of *u* as a zero-copy view."""
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def neighbor_weights(self, u: int) -> np.ndarray:
        """Weights aligned with :meth:`neighbors`, zero-copy."""
        return self.weights[self.indptr[u] : self.indptr[u + 1]]

    def degree(self, u: int) -> int:
        """Number of adjacency entries of *u* (self-loop counts once)."""
        return int(self.indptr[u + 1] - self.indptr[u])

    def degrees(self) -> np.ndarray:
        """All vertex degrees at once (vectorized ``diff`` of indptr)."""
        return np.diff(self.indptr)

    def weighted_degrees(self, *, self_loop_factor: float = 2.0) -> np.ndarray:
        """Per-vertex sum of incident edge weights.

        ``self_loop_factor=2.0`` (default) counts a self-loop twice,
        the usual convention for modularity/strength; pass ``1.0`` to
        count it once or ``0.0`` to exclude self-loops entirely (the
        Infomap exit-flow convention).
        """
        strength = np.zeros(self.num_vertices)
        np.add.at(strength, self._row_of_entry(), self.weights)
        if self.num_self_loops and self_loop_factor != 1.0:
            mask = self._self_loop_mask()
            rows = self._row_of_entry()[mask]
            np.add.at(strength, rows, (self_loop_factor - 1.0) * self.weights[mask])
        return strength

    def _row_of_entry(self) -> np.ndarray:
        """Source vertex of each adjacency entry (cached)."""
        cache = self.__dict__.get("_rows")
        if cache is None:
            cache = np.repeat(
                np.arange(self.num_vertices, dtype=np.int64), self.degrees()
            )
            object.__setattr__(self, "_rows", cache)
        return cache

    def _self_loop_mask(self) -> np.ndarray:
        return self._row_of_entry() == self.indices

    def self_loop_weights(self) -> np.ndarray:
        """Weights of self-loop adjacency entries (possibly empty)."""
        if not self.num_self_loops:
            return np.empty(0)
        return self.weights[self._self_loop_mask()]

    # -- edge iteration ---------------------------------------------------------
    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield each undirected edge once as ``(u, v, w)`` with ``u <= v``."""
        rows = self._row_of_entry()
        keep = rows <= self.indices
        for u, v, w in zip(rows[keep], self.indices[keep], self.weights[keep]):
            yield int(u), int(v), float(w)

    def edge_array(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All undirected edges at once: ``(src, dst, w)`` with ``src <= dst``."""
        rows = self._row_of_entry()
        keep = rows <= self.indices
        return rows[keep], self.indices[keep], self.weights[keep]

    # -- misc --------------------------------------------------------------------
    def _find_entry(self, u: int, v: int) -> int:
        """Index into the data arrays of entry ``(u, v)``, or -1.

        Binary search when rows are sorted (builder graphs), linear scan
        otherwise.
        """
        lo, hi = int(self.indptr[u]), int(self.indptr[u + 1])
        if self.sorted_rows:
            pos = lo + int(np.searchsorted(self.indices[lo:hi], v))
            if pos < hi and self.indices[pos] == v:
                return pos
            return -1
        hits = np.flatnonzero(self.indices[lo:hi] == v)
        if hits.size == 0:
            return -1
        return lo + int(hits[0])

    def has_edge(self, u: int, v: int) -> bool:
        return self._find_entry(u, v) >= 0

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``{u, v}`` or 0.0 if absent."""
        pos = self._find_entry(u, v)
        if pos < 0:
            return 0.0
        return float(self.weights[pos])

    def is_weighted(self) -> bool:
        """True unless every weight equals 1.0."""
        return not bool(np.all(self.weights == 1.0))

    def __repr__(self) -> str:
        return (
            f"Graph(n={self.num_vertices}, m={self.num_edges}, "
            f"self_loops={self.num_self_loops}, W={self.total_weight:.4g})"
        )

    def validate(self) -> None:
        """Exhaustive structural check (used by tests, not hot paths).

        Verifies CSR monotonicity, symmetric adjacency with matching
        weights, in-range indices and the self-loop count.
        """
        n = self.num_vertices
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.nnz and (self.indices.min() < 0 or self.indices.max() >= n):
            raise ValueError("neighbor index out of range")
        rows = self._row_of_entry()
        loops = int(np.count_nonzero(rows == self.indices))
        if loops != self.num_self_loops:
            raise ValueError(
                f"num_self_loops={self.num_self_loops} but found {loops}"
            )
        fwd = {}
        for u, v, w in zip(rows, self.indices, self.weights):
            fwd[(int(u), int(v))] = float(w)
        for (u, v), w in fwd.items():
            if u == v:
                continue
            if (v, u) not in fwd:
                raise ValueError(f"missing symmetric entry for edge ({u},{v})")
            if fwd[(v, u)] != w:
                raise ValueError(f"asymmetric weight on edge ({u},{v})")
