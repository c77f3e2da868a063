"""Seeded inputs for the benchmark workloads.

Every input reaches the program as a file: an edge list (``u v`` per
line) or a delta file (``+ u v`` / ``- u v`` / ``~ u v w`` per line).
The same seed always writes the same bytes.

The seed rewrites a fixed graph's file; it does not draw a new graph.
Fresh ``friendster`` draws differ by 2.7x in solve time and 12% in
codelength from one generator seed to the next, and even a relabeling
of one draw changes the sequential solver's edge scans by up to 1.8x
(its sweep order meets the vertices in another order).  Either would
drown a change in the program under input-to-input spread.  So for the
``friendster`` workloads the seed shuffles the line order and flips
edge orientations (the parser and CSR build see new bytes, the solver
the same graph), and shuffles the lines of the incremental workload's
fixed delta stream; for the clique ring, whose work does not depend on
the order, it also rotates the vertex ids.  (Delta edits drawn per
seed moved the incremental ``solve_s`` by 1.45x between seeds and
changed the final partition on 2 seeds of 10.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Scale of the ``friendster`` stand-in: n=3500, 2 superhubs.
FRIENDSTER_SCALE = 0.25
#: Generator seed of the fixed ``friendster`` graph.
GRAPH_SEED = 0
#: Superhubs the friendster stand-in attaches (``DatasetSpec.superhubs``).
FRIENDSTER_SUPERHUBS = 2
#: Ring of 10000 10-cliques: n=100k, m=460k, no hubs.
CLIQUES = (10000, 10)
#: Delta stream of the incremental workload: batches, and edits per
#: batch as a share of the graph's edges.
DELTA_BATCHES = 4
DELTA_SHARE = 0.005
#: Tiny stand-ins for the untimed warm-up pass through the same calls.
TINY_FRIENDSTER_SCALE = 0.02
TINY_CLIQUES = (200, 10)


@dataclass
class Input:
    """One workload's generated files plus the truth to check against."""

    edges: Path
    labels: np.ndarray
    num_vertices: int
    num_edges: int
    deltas: list[Path] = field(default_factory=list)


def _write_edges(path: Path, src: np.ndarray, dst: np.ndarray) -> None:
    # In chunks, so that writing the file does not set the benchmark
    # process's own peak RSS.
    chunk = 1 << 16
    with path.open("w") as fh:
        for i in range(0, src.size, chunk):
            fh.write("".join(
                f"{u} {v}\n" for u, v in zip(src[i:i + chunk].tolist(),
                                            dst[i:i + chunk].tolist())
            ))


def _shuffle_lines(src: np.ndarray, dst: np.ndarray,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Shuffle the edge order and flip each edge's orientation at random."""
    order = rng.permutation(src.size)
    flip = rng.random(src.size) < 0.5
    return np.where(flip, dst, src)[order], np.where(flip, src, dst)[order]


def friendster(workdir: Path, seed: int, *, tiny: bool = False,
               deltas: bool = False) -> Input:
    """The ``friendster`` stand-in as an edge list, with planted labels.

    The seed shuffles the lines of the fixed ``GRAPH_SEED`` graph.
    With *deltas*, also writes the incremental workload's closed-loop
    stream (see :func:`_delta_stream`), drawn once from ``GRAPH_SEED``,
    with each batch's lines shuffled by the seed.
    """
    from repro.graph.datasets import load_dataset

    scale = TINY_FRIENDSTER_SCALE if tiny else FRIENDSTER_SCALE
    ds = load_dataset("friendster", seed=GRAPH_SEED, scale=scale)
    g = ds.graph
    src, dst, _ = g.edge_array()
    src, dst = _shuffle_lines(src, dst, np.random.default_rng(seed))
    # read_edgelist infers n from the largest id; a trailing isolated
    # vertex would silently shrink the graph the program sees.
    if int(max(src.max(), dst.max())) + 1 != g.num_vertices:
        raise ValueError("generated graph does not round-trip through a file")
    inp = Input(
        edges=workdir / "friendster.txt",
        labels=ds.labels,
        num_vertices=g.num_vertices,
        num_edges=g.num_edges,
    )
    _write_edges(inp.edges, src, dst)
    if deltas:
        rng = np.random.default_rng([seed, 2])
        for k, lines in enumerate(_delta_stream(g, ds.labels, GRAPH_SEED)):
            path = workdir / f"delta-{k}.txt"
            order = rng.permutation(len(lines))
            path.write_text("".join(lines[i] for i in order))
            inp.deltas.append(path)
    return inp


def cliques(workdir: Path, seed: int, *, tiny: bool = False) -> Input:
    """``ring_of_cliques`` as an edge list, relabeled by the seed.

    The seed rotates the vertex ids, shuffles the line order and flips
    edge orientations, so the store builder and the shard cuts see a
    different file per seed while the graph stays isomorphic (and ids
    stay local, so 1D blocks keep cutting few clique edges).
    """
    num, size = TINY_CLIQUES if tiny else CLIQUES
    n = num * size
    iu, ju = np.triu_indices(size, 1)
    base = (np.arange(num, dtype=np.int64) * size)[:, None]
    ring = np.arange(num, dtype=np.int64)
    src = np.concatenate([(base + iu).ravel(), ring * size])
    dst = np.concatenate([(base + ju).ravel(), ((ring + 1) % num) * size + 1])
    rng = np.random.default_rng(seed)
    shift = int(rng.integers(n))
    src, dst = _shuffle_lines((src + shift) % n, (dst + shift) % n, rng)
    labels = np.empty(n, dtype=np.int64)
    labels[(np.arange(n) + shift) % n] = np.arange(n) // size
    inp = Input(
        edges=workdir / "cliques.txt",
        labels=labels,
        num_vertices=n,
        num_edges=int(src.size),
    )
    _write_edges(inp.edges, src, dst)
    return inp


def _delta_stream(graph, labels: np.ndarray, seed: int) -> list[list[str]]:
    """Localized edit batches inside two planted communities.

    Each batch holds ``DELTA_SHARE`` of the edges: deletes of present
    intra-community edges, inserts of absent intra-community pairs and
    a few reweights, valid against the graph as the earlier batches left
    it.  The two communities are the ones closest to the mean size, and
    superhubs never appear as endpoints, so the edits dirty a modest
    share of the graph.  (Scattered random deletes dirty most of the
    graph and turn each update into a cold solve in disguise.)
    """
    rng = np.random.default_rng([seed, 1])
    deg = graph.degrees().astype(np.int64)
    hubs = set(np.argsort(deg, kind="stable")[-FRIENDSTER_SUPERHUBS:].tolist())
    sizes = np.bincount(labels)
    target = labels.size / sizes.size
    chosen = np.argsort(np.abs(sizes - target), kind="stable")[:2]
    members = [
        np.asarray([v for v in np.flatnonzero(labels == c).tolist()
                    if v not in hubs], dtype=np.int64)
        for c in chosen.tolist()
    ]
    pool = np.zeros(labels.size, dtype=bool)
    for m in members:
        pool[m] = True

    src, dst, w = graph.edge_array()
    keep = pool[src] & pool[dst] & (labels[src] == labels[dst])
    present = {
        (u, v): wt
        for u, v, wt in zip(src[keep].tolist(), dst[keep].tolist(),
                            w[keep].tolist())
    }

    per_batch = max(3, int(round(DELTA_SHARE * graph.num_edges)))
    n_rw = max(1, per_batch // 10)
    n_del = (per_batch - n_rw) // 2
    n_ins = per_batch - n_rw - n_del
    batches: list[list[str]] = []
    for _ in range(DELTA_BATCHES):
        pairs = sorted(present)
        lines: list[str] = []
        touched: set = set()
        for i in rng.permutation(len(pairs)).tolist():
            if len(touched) == n_del:
                break
            u, v = pairs[i]
            if deg[u] > 2 and deg[v] > 2:
                deg[u] -= 1
                deg[v] -= 1
                touched.add((u, v))
                lines.append(f"- {u} {v}\n")
        for key in touched:
            del present[key]
        rest = sorted(present)
        for i in rng.permutation(len(rest))[:n_rw].tolist():
            u, v = rest[i]
            wt = round(float(rng.uniform(0.5, 2.0)), 3)
            present[(u, v)] = wt
            touched.add((u, v))
            lines.append(f"~ {u} {v} {wt!r}\n")
        inserted = 0
        while inserted < n_ins:
            group = members[inserted % 2]
            a, b = rng.choice(group, size=2, replace=False).tolist()
            key = (min(a, b), max(a, b))
            if key in present or key in touched:
                continue
            present[key] = 1.0
            touched.add(key)
            deg[a] += 1
            deg[b] += 1
            inserted += 1
            lines.append(f"+ {key[0]} {key[1]}\n")
        batches.append(lines)
    return batches
