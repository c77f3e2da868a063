"""Golden digests of the solvers' outputs: independent truth over time.

The batch-vs-scalar equivalence tests compare two paths that share the
exact move scorer, so a change to that scorer would agree with itself.
This test pins the solver's *outputs* instead: for each (graph,
``batch_size``) pair, ``tests/golden/sequential.json`` holds the
SHA-256 of the final membership and of the per-level codelength
trajectory, recorded from a known-good tree.  Any change to a single
move decision or a single rounding in the codelength fails here.
``cliques-400-10`` is pinned at ``batch_size=256`` only: it is the
clique graph whose level-0 sweeps commit almost every vertex through
the batched ladder's certified step.

``tests/golden/distributed.json`` does the same for the SPMD drivers
(cold, warm incremental, out-of-core and the GossipMap baseline, all
on the threads backend), with cold entries for each round branch a
config switch selects: ``min_local`` consensus, full and IDs-only
swaps, no pruning, blocking waits and mid-level migration.  Each entry
also pins the per-phase logical ledger: the canonical JSON of
``extras["comm_snapshot"]`` with every wall-clock ``*seconds*`` key
dropped, so a change to what any rank sends, in which phase, or how
many bytes its frames take fails here.

The small clique entries (``cliques-8-6`` at p=4, ``external-cliques-12-5``
at p=2) never reach the batched ladder, :func:`repro.core.kernels.sweep`:
a rank sweeps fewer owned vertices than ``_BATCH_MIN_ACTIVE`` and takes
the scalar loop.  ``cliques-400-10`` (2,000 vertices per rank at p=2,
in-RAM and out-of-core) pins the ladder on a clique graph.

The digests depend on numpy's floating-point kernels (``np.log2`` in
particular), so the file stamps the numpy version it was recorded
with; under another version the test fails and asks for a deliberate
re-record instead of reporting a spurious mismatch::

    PYTHONPATH=src python tests/test_golden.py --record

Before a deliberate re-record, list what it would change: ``--diff``
prints each entry whose digests differ from the files (and which
digests), and writes nothing::

    PYTHONPATH=src python tests/test_golden.py --diff
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import gossipmap
from repro.core import (
    IncrementalSession,
    InfomapConfig,
    distributed_infomap,
    external_infomap,
    sequential_infomap,
)
from repro.graph import (
    GraphDelta,
    barabasi_albert,
    graph_to_store,
    planted_partition,
    powerlaw_planted_partition,
    ring_of_cliques,
)
from repro.graph.datasets import load_dataset

GOLDEN = Path(__file__).with_name("golden") / "sequential.json"
GOLDEN_DIST = GOLDEN.with_name("distributed.json")
BATCH_SIZES = (0, 64, 256)
GRAPHS = {
    "friendster-s0.25": lambda: load_dataset(
        "friendster", seed=0, scale=0.25
    ).graph,
    "ba-5000-4-s1": lambda: barabasi_albert(5000, 4, seed=1),
    "dblp": lambda: load_dataset("dblp", seed=0).graph,
    "youtube": lambda: load_dataset("youtube", seed=0).graph,
    "amazon": lambda: load_dataset("amazon", seed=0).graph,
    "cliques-400-10": lambda: ring_of_cliques(400, 10).graph,
}
# Graphs pinned at other batch sizes than BATCH_SIZES.
GRAPH_BATCH_SIZES = {"cliques-400-10": (256,)}


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def digests(graph, batch_size: int) -> dict[str, str]:
    res = sequential_infomap(graph, InfomapConfig(batch_size=batch_size))
    return {
        "membership": _sha(np.asarray(res.membership, dtype=np.int64)),
        "trajectory": _sha(
            np.asarray(res.codelength_trajectory(), dtype=np.float64)
        ),
    }


def _ledger_sha(snapshot) -> str:
    """SHA-256 of a ledger snapshot's canonical JSON, timings dropped."""

    def strip(x):
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items() if "seconds" not in k}
        if isinstance(x, list):
            return [strip(v) for v in x]
        return x

    text = json.dumps(strip(snapshot), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def dist_digests(res) -> dict[str, str]:
    return {
        "membership": _sha(np.asarray(res.membership, dtype=np.int64)),
        "codelength_history": _sha(
            np.asarray(res.extras["codelength_history"], dtype=np.float64)
        ),
        "ledger": _ledger_sha(res.extras["comm_snapshot"]),
    }


def _planted():
    return powerlaw_planted_partition(300, 6, mu=0.1, seed=11).graph


def _friendster():
    return load_dataset("friendster", seed=0, scale=0.25).graph


def _incremental():
    g = planted_partition(8, 25, 0.3, 0.01, seed=5).graph
    session = IncrementalSession(g, InfomapConfig(seed=11), nranks=3)
    session.solve()
    delete_src = np.array([0, 60, 130])
    delete_dst = g.indices[g.indptr[delete_src]]
    delta = GraphDelta.build(
        insert=(np.array([3, 41, 77]), np.array([180, 122, 199]),
                np.full(3, 1.5)),
        delete=(delete_src, delete_dst),
        reweight=(np.array([10]), g.indices[g.indptr[[10]]], np.array([0.5])),
    )
    return session.update(delta)


def _external(graph):
    with tempfile.TemporaryDirectory() as tmp:
        graph_to_store(graph, Path(tmp) / "s")
        return external_infomap(Path(tmp) / "s", 2, InfomapConfig(seed=3))


DIST_CASES = {
    **{
        f"planted-300-6-s11/min_label={ml}/p={p}": (
            lambda ml=ml, p=p: distributed_infomap(
                _planted(), p, InfomapConfig(seed=5, min_label=ml)
            )
        )
        for ml in (True, False)
        for p in (1, 2, 4)
    },
    "ba-400-3-s3/d_high=2/p=3": lambda: distributed_infomap(
        barabasi_albert(400, 3, seed=3), 3, InfomapConfig(seed=9, d_high=2)
    ),
    "ba-400-3-s3/d_high=2/min_local/p=3": lambda: distributed_infomap(
        barabasi_albert(400, 3, seed=3), 3,
        InfomapConfig(seed=9, d_high=2, delegate_consensus="min_local"),
    ),
    **{
        f"planted-300-6-s11/{flag}=False/p=3": (
            lambda flag=flag: distributed_infomap(
                _planted(), 3, InfomapConfig(seed=5, **{flag: False})
            )
        )
        for flag in ("delta_swap", "full_module_info", "prune_inactive",
                     "overlap", "min_label")
    },
    **{
        f"cliques-8-6/batch_size={bs}/p=4": (
            lambda bs=bs: distributed_infomap(
                ring_of_cliques(8, 6).graph, 4,
                InfomapConfig(seed=2, batch_size=bs),
            )
        )
        for bs in (0, 256)
    },
    **{
        f"friendster-s0.25/p={p}": (
            lambda p=p: distributed_infomap(_friendster(), p)
        )
        for p in (2, 4)
    },
    "incremental-planted-8-25-s5/update/p=3": _incremental,
    "external-cliques-12-5/p=2": lambda: _external(
        ring_of_cliques(12, 5).graph
    ),
    "cliques-400-10/p=2": lambda: distributed_infomap(
        ring_of_cliques(400, 10).graph, 2, InfomapConfig(seed=3)
    ),
    "external-cliques-400-10/p=2": lambda: _external(
        ring_of_cliques(400, 10).graph
    ),
    "gossipmap-planted-300-6-s11/p=4": lambda: gossipmap(
        _planted(), 4, InfomapConfig(seed=5)
    ),
}


def _key(graph_name: str, batch_size: int) -> str:
    return f"{graph_name}/batch_size={batch_size}"


def record() -> dict:
    entries = {}
    for name, build in GRAPHS.items():
        graph = build()
        for bs in GRAPH_BATCH_SIZES.get(name, BATCH_SIZES):
            entries[_key(name, bs)] = digests(graph, bs)
    return {"numpy": np.__version__, "entries": entries}


def record_distributed() -> dict:
    entries = {name: dist_digests(run()) for name, run in DIST_CASES.items()}
    return {"numpy": np.__version__, "entries": entries}


def _load(path: Path) -> dict:
    data = json.loads(path.read_text())
    if data["numpy"] != np.__version__:
        pytest.fail(
            f"golden digests were recorded under numpy {data['numpy']}, "
            f"this is numpy {np.__version__}: re-record deliberately "
            f"(python tests/test_golden.py --record) after checking the "
            f"solver is unchanged"
        )
    return data["entries"]


@pytest.fixture(scope="module")
def golden() -> dict:
    return _load(GOLDEN)


@pytest.fixture(scope="module")
def golden_dist() -> dict:
    return _load(GOLDEN_DIST)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_sequential_golden(golden, name):
    graph = GRAPHS[name]()
    for bs in GRAPH_BATCH_SIZES.get(name, BATCH_SIZES):
        assert digests(graph, bs) == golden[_key(name, bs)], _key(name, bs)


@pytest.mark.parametrize("name", sorted(DIST_CASES))
def test_distributed_golden(golden_dist, name):
    assert dist_digests(DIST_CASES[name]()) == golden_dist[name]


TABLES = ((GOLDEN, record), (GOLDEN_DIST, record_distributed))


def diff() -> list[str]:
    """One line per entry whose fresh digests differ from the files."""
    lines = []
    for path, table in TABLES:
        stored = json.loads(path.read_text())["entries"]
        fresh = table()["entries"]
        for name in sorted(stored.keys() | fresh.keys()):
            old, new = stored.get(name, {}), fresh.get(name, {})
            changed = sorted(
                k for k in old.keys() | new.keys() if old.get(k) != new.get(k)
            )
            if changed:
                lines.append(f"{path.name} {name}: {', '.join(changed)}")
    return lines


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        print("\n".join(diff()) or "no golden digest differs")
    elif sys.argv[1:] == ["--record"]:
        GOLDEN.parent.mkdir(exist_ok=True)
        for path, table in TABLES:
            text = json.dumps(table(), indent=2, sort_keys=True) + "\n"
            path.write_text(text)
            print(f"wrote {path}")
    else:
        sys.exit("usage: python tests/test_golden.py --record | --diff")
