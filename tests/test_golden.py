"""Golden digests of the sequential solver: independent truth over time.

The batch-vs-scalar equivalence tests compare two paths that share the
exact move scorer, so a change to that scorer would agree with itself.
This test pins the solver's *outputs* instead: for each (graph,
``batch_size``) pair, ``tests/golden/sequential.json`` holds the
SHA-256 of the final membership and of the per-level codelength
trajectory, recorded from a known-good tree.  Any change to a single
move decision or a single rounding in the codelength fails here.

The digests depend on numpy's floating-point kernels (``np.log2`` in
particular), so the file stamps the numpy version it was recorded
with; under another version the test fails and asks for a deliberate
re-record instead of reporting a spurious mismatch::

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import InfomapConfig, sequential_infomap
from repro.graph import barabasi_albert
from repro.graph.datasets import load_dataset

GOLDEN = Path(__file__).with_name("golden") / "sequential.json"
BATCH_SIZES = (0, 64, 256)
GRAPHS = {
    "friendster-s0.25": lambda: load_dataset(
        "friendster", seed=0, scale=0.25
    ).graph,
    "ba-5000-4-s1": lambda: barabasi_albert(5000, 4, seed=1),
    "dblp": lambda: load_dataset("dblp", seed=0).graph,
    "youtube": lambda: load_dataset("youtube", seed=0).graph,
    "amazon": lambda: load_dataset("amazon", seed=0).graph,
}


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


def _key(graph_name: str, batch_size: int) -> str:
    return f"{graph_name}/batch_size={batch_size}"


def record() -> dict:
    entries = {}
    for name, build in GRAPHS.items():
        graph = build()
        for bs in BATCH_SIZES:
            entries[_key(name, bs)] = digests(graph, bs)
    return {"numpy": np.__version__, "entries": entries}


@pytest.fixture(scope="module")
def golden() -> dict:
    data = json.loads(GOLDEN.read_text())
    if data["numpy"] != np.__version__:
        pytest.fail(
            f"golden digests were recorded under numpy {data['numpy']}, "
            f"this is numpy {np.__version__}: re-record deliberately "
            f"(python tests/test_golden.py --record) after checking the "
            f"solver is unchanged"
        )
    return data["entries"]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_sequential_golden(golden, name):
    graph = GRAPHS[name]()
    for bs in BATCH_SIZES:
        assert digests(graph, bs) == golden[_key(name, bs)], _key(name, bs)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
