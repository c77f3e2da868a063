"""Streaming chunked readers: golden digests, legacy equivalence, edge cases.

The chunked readers (``iter_edgelist_chunks`` / ``iter_metis_chunks``)
replaced the per-line Python loops; the old readers survive as
``read_edgelist_legacy`` / ``read_metis_legacy`` and serve here as the
equivalence oracle.  Every test that compares the two demands
byte-identical CSR columns, not just isomorphic graphs.

``tests/golden/readers.json`` pins the same outputs without the legacy
readers: for every fixed input and chunk size below it holds the
SHA-256 of the CSR columns (``xadj``, ``adjncy``, ``weights``).  Like
``tests/test_golden.py`` it stamps the numpy version it was recorded
with and is re-recorded deliberately::

    PYTHONPATH=src python tests/test_io_stream.py --record
"""

import gzip
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.graph import (
    from_edges,
    iter_edgelist_chunks,
    powerlaw_planted_partition,
    read_edgelist,
    read_edgelist_legacy,
    read_metis,
    read_metis_legacy,
    write_edgelist,
    write_metis,
)

#: Chunk sizes chosen to split lines, tokens and records at awkward
#: byte offsets; 1 byte is the worst case (every line straddles).
SPLITTING_CHUNKS = (1, 7, 64, 257, 4096)


def csr_identical(a, b):
    assert a.num_vertices == b.num_vertices
    assert a.indptr.tobytes() == b.indptr.tobytes()
    assert a.indices.tobytes() == b.indices.tobytes()
    assert a.weights.tobytes() == b.weights.tobytes()


_WEIGHTED_EDGES = [(0, 1, 2.5), (1, 2, 1.25), (0, 3, 0.75), (2, 3, 4.0),
                   (3, 4, 0.125), (4, 5, 9.5)]
_METIS_WEIGHTED_EDGES = [(0, 1, 2.0), (1, 2, 3.0), (0, 2, 1.0)]


def _random_graph():
    return powerlaw_planted_partition(400, 8, seed=5).graph


def _write_straddle_gz(path):
    with gzip.open(path, "wt") as fh:
        fh.write("".join(f"{i} {i + 1} {i + 0.5}\n" for i in range(200)))


@pytest.fixture(scope="module")
def random_graph():
    return _random_graph()


class TestLegacyEquivalence:
    @pytest.mark.parametrize("chunk_bytes", SPLITTING_CHUNKS)
    def test_edgelist_unweighted(self, random_graph, tmp_path, chunk_bytes):
        p = tmp_path / "g.txt"
        write_edgelist(random_graph, p)
        csr_identical(
            read_edgelist_legacy(p),
            read_edgelist(p, chunk_bytes=chunk_bytes),
        )

    @pytest.mark.parametrize("chunk_bytes", SPLITTING_CHUNKS)
    def test_edgelist_weighted(self, tmp_path, chunk_bytes):
        p = tmp_path / "g.txt"
        write_edgelist(from_edges(_WEIGHTED_EDGES), p)
        csr_identical(
            read_edgelist_legacy(p),
            read_edgelist(p, chunk_bytes=chunk_bytes),
        )

    @pytest.mark.parametrize("chunk_bytes", SPLITTING_CHUNKS)
    def test_metis(self, random_graph, tmp_path, chunk_bytes):
        p = tmp_path / "g.metis"
        write_metis(random_graph, p)
        csr_identical(
            read_metis_legacy(p),
            read_metis(p, chunk_bytes=chunk_bytes),
        )

    def test_metis_weighted(self, tmp_path):
        p = tmp_path / "g.metis"
        write_metis(from_edges(_METIS_WEIGHTED_EDGES), p)
        csr_identical(read_metis_legacy(p), read_metis(p, chunk_bytes=16))


class TestGzipChunkBoundaries:
    def test_gz_roundtrip_on_chunk_boundaries(self, random_graph, tmp_path):
        p = tmp_path / "g.txt.gz"
        write_edgelist(random_graph, p)
        ref = read_edgelist_legacy(p)
        for cb in (13, 100, 8192):
            csr_identical(ref, read_edgelist(p, chunk_bytes=cb))

    def test_gz_line_straddles_decompressed_chunk(self, tmp_path):
        p = tmp_path / "g.txt.gz"
        _write_straddle_gz(p)
        csr_identical(read_edgelist_legacy(p), read_edgelist(p, chunk_bytes=3))


class TestReaderEdgeCases:
    def test_weighted_autodetect_spans_chunks(self, tmp_path):
        # First chunk holds only comments/blank lines: detection must
        # keep probing into later chunks instead of deciding on chunk 1.
        p = tmp_path / "g.txt"
        p.write_text("# c1\n# c2\n\n# c3\n0 1 2.5\n1 2 0.5\n")
        g = read_edgelist(p, chunk_bytes=4)
        assert g.weights.sum() == pytest.approx(2 * (2.5 + 0.5))

    def test_vertex_ids_span_chunk_split(self, tmp_path):
        # A multi-digit id split across a chunk boundary must re-join.
        p = tmp_path / "g.txt"
        p.write_text("123456 654321\n654321 999999\n")
        for cb in range(1, 16):
            g = read_edgelist(p, chunk_bytes=cb, relabel=True)[0]
            assert g.num_vertices == 3
            assert g.num_edges == 2

    def test_zero_edge_file(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# only comments\n\n")
        chunks = list(iter_edgelist_chunks(p))
        assert sum(c.src.size for c in chunks) == 0
        g = read_edgelist(p)
        assert g.num_vertices == 0 and g.num_edges == 0
        csr_identical(read_edgelist_legacy(p), g)

    def test_self_loop_only_file(self, tmp_path):
        # Loops are dropped by the reader, but the vertex count still
        # comes from the pre-drop ids (legacy rule).
        p = tmp_path / "g.txt"
        p.write_text("0 0\n1 1\n2 2\n")
        g = read_edgelist(p, chunk_bytes=4)
        assert g.num_vertices == 3
        assert g.num_edges == 0
        csr_identical(read_edgelist_legacy(p), g)

    def test_malformed_line_number_accurate(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n1 2\nbroken\n2 3\n")
        with pytest.raises(ValueError, match=r":3: "):
            read_edgelist(p, chunk_bytes=4)

    def test_malformed_line_number_in_later_chunk(self, tmp_path):
        lines = "".join(f"{i} {i + 1}\n" for i in range(50)) + "7 oops\n"
        p = tmp_path / "g.txt"
        p.write_text(lines)
        with pytest.raises(ValueError, match=r":51: invalid vertex id"):
            read_edgelist(p, chunk_bytes=17)

    def test_short_line_reports_expected_shape(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n5\n")
        with pytest.raises(ValueError, match=r":2: expected 'u v \[w\]'"):
            read_edgelist(p, chunk_bytes=3)

    def test_missing_weight_column_located(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1 2.0\n1 2 3.0\n3 4\n")
        with pytest.raises(ValueError, match=r":3: missing weight column"):
            read_edgelist(p, chunk_bytes=6)

    def test_invalid_weight_located(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1 2.0\n1 2 xx\n")
        with pytest.raises(ValueError, match=r":2: invalid weight 'xx'"):
            read_edgelist(p, chunk_bytes=5)

    def test_metis_row_count_mismatch(self, tmp_path):
        p = tmp_path / "g.metis"
        p.write_text("3 2\n2\n1 3\n")  # header says 3 rows, file has 2
        with pytest.raises(ValueError, match="header says n=3 but found 2"):
            read_metis(p)

    def test_metis_bad_neighbour_located(self, tmp_path):
        p = tmp_path / "g.metis"
        p.write_text("2 1\n2\nbad\n")
        with pytest.raises(ValueError, match=r":3: invalid neighbour id"):
            read_metis(p, chunk_bytes=4)

    def test_edge_chunks_carry_weights_consistently(self, tmp_path):
        # weighted= None must resolve once and hold for all chunks.
        p = tmp_path / "g.txt"
        p.write_text("".join(f"{i} {i + 1} 1.5\n" for i in range(100)))
        chunks = list(iter_edgelist_chunks(p, chunk_bytes=32))
        assert len(chunks) > 1
        assert all(c.weights is not None for c in chunks)
        total = sum(float(c.weights.sum()) for c in chunks)
        assert total == pytest.approx(150.0)


GOLDEN_READERS = Path(__file__).with_name("golden") / "readers.json"


#: The fixed inputs of the tests above, by file name; the suffix picks
#: the reader (``.metis`` → ``read_metis``, else ``read_edgelist``).
READER_INPUTS = {
    "powerlaw-400-8-s5.txt": lambda p: write_edgelist(_random_graph(), p),
    "powerlaw-400-8-s5.txt.gz": lambda p: write_edgelist(_random_graph(), p),
    "powerlaw-400-8-s5.metis": lambda p: write_metis(_random_graph(), p),
    "weighted-6.txt": lambda p: write_edgelist(from_edges(_WEIGHTED_EDGES), p),
    "weighted-3.metis": lambda p: write_metis(
        from_edges(_METIS_WEIGHTED_EDGES), p
    ),
    "straddle-200.txt.gz": _write_straddle_gz,
    "comments-only.txt": lambda p: p.write_text("# only comments\n\n"),
    "self-loops-only.txt": lambda p: p.write_text("0 0\n1 1\n2 2\n"),
}

READER_CASES = [
    *(
        (name, cb)
        for name in ("powerlaw-400-8-s5.txt", "weighted-6.txt",
                     "powerlaw-400-8-s5.metis")
        for cb in SPLITTING_CHUNKS
    ),
    ("weighted-3.metis", 16),
    *(("powerlaw-400-8-s5.txt.gz", cb) for cb in (13, 100, 8192)),
    ("straddle-200.txt.gz", 3),
    ("comments-only.txt", 4),
    ("self-loops-only.txt", 4),
]


def _case_key(name: str, chunk_bytes: int) -> str:
    return f"{name}/chunk_bytes={chunk_bytes}"


def reader_digests(name: str, chunk_bytes: int, tmp: Path) -> dict[str, str]:
    path = tmp / name
    READER_INPUTS[name](path)
    reader = read_metis if name.endswith(".metis") else read_edgelist
    g = reader(path, chunk_bytes=chunk_bytes)
    return {
        col: hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()
        for col, arr in (("xadj", g.indptr), ("adjncy", g.indices),
                         ("weights", g.weights))
    }


def record_readers() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        entries = {
            _case_key(name, cb): reader_digests(name, cb, Path(tmp))
            for name, cb in READER_CASES
        }
    return {"numpy": np.__version__, "entries": entries}


@pytest.fixture(scope="module")
def golden_readers() -> dict:
    data = json.loads(GOLDEN_READERS.read_text())
    if data["numpy"] != np.__version__:
        pytest.fail(
            f"reader digests were recorded under numpy {data['numpy']}, "
            f"this is numpy {np.__version__}: re-record deliberately "
            f"(python tests/test_io_stream.py --record) after checking "
            f"the readers are unchanged"
        )
    return data["entries"]


@pytest.mark.parametrize(
    "name,chunk_bytes", READER_CASES,
    ids=[_case_key(name, cb) for name, cb in READER_CASES],
)
def test_reader_golden(golden_readers, tmp_path, name, chunk_bytes):
    key = _case_key(name, chunk_bytes)
    assert reader_digests(name, chunk_bytes, tmp_path) == golden_readers[key]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_io_stream.py --record")
    GOLDEN_READERS.parent.mkdir(exist_ok=True)
    GOLDEN_READERS.write_text(
        json.dumps(record_readers(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_READERS}")
