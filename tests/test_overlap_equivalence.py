"""Overlapped sweep == blocking sweep, bitwise (the equivalence oracle).

``InfomapConfig.overlap`` only moves each request's ``wait()`` from
immediately-after-post to the point its value is consumed; both modes
issue the identical request sequence.  These tests pin the resulting
guarantee: memberships, codelength trajectories, and every *logical*
ledger quantity (bytes, messages, collective calls) are
bitwise-identical with overlap on and off, on the threads and procs
backends alike — only the wait/overlap second meters may differ.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import InfomapConfig, distributed_infomap
from repro.graph import planted_partition

_LOGICAL_FIELDS = (
    "p2p_bytes_sent", "p2p_bytes_recv", "p2p_messages_sent",
    "p2p_messages_recv", "collective_bytes_in", "collective_bytes_out",
    "collective_calls", "barrier_calls", "bytes_by_phase",
    "messages_by_phase", "logical_bytes_by_phase",
)


def _pair(graph, nranks, **kw):
    ra = distributed_infomap(
        graph, nranks, InfomapConfig(overlap=True, **kw)
    )
    rb = distributed_infomap(
        graph, nranks, InfomapConfig(overlap=False, **kw)
    )
    return ra, rb


def _assert_bitwise(ra, rb):
    assert np.array_equal(
        np.asarray(ra.membership), np.asarray(rb.membership)
    )
    assert ra.codelength == rb.codelength
    assert (
        ra.extras["codelength_history"] == rb.extras["codelength_history"]
    )
    for sa, sb in zip(
        ra.extras["comm_snapshot"], rb.extras["comm_snapshot"]
    ):
        for field in _LOGICAL_FIELDS:
            assert sa[field] == sb[field], field


@pytest.fixture(scope="module")
def graph():
    return planted_partition(6, 14, 0.3, 0.02, seed=3).graph


class TestOverlapEquivalence:
    def test_threads_bitwise(self, graph):
        ra, rb = _pair(graph, 4, seed=7)
        _assert_bitwise(ra, rb)

    def test_procs_bitwise(self, graph):
        ra, rb = _pair(graph, 4, seed=7, backend="procs")
        _assert_bitwise(ra, rb)

    def test_threads_bitwise_paper_literal_protocol(self, graph):
        # The non-delta membership sync and the always-send swap take
        # the other exchange branch; pin equivalence there too.
        ra, rb = _pair(graph, 3, seed=11, delta_swap=False)
        _assert_bitwise(ra, rb)

    def test_serial_rank_unaffected(self, graph):
        # One rank: no boundary, requests complete eagerly; both modes
        # are the plain sweep.
        ra, rb = _pair(graph, 1, seed=7)
        _assert_bitwise(ra, rb)

    def test_overlap_mode_meters_hidden_seconds(self, graph):
        ra, rb = _pair(graph, 4, seed=7)
        hidden = sum(
            sum(s["overlap_seconds_by_phase"].values())
            for s in ra.extras["comm_snapshot"]
        )
        hidden_blocking = sum(
            sum(s["overlap_seconds_by_phase"].values())
            for s in rb.extras["comm_snapshot"]
        )
        # Overlap mode hides real time behind compute; blocking mode
        # waits at the post site, so its hidden time is (near) zero.
        assert hidden > hidden_blocking

    def test_overlap_field_in_provenance(self):
        cfg = InfomapConfig(overlap=False)
        assert "overlap" in {
            f.name for f in dataclasses.fields(cfg)
        }
        assert cfg.overlap is False
        assert InfomapConfig().overlap is True
