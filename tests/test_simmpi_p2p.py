"""Point-to-point semantics of the SPMD runtime."""

import numpy as np
import pytest

from repro.simmpi import (
    ANY_SOURCE,
    ANY_TAG,
    DeadlockError,
    InvalidRankError,
    InvalidTagError,
    SerialCommunicator,
    run_spmd,
)


def test_send_recv_roundtrip():
    def prog(comm):
        nxt = (comm.rank + 1) % comm.size
        comm.send({"from": comm.rank}, nxt, tag=3)
        msg = comm.recv(source=(comm.rank - 1) % comm.size, tag=3)
        return msg["from"]

    res = run_spmd(prog, 4)
    assert res.results == [3, 0, 1, 2]


def test_any_source_any_tag():
    def prog(comm):
        if comm.rank == 0:
            got = sorted(comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
                         for _ in range(comm.size - 1))
            return got
        comm.send(comm.rank * 10, 0, tag=comm.rank)
        return None

    res = run_spmd(prog, 4)
    assert res.results[0] == [10, 20, 30]


def test_recv_status_reports_source_and_tag():
    def prog(comm):
        if comm.rank == 0:
            obj, src, tag = comm.recv_status()
            return (obj, src, tag)
        if comm.rank == 1:
            comm.send("hello", 0, tag=9)
        return None

    res = run_spmd(prog, 2)
    assert res.results[0] == ("hello", 1, 9)


def test_per_pair_message_ordering_is_fifo():
    def prog(comm):
        if comm.rank == 0:
            for i in range(20):
                comm.send(i, 1, tag=5)
            return None
        return [comm.recv(source=0, tag=5) for _ in range(20)]

    res = run_spmd(prog, 2)
    assert res.results[1] == list(range(20))


def test_tag_selective_receive_out_of_order():
    def prog(comm):
        if comm.rank == 0:
            comm.send("a", 1, tag=1)
            comm.send("b", 1, tag=2)
            return None
        second = comm.recv(source=0, tag=2)  # skip over the tag-1 message
        first = comm.recv(source=0, tag=1)
        return (first, second)

    res = run_spmd(prog, 2)
    assert res.results[1] == ("a", "b")


def test_sendrecv_exchanges_between_pairs():
    def prog(comm):
        peer = comm.rank ^ 1
        return comm.sendrecv(comm.rank, peer, source=peer)

    res = run_spmd(prog, 4)
    assert res.results == [1, 0, 3, 2]


def test_payloads_are_isolated_between_ranks():
    """Frame-encoded payloads share no mutable state across ranks."""

    def prog(comm):
        data = [0, 0]
        if comm.rank == 0:
            comm.send(data, 1)
            data[0] = 99  # mutate after send; receiver must not see it
            comm.barrier()
            return None
        got = comm.recv(source=0)
        comm.barrier()
        got[1] = comm.rank  # receiver-side mutation stays local
        return got

    res = run_spmd(prog, 2)
    assert res.results[1] == [0, 1]


def test_invalid_dest_raises():
    def prog(comm):
        comm.send(1, 5)

    with pytest.raises(InvalidRankError):
        run_spmd(prog, 2)


def test_negative_tag_raises():
    def prog(comm):
        comm.send(1, 0 if comm.rank else 1, tag=-3)

    with pytest.raises(InvalidTagError):
        run_spmd(prog, 2)


def test_recv_timeout_is_deadlock():
    def prog(comm):
        if comm.rank == 0:
            comm.recv(source=1)  # never sent
        return None

    with pytest.raises(DeadlockError):
        run_spmd(prog, 2, op_timeout=0.3, timeout=5.0)


def test_numpy_payloads_roundtrip_exactly():
    def prog(comm):
        arr = np.arange(100, dtype=np.float64) * (comm.rank + 1)
        comm.send(arr, (comm.rank + 1) % comm.size)
        got = comm.recv()
        return float(got.sum())

    res = run_spmd(prog, 3)
    expected = float(np.arange(100).sum())
    assert res.results[1] == pytest.approx(expected * 1)
    assert res.results[2] == pytest.approx(expected * 2)
    assert res.results[0] == pytest.approx(expected * 3)


class TestSerialCommunicator:
    def test_identity(self):
        c = SerialCommunicator()
        assert c.rank == 0 and c.size == 1

    def test_self_send_loopback(self):
        c = SerialCommunicator()
        c.send("x", 0, tag=4)
        obj, src, tag = c.recv_status(source=0, tag=4)
        assert (obj, src, tag) == ("x", 0, 4)

    def test_recv_without_message_raises_deadlock(self):
        with pytest.raises(DeadlockError):
            SerialCommunicator().recv()

    def test_loopback_tag_matching(self):
        c = SerialCommunicator()
        c.send("a", 0, tag=1)
        c.send("b", 0, tag=2)
        assert c.recv(tag=2) == "b"
        assert c.recv(tag=1) == "a"

    def test_invalid_peer(self):
        with pytest.raises(InvalidRankError):
            SerialCommunicator().send(1, 3)
