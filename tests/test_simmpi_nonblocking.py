"""Nonblocking point-to-point: isend/irecv/Request semantics."""

import time

from repro.simmpi import Request, SerialCommunicator, run_spmd


class TestRequest:
    def test_isend_completes_immediately(self):
        def prog(comm):
            if comm.rank == 0:
                req = comm.isend("x", 1)
                done = req.completed
                comm.barrier()
                return done
            got = comm.recv(source=0)
            comm.barrier()
            return got

        res = run_spmd(prog, 2)
        assert res.results == [True, "x"]

    def test_irecv_wait_blocks_until_message(self):
        def prog(comm):
            if comm.rank == 0:
                req = comm.irecv(source=1, tag=7)
                return req.wait()
            time.sleep(0.05)
            comm.send("late", 0, tag=7)
            return None

        res = run_spmd(prog, 2)
        assert res.results[0] == "late"

    def test_test_polls_without_blocking(self):
        def prog(comm):
            if comm.rank == 0:
                req = comm.irecv(source=1)
                first, _ = req.test()  # nothing sent yet
                comm.barrier()         # rank 1 sends only after this
                # Poll until arrival (bounded).
                for _ in range(200):
                    done, val = req.test()
                    if done:
                        return (first, val)
                    time.sleep(0.005)
                return (first, None)
            comm.barrier()  # rank 0 has made its first poll
            comm.send("payload", 0)
            return None

        res = run_spmd(prog, 2)
        assert res.results[0] == (False, "payload")

    def test_wait_idempotent(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(41, 1)
                return None
            req = comm.irecv(source=0)
            a = req.wait()
            b = req.wait()  # second wait returns the cached value
            return (a, b)

        res = run_spmd(prog, 2)
        assert res.results[1] == (41, 41)

    def test_overlapping_requests_match_by_tag(self):
        def prog(comm):
            if comm.rank == 0:
                r2 = comm.irecv(source=1, tag=2)
                r1 = comm.irecv(source=1, tag=1)
                return (r1.wait(), r2.wait())
            comm.send("one", 0, tag=1)
            comm.send("two", 0, tag=2)
            return None

        res = run_spmd(prog, 2)
        assert res.results[0] == ("one", "two")

    def test_serial_communicator_support(self):
        c = SerialCommunicator()
        req = c.irecv(tag=3)
        done, _ = req.test()
        assert not done
        c.isend("self", 0, tag=3)
        done, val = req.test()
        assert done and val == "self"
        assert req.wait() == "self"

    def test_completed_factory(self):
        req = Request._completed("v")
        assert req.completed
        assert req.test() == (True, "v")
        assert req.wait() == "v"
