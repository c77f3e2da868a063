"""Nonblocking request futures for the SPMD runtime.

MPI's nonblocking operations split *posting* (``MPI_Isend`` /
``MPI_Irecv`` / ``MPI_Iallreduce``) from *completion*
(``MPI_Wait`` / ``MPI_Test``), which is what lets a rank hide
communication latency behind local compute — the halo-overlap
optimization the distributed sweep uses (DESIGN §3l).  This module
holds the request objects; the posting entry points live on
:class:`~repro.simmpi.comm.Communicator` (``isend``/``irecv`` and the
immediately-complete fallbacks) and
:class:`~repro.simmpi.collectives.CollectiveOpsMixin`
(``iallreduce``/``iexchange`` — the true nonblocking implementations
shared by the thread and process backends).

Request states and the progress rule:

* a request is *pending* from post until its completion condition is
  observed, and *complete* afterwards; ``wait()`` is idempotent and
  keeps returning the same value.
* the runtime has no background progress thread (exactly like most MPI
  implementations without ``MPI_THREAD_MULTIPLE`` helpers): transfers
  are buffered at post time, and *matching* progress happens inside
  ``wait()``/``test()`` — on the process backend the blocking receive
  path drains the shared-memory ring, on the thread backend the
  mailbox already holds the payload.  Posted requests therefore never
  require the peer to enter ``wait()`` for the *send* side to proceed
  (buffered semantics), only for its own receives.

Wait/overlap metering: every pending request stamps its post time.
When completion is observed, the interval from post to wait-entry is
recorded as ``overlap_seconds`` (latency hidden behind compute) and
the time truly blocked inside ``wait()`` as ``wait_seconds`` — both
per phase in :class:`~repro.simmpi.stats.RankStats`, mirrored to the
run trace and the live plane.  A blocking caller (wait immediately
after post) thus shows ~zero overlap and full wait; an overlapped
caller shows the reverse.  Byte/message metering is unchanged from the
blocking collectives, so logical ledgers are identical in both modes
by construction.

Fold-order invariant: :class:`ReduceRequest` folds contributions in
ascending rank order with this rank's own wire at its own position —
the exact sequence the blocking board ``allreduce`` uses — and
:class:`ExchangeRequest` returns its payload dict in ascending source
order, the fold order ``exchange`` guarantees.  Completion timing can
therefore never perturb a deterministic trajectory.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator

__all__ = [
    "Request",
    "RequestSet",
    "ReduceRequest",
    "ExchangeRequest",
    "IALLREDUCE_TAG",
    "IEXCHANGE_TAG",
]

#: Mirrors ``comm.ANY_SOURCE`` / ``comm.ANY_TAG`` (kept literal here so
#: the base Request can live in this module without a circular import;
#: ``comm`` imports ``Request`` back).
_ANY_SOURCE = -1
_ANY_TAG = -1

#: Reserved tag bases for the nonblocking collectives.  Above user tags
#: and ``EXCHANGE_TAG`` (1 << 30), below the procs relay tags
#: (1 << 40): a per-communicator post sequence number is added so two
#: in-flight operations can never cross-match, exactly like the relay.
IALLREDUCE_TAG = 1 << 32
IEXCHANGE_TAG = 1 << 33


class Request:
    """Handle for a nonblocking operation (mpi4py: ``Request``).

    Three flavours exist in this runtime: already-complete requests
    (buffered sends, and every operation on the serial communicator),
    pending point-to-point receives (:meth:`Communicator.irecv`), and
    the collective subclasses below.  ``wait``/``test`` follow MPI
    semantics: ``wait`` blocks until complete and is idempotent,
    ``test`` is a nonblocking completion probe that makes matching
    progress.
    """

    __slots__ = (
        "_comm", "_source", "_tag", "_done", "_value", "_t_post", "_meter",
        "_overlap_done",
    )

    def __init__(self) -> None:  # use the factory classmethods
        self._comm: Any = None
        self._source = _ANY_SOURCE
        self._tag = _ANY_TAG
        self._done = True
        self._value: Any = None
        self._t_post = time.perf_counter()
        self._meter = True
        self._overlap_done = False

    @classmethod
    def _completed(cls, value: Any) -> "Request":
        req = cls()
        req._done = True
        req._value = value
        return req

    @classmethod
    def _pending(cls, comm: Any, source: int, tag: int) -> "Request":
        req = cls()
        req._comm = comm
        req._source = source
        req._tag = tag
        req._done = False
        return req

    @property
    def completed(self) -> bool:
        return self._done

    # -- wait/overlap metering -------------------------------------------
    def _record_overlap(self, now: float) -> None:
        """Record post→now as latency hidden behind compute (once)."""
        if self._meter and not self._overlap_done and self._comm is not None:
            self._overlap_done = True
            self._comm.stats.record_overlap_seconds(now - self._t_post)

    def _record_wait(self, t0: float) -> None:
        """Record t0→now as time truly blocked inside ``wait``."""
        if self._meter and self._comm is not None:
            self._comm.stats.record_wait_seconds(time.perf_counter() - t0)

    # -- completion hooks (overridden by collective requests) ------------
    def _complete_blocking(self) -> Any:
        assert self._comm is not None
        return self._comm.recv(source=self._source, tag=self._tag)

    def _try_complete(self) -> "tuple[bool, Any]":
        assert self._comm is not None
        probe = getattr(self._comm, "try_recv", None)
        if probe is None:  # communicator without nonblocking support
            return False, None
        return probe(self._source, self._tag)

    # -- public API -------------------------------------------------------
    def wait(self) -> Any:
        """Block until complete; return the operation's value (received
        object, reduced result, exchange dict, or a sent-request's
        ``None``).  Idempotent after completion."""
        if not self._done:
            t0 = time.perf_counter()
            self._record_overlap(t0)
            self._value = self._complete_blocking()
            self._done = True
            self._record_wait(t0)
        return self._value

    def test(self) -> "tuple[bool, Any]":
        """Non-blocking completion probe: ``(done, value_or_None)``.

        For a pending receive this attempts a match without blocking
        (mpi4py: ``Request.test``); if no matching message has arrived
        yet it returns ``(False, None)`` and the request stays pending.
        """
        if self._done:
            return True, self._value
        found, value = self._try_complete()
        if found:
            self._record_overlap(time.perf_counter())
            self._value = value
            self._done = True
            return True, value
        return False, None


class RequestSet:
    """An ordered batch of requests (mpi4py: ``Request.Waitall``).

    ``waitall`` returns the requests' values in *insertion* order
    regardless of the order completions actually land in — each
    request's value is fixed at post time by its tag/source pattern,
    so waiting in any order yields the same list (the order-independence
    property ``tests/test_requests.py`` pins down).
    """

    __slots__ = ("_reqs",)

    def __init__(self, requests: "Iterator[Request] | list[Request]" = ()) -> None:
        self._reqs: list[Request] = list(requests)

    def add(self, req: Request) -> Request:
        self._reqs.append(req)
        return req

    def __len__(self) -> int:
        return len(self._reqs)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._reqs)

    @property
    def completed(self) -> bool:
        return all(r.completed for r in self._reqs)

    def waitall(self) -> list[Any]:
        """Wait for every request; return their values in insertion order."""
        return [r.wait() for r in self._reqs]


class ReduceRequest(Request):
    """In-flight ``iallreduce`` (mpi4py: ``MPI_Iallreduce``).

    Decentralized mesh: the posting rank encoded its contribution once
    and shipped the same wire to every peer under this request's tag;
    completion means all ``size - 1`` peer wires have arrived.  The
    fold decodes the wires in ascending rank order (own contribution at
    its own index) — byte-for-byte the blocking board ``allreduce``
    fold, so both produce bitwise-identical results and identical
    collective byte metering (contribution counted once at this rank,
    peer bytes as received).
    """

    __slots__ = ("_fn", "_nbytes", "_wires", "_sizes", "_pending")

    def __init__(
        self,
        comm: Any,
        tag: int,
        fn: Callable[[Any, Any], Any],
        own_wire: Any,
        nbytes: int,
    ) -> None:
        super().__init__()
        self._comm = comm
        self._tag = tag
        self._done = False
        self._fn = fn
        self._nbytes = nbytes
        self._wires: dict[int, Any] = {comm.rank: own_wire}
        self._sizes: dict[int, int] = {comm.rank: 0}  # own bytes not re-received
        self._pending = [r for r in range(comm.size) if r != comm.rank]
        if not self._pending:  # single-rank communicator: complete at post
            self._value = self._finalize()
            self._done = True

    def _collect(self, src: int, wire: Any, nbytes: int) -> None:
        self._wires[src] = wire
        self._sizes[src] = nbytes
        self._pending.remove(src)

    def _finalize(self) -> Any:
        comm = self._comm
        recv_bytes = sum(self._sizes.values())
        comm.stats.record_collective(self._nbytes, recv_bytes)
        acc = comm._decode(self._wires[0])
        for r in range(1, comm.size):
            acc = self._fn(acc, comm._decode(self._wires[r]))
        return acc

    def _complete_blocking(self) -> Any:
        comm = self._comm
        for src in list(self._pending):
            _src, wire, nbytes = comm._nb_wait(src, self._tag)
            self._collect(src, wire, nbytes)
        return self._finalize()

    def _try_complete(self) -> "tuple[bool, Any]":
        comm = self._comm
        for src in list(self._pending):
            got = comm._nb_poll(src, self._tag)
            if got is not None:
                self._collect(got[0], got[1], got[2])
        if self._pending:
            return False, None
        return True, self._finalize()


class ExchangeRequest(Request):
    """In-flight sparse ``iexchange`` (the nonblocking *Swap Boundary
    Information* primitive; MPI: ``MPI_Isend`` per destination plus an
    ``MPI_Iallreduce`` of the counts vector).

    Payload sends went out (metered) at post time; completion means the
    counts handshake resolved and all expected payloads were received.
    The value is ``{src: payload}`` in ascending source order — the
    fold order the blocking ``exchange`` guarantees and downstream
    bitwise-deterministic rebuilds rely on.
    """

    __slots__ = ("_counts_req", "_n_recv", "_out")

    def __init__(
        self, comm: Any, tag: int, counts_req: "ReduceRequest"
    ) -> None:
        super().__init__()
        self._comm = comm
        self._tag = tag
        self._done = False
        self._counts_req = counts_req
        self._n_recv: "int | None" = None
        self._out: dict[int, Any] = {}

    def _resolve_counts_blocking(self) -> int:
        if self._n_recv is None:
            totals = self._counts_req.wait()
            self._n_recv = int(totals[self._comm.rank])
        return self._n_recv

    def _complete_blocking(self) -> Any:
        comm = self._comm
        n_recv = self._resolve_counts_blocking()
        while len(self._out) < n_recv:
            payload, src, _tag = comm.recv_status(tag=self._tag)
            self._out[src] = payload
        return {src: self._out[src] for src in sorted(self._out)}

    def _try_complete(self) -> "tuple[bool, Any]":
        comm = self._comm
        if self._n_recv is None:
            ok, totals = self._counts_req.test()
            if not ok:
                return False, None
            self._n_recv = int(totals[comm.rank])
        while len(self._out) < self._n_recv:
            found, payload_src = _try_recv_status(comm, self._tag)
            if not found:
                return False, None
            payload, src = payload_src
            self._out[src] = payload
        return True, {src: self._out[src] for src in sorted(self._out)}


def _try_recv_status(comm: Any, tag: int) -> "tuple[bool, Any]":
    """Nonblocking wildcard-source receive returning the source too."""
    probe = getattr(comm, "try_recv_status", None)
    if probe is not None:
        return probe(_ANY_SOURCE, tag)
    return False, None
