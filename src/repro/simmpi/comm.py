"""Abstract communicator interface for the SPMD runtime.

The surface mirrors the subset of ``mpi4py.MPI.Comm`` the distributed
Infomap algorithm needs — lowercase, pickle-style generic-object
methods (``send``/``recv``/``bcast``/``allreduce``/``alltoall``...)
plus a sparse neighbour exchange that maps onto ``isend``/``irecv``
pairs in a real MPI port.  Code written against this interface runs
unchanged on :class:`~repro.simmpi.serial.SerialCommunicator`
(``size == 1``, no threads) and
:class:`~repro.simmpi.threadcomm.ThreadCommunicator` (one OS thread
per rank).

Porting note: each method documents its mpi4py equivalent so the
algorithm can be moved onto a real cluster by swapping this class for a
thin adapter over ``MPI.COMM_WORLD``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..obs.live import NULL_LIVE
from ..obs.trace import NULL_BUFFER
from .requests import Request, RequestSet
from .stats import RankStats

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Communicator",
    "ReduceOp",
    "Request",
    "RequestSet",
    "resolve_op",
]

#: Wildcard source for :meth:`Communicator.recv` (mpi4py: ``MPI.ANY_SOURCE``).
ANY_SOURCE = -1
#: Wildcard tag for :meth:`Communicator.recv` (mpi4py: ``MPI.ANY_TAG``).
ANY_TAG = -1

#: A reduction operator: either one of the named strings understood by
#: :func:`resolve_op` (``"sum"``, ``"min"``, ``"max"``, ``"prod"``,
#: ``"land"``, ``"lor"``) or a binary callable.
ReduceOp = "str | Callable[[Any, Any], Any]"

_NAMED_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: a + b,
    "prod": lambda a, b: a * b,
    "min": lambda a, b: b if b < a else a,
    "max": lambda a, b: b if b > a else a,
    "land": lambda a, b: bool(a) and bool(b),
    "lor": lambda a, b: bool(a) or bool(b),
}


def resolve_op(op: Any) -> Callable[[Any, Any], Any]:
    """Turn a named or callable reduction into a binary callable.

    Named operators match mpi4py's ``MPI.SUM``/``MPI.MIN``/... set.
    Element-wise behaviour on numpy arrays comes for free because the
    lambdas use the arrays' own operators.
    """
    if callable(op):
        return op
    try:
        return _NAMED_OPS[op]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown reduce op {op!r}; expected a callable or one of "
            f"{sorted(_NAMED_OPS)}"
        ) from None


class Communicator(ABC):
    """A group of ``size`` SPMD ranks that can exchange Python objects.

    All collective methods must be called by *every* rank of the
    communicator, in the same order, with consistent arguments — the
    same contract real MPI imposes.  The thread implementation verifies
    the contract eagerly (mismatches raise
    :class:`~repro.simmpi.errors.CollectiveMismatchError` instead of
    hanging).
    """

    # -- identity ---------------------------------------------------------
    @property
    @abstractmethod
    def rank(self) -> int:
        """This process's index in ``[0, size)`` (mpi4py: ``Get_rank``)."""

    @property
    @abstractmethod
    def size(self) -> int:
        """Number of ranks in the communicator (mpi4py: ``Get_size``)."""

    @property
    @abstractmethod
    def stats(self) -> RankStats:
        """Communication counters for this rank (simulation-only)."""

    def set_phase(self, phase: str) -> None:
        """Attribute subsequent traffic to a named phase (simulation-only)."""
        self.stats.set_phase(phase)

    @property
    def trace(self) -> Any:
        """This rank's run-trace buffer (simulation-only).

        Returns the :class:`~repro.obs.trace.RankTraceBuffer` the
        engine attached when tracing is on, else the shared no-op
        :data:`~repro.obs.trace.NULL_BUFFER` — so SPMD code can emit
        events unconditionally and a disabled run pays only the
        ``enabled`` attribute check.  In a real-MPI port this is the
        seam where a Score-P-style per-rank buffer would hang.
        """
        buf = self.stats.trace
        return buf if buf is not None else NULL_BUFFER

    @property
    def live(self) -> Any:
        """This rank's live-metrics row (simulation-only).

        Returns the :class:`~repro.obs.live.LiveMetrics` view the
        engine attached when a live plane is on, else the shared no-op
        :data:`~repro.obs.live.NULL_LIVE` — same disabled-path contract
        as :attr:`trace`.  In a real-MPI port this is where MPI_T
        performance variables (or an ``MPI_Win`` passive-target
        exposure window) would hang; see docs/PORTING.md.
        """
        lv = self.stats.live
        return lv if lv is not None else NULL_LIVE

    @property
    def resident(self) -> dict[str, Any]:
        """Rank-private state that outlives one call (simulation-only).

        A resident job (:class:`~repro.simmpi.engine.SpmdJob`) binds the
        same dict to this rank on every call it runs, so a program can
        keep what it built — a local graph view, a CSR replica — for the
        next call; a one-shot :func:`~repro.simmpi.engine.run_spmd` sees
        an empty dict.  In a real-MPI port this is the long-lived rank
        process's own memory between commands.
        """
        try:
            return self._resident
        except AttributeError:
            self._resident: dict[str, Any] = {}
            return self._resident

    # -- point to point ----------------------------------------------------
    @abstractmethod
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send *obj* to rank *dest* (mpi4py: ``send``).

        Buffered semantics: the call returns once the message is
        enqueued at the destination, so ``send``/``send`` exchanges
        between two ranks cannot deadlock (matching mpi4py's eager
        protocol for small messages).
        """

    @abstractmethod
    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Receive one message (mpi4py: ``recv``).  Blocks until matched."""

    @abstractmethod
    def recv_status(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> tuple[Any, int, int]:
        """Like :meth:`recv` but also returns ``(obj, actual_source, actual_tag)``
        (mpi4py: ``recv`` with a ``Status`` object)."""

    def sendrecv(
        self,
        obj: Any,
        dest: int,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
    ) -> Any:
        """Combined send+receive (mpi4py: ``sendrecv``)."""
        self.send(obj, dest, tag=sendtag)
        return self.recv(source=source, tag=recvtag)

    # -- nonblocking point to point ------------------------------------------
    def isend(self, obj: Any, dest: int, tag: int = 0) -> "Request":
        """Nonblocking send (mpi4py: ``isend``).

        The runtime's sends are buffered, so the returned request is
        already complete; it exists so SPMD code written with the
        isend/irecv idiom ports without change.
        """
        self.send(obj, dest, tag=tag)
        return Request._completed(None)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> "Request":
        """Nonblocking receive (mpi4py: ``irecv``).

        Matching is deferred to :meth:`Request.wait`/:meth:`Request.test`
        — the request holds the ``(source, tag)`` pattern, not a
        message, exactly like a posted MPI receive.
        """
        return Request._pending(self, source, tag)

    # -- nonblocking collectives ----------------------------------------------
    def iallreduce(self, obj: Any, op: Any = "sum") -> "Request":
        """Nonblocking allreduce (mpi4py: ``Iallreduce``).

        Base implementation: run the blocking :meth:`allreduce` and
        return an already-complete request — correct on any
        communicator (it is exactly what a serial loopback does), with
        the true in-flight implementation supplied by
        :class:`~repro.simmpi.collectives.CollectiveOpsMixin`.  Like
        every collective, the call itself must be made by all ranks in
        the same order; only completion may be deferred.
        """
        return Request._completed(self.allreduce(obj, op=op))

    def iexchange(self, msgs: Mapping[int, Any]) -> "Request":
        """Nonblocking sparse exchange (MPI: isend per destination plus
        ``Iallreduce`` of the counts vector).

        Base implementation completes eagerly via :meth:`exchange`; the
        mixin overrides it with posted sends and a deferred receive
        loop.  ``wait()`` returns the same ascending-source dict
        :meth:`exchange` returns.
        """
        return Request._completed(self.exchange(msgs))

    # -- collectives --------------------------------------------------------
    @abstractmethod
    def barrier(self) -> None:
        """Block until every rank has entered (mpi4py: ``barrier``)."""

    @abstractmethod
    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast *obj* from *root* to all ranks (mpi4py: ``bcast``)."""

    @abstractmethod
    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object per rank onto *root* (mpi4py: ``gather``)."""

    @abstractmethod
    def allgather(self, obj: Any) -> list[Any]:
        """Gather one object per rank onto every rank (mpi4py: ``allgather``)."""

    @abstractmethod
    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter ``objs[i]`` from *root* to rank ``i`` (mpi4py: ``scatter``)."""

    @abstractmethod
    def reduce(self, obj: Any, op: Any = "sum", root: int = 0) -> Any | None:
        """Reduce contributions onto *root* (mpi4py: ``reduce``)."""

    @abstractmethod
    def allreduce(self, obj: Any, op: Any = "sum") -> Any:
        """Reduce contributions onto every rank (mpi4py: ``allreduce``)."""

    @abstractmethod
    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        """Personalized all-to-all: rank *i* receives ``objs_j[i]`` from
        every rank *j* (mpi4py: ``alltoall``)."""

    # -- variable-length array gather -----------------------------------------
    def allgatherv(
        self, cols: Sequence[Any]
    ) -> "tuple[tuple[Any, ...], Any]":
        """Gather variable-length column tuples from all ranks
        (mpi4py: ``Allgatherv`` per column, with an ``allgather`` of
        counts first).

        Every rank contributes a tuple of equal-length 1-D arrays;
        returns ``(concatenated_columns, counts)`` where column *k* is
        the rank-order concatenation of every rank's ``cols[k]`` and
        ``counts[r]`` is rank *r*'s contribution length — enough to
        attribute each row to its source rank via
        ``np.repeat(np.arange(size), counts)``.
        """
        parts = self.allgather(tuple(cols))
        counts = np.array(
            [(p[0].size if len(p) else 0) for p in parts], dtype=np.int64
        )
        ncols = len(parts[0]) if parts else 0
        cat = tuple(
            np.concatenate([p[k] for p in parts]) for k in range(ncols)
        )
        return cat, counts

    # -- sparse neighbour exchange -------------------------------------------
    def _check_exchange_dests(self, msgs: Mapping[int, Any]) -> None:
        for dest in msgs:
            if not (0 <= dest < self.size):
                from .errors import InvalidRankError

                raise InvalidRankError(dest, self.size)
            if dest == self.rank:
                raise ValueError("exchange() does not support self-sends")

    def exchange_dense(self, msgs: Mapping[int, Any]) -> dict[int, Any]:
        """Sparse personalized exchange over a dense :meth:`alltoall`
        with ``None`` holes — O(p) board slots per rank regardless of
        how sparse the pattern is, but deadlock-free by construction.
        Only the non-``None`` entries are metered.  Kept as the oracle
        for the sparse point-to-point implementation.
        """
        out: list[Any] = [None] * self.size
        self._check_exchange_dests(msgs)
        for dest, payload in msgs.items():
            out[dest] = payload
        incoming = self.alltoall(out)
        return {src: p for src, p in enumerate(incoming) if p is not None}

    def exchange(self, msgs: Mapping[int, Any]) -> dict[int, Any]:
        """Sparse personalized exchange: send ``msgs[dest]`` to each *dest*,
        return ``{src: payload}`` for every rank that addressed us, in
        ascending source order.

        This is the primitive behind the paper's *Swap Boundary
        Information* step.  On a real cluster it maps onto
        ``isend``/``irecv`` pairs (or ``MPI_Neighbor_alltoallv``); the
        base implementation uses the dense :meth:`exchange_dense` path;
        the thread and process communicators override it (via
        :class:`~repro.simmpi.collectives.CollectiveOpsMixin`) with
        true point-to-point sends so only real traffic moves and is
        metered.  Like the collectives, ``exchange`` must be called by
        every rank (possibly with an empty mapping).
        """
        return self.exchange_dense(msgs)
