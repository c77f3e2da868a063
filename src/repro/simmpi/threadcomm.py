"""Thread-backed communicator: one OS thread per rank, shared-nothing payloads.

Distributed-memory isolation is what makes the simulation faithful: a
payload is encoded as a typed frame at the sender and decoded at each
receiver (see :mod:`repro.simmpi.wire`), so ranks can never observe
each other's mutations — exactly the property a real MPI job has, and
the property that flushes out "accidentally worked because memory was
shared" bugs in the algorithm.

Blocking receives are notify-driven: :meth:`Mailbox.put` and
:meth:`JobContext.abort` both ``notify_all`` the mailbox condition, so
a waiter wakes the moment a matching message (or an abort) can exist.
The residual timed wait only bounds how late a rank notices an abort
that raced its wait entry; it is not a message-poll interval.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from time import monotonic as _monotonic
from typing import Any

from .collectives import EXCHANGE_TAG, CollectiveOpsMixin
from .comm import ANY_SOURCE, ANY_TAG, Communicator
from .errors import (
    AbortError,
    CollectiveMismatchError,
    DeadlockError,
    InvalidRankError,
)
from .stats import CommLedger, RankStats
from .wire import decode_payload, encode_payload

__all__ = ["JobContext", "ThreadCommunicator", "Mailbox"]

#: Safety net for abort visibility (seconds).  Waiters are woken by
#: ``notify_all`` on both message arrival and abort; this only bounds
#: the window where an abort lands between the flag check and the wait.
_ABORT_CHECK_INTERVAL = 0.25

#: Backward-compatible alias; the reserved exchange tag now lives with
#: the shared collective algorithms in :mod:`repro.simmpi.collectives`.
_EXCHANGE_TAG = EXCHANGE_TAG


class Mailbox:
    """Per-rank inbox with MPI-style ``(source, tag)`` matching.

    Messages are buffered per ``(source, tag)`` key; wildcard receives
    pick the earliest-arrived match (global arrival sequence numbers
    give FIFO fairness across keys, and MPI's per-pair ordering
    guarantee holds trivially because each key's deque is FIFO).
    """

    def __init__(self, ctx: "JobContext") -> None:
        self._ctx = ctx
        self._cond = threading.Condition()
        self._queues: dict[tuple[int, int], deque[tuple[int, Any]]] = {}
        self._seq = itertools.count()

    def put(self, source: int, tag: int, payload: Any) -> None:
        with self._cond:
            self._queues.setdefault((source, tag), deque()).append(
                (next(self._seq), payload)
            )
            self._cond.notify_all()

    def _match(self, source: int, tag: int) -> tuple[int, int] | None:
        """Find the key of the earliest message matching the pattern."""
        best_key: tuple[int, int] | None = None
        best_seq = None
        for (src, tg), q in self._queues.items():
            if not q:
                continue
            if source != ANY_SOURCE and src != source:
                continue
            if tag != ANY_TAG and tg != tag:
                continue
            seq = q[0][0]
            if best_seq is None or seq < best_seq:
                best_seq, best_key = seq, (src, tg)
        return best_key

    def get(self, source: int, tag: int, timeout: float) -> tuple[Any, int, int]:
        """Block until a matching message arrives; return ``(payload, src, tag)``."""
        deadline = None if timeout is None else (_monotonic() + timeout)
        with self._cond:
            while True:
                self._ctx.check_abort()
                key = self._match(source, tag)
                if key is not None:
                    _seq, payload = self._queues[key].popleft()
                    return payload, key[0], key[1]
                if deadline is None:
                    self._cond.wait(_ABORT_CHECK_INTERVAL)
                    continue
                remaining = deadline - _monotonic()
                if remaining <= 0:
                    raise DeadlockError(
                        f"recv(source={source}, tag={tag}) timed out after "
                        f"{timeout:.1f}s with no matching message"
                    )
                self._cond.wait(min(_ABORT_CHECK_INTERVAL, remaining))


class JobContext:
    """Shared state for one SPMD job: ledger, mailboxes, collective board.

    Created by the engine; each rank's :class:`ThreadCommunicator` holds
    a reference.  The collective board is a classic two-phase scheme:
    every rank deposits its contribution into its slot, a barrier fires,
    every rank reads what it needs, a second barrier fires so the next
    collective can safely overwrite the slots.
    """

    def __init__(self, size: int, *, op_timeout: float = 60.0) -> None:
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        self.size = size
        self.op_timeout = op_timeout
        self.ledger = CommLedger(size)
        self.mailboxes = [Mailbox(self) for _ in range(size)]
        self.board: list[Any] = [None] * size
        self.board_labels: list[str | None] = [None] * size
        self._barrier = threading.Barrier(size)
        self._abort_lock = threading.Lock()
        self._abort: tuple[int, BaseException | None] | None = None

    # -- abort handling -----------------------------------------------------
    def abort(self, rank: int, cause: BaseException | None) -> None:
        with self._abort_lock:
            if self._abort is None:
                self._abort = (rank, cause)
        self._barrier.abort()
        # Wake every mailbox waiter so blocked ranks notice promptly.
        for mb in self.mailboxes:
            with mb._cond:
                mb._cond.notify_all()

    @property
    def aborted(self) -> bool:
        return self._abort is not None

    def check_abort(self) -> None:
        ab = self._abort
        if ab is not None:
            raise AbortError(ab[0], ab[1])

    def abort_info(self) -> tuple[int, BaseException | None] | None:
        return self._abort

    # -- barrier with abort translation ---------------------------------------
    def barrier_wait(self) -> None:
        try:
            self._barrier.wait(timeout=self.op_timeout)
        except threading.BrokenBarrierError:
            self.check_abort()
            # Not an abort: a peer never arrived -> deadlock.  Mark the
            # job aborted so other waiters unblock too.
            err = DeadlockError(
                f"collective barrier timed out after {self.op_timeout:.1f}s "
                "(a rank never arrived)"
            )
            self.abort(-1, err)
            raise err from None
        self.check_abort()


class ThreadCommunicator(CollectiveOpsMixin, Communicator):
    """One rank's endpoint into a :class:`JobContext`.

    The collective algorithms (and their metering) come from
    :class:`~repro.simmpi.collectives.CollectiveOpsMixin`; this class
    supplies the transport hooks — the shared board + barrier for
    collective exchanges and per-rank mailboxes for point-to-point.
    """

    def __init__(self, ctx: JobContext, rank: int) -> None:
        if not (0 <= rank < ctx.size):
            raise InvalidRankError(rank, ctx.size)
        self._ctx = ctx
        self._rank = rank
        self._stats = ctx.ledger.for_rank(rank)

    # -- identity ---------------------------------------------------------------
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._ctx.size

    @property
    def stats(self) -> RankStats:
        return self._stats

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ThreadCommunicator rank={self._rank} size={self.size}>"

    # -- mixin hooks ---------------------------------------------------------------
    def _encode(self, obj: Any) -> tuple[Any, int]:
        return encode_payload(obj, self._stats)

    def _decode(self, wire: Any) -> Any:
        return decode_payload(wire, self._stats)

    def _check_abort(self) -> None:
        self._ctx.check_abort()

    # -- point to point ----------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._ctx.check_abort()
        self._check_peer(dest)
        self._check_tag(tag, allow_any=False)
        wire, nbytes = encode_payload(obj, self._stats)
        self._stats.record_send(nbytes)
        self._ctx.mailboxes[dest].put(self._rank, tag, (wire, nbytes))

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        return self.recv_status(source, tag)[0]

    def recv_status(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> tuple[Any, int, int]:
        if source != ANY_SOURCE:
            self._check_peer(source)
        self._check_tag(tag, allow_any=True)
        (wire, nbytes), src, tg = self._ctx.mailboxes[self._rank].get(
            source, tag, timeout=self._ctx.op_timeout
        )
        self._stats.record_recv(nbytes)
        return decode_payload(wire, self._stats), src, tg

    def try_recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> tuple[bool, Any]:
        """Nonblocking matching probe backing :meth:`Request.test`."""
        if source != ANY_SOURCE:
            self._check_peer(source)
        self._check_tag(tag, allow_any=True)
        mb = self._ctx.mailboxes[self._rank]
        with mb._cond:
            self._ctx.check_abort()
            key = mb._match(source, tag)
            if key is None:
                return False, None
            _seq, (wire, nbytes) = mb._queues[key].popleft()
        self._stats.record_recv(nbytes)
        return True, decode_payload(wire, self._stats)

    # -- nonblocking transport hooks (unmetered; see CollectiveOpsMixin) ---------
    def _nb_post(self, dest: int, tag: int, wire: Any, nbytes: int) -> None:
        """Deposit a pre-encoded wire directly in *dest*'s mailbox.

        Same ``(wire, nbytes)`` hand-off :meth:`send` performs, minus
        the p2p metering — the mixin accounts nonblocking collectives
        as collective traffic, exactly like the board path.
        """
        self._ctx.mailboxes[dest].put(self._rank, tag, (wire, nbytes))

    def _nb_wait(self, source: int, tag: int) -> tuple[int, Any, int]:
        (wire, nbytes), src, _tg = self._ctx.mailboxes[self._rank].get(
            source, tag, timeout=self._ctx.op_timeout
        )
        return src, wire, nbytes

    def _nb_poll(self, source: int, tag: int) -> "tuple[int, Any, int] | None":
        mb = self._ctx.mailboxes[self._rank]
        with mb._cond:
            self._ctx.check_abort()
            key = mb._match(source, tag)
            if key is None:
                return None
            _seq, (wire, nbytes) = mb._queues[key].popleft()
        return key[0], wire, nbytes

    # -- collective plumbing -----------------------------------------------------
    def _collective_exchange(self, label: str, contribution: Any) -> list[Any]:
        """Two-phase board exchange; returns every rank's *wire* payload.

        The caller decodes only the entries it needs (so e.g. ``reduce``
        on a non-root rank pays no decode cost) and is responsible for
        metering via :meth:`RankStats.record_collective`.
        """
        ctx = self._ctx
        ctx.board[self._rank] = contribution
        ctx.board_labels[self._rank] = label
        ctx.barrier_wait()
        labels = set(ctx.board_labels)
        if len(labels) != 1:
            err = CollectiveMismatchError(
                f"ranks disagree on collective operation: {sorted(labels)}"
            )
            ctx.abort(self._rank, err)
            raise err
        result = list(ctx.board)
        ctx.barrier_wait()
        return result
