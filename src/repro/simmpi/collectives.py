"""Backend-agnostic collective algorithms over a board-exchange hook.

The thread and process communicators differ only in *transport*: how a
rank's contribution reaches every other rank (a shared in-process board
behind a barrier vs a rank-0 relay over shared-memory rings).  Every
byte- and message-metering decision, every encode/decode call, and the
deterministic fold orders live here, in one place — which is what makes
the acceptance invariant "identical logical ledger totals per phase
across backends" hold *by construction* rather than by testing luck.

Concrete communicators provide:

* ``rank`` / ``size`` / ``_stats`` — identity and this rank's meters;
* ``_encode(obj)`` → ``(wire, nbytes)`` and ``_decode(wire)`` → obj —
  the metered payload codec (phase attribution included);
* ``_collective_exchange(label, contribution)`` → ``list`` — deposit
  this rank's contribution, detect label mismatches across ranks, and
  return every rank's contribution in rank order;
* ``_check_abort()`` — raise :class:`~.errors.AbortError` if the job
  is poisoned;
* ``send`` / ``recv_status`` — point-to-point, used by the sparse
  :meth:`CollectiveOpsMixin.exchange`.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from .comm import ANY_SOURCE, ANY_TAG, resolve_op
from .errors import InvalidRankError, InvalidTagError
from .requests import (
    IALLREDUCE_TAG,
    IEXCHANGE_TAG,
    ExchangeRequest,
    ReduceRequest,
)

__all__ = ["CollectiveOpsMixin", "EXCHANGE_TAG"]

#: Reserved tag for the sparse :meth:`CollectiveOpsMixin.exchange`
#: protocol; user code must not send with this tag.
EXCHANGE_TAG = 1 << 30


class CollectiveOpsMixin:
    """Collectives + sparse exchange shared by thread and process ranks."""

    # -- validation helpers ------------------------------------------------
    def _check_peer(self, peer: int) -> None:
        if not (0 <= peer < self.size):
            raise InvalidRankError(peer, self.size)

    @staticmethod
    def _check_tag(tag: int, *, allow_any: bool) -> None:
        if tag == ANY_TAG and allow_any:
            return
        if tag < 0:
            raise InvalidTagError(tag)

    # -- collectives -------------------------------------------------------
    def barrier(self) -> None:
        self._stats.record_barrier()
        self._collective_exchange("barrier", None)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        self._check_peer(root)
        if self.rank == root:
            # Serialize and size the payload exactly once at the root;
            # receivers read both off the board instead of re-walking
            # the payload per rank.
            wire, nbytes = self._encode(obj)
            # Root pushes size-1 copies outward (naive linear accounting;
            # the cost model applies a log(p) tree factor).
            self._stats.record_collective(nbytes * (self.size - 1), 0)
            board_entry: Any = (wire, nbytes)
        else:
            board_entry = None
        board = self._collective_exchange(f"bcast:{root}", board_entry)
        if self.rank != root:
            rwire, rbytes = board[root]
            self._stats.record_collective(0, rbytes)
            return self._decode(rwire)
        return obj

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        self._check_peer(root)
        wire, nbytes = self._encode(obj)
        board = self._collective_exchange(f"gather:{root}", (wire, nbytes))
        if self.rank == root:
            self._stats.record_collective(0, sum(n for _w, n in board) - nbytes)
            return [self._decode(w) for w, _n in board]
        self._stats.record_collective(nbytes, 0)
        return None

    def allgather(self, obj: Any) -> list[Any]:
        wire, nbytes = self._encode(obj)
        board = self._collective_exchange("allgather", (wire, nbytes))
        recv_bytes = sum(n for _w, n in board) - nbytes
        self._stats.record_collective(nbytes * (self.size - 1), recv_bytes)
        return [self._decode(w) for w, _n in board]

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        self._check_peer(root)
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise ValueError(
                    f"scatter root must pass exactly {self.size} objects, "
                    f"got {None if objs is None else len(objs)}"
                )
            wires = [self._encode(o) for o in objs]
            sent = sum(n for _w, n in wires) - wires[self.rank][1]
            self._stats.record_collective(sent, 0)
            board = self._collective_exchange(f"scatter:{root}", wires)
        else:
            board = self._collective_exchange(f"scatter:{root}", None)
        wires = board[root]
        wire, nbytes = wires[self.rank]
        if self.rank != root:
            self._stats.record_collective(0, nbytes)
        return self._decode(wire)

    def reduce(self, obj: Any, op: Any = "sum", root: int = 0) -> Any | None:
        self._check_peer(root)
        fn = resolve_op(op)
        wire, nbytes = self._encode(obj)
        board = self._collective_exchange(f"reduce:{root}", (wire, nbytes))
        if self.rank == root:
            self._stats.record_collective(0, sum(n for _w, n in board) - nbytes)
            acc = self._decode(board[0][0])
            for w, _n in board[1:]:
                acc = fn(acc, self._decode(w))
            return acc
        self._stats.record_collective(nbytes, 0)
        return None

    def allreduce(self, obj: Any, op: Any = "sum") -> Any:
        fn = resolve_op(op)
        wire, nbytes = self._encode(obj)
        board = self._collective_exchange("allreduce", (wire, nbytes))
        recv_bytes = sum(n for _w, n in board) - nbytes
        self._stats.record_collective(nbytes, recv_bytes)
        acc = self._decode(board[0][0])
        for w, _n in board[1:]:
            acc = fn(acc, self._decode(w))
        return acc

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        if len(objs) != self.size:
            raise ValueError(
                f"alltoall needs exactly {self.size} entries, got {len(objs)}"
            )
        wires = [
            None if o is None else self._encode(o)
            for o in objs
        ]
        sent = sum(n for e in wires if e is not None for n in (e[1],) )
        nmsgs = sum(1 for i, e in enumerate(wires) if e is not None and i != self.rank)
        board = self._collective_exchange("alltoall", wires)
        out: list[Any] = [None] * self.size
        recv_bytes = 0
        for src in range(self.size):
            entry = board[src][self.rank]
            if entry is not None:
                wire, nbytes = entry
                out[src] = self._decode(wire)
                if src != self.rank:
                    recv_bytes += nbytes
        # Meter each non-None outgoing entry as one message.
        self._stats.record_collective(sent, recv_bytes)
        self._stats.messages_by_phase[self._stats.phase] += max(nmsgs - 1, 0)
        return out

    # -- sparse neighbour exchange ----------------------------------------
    def exchange(self, msgs: Mapping[int, Any]) -> dict[int, Any]:
        """True point-to-point sparse exchange.

        One framed message per actual destination instead of a dense
        ``alltoall`` board: an int64 counts allreduce tells every rank
        how many messages to expect (the handshake a real MPI port
        needs too, unless the neighbourhood is known statically), then
        each payload travels as a plain tagged send.  Only real traffic
        is metered — ``p2p_messages_sent`` grows by exactly
        ``len(msgs)``, not ``size - 1``.

        The allreduce doubles as the inter-round barrier that makes the
        protocol safe: a rank can only reach round *k+1*'s sends after
        every rank has drained its round-*k* receives.  Results are
        returned in ascending source order — consumers fold received
        batches in dict order and the deterministic-trajectory tests
        rely on it.
        """
        self._check_abort()
        self._check_exchange_dests(msgs)
        counts = np.zeros(self.size, dtype=np.int64)
        for dest in msgs:
            counts[dest] = 1
        totals = self.allreduce(counts)
        n_recv = int(totals[self.rank])
        for dest in sorted(msgs):
            self.send(msgs[dest], dest, tag=EXCHANGE_TAG)
        out: dict[int, Any] = {}
        for _ in range(n_recv):
            payload, src, _tag = self.recv_status(ANY_SOURCE, EXCHANGE_TAG)
            out[src] = payload
        return {src: out[src] for src in sorted(out)}

    # -- nonblocking collectives -------------------------------------------
    #
    # Transport hooks the concrete communicators supply (all unmetered —
    # metering stays up here so backends agree by construction):
    #
    # * ``_nb_post(dest, tag, wire, nbytes)`` — deposit a pre-encoded
    #   wire in *dest*'s inbox (the buffered isend path);
    # * ``_nb_wait(source, tag)`` → ``(src, wire, nbytes)`` — block
    #   until a matching wire arrives (procs: drains the shared-memory
    #   ring — the progress step; threads: the mailbox condition wait);
    # * ``_nb_poll(source, tag)`` → ``(src, wire, nbytes) | None`` —
    #   the nonblocking matching probe behind ``Request.test``.
    #
    # Posting order doubles as the tag schedule: every rank must post
    # its nonblocking collectives in the same order (the usual
    # collective contract), which keeps the per-communicator sequence
    # numbers — and therefore the tags — globally consistent without
    # any extra handshake.

    def _next_nb_seq(self) -> int:
        seq = getattr(self, "_nb_seq", 0)
        self._nb_seq = seq + 1
        return seq

    def iallreduce(self, obj: Any, op: Any = "sum") -> ReduceRequest:
        """Nonblocking allreduce (mpi4py: ``Iallreduce``).

        Decentralized mesh: encode the contribution once, post the same
        wire to every peer under a sequence-numbered tag, return an
        in-flight :class:`~repro.simmpi.requests.ReduceRequest`.
        Completion (inside ``wait``/``test``) collects the ``size - 1``
        peer wires and folds them in ascending rank order with this
        rank's wire at its own index — the blocking board
        ``allreduce``'s exact fold — and meters one collective call
        with identical byte accounting (contribution once, peer bytes
        as received), so blocking and overlapped callers produce the
        same logical ledger.
        """
        self._check_abort()
        fn = resolve_op(op)
        tag = IALLREDUCE_TAG + self._next_nb_seq()
        wire, nbytes = self._encode(obj)
        for peer in range(self.size):
            if peer != self.rank:
                self._nb_post(peer, tag, wire, nbytes)
        return ReduceRequest(self, tag, fn, wire, nbytes)

    def iexchange(self, msgs: Mapping[int, Any]) -> ExchangeRequest:
        """Nonblocking sparse exchange (the pipelined *Swap Boundary
        Information* primitive).

        Payload sends go out immediately (buffered, metered exactly as
        :meth:`exchange` meters them) under a sequence-numbered tag;
        the counts handshake rides a nested :meth:`iallreduce` so the
        caller is never blocked at post time.  ``wait()`` resolves the
        counts, drains the expected payloads and returns the
        ascending-source dict :meth:`exchange` returns — byte-for-byte
        the same ledger, fold order and result, only the *when* of the
        blocking moved.
        """
        self._check_abort()
        self._check_exchange_dests(msgs)
        tag = IEXCHANGE_TAG + self._next_nb_seq()
        counts = np.zeros(self.size, dtype=np.int64)
        for dest in msgs:
            counts[dest] = 1
        counts_req = self.iallreduce(counts)
        # The outer request owns wait/overlap attribution; the nested
        # counts reduce still meters its bytes.
        counts_req._meter = False
        for dest in sorted(msgs):
            self.send(msgs[dest], dest, tag=tag)
        return ExchangeRequest(self, tag, counts_req)

    def try_recv_status(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> "tuple[bool, Any]":
        """Nonblocking probe returning ``(found, (payload, src))``.

        The wildcard-source counterpart of ``try_recv`` the in-flight
        exchange needs (it must attribute each payload to its sender);
        implemented on top of the backend's unmetered poll hook plus
        this rank's metered decode, so a payload received here is
        indistinguishable — to the ledger — from one received by
        ``recv_status``.
        """
        if source != ANY_SOURCE:
            self._check_peer(source)
        self._check_tag(tag, allow_any=True)
        got = self._nb_poll(source, tag)
        if got is None:
            return False, None
        src, wire, nbytes = got
        self._stats.record_recv(nbytes)
        return True, (self._decode(wire), src)
