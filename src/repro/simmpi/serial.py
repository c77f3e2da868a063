"""Size-1 communicator: the degenerate SPMD job with no threads.

Running the *same* distributed code path on one rank is how the test
suite proves "distributed == sequential" equivalences cheaply, and how
users debug rank logic without thread interleavings in the way.
Self-sends are supported (a rank may legally ``send`` to itself and
``recv`` it back); every collective is the identity.

Loopback traffic is metered through the same
:func:`~repro.simmpi.wire.encode_payload` hook the threaded runtime
uses, so a 1-rank run reports the same per-message byte counts a
``ThreadCommunicator`` rank would for identical sends.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Sequence

from .comm import ANY_SOURCE, ANY_TAG, Communicator, resolve_op
from .errors import DeadlockError, InvalidRankError, InvalidTagError
from .stats import CommLedger, RankStats
from .wire import decode_payload, encode_payload

__all__ = ["SerialCommunicator"]


class SerialCommunicator(Communicator):
    """A communicator with ``size == 1`` and ``rank == 0``."""

    def __init__(self, ledger: CommLedger | None = None) -> None:
        self._ledger = ledger if ledger is not None else CommLedger(1)
        self._stats = self._ledger.for_rank(0)
        self._loopback: deque[tuple[int, Any, int]] = deque()

    @property
    def rank(self) -> int:
        return 0

    @property
    def size(self) -> int:
        return 1

    @property
    def stats(self) -> RankStats:
        return self._stats

    @property
    def ledger(self) -> CommLedger:
        return self._ledger

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<SerialCommunicator rank=0 size=1>"

    # -- point to point -------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if dest != 0:
            raise InvalidRankError(dest, 1)
        if tag < 0:
            raise InvalidTagError(tag)
        wire, nbytes = encode_payload(obj, self._stats)
        self._stats.record_send(nbytes)
        self._loopback.append((tag, wire, nbytes))

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        return self.recv_status(source, tag)[0]

    def recv_status(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> tuple[Any, int, int]:
        if source not in (ANY_SOURCE, 0):
            raise InvalidRankError(source, 1)
        for i, (tg, wire, nbytes) in enumerate(self._loopback):
            if tag in (ANY_TAG, tg):
                del self._loopback[i]
                self._stats.record_recv(nbytes)
                return decode_payload(wire, self._stats), 0, tg
        raise DeadlockError(
            f"recv(source={source}, tag={tag}) on a size-1 communicator "
            "with no matching loopback message would block forever"
        )

    def try_recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> tuple[bool, "Any"]:
        """Nonblocking matching probe backing :meth:`Request.test`."""
        if source not in (ANY_SOURCE, 0):
            raise InvalidRankError(source, 1)
        for i, (tg, wire, nbytes) in enumerate(self._loopback):
            if tag in (ANY_TAG, tg):
                del self._loopback[i]
                self._stats.record_recv(nbytes)
                return True, decode_payload(wire, self._stats)
        return False, None

    # -- collectives ------------------------------------------------------
    def barrier(self) -> None:
        self._stats.record_barrier()

    def bcast(self, obj: Any, root: int = 0) -> Any:
        self._check_root(root)
        return obj

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        self._check_root(root)
        return [obj]

    def allgather(self, obj: Any) -> list[Any]:
        return [obj]

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        self._check_root(root)
        if objs is None or len(objs) != 1:
            raise ValueError("scatter root must pass exactly 1 object")
        return objs[0]

    def reduce(self, obj: Any, op: Any = "sum", root: int = 0) -> Any | None:
        self._check_root(root)
        resolve_op(op)  # validate eagerly, same as the threaded path
        return obj

    def allreduce(self, obj: Any, op: Any = "sum") -> Any:
        resolve_op(op)
        return obj

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        if len(objs) != 1:
            raise ValueError("alltoall needs exactly 1 entry on a size-1 communicator")
        return list(objs)

    @staticmethod
    def _check_root(root: int) -> None:
        if root != 0:
            raise InvalidRankError(root, 1)
