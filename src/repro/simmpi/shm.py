"""Shared-memory ring channels for the process-per-rank backend.

Each rank owns one :class:`ShmRing` — a multi-producer / single-consumer
byte ring living in a ``multiprocessing.shared_memory`` segment — as its
inbox.  Senders lay typed-frame parts (see
:func:`~repro.simmpi.wire.encode_frame_parts`) directly into the ring,
so a message crosses the process boundary with exactly one copy out of
the sender (parts → segment) and one copy in at the receiver (segment →
a private ``bytes`` that frees the ring slot); ``decode_frame`` then
reconstructs numpy columns as zero-copy ``frombuffer`` views into that
buffer — the same consumer-side zero-copy story the thread backend has.

Ring layout (offsets within the segment)::

    0..8    head  (u64, free-running byte count written)
    8..16   tail  (u64, free-running byte count consumed)
    16..    data  (capacity bytes, records wrap around)

Record layout (may wrap)::

    <Q payload_len> <q source> <q tag> <I flags> <I pad>  payload...

``head``/``tail`` are free-running, so ``head - tail`` is the number of
unconsumed bytes and the ring never needs a wrap marker.  All header
and data access happens under one cross-process lock (collectives and
swap batches are kilobyte- to megabyte-scale, so lock hold time is copy
time; a lock-free index scheme would buy nothing here), and a counting
semaphore carries "a record exists" from producers to the consumer so a
blocked receive sleeps in the kernel, not in a poll loop.

Spill protocol: a frame larger than the ring (or one that cannot find
space within ``SPILL_WAIT``, e.g. many senders bursting at one inbox)
is written to a fresh one-shot ``SharedMemory`` segment instead, and
the ring carries only a 16-byte-ish descriptor (``FLAG_SPILL``) naming
it.  The receiver attaches, copies the payload out, and unlinks —
sender-side buffered ``send`` semantics therefore never block on a full
ring, matching the thread backend's unbounded mailboxes.  Inline
records keep ``RESERVE`` bytes of the ring free so spill descriptors
always have room to land.

Resource-tracker note: one resource tracker serves the whole process
tree (fork and spawn both inherit the parent's tracker fd) and its
cache is name-keyed, so create-register / attach-register / unlink-
unregister across *different* processes balance out without manual
``resource_tracker`` calls.  Attaching in ``__setstate__`` (spawn)
therefore needs no unregister dance; the parent unlinks every ring at
teardown and drains leftover spill segments first.
"""

from __future__ import annotations

import struct
import time
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Callable

__all__ = ["ShmRing", "ShmControl", "FLAG_SPILL", "spill_out", "spill_in"]

_HDR = 16  # ring header: head u64 @ 0, tail u64 @ 8
_REC = struct.Struct("<QqqII")  # payload_len, source, tag, flags, pad
_U64 = struct.Struct("<Q")
_SPILL = struct.Struct("<Q")  # spilled payload length; segment name follows

REC_HEADER = _REC.size

#: Record flag: payload is a spill descriptor, not the frame itself.
FLAG_SPILL = 1

#: Ring bytes inline records must leave free, so spill descriptors (the
#: mechanism that unblocks a congested ring) can always land.
RESERVE = 4096

#: How long a producer waits for inline space before spilling (seconds).
SPILL_WAIT = 0.02

#: Slice length for semaphore waits, bounding abort-notice latency.
_POLL_INTERVAL = 0.05

#: Nonblocking-acquire spin iterations an empty receive burns before
#: parking in ``_POLL_INTERVAL`` semaphore slices.  Under
#: compute/communication overlap the matching record usually lands
#: within microseconds of the consumer arriving, so a short spin (with
#: ``sleep(0)`` yields, so a same-core producer can run) picks it up
#: without paying a kernel park + up-to-50 ms wake.
_SPIN = 100


def spill_out(parts: list, payload_len: int) -> bytes:
    """Write frame *parts* to a one-shot segment; return its descriptor."""
    seg = SharedMemory(create=True, size=max(payload_len, 1))
    try:
        buf = seg.buf
        pos = 0
        for part in parts:
            mv = part if isinstance(part, memoryview) else memoryview(part)
            n = mv.nbytes
            buf[pos:pos + n] = mv
            pos += n
    finally:
        seg.close()
    return _SPILL.pack(payload_len) + seg.name.encode("utf-8")


def spill_in(descriptor: bytes) -> bytes:
    """Resolve a spill descriptor: copy the payload out, unlink the segment."""
    (payload_len,) = _SPILL.unpack_from(descriptor, 0)
    name = bytes(descriptor[_SPILL.size:]).decode("utf-8")
    seg = SharedMemory(name=name)
    try:
        data = bytes(seg.buf[:payload_len])
    finally:
        seg.close()
        seg.unlink()
    return data


class ShmRing:
    """One rank's inbox: an MPSC byte ring in a shared-memory segment.

    Constructed by the launcher; crosses into rank processes either by
    fork inheritance or by pickling (``__getstate__`` ships the segment
    name and the synchronization primitives, ``__setstate__``
    re-attaches).  ``close``/``unlink`` are owner (launcher) calls.
    """

    def __init__(self, capacity: int, *, ctx: Any) -> None:
        if capacity < 4 * RESERVE:
            raise ValueError(
                f"ring capacity must be >= {4 * RESERVE}, got {capacity}"
            )
        self.capacity = capacity
        self._lock = ctx.Lock()
        self._items = ctx.Semaphore(0)
        self._shm = SharedMemory(create=True, size=_HDR + capacity)
        self._buf = self._shm.buf
        self._buf[:_HDR] = b"\x00" * _HDR

    # -- pickling (spawn start method) ---------------------------------
    def __getstate__(self) -> dict:
        return {
            "capacity": self.capacity,
            "name": self._shm.name,
            "lock": self._lock,
            "items": self._items,
        }

    def __setstate__(self, state: dict) -> None:
        self.capacity = state["capacity"]
        self._lock = state["lock"]
        self._items = state["items"]
        self._shm = SharedMemory(name=state["name"])
        self._buf = self._shm.buf

    # -- byte plumbing --------------------------------------------------
    def _copy_in(self, pos: int, mv: memoryview) -> int:
        """Copy *mv* into the data area at ring offset *pos* (may wrap)."""
        n = mv.nbytes
        first = min(n, self.capacity - pos)
        self._buf[_HDR + pos:_HDR + pos + first] = mv[:first]
        if n > first:
            self._buf[_HDR:_HDR + n - first] = mv[first:]
        return (pos + n) % self.capacity

    def _copy_out(self, pos: int, n: int) -> bytes:
        first = min(n, self.capacity - pos)
        out = bytearray(n)
        out[:first] = self._buf[_HDR + pos:_HDR + pos + first]
        if n > first:
            out[first:] = self._buf[_HDR:_HDR + n - first]
        return bytes(out)

    # -- producer -------------------------------------------------------
    def put(
        self,
        source: int,
        tag: int,
        parts: list,
        payload_len: int,
        flags: int = 0,
        *,
        wait: float = SPILL_WAIT,
        poll: "Callable[[], None] | None" = None,
    ) -> bool:
        """Append one record; return False if space never appeared.

        Inline records (``flags == 0``) additionally keep ``RESERVE``
        bytes free; a False return means "spill instead".  For spill
        descriptors the caller passes the op timeout as *wait* — a
        False return there means the consumer has stopped draining.
        *poll* (abort check) runs every wait iteration and may raise.
        """
        rec_len = REC_HEADER + payload_len
        needed = rec_len + (RESERVE if not (flags & FLAG_SPILL) else 0)
        if needed > self.capacity:
            return False
        deadline = time.monotonic() + wait
        header = _REC.pack(payload_len, source, tag, flags, 0)
        while True:
            with self._lock:
                head = _U64.unpack_from(self._buf, 0)[0]
                tail = _U64.unpack_from(self._buf, 8)[0]
                if self.capacity - (head - tail) >= needed:
                    pos = self._copy_in(head % self.capacity,
                                        memoryview(header))
                    for part in parts:
                        mv = (part if isinstance(part, memoryview)
                              else memoryview(part))
                        pos = self._copy_in(pos, mv)
                    _U64.pack_into(self._buf, 0, head + rec_len)
                    self._items.release()
                    return True
            if poll is not None:
                poll()
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.0005)

    # -- consumer -------------------------------------------------------
    def _pop(self) -> tuple[int, int, bytes]:
        """Remove the record at the tail (items semaphore already held)."""
        with self._lock:
            tail = _U64.unpack_from(self._buf, 8)[0]
            header = self._copy_out(tail % self.capacity, REC_HEADER)
            payload_len, source, tag, flags, _pad = _REC.unpack(header)
            payload = self._copy_out(
                (tail + REC_HEADER) % self.capacity, payload_len
            )
            _U64.pack_into(self._buf, 8, tail + REC_HEADER + payload_len)
        if flags & FLAG_SPILL:
            payload = spill_in(payload)
        return source, tag, payload

    def get(
        self,
        *,
        timeout: float,
        poll: "Callable[[], None] | None" = None,
    ) -> "tuple[int, int, bytes] | None":
        """Block for the next record; None on timeout.

        Adaptive spin-then-wait: a bounded run of nonblocking acquire
        attempts (:data:`_SPIN`) catches records that land
        within microseconds without a kernel park; only then does the
        wait fall back to ``_POLL_INTERVAL`` semaphore slices, so
        *poll* (abort check) still runs while the kernel would
        otherwise park us indefinitely — in both phases.
        """
        deadline = time.monotonic() + timeout
        for _ in range(_SPIN):
            if poll is not None:
                poll()
            if self._items.acquire(block=False):
                return self._pop()
            time.sleep(0)
        while True:
            if poll is not None:
                poll()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            if self._items.acquire(timeout=min(_POLL_INTERVAL, remaining)):
                return self._pop()

    def try_get(self) -> "tuple[int, int, bytes] | None":
        """Nonblocking variant of :meth:`get`."""
        if not self._items.acquire(block=False):
            return None
        return self._pop()

    # -- owner teardown -------------------------------------------------
    def drain(self) -> int:
        """Consume (and discard) leftover records; unlinks their spills.

        Launcher-side cleanup after the ranks have exited: any spill
        segment still referenced from the ring would otherwise outlive
        the job in ``/dev/shm``.
        """
        n = 0
        while True:
            try:
                rec = self.try_get()
            except FileNotFoundError:  # spill already gone (rank died mid-read)
                n += 1
                continue
            if rec is None:
                return n
            n += 1

    def close(self, *, unlink: bool = False) -> None:
        self._buf = None
        self._shm.close()
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double teardown
                pass


class ShmControl:
    """Job-wide abort flag in a 16-byte shared segment.

    Layout: ``[0]`` abort byte, ``[8:16]`` failed rank (i64, -1 for the
    launcher).  First writer wins, matching the thread backend's
    ``JobContext.abort``; readers pay one byte-load per check, so rank
    processes can poll it on every blocking-wait slice.
    """

    def __init__(self, ctx: Any) -> None:
        self._lock = ctx.Lock()
        self._shm = SharedMemory(create=True, size=16)
        self._shm.buf[:16] = b"\x00" * 16

    def __getstate__(self) -> dict:
        return {"name": self._shm.name, "lock": self._lock}

    def __setstate__(self, state: dict) -> None:
        self._lock = state["lock"]
        self._shm = SharedMemory(name=state["name"])

    def abort(self, rank: int) -> None:
        with self._lock:
            if not self._shm.buf[0]:
                struct.pack_into("<q", self._shm.buf, 8, rank)
                self._shm.buf[0] = 1

    @property
    def aborted(self) -> bool:
        return bool(self._shm.buf[0])

    @property
    def failed_rank(self) -> int:
        return struct.unpack_from("<q", self._shm.buf, 8)[0]

    def close(self, *, unlink: bool = False) -> None:
        self._shm.close()
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double teardown
                pass
