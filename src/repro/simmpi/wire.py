"""Typed frame codec: numpy-aware wire format for simmpi messages.

The swap/membership/proposal payloads that cross the simulated network
are flat numpy columns (and small tuples/dicts wrapping them).  Pickling
them costs several full copies per hop (``dumps`` walks + copies, then
``loads`` copies again); a real MPI port ships the same columns through
the buffer protocol with zero intermediate copies.  This module is the
in-process analogue: :func:`encode_frame` lays a message out as one
compact token stream — per-value tag, per-column dtype code + shape —
followed by the raw, 8-byte-aligned array blobs, built with a single
``b"".join`` over memoryviews (one copy total).  :func:`decode_frame`
reconstructs arrays with ``np.frombuffer`` straight into the frame
buffer (zero copies; the arrays are read-only views, which every
consumer in ``repro.core`` tolerates because received columns are only
read, ``astype``-ed, or concatenated).

Frame layout::

    magic (1B) | version (1B) | token stream

Tokens (1-byte tag, then operands)::

    0x00 None
    0x01 True                  0x02 False
    0x03 int64      <8B signed LE>        (big ints fall back to pickle)
    0x04 float64    <8B IEEE LE>
    0x05 str        <u32 len><utf8 bytes>
    0x06 bytes      <u64 len><raw>
    0x07 tuple      <u32 count><tokens...>
    0x08 list       <u32 count><tokens...>
    0x09 dict       <u32 count><key token, value token>...
    0x0A ndarray    <u8 dtype-str len><dtype.str><u8 ndim><u64 shape...>
                    <pad to 8B><raw C-order data>
    0x0B pickle     <u64 len><pickle bytes>   (anything else)

Anything the typed tags cannot express exactly — numpy scalars, sets,
object arrays, custom classes, ints beyond 64 bits — is embedded as a
pickle token, so the codec is total: every picklable payload
round-trips with an equal decoded value (bitwise for float columns).

:func:`encode_payload` / :func:`decode_payload` are the one seam every
communicator sends through: a message crosses a rank boundary only as
a frame.  They meter physical wire bytes, logical payload bytes (the
transport-independent :func:`~repro.simmpi.stats.payload_nbytes`
estimate), and encode/decode seconds into a
:class:`~repro.simmpi.stats.RankStats` when one is given.
"""

from __future__ import annotations

import pickle
import struct
from time import perf_counter

import numpy as np

from .stats import payload_nbytes

__all__ = [
    "FrameError",
    "encode_frame",
    "encode_frame_parts",
    "decode_frame",
    "encode_payload",
    "encode_payload_parts",
    "decode_payload",
]

_MAGIC = 0xF7
_VERSION = 1

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT64 = 0x03
_T_FLOAT64 = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_TUPLE = 0x07
_T_LIST = 0x08
_T_DICT = 0x09
_T_NDARRAY = 0x0A
_T_PICKLE = 0x0B

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

_pack_i64 = struct.Struct("<q").pack
_pack_f64 = struct.Struct("<d").pack
_pack_u32 = struct.Struct("<I").pack
_pack_u64 = struct.Struct("<Q").pack
_unpack_i64 = struct.Struct("<q").unpack_from
_unpack_f64 = struct.Struct("<d").unpack_from
_unpack_u32 = struct.Struct("<I").unpack_from
_unpack_u64 = struct.Struct("<Q").unpack_from

_PAD = [b"\x00" * k for k in range(8)]

# Decoded dtype objects keyed by their wire ``dtype.str`` bytes — a
# handful of distinct dtypes cross the wire, so this never grows.
_DTYPE_CACHE: dict = {}


class FrameError(ValueError):
    """Raised when a buffer is not a well-formed typed frame."""


def _frameable_dtype(dtype: np.dtype) -> bool:
    """True when ``dtype.str`` round-trips the dtype exactly.

    Object arrays carry references (no raw bytes to ship) and exotic
    dtypes (structured with titles, datetimes with metadata lost by
    ``.str``) must not silently change type on the wire; all of those
    take the pickle token instead.
    """
    if dtype.hasobject:
        return False
    try:
        return np.dtype(dtype.str) == dtype
    except TypeError:
        return False


def _encode_into(obj, parts: list, offset: int) -> int:
    """Append the tokens for *obj* to *parts*; return the new offset.

    *offset* tracks the running byte position so array blobs can be
    padded to 8-byte alignment (keeps ``np.frombuffer`` views aligned
    for every power-of-two itemsize).
    """
    t = type(obj)
    if obj is None:
        parts.append(b"\x00")
        return offset + 1
    if t is bool:
        parts.append(b"\x01" if obj else b"\x02")
        return offset + 1
    if t is int:
        if _INT64_MIN <= obj <= _INT64_MAX:
            parts.append(b"\x03" + _pack_i64(obj))
            return offset + 9
        # falls through to the pickle token
    elif t is float:
        parts.append(b"\x04" + _pack_f64(obj))
        return offset + 9
    elif t is str:
        raw = obj.encode("utf-8")
        parts.append(b"\x05" + _pack_u32(len(raw)) + raw)
        return offset + 5 + len(raw)
    elif t is bytes:
        parts.append(b"\x06" + _pack_u64(len(obj)))
        parts.append(obj)
        return offset + 9 + len(obj)
    elif t is tuple or t is list:
        parts.append(
            (b"\x07" if t is tuple else b"\x08") + _pack_u32(len(obj))
        )
        offset += 5
        for item in obj:
            offset = _encode_into(item, parts, offset)
        return offset
    elif t is dict:
        parts.append(b"\x09" + _pack_u32(len(obj)))
        offset += 5
        for k, v in obj.items():
            offset = _encode_into(k, parts, offset)
            offset = _encode_into(v, parts, offset)
        return offset
    elif t is np.ndarray and _frameable_dtype(obj.dtype):
        dstr = obj.dtype.str.encode("ascii")
        header = bytearray(b"\x0a")
        header.append(len(dstr))
        header += dstr
        header.append(obj.ndim)
        for dim in obj.shape:
            header += _pack_u64(dim)
        offset += len(header)
        pad = (-offset) % 8
        header += _PAD[pad]
        offset += pad
        parts.append(bytes(header))
        if obj.size:
            if not obj.flags.c_contiguous:
                obj = np.ascontiguousarray(obj)
            parts.append(memoryview(obj).cast("B"))
        return offset + obj.nbytes
    raw = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    parts.append(b"\x0b" + _pack_u64(len(raw)))
    parts.append(raw)
    return offset + 9 + len(raw)


def encode_frame_parts(obj) -> "tuple[list, int]":
    """Encode *obj* as a typed frame without joining the parts.

    Returns ``(parts, total_nbytes)`` where *parts* is the ordered list
    of ``bytes``/``memoryview`` fragments whose concatenation is exactly
    :func:`encode_frame`'s output.  Transports that own a destination
    buffer (the process backend's shared-memory rings) copy each part
    straight into place, skipping the intermediate join entirely — the
    frame is laid out *in* the shared segment, not staged through a
    private ``bytes``.
    """
    parts = [bytes((_MAGIC, _VERSION))]
    total = _encode_into(obj, parts, 2)
    return parts, total


def encode_frame(obj) -> bytes:
    """Encode *obj* as a typed frame (one copy: the final join)."""
    parts, _total = encode_frame_parts(obj)
    return b"".join(parts)


def _decode_from(buf, offset: int):
    """Decode one token at *offset*; return ``(value, next_offset)``."""
    tag = buf[offset]
    offset += 1
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_INT64:
        return _unpack_i64(buf, offset)[0], offset + 8
    if tag == _T_FLOAT64:
        return _unpack_f64(buf, offset)[0], offset + 8
    if tag == _T_STR:
        n = _unpack_u32(buf, offset)[0]
        offset += 4
        return buf[offset:offset + n].decode("utf-8"), offset + n
    if tag == _T_BYTES:
        n = _unpack_u64(buf, offset)[0]
        offset += 8
        return bytes(buf[offset:offset + n]), offset + n
    if tag == _T_TUPLE or tag == _T_LIST:
        n = _unpack_u32(buf, offset)[0]
        offset += 4
        items = []
        for _ in range(n):
            item, offset = _decode_from(buf, offset)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), offset
    if tag == _T_DICT:
        n = _unpack_u32(buf, offset)[0]
        offset += 4
        out = {}
        for _ in range(n):
            k, offset = _decode_from(buf, offset)
            v, offset = _decode_from(buf, offset)
            out[k] = v
        return out, offset
    if tag == _T_NDARRAY:
        dlen = buf[offset]
        offset += 1
        dkey = bytes(buf[offset:offset + dlen])
        dtype = _DTYPE_CACHE.get(dkey)
        if dtype is None:
            dtype = np.dtype(dkey.decode("ascii"))
            _DTYPE_CACHE[dkey] = dtype
        offset += dlen
        ndim = buf[offset]
        offset += 1
        shape = tuple(
            _unpack_u64(buf, offset + 8 * i)[0] for i in range(ndim)
        )
        offset += 8 * ndim
        offset += (-offset) % 8  # skip alignment pad
        count = 1
        for dim in shape:
            count *= dim
        nbytes = count * dtype.itemsize
        if count == 0:
            arr = np.empty(shape, dtype=dtype)
        else:
            arr = np.frombuffer(
                buf, dtype=dtype, count=count, offset=offset
            )
            if ndim != 1:
                arr = arr.reshape(shape)
        return arr, offset + nbytes
    if tag == _T_PICKLE:
        n = _unpack_u64(buf, offset)[0]
        offset += 8
        return pickle.loads(buf[offset:offset + n]), offset + n
    raise FrameError(f"unknown frame tag 0x{tag:02x} at offset {offset - 1}")


def decode_frame(buf):
    """Decode a typed frame back into the original value.

    Array tokens come back as read-only ``np.frombuffer`` views into
    *buf* — zero copies.  Callers that must mutate a received array
    should copy it first.
    """
    if len(buf) < 2 or buf[0] != _MAGIC:
        raise FrameError("buffer is not a typed frame (bad magic)")
    if buf[1] != _VERSION:
        raise FrameError(f"unsupported frame version {buf[1]}")
    try:
        value, end = _decode_from(buf, 2)
    except FrameError:
        raise
    except (struct.error, ValueError, IndexError) as exc:
        raise FrameError(f"truncated or corrupt frame: {exc}") from exc
    if end != len(buf):
        raise FrameError(
            f"trailing garbage: frame ends at {end}, buffer has {len(buf)}"
        )
    return value


def encode_payload(obj, stats=None):
    """Encode *obj* as a typed frame; return ``(wire, physical_nbytes)``.

    When *stats* is given, also meters the logical payload size (the
    transport-independent estimate) and the encode wall time into the
    current phase.
    """
    if stats is None:
        wire = encode_frame(obj)
        return wire, len(wire)
    t0 = perf_counter()
    wire = encode_frame(obj)
    stats.record_encode_seconds(perf_counter() - t0)
    stats.record_logical(payload_nbytes(obj))
    return wire, len(wire)


def encode_payload_parts(obj, stats=None):
    """Like :func:`encode_payload` but returns ``(parts, physical_nbytes)``.

    The parts list concatenates to exactly what :func:`encode_payload`
    returns, and the metering (logical bytes, encode seconds) is
    identical — the two entry points are interchangeable from the
    ledger's point of view.
    """
    if stats is None:
        return encode_frame_parts(obj)
    t0 = perf_counter()
    parts, total = encode_frame_parts(obj)
    stats.record_encode_seconds(perf_counter() - t0)
    stats.record_logical(payload_nbytes(obj))
    return parts, total


def decode_payload(wire, stats=None):
    """Inverse of :func:`encode_payload`."""
    if stats is None:
        return decode_frame(wire)
    t0 = perf_counter()
    obj = decode_frame(wire)
    stats.record_decode_seconds(perf_counter() - t0)
    return obj
