"""Typed frame codec and the sparse exchange built on it.

Three contracts:

* The codec (:mod:`repro.simmpi.wire`) round-trips every payload shape
  the protocol ships — bitwise for numpy columns, value-exact for the
  Python scaffolding around them — and rejects corrupt frames.
* The sparse :meth:`ThreadCommunicator.exchange` delivers exactly what
  the dense alltoall oracle delivers, in ascending source order, while
  sending one point-to-point message per *actual* destination instead
  of ``p - 1``.
* The metering seam: physical bytes are the encoded frame length,
  logical bytes are the structural :func:`payload_nbytes` estimate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.simmpi import (
    FrameError,
    decode_frame,
    decode_payload,
    encode_frame,
    encode_payload,
    payload_nbytes,
    run_spmd,
)


def _assert_value_equal(a, b):
    """Recursive exact equality, arrays compared bitwise with dtype."""
    assert type(a) is type(b), (type(a), type(b))
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        np.testing.assert_array_equal(a, b)
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_value_equal(x, y)
    elif isinstance(a, dict):
        assert list(a) == list(b)  # insertion order preserved too
        for k in a:
            _assert_value_equal(a[k], b[k])
    elif isinstance(a, float):
        # NaN-tolerant bitwise float equality.
        assert np.float64(a).tobytes() == np.float64(b).tobytes()
    else:
        assert a == b


class TestFrameRoundTrip:
    """encode_frame → decode_frame is the identity on values."""

    @pytest.mark.parametrize("value", [
        None, True, False, 0, -1, 2**62, -(2**62), 0.0, -0.0, 1.5,
        float("inf"), float("nan"), "", "héllo", b"", b"\x00\xff",
        (), [], {}, (1, "a", None), [1, [2, [3]]],
        {"k": 1, 2: "v", None: (1.5, b"x")},
    ])
    def test_scalars_and_containers(self, value):
        _assert_value_equal(decode_frame(encode_frame(value)), value)

    @pytest.mark.parametrize("dtype", [
        np.int64, np.int32, np.float64, np.float32, np.uint8, np.bool_,
        np.complex128,
    ])
    def test_array_dtypes(self, dtype):
        arr = np.arange(17).astype(dtype)
        back = decode_frame(encode_frame(arr))
        assert back.dtype == arr.dtype
        np.testing.assert_array_equal(back, arr)

    def test_empty_and_multidim_arrays(self):
        for arr in [
            np.empty(0, np.int64),
            np.zeros((3, 4)),
            np.arange(24).reshape(2, 3, 4),
            np.empty((0, 5), np.float32),
        ]:
            back = decode_frame(encode_frame(arr))
            assert back.dtype == arr.dtype and back.shape == arr.shape
            np.testing.assert_array_equal(back, arr)

    def test_non_contiguous_array(self):
        base = np.arange(100).reshape(10, 10)
        for view in [base[::2, 1::3], base.T, base[5]]:
            back = decode_frame(encode_frame(view))
            np.testing.assert_array_equal(back, view)

    def test_float_columns_bitwise(self):
        rng = np.random.default_rng(0)
        col = rng.random(1000) * np.float64(1e-300)
        back = decode_frame(encode_frame(col))
        assert back.tobytes() == col.tobytes()

    def test_decoded_arrays_are_zero_copy_views(self):
        wire = encode_frame(np.arange(64, dtype=np.int64))
        back = decode_frame(wire)
        assert not back.flags.writeable  # frombuffer view, not a copy

    def test_swap_wire_shape(self):
        """The exact payload shape the swap protocol ships."""
        wire = {
            2: (
                np.array([5, 9, 11], np.int64),
                np.array([0.25, 0.5, 0.125]),
                np.array([0.01, 0.0, 0.02]),
                np.array([3, 1, 2], np.int64),
                np.array([True, False, True]),
            ),
        }
        _assert_value_equal(decode_frame(encode_frame(wire)), wire)

    def test_pickle_fallback_paths(self):
        """Objects outside the token set survive via embedded pickle."""
        for value in [
            {1, 2, 3},
            np.int64(7),  # bare numpy scalar
            2**200,  # beyond int64
            complex(1, 2),
        ]:
            back = decode_frame(encode_frame(value))
            assert type(back) is type(value) and back == value

    def test_object_dtype_falls_back_to_pickle(self):
        arr = np.array([{"a": 1}, None], dtype=object)
        back = decode_frame(encode_frame(arr))
        assert back.dtype == object
        assert back[0] == {"a": 1} and back[1] is None

    @settings(max_examples=60, deadline=None)
    @given(
        arr=hnp.arrays(
            dtype=st.sampled_from(
                [np.int64, np.int32, np.float64, np.float32, np.uint8]
            ),
            shape=hnp.array_shapes(max_dims=3, max_side=16),
        )
    )
    def test_hypothesis_array_round_trip(self, arr):
        back = decode_frame(encode_frame(arr))
        assert back.dtype == arr.dtype and back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()

    _leaf = st.one_of(
        st.none(), st.booleans(), st.integers(),
        st.floats(allow_nan=False), st.text(max_size=20),
        st.binary(max_size=20),
        hnp.arrays(
            dtype=st.sampled_from([np.int64, np.float64]),
            shape=hnp.array_shapes(max_dims=1, max_side=8),
        ),
    )

    @settings(max_examples=60, deadline=None)
    @given(
        value=st.recursive(
            _leaf,
            lambda inner: st.one_of(
                st.lists(inner, max_size=4),
                st.tuples(inner, inner),
                st.dictionaries(
                    st.one_of(st.integers(), st.text(max_size=8)),
                    inner, max_size=4,
                ),
            ),
            max_leaves=12,
        )
    )
    def test_hypothesis_nested_round_trip(self, value):
        _assert_value_equal(decode_frame(encode_frame(value)), value)


class TestFrameErrors:
    def test_bad_magic_rejected(self):
        with pytest.raises(FrameError):
            decode_frame(b"\x00\x01\x00")

    def test_bad_version_rejected(self):
        wire = bytearray(encode_frame(1))
        wire[1] = 99
        with pytest.raises(FrameError):
            decode_frame(bytes(wire))

    def test_truncated_frame_rejected(self):
        wire = encode_frame(np.arange(100))
        with pytest.raises(FrameError):
            decode_frame(wire[: len(wire) // 2])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(FrameError):
            decode_frame(encode_frame(1) + b"\x00")


class TestPayloadSeam:
    """encode_payload/decode_payload: the communicator-facing hook."""

    def test_frames_mode_round_trip_and_size(self):
        obj = (np.arange(10), "tag")
        wire, nbytes = encode_payload(obj)
        assert nbytes == len(wire) == len(encode_frame(obj))
        _assert_value_equal(decode_payload(wire), obj)


def _random_sparse_schedule(rng, size, rounds):
    """Per-round {rank: {dest: payload}} with random sparse patterns."""
    schedule = []
    for rnd in range(rounds):
        per_rank = {}
        for r in range(size):
            msgs = {}
            for d in range(size):
                if d != r and rng.random() < 0.45:
                    msgs[d] = (
                        np.arange(rng.integers(0, 6), dtype=np.int64) + d,
                        f"r{r}d{d}x{rnd}",
                    )
            per_rank[r] = msgs
        schedule.append(per_rank)
    return schedule


class TestSparseExchange:
    """ThreadCommunicator.exchange vs the dense alltoall oracle."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 6))
        schedule = _random_sparse_schedule(rng, size, rounds=3)

        def prog(comm, dense):
            got = []
            for per_rank in schedule:
                msgs = per_rank[comm.rank]
                if dense:
                    got.append(comm.exchange_dense(msgs))
                else:
                    got.append(comm.exchange(msgs))
            return got

        sparse = run_spmd(prog, size, fn_args=(False,)).results
        dense = run_spmd(prog, size, fn_args=(True,)).results
        for rank in range(size):
            for got_s, got_d in zip(sparse[rank], dense[rank]):
                assert list(got_s) == list(got_d)  # ascending sources
                _assert_value_equal(got_s, got_d)

    def test_message_count_equals_nonempty_destinations(self):
        """One p2p send per actual destination, not p - 1."""
        size = 5
        dests_by_rank = {0: [2, 4], 1: [0], 2: [], 3: [0], 4: [3]}

        def prog(comm):
            msgs = {
                d: np.full(3, comm.rank, dtype=np.int64)
                for d in dests_by_rank[comm.rank]
            }
            comm.exchange(msgs)
            return None

        res = run_spmd(prog, size)
        for rank in range(size):
            stats = res.ledger.for_rank(rank)
            assert stats.p2p_messages_sent == len(dests_by_rank[rank])
            n_in = sum(
                rank in d for r, d in dests_by_rank.items() if r != rank
            )
            assert stats.p2p_messages_recv == n_in

    def test_empty_exchange_sends_nothing(self):
        def prog(comm):
            return comm.exchange({})

        res = run_spmd(prog, 3)
        assert res.results == [{}, {}, {}]
        for rank in range(3):
            assert res.ledger.for_rank(rank).p2p_messages_sent == 0

    def test_ascending_source_order(self):
        """Receivers observe sources in ascending rank order even when
        sends race — the fold-order determinism contract."""

        def prog(comm):
            if comm.rank == 0:
                got = comm.exchange({})
                return list(got)
            msgs = {0: np.full(1000, comm.rank)}
            got = comm.exchange(msgs)
            return list(got)

        for _ in range(5):
            res = run_spmd(prog, 4)
            assert res.results[0] == [1, 2, 3]

    def test_user_tags_do_not_collide_with_exchange(self):
        """Plain tagged traffic in flight does not disturb exchange."""

        def prog(comm):
            peer = 1 - comm.rank
            comm.send(("plain", comm.rank), peer, tag=7)
            got = comm.exchange({peer: np.arange(4) + comm.rank})
            plain = comm.recv(source=peer, tag=7)
            return plain, list(got)

        res = run_spmd(prog, 2)
        assert res.results[0][0] == ("plain", 1)
        assert res.results[1][0] == ("plain", 0)

    def test_self_send_rejected(self):
        def prog(comm):
            try:
                comm.exchange({comm.rank: 1})
            except ValueError as e:
                return str(e)
            return None

        res = run_spmd(prog, 2)
        assert all("self-send" in r for r in res.results)


class TestMeterAcrossModes:
    """Meters over p2p and collective traffic: physical bytes are the
    frame length, logical bytes the structural estimate."""

    @staticmethod
    def _prog(comm):
        comm.set_phase("p2p")
        peer = 1 - comm.rank
        payload = (np.arange(500, dtype=np.float64), [1, 2, 3], "tail")
        comm.send(payload, peer)
        comm.recv(source=peer)
        comm.set_phase("coll")
        comm.allgather(np.arange(100, dtype=np.int64))
        return None

    def test_physical_bytes_track_codec(self):
        payload = (np.arange(500, dtype=np.float64), [1, 2, 3], "tail")
        res = run_spmd(self._prog, 2)
        stats = res.ledger.for_rank(0)
        assert stats.bytes_by_phase["p2p"] == len(encode_frame(payload))
        assert stats.logical_bytes_by_phase["p2p"] == payload_nbytes(payload)

    def test_serialization_seconds_metered(self):
        res = run_spmd(self._prog, 2)
        stats = res.ledger.for_rank(0)
        assert stats.total_encode_seconds > 0.0
        assert stats.total_decode_seconds > 0.0
        assert res.ledger.max_serialization_seconds > 0.0
