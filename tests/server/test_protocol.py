"""Unit tests for the length-prefixed frame protocol (JSON and columnar)."""

from __future__ import annotations

import asyncio
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.result import PathBuffer
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    FrameError,
    decode_frame,
    encode_frame,
    frame_paths,
    read_frame,
    sends_columns,
)


def _feed(*chunks: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    for chunk in chunks:
        reader.feed_data(chunk)
    reader.feed_eof()
    return reader


class TestEncodeDecode:
    def test_roundtrip(self):
        message = {"type": "submit", "id": "c1", "queries": [[0, 1, 4]], "opts": {}}
        encoded = encode_frame(message)
        length = struct.unpack(">I", encoded[:4])[0]
        assert length == len(encoded) - 4
        assert decode_frame(encoded[4:]) == message

    def test_rejects_non_object_bodies(self):
        with pytest.raises(FrameError):
            decode_frame(b"[1, 2, 3]")

    def test_rejects_undecodable_bodies(self):
        with pytest.raises(FrameError):
            decode_frame(b"{not json")
        with pytest.raises(FrameError):
            decode_frame(b"\xff\xfe")

    def test_rejects_oversized_messages(self):
        huge = {"payload": "x" * (MAX_FRAME_BYTES + 1)}
        with pytest.raises(FrameError):
            encode_frame(huge)

    @pytest.mark.parametrize("body", [b"{}", b'{"id": "c1"}', b'{"type": 7}', b'{"type": null}'])
    def test_rejects_bodies_without_a_string_type(self, body):
        with pytest.raises(FrameError, match="type"):
            decode_frame(body)


_PATHS = [(0, 1, 5), (0, 5), (0, 2, 3, 5)]


def _result_frame(buffer: PathBuffer) -> dict:
    data, indptr = buffer.wire_arrays()
    return {
        "type": "result", "id": "c1", "position": 0, "source": 0, "target": 5,
        "k": 4, "count": len(buffer), "query_ms": 0.5, "plan": "dfs",
        "timed_out": False, "bfs_cache_hit": True,
        "paths_data": data, "paths_indptr": indptr,
    }


def _same_frame(left: dict, right: dict) -> bool:
    """Frame equality with the path columns compared by value."""
    if left.keys() != right.keys():
        return False
    for key, value in left.items():
        if key in ("paths_data", "paths_indptr"):
            if not np.array_equal(value, right[key]):
                return False
        elif value != right[key]:
            return False
    return True


def _columnar_body(header: dict, data, indptr, dtype="<i4") -> bytes:
    """Hand-assemble a columnar body, bypassing the encoder's checks."""
    head = json.dumps(header).encode()
    return (
        b"\x01" + struct.pack(">I", len(head)) + head
        + np.asarray(data, dtype=dtype).tobytes() + np.asarray(indptr, dtype=dtype).tobytes()
    )


def _header(count: int, vertices: int, dtype: str = "int32") -> dict:
    return {"type": "result", "paths_dtype": dtype, "paths_count": count,
            "paths_vertices": vertices}


class TestColumnarFrames:
    def test_roundtrip_is_zero_copy_and_read_only(self):
        frame = _result_frame(PathBuffer.from_paths(_PATHS))
        encoded = encode_frame(frame)
        body = encoded[4:]
        assert body[:1] == b"\x01"
        decoded = decode_frame(body)
        assert _same_frame(decoded, frame)
        for column in (decoded["paths_data"], decoded["paths_indptr"]):
            assert column.base is body  # a view over the frame's own bytes
            assert not column.flags.writeable
        assert frame_paths(decoded).to_paths() == _PATHS

    def test_header_names_the_wire_dtype(self):
        small = decode_frame(encode_frame(_result_frame(PathBuffer.from_paths(_PATHS)))[4:])
        assert small["paths_data"].dtype == np.dtype("<i4")
        wide = PathBuffer.from_paths([(0, 2**31), (0, 5)])
        decoded = decode_frame(encode_frame(_result_frame(wide))[4:])
        assert decoded["paths_data"].dtype == decoded["paths_indptr"].dtype == np.dtype("<i8")
        assert frame_paths(decoded).to_paths() == [(0, 2**31), (0, 5)]

    def test_zero_path_frame_roundtrips(self):
        frame = _result_frame(PathBuffer())
        decoded = decode_frame(encode_frame(frame)[4:])
        assert _same_frame(decoded, frame)
        assert frame_paths(decoded).to_paths() == []

    def test_json_paths_read_as_tuples(self):
        assert frame_paths({"type": "result", "paths": [[0, 1], [0, 2, 1]]}) == [(0, 1), (0, 2, 1)]
        assert frame_paths({"type": "result"}) is None

    @pytest.mark.parametrize(
        "body, reason",
        [
            (b"\x01\x00\x00", "header length"),
            (b"\x01\x00\x00\x10\x00{}", "overruns"),
            (_columnar_body(_header(1, 2, "float64"), [0, 1], [0, 2]), "paths_dtype"),
            (_columnar_body({"type": "result", "paths_count": 1, "paths_vertices": 2}, [0, 1], [0, 2]), "paths_dtype"),
            (_columnar_body(_header(2, 2), [0, 1], [0, 2]), "do not fill"),
            (_columnar_body(_header(1, 3), [0, 1], [0, 2]), "do not fill"),
            (_columnar_body(_header(-1, 2), [0, 1], [0, 2]), "non-negative"),
            (_columnar_body(_header(1, 2) | {"paths_count": True}, [0, 1], [0, 2]), "non-negative"),
            (_columnar_body(_header(1, 2), [0, 1], [1, 2]), "from 0"),
            (_columnar_body(_header(1, 2), [0, 1], [0, 1]), "from 0"),
            (_columnar_body(_header(3, 4), [0, 1, 2, 3], [0, 3, 1, 4]), "decreases"),
            (_columnar_body(_header(1, 2), [0, -4], [0, 2]), "negative"),
            (_columnar_body({k: v for k, v in _header(1, 2).items() if k != "type"}, [0, 1], [0, 2]), "type"),
            (b"\x01\x00\x00\x00\x02[]", "JSON object"),
        ],
    )
    def test_corrupt_columnar_bodies_raise_frame_error(self, body, reason):
        with pytest.raises(FrameError, match=reason):
            decode_frame(body)

    def test_unencodable_columns_are_a_frame_error(self):
        frame = _result_frame(PathBuffer.from_paths(_PATHS))
        frame["paths_data"] = frame["paths_data"].astype(np.float64)
        with pytest.raises(FrameError):
            encode_frame(frame)


class TestNegotiation:
    @pytest.mark.parametrize(
        "submit, columnar",
        [
            ({"protocol": 4, "opts": {}}, True),
            ({"protocol": 5, "opts": {"store_paths": True}}, True),
            ({"opts": {}}, False),  # version-less, e.g. a raw nc submit
            ({"protocol": 3, "opts": {}}, False),
            ({"protocol": "4", "opts": {}}, False),
            ({"protocol": True, "opts": {}}, False),
            ({"protocol": 4, "opts": {"store_paths": False}}, False),
            # external ids are input only; a legacy frames key is ignored
            ({"protocol": 4, "opts": {"external": True}}, True),
            ({"protocol": 4, "opts": {"frames": "path"}}, True),
            ({"protocol": 4, "opts": "garbage"}, True),
        ],
    )
    def test_columns_only_for_v4_internal_result_frames(self, submit, columnar):
        assert sends_columns({"type": "submit", **submit}) is columnar


def _mutations():
    """(kind, position, byte) edits applied to an encoded body."""
    return st.tuples(
        st.sampled_from(["truncate", "extend", "flip"]),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=255),
    )


def _check_well_formed(message: dict) -> None:
    """The invariants every successful decode must satisfy."""
    assert isinstance(message["type"], str)
    if "paths_data" in message:
        data, indptr = message["paths_data"], message["paths_indptr"]
        assert indptr[0] == 0 and indptr[-1] == len(data)
        assert (np.diff(indptr) >= 0).all()
        assert len(data) == 0 or data.min() >= 0


class TestCorruptFrameFuzz:
    """Truncated, extended and bit-flipped frames end in a typed error.

    Truncation alone and extension alone must never produce a different
    frame: either :class:`FrameError` or a decode equal to the original.  A
    flipped byte, or a cut patched up by appended bytes, can turn one valid
    frame into another (a vertex id digit, an indptr entry that stays
    monotone, a closing brace), so for those the contract is a
    :class:`FrameError` or a decode that is itself well formed — never
    another exception type and never columns that break their invariants.
    """

    FRAMES = [
        _result_frame(PathBuffer.from_paths(_PATHS)),
        _result_frame(PathBuffer.from_paths([tuple(range(i, i + 5)) for i in range(0, 60, 3)])),
        _result_frame(PathBuffer()),
        _result_frame(PathBuffer.from_paths([(0, 2**33, 7), (0, 7)])),
        {"type": "result", "id": "c1", "position": 2, "count": 2, "paths": [[0, 1, 5], [0, 5]]},
        {"type": "submit", "id": "c9", "queries": [[0, 5, 4]], "opts": {}, "protocol": 4},
    ]

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(range(len(FRAMES))), st.lists(_mutations(), min_size=1, max_size=3))
    def test_mutated_frames_decode_or_raise_frame_error(self, index, edits):
        original = self.FRAMES[index]
        body = bytearray(encode_frame(original)[4:])
        for kind, position, value in edits:
            if kind == "truncate":
                del body[position % (len(body) + 1):]
            elif kind == "extend":
                body += bytes([value]) * (1 + position % 9)
            elif body:
                body[position % len(body)] ^= value or 1
        try:
            decoded = decode_frame(bytes(body))
        except FrameError:
            return
        _check_well_formed(decoded)
        if {kind for kind, _, _ in edits} in ({"truncate"}, {"extend"}):
            assert _same_frame(decoded, original)


class TestReadFrame:
    def test_reads_consecutive_frames(self):
        first = encode_frame({"type": "ping"})
        second = encode_frame({"type": "stats"})

        async def scenario():
            reader = _feed(first + second)
            assert await read_frame(reader) == {"type": "ping"}
            assert await read_frame(reader) == {"type": "stats"}
            assert await read_frame(reader) is None  # clean EOF

        asyncio.run(scenario())

    def test_handles_arbitrarily_split_chunks(self):
        data = encode_frame({"type": "result", "paths": [[0, 1, 2]] * 50})

        async def scenario():
            reader = asyncio.StreamReader()

            async def feeder():
                for offset in range(0, len(data), 7):
                    reader.feed_data(data[offset : offset + 7])
                    await asyncio.sleep(0)
                reader.feed_eof()

            feed_task = asyncio.ensure_future(feeder())
            frame = await read_frame(reader)
            await feed_task
            assert frame is not None and frame["type"] == "result"

        asyncio.run(scenario())

    def test_truncated_prefix_raises(self):
        async def scenario():
            with pytest.raises(FrameError, match="length prefix"):
                await read_frame(_feed(b"\x00\x00"))

        asyncio.run(scenario())

    def test_truncated_body_raises(self):
        whole = encode_frame({"type": "ping"})

        async def scenario():
            with pytest.raises(FrameError, match="frame body"):
                await read_frame(_feed(whole[:-2]))

        asyncio.run(scenario())

    def test_oversized_length_prefix_rejected_before_allocation(self):
        async def scenario():
            reader = _feed(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(FrameError, match="exceeds"):
                await read_frame(reader)

        asyncio.run(scenario())


class TestRenderResultPaths:
    def _result(self, paths):
        from repro.core.result import EnumerationStats, QueryResult

        count = 0 if paths is None else len(paths)
        return QueryResult(
            source=0, target=5, k=4, algorithm="PathEnum", count=count,
            paths=paths, stats=EnumerationStats(),
        )

    def test_buffer_backed_result_renders_from_slices(self):
        from repro.core.result import PathBuffer
        from repro.server.protocol import render_result_paths

        buffer = PathBuffer.from_paths([(0, 1, 5), (0, 5)])
        result = self._result(buffer)
        assert render_result_paths(result) == [[0, 1, 5], [0, 5]]

    def test_json_frame_result_renders(self):
        from repro.server.protocol import frame_paths, render_result_paths

        result = self._result(frame_paths({"type": "result", "paths": [[0, 1, 5]]}))
        assert render_result_paths(result) == [[0, 1, 5]]

    def test_no_paths_renders_none(self):
        from repro.server.protocol import render_result_paths

        assert render_result_paths(self._result(None)) is None

    def test_external_translation(self):
        from repro.core.result import PathBuffer
        from repro.server.protocol import render_result_paths
        from tests.helpers import build_graph

        graph = build_graph([("a", "b"), ("b", "c")])
        a, b, c = (graph.to_internal(v) for v in "abc")
        result = self._result(PathBuffer.from_paths([(a, b, c)]))
        # The wire carries internal ids; a caller holding the graph maps
        # them back.
        assert render_result_paths(result) == [[a, b, c]]
        assert result.paths_as_external(graph) == [("a", "b", "c")]


class TestProtocolVersioning:
    def test_current_version_window(self):
        from repro.server.protocol import (
            MIN_SUPPORTED_PROTOCOL,
            PROTOCOL_VERSION,
            negotiate_protocol,
        )

        assert MIN_SUPPORTED_PROTOCOL <= PROTOCOL_VERSION
        assert negotiate_protocol(PROTOCOL_VERSION) == PROTOCOL_VERSION
        assert negotiate_protocol(MIN_SUPPORTED_PROTOCOL) == MIN_SUPPORTED_PROTOCOL

    def test_missing_field_is_a_version_one_peer(self):
        from repro.server.protocol import negotiate_protocol

        # Pongs from servers that predate versioning carry no field at all.
        assert negotiate_protocol(None) == 1

    def test_future_and_ancient_versions_are_rejected(self):
        from repro.server.protocol import (
            MIN_SUPPORTED_PROTOCOL,
            PROTOCOL_VERSION,
            ProtocolMismatch,
            negotiate_protocol,
        )

        with pytest.raises(ProtocolMismatch):
            negotiate_protocol(PROTOCOL_VERSION + 1)
        if MIN_SUPPORTED_PROTOCOL > 0:
            with pytest.raises(ProtocolMismatch):
                negotiate_protocol(MIN_SUPPORTED_PROTOCOL - 1)

    def test_mismatch_is_a_frame_error(self):
        from repro.server.protocol import FrameError, ProtocolMismatch

        assert issubclass(ProtocolMismatch, FrameError)
