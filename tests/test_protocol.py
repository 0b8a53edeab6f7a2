"""Unit tests for the NDJSON serving protocol (framing, validation,
error taxonomy) — no sockets involved."""

import json
import math
import sys
import zipfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serving import protocol
from repro.serving.protocol import (
    ID_LIMIT,
    PROTOCOL_VERSION,
    ProtocolError,
    classify_exception,
    decode_line,
    describe_error,
    encode,
    encode_distance,
    error_response,
    ok_response,
    request,
    validate_request,
)


class TestFraming:
    def test_encode_is_one_compact_json_line(self):
        line = encode({"op": "hello", "v": 1})
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1
        assert b" " not in line  # compact separators
        assert json.loads(line) == {"op": "hello", "v": 1}

    def test_roundtrip(self):
        message = request("query", request_id=7, terrain="alps",
                          source=1, target=2)
        assert decode_line(encode(message)) == message

    def test_decode_tolerates_trailing_cr(self):
        assert decode_line(b'{"op":"hello"}\r\n') == {"op": "hello"}

    def test_decode_rejects_bad_json(self):
        with pytest.raises(ProtocolError) as info:
            decode_line(b"not json at all\n")
        assert info.value.error_type == "bad-request"

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError) as info:
            decode_line(b"[1, 2, 3]\n")
        assert info.value.error_type == "bad-request"
        assert "object" in info.value.message

    def test_request_carries_version(self):
        assert request("hello")["v"] == PROTOCOL_VERSION

    def test_error_response_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            error_response(None, "no-such-type", "boom")

    def test_ok_response_shape(self):
        reply = ok_response(3, {"distance": 1.5})
        assert reply == {"ok": True, "id": 3,
                         "result": {"distance": 1.5}}


class TestValidation:
    def test_version_mismatch(self):
        with pytest.raises(ProtocolError) as info:
            validate_request({"op": "hello", "v": 99})
        assert info.value.error_type == "unsupported-version"

    def test_missing_op(self):
        with pytest.raises(ProtocolError) as info:
            validate_request({"v": PROTOCOL_VERSION})
        assert info.value.error_type == "bad-request"

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as info:
            validate_request({"op": "frobnicate"})
        assert info.value.error_type == "unknown-op"
        assert "query" in info.value.message  # lists the known verbs

    def test_missing_required_field(self):
        with pytest.raises(ProtocolError) as info:
            validate_request({"op": "query", "terrain": "alps",
                              "source": 0})
        assert info.value.error_type == "bad-request"
        assert "target" in info.value.message

    def test_bool_is_not_an_id(self):
        with pytest.raises(ProtocolError):
            validate_request({"op": "query", "terrain": "alps",
                              "source": True, "target": 1})

    def test_negative_id_rejected(self):
        # Negative ints would silently alias from the end of the
        # compiled table; the protocol rejects them up front.
        with pytest.raises(ProtocolError) as info:
            validate_request({"op": "query", "terrain": "alps",
                              "source": -1, "target": 1})
        assert info.value.error_type == "bad-request"

    def test_id_list_validated_per_item(self):
        with pytest.raises(ProtocolError):
            validate_request({"op": "batch", "terrain": "alps",
                              "sources": [0, -2], "targets": [1, 2]})
        with pytest.raises(ProtocolError):
            validate_request({"op": "batch", "terrain": "alps",
                              "sources": [0, 1.5], "targets": [1, 2]})

    def test_batch_alignment(self):
        with pytest.raises(ProtocolError) as info:
            validate_request({"op": "batch", "terrain": "alps",
                              "sources": [0, 1], "targets": [2]})
        assert "aligned" in info.value.message

    def test_float_field_accepts_int(self):
        normalised = validate_request({"op": "range", "terrain": "a",
                                       "source": 0, "radius": 5})
        assert normalised["radius"] == 5.0
        assert isinstance(normalised["radius"], float)

    def test_string_field_type(self):
        with pytest.raises(ProtocolError):
            validate_request({"op": "describe", "terrain": 7})

    def test_id_echoed_through(self):
        normalised = validate_request({"op": "terrains", "id": "tag-1"})
        assert normalised["id"] == "tag-1"

    def test_every_op_has_a_spec(self):
        for op in protocol.OPS:
            assert op in ("hello", "terrains", "stats", "describe",
                          "query", "batch", "knn", "range", "rnn",
                          "insert", "delete", "flush")


class TestClassification:
    def test_unknown_terrain(self):
        error = KeyError("unknown terrain id 'alps'; registered: none")
        assert classify_exception(error)[0] == "unknown-terrain"

    def test_unknown_poi_keyerror(self):
        error_type, message = classify_exception(KeyError("poi id 999"))
        assert error_type == "unknown-poi"
        assert "999" in message and "'" not in message[:1]

    def test_unknown_poi_indexerror(self):
        assert classify_exception(IndexError("out of range"))[0] \
            == "unknown-poi"

    def test_not_mutable(self):
        error = ValueError("terrain 'alps' is not mutable")
        assert classify_exception(error)[0] == "not-mutable"

    def test_bad_value(self):
        assert classify_exception(ValueError("k must be positive"))[0] \
            == "bad-value"

    def test_store_errors_are_internal(self):
        error_type, message = classify_exception(
            OSError(2, "No such file or directory"))
        assert error_type == "internal"
        assert message.startswith("store error:")
        assert classify_exception(zipfile.BadZipFile("truncated"))[0] \
            == "internal"

    def test_protocol_error_passthrough(self):
        error = ProtocolError("not-writer", "ask worker 0")
        assert classify_exception(error) == ("not-writer", "ask worker 0")

    def test_unexpected_is_internal_with_type_name(self):
        error_type, message = classify_exception(RuntimeError("boom"))
        assert error_type == "internal"
        assert "RuntimeError" in message

    def test_describe_error_format(self):
        line = describe_error(ValueError("k must be positive"))
        assert line == "error[bad-value]: k must be positive"


# ----------------------------------------------------------------------
# hot-path equivalence walls
# ----------------------------------------------------------------------
REQUEST_IDS = st.one_of(
    st.none(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**80),
    st.integers(max_value=-(2**64)),
    st.booleans(),
    st.text(max_size=8),
    st.floats(),
)


class TestEncodeDistance:
    @settings(max_examples=400, deadline=None)
    @given(request_id=REQUEST_IDS,
           distance=st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True))
    @example(request_id=None, distance=0.0)
    @example(request_id=0, distance=-0.0)
    @example(request_id=-1, distance=5e-324)
    @example(request_id=2**70, distance=1e308)
    @example(request_id=True, distance=1.5)
    @example(request_id=False, distance=1.5)
    @example(request_id="tag", distance=math.inf)
    @example(request_id=1.0, distance=-math.inf)
    @example(request_id=None, distance=math.nan)
    @example(request_id=7, distance=math.nan)
    def test_matches_generic_encode(self, request_id, distance):
        assert encode_distance(request_id, distance) == encode(
            ok_response(request_id, {"distance": distance}))

    def test_float_subclass_formats_like_json(self):
        distance = np.float64(123.456)
        assert encode_distance(3, distance) == encode(
            ok_response(3, {"distance": distance}))

    def test_int_and_null_ids_skip_json(self, monkeypatch):
        def no_json(message):
            raise AssertionError("took the generic encoder")

        monkeypatch.setattr(protocol, "encode", no_json)
        assert encode_distance(7, 1.5) \
            == b'{"ok":true,"id":7,"result":{"distance":1.5}}\n'
        assert encode_distance(None, 2.0) \
            == b'{"ok":true,"id":null,"result":{"distance":2.0}}\n'

    def test_other_ids_and_non_finite_take_generic_encoder(self):
        assert encode_distance("a", 1.0) \
            == b'{"ok":true,"id":"a","result":{"distance":1.0}}\n'
        assert encode_distance(True, 1.0) \
            == b'{"ok":true,"id":true,"result":{"distance":1.0}}\n'
        assert encode_distance(1, math.inf) \
            == b'{"ok":true,"id":1,"result":{"distance":Infinity}}\n'


def _json_values():
    scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                        st.floats(), st.text(max_size=4))
    return st.recursive(
        scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=3),
            st.dictionaries(st.text(max_size=3), children, max_size=3)),
        max_leaves=4)


_EDGES = st.sampled_from([
    1, 1.0, True, False, 2, "1", 0, -1, 2**63 - 1, 2**63, 2**70,
    "alps", "", "query", None, [], {}, [1], 1.5, math.nan, math.inf,
])
_ANY = st.one_of(_EDGES, _json_values())
_POI = st.one_of(st.integers(min_value=-2, max_value=2**64), _ANY)

_REPLACEMENTS = {
    "op": st.one_of(st.sampled_from(protocol.OPS), _ANY),
    "v": _ANY, "id": _ANY, "terrain": _ANY, "source": _POI,
    "target": _POI, "extra": _ANY,
}


@st.composite
def query_shaped(draw):
    """A query, often well-formed, with up to two keys dropped or
    replaced by an edge value or any JSON value."""
    poi = st.one_of(st.integers(min_value=0, max_value=2**64),
                    st.sampled_from([2**63 - 1, 2**63, 2**70]))
    message = {"op": "query", "terrain": draw(st.text(max_size=4)),
               "source": draw(poi), "target": draw(poi)}
    if draw(st.booleans()):
        message["v"] = draw(st.sampled_from([1, 1.0, True, 2, "1"]))
    if draw(st.booleans()):
        message["id"] = draw(st.one_of(
            st.sampled_from([-1, True, 2**63 - 1, 2**63]), _ANY))
    for key in draw(st.sets(st.sampled_from(sorted(_REPLACEMENTS)),
                            max_size=2)):
        if draw(st.booleans()):
            message.pop(key, None)
        else:
            message[key] = draw(_REPLACEMENTS[key])
    return message


def _outcome(validate, message):
    try:
        return "ok", validate(message)
    except ProtocolError as error:
        return "error", (error.error_type, error.message)


def _loads_outcome(line):
    """``decode_line`` by ``json.loads`` alone: the message, or the
    ``bad-request`` text."""
    try:
        message = json.loads(line.decode("utf-8", errors="replace"))
    except (ValueError, RecursionError) as error:
        return "error", f"invalid JSON: {error}"
    if not isinstance(message, dict):
        return "error", (
            f"expected a JSON object, got {type(message).__name__}")
    return "ok", message


def _decode_outcome(line):
    try:
        return "ok", decode_line(line)
    except ProtocolError as error:
        assert error.error_type == "bad-request"
        return "error", error.message


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
_PADDING = st.text(alphabet=" \t\r", max_size=3).map(str.encode)
_ATOMS = st.one_of(
    st.dictionaries(st.text(max_size=3), _json_values(), max_size=3).map(
        lambda value: json.dumps(value).encode()),
    _json_values().map(lambda value: json.dumps(value).encode()),
    st.binary(max_size=12),
    st.sampled_from([
        b"\xef\xbb\xbf",  # a UTF-8 BOM
        b"\xff", b"\xc3", b"\x80\x80",  # invalid UTF-8 outside strings
        b'"a\xffb"', b'{"k":"\xfe\xc3("}',  # ... and inside them
        b"{}", b",", b"{", b"}", b"[", b"]", b":", b'"', b"\x0b",
        b"\xc2\xa0", b"NaN", b"-Infinity", b"1e999", b"-0", b"null",
        b'{"op":"query","id":1,"terrain":"a","source":1,"target":2}',
        b"[" * 100_000,  # nesting past the recursion limit
        b'{"a":' * 100_000,
        b"1" * (_DIGIT_LIMIT + 1),  # an integer past the digit limit
    ]),
)


@st.composite
def wire_line(draw):
    """A line: arbitrary bytes, or JSON atoms run together with ``' \\t\\r'``
    padding, optionally ended by the wire's ``\\n`` or ``\\r\\n``."""
    if draw(st.booleans()):
        line = draw(st.binary())
    else:
        line = draw(_PADDING)
        for atom in draw(st.lists(_ATOMS, min_size=1, max_size=3)):
            line += atom + draw(_PADDING)
    return line + draw(st.sampled_from([b"", b"\n", b"\r\n"]))


class TestDecodeFastPath:
    @settings(max_examples=600, deadline=None)
    @given(line=wire_line())
    @example(line=b'{"op":"hello"}\n')
    @example(line=b'{"op":"hello"} \t\r\n')
    @example(line=b' {"op":"hello"}\n')
    @example(line=b'\xef\xbb\xbf{"op":"hello"}\n')
    @example(line=b'{"op":"hello"}\x0b\n')
    @example(line=b'{"op":"hello"}\xc2\xa0')
    @example(line=b'{"a":"\xff"}\n')
    @example(line=b'\xff{"a":1}')
    @example(line=b'{"a":1}{"b":2}\n')
    @example(line=b'{"a":1} [2]')
    @example(line=b'{"a":1},\n')
    @example(line=b'{"a":1,}\n')
    @example(line=b'{"a":NaN,"b":1e999,"c":-Infinity}\n')
    @example(line=b"NaN\n")
    @example(line=b"[1, 2]\n")
    @example(line=b'"text"')
    @example(line=b"")
    @example(line=b"\n")
    @example(line=b"[" * 100_000 + b"]" * 100_000)
    @example(line=b'{"a":' * 100_000 + b"1" + b"}" * 100_000)
    @example(line=b'{"op":"query","source":' + b"1" * (_DIGIT_LIMIT + 1)
             + b"}\n")
    def test_matches_json_loads(self, line):
        """Every line decodes to what ``json.loads`` gives, or fails
        with the message its error gives (``repr`` compares NaNs)."""
        assert repr(_decode_outcome(line)) == repr(_loads_outcome(line))

    def test_well_formed_object_skips_json_loads(self, monkeypatch):
        def no_loads(*args, **kwargs):
            raise AssertionError("took json.loads")

        monkeypatch.setattr(json, "loads", no_loads)
        assert decode_line(
            b'{"op":"query","id":3,"terrain":"alps","source":1,'
            b'"target":2}\r\n') == {"op": "query", "id": 3,
                                    "terrain": "alps", "source": 1,
                                    "target": 2}


class TestQueryFastPath:
    @settings(max_examples=600, deadline=None)
    @given(message=query_shaped())
    @example(message={"op": "query", "terrain": "a", "source": 0,
                      "target": 2**63 - 1})
    @example(message={"op": "query", "terrain": "a", "source": 2**63,
                      "target": 1})
    @example(message={"op": "query", "v": True, "terrain": "a",
                      "source": 1, "target": 2, "id": -1})
    @example(message={"op": "query", "v": 1.0, "terrain": "a",
                      "source": True, "target": 2})
    @example(message={"op": "query", "v": "1", "terrain": "a",
                      "source": 1, "target": 2})
    @example(message={"op": "query", "terrain": "a", "source": 1,
                      "target": 2, "extra": [1]})
    def test_matches_generic_walk(self, message):
        assert _outcome(validate_request, message) \
            == _outcome(protocol._validate_fields, message)

    def test_well_formed_query_skips_the_walk(self, monkeypatch):
        def no_walk(message):
            raise AssertionError("took the generic walk")

        monkeypatch.setattr(protocol, "_validate_fields", no_walk)
        assert validate_request(
            {"op": "query", "v": 1, "id": "t", "terrain": "alps",
             "source": 3, "target": 4}) == {
            "op": "query", "id": "t", "terrain": "alps",
            "source": 3, "target": 4}


# ----------------------------------------------------------------------
# out-of-range numbers answer typed errors
# ----------------------------------------------------------------------
def _error_of(message):
    with pytest.raises(ProtocolError) as info:
        validate_request(message)
    return info.value.error_type


class TestNumberRanges:
    @pytest.mark.parametrize("message", [
        {"op": "query", "terrain": "a", "source": ID_LIMIT, "target": 0},
        {"op": "query", "terrain": "a", "source": 0, "target": 2**70},
        {"op": "batch", "terrain": "a", "sources": [0, ID_LIMIT],
         "targets": [1, 2]},
        {"op": "batch", "terrain": "a", "sources": [0],
         "targets": [ID_LIMIT]},
        {"op": "knn", "terrain": "a", "source": ID_LIMIT, "k": 1},
        {"op": "range", "terrain": "a", "source": ID_LIMIT,
         "radius": 1.0},
        {"op": "rnn", "terrain": "a", "source": ID_LIMIT},
        {"op": "delete", "terrain": "a", "poi": ID_LIMIT},
    ])
    def test_id_past_int64_is_unknown_poi(self, message):
        assert _error_of(message) == "unknown-poi"

    def test_largest_int64_id_passes_validation(self):
        largest = ID_LIMIT - 1
        assert validate_request(
            {"op": "query", "terrain": "a", "source": largest,
             "target": 0})["source"] == largest
        assert validate_request(
            {"op": "batch", "terrain": "a", "sources": [largest],
             "targets": [0]})["sources"] == [largest]
        assert validate_request(
            {"op": "delete", "terrain": "a", "poi": largest})["poi"] \
            == largest

    def test_shape_errors_come_before_range_errors(self):
        assert _error_of({"op": "query", "terrain": "a",
                          "source": ID_LIMIT, "target": -1}) \
            == "bad-request"
        assert _error_of({"op": "batch", "terrain": "a",
                          "sources": [ID_LIMIT], "targets": [1, 2]}) \
            == "bad-request"

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, 10**400])
    @pytest.mark.parametrize("op,field", [
        ("range", "radius"), ("insert", "x"), ("insert", "y")])
    def test_number_fields_must_be_finite(self, op, field, value):
        message = {"op": op, "terrain": "a", "source": 0, "radius": 1.0,
                   "x": 1.0, "y": 2.0}
        message[field] = value
        with pytest.raises(ProtocolError) as info:
            validate_request(message)
        assert info.value.error_type == "bad-request"
        assert "finite number" in info.value.message

    def test_large_finite_numbers_pass(self):
        normalised = validate_request(
            {"op": "insert", "terrain": "a", "x": 1e308, "y": 10**300})
        assert normalised["x"] == 1e308
        assert normalised["y"] == float(10**300)

    def test_decode_rejects_deep_nesting(self):
        with pytest.raises(ProtocolError) as info:
            decode_line(b"[" * 100_000 + b"]" * 100_000)
        assert info.value.error_type == "bad-request"

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="no integer digit limit on this Python")
    def test_decode_rejects_integer_past_digit_limit(self):
        digits = sys.get_int_max_str_digits() + 1
        with pytest.raises(ProtocolError) as info:
            decode_line(b'{"op":"query","source":' + b"1" * digits + b"}")
        assert info.value.error_type == "bad-request"
