"""Newline-delimited JSON serving protocol, shared by server and client.

One request per line, one response per line, every line a single JSON
object.  The protocol is deliberately boring: it has to be trivially
speakable from ``nc``, any language's socket + JSON library, and the
load generator — and cheap enough to parse that the compiled query
tables (microseconds per probe) stay the hot path.

Requests
--------
``{"op": <verb>, "id": <tag?>, "v": <version?>, ...fields}``

``op``
    One of :data:`OPS`.  Query verbs (``query``, ``batch``, ``knn``,
    ``range``, ``rnn``) and update verbs (``insert``, ``delete``,
    ``flush``) take a ``terrain``; introspection verbs (``hello``,
    ``terrains``, ``stats``, ``describe``) mostly don't.
``id``
    Optional client tag (any JSON scalar), echoed verbatim in the
    response — pipelined clients use it to match responses to
    requests.
``v``
    Optional protocol version; omitting it means
    :data:`PROTOCOL_VERSION`.  A mismatch is answered with an
    ``unsupported-version`` error instead of a guess.

Responses
---------
``{"ok": true, "id": <tag>, "result": {...}}`` on success, or
``{"ok": false, "id": <tag>, "error": {"type": <type>,
"message": <text>}, ...extra}`` on failure.  ``error.type`` is one of
:data:`ERROR_TYPES` — typed so clients can dispatch without parsing
prose (``unknown-terrain`` vs ``unknown-poi`` vs ``bad-request`` ...).
A ``not-writer`` error additionally carries ``writer_host`` /
``writer_port``: in multi-worker mode update verbs are pinned to the
single writer worker, and the error tells the client where to retry.

Wire framing
------------
UTF-8, one ``\\n``-terminated line per message, no length prefix.
:func:`encode` appends the newline; :func:`decode_line` tolerates a
trailing ``\\r`` (telnet-friendly).  Blank lines are ignored by the
server.

Answers
-------
:func:`answer` maps each service verb to its ``OracleService`` call and
wire ``result``.  The server, the CLI REPL and ``replay_direct`` all
run :func:`validate_request` and then :func:`answer`.

Hot path
--------
:func:`decode_line` parses a line with ``JSONDecoder.raw_decode`` and
keeps the result when it is an object followed by nothing but JSON
whitespace (space, tab, newline, carriage return), which is what a
well-formed request is; anything else (a BOM, leading whitespace, two
values, a non-object, a parse error) goes through ``json.loads``, so
every error message is the one ``json.loads`` gives.
:func:`validate_request` checks a well-formed point ``query``
directly and :func:`encode_distance` formats its reply without
``json``.  All three give exactly what the generic path gives, and
defer to it otherwise.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Dict, List, Tuple

__all__ = [
    "PROTOCOL_VERSION",
    "ID_LIMIT",
    "OPS",
    "ERROR_TYPES",
    "ProtocolError",
    "encode",
    "encode_distance",
    "decode_line",
    "request",
    "ok_response",
    "error_response",
    "validate_request",
    "fields",
    "answer",
    "classify_exception",
    "describe_error",
]

PROTOCOL_VERSION = 1

#: error taxonomy; every error response's ``error.type`` is one of these
ERROR_TYPES = (
    "bad-request",          # malformed JSON / missing or mistyped field
    "unsupported-version",  # request "v" != PROTOCOL_VERSION
    "unknown-op",           # verb not in OPS
    "unknown-terrain",      # terrain id not registered
    "unknown-poi",          # POI id out of range / deleted
    "bad-value",            # well-formed but unusable value (k < 1, ...)
    "not-mutable",          # update verb on a static terrain
    "not-writer",           # update verb on a reader worker
    "internal",             # store I/O or unexpected server failure
)

# Per-op field specs: name -> (converter, required).  Converters both
# validate and normalise (e.g. bool is not an int here, POI ids must be
# non-negative — negative ints would silently alias from the end of the
# table — and numbers must be finite).
_INT = ("integer", int)
_ID = ("non-negative integer", "id")
_FLOAT = ("finite number", float)
_STR = ("string", str)
_ID_LIST = ("list of non-negative integers", None)

_SPECS: Dict[str, Dict[str, Tuple[Tuple[str, Any], bool]]] = {
    "hello": {},
    "terrains": {},
    "stats": {},
    "describe": {"terrain": (_STR, True)},
    "query": {
        "terrain": (_STR, True),
        "source": (_ID, True),
        "target": (_ID, True),
    },
    "batch": {
        "terrain": (_STR, True),
        "sources": (_ID_LIST, True),
        "targets": (_ID_LIST, True),
    },
    "knn": {
        "terrain": (_STR, True),
        "source": (_ID, True),
        "k": (_INT, True),
    },
    "range": {
        "terrain": (_STR, True),
        "source": (_ID, True),
        "radius": (_FLOAT, True),
    },
    "rnn": {"terrain": (_STR, True), "source": (_ID, True)},
    "insert": {
        "terrain": (_STR, True),
        "x": (_FLOAT, True),
        "y": (_FLOAT, True),
    },
    "delete": {"terrain": (_STR, True), "poi": (_ID, True)},
    "flush": {"terrain": (_STR, True)},
}

#: the protocol's verbs
OPS = tuple(_SPECS)


def _hits(hits: Any) -> List[List[Any]]:
    return [[int(poi), float(distance)] for poi, distance in hits]


def _deleted(service: Any, request: Dict[str, Any]) -> Dict[str, Any]:
    service.delete_poi(request["terrain"], request["poi"])
    return {"poi": request["poi"]}


# Per-op answers: the ``OracleService`` call behind each verb and the
# wire ``result`` made of its return value.  ``hello`` describes the
# server process, not the service, so the server answers it itself.
_ANSWERS: Dict[str, Callable[[Any, Dict[str, Any]], Dict[str, Any]]] = {
    "terrains": lambda service, r: {"terrains": service.terrains()},
    "stats": lambda service, r: {"terrains": service.stats()},
    "describe": lambda service, r: {"meta": service.describe(r["terrain"])},
    "query": lambda service, r: {"distance": service.query(
        r["terrain"], r["source"], r["target"])},
    "batch": lambda service, r: {"distances": [
        float(value) for value in service.query_batch(
            r["terrain"], r["sources"], r["targets"])]},
    "knn": lambda service, r: {"neighbors": _hits(service.k_nearest(
        r["terrain"], r["source"], r["k"]))},
    "range": lambda service, r: {"hits": _hits(service.range_query(
        r["terrain"], r["source"], r["radius"]))},
    "rnn": lambda service, r: {"pois": [
        int(poi) for poi in service.reverse_nearest(
            r["terrain"], r["source"])]},
    "insert": lambda service, r: {"poi": int(service.insert_poi(
        r["terrain"], r["x"], r["y"]))},
    "delete": _deleted,
    "flush": lambda service, r: {"meta": service.flush(r["terrain"])},
}

#: POI ids are int64 in every index: larger ids cannot name a POI
ID_LIMIT = 1 << 63

#: ``json.loads``'s own decoder settings, for :func:`decode_line`
_DECODER = json.JSONDecoder()
#: what ``json`` skips between values
_JSON_SPACE = " \t\n\r"


class ProtocolError(Exception):
    """A typed protocol-level failure, mapping 1:1 to an error reply."""

    def __init__(self, error_type: str, message: str):
        if error_type not in ERROR_TYPES:
            raise ValueError(f"unknown error type {error_type!r}")
        super().__init__(message)
        self.error_type = error_type
        self.message = message


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode(message: Dict[str, Any]) -> bytes:
    """One wire line: compact JSON + newline, UTF-8."""
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def encode_distance(request_id: Any, distance: float) -> bytes:
    """``encode(ok_response(request_id, {"distance": distance}))``,
    byte for byte, without the dict or the ``json`` walk.

    Formats directly for a finite float and an ``int`` or null id,
    which is every reply the load generators ask for: ``float.__repr__``
    is what ``json`` writes for a float, ``%d`` what it writes for an
    int.  Anything else (string ids, ``Infinity``/``NaN``) goes through
    :func:`encode`.
    """
    if isinstance(distance, float) and math.isfinite(distance):
        if request_id is None:
            return b'{"ok":true,"id":null,"result":{"distance":%s}}\n' % (
                float.__repr__(distance).encode())
        if type(request_id) is int:
            return b'{"ok":true,"id":%d,"result":{"distance":%s}}\n' % (
                request_id, float.__repr__(distance).encode())
    return encode(ok_response(request_id, {"distance": distance}))


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into a message object.

    Raises :class:`ProtocolError` (``bad-request``) when the line is
    not JSON or not a JSON object — never a bare ``json`` exception,
    so servers can answer with a typed error instead of dying.
    """
    text = line.decode("utf-8", errors="replace")
    try:
        message, end = _DECODER.raw_decode(text)
    except (ValueError, RecursionError):
        pass
    else:
        # ``json.loads`` would accept exactly this: no leading
        # whitespace or BOM (``raw_decode`` refuses both), one value,
        # then only JSON whitespace.
        if isinstance(message, dict) and not text[end:].strip(_JSON_SPACE):
            return message
    try:
        message = json.loads(text)
    except (ValueError, RecursionError) as error:
        # JSONDecodeError is a ValueError, as is an integer literal past
        # the interpreter's digit limit; nesting deeper than the
        # recursion limit raises RecursionError.
        raise ProtocolError("bad-request", f"invalid JSON: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            "bad-request",
            f"expected a JSON object, got {type(message).__name__}",
        )
    return message


def request(op: str, request_id: Any = None, **fields: Any) -> Dict[str, Any]:
    """Build a request message (client-side convenience)."""
    message: Dict[str, Any] = {"op": op, "v": PROTOCOL_VERSION}
    if request_id is not None:
        message["id"] = request_id
    message.update(fields)
    return message


def ok_response(request_id: Any, result: Dict[str, Any]) -> Dict[str, Any]:
    return {"ok": True, "id": request_id, "result": result}


def error_response(
    request_id: Any, error_type: str, message: str, **extra: Any
) -> Dict[str, Any]:
    if error_type not in ERROR_TYPES:
        raise ValueError(f"unknown error type {error_type!r}")
    response: Dict[str, Any] = {
        "ok": False,
        "id": request_id,
        "error": {"type": error_type, "message": message},
    }
    response.update(extra)
    return response


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def _is_id(value: Any) -> bool:
    return (
        not isinstance(value, bool) and isinstance(value, int) and value >= 0
    )


def _convert(name: str, value: Any, kind: Tuple[str, Any]) -> Any:
    label, caster = kind
    if caster is int:
        # bool is an int subclass but "true" is not a POI id.
        if isinstance(value, bool) or not isinstance(value, int):
            raise ProtocolError(
                "bad-request", f"field {name!r} must be an {label}"
            )
        return value
    if caster == "id":
        if not _is_id(value):
            raise ProtocolError(
                "bad-request", f"field {name!r} must be a {label}"
            )
        return value
    if caster is float:
        if not isinstance(value, bool) and isinstance(value, (int, float)):
            try:
                number = float(value)
            except OverflowError:  # an integer past the float range
                number = math.inf
            if math.isfinite(number):
                return number
        raise ProtocolError(
            "bad-request", f"field {name!r} must be a {label}"
        )
    if caster is str:
        if not isinstance(value, str):
            raise ProtocolError(
                "bad-request", f"field {name!r} must be a {label}"
            )
        return value
    # id list
    if not isinstance(value, list) or any(
        not _is_id(item) for item in value
    ):
        raise ProtocolError(
            "bad-request", f"field {name!r} must be a {label}"
        )
    return value


def _first_out_of_range(value: Any) -> Any:
    for item in value if isinstance(value, list) else (value,):
        if item >= ID_LIMIT:
            return item
    return None


def validate_request(message: Dict[str, Any]) -> Dict[str, Any]:
    """Check version, op and fields; returns the normalised request.

    Raises :class:`ProtocolError` with the precise typed failure —
    ``unsupported-version`` before ``unknown-op`` before
    ``bad-request`` before ``unknown-poi`` (an id past
    :data:`ID_LIMIT`) — so one malformed aspect yields one stable
    error.  A well-formed point ``query`` is checked directly; every
    other message takes the spec-table walk, which gives the same
    result.
    """
    if (message.get("op") == "query"
            and message.get("v", PROTOCOL_VERSION) == PROTOCOL_VERSION):
        terrain = message.get("terrain")
        source = message.get("source")
        target = message.get("target")
        if (type(terrain) is str and type(source) is int
                and type(target) is int
                and 0 <= source < ID_LIMIT and 0 <= target < ID_LIMIT):
            return {"op": "query", "id": message.get("id"),
                    "terrain": terrain, "source": source, "target": target}
    return _validate_fields(message)


def _validate_fields(message: Dict[str, Any]) -> Dict[str, Any]:
    """The generic walk behind :func:`validate_request`."""
    version = message.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "unsupported-version",
            f"protocol version {version!r} not supported "
            f"(this server speaks {PROTOCOL_VERSION})",
        )
    op = message.get("op")
    if not isinstance(op, str) or not op:
        raise ProtocolError("bad-request", "missing or invalid 'op' field")
    spec = _SPECS.get(op)
    if spec is None:
        raise ProtocolError(
            "unknown-op", f"unknown op {op!r}; known ops: {', '.join(OPS)}"
        )
    normalised: Dict[str, Any] = {"op": op, "id": message.get("id")}
    for name, (kind, required) in spec.items():
        if name not in message:
            if required:
                raise ProtocolError(
                    "bad-request", f"op {op!r} requires field {name!r}"
                )
            continue
        normalised[name] = _convert(name, message[name], kind)
    if op == "batch" and len(normalised["sources"]) != len(
        normalised["targets"]
    ):
        raise ProtocolError(
            "bad-request", "'sources' and 'targets' must be aligned"
        )
    for name, (kind, _) in spec.items():
        if kind in (_ID, _ID_LIST) and name in normalised:
            item = _first_out_of_range(normalised[name])
            if item is not None:
                raise ProtocolError(
                    "unknown-poi",
                    f"POI id {item} in field {name!r} is out of range: "
                    "ids are below 2**63",
                )
    return normalised


def fields(op: str) -> Tuple[str, ...]:
    """``op``'s request fields, in the order the protocol lists them."""
    return tuple(_SPECS[op])


# ----------------------------------------------------------------------
# answering
# ----------------------------------------------------------------------
def answer(service: Any, request: Dict[str, Any]) -> Dict[str, Any]:
    """The wire ``result`` of a validated request other than
    ``hello``, computed on ``service`` (an ``OracleService``).

    Service exceptions propagate, for :func:`classify_exception`.
    """
    return _ANSWERS[request["op"]](service, request)


# ----------------------------------------------------------------------
# exception -> typed error mapping
# ----------------------------------------------------------------------
def _message_of(error: BaseException) -> str:
    # KeyError stringifies with quotes around its argument; unwrap.
    if isinstance(error, KeyError) and error.args:
        return str(error.args[0])
    return str(error)


def classify_exception(error: BaseException) -> Tuple[str, str]:
    """Map a service-layer exception to ``(error_type, message)``.

    The mapping is what lets the server (and the CLI REPL) answer any
    service failure with a typed line instead of a traceback:
    ``KeyError`` is an unknown terrain or POI, ``ValueError`` a bad
    value (or an update verb on a static terrain), anything touching
    the filesystem an ``internal`` store failure.
    """
    import zipfile

    message = _message_of(error)
    if isinstance(error, ProtocolError):
        return error.error_type, error.message
    if isinstance(error, KeyError):
        if "terrain id" in message:
            return "unknown-terrain", message
        return "unknown-poi", message
    if isinstance(error, IndexError):
        return "unknown-poi", message
    if isinstance(error, ValueError):
        if "not mutable" in message:
            return "not-mutable", message
        return "bad-value", message
    if isinstance(error, (OSError, zipfile.BadZipFile)):
        return "internal", f"store error: {message}"
    return "internal", f"{type(error).__name__}: {message}"


def describe_error(error: BaseException) -> str:
    """One-line typed rendering, e.g. ``error[bad-value]: k must be...``.

    Shared by the CLI REPL so its stderr lines carry the same taxonomy
    as network error replies.
    """
    error_type, message = classify_exception(error)
    return f"error[{error_type}]: {message}"
