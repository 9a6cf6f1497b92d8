"""Wire protocol for the analysis server.

One request or response per line, each a single JSON object, UTF-8,
newline-terminated — the classic LSP-adjacent "JSON lines" framing,
chosen because every client language can speak it with nothing but a
socket and a JSON library.

A request carries ``verb`` (one of :data:`VERBS`), an optional caller
``id`` (echoed back verbatim so clients may pipeline), and
verb-specific fields.  A response carries ``ok``; successful responses
add verb-specific payload fields, failures add an ``error`` object
``{"code", "message"}`` with ``code`` drawn from the ``E_*`` constants
so scripts can branch without parsing prose.

The protocol is versioned (:data:`PROTOCOL_VERSION`): ``ping`` and
``stats`` report it, and the version is bumped whenever a field is
renamed or re-typed, mirroring how the persist layer versions its
on-disk schema.

Version 2 lets an ``update`` name the summary its client already
holds: ``since`` is the ``key`` of the client's last ``analyze`` or
``update`` reply for that session.  A key is a content hash of the
source and lanes (:func:`repro.service.cache.content_key`), and a
session's summary is a function of its key, so when ``since`` equals
the session's key the client holds that summary.  If the update then
leaves every set as it was, the reply carries ``"delta": {}`` in place
of ``summary``: the client reuses what it holds.  "Every set as it
was" means the two summaries' containers would be byte-identical
(:func:`repro.core.persist.carry` compares the rows the container
stores, and neither renders nor writes), so a row the container does
not store does not count.  Any other reply, and every reply to a
request without ``since``, carries the whole summary.

Version 3 lets an ``analyze`` or ``update`` request say that its client
reads summary containers: ``"accept": "container"``.  Wherever such a
request is due a summary, the reply carries ``container`` in its place:
the base64 text of the summary's v5 binary container
(:func:`repro.core.persist.summary_to_bytes`), which stores each call
site's sets as the paper decomposes them: 89 KB of text for a
500-procedure program whose ``summary`` JSON is 3.7 MB, 160 KB against
14.6 MB at 1,000 procedures.  It is one field of the same JSON line,
so a reply stays one line and ``max_payload`` keeps its meaning.  A
live summary's container has no trailer sections; a disk-cache hit's
is the cache record as stored, result-metadata section included.
Loading it (:func:`repro.core.persist.decode_summary_payload`) gives
the payload ``summary`` carries, with every dict's keys in the
payload's own order instead of sorted.  The ``delta``, ``lanes``,
``key`` and ``session`` fields are as before, and ``query`` replies are
JSON whatever the request says.  A request without ``accept`` gets
version 2's reply, byte for byte, so a client that speaks JSON alone
keeps working; any other ``accept`` value is ``bad_request``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

#: Bump on any incompatible change to request/response shapes.
PROTOCOL_VERSION = 3

#: The ``accept`` value of a client that reads summary containers.
ACCEPT_CONTAINER = "container"

#: Default cap on one request line (bytes), including the newline.
MAX_PAYLOAD_DEFAULT = 4 * 1024 * 1024

VERBS = ("analyze", "update", "query", "stats", "ping", "shutdown")

# Error codes — stable strings, part of the protocol.
E_BAD_REQUEST = "bad_request"  # Not JSON / not an object / bad field.
E_UNKNOWN_VERB = "unknown_verb"
E_PAYLOAD_TOO_LARGE = "payload_too_large"
E_ANALYSIS_ERROR = "analysis_error"  # Source failed to parse/resolve.
E_TIMEOUT = "timeout"  # Per-request deadline exceeded.
E_OVERLOADED = "overloaded"  # Queue-depth cap hit; retry later.
E_UNKNOWN_SESSION = "unknown_session"
E_SHUTTING_DOWN = "shutting_down"
E_INTERNAL = "internal_error"


class ProtocolError(Exception):
    """A request-level failure with a protocol error code attached."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def encode(message: Dict[str, Any]) -> bytes:
    """One JSON line, compact separators, sorted keys (deterministic)."""
    return (
        json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one request line; raises :class:`ProtocolError` on garbage."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise ProtocolError(E_BAD_REQUEST, "request is not valid JSON: %s" % error)
    if not isinstance(message, dict):
        raise ProtocolError(
            E_BAD_REQUEST, "request must be a JSON object, got %s" % type(message).__name__
        )
    return message


def ok_response(request_id: Any, verb: Optional[str], **fields: Any) -> Dict[str, Any]:
    response: Dict[str, Any] = {"ok": True, "id": request_id, "verb": verb}
    response.update(fields)
    return response


def error_response(
    request_id: Any, verb: Optional[str], code: str, message: str
) -> Dict[str, Any]:
    return {
        "ok": False,
        "id": request_id,
        "verb": verb,
        "error": {"code": code, "message": message},
    }


def accepts_container(request: Dict[str, Any]) -> bool:
    """Does the request's client read containers (``"accept":
    "container"``)?  Any other ``accept`` value is ``bad_request``."""
    accept = request.get("accept")
    if accept is None:
        return False
    if accept != ACCEPT_CONTAINER:
        raise ProtocolError(
            E_BAD_REQUEST, "field 'accept' must be %r" % ACCEPT_CONTAINER
        )
    return True


def require_str(request: Dict[str, Any], field: str) -> str:
    """Fetch a mandatory string field or raise ``bad_request``."""
    value = request.get(field)
    if not isinstance(value, str) or not value:
        raise ProtocolError(
            E_BAD_REQUEST, "field %r must be a non-empty string" % field
        )
    return value
