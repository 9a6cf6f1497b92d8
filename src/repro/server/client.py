"""Blocking client for the analysis daemon.

Deliberately synchronous — scripting, tests, and CI smoke jobs want a
plain socket they can reason about, not an event loop.  One client
holds one connection and pipelines requests serially over it; create
one client per thread for concurrent load (the daemon multiplexes
connections, not the client).

The client asks for summaries as containers (``"accept":
"container"`` on ``analyze`` and ``update``) and loads each one it gets
into the ``summary`` a JSON reply would have carried.  It keeps each
session's last ``key`` and summary on its connection and sends the key
as ``since`` on ``update``; when the daemon answers that nothing
changed (``"delta": {}``) the client puts the summary it holds back
into the reply, so every verb returns what a full JSON reply decodes
to.
"""

from __future__ import annotations

import base64
import socket
import time
from typing import Any, Dict, Optional, Tuple

from repro.server.protocol import (
    ACCEPT_CONTAINER,
    E_BAD_REQUEST,
    E_PAYLOAD_TOO_LARGE,
    MAX_PAYLOAD_DEFAULT,
    ProtocolError,
    decode,
    encode,
)


class ServerError(Exception):
    """An ``ok: false`` response, surfaced as an exception.

    ``code`` is the protocol error code (``timeout``, ``overloaded``,
    ``unknown_session``, …); ``response`` is the full decoded reply.
    """

    def __init__(self, response: Dict[str, Any]):
        error = response.get("error") or {}
        self.code = error.get("code", "unknown")
        self.response = response
        super().__init__("%s: %s" % (self.code, error.get("message", "")))


class ServerClient:
    """Line-delimited JSON client; context-manager closes the socket."""

    def __init__(
        self,
        port: int,
        host: str = "127.0.0.1",
        timeout: float = 60.0,
        max_payload: int = MAX_PAYLOAD_DEFAULT,
    ):
        self.host = host
        self.port = port
        self.max_payload = max_payload
        self._next_id = 0
        #: Session name → the ``(key, summary)`` of its last
        #: ``analyze``/``update`` reply on this connection.
        self._held: Dict[str, Tuple[str, Dict[str, Any]]] = {}
        self._socket = socket.create_connection((host, port), timeout=timeout)
        self._file = self._socket.makefile("rwb")

    # -- plumbing ------------------------------------------------------------

    def request_raw(self, verb: str, **fields: Any) -> Dict[str, Any]:
        """Send one request, return the decoded response dict (``ok``
        may be false; nothing raises but transport errors).

        An ``analyze`` or ``update`` is sent with ``"accept":
        "container"``, and a ``container`` reply comes back with the
        ``summary`` it loads to (:func:`_summary_of`) in its place.  An
        ``update`` of a session this client holds a summary for is sent
        with ``since`` (that summary's ``key``), and a ``delta`` reply
        comes back with the held ``summary`` in its place.  Either way
        the caller gets a full JSON reply's keys and values, key order
        included.  The summary is read-only, and an unchanged one is the
        very object an earlier reply returned.  A ``delta`` reply the
        client cannot match to what it holds (the caller passed another
        ``since`` itself) comes back as the daemon sent it.

        A reply longer than ``max_payload`` bytes raises
        :class:`ProtocolError` (``payload_too_large``) and closes the
        connection: the unread tail would otherwise be taken for the
        next reply.  A container that does not load raises
        :class:`ProtocolError` (``bad_request``, as a reply that is not
        JSON does), and what the client holds stays as it was."""
        if self._file.closed:
            raise ConnectionError("client connection is closed")
        session = fields.get("session")
        if not isinstance(session, str):
            session = None
        held = self._held.get(session)
        if verb in ("analyze", "update"):
            fields.setdefault("accept", ACCEPT_CONTAINER)
        if verb == "update" and held is not None:
            fields.setdefault("since", held[0])
        self._next_id += 1
        message: Dict[str, Any] = {"verb": verb, "id": self._next_id}
        message.update(fields)
        self._file.write(encode(message))
        self._file.flush()
        line = self._file.readline(self.max_payload + 1)
        if not line:
            raise ConnectionError("server closed the connection")
        if not line.endswith(b"\n"):
            self.close()
            if len(line) <= self.max_payload:
                raise ConnectionError("server closed the connection mid-reply")
            raise ProtocolError(
                E_PAYLOAD_TOO_LARGE,
                "reply exceeds the client's max_payload of %d bytes;"
                " connection closed" % self.max_payload,
            )
        reply = decode(line)
        if "container" in reply:
            reply["summary"] = _summary_of(reply.pop("container"))
            # The key order of the JSON reply line, which sorts its keys.
            reply = dict(sorted(reply.items()))
        if not (reply.get("ok") and verb in ("analyze", "update") and session):
            return reply
        if "delta" in reply:
            if held is None or held[0] != fields.get("since") or reply["delta"]:
                return reply
            del reply["delta"]
            reply["summary"] = held[1]
            # The key order of the full reply line, which sorts its keys.
            reply = dict(sorted(reply.items()))
        self._held[session] = (reply["key"], reply["summary"])
        return reply

    def request(self, verb: str, **fields: Any) -> Dict[str, Any]:
        """Send one request; raise :class:`ServerError` on failure."""
        response = self.request_raw(verb, **fields)
        if not response.get("ok"):
            raise ServerError(response)
        return response

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._socket.close()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- verbs ---------------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        return self.request("ping")

    def analyze(
        self,
        source: str,
        session: Optional[str] = None,
        **extra: Any,
    ) -> Dict[str, Any]:
        fields: Dict[str, Any] = {"source": source}
        if session is not None:
            fields["session"] = session
        fields.update(extra)
        return self.request("analyze", **fields)

    def update(self, session: str, source: str, **extra: Any) -> Dict[str, Any]:
        return self.request("update", session=session, source=source, **extra)

    def query(self, session: str, select: str, **params: Any) -> Dict[str, Any]:
        return self.request("query", session=session, select=select, **params)

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")["stats"]

    def shutdown(self) -> Dict[str, Any]:
        return self.request("shutdown")


def _summary_of(container: Any) -> Dict[str, Any]:
    """The ``summary`` a JSON reply carries, from the base64 text of a
    reply's container: the payload loaded through
    :func:`~repro.core.persist.decode_summary_payload`, every dict's keys
    sorted as the JSON line sorts them.  Only dicts are rebuilt; the
    name lists are the loader's own.  :class:`ProtocolError` when the
    text is not base64 of a container that loads."""
    from repro.core.persist import decode_summary_payload

    try:
        if not isinstance(container, str):
            raise ValueError("not a string but %s" % type(container).__name__)
        payload = decode_summary_payload(
            base64.b64decode(container.encode("ascii"), validate=True)
        )
    except ValueError as error:  # binascii.Error and UnicodeError too.
        raise ProtocolError(
            E_BAD_REQUEST, "reply carries a container that does not load: %s" % error
        )
    return _sorted_dicts(payload)


def _sorted_dicts(value: Any) -> Any:
    """``value`` with the keys of every dict in it sorted.  A list is
    entered only when it holds dicts (the call sites): a list of names or
    of alias pairs is kept as it is, unread."""
    if isinstance(value, dict):
        return {key: _sorted_dicts(value[key]) for key in sorted(value)}
    if isinstance(value, list) and value and isinstance(value[0], dict):
        return [_sorted_dicts(item) for item in value]
    return value


def wait_for_server(
    port: int, host: str = "127.0.0.1", deadline: float = 30.0
) -> ServerClient:
    """Poll until the daemon accepts connections and answers ``ping``
    (CI smoke jobs race the daemon's startup); returns a live client."""
    end = time.monotonic() + deadline
    last_error: Optional[Exception] = None
    while time.monotonic() < end:
        try:
            client = ServerClient(port=port, host=host, timeout=deadline)
            client.ping()
            return client
        except (OSError, ConnectionError) as error:
            last_error = error
            time.sleep(0.05)
    raise ConnectionError(
        "no analysis server on %s:%d after %.3gs (%s)"
        % (host, port, deadline, last_error)
    )
