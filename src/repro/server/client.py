"""Blocking client for the analysis daemon.

Deliberately synchronous — scripting, tests, and CI smoke jobs want a
plain socket they can reason about, not an event loop.  One client
holds one connection and pipelines requests serially over it; create
one client per thread for concurrent load (the daemon multiplexes
connections, not the client).
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, Optional

from repro.server.protocol import (
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
        self._socket = socket.create_connection((host, port), timeout=timeout)
        self._file = self._socket.makefile("rwb")

    # -- plumbing ------------------------------------------------------------

    def request_raw(self, verb: str, **fields: Any) -> Dict[str, Any]:
        """Send one request, return the decoded response dict as-is
        (``ok`` may be false; nothing raises but transport errors).

        A reply longer than ``max_payload`` bytes raises
        :class:`ProtocolError` (``payload_too_large``) and closes the
        connection: the unread tail would otherwise be taken for the
        next reply."""
        if self._file.closed:
            raise ConnectionError("client connection is closed")
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
        return decode(line)

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
        gmod_method: str = "auto",
        **extra: Any,
    ) -> Dict[str, Any]:
        fields: Dict[str, Any] = {"source": source, "gmod_method": gmod_method}
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
