"""The HTTP/JSON transport: stdlib ``http.server``, no new dependencies.

Endpoints:

* ``POST /query`` — body ``{"sql": ..., "workspace": ..., "shards": ...,
  "jobs": ..., "pages": ..., "seconds": ..., "limit": ...}``.  Success
  streams the event lines (``header``, ``block``..., ``summary``) as
  chunked ``application/x-ndjson``.  Failures before the first result
  block are a single JSON document with the mapped status — including
  **413** with a partial-result payload when the request's
  :class:`~repro.exec.context.ExecutionBudget` ran out before anything
  streamed; a budget that runs out *mid-stream* terminates the (already
  200) stream with an ``error`` event instead, since the status line is
  long gone.
* ``POST /mutate`` — body ``{"sql": ..., "workspace": ...}`` with one
  ``INSERT INTO`` / ``DELETE FROM`` statement.  Commits atomically
  under the service's mutation lock and answers with a single JSON
  mutation summary (version, fingerprint, per-segment page I/O).
  In-flight queries keep streaming from the pre-mutation snapshot;
  queries admitted after the commit see the new version.
* ``GET /health`` — service liveness, loaded workspaces, in-flight
  count, mutations applied.
* ``GET /metrics`` — counters, latency percentiles (p50/p95/p99) and
  per-phase I/O totals from :class:`~repro.service.metrics.ServiceMetrics`.

Every response goes out through a buffered writer: the status line,
headers and event chunks collect in a :data:`WRITE_BUFFER_BYTES`
buffer that reaches the socket when it fills and once more, explicitly,
when the response ends.  A small response is therefore one ``send``,
and a long stream still streams, 64 KiB at a time.  ``TCP_NODELAY`` is
set on every connection.  Both exist for the same reason: writing a
response as several small segments on a kept-alive connection makes
Nagle's algorithm hold the last segment until the client's delayed ACK
arrives, which costs about 40 ms per response.

Each connection gets its own thread
(:class:`http.server.ThreadingHTTPServer`); *execution* concurrency is
bounded separately by the service's admission semaphore, so saturation
is a fast 429, never a hang.  A client that disconnects mid-stream
makes the next buffer flush fail, which drops the unsent bytes, closes
the event generator and releases its worker slot.

A request body must declare a decimal ``Content-Length`` of at most
:data:`MAX_BODY_BYTES`.  Anything else is refused before the body is
read — 400 ``bad-request`` for a missing or malformed length, 413
``request-too-large`` for an oversized one — and the connection is
closed, since its remaining bytes can no longer be framed.
"""

from __future__ import annotations

import io
import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping

from repro.errors import (
    ReproError,
    RequestTooLargeError,
    ServiceOverloadedError,
    ServiceRequestError,
)
from repro.service.core import (
    JoinService,
    MutateRequest,
    QueryRequest,
    error_code_for,
)
from repro.service.schema import assemble_response

#: size of each connection's response buffer: a response reaches the
#: socket whenever this much is pending, and once more when it ends
WRITE_BUFFER_BYTES = 64 * 1024

#: the largest request body the server will read
MAX_BODY_BYTES = 4 * 1024 * 1024

#: HTTP status per service error code — the admission/failure contract
#: the table test in ``tests/service/test_failures.py`` pins
STATUS_BY_CODE: Mapping[str, int] = {
    "bad-request": 400,
    "sql-syntax": 400,
    "sql-semantic": 400,
    "invalid-parameter": 400,
    "not-found": 404,
    "unknown-workspace": 404,
    "budget-exceeded": 413,
    "request-too-large": 413,
    "overloaded": 429,
    "cancelled": 499,
    "internal-error": 500,
}


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`JoinService`."""

    #: worker threads die with the process; a hung client never pins shutdown
    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: JoinService) -> None:
        super().__init__(address, _ServiceRequestHandler)
        self.service = service

    @property
    def port(self) -> int:
        """The bound TCP port (useful after binding port 0)."""
        return self.server_address[1]


def make_server(
    service: JoinService, host: str = "127.0.0.1", port: int = 0
) -> ServiceHTTPServer:
    """Bind a server for the service; ``port=0`` picks an ephemeral port.

    The server is bound but not running — call ``serve_forever()`` (the
    CLI does) or drive it from a thread (the test fixtures do).
    """
    return ServiceHTTPServer((host, port), service)


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    """One request: route, execute, stream or report the mapped error."""

    #: chunked transfer encoding requires HTTP/1.1
    protocol_version = "HTTP/1.1"

    #: buffer the writer so each response leaves in as few sends as it can
    wbufsize = WRITE_BUFFER_BYTES

    #: a flush is always a complete batch; never hold it for an ACK
    disable_nagle_algorithm = True

    server: ServiceHTTPServer

    # --- plumbing ---------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence the default per-request stderr chatter."""

    def _send_json(self, status: int, payload: Mapping[str, Any]) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
            self.wfile.flush()
        except OSError:
            self._drop_connection()

    def _drop_connection(self) -> None:
        """The client went away: discard the unsent bytes and hang up.

        The buffered writer keeps whatever a failed flush could not
        send and would retry it in ``http.server``'s own flushes, where
        the error escapes as a traceback.  Closing its raw stream marks
        it closed without another send; the handler's remaining
        flushes land in an empty in-memory sink.
        """
        self.close_connection = True
        self.wfile.raw.close()
        self.wfile = io.BytesIO()

    def _send_error_payload(self, exc: BaseException) -> None:
        code = error_code_for(exc)
        status = STATUS_BY_CODE.get(code, 500)
        self._send_json(
            status, {"error": {"code": code, "message": str(exc), "status": status}}
        )

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(b"%x\r\n%s\r\n" % (len(data), data))

    def _write_event_chunk(self, event: Mapping[str, Any]) -> None:
        self._write_chunk((json.dumps(event, sort_keys=True) + "\n").encode("utf-8"))

    def _body_length(self) -> int:
        """The declared body size, refused unless it frames a sane body."""
        length = self.headers.get("Content-Length")
        if length is None or not (length.isascii() and length.isdigit()):
            # Without a length the body's end is unknown, so the rest of
            # the connection cannot be read as requests.
            self.close_connection = True
            raise ServiceRequestError(
                f"POST {self.path} requires a non-negative integer "
                f"Content-Length, got {length!r}"
            )
        size = int(length)
        if size > MAX_BODY_BYTES:
            self.close_connection = True
            raise RequestTooLargeError(
                f"request body of {size} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        return size

    def _read_body(self) -> Any:
        size = self._body_length()
        try:
            raw = self.rfile.read(size)
            return json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ServiceRequestError(f"request body is not valid JSON: {exc}")

    def _read_request(self) -> QueryRequest:
        return QueryRequest.from_mapping(self._read_body())

    # --- routes -----------------------------------------------------------

    def do_GET(self) -> None:
        """Serve ``/health`` and ``/metrics``."""
        service = self.server.service
        if self.path == "/health":
            self._send_json(200, service.health())
        elif self.path == "/metrics":
            snapshot = service.metrics.snapshot()
            snapshot["in_flight"] = service.in_flight
            self._send_json(200, snapshot)
        else:
            self._send_json(
                404,
                {
                    "error": {
                        "code": "not-found",
                        "message": f"no route for GET {self.path}",
                        "status": 404,
                    }
                },
            )

    def do_POST(self) -> None:
        """Serve ``/query`` (admit, execute, stream) and ``/mutate``."""
        service = self.server.service
        if self.path == "/mutate":
            self._do_mutate(service)
            return
        if self.path != "/query":
            self._send_json(
                404,
                {
                    "error": {
                        "code": "not-found",
                        "message": f"no route for POST {self.path}",
                        "status": 404,
                    }
                },
            )
            return
        try:
            request = self._read_request()
        except ReproError as exc:
            service.metrics.record_rejection(error_code_for(exc))
            self._send_error_payload(exc)
            return
        try:
            events = service.stream(request)
        except ReproError as exc:
            # Saturation is already counted inside admit(); count the rest.
            if not isinstance(exc, ServiceOverloadedError):
                service.metrics.record_rejection(error_code_for(exc))
            self._send_error_payload(exc)
            return
        try:
            self._run_query(events)
        finally:
            events.close()

    def _do_mutate(self, service: JoinService) -> None:
        """Serve ``/mutate``: one statement in, one JSON summary out.

        Mutations never stream — the whole commit happens under the
        service's mutation lock and the response is a single document
        (200 on success, the mapped error status otherwise).
        """
        try:
            request = MutateRequest.from_mapping(self._read_body())
        except ReproError as exc:
            service.metrics.record_rejection(error_code_for(exc))
            self._send_error_payload(exc)
            return
        try:
            payload = service.mutate(request)
        except ReproError as exc:
            if not isinstance(exc, ServiceOverloadedError):
                service.metrics.record_rejection(error_code_for(exc))
            self._send_error_payload(exc)
            return
        self._send_json(200, payload)

    def _run_query(self, events: Any) -> None:
        """Pull the first events, pick the status, then stream the rest."""
        try:
            header = next(events)
            # Peek one event past the header: a terminal error here means
            # the whole failure fits in a plain status-mapped document
            # (the 413 partial-result payload); anything else commits to
            # a 200 chunked stream.
            second = next(events, None)
        except ReproError as exc:
            self._send_error_payload(exc)
            return
        if second is None or (
            isinstance(second, Mapping) and second.get("event") == "error"
        ):
            terminal = second if second is not None else _missing_terminal()
            document = assemble_response([header, terminal])
            status = STATUS_BY_CODE.get(str(terminal.get("code")), 500)
            self._send_json(status, document)
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            self._write_event_chunk(header)
            self._write_event_chunk(second)
            for event in events:
                self._write_event_chunk(event)
            self._write_chunk(b"")
            self.wfile.flush()
        except OSError:
            # The client went away mid-stream; closing the generator (in
            # the caller's finally) releases the worker slot.
            self._drop_connection()


def _missing_terminal() -> dict[str, Any]:
    """A synthetic error event for a stream that died before its terminal."""
    return {
        "event": "error",
        "code": "internal-error",
        "message": "the event stream ended without a terminal event",
        "partial": True,
    }


__all__ = ["STATUS_BY_CODE", "ServiceHTTPServer", "make_server"]
