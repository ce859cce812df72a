"""Load generation against a ``repro serve`` process over HTTP/1.1.

Every client holds **one persistent connection** for its whole run.
Users of a long-lived join service keep their connections open, and a
fresh connection per request hides a real cost: on a kept-alive
connection a one-document query waits on the server's small chunk
writes (tens of milliseconds of stall against a few milliseconds of
server work), which a new connection per request never shows.

Reads are closed-loop (a client sends its next query only after the
previous response ended).  The concurrent writer is open-loop: write
``i`` is due at ``start + i / rate`` and its latency runs from that due
time, so a stall also charges the writes queued behind it; how late
the generator itself ran is reported separately.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

HOST = "127.0.0.1"

#: seconds a single request may take before the client gives up
REQUEST_TIMEOUT = 120.0


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile: the ceil(q% * n)-th smallest value."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[rank - 1]


@dataclass
class Outcome:
    """One attempted operation as the client saw it."""

    kind: str  # "query" or "mutate"
    latency: float
    ok: bool
    reason: str = ""
    request: dict[str, Any] = field(default_factory=dict)
    #: the header's algorithm (queries)
    algorithm: str | None = None
    #: events in the response stream (queries)
    events: int = 0
    #: the summary's server-side elapsed seconds (queries) or the
    #: mutation payload's (writes)
    server_seconds: float | None = None
    #: the summary's total pages read (queries)
    pages_read: int = 0
    #: the summary's per-phase I/O, ``{phase: (sequential, random)}``;
    #: empty for sharded requests, whose summary carries no phases
    phase_io: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: seconds the open-loop generator sent after the due time (writes)
    lateness: float = 0.0


class Client:
    """One persistent HTTP/1.1 connection to the server."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._connection: http.client.HTTPConnection | None = None

    def _exchange(self, method: str, path: str, body: bytes | None = None) -> tuple[int, str]:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                HOST, self.port, timeout=REQUEST_TIMEOUT
            )
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self._connection.request(method, path, body=body, headers=headers)
            response = self._connection.getresponse()
            text = response.read().decode("utf-8")
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        if response.will_close:
            self.close()
        return response.status, text

    def post(self, path: str, payload: dict[str, Any]) -> tuple[int, str]:
        """Send one JSON body and read the whole response."""
        return self._exchange("POST", path, json.dumps(payload).encode("utf-8"))

    def get_json(self, path: str) -> Any:
        """``GET`` one JSON document."""
        return json.loads(self._exchange("GET", path)[1])

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


class Server:
    """A ``repro serve`` child process over one workspace directory."""

    def __init__(self, root: Path, directory: Path, *, buffer_pages: int,
                 scenario: str, max_workers: int, log: Path) -> None:
        self.port = _free_port()
        self.log = log
        environment = dict(os.environ, PYTHONPATH=str(root / "src"))
        with open(log, "wb") as stderr:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve", f"ws={directory}",
                    "--port", str(self.port), "--buffer", str(buffer_pages),
                    "--scenario", scenario, "--max-workers", str(max_workers),
                ],
                cwd=root,
                env=environment,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
            )

    def wait_healthy(self, timeout: float = 120.0) -> None:
        """Block until ``GET /health`` answers ok (or fail loudly)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode}: "
                    + self.log.read_text(errors="replace")[-2000:]
                )
            client = Client(self.port)
            try:
                if client.get_json("/health").get("status") == "ok":
                    return
            except (OSError, http.client.HTTPException, ValueError):
                time.sleep(0.01)
            finally:
                client.close()
        raise RuntimeError(f"server did not become healthy within {timeout}s")

    def peak_rss_mb(self) -> float:
        """Peak resident set size of the server process (Linux ``VmHWM``)."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def metrics(self) -> dict[str, Any]:
        client = Client(self.port)
        try:
            return client.get_json("/metrics")
        finally:
            client.close()

    def stop(self) -> None:
        """Terminate the process and wait until it has ended."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)


def query_outcome(
    request: dict[str, Any],
    status: int,
    text: str,
    latency: float,
    check_rows: Callable[[dict[str, Any], list[str], list[tuple]], str],
) -> Outcome:
    """Judge one ``POST /query`` response.

    A failure is a non-2xx status, a stream that does not reassemble
    into a schema-valid document ending in a ``summary`` event, or rows
    that ``check_rows`` rejects (it returns a reason, empty when ok).
    """
    from repro.errors import ServiceResponseError
    from repro.service import response_from_lines

    outcome = Outcome("query", latency, ok=False, request=request)
    if not 200 <= status < 300:
        outcome.reason = f"HTTP {status}" if status else text
        return outcome
    try:
        document = response_from_lines(text)
    except ServiceResponseError as exc:
        outcome.reason = f"bad response: {exc}"
        return outcome
    outcome.events = sum(1 for line in text.splitlines() if line.strip())
    outcome.algorithm = document["header"].get("algorithm")
    summary = document["summary"]
    if summary is None:
        outcome.reason = f"no terminal summary: {document['error'].get('code')}"
        return outcome
    outcome.server_seconds = summary.get("elapsed_seconds")
    outcome.pages_read = summary.get("pages_read") or 0
    outcome.phase_io = {
        phase: (io["sequential_reads"], io["random_reads"])
        for phase, io in (summary.get("phase_io") or {}).items()
    }
    rows = [tuple(row) for block in document["blocks"] for row in block["rows"]]
    outcome.reason = check_rows(request, document["header"]["columns"], rows)
    outcome.ok = not outcome.reason
    return outcome


def mutate_outcome(statement: str, status: int, text: str, latency: float) -> Outcome:
    """Judge one ``POST /mutate`` response: 200 with ``changed`` set."""
    outcome = Outcome("mutate", latency, ok=False, request={"sql": statement})
    if status != 200:
        outcome.reason = f"HTTP {status}"
        return outcome
    try:
        payload = json.loads(text)
    except ValueError as exc:
        outcome.reason = f"bad mutation body: {exc}"
        return outcome
    outcome.server_seconds = payload.get("elapsed_seconds")
    if payload.get("event") != "mutation" or payload.get("changed") is not True:
        outcome.reason = "mutation did not report a change"
        return outcome
    outcome.ok = True
    return outcome


def post_query(client: Client, request: dict[str, Any]) -> tuple[int, str, float]:
    """One timed query: ``(status, body, seconds)``; status 0 on a transport error."""
    started = time.perf_counter()
    try:
        status, text = client.post("/query", request)
    except (OSError, http.client.HTTPException) as exc:
        status, text = 0, f"transport: {exc!r}"
    return status, text, time.perf_counter() - started


def send_query(client: Client, request: dict[str, Any], check_rows) -> Outcome:
    """One timed and checked query on a persistent connection."""
    return query_outcome(request, *post_query(client, request), check_rows)


def send_mutation(client: Client, statement: str, due: float) -> Outcome:
    """One write, timed from ``due`` (its scheduled send time)."""
    sent = time.perf_counter()
    try:
        status, text = client.post("/mutate", {"sql": statement})
    except (OSError, http.client.HTTPException) as exc:
        outcome = Outcome("mutate", time.perf_counter() - due, ok=False,
                          reason=f"transport: {exc!r}", request={"sql": statement})
    else:
        outcome = mutate_outcome(statement, status, text, time.perf_counter() - due)
    outcome.lateness = sent - due
    return outcome


def closed_loop(
    port: int,
    requests: Iterator[dict[str, Any]],
    deadline: float,
    replies: list[tuple[dict[str, Any], int, str, float]],
) -> None:
    """One read client: query back to back until the deadline.

    Replies are kept raw and checked after the run, so the load
    generator spends no CPU on parsing while the server is measured.
    """
    client = Client(port)
    try:
        while time.perf_counter() < deadline:
            request = next(requests)
            replies.append((request, *post_query(client, request)))
    finally:
        client.close()


def open_loop_writer(
    port: int,
    statements: Iterator[str],
    rate: float,
    start: float,
    deadline: float,
    results: list[Outcome],
) -> None:
    """The writer: write ``i`` is due at ``start + i / rate``.

    It stops at the first due time past the deadline that falls after
    an even number of writes, so every INSERT is paired with its DELETE.
    """
    client = Client(port)
    try:
        index = 0
        while True:
            due = start + index / rate
            if due >= deadline and index % 2 == 0:
                return
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            results.append(send_mutation(client, next(statements), due))
            index += 1
    finally:
        client.close()


def run_load(
    port: int,
    request_streams: list[Iterator[dict[str, Any]]],
    check_rows,
    seconds: float,
    *,
    statements: Iterator[str] | None = None,
    write_rate: float = 0.0,
) -> tuple[list[Outcome], float]:
    """Drive the read clients (and the writer) for ``seconds``.

    Returns every outcome and the wall time from the start until the
    last client finished.
    """
    replies: list[list[tuple[dict[str, Any], int, str, float]]] = [
        [] for _ in request_streams
    ]
    writes: list[Outcome] = []
    start = time.perf_counter()
    deadline = start + seconds
    threads = [
        threading.Thread(target=closed_loop, args=(port, stream, deadline, replies[index]))
        for index, stream in enumerate(request_streams)
    ]
    if statements is not None and write_rate > 0:
        threads.append(
            threading.Thread(
                target=open_loop_writer,
                args=(port, statements, write_rate, start, deadline, writes),
            )
        )
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    reads = [
        query_outcome(request, status, text, latency, check_rows)
        for client in replies
        for request, status, text, latency in client
    ]
    return reads + writes, elapsed


def closed_loop_writes(port: int, statements: Iterator[str], count: int) -> list[Outcome]:
    """``count`` writes back to back, each timed from its send."""
    client = Client(port)
    try:
        return [
            send_mutation(client, next(statements), time.perf_counter())
            for _ in range(count)
        ]
    finally:
        client.close()
