"""Transport: each response leaves in one send, and keep-alive never stalls.

Writing a response as several small segments on a kept-alive
connection lets Nagle's algorithm hold the last one until the client's
delayed ACK arrives, about 40 ms per response.  These tests pin the
fix: small responses reach the socket in exactly one write, sequential
queries on one persistent connection stay under that floor, and a
response longer than the write buffer still arrives whole.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import time

import pytest

from repro.cost.params import SystemParams
from repro.service import response_from_lines
from repro.service.http import WRITE_BUFFER_BYTES
from repro.sql.executor import execute
from repro.workspace import load_manifest, workspace_catalog

JOIN_SQL = "SELECT R2.Id, R1.Id FROM R1, R2 WHERE R1.Doc SIMILAR_TO(3) R2.Doc"
PROBE_SQL = (
    "SELECT R2.Id, R1.Id FROM R1, R2 "
    "WHERE R2.Id = {outer} AND R1.Doc SIMILAR_TO(3) R2.Doc"
)
WIDE_SQL = "SELECT R2.Id, R1.Id FROM R1, R2 WHERE R1.Doc SIMILAR_TO(60) R2.Doc"

#: the delayed-ACK floor a stalled keep-alive response sits above
DELAYED_ACK_MS = 40


@pytest.fixture()
def socket_writes(monkeypatch) -> list[int]:
    """The size of every ``socket.SocketIO.write`` made while the test runs."""
    sizes: list[int] = []
    original = socket.SocketIO.write

    def counting_write(self, data):
        sizes.append(len(data))
        return original(self, data)

    monkeypatch.setattr(socket.SocketIO, "write", counting_write)
    return sizes


def connect(handle) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", handle.server.port, timeout=30)


def exchange(connection, method, path, payload=None) -> tuple[int, bytes]:
    """One request on a persistent connection; the body is read in full."""
    body = None if payload is None else json.dumps(payload).encode()
    connection.request(method, path, body=body)
    response = connection.getresponse()
    return response.status, response.read()


@pytest.mark.parametrize(
    "method,path,payload",
    [
        ("POST", "/query", {"sql": JOIN_SQL}),
        ("GET", "/health", None),
        ("POST", "/mutate", {"sql": "INSERT INTO R1 (Doc) VALUES ('1 2 3')"}),
    ],
    ids=["query", "health", "mutate"],
)
def test_small_responses_reach_the_socket_in_one_write(
    mutable_service, socket_writes, method, path, payload
):
    handle, _directory = mutable_service
    connection = connect(handle)
    try:
        # Warm the connection first, so only the measured response counts.
        assert exchange(connection, "GET", "/health")[0] == 200
        socket_writes.clear()
        status, body = exchange(connection, method, path, payload)
    finally:
        connection.close()
    assert status == 200, body
    assert len(body) < WRITE_BUFFER_BYTES
    assert len(socket_writes) == 1, socket_writes


def test_keep_alive_queries_do_not_stall(running_service):
    connection = connect(running_service)
    latencies_ms = []
    try:
        for outer in range(20):
            payload = {"sql": PROBE_SQL.format(outer=outer)}
            start = time.perf_counter()
            status, body = exchange(connection, "POST", "/query", payload)
            latencies_ms.append((time.perf_counter() - start) * 1e3)
            assert status == 200, body
    finally:
        connection.close()
    assert statistics.median(latencies_ms) < DELAYED_ACK_MS, latencies_ms


def test_response_longer_than_the_buffer_arrives_whole(
    large_service, large_service_workspace
):
    connection = connect(large_service)
    try:
        status, body = exchange(connection, "POST", "/query", {"sql": WIDE_SQL})
        # The connection is still usable after a multi-flush stream.
        assert exchange(connection, "GET", "/health")[0] == 200
    finally:
        connection.close()
    assert status == 200
    assert len(body) > WRITE_BUFFER_BYTES
    document = response_from_lines(body.decode("utf-8"))

    catalog, _factory = workspace_catalog(large_service_workspace)
    manifest = load_manifest(large_service_workspace)
    system = SystemParams(buffer_pages=256, page_bytes=manifest["page_bytes"])
    direct = execute(WIDE_SQL, catalog, system)
    assert document["header"]["columns"] == list(direct.columns)
    rows = [tuple(row) for block in document["blocks"] for row in block["rows"]]
    assert rows == [tuple(row) for row in direct.rows]
    assert document["summary"]["rows"] == len(direct.rows)
