"""Concurrency and robustness: hammering, saturation, disconnects.

The service promise under load is threefold: concurrent identical
queries see identical rows *and* identical I/O accounting (no
cross-request IOStats bleed), saturation is a fast 429 rather than a
hang, and a client that walks away mid-request frees its worker slot.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.service.schema import response_from_lines

JOIN_SQL = "SELECT R2.Id, R1.Id FROM R1, R2 WHERE R1.Doc SIMILAR_TO(3) R2.Doc"


def test_concurrent_queries_do_not_share_iostats(running_service):
    baseline_status, baseline = running_service.query({"sql": JOIN_SQL})
    assert baseline_status == 200
    baseline_rows = [tuple(r) for b in baseline["blocks"] for r in b["rows"]]
    baseline_pages = baseline["summary"]["pages_read"]

    results: list[tuple[int, dict]] = []
    lock = threading.Lock()

    def hammer():
        # Eight clients over four worker slots oversubscribe the pool on
        # purpose; a 429 is the service behaving correctly under that
        # load (see test_saturation_returns_429_not_a_hang), so back off
        # and retry until the query lands.
        for _ in range(50):
            outcome = running_service.query({"sql": JOIN_SQL})
            if outcome[0] != 429:
                break
            time.sleep(0.01)
        with lock:
            results.append(outcome)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)

    assert len(results) == 8
    for status, document in results:
        assert status == 200
        rows = [tuple(r) for b in document["blocks"] for r in b["rows"]]
        assert rows == baseline_rows
        # Identical pages_read is the sharp version of "no bleed": a
        # request that inherited another's accounting would differ.
        assert document["summary"]["pages_read"] == baseline_pages


def test_saturation_returns_429_not_a_hang(running_service):
    service = running_service.service
    slots = [service.admit() for _ in range(service.max_workers)]
    try:
        started = time.monotonic()
        status, body = running_service.query({"sql": JOIN_SQL})
        elapsed = time.monotonic() - started
        assert status == 429
        assert body["error"]["code"] == "overloaded"
        assert elapsed < 5, "saturation must refuse immediately, not queue"
    finally:
        for slot in slots:
            slot.release()
    status, _document = running_service.query({"sql": JOIN_SQL})
    assert status == 200
    metrics = running_service.get("/metrics")[1]
    assert metrics["rejections"].get("overloaded", 0) >= 1


def test_disconnected_client_releases_its_slot(running_service):
    service = running_service.service
    host, port = "127.0.0.1", running_service.server.port
    body = json.dumps({"sql": JOIN_SQL}).encode()
    request = (
        f"POST /query HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body

    with socket.create_connection((host, port), timeout=10) as raw:
        raw.sendall(request)
        # Abandon the response immediately — at most the status line has
        # been read; the server is (or will be) mid-stream.
        raw.recv(1)

    deadline = time.monotonic() + 10
    while service.in_flight and time.monotonic() < deadline:
        time.sleep(0.01)
    assert service.in_flight == 0
    # The pool is whole again: a normal query still succeeds.
    status, _document = running_service.query({"sql": JOIN_SQL})
    assert status == 200


@pytest.mark.parametrize(
    "lam",
    # About 100 KiB of events on the large workspace: the final flush
    # is the send that finds the client gone.  About 330 KiB: a
    # buffer-full write fails while the generator is still running.
    [60, 200],
    ids=["final-flush", "mid-stream"],
)
# Under ``python -X dev`` a writer finalised with bytes still pending
# reports its failed flush as an unraisable exception; make that fail.
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
def test_disconnect_past_the_buffer_releases_its_slot_quietly(
    large_service, capfd, lam
):
    """A response longer than the write buffer is abandoned part-way.

    The failing send must end the request inside the handler (generator
    closed, slot released) and leave nothing for ``http.server``'s own
    flushes to trip over, so no traceback reaches stderr.
    """
    service = large_service.service
    host, port = "127.0.0.1", large_service.server.port
    sql = f"SELECT R2.Id, R1.Id FROM R1, R2 WHERE R1.Doc SIMILAR_TO({lam}) R2.Doc"
    body = json.dumps({"sql": sql}).encode()
    request = (
        f"POST /query HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body

    with socket.create_connection((host, port), timeout=10) as raw:
        raw.sendall(request)
        # The first bytes arrive when the first 64 KiB buffer fills;
        # hang up with the rest of the stream still unsent.
        raw.recv(1)

    deadline = time.monotonic() + 10
    while service.in_flight and time.monotonic() < deadline:
        time.sleep(0.01)
    assert service.in_flight == 0
    # Let the abandoned handler thread finish before reading stderr.
    for thread in threading.enumerate():
        if "process_request_thread" in thread.name:
            thread.join(timeout=10)
            assert not thread.is_alive()
    status, _document = large_service.query({"sql": JOIN_SQL})
    assert status == 200
    assert capfd.readouterr().err == ""


def test_mixed_load_keeps_the_service_healthy(running_service):
    payloads = [
        {"sql": JOIN_SQL},
        {"sql": "SELEKT nonsense"},
        {"sql": JOIN_SQL, "limit": 3},
        {"sql": JOIN_SQL, "workspace": "nope"},
        {"sql": JOIN_SQL, "shards": 2},
        {"sql": JOIN_SQL, "pages": 1},
    ]
    outcomes: list[int] = []
    lock = threading.Lock()

    def fire(payload):
        status, _text = running_service.post("/query", payload)
        with lock:
            outcomes.append(status)

    threads = [
        threading.Thread(target=fire, args=(payloads[i % len(payloads)],))
        for i in range(12)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)

    assert len(outcomes) == 12
    assert set(outcomes) <= {200, 400, 404, 413, 429}
    assert running_service.get("/health")[0] == 200
    assert running_service.service.in_flight == 0


def test_streamed_and_document_paths_share_one_schema(running_service):
    status, text = running_service.post("/query", {"sql": JOIN_SQL})
    assert status == 200
    document = response_from_lines(text)
    assert document["summary"] is not None and document["error"] is None
