"""Failure paths: every error class maps to one pinned code and status.

The table test freezes the ``repro.errors`` → service-code → HTTP-status
contract; the live tests then confirm a real server actually honours it
for malformed bodies, bad SQL, unknown workspaces and blown budgets.
"""

from __future__ import annotations

import http.client
import json
import socket

import pytest

from repro.errors import (
    BudgetExceededError,
    ExecutionCancelledError,
    InvalidParameterError,
    ReproError,
    RequestTooLargeError,
    ServiceOverloadedError,
    ServiceRequestError,
    SqlSemanticError,
    SqlSyntaxError,
    UnknownWorkspaceError,
)
from repro.service import STATUS_BY_CODE, error_code_for
from repro.service.core import ERROR_CODES
from repro.service.http import MAX_BODY_BYTES

JOIN_SQL = "SELECT R2.Id, R1.Id FROM R1, R2 WHERE R1.Doc SIMILAR_TO(3) R2.Doc"

#: the full error contract, pinned: exception -> service code -> HTTP status
ERROR_TABLE = [
    (ServiceRequestError("x"), "bad-request", 400),
    (RequestTooLargeError("x"), "request-too-large", 413),
    (SqlSyntaxError("x"), "sql-syntax", 400),
    (SqlSemanticError("x"), "sql-semantic", 400),
    (InvalidParameterError("x"), "invalid-parameter", 400),
    (UnknownWorkspaceError("x"), "unknown-workspace", 404),
    (BudgetExceededError("x"), "budget-exceeded", 413),
    (ServiceOverloadedError("x"), "overloaded", 429),
    (ExecutionCancelledError("x"), "cancelled", 499),
    (ReproError("x"), "internal-error", 500),
]


@pytest.mark.parametrize(
    "exc,code,status", ERROR_TABLE, ids=[row[1] for row in ERROR_TABLE]
)
def test_error_contract_is_pinned(exc, code, status):
    assert error_code_for(exc) == code
    assert STATUS_BY_CODE[code] == status


def test_every_service_code_has_an_http_status():
    for _exc_type, code in ERROR_CODES:
        assert code in STATUS_BY_CODE


def test_unmapped_exceptions_fall_back_to_internal_error():
    assert error_code_for(RuntimeError("boom")) == "internal-error"


# --- live endpoint behaviour ------------------------------------------------


def assert_error(handle, payload, status, code, *, raw=False):
    got_status, text = handle.post("/query", payload, raw=raw)
    assert got_status == status, text
    body = json.loads(text)
    assert body["error"]["code"] == code
    assert body["error"]["status"] == status
    return body


def test_invalid_json_body_is_a_400(running_service):
    assert_error(running_service, b"{not json", 400, "bad-request", raw=True)


def test_missing_sql_field_is_a_400(running_service):
    assert_error(running_service, {}, 400, "bad-request")


def test_wrongly_typed_sql_field_is_a_400(running_service):
    assert_error(running_service, {"sql": 7}, 400, "bad-request")


def test_unknown_request_field_is_a_400(running_service):
    body = assert_error(
        running_service, {"sql": JOIN_SQL, "shard": 2}, 400, "bad-request"
    )
    assert "shard" in body["error"]["message"]


def test_boolean_is_not_an_integer_parameter(running_service):
    assert_error(
        running_service, {"sql": JOIN_SQL, "shards": True}, 400, "bad-request"
    )


def test_out_of_range_budget_is_a_400(running_service):
    assert_error(running_service, {"sql": JOIN_SQL, "pages": 0}, 400, "bad-request")


def test_sql_syntax_error_is_a_structured_400(running_service):
    assert_error(running_service, {"sql": "SELEKT * FRM R1"}, 400, "sql-syntax")


def test_sql_semantic_error_is_a_structured_400(running_service):
    assert_error(
        running_service,
        {"sql": "SELECT R1.Id FROM R1, R2 WHERE R1.Id SIMILAR_TO(3) R2.Doc"},
        400,
        "sql-semantic",
    )


def test_unknown_workspace_is_a_404(running_service):
    body = assert_error(
        running_service,
        {"sql": JOIN_SQL, "workspace": "nope"},
        404,
        "unknown-workspace",
    )
    assert "nope" in body["error"]["message"]


def test_blown_budget_is_a_413_with_partial_accounting(running_service):
    status, text = running_service.post("/query", {"sql": JOIN_SQL, "pages": 1})
    assert status == 413
    document = json.loads(text)
    # The 413 body is a full response document: header + the error
    # terminal carrying the partial accounting snapshot.
    assert document["schema"] == "repro-service-response/1"
    assert document["header"]["event"] == "header"
    error = document["error"]
    assert error["code"] == "budget-exceeded"
    assert error["partial"] is True
    assert error["pages_used"] >= 1
    assert set(error["stats"]) == {"sequential_reads", "random_reads"}
    assert document["summary"] is None


#: Content-Length values that cannot frame a body -> status, code.
#: Each is refused before any body byte is read, and the connection is
#: closed because the rest of its bytes can no longer be parsed.
CONTENT_LENGTH_TABLE = [
    ("-1", 400, "bad-request"),
    ("12abc", 400, "bad-request"),
    (str(MAX_BODY_BYTES + 1), 413, "request-too-large"),
]


@pytest.mark.parametrize(
    "length,status,code",
    CONTENT_LENGTH_TABLE,
    ids=["negative", "non-integer", "over-cap"],
)
def test_bad_content_length_fails_closed(running_service, length, status, code):
    head = (
        "POST /query HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Length: {length}\r\n\r\n"
    )
    # No body follows: a server that trusted the header would wait for
    # one, and the timeout turns that hang into a failure.
    with socket.create_connection(
        ("127.0.0.1", running_service.server.port), timeout=5
    ) as sock:
        sock.sendall(head.encode("ascii"))
        response = http.client.HTTPResponse(sock)
        response.begin()
        body = json.loads(response.read())
        assert response.status == status
        assert body["error"]["code"] == code
        assert body["error"]["status"] == status
        assert response.getheader("Connection") == "close"
        assert sock.recv(1) == b"", "the server kept the connection open"
    metrics = running_service.get("/metrics")[1]
    assert metrics["rejections"] == {code: 1}


def test_unknown_routes_are_404(running_service):
    status, body = running_service.get("/nope")
    assert status == 404
    assert body["error"]["code"] == "not-found"
    status, text = running_service.post("/health", {"sql": JOIN_SQL})
    assert status == 404
    assert json.loads(text)["error"]["code"] == "not-found"


def test_rejections_are_counted_in_metrics(running_service):
    before = running_service.get("/metrics")[1]["rejections"]
    running_service.post("/query", {"sql": "SELEKT"})
    running_service.post("/query", {"sql": JOIN_SQL, "workspace": "nope"})
    running_service.post("/query", {})
    after = running_service.get("/metrics")[1]["rejections"]
    assert after.get("sql-syntax", 0) == before.get("sql-syntax", 0) + 1
    assert after.get("unknown-workspace", 0) == before.get("unknown-workspace", 0) + 1
    assert after.get("bad-request", 0) == before.get("bad-request", 0) + 1
