"""POST /mutate: the service write path and its snapshot semantics."""

from __future__ import annotations

import json
import time

from repro.workspace import load_manifest

JOIN_SQL = "SELECT R2.Id, R1.Id FROM R1, R2 WHERE R1.Doc SIMILAR_TO(3) R2.Doc"


def mutate(handle, sql, workspace="ws"):
    status, text = handle.post(
        "/mutate", {"sql": sql, "workspace": workspace}
    )
    return status, json.loads(text)


class TestMutateEndpoint:
    def test_insert_commits_and_reports_the_version(self, mutable_service):
        handle, directory = mutable_service
        status, payload = mutate(
            handle, "INSERT INTO R1 (Doc) VALUES ('1 2 3'), ('4 5')"
        )
        assert status == 200, payload
        assert payload["event"] == "mutation"
        assert payload["workspace"] == "ws"
        assert payload["inserted"] == {"c1": 2, "c2": 0}
        assert payload["version"] == 2
        manifest = load_manifest(directory)
        assert manifest["collections"]["c1"]["n_documents"] == 27

    def test_queries_after_the_commit_see_the_new_data(self, mutable_service):
        handle, _ = mutable_service
        status, before = handle.query({"sql": "SELECT R1.Id FROM R1"})
        assert status == 200
        rows_before = sum(len(b["rows"]) for b in before["blocks"])
        status, payload = mutate(
            handle, "INSERT INTO R1 (Doc) VALUES ('7 9 11')"
        )
        assert status == 200, payload
        status, after = handle.query({"sql": "SELECT R1.Id FROM R1"})
        assert status == 200
        rows_after = sum(len(b["rows"]) for b in after["blocks"])
        assert rows_after == rows_before + 1

    def test_join_results_reflect_deletes(self, mutable_service):
        handle, _ = mutable_service
        status, payload = mutate(handle, "DELETE FROM R2 WHERE Id = 0")
        assert status == 200, payload
        assert payload["deleted"] == {"c1": 0, "c2": 1}
        status, document = handle.query({"sql": JOIN_SQL})
        assert status == 200
        # outer ids renumber densely after the delete
        outer_ids = {row[0] for b in document["blocks"] for row in b["rows"]}
        assert all(isinstance(i, int) and 0 <= i < 19 for i in outer_ids)

    def test_health_counts_mutations(self, mutable_service):
        handle, _ = mutable_service
        status, payload = handle.get("/health")
        assert status == 200
        assert payload["mutations"] == 0
        mutate(handle, "INSERT INTO R1 (Doc) VALUES ('1')")
        mutate(handle, "DELETE FROM R2 WHERE Id = 3")
        status, payload = handle.get("/health")
        assert payload["mutations"] == 2


class TestMutateFailures:
    def test_select_is_a_bad_request(self, mutable_service):
        handle, _ = mutable_service
        status, payload = mutate(handle, "SELECT * FROM R1")
        assert status == 400
        assert payload["error"]["code"] == "bad-request"

    def test_unknown_workspace_is_404(self, mutable_service):
        handle, _ = mutable_service
        status, payload = mutate(
            handle, "INSERT INTO R1 (Doc) VALUES ('1')", workspace="nope"
        )
        assert status == 404
        assert payload["error"]["code"] == "unknown-workspace"

    def test_sql_syntax_error_maps_to_400(self, mutable_service):
        handle, _ = mutable_service
        status, payload = mutate(handle, "INSERT INTO R1 Doc VALUES ('1')")
        assert status == 400
        assert payload["error"]["code"] == "sql-syntax"

    def test_delete_all_is_refused_and_changes_nothing(self, mutable_service):
        handle, directory = mutable_service
        status, payload = mutate(handle, "DELETE FROM R1 WHERE Id >= 0")
        assert status == 400, payload
        manifest = load_manifest(directory)
        assert manifest["schema"] == "repro-workspace/2"
        assert manifest["collections"]["c1"]["n_documents"] == 25

    def test_unknown_request_field_is_rejected(self, mutable_service):
        handle, _ = mutable_service
        status, text = handle.post(
            "/mutate",
            {"sql": "DELETE FROM R1 WHERE Id = 1", "workspace": "ws",
             "shards": 2},
        )
        assert status == 400
        assert json.loads(text)["error"]["code"] == "bad-request"

    def test_failed_mutation_keeps_the_service_serving(self, mutable_service):
        handle, _ = mutable_service
        mutate(handle, "DELETE FROM R1 WHERE Id = 99999")
        status, document = handle.query({"sql": JOIN_SQL})
        assert status == 200
        assert document["summary"]["rows"] >= 0


def test_streams_yield_to_a_committing_mutation(service_workspace, monkeypatch):
    """While a write commits, a query hands over the GIL before each block."""
    from repro.service import JoinService, QueryRequest

    service = JoinService({"ws": service_workspace})
    request = QueryRequest.from_mapping({"sql": JOIN_SQL})
    sleeps: list[float] = []
    monkeypatch.setattr(time, "sleep", sleeps.append)

    alone = list(service.stream(request))
    assert sleeps == []
    with service._mutation_lock:
        beside_a_write = list(service.stream(request))
    blocks = [event for event in beside_a_write if event["event"] == "block"]
    assert blocks and sleeps == [0] * len(blocks)
    # Yielding changes scheduling only: the same events come back.
    assert beside_a_write[:-1] == alone[:-1]
    assert beside_a_write[-1]["rows"] == alone[-1]["rows"]
