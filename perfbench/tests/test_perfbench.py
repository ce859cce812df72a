"""Tests of the benchmark itself: percentiles, failure accounting, schedules.

Run from the root of the checkout with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import pytest

import run
from loadgen import Outcome, Server, open_loop_writer, percentile, query_outcome
from tracer import Replay, run_traced, workspace_state
from workloads import WORKLOADS, build, write_statements

from repro.service.schema import RESPONSE_SCHEMA
from repro.sql.mutations import execute_mutation
from repro.sql.parser import parse_statement
from repro.workspace import verify_workspace

ROOT = Path(__file__).resolve().parents[2]

#: a write-mix shaped workspace small enough to build in a test
SMALL_WRITE_MIX = dataclasses.replace(
    WORKLOADS["write-mix"], inner_docs=40, outer_docs=30
)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(10, 0, -1)]  # unsorted on purpose
    assert percentile(values, 50) == 5.0
    assert percentile(values, 90) == 9.0
    assert percentile(values, 95) == 10.0  # ceil(9.5) = 10th value
    assert percentile(list(range(1, 21)), 95) == 19  # exactly 19th of 20
    assert percentile([7.0], 50) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def _stream(rows: list[list]) -> str:
    events = [
        {"event": "header", "schema": RESPONSE_SCHEMA, "workspace": "ws",
         "sql": "q", "columns": ["R2.Id", "R1.Id", "_rank", "_similarity"],
         "algorithm": "HHNL", "shards": None, "jobs": 0},
        {"event": "block", "outer_doc": 0, "rows": rows},
        {"event": "summary", "status": "ok", "rows": len(rows), "blocks": 1,
         "truncated": False, "algorithm": "HHNL", "pages_read": 4,
         "dataset_build_events": 0, "elapsed_seconds": 0.002,
         "phase_io": {"hhnl.inner": {"sequential_reads": 2, "random_reads": 0},
                      "hhnl.outer": {"sequential_reads": 2, "random_reads": 0}}},
    ]
    return "".join(json.dumps(event) + "\n" for event in events)


def test_wrong_rows_and_429_each_count_as_failed():
    expected = [(0, 5, 1, 2.0)]
    columns = ["R2.Id", "R1.Id", "_rank", "_similarity"]

    def check(request, got_columns, rows):
        return "" if got_columns == columns and rows == expected else "rows differ"

    request = {"sql": "q"}
    good = query_outcome(request, 200, _stream([[0, 5, 1, 2.0]]), 0.05, check)
    wrong = query_outcome(request, 200, _stream([[0, 6, 1, 2.0]]), 0.05, check)
    refused = query_outcome(
        request, 429,
        json.dumps({"error": {"code": "overloaded", "message": "busy", "status": 429}}),
        0.01, check,
    )
    assert good.ok and good.phase_io == {"hhnl.inner": (2, 0), "hhnl.outer": (2, 0)}
    assert not wrong.ok and wrong.reason == "rows differ"
    assert not refused.ok and refused.reason == "HTTP 429"

    layers = run.http_layers(WORKLOADS["scan"], [good, wrong, refused], {"rejections": {"overloaded": 1}})
    assert layers["failed_frac"] == pytest.approx(2 / 3)
    assert layers["service.rejected"] == 1
    # The failures count against the latency percentiles too.
    e2e = run.end_to_end([good, wrong, refused, Outcome("mutate", 0.1, ok=True)],
                         1.0, [0.5], 40.0)
    assert e2e["query_p50_ms"] == float("inf")
    assert e2e["query_qps"] == 1.0


def test_write_schedule_returns_to_base_after_even_writes(tmp_path):
    directory = tmp_path / "ws"
    build(SMALL_WRITE_MIX, 3, directory)
    replay = Replay(SMALL_WRITE_MIX, directory)
    request = {"sql": "SELECT R2.Id, R1.Id FROM R1, R2 WHERE R1.Doc SIMILAR_TO(3) R2.Doc"}
    base = replay.rows(request)
    statements = write_statements(SMALL_WRITE_MIX, 3)

    execute_mutation(parse_statement(next(statements)), directory)
    assert workspace_state(directory)["workspace.delta_docs"] == 5
    for _ in range(3):
        execute_mutation(parse_statement(next(statements)), directory)
    assert workspace_state(directory) == {"workspace.segments": 1, "workspace.delta_docs": 0}
    assert verify_workspace(directory) == []
    assert Replay(SMALL_WRITE_MIX, directory).rows(request) == base


def test_open_loop_writer_stops_after_an_even_number_of_writes(tmp_path):
    directory = tmp_path / "ws"
    build(SMALL_WRITE_MIX, 4, directory)
    server = Server(ROOT, directory, buffer_pages=256, scenario="sequential",
                    max_workers=4, log=tmp_path / "server.log")
    try:
        server.wait_healthy()
        writes: list[Outcome] = []
        start = time.perf_counter()
        # Due times 0, 0.4, 0.8: the third write is due before the
        # deadline and its DELETE after it, and the pair still completes.
        open_loop_writer(server.port, write_statements(SMALL_WRITE_MIX, 4),
                         2.5, start, start + 1.0, writes)
    finally:
        server.stop()
    assert len(writes) == 4
    assert all(write.ok for write in writes), [write.reason for write in writes]
    assert verify_workspace(directory) == []
    assert workspace_state(directory)["workspace.delta_docs"] == 0


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    directory = tmp_path / "ws"
    build(SMALL_WRITE_MIX, 5, directory)
    metrics = run_traced(SMALL_WRITE_MIX, 5, directory, 0.2)
    served = [
        query_outcome({"sql": "q"}, 200, _stream([[0, 5, 1, 2.0]]), 0.05, lambda *a: "")
    ]
    metrics.update(run.http_layers(SMALL_WRITE_MIX, served, {"rejections": {}}))
    names = set(run.metric_units("per_layer"))
    assert set(metrics) == names
    assert metrics["vvm.ms"] > 0 and metrics["kernels.calls"] > 0
    assert metrics["workspace.apply_ms"] > 0 and metrics["workspace.delta_docs"] == 0
    assert 0 < metrics["topk.kept_ratio"] <= 1


def test_benchmark_manifest_lists_what_the_runs_print():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    e2e = run.end_to_end(
        [query_outcome({"sql": "q"}, 200, _stream([[0, 5, 1, 2.0]]), 0.05, lambda *a: ""),
         Outcome("mutate", 0.1, ok=True)],
        1.0, [0.5], 40.0,
    )
    assert set(e2e) == set(run.metric_units("end_to_end"))
