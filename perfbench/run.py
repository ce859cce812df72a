"""Benchmark of the text-join service: HTTP load end to end, traced per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scan|probe|write-mix \\
        --seed N --seconds S --trace 0|1

``--trace 0`` builds the seeded workspace and starts ``repro serve`` on
it (three times, reporting the median set-up time), then drives it with
the workload's keep-alive clients for ``--seconds`` and prints the
end-to-end metrics.  ``--trace 1`` runs the same load once for its
HTTP-side layer metrics and then replays the workload in-process with
spans around every layer (see ``tracer.py``), printing the per-layer
metrics.  Every response is checked: rows against an in-process
:func:`repro.sql.execute` reference (``scan``/``probe``) or schema and
row count (``write-mix`` reads), every write for a 200 and ``changed``,
and after the run the workspace must verify clean and answer exactly
as before the writes.

Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Everything the run writes goes under ``.perfbench-work/`` in the
checkout and is removed at the end.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any

from loadgen import Client, Server, closed_loop_writes, percentile, run_load, send_query
from workloads import WORKLOADS, build, describe, lam_of, write_statements

ROOT = Path(__file__).resolve().parents[1]

#: io phases the operators charge (the ``ctx.phase`` names in repro.core)
IO_PHASES = (
    "hhnl.outer", "hhnl.inner", "hvnl.btree", "hvnl.bulk-load",
    "hvnl.outer-scan", "hvnl.probe", "vvm.merge",
)

#: set-ups per ``--trace 0`` run; ``setup_s`` is their median
SETUPS = 3

#: untimed requests each client sends before the timed window
WARMUP_REQUESTS = 4

#: admission slots of the server: above readers + writer, so no 429 is expected
MAX_WORKERS = 4


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path; fail without it."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {source / 'repro'}")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Checker:
    """Expected rows per request, and the row check the clients apply."""

    def __init__(self, workload: Any, replay: Any, seed: int) -> None:
        self.workload = workload
        self.requests = workload.distinct_requests(seed)
        self.expected = {
            request["sql"]: replay.rows(request) for request in self.requests
        }
        if workload.write_rate > 0:
            for request in self.requests:
                rows = self.expected[request["sql"]][1]
                if len(rows) != workload.outer_docs * lam_of(request):
                    raise SystemExit(
                        f"perfbench: base reference of {request['sql']!r} has "
                        f"{len(rows)} rows, not outer docs x lambda"
                    )

    def __call__(self, request: dict[str, Any], columns: list[str], rows: list[tuple]) -> str:
        expected_columns, expected_rows = self.expected[request["sql"]]
        if columns != expected_columns:
            return f"columns {columns} != {expected_columns}"
        if self.workload.write_rate > 0:
            # Concurrent writes move the live inner set, so a read can
            # only be held to its shape: every outer doc gets lambda rows.
            want = self.workload.outer_docs * lam_of(request)
            return "" if len(rows) == want else f"{len(rows)} rows, expected {want}"
        return "" if rows == expected_rows else "rows differ from the reference"

    def final_problems(self, replay: Any) -> list[str]:
        """After all writes: every request answers exactly as at base."""
        return [
            f"final rows of {request['sql']!r} differ from the base reference"
            for request in self.requests
            if replay.rows(request) != self.expected[request["sql"]]
        ]


def start_server(workload: Any, seed: int, directory: Path, work: Path) -> Any:
    build(workload, seed, directory)
    server = Server(
        ROOT, directory, buffer_pages=workload.buffer_pages,
        scenario=workload.scenario, max_workers=MAX_WORKERS,
        log=work / f"{directory.name}.log",
    )
    try:
        server.wait_healthy()
    except BaseException:
        server.stop()
        raise
    return server


def warm_up(port: int, workload: Any, seed: int, check: Checker) -> list[Any]:
    client = Client(port)
    try:
        stream = workload.request_sequence(seed, workload.readers)
        return [send_query(client, next(stream), check) for _ in range(WARMUP_REQUESTS)]
    finally:
        client.close()


def http_run(workload: Any, seed: int, seconds: float, server: Any, check: Checker):
    """Warm-up, the timed window, then the post-window writes."""
    warm = warm_up(server.port, workload, seed, check)
    streams = [workload.request_sequence(seed, client) for client in range(workload.readers)]
    statements = write_statements(workload, seed)
    outcomes, elapsed = run_load(
        server.port, streams, check, seconds,
        statements=statements, write_rate=workload.write_rate,
    )
    if workload.post_writes:
        outcomes += closed_loop_writes(server.port, statements, workload.post_writes)
    return warm, outcomes, elapsed


def distinct(served: list[Any]) -> list[Any]:
    """One served outcome per distinct request.

    A request always reads the same pages, so per-query page figures
    average over the distinct requests: they do not depend on how many
    mix cycles the clients completed.
    """
    return list({json.dumps(o.request, sort_keys=True): o for o in served}.values())


def page_split(served: list[Any]) -> dict[str, float]:
    """Sequential/random pages per query, in total and per ``phase_io`` phase.

    Sharded summaries carry no ``phase_io``, so the split averages over
    the requests that report phases.
    """
    phased = [o for o in distinct(served) if o.phase_io]
    split = {
        "pages_seq_per_query": statistics.fmean(
            sum(s for s, _ in o.phase_io.values()) for o in phased
        ),
        "pages_rand_per_query": statistics.fmean(
            sum(r for _, r in o.phase_io.values()) for o in phased
        ),
    }
    for phase in IO_PHASES:
        for index, name in enumerate(("seq_pages", "rand_pages")):
            split[f"io.{phase}.{name}"] = statistics.fmean(
                o.phase_io.get(phase, (0, 0))[index] for o in phased
            )
    return split


def end_to_end(outcomes: list[Any], elapsed: float, setup: list[float], rss_mb: float) -> dict[str, float]:
    queries = [o for o in outcomes if o.kind == "query"]
    writes = [o for o in outcomes if o.kind == "mutate"]
    served = [o for o in queries if o.ok]
    # A failed operation misses every latency limit.
    query_ms = [o.latency * 1e3 if o.ok else math.inf for o in queries]
    mutate_ms = [o.latency * 1e3 if o.ok else math.inf for o in writes]
    return {
        "query_p50_ms": percentile(query_ms, 50),
        "query_p95_ms": percentile(query_ms, 95),
        "query_qps": len(served) / elapsed,
        "mutate_p50_ms": percentile(mutate_ms, 50),
        "mutate_p90_ms": percentile(mutate_ms, 90),
        "pages_seq_per_query": page_split(served)["pages_seq_per_query"],
        "pages_per_query": statistics.fmean(o.pages_read for o in distinct(served)),
        "setup_s": statistics.median(setup),
        "server_rss_mb": rss_mb,
    }


def http_layers(workload: Any, outcomes: list[Any], server_metrics: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics the HTTP run itself yields."""
    queries = [o for o in outcomes if o.kind == "query"]
    served = [o for o in queries if o.ok]
    late = [o for o in outcomes if o.kind == "mutate" and workload.write_rate > 0]
    metrics = {
        "failed_frac": sum(not o.ok for o in outcomes) / max(1, len(outcomes)),
        "http.overhead_ms": percentile(
            [(o.latency - o.server_seconds) * 1e3 for o in served], 50
        ),
        "http.events_per_query": statistics.fmean(o.events for o in served),
        "service.elapsed_ms": percentile([o.server_seconds * 1e3 for o in served], 50),
        "service.rejected": sum(server_metrics.get("rejections", {}).values()),
        "algo.expected_share": sum(
            o.algorithm == workload.expected_algorithm for o in served
        ) / max(1, len(served)),
    }
    split = page_split(served)
    del split["pages_seq_per_query"]  # an end-to-end metric already
    metrics.update(split)
    metrics.update(writer_lateness(late))
    return metrics


def writer_lateness(writes: list[Any]) -> dict[str, float]:
    """How late the open-loop writer sent, and whether that grew."""
    if not writes:
        return {"writer.late_p50_ms": 0.0, "writer.late_max_ms": 0.0,
                "writer.late_growth_ms": 0.0}
    late_ms = [o.lateness * 1e3 for o in writes]
    half = len(late_ms) // 2
    growth = (
        statistics.median(late_ms[half:]) - statistics.median(late_ms[:half])
        if half else 0.0
    )
    return {
        "writer.late_p50_ms": percentile(late_ms, 50),
        "writer.late_max_ms": max(late_ms),
        "writer.late_growth_ms": growth,
    }


def report_lines(workload: Any, sizes: dict[str, Any], outcomes: list[Any]) -> list[str]:
    mix: dict[str, int] = {}
    for outcome in outcomes:
        if outcome.kind == "query" and outcome.algorithm:
            mix[outcome.algorithm] = mix.get(outcome.algorithm, 0) + 1
    failures: dict[str, int] = {}
    for outcome in outcomes:
        if not outcome.ok:
            failures[outcome.reason] = failures.get(outcome.reason, 0) + 1
    lines = [
        f"workload {workload.name}: " + ", ".join(f"{k}={v}" for k, v in sizes.items()),
        f"algorithm mix from header events: {mix}",
    ]
    if failures:
        lines.append(f"failures: {failures}")
    return lines


def run(workload: Any, seed: int, seconds: float, trace: bool) -> tuple[dict[str, Any], list[str]]:
    # Both import the program, so only after import_program() has run.
    from repro.workspace import verify_workspace
    from tracer import Replay, run_traced

    work = ROOT / ".perfbench-work" / f"{workload.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    server = None
    try:
        setup: list[float] = []
        for attempt in range(1 if trace else SETUPS):
            if server is not None:
                server.stop()
                shutil.rmtree(directory)
            directory = work / f"ws-{attempt}"
            started = time.perf_counter()
            server = start_server(workload, seed, directory, work)
            setup.append(time.perf_counter() - started)

        check = Checker(workload, Replay(workload, directory), seed)
        # The in-process workspace is garbage now; collect it and freeze
        # what survives, so no long collector pass stalls the clients.
        gc.collect()
        gc.freeze()
        warm, outcomes, elapsed = http_run(workload, seed, seconds, server, check)
        server_metrics = server.metrics()
        rss_mb = server.peak_rss_mb()
        server.stop()

        problems = [f"warm-up: {o.reason}" for o in warm if not o.ok]
        problems += verify_workspace(directory)
        problems += check.final_problems(Replay(workload, directory))
        lines = report_lines(workload, describe(workload, directory), outcomes)
        if trace:
            metrics = http_layers(workload, outcomes, server_metrics)
            metrics.update(run_traced(workload, seed, directory, seconds / 2))
            problems += verify_workspace(directory)
            problems += check.final_problems(Replay(workload, directory))
        else:
            metrics = end_to_end(outcomes, elapsed, setup, rss_mb)
        lines += [f"problem: {problem}" for problem in problems]
        failed = sum(not o.ok for o in outcomes)
        result = {
            "correct": failed == 0 and not problems,
            "attempted": len(outcomes),
            "failed": failed,
            "metrics": metrics,
        }
        return result, lines
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    import_program()
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    result, lines = run(workload, args.seed, args.seconds, bool(args.trace))
    units = metric_units("per_layer" if args.trace else "end_to_end")
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit in units.items()
    }
    for line in lines:
        print(line)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


def metric_units(section: str) -> dict[str, str]:
    """Metric names and units of one ``BENCHMARK.json`` section."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in manifest[section]}


if __name__ == "__main__":
    sys.exit(main())
