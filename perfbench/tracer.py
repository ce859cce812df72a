"""The traced run: replay a workload in-process, span by span.

Spans are recorded from outside the program, around calls into the
public functions of each module (the program itself is not edited):

=========================  =============================================
span                       wraps
=========================  =============================================
``sql.parse``              :func:`repro.sql.parser.parse`
``sql.execute``            :func:`repro.sql.executor.execute` (self time
                           is row projection and glue)
``sql.plan``               :func:`repro.sql.planner.plan`
``environment.create``     :meth:`EnvironmentFactory.create`
``integrated.decide``      :meth:`IntegratedJoin.decide`
``hhnl``/``hvnl``/``vvm``  each ``next()`` on the operator generators
``kernels``                every call on the ``Kernels`` object, on the
                           scorers it returns and every ``next()`` on
                           the candidate iterators they return
``topk``                   :meth:`TopK.offer`
``parallel.sharded``       :func:`repro.parallel.runner.run_sharded`
``workspace.apply``        :func:`repro.sql.mutations.execute_mutation`
``workspace.reload``       :func:`repro.workspace.workspace_catalog` plus
                           ``create()`` — the service's warm reload
=========================  =============================================

A span's self time is its duration minus the time its child spans
cover.  Spans are folded into per-(operation kind, span) totals the
moment they close — a full VVM join opens thousands of kernel spans,
too many to keep one record each — and the totals are turned into the
per-layer metrics when the replay ends.

Tracing overhead is measured, not assumed: the same operations are
replayed once untraced and once traced, and ``trace.overhead_ms`` is
the difference of the two query-latency medians.
"""

from __future__ import annotations

import time
import types
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import repro.core.integrated as integrated
import repro.core.shards as shards
import repro.parallel.runner as runner
import repro.sql.executor as executor
from loadgen import percentile
from repro.core.environment import EnvironmentFactory
from repro.core.integrated import IntegratedJoin
from repro.core.topk import TopK
from repro.cost.params import SystemParams
from repro.kernels.base import ChunkScorer, PairScores, SparseScores
from repro.sql.executor import execute
from repro.sql.mutations import execute_mutation
from repro.sql.parser import parse, parse_statement
from repro.workspace import load_manifest, workspace_catalog
from repro.workspace.manifest import manifest_segments
from workloads import write_statements

#: what kernel calls return that the proxy wraps in turn
_KERNEL_OBJECTS = (ChunkScorer, PairScores, SparseScores)

#: operator extras reported per query, by operator span
OPERATOR_EXTRAS = {
    "hhnl": ("cpu_ops", "inner_scans"),
    "hvnl": ("cpu_ops", "entries_fetched", "buffer_hits", "buffer_misses",
             "buffer_evictions"),
    "vvm": ("cpu_ops", "passes", "peak_accumulator_cells"),
}

#: reads replayed between two writes on ``write-mix`` (one mix cycle)
READS_PER_WRITE = 4


class Tracer:
    """A span stack whose closed spans fold into per-layer totals.

    Totals are kept per operation kind (``"query"`` or ``"write"``, set by
    :meth:`begin`) and span name as ``[self seconds, total seconds,
    calls]``.  Leaf spans on hot paths (TopK offers, kernel calls) skip
    the stack: :meth:`leaf` charges a measured duration straight to the
    enclosing span.
    """

    def __init__(self) -> None:
        #: open spans as ``[name, start, child seconds]``, under a sentinel
        self._stack: list[list[Any]] = [[None, 0.0, 0.0]]
        self._totals: dict[str, dict[str, list[float]]] = {"query": {}, "write": {}}
        self._current = self._totals["query"]
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._kind = "query"

    def begin(self, kind: str) -> None:
        """Attribute the spans that follow to operations of ``kind``."""
        self._kind = kind
        self._current = self._totals[kind]

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, children = self._stack.pop()
        self._record(name, end - start, children)

    def leaf(self, name: str, duration: float) -> None:
        """Record a closed span with no children, timed by the caller."""
        self._record(name, duration, 0.0)

    def _record(self, name: str, duration: float, children: float) -> None:
        self._stack[-1][2] += duration
        totals = self._current.get(name)
        if totals is None:
            totals = self._current[name] = [0.0, 0.0, 0]
        totals[0] += duration - children
        totals[1] += duration
        totals[2] += 1

    def totals(self, kind: str, name: str) -> tuple[float, float, int]:
        """``(self seconds, total seconds, calls)`` of one span."""
        self_seconds, total, calls = self._totals[kind].get(name, (0.0, 0.0, 0))
        return self_seconds, total, int(calls)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[(self._kind, name)] += amount

    def call(self, name: str, function: Callable, *args: Any, **kwargs: Any) -> Any:
        self.enter(name)
        try:
            return function(*args, **kwargs)
        finally:
            self.exit()

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with every call recorded as span ``name``."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, function, *args, **kwargs)

        return traced

    def wrap_iterator(self, name: str, iterator: Iterator) -> Iterator:
        """Time every ``next()``; returns the wrapped generator's value."""
        while True:
            self.enter(name)
            try:
                item = next(iterator)
            except StopIteration as stop:
                self.exit()
                return stop.value
            except BaseException:
                self.exit()
                raise
            self.exit()
            try:
                yield item
            except GeneratorExit:
                close = getattr(iterator, "close", None)
                if close is not None:
                    close()
                raise

    def leaf_iterator(self, name: str, iterator: Iterator) -> Iterator:
        """Charge every ``next()`` on a leaf iterator to span ``name``."""
        clock = time.perf_counter
        while True:
            start = clock()
            try:
                item = next(iterator)
            except StopIteration:
                self.leaf(name, clock() - start)
                return
            self.leaf(name, clock() - start)
            yield item


class _NullTracer(Tracer):
    """Runs the calls without recording anything."""

    def call(self, name: str, function: Callable, *args: Any, **kwargs: Any) -> Any:
        return function(*args, **kwargs)

    def count(self, name: str, amount: float = 1) -> None:
        pass


class _KernelProxy:
    """Times every method call on a kernel object and what it returns."""

    __slots__ = ("_target", "_tracer", "_methods")

    def __init__(self, target: Any, tracer: Tracer) -> None:
        self._target = target
        self._tracer = tracer
        self._methods: dict[str, Callable] = {}

    def __getattr__(self, attribute: str) -> Any:
        traced = self._methods.get(attribute)
        if traced is not None:
            return traced
        value = getattr(self._target, attribute)
        if not callable(value):
            return value
        tracer = self._tracer
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            result = value(*args, **kwargs)
            tracer.leaf("kernels", clock() - start)
            if isinstance(result, types.GeneratorType):
                return tracer.leaf_iterator("kernels.iter", result)
            if isinstance(result, _KERNEL_OBJECTS):
                return _KernelProxy(result, tracer)
            return result

        self._methods[attribute] = traced
        return traced

    def __len__(self) -> int:
        return len(self._target)


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Install the span wrappers; restore every original on exit."""

    def operator(name: str, function: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Iterator:
            summary = yield from tracer.wrap_iterator(name, function(*args, **kwargs))
            for key in OPERATOR_EXTRAS[name]:
                tracer.count(f"{name}.{key}", summary.extras.get(key, 0))
            return summary

        return traced

    create = EnvironmentFactory.create

    def traced_create(factory: Any) -> Any:
        environment = tracer.call("environment.create", create, factory)
        environment.kernels = _KernelProxy(environment.kernels, tracer)
        return environment

    offer = TopK.offer
    clock = time.perf_counter

    def traced_offer(topk: TopK, doc_id: int, similarity: float) -> bool:
        start = clock()
        kept = offer(topk, doc_id, similarity)
        tracer.leaf("topk", clock() - start)
        if kept:
            tracer.count("topk.kept")
        return kept

    patches: list[tuple[Any, str, Any]] = [
        (executor, "plan", tracer.wrap("sql.plan", executor.plan)),
        (EnvironmentFactory, "create", traced_create),
        (IntegratedJoin, "decide", tracer.wrap("integrated.decide", IntegratedJoin.decide)),
        (TopK, "offer", traced_offer),
        (runner, "run_sharded", tracer.wrap("parallel.sharded", runner.run_sharded)),
    ]
    for module in (integrated, shards):
        patches += [
            (module, "iter_hhnl", operator("hhnl", module.iter_hhnl)),
            (module, "iter_hhnl_backward", operator("hhnl", module.iter_hhnl_backward)),
            (module, "iter_hvnl", operator("hvnl", module.iter_hvnl)),
            (module, "iter_vvm", operator("vvm", module.iter_vvm)),
        ]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


class Replay:
    """The in-process twin of the service: catalog, queries, writes."""

    def __init__(self, workload: Any, directory: Path) -> None:
        self.workload = workload
        self.directory = directory
        self._untraced = _NullTracer()
        self.reload()

    def reload(self) -> None:
        """Load (or reload after a write) the workspace warm."""
        manifest = load_manifest(self.directory)
        self.catalog, factory = workspace_catalog(self.directory)
        factory.create()
        self.system = SystemParams(
            buffer_pages=self.workload.buffer_pages, page_bytes=manifest["page_bytes"]
        )

    def query(self, request: dict[str, Any], tracer: Tracer | None = None) -> Any:
        tracer = tracer or self._untraced
        tracer.begin("query")
        parsed = tracer.call("sql.parse", parse, request["sql"])
        return tracer.call(
            "sql.execute", execute, parsed, self.catalog, self.system,
            scenario=self.workload.scenario, shards=request.get("shards"),
        )

    def write(self, statement: str, tracer: Tracer | None = None) -> Any:
        tracer = tracer or self._untraced
        tracer.begin("write")
        stats = tracer.call(
            "workspace.apply", execute_mutation, parse_statement(statement),
            self.directory,
        )
        tracer.call("workspace.reload", self.reload)
        tracer.count("workspace.pages_read", stats.pages_read)
        tracer.count("workspace.pages_written", stats.pages_written)
        return stats

    def rows(self, request: dict[str, Any]) -> tuple[list[str], list[tuple]]:
        """Reference columns and rows of one request (run unsharded)."""
        result = self.query({"sql": request["sql"]})
        return list(result.columns), [tuple(row) for row in result.rows]


def replay_operations(workload: Any, seed: int) -> Iterator[tuple[str, Any]]:
    """The op stream the traced run replays, in rounds that end at base state.

    ``write-mix`` interleaves one write per mix cycle of reads and a round
    holds two writes (an INSERT and its DELETE); ``scan``/``probe`` rounds
    are reads only, their writes follow in :func:`run_traced`.
    """
    reads = workload.request_sequence(seed, 0)
    writes = write_statements(workload, seed)
    while True:
        round_ops: list[tuple[str, Any]] = []
        if workload.write_rate > 0:
            for _ in range(2):
                round_ops += [("query", next(reads)) for _ in range(READS_PER_WRITE)]
                round_ops.append(("write", next(writes)))
        else:
            round_ops = [("query", next(reads)) for _ in range(READS_PER_WRITE)]
        yield round_ops


def _run_ops(replay: Replay, ops: list[tuple[str, Any]], tracer: Tracer | None) -> list[float]:
    """Run ops; return each query's latency in seconds."""
    latencies = []
    for kind, payload in ops:
        if kind == "query":
            started = time.perf_counter()
            replay.query(payload, tracer)
            latencies.append(time.perf_counter() - started)
        else:
            replay.write(payload, tracer)
    return latencies


def run_traced(workload: Any, seed: int, directory: Path, seconds: float) -> dict[str, float]:
    """Untraced then traced replay of the same ops; per-layer metrics.

    The untraced pass runs whole rounds for ``seconds`` and fixes the op
    list; the traced pass replays exactly that list, followed (on
    ``scan``/``probe``) by the workload's closed-loop writes.
    """
    replay = Replay(workload, directory)
    rounds = replay_operations(workload, seed)
    ops: list[tuple[str, Any]] = []
    untraced: list[float] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        round_ops = next(rounds)
        untraced += _run_ops(replay, round_ops, None)
        ops += round_ops
    if workload.post_writes:
        writes = write_statements(workload, seed)
        post = [("write", next(writes)) for _ in range(workload.post_writes)]
    else:
        post = []

    tracer = Tracer()
    with instrumented(tracer):
        traced = _run_ops(replay, ops, tracer)
        _run_ops(replay, post, tracer)
    metrics = layer_metrics(tracer)
    metrics.update(workspace_state(directory))
    metrics["trace.untraced_p50_ms"] = percentile(untraced, 50) * 1e3
    metrics["trace.traced_p50_ms"] = percentile(traced, 50) * 1e3
    metrics["trace.overhead_ms"] = (
        metrics["trace.traced_p50_ms"] - metrics["trace.untraced_p50_ms"]
    )
    return metrics


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Fold the tracer's totals into the named per-layer metrics."""
    queries = max(1, tracer.totals("query", "sql.execute")[2])
    writes = max(1, tracer.totals("write", "workspace.apply")[2])
    sharded = max(1, tracer.totals("query", "parallel.sharded")[2])

    def self_ms(name: str, kind: str = "query", per: int = queries) -> float:
        return tracer.totals(kind, name)[0] * 1e3 / per

    offers = tracer.totals("query", "topk")[2]
    metrics = {
        "sql.parse_ms": self_ms("sql.parse"),
        "sql.plan_ms": self_ms("sql.plan"),
        "integrated.decide_ms": self_ms("integrated.decide"),
        "environment.create_ms": self_ms("environment.create"),
        "executor.project_ms": self_ms("sql.execute"),
        "hhnl.ms": self_ms("hhnl"),
        "hvnl.ms": self_ms("hvnl"),
        "vvm.ms": self_ms("vvm"),
        "kernels.ms": self_ms("kernels") + self_ms("kernels.iter"),
        "kernels.calls": tracer.totals("query", "kernels")[2] / queries,
        "topk.ms": self_ms("topk"),
        "topk.offers": offers / queries,
        "topk.kept_ratio": tracer.counts[("query", "topk.kept")] / offers if offers else 0.0,
        "parallel.sharded_ms": self_ms("parallel.sharded", per=sharded),
        "workspace.apply_ms": self_ms("workspace.apply", "write", writes),
        "workspace.reload_ms": tracer.totals("write", "workspace.reload")[1] * 1e3 / writes,
        "workspace.pages_read": tracer.counts[("write", "workspace.pages_read")] / writes,
        "workspace.pages_written": tracer.counts[("write", "workspace.pages_written")] / writes,
    }
    for operator, keys in OPERATOR_EXTRAS.items():
        for key in keys:
            metrics[f"{operator}.{key}"] = tracer.counts[("query", f"{operator}.{key}")] / queries
    return metrics


def workspace_state(directory: Path) -> dict[str, float]:
    """Segment count and delta-held documents: stationary runs end at base."""
    segments = manifest_segments(load_manifest(directory))
    delta_docs = sum(
        collection["n_documents"]
        for segment in segments
        if segment["kind"] == "delta"
        for collection in segment["collections"].values()
    )
    return {"workspace.segments": len(segments), "workspace.delta_docs": delta_docs}
