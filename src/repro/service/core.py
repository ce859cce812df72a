"""The service core: workspaces in, admission control, event streams out.

A :class:`JoinService` is the transport-independent heart of the query
server.  At construction it loads every configured workspace directory
into a warm :class:`~repro.core.environment.EnvironmentFactory` (and
touches every lazy artifact once, so concurrent queries only ever
*read* the shared caches), then serves queries through
:meth:`JoinService.stream`:

* **admission** — a counting semaphore of ``max_workers`` slots; a
  request that finds no free slot is refused immediately with
  :class:`~repro.errors.ServiceOverloadedError` (HTTP 429) instead of
  queueing unboundedly;
* **budgets** — each request gets its own fresh
  :class:`~repro.exec.context.ExecutionContext` built from the
  request's page/time budget, so one query's accounting can never bleed
  into another's;
* **streaming** — events are plain JSON-ready dictionaries produced
  from :func:`repro.sql.executor.iter_execute`: one ``header``, one
  ``block`` per finalised outer document, and a terminal ``summary``
  (or ``error`` carrying the partial accounting when the budget ran
  out mid-join);
* **writer priority** — while a mutation commits, every query yields
  the interpreter before each block it produces, so a write costs about
  what it costs alone however many readers are streaming.

The slot is released — and the query folded into
:class:`~repro.service.metrics.ServiceMetrics` — when the event
generator finishes, errors out, or is closed by an abandoning consumer,
so a disconnected client frees its worker without any extra plumbing.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.cost.params import SystemParams
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
    WorkspaceError,
)
from repro.exec.context import ExecutionBudget, ExecutionContext
from repro.service.metrics import ServiceMetrics, phase_stats_payload
from repro.service.schema import RESPONSE_SCHEMA
from repro.sql.ast_nodes import SelectQuery
from repro.sql.executor import iter_execute
from repro.sql.mutations import execute_mutation
from repro.sql.parser import parse, parse_statement
from repro.workspace import load_manifest, manifest_fingerprint, workspace_catalog

#: exception-to-error-code mapping, most specific class first; the
#: service-level test suite pins this table against the HTTP statuses
ERROR_CODES: tuple[tuple[type[Exception], str], ...] = (
    (RequestTooLargeError, "request-too-large"),
    (ServiceRequestError, "bad-request"),
    (UnknownWorkspaceError, "unknown-workspace"),
    (ServiceOverloadedError, "overloaded"),
    (SqlSyntaxError, "sql-syntax"),
    (SqlSemanticError, "sql-semantic"),
    (BudgetExceededError, "budget-exceeded"),
    (ExecutionCancelledError, "cancelled"),
    (InvalidParameterError, "invalid-parameter"),
    (ReproError, "internal-error"),
)


def error_code_for(exc: BaseException) -> str:
    """The service error code for an exception (``internal-error`` fallback)."""
    for exc_type, code in ERROR_CODES:
        if isinstance(exc, exc_type):
            return code
    return "internal-error"


def _require(condition: bool, message: str) -> None:
    """Raise :class:`~repro.errors.ServiceRequestError` unless satisfied."""
    if not condition:
        raise ServiceRequestError(message)


def _optional_int(payload: Mapping[str, Any], key: str, *, minimum: int) -> int | None:
    """A validated optional integer field (bools are not integers here)."""
    value = payload.get(key)
    if value is None:
        return None
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"request field {key!r} must be an integer",
    )
    _require(value >= minimum, f"request field {key!r} must be >= {minimum}")
    return value


@dataclass(frozen=True)
class QueryRequest:
    """One validated ``POST /query`` payload.

    ``pages``/``seconds`` become the request's
    :class:`~repro.exec.context.ExecutionBudget`; ``limit`` is a row cap
    with SQL ``LIMIT`` semantics (the stricter of the two wins) applied
    inside the streaming executor, so it saves I/O rather than merely
    trimming the response.
    """

    sql: str
    workspace: str | None = None
    shards: int | None = None
    jobs: int = 0
    pages: int | None = None
    seconds: float | None = None
    limit: int | None = None

    #: every key a request payload may carry
    FIELDS = ("sql", "workspace", "shards", "jobs", "pages", "seconds", "limit")

    @classmethod
    def from_mapping(cls, payload: Mapping[str, Any]) -> "QueryRequest":
        """Validate a decoded JSON body into a request; strict on shape.

        Unknown keys are rejected rather than ignored — a typoed
        ``"shard"`` silently running unsharded is worse than a 400.
        """
        _require(isinstance(payload, Mapping), "request body must be a JSON object")
        unknown = sorted(set(payload) - set(cls.FIELDS))
        _require(not unknown, f"unknown request fields: {unknown}")
        sql = payload.get("sql")
        _require(
            isinstance(sql, str) and bool(sql.strip()),
            "request field 'sql' must be a non-empty string",
        )
        workspace = payload.get("workspace")
        _require(
            workspace is None or isinstance(workspace, str),
            "request field 'workspace' must be a string",
        )
        seconds = payload.get("seconds")
        _require(
            seconds is None
            or (isinstance(seconds, (int, float)) and not isinstance(seconds, bool)),
            "request field 'seconds' must be a number",
        )
        return cls(
            sql=sql,
            workspace=workspace,
            shards=_optional_int(payload, "shards", minimum=1),
            jobs=_optional_int(payload, "jobs", minimum=0) or 0,
            pages=_optional_int(payload, "pages", minimum=1),
            seconds=float(seconds) if seconds is not None else None,
            limit=_optional_int(payload, "limit", minimum=1),
        )

    def budget(self) -> ExecutionBudget:
        """The request's execution budget (unlimited when no caps given)."""
        return ExecutionBudget(pages=self.pages, seconds=self.seconds)


@dataclass(frozen=True)
class MutateRequest:
    """One validated ``POST /mutate`` payload.

    ``sql`` is one INSERT INTO or DELETE FROM statement; ``workspace``
    names the target (optional when the service hosts exactly one).
    """

    sql: str
    workspace: str | None = None

    #: every key a mutate payload may carry
    FIELDS = ("sql", "workspace")

    @classmethod
    def from_mapping(cls, payload: Mapping[str, Any]) -> "MutateRequest":
        """Validate a decoded JSON body; strict on shape, like queries."""
        _require(isinstance(payload, Mapping), "request body must be a JSON object")
        unknown = sorted(set(payload) - set(cls.FIELDS))
        _require(not unknown, f"unknown request fields: {unknown}")
        sql = payload.get("sql")
        _require(
            isinstance(sql, str) and bool(sql.strip()),
            "request field 'sql' must be a non-empty string",
        )
        workspace = payload.get("workspace")
        _require(
            workspace is None or isinstance(workspace, str),
            "request field 'workspace' must be a string",
        )
        return cls(sql=sql, workspace=workspace)


@dataclass(frozen=True)
class LoadedWorkspace:
    """One workspace the service resolved, loaded and warmed at startup."""

    name: str
    directory: str
    catalog: Any
    factory: Any
    system: SystemParams
    fingerprint: str
    self_join: bool

    def describe(self) -> dict[str, Any]:
        """A JSON-ready summary for ``GET /health``."""
        return {
            "directory": self.directory,
            "fingerprint": self.fingerprint,
            "inner_documents": self.factory.collection1.n_documents,
            "outer_documents": self.factory.collection2.n_documents,
            "page_bytes": self.system.page_bytes,
            "self_join": self.self_join,
        }


class _Slot:
    """One admitted request's hold on the worker pool (idempotent release)."""

    __slots__ = ("_service", "_released")

    def __init__(self, service: "JoinService") -> None:
        self._service = service
        self._released = False

    def release(self) -> None:
        """Return the slot to the pool; safe to call more than once."""
        if not self._released:
            self._released = True
            self._service._release()


class JoinService:
    """A resident query service over one or more warm workspaces.

    ``workspaces`` maps service-visible names to workspace directories;
    every one is loaded (and its lazy artifacts touched) up front, so
    the first query is as warm as the thousandth and concurrent queries
    only read shared state.  ``max_workers`` bounds concurrent query
    execution — the admission semaphore, not a thread pool: the HTTP
    layer already runs one thread per connection, the service decides
    how many of them may *execute* at once.
    """

    def __init__(
        self,
        workspaces: Mapping[str, str | Path],
        *,
        max_workers: int = 4,
        buffer_pages: int = 256,
        scenario: str = "sequential",
    ) -> None:
        if max_workers <= 0:
            raise InvalidParameterError(
                f"max_workers must be positive, got {max_workers}"
            )
        if not workspaces:
            raise InvalidParameterError("a service needs at least one workspace")
        self.scenario = scenario
        self.max_workers = max_workers
        self.metrics = ServiceMetrics()
        self.started_at = time.time()
        self._buffer_pages = buffer_pages
        self._slots = threading.Semaphore(max_workers)
        self._in_flight = 0
        self._in_flight_lock = threading.Lock()
        self._mutation_lock = threading.Lock()
        self._mutations = 0
        self._workspaces: dict[str, LoadedWorkspace] = {}
        for name, directory in workspaces.items():
            self._workspaces[name] = self._load(name, directory, buffer_pages)

    # --- startup --------------------------------------------------------------

    def _load(
        self, name: str, directory: str | Path, buffer_pages: int
    ) -> LoadedWorkspace:
        manifest = load_manifest(directory)
        catalog, factory = workspace_catalog(directory)
        # Touch every lazy artifact once: later create() calls are pure
        # reads of the populated caches, which is what makes serving the
        # factory from many request threads safe.
        factory.create()
        return LoadedWorkspace(
            name=name,
            directory=str(directory),
            catalog=catalog,
            factory=factory,
            system=SystemParams(
                buffer_pages=buffer_pages, page_bytes=manifest["page_bytes"]
            ),
            fingerprint=manifest_fingerprint(manifest),
            self_join=bool(manifest["self_join"]),
        )

    # --- introspection --------------------------------------------------------

    @property
    def workspace_names(self) -> list[str]:
        """The loaded workspace names, sorted."""
        return sorted(self._workspaces)

    @property
    def in_flight(self) -> int:
        """Requests currently holding a worker slot."""
        with self._in_flight_lock:
            return self._in_flight

    def health(self) -> dict[str, Any]:
        """The ``GET /health`` payload."""
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self.started_at,
            "in_flight": self.in_flight,
            "max_workers": self.max_workers,
            "mutations": self._mutations,
            "workspaces": {
                name: handle.describe()
                for name, handle in sorted(self._workspaces.items())
            },
        }

    # --- admission ------------------------------------------------------------

    def admit(self) -> _Slot:
        """Take one worker slot or refuse immediately (never blocks).

        Raises :class:`~repro.errors.ServiceOverloadedError` when every
        slot is occupied — the saturation signal the HTTP layer turns
        into a 429.
        """
        if not self._slots.acquire(blocking=False):
            self.metrics.record_rejection("overloaded")
            raise ServiceOverloadedError(
                f"all {self.max_workers} worker slots are busy; retry later"
            )
        with self._in_flight_lock:
            self._in_flight += 1
        return _Slot(self)

    def _release(self) -> None:
        with self._in_flight_lock:
            self._in_flight -= 1
        self._slots.release()

    def _handle_for(self, workspace: str | None) -> LoadedWorkspace:
        if workspace is None:
            if len(self._workspaces) == 1:
                return next(iter(self._workspaces.values()))
            raise ServiceRequestError(
                "request field 'workspace' is required when the service "
                f"hosts more than one workspace (loaded: {self.workspace_names})"
            )
        try:
            return self._workspaces[workspace]
        except KeyError:
            raise UnknownWorkspaceError(
                f"no workspace named {workspace!r} "
                f"(loaded: {self.workspace_names})"
            ) from None

    # --- mutation -------------------------------------------------------------

    def mutate(self, request: MutateRequest) -> dict[str, Any]:
        """Apply one INSERT/DELETE statement and swap in the new snapshot.

        Writers are serialised on one mutation lock; readers are never
        blocked.  The statement commits on disk atomically (the manifest
        rewrite in :mod:`repro.workspace.mutate`), the workspace is
        reloaded warm, and the service's handle is swapped in one
        assignment — queries admitted before the swap keep streaming
        from the previous in-memory snapshot, queries admitted after it
        see the new version.  Returns the JSON-ready mutation summary.
        """
        slot = self.admit()
        started = time.perf_counter()
        status = "internal-error"
        try:
            with self._mutation_lock:
                handle = self._handle_for(request.workspace)
                statement = parse_statement(request.sql)
                if isinstance(statement, SelectQuery):
                    raise ServiceRequestError(
                        "POST /mutate takes INSERT or DELETE statements; "
                        "send SELECT queries to POST /query"
                    )
                try:
                    stats = execute_mutation(statement, handle.directory)
                except WorkspaceError as exc:
                    # Batch validation failures (deleting the last
                    # document, a term outside the vocabulary bound...)
                    # are the caller's mistake, not a broken service.
                    raise ServiceRequestError(str(exc)) from exc
                reloaded = self._load(
                    handle.name, handle.directory, self._buffer_pages
                )
                self._workspaces[handle.name] = reloaded
                self._mutations += 1
            status = "ok"
            payload = stats.to_dict()
            payload["event"] = "mutation"
            payload["workspace"] = handle.name
            payload["elapsed_seconds"] = time.perf_counter() - started
            return payload
        except BaseException as exc:
            status = error_code_for(exc)
            raise
        finally:
            slot.release()
            self.metrics.record_query(
                status=status,
                seconds=time.perf_counter() - started,
                rows=0,
                blocks=0,
                pages=0,
            )

    # --- execution ------------------------------------------------------------

    def stream(self, request: QueryRequest) -> Iterator[dict[str, Any]]:
        """Admit one request and return its event stream.

        Admission, workspace resolution, SQL parsing and budget
        validation happen *eagerly* — their failures raise here, before
        the caller has committed a response status.  The returned
        generator then yields ``header``, ``block``... and a terminal
        ``summary`` or ``error`` event; whoever consumes it must drain
        or ``close()`` it (the worker slot is released either way).
        """
        slot = self.admit()
        try:
            handle = self._handle_for(request.workspace)
            parsed = parse(request.sql)
            context = ExecutionContext(budget=request.budget())
        except BaseException:
            slot.release()
            raise
        return self._events(request, handle, parsed, context, slot)

    def _yield_to_writer(self) -> None:
        """Hand the interpreter to a committing mutation, if one is running.

        Queries and mutations are CPU-bound threads sharing one GIL, so
        without this a reader takes about half of a write's time slice
        and each write commits far slower than it would alone.  Writes
        are serialised and rare; reads stream snapshots and can wait.
        """
        if self._mutation_lock.locked():
            time.sleep(0)

    def _events(
        self,
        request: QueryRequest,
        handle: LoadedWorkspace,
        parsed: Any,
        context: ExecutionContext,
        slot: _Slot,
    ) -> Iterator[dict[str, Any]]:
        started = time.perf_counter()
        status = "internal-error"
        rows_streamed = 0
        blocks_streamed = 0
        try:
            stream = iter_execute(
                parsed,
                handle.catalog,
                handle.system,
                scenario=self.scenario,
                context=context,
                shards=request.shards,
                jobs=request.jobs,
                max_rows=request.limit,
            )
            try:
                header = next(stream)  # may raise planning/semantic errors
                yield {
                    "event": "header",
                    "schema": RESPONSE_SCHEMA,
                    "workspace": handle.name,
                    "sql": request.sql,
                    "columns": list(header.columns),
                    "algorithm": header.algorithm,
                    "shards": request.shards,
                    "jobs": request.jobs,
                }
                try:
                    while True:
                        try:
                            block = next(stream)
                        except StopIteration as stop:
                            result = stop.value
                            break
                        blocks_streamed += 1
                        rows_streamed += len(block.rows)
                        self._yield_to_writer()
                        yield {
                            "event": "block",
                            "outer_doc": block.outer_doc,
                            "rows": [list(row) for row in block.rows],
                        }
                    status = "ok"
                    yield {
                        "event": "summary",
                        "status": "ok",
                        "rows": len(result.rows),
                        "blocks": blocks_streamed,
                        "truncated": bool(result.extras.get("truncated", False)),
                        "algorithm": result.algorithm,
                        "pages_read": result.extras.get("pages_read"),
                        "dataset_build_events": result.extras.get(
                            "dataset_build_events"
                        ),
                        "elapsed_seconds": time.perf_counter() - started,
                        "phase_io": phase_stats_payload(context.phase_stats),
                    }
                except BudgetExceededError as exc:
                    # The join was cut off mid-I/O: report how far it got.
                    status = "budget-exceeded"
                    stats = exc.stats
                    yield {
                        "event": "error",
                        "code": "budget-exceeded",
                        "message": str(exc),
                        "partial": True,
                        "rows": rows_streamed,
                        "blocks": blocks_streamed,
                        "pages_used": exc.pages_used,
                        "elapsed_seconds": time.perf_counter() - started,
                        "stats": None
                        if stats is None
                        else {
                            "sequential_reads": stats.sequential_reads,
                            "random_reads": stats.random_reads,
                        },
                        "phase_io": phase_stats_payload(context.phase_stats),
                    }
            finally:
                stream.close()
        except GeneratorExit:
            # The consumer abandoned the stream (client disconnect);
            # account for it and let the generator unwind normally.
            status = "disconnected"
            raise
        except BaseException as exc:
            status = error_code_for(exc)
            raise
        finally:
            slot.release()
            self.metrics.record_query(
                status=status,
                seconds=time.perf_counter() - started,
                rows=rows_streamed,
                blocks=blocks_streamed,
                pages=context.pages_used,
                phase_stats=context.phase_stats,
            )


__all__ = [
    "ERROR_CODES",
    "JoinService",
    "LoadedWorkspace",
    "MutateRequest",
    "QueryRequest",
    "error_code_for",
]
