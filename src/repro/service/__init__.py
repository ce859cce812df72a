"""The join service: a long-lived query server over warm workspaces.

The paper's cost analysis assumes a resident system serving many
text-join queries against already-built structures.  This package is
that resident system: a :class:`~repro.service.core.JoinService` loads
one or more :mod:`repro.workspace` directories at startup (paying
tokenisation/inversion/bulk-load zero times per query), admits requests
onto a bounded worker pool with per-request
:class:`~repro.exec.context.ExecutionBudget` enforcement, and streams
result blocks as the underlying ``iter_*`` operator finalises them
(buffered into 64 KiB sends over HTTP).  :mod:`repro.service.http` exposes it over HTTP/JSON
(``POST /query`` chunked JSON lines, ``GET /health``,
``GET /metrics``) using only the stdlib ``http.server``;
:mod:`repro.service.schema` pins the versioned response layout
(``repro-service-response/1``) with strict validate/load helpers, and
:mod:`repro.service.metrics` aggregates latency percentiles and
per-phase I/O across queries.

Start one from the shell with ``repro serve WORKSPACE_DIR``.  See
``docs/SERVICE.md`` for the API reference and admission semantics.
"""

from repro.service.core import (
    JoinService,
    LoadedWorkspace,
    MutateRequest,
    QueryRequest,
)
from repro.service.http import (
    STATUS_BY_CODE,
    ServiceHTTPServer,
    error_code_for,
    make_server,
)
from repro.service.metrics import LatencyHistogram, ServiceMetrics
from repro.service.schema import (
    RESPONSE_SCHEMA,
    assemble_response,
    load_response,
    response_from_lines,
    save_response,
    validate_response,
)

__all__ = [
    "JoinService",
    "LatencyHistogram",
    "LoadedWorkspace",
    "MutateRequest",
    "QueryRequest",
    "RESPONSE_SCHEMA",
    "STATUS_BY_CODE",
    "ServiceHTTPServer",
    "ServiceMetrics",
    "assemble_response",
    "error_code_for",
    "load_response",
    "make_server",
    "response_from_lines",
    "save_response",
    "validate_response",
]
