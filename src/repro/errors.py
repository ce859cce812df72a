"""Exception hierarchy for the textjoin reproduction library.

Every error raised by this package derives from :class:`ReproError`, so a
caller embedding the library can catch one base class.  Subclasses are
grouped by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(ReproError, ValueError):
    """An argument failed validation (wrong range, sign or combination).

    Also subclasses :class:`ValueError` so callers written against the
    built-in type keep working.
    """


class AnalysisError(ReproError):
    """The static-analysis engine could not read, parse or run a target."""


class StorageError(ReproError):
    """Base class for simulated-storage errors."""


class PageOutOfRangeError(StorageError):
    """A page id outside an extent or disk was requested."""


class BufferExhaustedError(StorageError):
    """The buffer manager could not free a frame (all frames pinned)."""


class ExtentFullError(StorageError):
    """An append was attempted past a fixed-size extent."""


class TextError(ReproError):
    """Base class for text-model errors."""


class VocabularyError(TextError):
    """An unknown term or term number was looked up."""


class DocumentFormatError(TextError):
    """A document's d-cells are malformed (unsorted, duplicated, bad weight)."""


class IndexError_(ReproError):
    """Base class for index-structure errors (named to avoid shadowing built-in)."""


class BPlusTreeError(IndexError_):
    """Structural error inside the B+-tree."""


class InvertedFileError(IndexError_):
    """Structural error inside an inverted file."""


class CostModelError(ReproError):
    """A cost formula was evaluated with inconsistent parameters."""


class InsufficientMemoryError(CostModelError):
    """The configured buffer cannot satisfy an algorithm's floor requirement."""


class JoinError(ReproError):
    """Base class for join-execution errors."""


class ExecError(ReproError):
    """Base class for streaming-execution (``repro.exec``) errors."""


class BudgetExceededError(ExecError):
    """An :class:`~repro.exec.context.ExecutionContext` budget ran out.

    Raised the moment the page or time budget is crossed — possibly in
    the middle of a scan — and carries the partial accounting so the
    caller can report how far the join got before it was cut off.
    """

    def __init__(
        self,
        message: str,
        *,
        stats=None,
        pages_used: int | None = None,
        elapsed: float | None = None,
    ) -> None:
        super().__init__(message)
        #: :class:`~repro.storage.iostats.IOStats` delta accumulated
        #: inside the context before the budget was crossed (may be None
        #: when the context was never attached to a disk).
        self.stats = stats
        self.pages_used = pages_used
        self.elapsed = elapsed


class ExecutionCancelledError(ExecError):
    """The context's cancellation check asked the join to stop."""


class ParallelExecutionError(ExecError):
    """Sharded parallel execution (:mod:`repro.parallel`) failed.

    Raised for invalid shard configurations and for shard workers that
    died in a pool child; carries the failing shard's index (when known)
    so the caller can replay that shard sequentially.
    """

    def __init__(self, message: str, *, shard: int | None = None) -> None:
        super().__init__(message)
        #: index of the shard whose worker failed, when attributable
        self.shard = shard


class SqlError(ReproError):
    """Base class for the mini SQL front-end."""


class SqlSyntaxError(SqlError):
    """The query text could not be parsed."""


class SqlSemanticError(SqlError):
    """The query parsed but references unknown relations/attributes or
    applies SIMILAR_TO to non-textual attributes."""


class WorkloadError(ReproError):
    """A synthetic workload was requested with impossible parameters."""


class ConformanceError(ReproError):
    """The conformance harness was misconfigured or a report is malformed.

    Divergences found *by* the harness are not raised — they are
    collected into the conformance report so every executor and invariant
    is still exercised; this error covers broken harness inputs (unknown
    check names, invalid report schemas, impossible trial parameters).
    """


class ServiceError(ReproError):
    """Base class for the join-service layer (:mod:`repro.service`)."""


class ServiceRequestError(ServiceError):
    """A query request was malformed (bad JSON body, missing or
    wrongly-typed fields, unknown parameters).  Maps to HTTP 400."""


class RequestTooLargeError(ServiceRequestError):
    """A request declared a body larger than the service will read.
    Maps to HTTP 413; the body is refused unread."""


class ServiceResponseError(ServiceError):
    """A service response document is malformed (wrong schema tag,
    missing sections, mistyped fields).  Raised by the strict
    validate/load helpers in :mod:`repro.service.schema` — a response
    that *looks* well-formed but is not would silently corrupt clients
    and CI artifacts."""


class UnknownWorkspaceError(ServiceError):
    """A request named a workspace the service did not load.  Maps to
    HTTP 404."""


class ServiceOverloadedError(ServiceError):
    """Admission control rejected a request: every worker slot is
    occupied.  Maps to HTTP 429 — the client should retry later rather
    than queue unboundedly on the server."""


class WorkspaceError(ReproError):
    """A persistent dataset workspace is malformed or cannot be built.

    Raised by :mod:`repro.workspace` for invalid manifests, missing or
    mismatched artifact files and unsupported build configurations.
    Low-level decode failures inside individual artifact files surface as
    the artifact's own error type (:class:`DocumentFormatError` for
    ``.docs``/``.inv`` pairs, :class:`BPlusTreeError` for ``.btree``
    files) so the byte-level context is not lost.
    """
