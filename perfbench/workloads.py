"""The three seeded workloads: workspace shapes, request mixes, writes.

Every input the benchmark sends is a pure function of the workload and
the ``--seed``: the two collections come from
:func:`repro.workloads.synthetic.generate_collection`, the per-client
request sequences and the inserted documents from ``random.Random``
streams derived from the seed.  The server only ever sees the built
workspace directory and the requests.

* ``scan`` — HHNL over a workspace that fits the buffer (about 4 pages
  against 256).  Full joins: five requests in eight are
  ``SIMILAR_TO(3)``, two in eight ``SIMILAR_TO(20)`` and one in eight
  ``SIMILAR_TO(3)`` with ``"shards": 2``.  Server time goes to the
  operator, the kernels, TopK, row projection and event encoding; the
  shares keep p50 inside the lambda=3 mode and p95 inside the
  lambda=20 mode.
* ``probe`` — HVNL over an inner docs extent (98 pages) larger than the
  64-page buffer.  Each request joins one outer document, so per-request
  fixed costs (HTTP, parse, plan, decide, ``factory.create``) dominate.
* ``write-mix`` — VVM full joins from one closed-loop reader beside an
  open-loop writer that alternates a 5-document ``INSERT INTO R1`` with
  the ``DELETE`` that removes the same documents again, so the live set
  and the delta stay stationary across the run.  At 1.5 writes/s the
  writer fell behind on a 2-core machine (its lateness grew by 0.6 s
  over a 10 s run); 1 write/s is held with no backlog.

``scan`` and ``probe`` also run a short closed-loop burst of the same
insert/delete pairs after their read window, so the mutate metrics are
measured on every workspace size without disturbing the reads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

FULL_JOIN_SQL = "SELECT R2.Id, R1.Id FROM R1, R2 WHERE R1.Doc SIMILAR_TO({lam}) R2.Doc"
PROBE_SQL = (
    "SELECT R2.Id, R1.Id FROM R1, R2 "
    "WHERE R2.Id = {outer} AND R1.Doc SIMILAR_TO({lam}) R2.Doc"
)

#: documents each INSERT adds (and the paired DELETE removes)
INSERT_DOCS = 5

@dataclass(frozen=True)
class Workload:
    """One workload: workspace shape, server settings and traffic."""

    name: str
    inner_docs: int
    outer_docs: int
    terms_per_doc: int
    vocabulary: int
    codec: str
    buffer_pages: int
    scenario: str
    #: the operator the planner is expected to pick for every read
    expected_algorithm: str
    #: closed-loop read clients (never more than the machine's 2 cores)
    readers: int
    #: open-loop writes per second beside the reads (0: no concurrent writer)
    write_rate: float
    #: closed-loop writes after the read window (0: none)
    post_writes: int

    def mix(self, seed: int) -> list[dict[str, Any]]:
        """One cycle of read requests; repeated entries set the shares."""
        if self.name == "probe":
            return probe_requests(self, seed)
        return list(READ_MIX[self.name])

    def request_sequence(self, seed: int, client: int) -> Iterator[dict[str, Any]]:
        """The endless, seeded request stream of one read client: shuffled cycles."""
        rng = random.Random(f"{self.name}/{seed}/client-{client}")
        cycle = self.mix(seed)
        while True:
            rng.shuffle(cycle)
            yield from cycle

    def distinct_requests(self, seed: int) -> list[dict[str, Any]]:
        """Every distinct request the read clients can send."""
        unique: list[dict[str, Any]] = []
        for request in self.mix(seed):
            if request not in unique:
                unique.append(request)
        return unique


#: one shuffled cycle of full-join requests per workload
READ_MIX: dict[str, tuple[dict[str, Any], ...]] = {
    "scan": (
        *({"sql": FULL_JOIN_SQL.format(lam=3)},) * 5,
        *({"sql": FULL_JOIN_SQL.format(lam=20)},) * 2,
        {"sql": FULL_JOIN_SQL.format(lam=3), "shards": 2},
    ),
    "write-mix": (
        *({"sql": FULL_JOIN_SQL.format(lam=3)},) * 3,
        {"sql": FULL_JOIN_SQL.format(lam=20)},
    ),
}

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "scan", inner_docs=120, outer_docs=90, terms_per_doc=12,
            vocabulary=400, codec="raw", buffer_pages=256,
            scenario="sequential", expected_algorithm="HHNL",
            readers=2, write_rate=0.0, post_writes=40,
        ),
        Workload(
            "probe", inner_docs=8000, outer_docs=200, terms_per_doc=10,
            vocabulary=2000, codec="raw", buffer_pages=64,
            scenario="random", expected_algorithm="HVNL",
            readers=2, write_rate=0.0, post_writes=12,
        ),
        Workload(
            "write-mix", inner_docs=400, outer_docs=300, terms_per_doc=20,
            vocabulary=2000, codec="vbyte", buffer_pages=256,
            scenario="sequential", expected_algorithm="VVM",
            readers=1, write_rate=1.0, post_writes=0,
        ),
    )
}


def probe_requests(workload: Workload, seed: int) -> list[dict[str, Any]]:
    """One request per outer document of ``probe``, lambda drawn from {3, 10}.

    Covering every outer document keeps the per-query figures an average
    over the whole collection, not over whichever documents a short run
    happened to draw.
    """
    rng = random.Random(f"{workload.name}/{seed}/requests")
    return [
        {"sql": PROBE_SQL.format(outer=k, lam=rng.choice((3, 10)))}
        for k in range(workload.outer_docs)
    ]


def lam_of(request: dict[str, Any]) -> int:
    """The SIMILAR_TO lambda a generated request asks for."""
    sql = request["sql"]
    start = sql.index("SIMILAR_TO(") + len("SIMILAR_TO(")
    return int(sql[start : sql.index(")", start)])


def write_statements(workload: Workload, seed: int) -> Iterator[str]:
    """The endless, seeded write stream: INSERT 5 docs, DELETE them, ...

    Inserted documents get the ids after the base inner documents, so
    ``DELETE ... WHERE Id >= inner_docs`` removes exactly them and every
    even-length prefix of the stream leaves the workspace at its base
    state.
    """
    rng = random.Random(f"{workload.name}/{seed}/writes")
    delete = f"DELETE FROM R1 WHERE Id >= {workload.inner_docs}"
    while True:
        docs = []
        for _ in range(INSERT_DOCS):
            terms = [rng.randrange(workload.vocabulary) for _ in range(workload.terms_per_doc)]
            docs.append("('" + " ".join(map(str, terms)) + "')")
        yield f"INSERT INTO R1 (Doc) VALUES {', '.join(docs)}"
        yield delete


def build(workload: Workload, seed: int, directory: Path) -> None:
    """Generate the seeded collections and build the workspace."""
    from repro.core.environment import EnvironmentSpec
    from repro.workloads.synthetic import SyntheticSpec, generate_collection
    from repro.workspace import build_workspace

    c1 = generate_collection(
        SyntheticSpec(
            f"{workload.name}-c1", workload.inner_docs, workload.terms_per_doc,
            workload.vocabulary, seed=2 * seed,
        )
    )
    c2 = generate_collection(
        SyntheticSpec(
            f"{workload.name}-c2", workload.outer_docs, workload.terms_per_doc,
            workload.vocabulary, seed=2 * seed + 1,
        )
    )
    build_workspace(directory, c1, c2, spec=EnvironmentSpec(codec=workload.codec))


def describe(workload: Workload, directory: Path) -> dict[str, Any]:
    """Sizes of a built workspace: term cells and extent pages vs buffer."""
    from repro.workspace import workspace_catalog

    _, factory = workspace_catalog(directory)
    return {
        "term_cells": factory.collection1.total_cells + factory.collection2.total_cells,
        "inner_docs_pages": factory.docs_extent(1).n_pages,
        "outer_docs_pages": factory.docs_extent(2).n_pages,
        "inner_inverted_pages": factory.inverted_extent(1).n_pages,
        "buffer_pages": workload.buffer_pages,
        "expected_algorithm": workload.expected_algorithm,
    }
