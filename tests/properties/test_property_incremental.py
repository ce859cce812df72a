"""Property: any mutation interleaving equals the cold rebuild exactly.

Hypothesis drives random sequences of insert/delete batches, delta
freezes and compactions against a small workspace while a model keeps
the live documents' d-cells in merged order.  After the sequence:

* the loaded merged view must hold exactly the model's documents;
* a text join over the mutated workspace must equal the same join over
  an in-memory environment built cold from the model;
* :func:`~repro.workspace.loader.verify_workspace` must report a clean
  workspace after every freeze and compaction (and at the end).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.integrated import IntegratedJoin
from repro.core.join import JoinEnvironment, TextJoinSpec
from repro.cost.params import SystemParams
from repro.storage.pages import PageGeometry
from repro.text.collection import DocumentCollection
from repro.text.document import Document
from repro.workspace import (
    MutationBatch,
    apply_mutations,
    build_workspace,
    compact,
    freeze_delta,
    load_workspace,
    verify_workspace,
)

VOCABULARY = 30
PAGE_BYTES = 512

# one operation: ("mutate", inserts, delete_picks) | ("freeze",) | ("compact",)
_term_list = st.lists(
    st.integers(min_value=0, max_value=VOCABULARY - 1), min_size=1, max_size=6
)
_mutation = st.tuples(
    st.just("mutate"),
    st.lists(_term_list, min_size=0, max_size=3),          # c1 inserts
    st.lists(st.integers(min_value=0, max_value=10 ** 6),  # c1 delete picks
             min_size=0, max_size=3, unique=True),
)
_operation = st.one_of(
    _mutation, st.tuples(st.just("freeze")), st.tuples(st.just("compact"))
)


def _apply_to_model(model: list, operation) -> MutationBatch | None:
    """Mirror one operation onto the model; returns the batch to apply.

    Delete picks are arbitrary integers; they select live ids modulo the
    current size, deduplicated, and never empty the collection — the
    same constraints :func:`apply_mutations` enforces.
    """
    _, inserts, picks = operation
    doc_ids = sorted({pick % len(model) for pick in picks})
    if len(doc_ids) >= len(model) + len(inserts):
        doc_ids = doc_ids[: len(model) + len(inserts) - 1]
    if not inserts and not doc_ids:
        return None
    dead = set(doc_ids)
    model[:] = [cells for i, cells in enumerate(model) if i not in dead]
    model.extend(Document.from_terms(0, terms).cells for terms in inserts)
    batch = MutationBatch.from_term_lists(
        inserts={"c1": inserts} if inserts else None,
        deletes={"c1": doc_ids} if doc_ids else None,
    )
    return batch


def _cold_environment(model: list) -> JoinEnvironment:
    collection = DocumentCollection(
        "prop-c1", [Document(i, cells) for i, cells in enumerate(model)]
    )
    return JoinEnvironment(collection, collection, PageGeometry(PAGE_BYTES))


@settings(max_examples=15, deadline=None)
@given(
    initial=st.lists(_term_list, min_size=2, max_size=6),
    operations=st.lists(_operation, min_size=1, max_size=5),
)
def test_interleavings_preserve_cold_rebuild_equality(
    tmp_path_factory, initial, operations
):
    from repro.core.environment import EnvironmentSpec

    directory = tmp_path_factory.mktemp("prop-inc") / "ws"
    model = [Document.from_terms(0, terms).cells for terms in initial]
    collection = DocumentCollection(
        "prop-c1", [Document(i, cells) for i, cells in enumerate(model)]
    )
    build_workspace(
        directory, collection, None, spec=EnvironmentSpec(page_bytes=PAGE_BYTES)
    )

    for operation in operations:
        if operation[0] == "mutate":
            batch = _apply_to_model(model, operation)
            if batch is not None:
                apply_mutations(directory, batch)
        elif operation[0] == "freeze":
            freeze_delta(directory)
            assert verify_workspace(directory) == []
        else:
            compact(directory)
            assert verify_workspace(directory) == []

    assert verify_workspace(directory) == []

    environment = load_workspace(directory).create()
    assert [d.cells for d in environment.collection1] == model

    system = SystemParams(buffer_pages=64, page_bytes=PAGE_BYTES)
    spec = TextJoinSpec(lam=2)
    mutated = IntegratedJoin(environment, system).run(spec)
    cold = IntegratedJoin(_cold_environment(model), system).run(spec)
    assert mutated.matches == cold.matches
    assert mutated.io.by_extent == cold.io.by_extent


@settings(max_examples=10, deadline=None)
@given(operations=st.lists(_operation, min_size=1, max_size=4))
def test_verify_stays_clean_under_any_interleaving(tmp_path_factory, operations):
    from repro.core.environment import EnvironmentSpec

    directory = tmp_path_factory.mktemp("prop-verify") / "ws"
    model = [((1, 1), (2, 1)), ((3, 2),), ((1, 1), (4, 1))]
    model = list(model)
    collection = DocumentCollection(
        "prop-c1", [Document(i, cells) for i, cells in enumerate(model)]
    )
    build_workspace(
        directory, collection, None, spec=EnvironmentSpec(page_bytes=PAGE_BYTES)
    )
    for operation in operations:
        if operation[0] == "mutate":
            batch = _apply_to_model(model, operation)
            if batch is not None:
                apply_mutations(directory, batch)
        elif operation[0] == "freeze":
            freeze_delta(directory)
        else:
            compact(directory)
        assert verify_workspace(directory) == []


# one warm-chain step: a service write, or an out-of-band directory write
_side = st.sampled_from(["R1", "R2"])
_warm_step = st.one_of(
    st.tuples(st.just("insert"), _side, st.lists(_term_list, min_size=1, max_size=2)),
    st.tuples(st.just("delete"), _side, st.integers(min_value=0, max_value=10 ** 6)),
    st.tuples(
        st.just("apply"),
        st.lists(_term_list, min_size=0, max_size=2),
        st.lists(st.integers(min_value=0, max_value=10 ** 6),
                 min_size=0, max_size=2, unique=True),
    ),
    st.tuples(st.just("freeze")),
    st.tuples(st.just("compact")),
)


def _assert_served_equals_cold(service, directory) -> None:
    """The service's warm factory and a cold load agree on every observable."""
    served = service._workspaces["ws"].factory
    cold = load_workspace(directory)
    cold.create()
    assert served.build_counts() == cold.build_counts()
    system = SystemParams(buffer_pages=64, page_bytes=PAGE_BYTES)
    spec = TextJoinSpec(lam=2)
    warm_result = IntegratedJoin(served.create(), system).run(spec)
    cold_result = IntegratedJoin(cold.create(), system).run(spec)
    assert warm_result.algorithm == cold_result.algorithm
    assert warm_result.matches == cold_result.matches
    assert warm_result.io.by_extent == cold_result.io.by_extent


@settings(max_examples=12, deadline=None)
@given(steps=st.lists(_warm_step, min_size=1, max_size=6))
def test_warm_commit_chain_equals_a_cold_open(tmp_path_factory, steps):
    """Snapshots chained through JoinService.mutate match a cold load.

    Out-of-band writes (apply/freeze/compact straight on the directory)
    move the manifest behind the service's snapshot; the next service
    write must notice the fingerprint change and reopen the directory.
    """
    from repro.core.environment import EnvironmentSpec
    from repro.service import JoinService, MutateRequest

    directory = tmp_path_factory.mktemp("prop-warm") / "ws"
    inner = [((1, 1), (2, 1)), ((3, 2),), ((1, 1), (4, 1)), ((5, 3), (9, 1))]
    outer = [((2, 2), (3, 1)), ((4, 1), (9, 2)), ((1, 1),)]
    build_workspace(
        directory,
        DocumentCollection("warm-c1", [Document(i, c) for i, c in enumerate(inner)]),
        DocumentCollection("warm-c2", [Document(i, c) for i, c in enumerate(outer)]),
        spec=EnvironmentSpec(page_bytes=PAGE_BYTES),
    )
    service = JoinService({"ws": str(directory)})
    live = {"R1": inner, "R2": outer}
    for step in steps:
        kind = step[0]
        if kind == "insert":
            _, table, term_lists = step
            values = ", ".join(
                "('" + " ".join(map(str, terms)) + "')" for terms in term_lists
            )
            sql = f"INSERT INTO {table} (Doc) VALUES {values}"
            live[table] = live[table] + [
                Document.from_terms(0, terms).cells for terms in term_lists
            ]
        elif kind == "delete":
            _, table, pick = step
            if len(live[table]) < 2:
                continue
            doc_id = pick % len(live[table])
            sql = f"DELETE FROM {table} WHERE Id = {doc_id}"
            live[table] = [c for i, c in enumerate(live[table]) if i != doc_id]
        elif kind == "apply":
            batch = _apply_to_model(live["R1"], step)
            if batch is not None:
                apply_mutations(directory, batch)
            continue
        elif kind == "freeze":
            freeze_delta(directory)
            continue
        else:
            compact(directory)
            continue
        service.mutate(MutateRequest(sql=sql))
        _assert_served_equals_cold(service, directory)
        served = service._workspaces["ws"].factory
        assert [d.cells for d in served.collection1] == live["R1"]
        assert [d.cells for d in served.collection2] == live["R2"]
    assert verify_workspace(directory) == []
