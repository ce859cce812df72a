"""Shared fixtures: small deterministic collections and environments.

Collection sizes are chosen so the whole suite stays fast while still
exercising multi-page layouts, buffer eviction and multi-pass VVM: the
test geometry uses small pages (512B-1024B) so "big" is cheap.

Hypothesis runs under named profiles instead of per-test ``@settings``
boilerplate: ``dev`` (the default) keeps the property suites fast for
tier-1, ``ci`` digs deeper.  Select with ``HYPOTHESIS_PROFILE=ci``.

The join-service suites (``tests/service/``) get their fixtures here
too: session-scoped built workspaces, ``free_port`` and the
``running_service``/``large_service`` handles that boot a real
:mod:`repro.service` HTTP server on an ephemeral port in a background
thread (:func:`serving`) and tear it down afterwards.  Everything under
``tests/service/`` is auto-tagged with the ``service`` marker.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import urllib.error
import urllib.request
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import settings as hypothesis_settings

hypothesis_settings.register_profile("dev", max_examples=25, deadline=None)
hypothesis_settings.register_profile("ci", max_examples=150, deadline=None)
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

from repro.core.join import JoinEnvironment
from repro.cost.params import SystemParams
from repro.storage.pages import PageGeometry
from repro.text.collection import DocumentCollection
from repro.workloads.synthetic import SyntheticSpec, generate_collection

SMALL_PAGE = 512

#: how often a test server's ``serve_forever`` checks for shutdown; the
#: stdlib default (0.5 s) would be paid once per service test teardown
SERVER_POLL_SECONDS = 0.05


@pytest.fixture(scope="session")
def tiny_pair() -> tuple[DocumentCollection, DocumentCollection]:
    """Two hand-written collections with known similarities."""
    c1 = DocumentCollection.from_term_lists(
        "tiny1",
        [
            [1, 2, 3],        # doc 0
            [2, 2, 4],        # doc 1: term 2 twice
            [5],              # doc 2
            [1, 1, 1, 6, 7],  # doc 3: term 1 three times
        ],
    )
    c2 = DocumentCollection.from_term_lists(
        "tiny2",
        [
            [2, 3],     # doc 0
            [1, 5, 8],  # doc 1
            [9],        # doc 2: no overlap with c1
        ],
    )
    return c1, c2


@pytest.fixture(scope="session")
def synthetic_pair() -> tuple[DocumentCollection, DocumentCollection]:
    """Mid-sized Zipfian pair for executor/integration tests."""
    c1 = generate_collection(
        SyntheticSpec("syn1", n_documents=120, avg_terms_per_doc=18,
                      vocabulary_size=600, seed=11)
    )
    c2 = generate_collection(
        SyntheticSpec("syn2", n_documents=90, avg_terms_per_doc=14,
                      vocabulary_size=600, seed=22)
    )
    return c1, c2


@pytest.fixture()
def small_geometry() -> PageGeometry:
    return PageGeometry(SMALL_PAGE)


@pytest.fixture()
def synthetic_env(synthetic_pair, small_geometry) -> JoinEnvironment:
    c1, c2 = synthetic_pair
    return JoinEnvironment(c1, c2, small_geometry)


@pytest.fixture()
def small_system() -> SystemParams:
    return SystemParams(buffer_pages=16, page_bytes=SMALL_PAGE, alpha=5.0)


@pytest.fixture()
def roomy_system() -> SystemParams:
    return SystemParams(buffer_pages=256, page_bytes=SMALL_PAGE, alpha=5.0)


# --- join-service fixtures (tests/service/) -----------------------------


def pytest_collection_modifyitems(items):
    """Auto-tag everything under ``tests/service/`` with the service marker."""
    for item in items:
        if "tests/service/" in str(item.fspath).replace(os.sep, "/"):
            item.add_marker(pytest.mark.service)


@pytest.fixture()
def free_port() -> int:
    """An ephemeral TCP port that was free at fixture time."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture(scope="session")
def service_workspace(tmp_path_factory) -> Path:
    """One pre-built workspace shared by every service test."""
    from repro.workloads.synthetic import SyntheticSpec as _Spec
    from repro.workspace import build_workspace

    directory = tmp_path_factory.mktemp("service-ws") / "ws"
    c1 = generate_collection(
        _Spec("svc-c1", n_documents=40, avg_terms_per_doc=8,
              vocabulary_size=150, seed=11)
    )
    c2 = generate_collection(
        _Spec("svc-c2", n_documents=30, avg_terms_per_doc=10,
              vocabulary_size=150, seed=22)
    )
    build_workspace(directory, c1, c2)
    return directory


@dataclass
class ServiceHandle:
    """A running service plus tiny HTTP helpers for the test suites."""

    service: object
    server: object
    base_url: str

    def get(self, path: str) -> tuple[int, dict]:
        """GET a JSON endpoint; returns (status, parsed body)."""
        try:
            with urllib.request.urlopen(self.base_url + path, timeout=30) as r:
                return r.status, json.loads(r.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def post(self, path: str, payload, *, raw: bool = False) -> tuple[int, str]:
        """POST a JSON body; returns (status, raw response text)."""
        data = payload if raw else json.dumps(payload).encode()
        request = urllib.request.Request(self.base_url + path, data=data)
        try:
            with urllib.request.urlopen(request, timeout=30) as r:
                return r.status, r.read().decode()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read().decode()

    def query(self, payload) -> tuple[int, dict]:
        """POST /query and fold the reply into one response document.

        A 200 stream is reassembled with
        :func:`repro.service.schema.response_from_lines`; a mapped
        error status parses as the single JSON document it is.
        """
        from repro.service import response_from_lines

        status, text = self.post("/query", payload)
        if status == 200 or "\n" in text.strip():
            return status, response_from_lines(text)
        return status, json.loads(text)


@contextmanager
def serving(service) -> Iterator[ServiceHandle]:
    """Serve ``service`` over HTTP from a background thread for the block."""
    from repro.service import make_server

    server = make_server(service)
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": SERVER_POLL_SECONDS},
        daemon=True,
    )
    thread.start()
    try:
        yield ServiceHandle(
            service=service, server=server,
            base_url=f"http://127.0.0.1:{server.port}",
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


@pytest.fixture()
def running_service(service_workspace) -> Iterator[ServiceHandle]:
    """A live HTTP join service over the shared workspace."""
    from repro.service import JoinService

    with serving(JoinService({"ws": service_workspace}, max_workers=4)) as handle:
        yield handle


@pytest.fixture(scope="session")
def large_service_workspace(tmp_path_factory) -> Path:
    """A workspace whose wide joins answer with well over 64 KiB.

    300 x 100 documents: ``SIMILAR_TO(60)`` streams about 100 KiB of
    events and ``SIMILAR_TO(200)`` about 330 KiB, so responses span
    several fills of the server's write buffer.
    """
    from repro.workspace import build_workspace

    directory = tmp_path_factory.mktemp("service-large-ws") / "ws"
    c1 = generate_collection(
        SyntheticSpec("svc-big-c1", n_documents=300, avg_terms_per_doc=8,
                      vocabulary_size=300, seed=31)
    )
    c2 = generate_collection(
        SyntheticSpec("svc-big-c2", n_documents=100, avg_terms_per_doc=8,
                      vocabulary_size=300, seed=32)
    )
    build_workspace(directory, c1, c2)
    return directory


@pytest.fixture()
def large_service(large_service_workspace) -> Iterator[ServiceHandle]:
    """A live HTTP join service over the large workspace."""
    from repro.service import JoinService

    with serving(
        JoinService({"ws": large_service_workspace}, max_workers=4)
    ) as handle:
        yield handle


@pytest.fixture()
def mutable_service(tmp_path) -> Iterator[tuple[ServiceHandle, Path]]:
    """A live service over a private workspace the test may mutate."""
    from repro.service import JoinService
    from repro.workspace import build_workspace

    directory = tmp_path / "ws"
    c1 = generate_collection(
        SyntheticSpec("mut-c1", n_documents=25, avg_terms_per_doc=8,
                      vocabulary_size=120, seed=7)
    )
    c2 = generate_collection(
        SyntheticSpec("mut-c2", n_documents=20, avg_terms_per_doc=8,
                      vocabulary_size=120, seed=8)
    )
    build_workspace(directory, c1, c2)
    with serving(JoinService({"ws": str(directory)}, max_workers=4)) as handle:
        yield handle, directory
