"""Fixtures of the backend conformance suite.

Every test under ``tests/store/conformance/`` runs once per store
backend (``file``, ``mem``, and ``mem`` with injected per-operation
latency as ``mem-latency``) through the ``store`` fixture;
together they are the contract a backend must satisfy before the sweep
layer will trust it — torn-write tolerance, last-record-wins dedupe,
single-winner claims, expiry in the backend's own clock domain,
kill-mid-lease recovery, resume bit-identity.  Adding a backend means
adding one harness to ``conformance_harness.py`` and going green.

CI selects backends per matrix step with the
``REPRO_CONFORMANCE_BACKENDS`` environment variable (comma-separated
subset of ``file,mem,mem-latency``); unset means all of them.
"""

import pytest

from conformance_harness import HARNESSES, selected_backends
from repro.store import open_store
from repro.store.backend_mem import MemoryStoreBackend


@pytest.fixture(params=sorted(HARNESSES))
def backend(request):
    """The per-backend harness; parametrizes every conformance test."""
    if request.param not in selected_backends():
        pytest.skip(
            f"backend {request.param!r} deselected via "
            "REPRO_CONFORMANCE_BACKENDS"
        )
    return HARNESSES[request.param]


@pytest.fixture
def store_uri(backend, tmp_path):
    uri = backend.make_uri(tmp_path)
    if backend.latency:
        # Every later open of the URI resolves to this registry entry,
        # so workers opened by URI inherit the latency too.
        MemoryStoreBackend.named(uri.split(":", 1)[1]).objects.latency = (
            backend.latency
        )
    yield uri
    if backend.scheme == "mem":
        MemoryStoreBackend.discard(uri.split(":", 1)[1])


@pytest.fixture
def store(store_uri):
    return open_store(store_uri)
