"""Conformance: property-based lease state machine, per backend.

Hypothesis drives random interleavings of claim / heartbeat / release /
age / break across 2–4 simulated workers against a single key, checking
every step against a reference model.  The invariant that matters: **no
interleaving ever yields two live owners of one key** — a claim can
only succeed while the model says the key is free, and a break can only
remove a lease the model says is expired.

Ageing uses the backend's own ``age_lease`` backdate hook with a
timeout (1000 s) far above the test's real runtime, so "expired" vs
"live" is unambiguous: a lease is expired iff the *injected* age
crossed the timeout — wall-clock drift during the test (milliseconds to
seconds) can never flip a verdict.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conformance_harness import HARNESSES, selected_backends
from repro.store import open_store
from repro.store.backend_mem import MemoryStoreBackend

#: Far above real test runtime (seconds), far below the huge age step.
TIMEOUT = 1000.0
#: Small ages can never sum across a run to TIMEOUT; one huge age
#: always crosses it.  This keeps model and backend in agreement
#: whatever interleaving hypothesis draws.
SMALL_AGE = 5.0
HUGE_AGE = 10_000.0

KEY = "ab" * 10
WORKERS = ["w0", "w1", "w2", "w3"]

_ns_counter = itertools.count()

ops = st.lists(
    st.tuples(
        st.sampled_from(["claim", "heartbeat", "release", "break", "age"]),
        st.integers(min_value=0, max_value=len(WORKERS) - 1),
        st.sampled_from([SMALL_AGE, HUGE_AGE]),
    ),
    min_size=1,
    max_size=40,
)


class LeaseModel:
    """The reference state machine: one lease, one injected-age clock."""

    def __init__(self):
        self.owner = None
        self.age = 0.0

    @property
    def expired(self):
        return self.owner is not None and self.age >= TIMEOUT

    def claim(self, worker):
        if self.owner is None:
            self.owner, self.age = worker, 0.0
            return True
        if self.expired:  # break-then-reclaim in one WorkQueue.claim
            self.owner, self.age = worker, 0.0
            return True
        return False

    def heartbeat(self, worker):
        if self.owner == worker:
            self.age = 0.0
            return True
        return False

    def release(self, worker):
        if self.owner == worker:
            self.owner = None
            return True
        return False

    def break_expired(self):
        if self.expired:
            self.owner = None
            return True
        return False

    def age_lease(self, seconds):
        if self.owner is None:
            return False
        self.age += seconds
        return True


def _queues(store, namespace):
    from repro.store import ManifestEntry, SweepManifest, WorkQueue

    manifest = SweepManifest(
        name=namespace, entries=(ManifestEntry(key=KEY, spec=None),)
    ).save(store)
    return [
        WorkQueue(store, manifest, owner=w, lease_timeout=TIMEOUT)
        for w in WORKERS
    ]


def _run_machine(store, operations):
    namespace = f"prop{next(_ns_counter)}"
    queues = _queues(store, namespace)
    leases = store.backend.leases
    model = LeaseModel()
    for op, worker_idx, seconds in operations:
        queue = queues[worker_idx]
        worker = WORKERS[worker_idx]
        if op == "claim":
            got = queue.claim(KEY)
            want = model.claim(worker)
            assert got == want, (op, worker, model.owner)
        elif op == "heartbeat":
            got = queue.heartbeat(KEY)
            want = model.heartbeat(worker)
            assert got == want, (op, worker, model.owner)
        elif op == "release":
            got = queue.release(KEY)
            want = model.release(worker)
            assert got == want, (op, worker, model.owner)
        elif op == "break":
            got = leases.break_expired(namespace, KEY, TIMEOUT)
            want = model.break_expired()
            assert got == want, (op, worker, model.owner, model.age)
        elif op == "age":
            got = leases.age_lease(namespace, KEY, seconds)
            want = model.age_lease(seconds)
            assert got == want, (op, worker, model.owner)
        # After every step the backend's view must match the model's:
        # in particular there is never a live owner the model doesn't
        # know about (the "two live owners" catastrophe).
        view = leases.get(namespace, KEY)
        if model.owner is None:
            assert view is None
        else:
            assert view is not None and view.owner == model.owner


# One test function per backend (instead of a fixture param) so each
# backend gets its own hypothesis database entry and shrunk examples
# don't cross-contaminate; REPRO_CONFORMANCE_BACKENDS still filters.


def _check_selected(name):
    if name not in selected_backends():
        pytest.skip(
            f"backend {name!r} deselected via REPRO_CONFORMANCE_BACKENDS"
        )


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(operations=ops)
def test_lease_state_machine_file(tmp_path, operations):
    _check_selected("file")
    _run_machine(
        open_store(HARNESSES["file"].make_uri(tmp_path)), operations
    )


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(operations=ops)
def test_lease_state_machine_mem(operations):
    _check_selected("mem")
    name = f"prop-machine-{next(_ns_counter)}"
    try:
        _run_machine(open_store(f"mem:{name}"), operations)
    finally:
        MemoryStoreBackend.discard(name)
