"""repro.store — persistent, resumable campaign results.

The campaign runners (:class:`repro.sim.campaign.CampaignRunner`,
:func:`repro.analysis.experiments.run_campaign`) hold every result in
memory and restart from zero when interrupted — fine for unit-test
grids, a ceiling for the ROADMAP's production-scale sweeps.  This
package removes that ceiling with three small pieces:

* :mod:`repro.store.fingerprint` — content-hashed shard keys: a stable
  SHA-256 digest of the ``(n, loss, adversary, estimator, seed)`` spec,
  so reruns dedupe and grown grids keep their finished cells.
* :mod:`repro.store.store` — :class:`CampaignStore`: one append-only
  JSONL shard per fingerprint, fsync-on-append, torn-line-tolerant
  reads, last-record-wins dedupe.
* :mod:`repro.store.records` — bit-exact JSON codecs for the two record
  flavours (testbed :class:`~repro.analysis.experiments.ExperimentRecord`
  lines and sim :class:`~repro.sim.campaign.ScenarioOutcome` lines),
  including the NaN-reliability convention for zero-secret experiments.
* :mod:`repro.store.manifest` — :class:`SweepManifest`: a named,
  versioned, atomically-written document listing every work item of a
  sweep with its shard key, so workers and aggregators can scope a
  shared store to one sweep without recomputing fingerprints.
* :mod:`repro.store.queue` — :class:`WorkQueue`: atomic leases with
  heartbeats and expiry-based reclaim, so any number of worker
  processes drain the same manifest concurrently and crash-safely.
* :mod:`repro.store.backend` — the pluggable backend layer beneath all
  of the above: :class:`StoreBackend`/:class:`LeaseBackend` interfaces
  with two implementations (``file:`` shared-filesystem JSONL +
  ``O_EXCL`` leases, the one durable store, and ``mem:`` an
  in-process S3-style object store with conditional-put leases, the
  fault-injection harness), selected by URI via :func:`open_store`.  The backend
  conformance suite (``tests/store/conformance``) pins the contract
  every implementation must satisfy.

Checkpoint/resume contract, kept by the one sweep driver both runners
call (:func:`repro.store.queue.run_sweep`): compute each work item's
fingerprint up front, skip items whose shard already holds a complete
record, persist each new result the moment its worker completes, and
assemble the final result in grid order from loaded + fresh records —
so an interrupted campaign resumed with ``--store DIR --resume`` ends
bit-identical to an uninterrupted run.
"""

from repro.store.backend import (
    LeaseBackend,
    LeaseView,
    StoreBackend,
    copy_store,
    open_backend,
    open_store,
)
from repro.store.fingerprint import (
    canonical_json,
    fingerprint,
    fingerprint_spawn_key,
)
from repro.store.manifest import (
    ManifestEntry,
    SweepManifest,
    list_manifests,
)
from repro.store.queue import (
    LeaseInfo,
    QueueStatus,
    WorkQueue,
    default_owner,
)
from repro.store.records import (
    decode_spec,
    decode_value,
    encode_spec,
    encode_value,
    experiment_record_from_json,
    experiment_record_to_json,
    scenario_outcome_from_json,
    scenario_outcome_to_json,
)
from repro.store.store import CampaignStore

__all__ = [
    "CampaignStore",
    "LeaseBackend",
    "LeaseView",
    "StoreBackend",
    "copy_store",
    "open_backend",
    "open_store",
    "canonical_json",
    "fingerprint",
    "fingerprint_spawn_key",
    "ManifestEntry",
    "SweepManifest",
    "list_manifests",
    "LeaseInfo",
    "QueueStatus",
    "WorkQueue",
    "default_owner",
    "encode_value",
    "decode_value",
    "encode_spec",
    "decode_spec",
    "experiment_record_to_json",
    "experiment_record_from_json",
    "scenario_outcome_to_json",
    "scenario_outcome_from_json",
]
