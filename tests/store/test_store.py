"""The campaign store: fingerprints, shards, crash-safety, codecs."""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from repro import Testbed
from repro.analysis.experiments import (
    CampaignConfig,
    ExperimentRecord,
    experiment_store_key,
)
from repro.core import LeaveOneOutEstimator, OracleEstimator
from repro.sim import (
    AdversarySpec,
    BatchedRoundEngine,
    CombinedEstimatorSpec,
    FixedFractionEstimatorSpec,
    IIDLossSpec,
    LeaveOneOutEstimatorSpec,
    OracleEstimatorSpec,
    Scenario,
    ScheduleLossSpec,
)
from repro.sim.campaign import ScenarioOutcome
from repro.store import (
    CampaignStore,
    canonical_json,
    fingerprint,
    fingerprint_spawn_key,
    open_store,
)
from repro.store.backend_mem import MemoryStoreBackend
from repro.store.records import (
    decode_spec,
    encode_spec,
    encode_value,
    experiment_record_from_json,
    experiment_record_to_json,
    scenario_outcome_from_json,
    scenario_outcome_to_json,
)
from repro.testbed import Placement


def module_factory(testbed, placement):
    """Module-level callable for the factory-fingerprint test."""


def other_module_factory(testbed, placement):
    """A second module-level factory, for the partial-fingerprint test."""


class PlainFactoryClass:
    def __init__(self, testbed, placement):
        self.testbed = testbed


class StatefulFactory:
    def __init__(self, margin):
        self.margin = margin

    def __call__(self, testbed, placement):
        pass


class MethodFactory:
    """Estimators made by a bound method: ``MethodFactory(m).make``."""

    def __init__(self, margin):
        self.margin = margin

    def make(self, testbed, placement):
        pass

    def make_other(self, testbed, placement):
        pass

    @classmethod
    def default(cls, testbed, placement):
        pass


class SubMethodFactory(MethodFactory):
    """Inherits ``default``: the same function bound to another class."""


class SlottedFactory:
    """A configured factory whose state lives in ``__slots__`` alone."""

    __slots__ = ("margin", "__weakref__")

    def __init__(self, margin):
        self.margin = margin

    def __call__(self, testbed, placement):
        pass

    def make(self, testbed, placement):
        pass


class SlottedSubFactory(SlottedFactory):
    """Adds a private slot, a slot left unset, and a ``__dict__``."""

    __slots__ = ("__scale", "unset", "__dict__")

    def __init__(self, margin, scale, label):
        super().__init__(margin)
        self.__scale = scale
        self.label = label


@dataclasses.dataclass(frozen=True)
class DataclassMethodFactory:
    margin: float

    def make(self, testbed, placement):
        pass


SCENARIO = Scenario(
    n_terminals=4,
    loss=IIDLossSpec(0.4),
    adversary=AdversarySpec(antennas=2),
    estimator=LeaveOneOutEstimatorSpec(rate_margin=0.05),
    n_x_packets=50,
    rounds=12,
    payload_bytes=32,
)


class TestFingerprint:
    def test_deterministic_and_content_keyed(self):
        assert fingerprint(SCENARIO) == fingerprint(SCENARIO)
        # Any field change must change the key.
        other = Scenario(
            n_terminals=4,
            loss=IIDLossSpec(0.4),
            adversary=AdversarySpec(antennas=2),
            estimator=LeaveOneOutEstimatorSpec(rate_margin=0.05),
            n_x_packets=50,
            rounds=12,
            payload_bytes=33,
        )
        assert fingerprint(other) != fingerprint(SCENARIO)

    def test_pinned_digests(self):
        """Fingerprints are store shard names: silently changing the
        canonicalisation would orphan every existing store.  These pins
        fail loudly instead."""
        assert (
            fingerprint({"kind": "sim-cell", "seed": 7, "scenario": SCENARIO})
            == "31e0f0c4e10adf8ed285"
        )
        assert fingerprint(IIDLossSpec(0.5)) == "e3ec81692d7e34d43fff"

    def test_spawn_key_matches_digest_prefix(self):
        words = fingerprint_spawn_key(SCENARIO)
        assert len(words) == 4
        assert all(0 <= w < 2**32 for w in words)
        # Distinct scenarios get distinct streams.
        assert fingerprint_spawn_key(SCENARIO) != fingerprint_spawn_key(
            IIDLossSpec(0.5)
        )

    def test_hash_seed_independent(self):
        """The canonical form must not depend on dict/hash ordering."""
        a = canonical_json({"b": 1, "a": 2, "c": {"z": 1, "y": 2}})
        assert a == '{"a":2,"b":1,"c":{"y":2,"z":1}}'

    def test_non_finite_floats(self):
        assert '"__float__":"nan"' in canonical_json(float("nan"))
        assert canonical_json(math.inf) == '{"__float__":"inf"}'

    def test_callable_identity(self):
        key = fingerprint(module_factory)
        assert key == fingerprint(module_factory)
        # Instance state distinguishes configured factories...
        assert fingerprint(StatefulFactory(0.02)) != fingerprint(
            StatefulFactory(0.05)
        )
        # ...and equal state collapses onto one key.
        assert fingerprint(StatefulFactory(0.02)) == fingerprint(
            StatefulFactory(0.02)
        )

    def test_partials_are_keyed_by_function_and_arguments(self):
        """Two partial estimator factories are two experiments: a
        resumed campaign must not load one's records for the other."""
        base = fingerprint(functools.partial(module_factory, margin=1))
        assert base == fingerprint(functools.partial(module_factory, margin=1))
        for other in (
            functools.partial(other_module_factory, margin=1),
            functools.partial(module_factory, margin=2),
            functools.partial(module_factory, extra=1),
            functools.partial(module_factory, 1),
        ):
            assert fingerprint(other) != base
        config = CampaignConfig(seed=3)
        placement = Placement(eve_cell=4, terminal_cells=(0, 2, 6))
        testbed = Testbed()
        keys = {
            experiment_store_key(testbed, config, "packet", factory, placement)
            for factory in (
                functools.partial(module_factory, margin=1),
                functools.partial(other_module_factory, rate=2),
            )
        }
        assert len(keys) == 2

    def test_a_class_is_keyed_by_its_qualname(self):
        """A class used as a factory fingerprints like a function: its
        methods and descriptors are code, not configuration."""
        key = fingerprint(PlainFactoryClass)
        assert key == fingerprint(PlainFactoryClass)
        assert json.loads(canonical_json(PlainFactoryClass)) == {
            "__callable__": f"{__name__}.PlainFactoryClass",
            "state": {},
        }
        # Estimator classes are ABC subclasses (``__abstractmethods__``).
        assert fingerprint(OracleEstimator) != fingerprint(LeaveOneOutEstimator)
        assert fingerprint(StatefulFactory) != fingerprint(StatefulFactory(0.02))

    def test_bound_methods_are_keyed_by_their_object(self):
        """Factory(1).make and Factory(2).make are two experiments: a
        resumed campaign must not load one's records for the other."""
        assert fingerprint(MethodFactory(1).make) != fingerprint(
            MethodFactory(2).make
        )
        assert fingerprint(MethodFactory(1).make) == fingerprint(
            MethodFactory(1).make
        )
        assert fingerprint(DataclassMethodFactory(0.1).make) != fingerprint(
            DataclassMethodFactory(0.2).make
        )
        config = CampaignConfig(seed=3)
        placement = Placement(eve_cell=4, terminal_cells=(0, 2, 6))
        keys = {
            experiment_store_key(
                Testbed(), config, "packet", MethodFactory(m).make, placement
            )
            for m in (1, 2)
        }
        assert len(keys) == 2

    def test_bound_methods_are_keyed_by_their_function(self):
        assert fingerprint(MethodFactory(1).make) != fingerprint(
            MethodFactory(1).make_other
        )

    def test_classmethods_are_keyed_by_their_class(self):
        """An inherited classmethod bound to a subclass shares the
        function's qualname but not its receiver."""
        assert fingerprint(MethodFactory.default) == fingerprint(
            MethodFactory.default
        )
        assert fingerprint(MethodFactory.default) != fingerprint(
            SubMethodFactory.default
        )

    def test_bound_method_canonical_form(self):
        """The layout a bound method's key is hashed over: a change here
        moves the shard of every campaign keyed by a method factory."""
        assert json.loads(canonical_json(MethodFactory(1).make)) == {
            "__callable__": f"{__name__}.MethodFactory.make",
            "self": {
                "__callable__": f"{__name__}.MethodFactory",
                "state": {"margin": 1},
            },
        }
        assert json.loads(canonical_json(DataclassMethodFactory(0.1).make)) == {
            "__callable__": f"{__name__}.DataclassMethodFactory.make",
            "self": {"__dataclass__": "DataclassMethodFactory", "margin": 0.1},
        }

    def test_slotted_factories_are_keyed_by_their_slots(self):
        """A factory without a ``__dict__`` keeps its configuration in
        slots: S(1) and S(2), and S(1).make and S(2).make, are two
        experiments each."""
        assert fingerprint(SlottedFactory(1)) != fingerprint(SlottedFactory(2))
        assert fingerprint(SlottedFactory(1)) == fingerprint(SlottedFactory(1))
        assert fingerprint(SlottedFactory(1).make) != fingerprint(
            SlottedFactory(2).make
        )
        config = CampaignConfig(seed=3)
        placement = Placement(eve_cell=4, terminal_cells=(0, 2, 6))
        keys = {
            experiment_store_key(Testbed(), config, "packet", factory, placement)
            for m in (1, 2)
            for factory in (SlottedFactory(m), SlottedFactory(m).make)
        }
        assert len(keys) == 4

    def test_slots_merge_with_the_instance_dict(self):
        """Set slots along the MRO, private names as Python mangles
        them, plus ``__dict__``; unset slots and the ``__dict__`` and
        ``__weakref__`` slots themselves are not state."""
        assert json.loads(canonical_json(SlottedSubFactory(1, 2, "a"))) == {
            "__callable__": f"{__name__}.SlottedSubFactory",
            "state": {"margin": 1, "_SlottedSubFactory__scale": 2, "label": "a"},
        }
        assert fingerprint(SlottedSubFactory(1, 2, "a")) != fingerprint(
            SlottedSubFactory(1, 3, "a")
        )

    def test_partials_of_bound_methods_are_keyed_by_the_receiver(self):
        assert fingerprint(
            functools.partial(MethodFactory(1).make, placement=None)
        ) != fingerprint(functools.partial(MethodFactory(2).make, placement=None))

    def test_unfingerprintable_receiver_state_rejected(self):
        """A receiver's state is hashed, never its memory address: state
        that cannot be canonicalised is an error, not a silent key."""
        with pytest.raises(TypeError, match="cannot fingerprint"):
            fingerprint(MethodFactory(object()).make)

    def test_unfingerprintable_rejected(self):
        with pytest.raises(TypeError, match="cannot fingerprint"):
            fingerprint(object())


class TestCampaignStore:
    def test_append_load_roundtrip(self, tmp_path):
        store = CampaignStore(tmp_path)
        key = fingerprint(SCENARIO)
        store.append(key, {"kind": "experiment", "x": 1.25})
        assert key in store
        assert store.load(key) == {"kind": "experiment", "x": 1.25}
        assert store.keys() == [key]

    def test_last_complete_record_wins(self, tmp_path):
        """Reruns append; readers dedupe by recency, so a superseded
        result can never double-count in aggregates."""
        store = CampaignStore(tmp_path)
        key = "ab" * 10
        store.append(key, {"v": 1})
        store.append(key, {"v": 2})
        assert store.load(key) == {"v": 2}
        assert [r["v"] for r in store.records(key)] == [1, 2]
        assert len(list(store.stream())) == 1

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        """The crash signature: a kill mid-append leaves a truncated
        final line.  Readers must fall back to the last complete one."""
        store = CampaignStore(tmp_path)
        key = "cd" * 10
        store.append(key, {"v": 1})
        with open(store.shard_path(key), "a") as f:
            f.write('{"v": 2, "trunc')  # no terminator, invalid JSON
        assert store.load(key) == {"v": 1}
        # And the shard keeps accepting appends afterwards... the torn
        # fragment stays dead because the next line starts mid-text --
        # which parses as *no* record for that physical line.
        store.append(key, {"v": 3})
        assert store.load(key) == {"v": 3}

    def test_corrupt_middle_line_is_skipped(self, tmp_path):
        store = CampaignStore(tmp_path)
        key = "ef" * 10
        store.append(key, {"v": 1})
        with open(store.shard_path(key), "a") as f:
            f.write("not json at all\n")
        store.append(key, {"v": 2})
        assert [r["v"] for r in store.records(key)] == [1, 2]

    def test_missing_shard(self, tmp_path):
        store = CampaignStore(tmp_path)
        assert store.load("0" * 20) is None
        assert "0" * 20 not in store
        assert store.records("0" * 20) == []

    def test_malformed_key_rejected(self, tmp_path):
        store = CampaignStore(tmp_path)
        with pytest.raises(ValueError, match="malformed shard key"):
            store.shard_path("../../etc/passwd")
        with pytest.raises(ValueError, match="malformed shard key"):
            store.append("UPPER-not-hex", {})

    def test_stream_scopes_to_keys(self, tmp_path):
        store = CampaignStore(tmp_path)
        for i in range(4):
            store.append(f"{i:020x}", {"v": i})
        scoped = list(store.stream([f"{i:020x}" for i in (2, 0)]))
        assert [r["v"] for r in scoped] == [2, 0]

    def test_append_batch_writes_per_record_bytes(self, tmp_path):
        """One batched flush leaves the same shard bytes as a sequence
        of durable per-record appends."""
        one = CampaignStore(tmp_path / "one")
        batch = CampaignStore(tmp_path / "batch")
        items = [(f"{i % 2:020x}", {"i": i, "x": 0.25 * i}) for i in range(5)]
        for key, record in items:
            one.append(key, record)
        batch.append_batch(items)
        assert one.keys() == batch.keys() == [f"{0:020x}", f"{1:020x}"]
        for key in one.keys():
            assert (
                one.shard_path(key).read_bytes()
                == batch.shard_path(key).read_bytes()
            )

    def test_append_batch_writes_per_record_lines(self):
        """The same holds for the stored lines of the ``mem:`` backend."""
        try:
            one = open_store("mem:batch-lines-one")
            batch = open_store("mem:batch-lines-batch")
            items = [(f"{i % 2:020x}", {"i": i, "x": 0.25 * i})
                     for i in range(5)]
            for key, record in items:
                one.append(key, record)
            batch.append_batch(items)
            assert one.keys() == batch.keys() == [f"{0:020x}", f"{1:020x}"]
            for key in one.keys():
                assert (
                    batch.backend.read_records(key)
                    == one.backend.read_records(key)
                )
        finally:
            for tag in ("one", "batch"):
                MemoryStoreBackend.discard(f"batch-lines-{tag}")

    def test_records_are_strict_json(self, tmp_path):
        """allow_nan=False end to end: a stored shard must parse with a
        strict JSON reader (no Python-only NaN literals)."""
        store = CampaignStore(tmp_path)
        record = experiment_record_to_json(
            ExperimentRecord(
                n_terminals=3,
                placement=Placement(eve_cell=4, terminal_cells=(0, 2, 6)),
                efficiency=0.0,
                reliability=float("nan"),
                secret_bits=0,
                transmitted_bits=100,
                min_entropy_bits=0.0,
            )
        )
        key = "12" * 10
        store.append(key, record)
        raw = store.shard_path(key).read_text()
        # parse_constant fires only on NaN/Infinity literals: loading
        # with a failing hook proves the line is strict JSON.
        json.loads(raw, parse_constant=lambda c: pytest.fail(f"non-strict {c}"))


class TestSpecCodec:
    def test_nested_spec_roundtrip(self):
        spec = Scenario(
            n_terminals=5,
            loss=ScheduleLossSpec(
                pattern_probabilities=((0.1, 0.2, 0.3, 0.4, 0.9),) * 3,
                slots_per_pattern=10,
            ),
            adversary=AdversarySpec(antennas=1, loss=0.7),
            estimator=CombinedEstimatorSpec(
                children=(
                    FixedFractionEstimatorSpec(fraction=0.3),
                    LeaveOneOutEstimatorSpec(rate_margin=0.02),
                )
            ),
            max_subset_size=3,
        )
        assert decode_spec(encode_spec(spec)) == spec

    def test_optional_none_fields_survive(self):
        # None (max_subset_size, adversary loss) must never be confused
        # with the NaN float sentinel.
        spec = Scenario(n_terminals=3, loss=IIDLossSpec(0.5))
        back = decode_spec(encode_spec(spec))
        assert back.max_subset_size is None
        assert back.adversary.loss is None

    def test_unknown_spec_class_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown spec"):
            decode_spec({"__spec__": "EvilSpec", "x": 1})
        with pytest.raises(TypeError, match="cannot encode"):
            encode_spec(np.random.default_rng(0))


class TestRecordCodecs:
    def test_experiment_record_nan_reliability_roundtrip(self):
        """The zero-secret convention: NaN reliability must survive the
        JSONL round-trip as NaN (not 1.0, not null-turned-0.0) so the
        aggregate exclusion rule keeps working on loaded records."""
        record = ExperimentRecord(
            n_terminals=4,
            placement=Placement(eve_cell=1, terminal_cells=(0, 2, 6, 8)),
            efficiency=0.0,
            reliability=float("nan"),
            secret_bits=0,
            transmitted_bits=12345,
            min_entropy_bits=0.0,
        )
        line = json.dumps(experiment_record_to_json(record), allow_nan=False)
        back = experiment_record_from_json(json.loads(line))
        assert math.isnan(back.reliability)
        assert back.placement == record.placement
        assert back.efficiency == 0.0
        assert back.secret_bits == 0
        assert back.transmitted_bits == 12345

    def test_experiment_record_finite_bit_identical(self):
        record = ExperimentRecord(
            n_terminals=4,
            placement=Placement(eve_cell=1, terminal_cells=(0, 2, 6, 8)),
            efficiency=0.03632871028997079,  # full float64 precision
            reliability=0.9999999999999998,
            secret_bits=77,
            transmitted_bits=3,
            min_entropy_bits=76.99999999999999,
        )
        line = json.dumps(experiment_record_to_json(record), allow_nan=False)
        assert experiment_record_from_json(json.loads(line)) == record

    def test_scenario_outcome_roundtrip_bit_identical(self):
        outcome = ScenarioOutcome(
            scenario=SCENARIO,
            result=BatchedRoundEngine(SCENARIO, seed=3).run(),
        )
        line = json.dumps(scenario_outcome_to_json(outcome), allow_nan=False)
        back = scenario_outcome_from_json(json.loads(line))
        assert back.scenario == outcome.scenario
        for name in (
            "secret_packets",
            "public_packets",
            "total_rows",
            "efficiency",
            "reliability",
            "eve_missed",
            "terminal_receptions",
            "delivery_rates",
            "hidden_dims",
            "eve_equations",
        ):
            a = getattr(outcome.result, name)
            b = getattr(back.result, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
        assert back.result.secret_bits == outcome.result.secret_bits

    def test_scenario_outcome_non_finite_arrays_tagged(self):
        """Arrays holding NaN or +-inf are tagged element by element,
        exactly as :func:`encode_value` tags them; finite arrays are
        stored as their plain lists."""
        result = BatchedRoundEngine(SCENARIO, seed=3).run()
        reliability = result.reliability.copy()
        reliability[:3] = [np.nan, np.inf, -np.inf]
        result = dataclasses.replace(result, reliability=reliability)
        payload = scenario_outcome_to_json(
            ScenarioOutcome(scenario=SCENARIO, result=result)
        )
        assert payload["reliability"] == encode_value(reliability.tolist())
        assert payload["reliability"][:3] == [
            {"__float__": "nan"},
            {"__float__": "inf"},
            {"__float__": "-inf"},
        ]
        assert payload["efficiency"] == result.efficiency.tolist()
        line = json.dumps(payload, allow_nan=False)
        back = scenario_outcome_from_json(json.loads(line)).result.reliability
        assert np.isnan(back[0]) and back[1] == np.inf and back[2] == -np.inf
        assert np.array_equal(back[3:], reliability[3:])

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError, match="not an experiment record"):
            experiment_record_from_json({"kind": "sim-cell"})
        with pytest.raises(ValueError, match="not a sim-cell record"):
            scenario_outcome_from_json({"kind": "experiment"})

    @pytest.mark.parametrize(
        "kind, missing", [
            ("experiment", ("min_entropy_bits", "leaked_bits")),
            ("sim-cell", ("hidden_dims", "eve_equations")),
        ],
        ids=["experiment", "sim-cell"],
    )
    def test_record_without_measured_secrecy_refused(self, kind, missing):
        """A stored line that predates measured secrecy fails to decode
        with a ValueError naming the first field it lacks, never a bare
        KeyError or a value rebuilt from the reliability."""
        if kind == "experiment":
            payload = experiment_record_to_json(EXPERIMENT)
            decode = experiment_record_from_json
        else:
            payload = scenario_outcome_to_json(ScenarioOutcome(
                scenario=SCENARIO, result=BatchedRoundEngine(SCENARIO, seed=3).run(),
            ))
            decode = scenario_outcome_from_json
        for dropped in (missing, missing[1:]):
            line = {k: v for k, v in payload.items() if k not in dropped}
            with pytest.raises(ValueError) as info:
                decode(line)
            message = str(info.value)
            assert repr(dropped[0]) in message
            assert "predates measured secrecy" in message
            assert "resume=False" in message

    def test_stored_leaked_bits_must_match_the_derivation(self):
        payload = experiment_record_to_json(EXPERIMENT)
        assert payload["leaked_bits"] == EXPERIMENT.leaked_bits == 77 - 70.5
        with pytest.raises(ValueError, match="leaked_bits"):
            experiment_record_from_json(dict(payload, leaked_bits=6.0))

    def test_measured_fields_are_required(self):
        kwargs = {
            f.name: getattr(EXPERIMENT, f.name)
            for f in dataclasses.fields(EXPERIMENT)
            if f.name != "min_entropy_bits"
        }
        with pytest.raises(TypeError, match="min_entropy_bits"):
            ExperimentRecord(**kwargs)
        with pytest.raises(AttributeError):
            ExperimentRecord(**kwargs, min_entropy_bits=1.0).leaked_bits = 2.0
        result = BatchedRoundEngine(SCENARIO, seed=3).run()
        for name in ("hidden_dims", "eve_equations"):
            arrays = {
                f.name: getattr(result, f.name)
                for f in dataclasses.fields(result)
                if f.name != name
            }
            with pytest.raises(TypeError, match=name):
                type(result)(**arrays)


EXPERIMENT = ExperimentRecord(
    n_terminals=4,
    placement=Placement(eve_cell=1, terminal_cells=(0, 2, 6, 8)),
    efficiency=0.25,
    reliability=70.5 / 77,
    secret_bits=77,
    transmitted_bits=308,
    min_entropy_bits=70.5,
)
