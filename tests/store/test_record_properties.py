"""Property tests for the record codecs (hypothesis).

Over every record the producers can build, ``decode(encode(x))`` is
bit-identical through a strict JSON line, and a decoded experiment's
``leaked_bits`` is the one derivation from its measured min-entropy.
These add generated inputs to the fixed cases of
``tests/store/test_store.py::TestRecordCodecs``.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import ExperimentRecord
from repro.sim import (
    AdversarySpec,
    BatchedRoundEngine,
    FixedFractionEstimatorSpec,
    IIDLossSpec,
    LeaveOneOutEstimatorSpec,
    OracleEstimatorSpec,
    Scenario,
)
from repro.sim.campaign import ScenarioOutcome
from repro.store.records import (
    experiment_record_from_json,
    experiment_record_to_json,
    scenario_outcome_from_json,
    scenario_outcome_to_json,
)
from repro.testbed import Placement

unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def experiment_records(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    cells = draw(st.permutations(range(9)))
    secret_bits = draw(st.integers(min_value=0, max_value=10**7))
    return ExperimentRecord(
        n_terminals=n,
        placement=Placement(eve_cell=cells[0], terminal_cells=tuple(sorted(cells[1:n + 1]))),
        efficiency=draw(unit),
        # The campaign convention: a zero-secret experiment has NaN
        # reliability.
        reliability=draw(unit) if secret_bits > 0 else math.nan,
        secret_bits=secret_bits,
        transmitted_bits=draw(st.integers(min_value=0, max_value=10**9)),
        min_entropy_bits=draw(
            st.floats(min_value=0.0, max_value=float(secret_bits))
        ),
    )


scenarios = st.builds(
    Scenario,
    n_terminals=st.integers(min_value=2, max_value=4),
    loss=st.builds(IIDLossSpec, st.floats(min_value=0.1, max_value=0.8)),
    adversary=st.builds(AdversarySpec, antennas=st.integers(min_value=1, max_value=2)),
    estimator=st.sampled_from((
        OracleEstimatorSpec(),
        FixedFractionEstimatorSpec(fraction=0.25),
        LeaveOneOutEstimatorSpec(rate_margin=0.05),
    )),
    n_x_packets=st.integers(min_value=10, max_value=40),
    rounds=st.integers(min_value=1, max_value=6),
    payload_bytes=st.sampled_from((16, 32)),
)


def strict_line(payload) -> str:
    return json.dumps(payload, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(experiment_records())
def test_experiment_record_roundtrip(record):
    line = strict_line(experiment_record_to_json(record))
    back = experiment_record_from_json(json.loads(line))
    # The line holds every float as its shortest round-trip repr, so
    # equal lines mean bit-identical fields (NaN included).
    assert strict_line(experiment_record_to_json(back)) == line
    assert back.placement == record.placement
    assert back.min_entropy_bits.hex() == record.min_entropy_bits.hex()
    assert back.leaked_bits == max(float(back.secret_bits) - back.min_entropy_bits, 0.0)
    assert math.isnan(back.reliability) == (record.secret_bits == 0)


@settings(max_examples=50, deadline=None)
@given(scenarios, st.integers(min_value=0, max_value=2**32 - 1))
def test_scenario_outcome_roundtrip(scenario, seed):
    outcome = ScenarioOutcome(
        scenario=scenario, result=BatchedRoundEngine(scenario, seed=seed).run()
    )
    line = strict_line(scenario_outcome_to_json(outcome))
    back = scenario_outcome_from_json(json.loads(line))
    assert back.scenario == scenario
    assert strict_line(scenario_outcome_to_json(back)) == line
    for name, a in vars(outcome.result).items():
        if name == "scenario":
            continue
        b = getattr(back.result, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
