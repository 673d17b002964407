"""JSON codecs for stored campaign results.

Two record flavours flow through the store:

* **Testbed experiments** (:class:`repro.analysis.experiments.ExperimentRecord`)
  — one line per placement experiment: small scalars plus the placement.
* **Sim cells** (:class:`repro.sim.campaign.ScenarioOutcome`) — one line
  per scenario cell: the full declarative :class:`~repro.sim.spec.Scenario`
  plus every per-round array of its :class:`~repro.sim.engine.BatchResult`.

Round-trip contract (the resume guarantee leans on it): ``decode(encode
(x))`` reproduces ``x`` *bit-identically*.  Python's ``json`` emits
floats via ``repr`` (shortest round-tripping form), so finite float64
values survive exactly; non-finite values — a zero-secret experiment's
NaN reliability — are encoded as tagged sentinels because strict JSON
has no ``NaN`` literal and a bare ``null`` would collide with
legitimately-None optional fields.  Array dtypes are restored from an
explicit schema, not guessed from the JSON values.

Every record carries its measured secrecy (``min_entropy_bits`` and
``leaked_bits``; ``hidden_dims`` and ``eve_equations``).  A stored
record that lacks one predates measured secrecy: both decoders refuse
it with a ``ValueError`` that names the field (:func:`require_measured`),
and it must be re-run with ``resume=False``.

Spec reconstruction goes through a whitelist registry of the frozen
dataclasses in :mod:`repro.sim.spec` / :mod:`repro.testbed.placements`;
a store written by a future revision with unknown spec classes fails
loudly instead of resurrecting the wrong scenario.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Any, Dict

if TYPE_CHECKING:
    from repro.analysis.experiments import ExperimentRecord
    from repro.sim.campaign import ScenarioOutcome

import numpy as np

from repro.sim.spec import (
    AdversarySpec,
    CollusionEstimatorSpec,
    CombinedEstimatorSpec,
    FixedFractionEstimatorSpec,
    GilbertElliottLossSpec,
    IIDLossSpec,
    LeaveOneOutEstimatorSpec,
    MatrixLossSpec,
    OracleEstimatorSpec,
    Scenario,
    ScheduleLossSpec,
)
from repro.testbed.placements import Placement

__all__ = [
    "encode_value",
    "decode_value",
    "encode_spec",
    "decode_spec",
    "require_measured",
    "experiment_record_to_json",
    "experiment_record_from_json",
    "scenario_outcome_to_json",
    "scenario_outcome_from_json",
]

#: Spec classes the decoder may instantiate (name -> class).  Anything
#: else in a stored record is a hard error, never a silent guess.
SPEC_REGISTRY: Dict[str, type] = {
    cls.__name__: cls
    for cls in (
        IIDLossSpec,
        MatrixLossSpec,
        ScheduleLossSpec,
        GilbertElliottLossSpec,
        AdversarySpec,
        OracleEstimatorSpec,
        FixedFractionEstimatorSpec,
        LeaveOneOutEstimatorSpec,
        CollusionEstimatorSpec,
        CombinedEstimatorSpec,
        Scenario,
        Placement,
    )
}

_FLOAT_TAGS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def encode_value(value: Any) -> Any:
    """Scalars/containers -> strict JSON; non-finite floats get tagged."""
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return {"__float__": "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(f"cannot encode {type(value).__name__} in a record")


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value` (lists stay lists)."""
    if isinstance(value, dict):
        if set(value) == {"__float__"}:
            return _FLOAT_TAGS[value["__float__"]]
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


def encode_spec(obj: Any) -> Any:
    """A registered spec dataclass -> tagged JSON-able dict."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        name = type(obj).__name__
        if name not in SPEC_REGISTRY:
            raise TypeError(f"{name} is not a registered spec class")
        fields = {
            f.name: encode_spec(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__spec__": name, **fields}
    if isinstance(obj, (list, tuple)):
        return [encode_spec(v) for v in obj]
    return encode_value(obj)


def decode_spec(data: Any) -> Any:
    """Inverse of :func:`encode_spec`; JSON arrays become tuples (every
    sequence field in the registered specs is a tuple)."""
    if isinstance(data, dict) and "__spec__" in data:
        name = data["__spec__"]
        if name not in SPEC_REGISTRY:
            raise ValueError(f"stored record references unknown spec {name!r}")
        kwargs = {
            k: decode_spec(v) for k, v in data.items() if k != "__spec__"
        }
        return SPEC_REGISTRY[name](**kwargs)
    if isinstance(data, list):
        return tuple(decode_spec(v) for v in data)
    return decode_value(data)


#: The measured-secrecy fields every stored record of a kind carries.
_MEASURED_FIELDS = {
    "experiment": ("min_entropy_bits", "leaked_bits"),
    "sim-cell": ("hidden_dims", "eve_equations"),
}


def require_measured(data: Dict[str, Any]) -> None:
    """Refuse a stored record that lacks a measured-secrecy field."""
    for name in _MEASURED_FIELDS.get(data.get("kind"), ()):
        if name not in data:
            raise ValueError(
                f"stored {data['kind']} record lacks {name!r}: it predates "
                "measured secrecy; re-run it with resume=False"
            )


# -- testbed experiment records ------------------------------------------


def experiment_record_to_json(record: "ExperimentRecord") -> Dict[str, Any]:
    """:class:`ExperimentRecord` -> one JSONL line's payload."""
    return {
        "kind": "experiment",
        "n_terminals": record.n_terminals,
        "placement": encode_spec(record.placement),
        "efficiency": encode_value(record.efficiency),
        "reliability": encode_value(record.reliability),
        "secret_bits": record.secret_bits,
        "transmitted_bits": record.transmitted_bits,
        "min_entropy_bits": encode_value(record.min_entropy_bits),
        "leaked_bits": encode_value(record.leaked_bits),
    }


def experiment_record_from_json(data: Dict[str, Any]) -> "ExperimentRecord":
    """Rebuild the :class:`ExperimentRecord` bit-identically."""
    from repro.analysis.experiments import ExperimentRecord

    if data.get("kind") != "experiment":
        raise ValueError(f"not an experiment record: {data.get('kind')!r}")
    require_measured(data)
    record = ExperimentRecord(
        n_terminals=int(data["n_terminals"]),
        placement=decode_spec(data["placement"]),
        efficiency=float(decode_value(data["efficiency"])),
        reliability=float(decode_value(data["reliability"])),
        secret_bits=int(data["secret_bits"]),
        transmitted_bits=int(data["transmitted_bits"]),
        min_entropy_bits=float(decode_value(data["min_entropy_bits"])),
    )
    if float(decode_value(data["leaked_bits"])) != record.leaked_bits:
        raise ValueError(
            f"stored leaked_bits {data['leaked_bits']!r} is not "
            f"secret_bits - min_entropy_bits ({record.leaked_bits!r})"
        )
    return record


# -- sim cell records -----------------------------------------------------

#: BatchResult array fields and the dtype each must be restored with
#: (JSON cannot distinguish 1.0 from 1, so the schema is explicit).
_BATCH_ARRAYS = {
    "secret_packets": np.float64,
    "public_packets": np.float64,
    "total_rows": np.float64,
    "efficiency": np.float64,
    "reliability": np.float64,
    "eve_missed": np.int64,
    "terminal_receptions": np.int64,
    "delivery_rates": np.float64,
    "hidden_dims": np.float64,
    "eve_equations": np.float64,
}


def scenario_outcome_to_json(outcome: "ScenarioOutcome") -> Dict[str, Any]:
    """:class:`ScenarioOutcome` -> one JSONL line's payload."""
    result = outcome.result
    payload: Dict[str, Any] = {
        "kind": "sim-cell",
        "scenario": encode_spec(outcome.scenario),
    }
    for name in _BATCH_ARRAYS:
        values = getattr(result, name)
        # Only NaN and +-inf need tagging; a finite array's list is
        # already strict JSON, so it skips the per-element walk.
        payload[name] = (
            values.tolist()
            if np.isfinite(values).all()
            else encode_value(values.tolist())
        )
    return payload


def scenario_outcome_from_json(data: Dict[str, Any]) -> "ScenarioOutcome":
    """Rebuild the :class:`ScenarioOutcome` (arrays, dtypes and all)."""
    from repro.sim.campaign import ScenarioOutcome
    from repro.sim.engine import BatchResult

    if data.get("kind") != "sim-cell":
        raise ValueError(f"not a sim-cell record: {data.get('kind')!r}")
    require_measured(data)
    scenario = decode_spec(data["scenario"])
    arrays = {
        name: np.asarray(decode_value(data[name]), dtype=dtype)
        for name, dtype in _BATCH_ARRAYS.items()
    }
    return ScenarioOutcome(
        scenario=scenario, result=BatchResult(scenario=scenario, **arrays)
    )
