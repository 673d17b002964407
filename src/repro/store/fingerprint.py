"""Content-hashed scenario fingerprints: the store's shard keys.

A fingerprint is a stable hex digest of a work item's *content* — the
``(n, loss, adversary, estimator, seed)`` spec for a sim cell, the
``(testbed, session, placement, engine, estimator, seed)`` tuple for a
testbed experiment — so that

* rerunning the same campaign maps every item onto the same JSONL
  shard (reruns dedupe instead of double-counting),
* growing a grid (new n values, new loss models) leaves previously
  completed cells' shards valid, and
* two *different* specs can never silently share a shard.

Canonicalisation rules: dataclasses serialise as ``{"__dataclass__":
ClassName, fields...}``, mappings sort their keys, tuples and lists
flatten to JSON arrays, numpy scalars collapse to their Python
spellings, non-finite floats become tagged sentinels
(strict JSON has no ``NaN``), and callables — estimator factories —
serialise as their dotted qualname plus their instance attributes
(a factory's behaviour lives in its code identity and configuration,
not its memory address); a class is its qualname alone, a bound
method is its qualname plus the object it is bound to, and a
``functools.partial`` is its wrapped callable plus the positional and
keyword arguments it binds.  The digest is SHA-256, so fingerprints are
independent of ``PYTHONHASHSEED``, process, and platform.

The same canonical bytes also seed the campaign runners' per-cell RNG
streams (:func:`fingerprint_spawn_key`): a cell's random draw is a pure
function of (campaign seed, cell content), independent of its position
in the grid — which is exactly what lets a store shard written by one
grid be resumed by a larger one.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
import math
from typing import Any, Dict, Tuple

import numpy as np

__all__ = ["canonical_json", "fingerprint", "fingerprint_spawn_key"]


def _encode(obj: Any) -> Any:
    """Map an arbitrary spec object onto canonical JSON-able data."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: _encode(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        return {"__dataclass__": type(obj).__name__, **fields}
    if isinstance(obj, dict):
        return {str(k): _encode(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    # Numpy scalar spellings of a value fingerprint like the Python
    # spelling: a spec built with np.int64 group sizes or np.float32
    # loss rates is the *same spec* (the float32 case still hashes the
    # exact float64 value it widens to — a genuinely different number
    # stays a different key).
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return {"__float__": "nan"}
        if math.isinf(obj):
            return {"__float__": "inf" if obj > 0 else "-inf"}
        return obj
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, functools.partial):
        # A partial is its wrapped callable plus the arguments it binds.
        return {
            "__callable__": "functools.partial",
            "func": _encode(obj.func),
            "args": _encode(obj.args),
            "keywords": _encode(obj.keywords),
        }
    if inspect.ismethod(obj):
        # A bound method is its function plus the object it is bound
        # to: Factory(1).make and Factory(2).make are two factories.
        receiver = obj.__self__
        return {
            "__callable__": f"{obj.__module__}.{obj.__qualname__}",
            "self": (
                _encode(receiver)
                if dataclasses.is_dataclass(receiver)
                else _configured(receiver)
            ),
        }
    if callable(obj):
        return _configured(obj)
    raise TypeError(f"cannot fingerprint {type(obj).__name__}: {obj!r}")


def _configured(obj: Any) -> Any:
    """A callable, or a method's receiver, as its qualname plus state.

    Functions carry their own qualname, and so does a class (its
    __dict__ holds methods and descriptors, not configuration); a
    configured *instance* is identified by its class plus state.
    """
    target = obj if hasattr(obj, "__qualname__") else type(obj)
    state = {} if isinstance(obj, type) else _instance_state(obj)
    return {
        "__callable__": f"{target.__module__}.{target.__qualname__}",
        "state": _encode(state),
    }


def _instance_state(obj: Any) -> Dict[str, Any]:
    """An instance's attributes: its ``__dict__`` plus its set slots.

    A class with ``__slots__`` keeps its configuration in slots, not in
    ``__dict__``; the slots named along ``type(obj).__mro__`` are read
    (private names mangled as Python stores them), unset ones skipped.
    """
    state = dict(getattr(obj, "__dict__", None) or {})
    for cls in type(obj).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            if name in ("__dict__", "__weakref__"):
                continue
            if name.startswith("__") and not name.endswith("__"):
                name = f"_{cls.__name__.lstrip('_')}{name}"
            try:
                state.setdefault(name, getattr(obj, name))
            except AttributeError:  # an unset slot
                pass
    return state


def canonical_json(obj: Any) -> str:
    """The canonical serialisation the digest is computed over."""
    return json.dumps(
        _encode(obj), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def fingerprint(obj: Any, length: int = 20) -> str:
    """Stable hex key for a work item (default 80 bits of SHA-256)."""
    digest = hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
    return digest[:length]


def fingerprint_spawn_key(obj: Any, words: int = 4) -> Tuple[int, ...]:
    """The first ``words`` uint32s of the digest, for ``SeedSequence``.

    ``SeedSequence(entropy=campaign_seed, spawn_key=...)`` with this key
    gives every scenario a private RNG stream that depends only on the
    campaign seed and the cell's content — not on grid order, worker
    count, or interpreter hash seed.
    """
    digest = hashlib.sha256(canonical_json(obj).encode("utf-8")).digest()
    return tuple(
        int.from_bytes(digest[4 * i : 4 * i + 4], "big") for i in range(words)
    )
