"""Per-layer spans and counts for the traced benchmark run.

The wrappers live here, in the benchmark, around public functions of
each layer; nothing under ``src/`` is edited.  A caller that imported a
function by name holds its own reference, so :func:`installed` rebinds
the wrapper in every loaded ``repro`` module that holds the original
(``realised_support_flow`` in ``repro.sim.engine`` and
``repro.sim.stack``; ``round_leakage``, ``plan_y_allocation`` and
``derive_session_keys`` in ``repro.service.engine``; and so on).

A span's self time is its duration minus the time its child spans
cover.  Spans are attributed to the work item that was running (a
placement, a stack signature or a session nonce) through
:data:`CURRENT_KEY`, which asyncio tasks inherit from the client that
started them.  Totals are kept in memory and written out once, at exit.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Tuple

#: The work item a span belongs to: a placement label, a stack
#: signature label or a session nonce.
CURRENT_KEY: contextvars.ContextVar[str] = contextvars.ContextVar(
    "perfbench_key", default="-"
)

#: (span name, module, function) — module-level functions.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("testbed.pertable", "repro.testbed.pertable", "placement_schedule_specs"),
    ("sim.reception", "repro.sim.reception", "sample_receptions"),
    ("sim.reception", "repro.sim.reception", "sample_receptions_stacked"),
    ("sim.stack", "repro.sim.stack", "run_stacked_batch"),
    ("theory.flow", "repro.theory.allocation", "realised_support_flow"),
    ("theory.lp", "repro.theory.efficiency", "group_allocation_profile"),
    ("coding.flow_solve", "repro.coding.privacy", "solve_transport_counts"),
    ("coding.alloc_lp", "repro.coding.privacy", "plan_y_allocation"),
    ("gf.matmul", "repro.gf.field", "gf_matmul"),
    ("core.leakage", "repro.core.eve", "round_leakage"),
    ("service.derive", "repro.service.derive", "derive_session_keys"),
    ("analysis.summary", "repro.store.aggregate", "stream_aggregates"),
)

#: (span name, module, class, method).
METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("sim.engine", "repro.sim.engine", "BatchedRoundEngine", "run"),
    ("gf.rank", "repro.gf.linalg", "GFMatrix", "rank"),
    ("auth.mac_tag", "repro.auth.bootstrap", "AuthenticatedChannel", "authenticate"),
    ("auth.mac_verify", "repro.auth.bootstrap", "AuthenticatedChannel", "verify_next"),
    ("service.pair_pool", "repro.service.config", "ServiceConfig", "pair_pool"),
    ("service.engine", "repro.service.engine", "LeaderEngine", "on_frame"),
    ("service.engine", "repro.service.engine", "FollowerEngine", "on_frame"),
    ("service.engine_start", "repro.service.engine", "FollowerEngine", "start"),
    ("store.append", "repro.store.store", "CampaignStore", "append"),
    ("store.append_batch", "repro.store.store", "CampaignStore", "append_batch"),
    ("store.read", "repro.store.store", "CampaignStore", "load"),
)

#: Counted but not timed: HKDF expansion is the bulk of a pair pool's
#: cost, so a span here would empty ``service.pair_pool``'s self time.
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("service.hkdf", "repro.service.derive", "hkdf_expand"),
)


class Tracer:
    """Span self times and call counts, per span name and per work item."""

    def __init__(self) -> None:
        self._stack: List[float] = []  # child time of each open span
        # key -> span name -> [calls, self seconds]
        self.spans: Dict[str, Dict[str, List[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0.0])
        )
        # key -> seconds inside outermost spans (the program's own work)
        self.busy: Dict[str, float] = defaultdict(float)

    def span(self, name: str, fn: Callable) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                child = stack.pop()
                key = CURRENT_KEY.get()
                if stack:
                    stack[-1] += duration
                else:
                    self.busy[key] += duration
                entry = self.spans[key][name]
                entry[0] += 1
                entry[1] += duration - child

        for attr in ("cache_info", "cache_clear"):  # lru_cache helpers
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.spans[CURRENT_KEY.get()][name][0] += 1
            return fn(*args, **kwargs)

        return counted

    def totals(self) -> Dict[str, List[float]]:
        """Span name -> [calls, self seconds], summed over work items."""
        out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for per_key in self.spans.values():
            for name, (calls, self_s) in per_key.items():
                out[name][0] += calls
                out[name][1] += self_s
        return out

    def write(self, path: str, extra: Dict) -> None:
        doc = {
            "per_item": {
                key: {
                    "busy_s": self.busy.get(key, 0.0),
                    "spans": {n: list(v) for n, v in sorted(per_key.items())},
                }
                for key, per_key in sorted(self.spans.items())
            },
            **extra,
        }
        with open(path, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)


def _rebind(original: Callable, replacement: Callable) -> List[Tuple[object, str]]:
    """Bind ``replacement`` wherever a loaded repro module holds ``original``."""
    bound = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                bound.append((module, attr))
    return bound


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Install every wrapper for the duration of the block."""
    undo: List[Callable[[], None]] = []
    try:
        for wrap, targets in ((tracer.span, FUNCTIONS), (tracer.count, COUNTED)):
            for span_name, module_name, attr in targets:
                original = getattr(importlib.import_module(module_name), attr)
                for module, bound_attr in _rebind(original, wrap(span_name, original)):
                    undo.append(functools.partial(setattr, module, bound_attr, original))
        for span_name, module_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, tracer.span(span_name, original))
            undo.append(functools.partial(setattr, cls, attr, original))
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()
