"""`reprolint`: the repo's machine-checked reproducibility contract.

Every guarantee this reproduction makes — bit-identical resume,
live-service keys identical to the simulator, crash-safe leases —
rests on code invariants that used to live in review folklore and
after-the-fact regression tests (the ``PYTHONHASHSEED``-dependent
max-flow assignment fixed in PR 1, the ``hash()``-based
``_experiment_seed`` fixed in PR 2).  This package turns those
invariants into an AST static-analysis pass:

============  ==========================  =====================================
Rule          Name                        Invariant
============  ==========================  =====================================
R1            no-nondeterminism           no ``hash()`` / bare ``random.*`` /
                                          legacy ``np.random`` global state /
                                          raw set iteration feeding ordered
                                          output in determinism-critical code
R2            sans-io                     the sans-io engines and ``core/``
                                          never import event loops, sockets,
                                          clocks, or the filesystem
R3            monotonic-clock             ``time.time()`` is for wall-clock
                                          *timestamps*; durations come from
                                          the monotonic clocks
R4            durable-write               writes under ``store/`` follow
                                          temp+fsync+rename or append+fsync
R5            seed-provenance             every RNG construction is traceable
                                          to an explicit seed / SeedSequence
R6            typed-errors                ``service/`` fail-closed paths raise
                                          the :mod:`repro.service.errors`
                                          taxonomy, never bare/generic
============  ==========================  =====================================

Module map:

- :mod:`repro.lint.rules` — the visitor/rule framework and the six rules.
- :mod:`repro.lint.runner` — file discovery, suppression comments,
  per-file orchestration (:func:`lint_source`, :func:`lint_paths`).
- :mod:`repro.lint.__main__` — the ``python -m repro.lint`` CLI.

Usage::

    python -m repro.lint src scripts          # lint; exit 1 on any finding
    python -m repro.lint --list-rules         # what is enforced, and where

Every violation fails the run.  The one exception is a justified
``# reprolint: disable=R3`` (comma-separated ids, or ``all``) on the
offending line.
"""

from repro.lint.rules import RULES, Rule, Violation, iter_rules
from repro.lint.runner import LintReport, lint_paths, lint_source

__all__ = [
    "LintReport",
    "RULES",
    "Rule",
    "Violation",
    "iter_rules",
    "lint_paths",
    "lint_source",
]
