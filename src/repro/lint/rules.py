"""The reprolint rule framework and the six repository rules.

A rule is a small class: an ``id`` (``R1`` … ``R6``), a human name, the
invariant it encodes, the path patterns it patrols, and a ``check``
method that walks one module's AST and yields :class:`Violation`
objects.  Rules register themselves into :data:`RULES` via the
:func:`register` decorator, so adding a rule is one class and zero
wiring.

Every rule here is *syntactic*: it flags the textual idiom that caused
a real bug (see each rule's ``rationale``), not a semantic property.
That keeps the pass dependency-free, fast (one ``ast.parse`` per file)
and — because the rules run on their own source — self-hosting.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type

__all__ = [
    "RULES",
    "ModuleSource",
    "Rule",
    "Violation",
    "iter_rules",
    "register",
]


@dataclass(frozen=True, order=True)
class Violation:
    """One rule firing at one source location."""

    path: str  # repo-relative posix path
    line: int  # 1-based
    col: int  # 0-based
    rule: str  # "R1" … "R6" (or "E0" for unparseable files)
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


@dataclass(frozen=True)
class ModuleSource:
    """One parsed module handed to every applicable rule."""

    path: str  # repo-relative posix path
    tree: ast.Module
    lines: Tuple[str, ...] = field(default=())


class Rule:
    """Base class: subclass, set the metadata, implement ``check``."""

    id: str = ""
    name: str = ""
    rationale: str = ""
    #: fnmatch patterns over repo-relative posix paths.  ``*`` crosses
    #: ``/`` in :func:`fnmatch.fnmatch`, so ``src/repro/sim/*`` patrols
    #: the whole subtree.
    patrols: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        return any(fnmatch(path, pattern) for pattern in self.patrols)

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, module: ModuleSource, node: ast.AST, message: str) -> Violation:
        return Violation(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
        )


RULES: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate the rule and add it to :data:`RULES`."""
    rule = cls()
    if not rule.id or rule.id in RULES:
        raise ValueError(f"rule id {rule.id!r} is empty or already registered")
    RULES[rule.id] = rule
    return cls


def iter_rules() -> List[Rule]:
    """Every registered rule, in id order."""
    return [RULES[rule_id] for rule_id in sorted(RULES)]


# ---------------------------------------------------------------------------
# AST helpers shared by the rules
# ---------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def annotate_parents(tree: ast.Module) -> None:
    """Attach ``_reprolint_parent`` links so rules can look outward."""
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            child._reprolint_parent = parent  # type: ignore[attr-defined]


def enclosing_function(node: ast.AST) -> Optional[ast.AST]:
    """The nearest enclosing (async) function def, via parent links."""
    current = getattr(node, "_reprolint_parent", None)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current
        current = getattr(current, "_reprolint_parent", None)
    return None


def _strip_unary(node: ast.AST) -> ast.AST:
    while isinstance(node, ast.UnaryOp):
        node = node.operand
    return node


def _is_set_expression(node: ast.AST) -> bool:
    """Syntactically certain to evaluate to a ``set``/``frozenset``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name in {"set", "frozenset"}
    return False


# ---------------------------------------------------------------------------
# R1 — no-nondeterminism
# ---------------------------------------------------------------------------

#: np.random attributes that are *seedable constructions*, not draws
#: from (or mutations of) the hidden legacy global state.
_NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}


@register
class NoNondeterminism(Rule):
    """Forbid the process-salt and global-RNG idioms in deterministic code."""

    id = "R1"
    name = "no-nondeterminism"
    rationale = (
        "PR 1 fixed a PYTHONHASHSEED-dependent max-flow assignment in "
        "coding/privacy.py and PR 2 a hash()-based _experiment_seed: "
        "hash(), bare random.*, the legacy np.random global state, and "
        "raw set iteration all vary across processes, breaking "
        "bit-identical campaigns and resume."
    )
    patrols = (
        "src/repro/sim/*",
        "src/repro/coding/*",
        "src/repro/solvers.py",
        "src/repro/theory/*",
        "src/repro/net/*",
        "src/repro/testbed/*",
        "src/repro/store/fingerprint.py",
        "src/repro/service/*",
    )

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        annotate_parents(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node)
                yield from self._check_ordered_sink(module, node)
            elif isinstance(node, (ast.For, ast.comprehension)):
                iterable = node.iter
                if _is_set_expression(iterable):
                    yield self.violation(
                        module,
                        iterable,
                        "iterating a set in PYTHONHASHSEED order; wrap it "
                        "in sorted(...) before feeding ordered output",
                    )

    def _check_call(self, module: ModuleSource, node: ast.Call) -> Iterator[Violation]:
        name = dotted_name(node.func)
        if name == "hash":
            func = enclosing_function(node)
            if not (func is not None and func.name == "__hash__"):
                yield self.violation(
                    module,
                    node,
                    "hash() is salted per process (PYTHONHASHSEED); derive "
                    "identities from repro.store.fingerprint instead",
                )
            return
        if name is None:
            return
        parts = name.split(".")
        if parts[0] == "random" and len(parts) == 2:
            if parts[1] == "Random":
                if not node.args and not node.keywords:
                    yield self.violation(
                        module,
                        node,
                        "random.Random() without a seed draws OS entropy; "
                        "pass an explicit seed",
                    )
            else:
                yield self.violation(
                    module,
                    node,
                    f"random.{parts[1]}() uses the shared global RNG; "
                    "construct a seeded random.Random(seed) instead",
                )
            return
        if (
            len(parts) >= 3
            and parts[-3] in {"np", "numpy"}
            and parts[-2] == "random"
            and parts[-1] not in _NP_RANDOM_ALLOWED
        ):
            yield self.violation(
                module,
                node,
                f"np.random.{parts[-1]}() drives the legacy global state; "
                "use a Generator from np.random.default_rng(seed)",
            )

    def _check_ordered_sink(
        self, module: ModuleSource, node: ast.Call
    ) -> Iterator[Violation]:
        """``list``/``tuple``/``enumerate`` over a raw set → ordered output."""
        name = dotted_name(node.func)
        if name in {"list", "tuple", "enumerate", "iter"} and node.args:
            if _is_set_expression(node.args[0]):
                yield self.violation(
                    module,
                    node.args[0],
                    f"{name}() over a set materialises PYTHONHASHSEED "
                    "order; use sorted(...)",
                )


# ---------------------------------------------------------------------------
# R2 — sans-io purity
# ---------------------------------------------------------------------------

_IO_MODULES = {
    "asyncio",
    "socket",
    "selectors",
    "ssl",
    "time",
    "os",
    "io",
    "pathlib",
    "shutil",
    "tempfile",
    "subprocess",
    "threading",
    "multiprocessing",
    "signal",
    "fcntl",
    "random",
    "secrets",
}


@register
class SansIo(Rule):
    """The protocol engines and ``core/`` stay pure state machines."""

    id = "R2"
    name = "sans-io"
    rationale = (
        "The live engines and core.ProtocolSession compute every round "
        "with one round core (core/round.py), and the service asserts "
        "its keys bit-identical to the session's by replaying the same "
        "traces through both; that only holds while the core, the "
        "engines and the rest of core/ are pure functions of their "
        "inputs — no event loop, sockets, clocks, filesystem, or "
        "ambient entropy."
    )
    patrols = (
        "src/repro/core/*",
        "src/repro/service/engine.py",
        "src/repro/service/frames.py",
        "src/repro/service/derive.py",
    )

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top in _IO_MODULES:
                        yield self.violation(
                            module,
                            node,
                            f"sans-io module imports {alias.name!r}; IO, "
                            "clocks and entropy belong in the drivers",
                        )
            elif isinstance(node, ast.ImportFrom):
                top = (node.module or "").split(".")[0]
                if node.level == 0 and top in _IO_MODULES:
                    yield self.violation(
                        module,
                        node,
                        f"sans-io module imports from {node.module!r}; IO, "
                        "clocks and entropy belong in the drivers",
                    )


# ---------------------------------------------------------------------------
# R3 — monotonic-clock discipline
# ---------------------------------------------------------------------------


@register
class MonotonicClock(Rule):
    """Durations come from monotonic clocks, never wall-clock deltas."""

    id = "R3"
    name = "monotonic-clock"
    rationale = (
        "time.time() steps under NTP slew and host clock changes, so "
        "wall-clock deltas silently corrupt lease expiry and timing "
        "reports; time.time() is reserved for timestamps that leave "
        "the process."
    )
    patrols = ("src/*", "scripts/*")

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            operands: List[ast.AST] = []
            if isinstance(node, ast.BinOp):
                operands = [node.left, node.right]
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
            elif isinstance(node, ast.AugAssign):
                operands = [node.value]
            for operand in operands:
                operand = _strip_unary(operand)
                if (
                    isinstance(operand, ast.Call)
                    and dotted_name(operand.func) == "time.time"
                ):
                    yield self.violation(
                        module,
                        operand,
                        "time.time() in duration arithmetic; use "
                        "time.monotonic()/perf_counter() (wall clock is "
                        "for timestamps only)",
                    )


# ---------------------------------------------------------------------------
# R4 — durable-write discipline
# ---------------------------------------------------------------------------


def _literal_mode(node: ast.Call) -> Optional[str]:
    """The mode of a builtin ``open`` call, when statically knowable."""
    mode: Optional[ast.AST] = None
    if len(node.args) >= 2:
        mode = node.args[1]
    else:
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None  # dynamic mode: cannot verify


def _calls_in(func: ast.AST, names: Sequence[str]) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and dotted_name(node.func) in set(names):
            return True
    return False


def _declares_synchronous_full(scope: ast.AST) -> bool:
    """A ``PRAGMA synchronous=FULL`` string constant appears in scope."""
    for node in ast.walk(scope):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            lowered = node.value.lower()
            if "synchronous" in lowered and "full" in lowered:
                return True
    return False


@register
class DurableWrite(Rule):
    """Every store write is crash-safe: temp+fsync+rename, or append+fsync."""

    id = "R4"
    name = "durable-write"
    rationale = (
        "Resume correctness (PR 4/5) is exactly the claim that an "
        "acknowledged record survives a crash: shard appends fsync "
        "before returning, whole-document writes go through a "
        "same-directory temp file, fsync, then os.replace, and sqlite "
        "connections run at synchronous=FULL so a COMMIT means fsync "
        "(WAL's default synchronous=NORMAL can drop acknowledged "
        "transactions on power loss)."
    )
    patrols = ("src/repro/store/*",)

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        annotate_parents(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if isinstance(node.func, ast.Attribute) and node.func.attr in {
                "write_text",
                "write_bytes",
            }:
                yield self.violation(
                    module,
                    node,
                    f".{node.func.attr}() cannot fsync before closing; use "
                    "open + flush + os.fsync (+ os.replace for rewrites)",
                )
                continue
            if name == "sqlite3.connect":
                func = enclosing_function(node)
                scope: ast.AST = func if func is not None else module.tree
                if not _declares_synchronous_full(scope):
                    yield self.violation(
                        module,
                        node,
                        "sqlite3.connect() without 'PRAGMA synchronous="
                        "FULL' in the same function; an acknowledged "
                        "COMMIT could be lost on power failure",
                    )
                continue
            if name != "open":
                continue
            mode = _literal_mode(node)
            if mode is not None and not any(c in mode for c in "wxa+"):
                continue  # read-only open
            func = enclosing_function(node)
            if func is None:
                yield self.violation(
                    module,
                    node,
                    "module-level write: wrap it in a function using the "
                    "temp+fsync+rename or append+fsync idiom",
                )
                continue
            if mode is None:
                yield self.violation(
                    module,
                    node,
                    "open() with a dynamic mode cannot be verified "
                    "crash-safe; use a literal mode",
                )
                continue
            # os.sync counts as the durability terminator too: the
            # batched-append discipline buffers many shard writes and
            # commits them with one host-wide sync per flush (Linux
            # sync(2) waits for writeback), which is exactly as durable
            # as per-file fsync and what makes flushes O(1) syncs.
            fsynced = _calls_in(func, ("os.fsync", "os.sync"))
            renamed = _calls_in(func, ("os.replace", "os.rename"))
            if ("w" in mode or "x" in mode) and not (fsynced and renamed):
                yield self.violation(
                    module,
                    node,
                    f"open(..., {mode!r}) rewrite without the "
                    "temp+fsync+os.replace idiom in the same function",
                )
            elif not fsynced:
                yield self.violation(
                    module,
                    node,
                    f"open(..., {mode!r}) append without os.fsync in the "
                    "same function; an acknowledged record could be lost",
                )


# ---------------------------------------------------------------------------
# R5 — seed provenance
# ---------------------------------------------------------------------------

#: Substrings that mark an expression as seed-derived.  Deliberately
#: generous: the rule exists to catch RNGs constructed from *nothing*
#: (OS entropy) or from process-dependent values, not to referee
#: variable naming.
_SEED_TOKENS = ("seed", "entropy", "spawn", "rng", "fingerprint")
#: Exact identifiers accepted without a substring hit — the
#: conventional short names for a SeedSequence.
_SEED_EXACT = {"ss", "seq", "SeedSequence"}


def _seed_derived(nodes: Sequence[ast.AST]) -> bool:
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Constant) and isinstance(node.value, int):
                return True
            token: Optional[str] = None
            if isinstance(node, ast.Name):
                token = node.id
            elif isinstance(node, ast.Attribute):
                token = node.attr
            elif isinstance(node, ast.keyword):
                token = node.arg
            if token is not None:
                lowered = token.lower()
                if any(mark in lowered for mark in _SEED_TOKENS):
                    return True
                if token in _SEED_EXACT:
                    return True
    return False


@register
class SeedProvenance(Rule):
    """Every RNG construction names where its seed comes from."""

    id = "R5"
    name = "seed-provenance"
    rationale = (
        "Campaign cells draw from SeedSequence(entropy, spawn_key="
        "content-hash) so stored shards survive grid growth; an RNG "
        "constructed from OS entropy (or an untraceable value) makes "
        "the experiment unrepeatable and the store unkeyable."
    )
    patrols = ("src/*", "scripts/*")

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            leaf = name.split(".")[-1]
            if leaf not in {"default_rng", "Generator", "SeedSequence"}:
                continue
            if leaf == "Generator" and ".random." not in f".{name}":
                # Only numpy's np.random.Generator is in scope; bare
                # `Generator` is typing.Generator in annotations.
                continue
            arguments: List[ast.AST] = [*node.args, *node.keywords]
            if not arguments:
                yield self.violation(
                    module,
                    node,
                    f"{leaf}() with no seed draws OS entropy; pass an "
                    "explicit seed or SeedSequence",
                )
            elif not _seed_derived(arguments):
                yield self.violation(
                    module,
                    node,
                    f"{leaf}(...) from a value with no visible seed "
                    "provenance; derive it from a seed/SeedSequence "
                    "(or name it so the derivation is evident)",
                )


# ---------------------------------------------------------------------------
# R6 — typed-error discipline
# ---------------------------------------------------------------------------

_GENERIC_RAISES = {"Exception", "BaseException", "RuntimeError"}


@register
class TypedErrors(Rule):
    """Service fail-closed paths speak the errors.py taxonomy."""

    id = "R6"
    name = "typed-errors"
    rationale = (
        "Drivers map exception classes to ABORT wire codes "
        "(errors.ABORT_CODE_OF) and guarantee no key material escapes "
        "a raising session; a bare except can swallow an abort, and a "
        "generic raise reaches the peer as INTERNAL instead of its "
        "real failure mode."
    )
    patrols = ("src/repro/service/*",)

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.violation(
                    module,
                    node,
                    "bare except: swallows SystemExit/KeyboardInterrupt "
                    "and untyped failures; catch the narrowest "
                    "repro.service.errors class",
                )
            elif isinstance(node, ast.Raise):
                exc = node.exc
                if isinstance(exc, ast.Call):
                    exc = exc.func
                name = dotted_name(exc) if exc is not None else None
                if name in _GENERIC_RAISES:
                    yield self.violation(
                        module,
                        node,
                        f"raise {name} bypasses the errors.py taxonomy "
                        "(peer sees AbortCode.INTERNAL); raise the typed "
                        "ServiceError subclass",
                    )
