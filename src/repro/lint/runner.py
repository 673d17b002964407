"""File discovery, suppression comments, and per-file orchestration.

The unit of work is :func:`lint_source`: parse once, run every rule
that patrols the file's repo-relative path, drop violations suppressed
by a same-line ``# reprolint: disable=...`` comment.  :func:`lint_paths`
walks directories (skipping caches and hidden trees) and aggregates a
:class:`LintReport`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.lint.rules import RULES, ModuleSource, Rule, Violation

__all__ = ["LintReport", "lint_paths", "lint_source", "suppressions"]

#: ``# reprolint: disable=R1,R4`` (ids case-insensitive, or ``all``).
_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+)")

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "node_modules"}


def suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Per-line suppressed rule ids (``{"ALL"}`` suppresses everything).

    The comment governs exactly its own physical line — for a
    multi-line statement, put it on the line the violation reports.
    """
    table: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        ids = {
            part.strip().upper()
            for part in match.group(1).split(",")
            if part.strip()
        }
        if ids:
            table[lineno] = ids
    return table


def lint_source(
    source: str,
    path: str,
    rules: Iterable[Rule] | None = None,
) -> List[Violation]:
    """Lint one module's text as repo-relative ``path``.

    Unparseable source yields a single ``E0`` violation rather than
    raising: a file the pass cannot read is a finding, not a crash.
    """
    path = Path(path).as_posix()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Violation(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule="E0",
                message=f"file does not parse: {exc.msg}",
            )
        ]
    lines = tuple(source.splitlines())
    module = ModuleSource(path=path, tree=tree, lines=lines)
    suppressed = suppressions(lines)
    found: List[Violation] = []
    for rule in rules if rules is not None else RULES.values():
        if not rule.applies_to(path):
            continue
        for violation in rule.check(module):
            active = suppressed.get(violation.line, set())
            if violation.rule.upper() in active or "ALL" in active:
                continue
            found.append(violation)
    return sorted(found)


def _discover(paths: Sequence[str], root: Path) -> Iterator[Path]:
    for given in paths:
        target = (root / given).resolve() if not Path(given).is_absolute() else Path(given)
        if target.is_file():
            if target.suffix == ".py":
                yield target
            continue
        if not target.is_dir():
            raise FileNotFoundError(f"lint target {given!r} does not exist")
        for candidate in sorted(target.rglob("*.py")):
            parts = set(candidate.parts)
            if parts & _SKIP_DIRS:
                continue
            yield candidate


@dataclass(frozen=True)
class LintReport:
    """Everything the CLI needs: what fired, over which files."""

    violations: Tuple[Violation, ...]
    files_checked: int


def lint_paths(
    paths: Sequence[str],
    root: Path | str | None = None,
) -> LintReport:
    """Lint every ``*.py`` under ``paths``, relative to ``root`` (cwd).

    Rule patrol patterns match repo-relative posix paths, so run this
    from the repository root (or pass it as ``root``).
    """
    base = Path(root) if root is not None else Path.cwd()
    violations: List[Violation] = []
    seen: Set[Path] = set()
    count = 0
    for file_path in _discover(paths, base):
        if file_path in seen:
            continue
        seen.add(file_path)
        count += 1
        try:
            relative = file_path.relative_to(base.resolve()).as_posix()
        except ValueError:
            relative = file_path.as_posix()
        violations.extend(
            lint_source(file_path.read_text(encoding="utf-8"), relative)
        )
    return LintReport(violations=tuple(sorted(violations)), files_checked=count)
