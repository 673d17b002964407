"""Docs lint: every path, module and anchor the guides reference must exist.

Scans ``README.md`` and ``docs/*.md`` for

* relative markdown links — the target file must exist;
* backticked repo paths (``src/...``, ``tests/...``, ...) — the file or
  directory must exist;
* dotted ``repro.*`` references — the module must import and any
  trailing attribute chain must resolve;
* ``path.py`` (`TestClass`) pairs — the named test class/function must
  actually appear in that file;

and scans the docstrings and comments of ``src/repro/**/*.py``,
``scripts/**/*.py`` and ``benchmarks/**/*.py`` for fully qualified
Sphinx cross-references (``:func:``, ``:meth:``, ``:class:``,
``:mod:``, ``:data:``, ``:attr:`` and ``:exc:`` roles naming
``repro.*``, with or without a leading ``~``) — each must
resolve like a dotted reference in the docs — and for markdown file
names (``docs/architecture.md``, ``README.md``, ...), each of which
must exist relative to the repo root or to ``docs/``.

Run from the repo root with ``PYTHONPATH=src python scripts/check_docs.py``.
Exits non-zero listing every stale reference, so the paper map cannot
silently rot when code moves.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

LINK_RE = re.compile(r"\[[^\]]+\]\(([^)#\s]+)(?:#[^)]*)?\)")
BACKTICK_RE = re.compile(r"`([^`\n]+)`")
PATH_RE = re.compile(
    r"^(?:src|tests|scripts|benchmarks|docs|examples|\.github)/[\w./*-]+$|^[\w-]+\.(?:md|py|yml|toml)$"
)
MODULE_RE = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
ANCHOR_RE = re.compile(r"`([\w./-]+\.py)`\s*\(`([A-Za-z_]\w*)`\)")
ROLE_RE = re.compile(
    r":(?:func|meth|class|mod|data|attr|exc):`~?(repro(?:\.[A-Za-z_]\w*)+)`"
)
MD_NAME_RE = re.compile(r"(?<![\w./-])((?:[\w-]+/)*[\w-]+\.md)\b")


def _resolve_dotted(name: str) -> str | None:
    """Import the longest module prefix of ``name``, getattr the rest.

    Returns an error string, or None if the reference resolves.
    """
    parts = name.split(".")
    module = None
    for cut in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        break
    if module is None:
        return f"module {name!r} does not import"
    obj = module
    for attr in parts[cut:]:
        try:
            obj = getattr(obj, attr)
        except AttributeError:
            return f"{module.__name__!r} has no attribute chain {'.'.join(parts[cut:])!r}"
    return None


def check_file(doc: Path) -> list[str]:
    errors: list[str] = []
    text = doc.read_text(encoding="utf-8")

    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if not (doc.parent / target).exists():
            errors.append(f"{doc.name}: broken link -> {target}")

    for match in BACKTICK_RE.finditer(text):
        token = match.group(1).strip()
        if PATH_RE.match(token):
            path = REPO / token
            if "*" in token:
                if not list(path.parent.glob(path.name)):
                    errors.append(f"{doc.name}: glob matches nothing -> {token}")
            elif not path.exists():
                errors.append(f"{doc.name}: missing path -> {token}")

    for match in ANCHOR_RE.finditer(text):
        path_token, symbol = match.groups()
        path = REPO / path_token
        if path.exists() and symbol not in path.read_text(encoding="utf-8"):
            errors.append(f"{doc.name}: {path_token} does not define {symbol!r}")

    for token in sorted(set(MODULE_RE.findall(text))):
        error = _resolve_dotted(token)
        if error is not None:
            errors.append(f"{doc.name}: {error}")

    return errors


def missing_md_names(text: str) -> list[str]:
    """Markdown file names in ``text`` that exist neither relative to
    the repo root nor to ``docs/``."""
    return [
        name
        for name in sorted(set(MD_NAME_RE.findall(text)))
        if not (REPO / name).exists() and not (REPO / "docs" / name).exists()
    ]


def check_source(path: Path) -> tuple[int, list[str]]:
    """Resolve the Sphinx cross-references and markdown file names in
    one source file.

    Returns the number of cross-references found and the stale
    references of either kind.
    """
    text = path.read_text(encoding="utf-8")
    names = ROLE_RE.findall(text)
    where = path.relative_to(REPO)
    errors = [
        f"{where}: {error}"
        for error in map(_resolve_dotted, sorted(set(names)))
        if error is not None
    ]
    errors.extend(
        f"{where}: missing markdown file -> {name}"
        for name in missing_md_names(text)
    )
    return len(names), errors


def main() -> int:
    docs = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
    errors: list[str] = []
    for doc in docs:
        errors.extend(check_file(doc))
    sources = [
        path
        for tree in ("src/repro", "scripts", "benchmarks")
        for path in sorted((REPO / tree).rglob("*.py"))
    ]
    n_roles = 0
    for source in sources:
        found, stale = check_source(source)
        n_roles += found
        errors.extend(stale)
    for error in errors:
        print(f"ERROR: {error}", file=sys.stderr)
    print(
        f"checked {len(docs)} docs and {n_roles} cross-reference(s) in "
        f"{len(sources)} source files: {len(errors)} stale reference(s)"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
