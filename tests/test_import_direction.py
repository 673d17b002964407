"""Layering, read off the import statements.

:mod:`repro.solvers` holds the generic LP driver and max-flow core; it
sits under both :mod:`repro.theory` and :mod:`repro.coding` and depends
on neither, nor on anything else in ``repro``.  :mod:`repro.theory`
reaches the solvers directly and imports nothing from
:mod:`repro.coding`.  The round core, :mod:`repro.core.round`, reaches
neither :mod:`repro.net` nor :mod:`repro.service`; it alone imports the
allocation planner and the phase-2 builder among the round's callers,
and the live engines do not import :mod:`repro.core.session`.  The
check parses the source, so an import inside
a function counts as much as one at the top of a module.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _module_name(path: Path, root: Path = SRC) -> str:
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def imported_modules(path: Path, root: Path = SRC) -> set:
    """Every module an ``import`` or ``from ... import`` in ``path`` names,
    relative imports resolved against the module's package under ``root``."""
    name = _module_name(path, root)
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[: len(base) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def _sources(*names: str) -> list:
    paths = []
    for name in names:
        path = SRC.joinpath(*name.split("."))
        if path.is_dir():
            paths.extend(sorted(path.rglob("*.py")))
        else:
            paths.append(path.with_suffix(".py"))
    return paths


def _within(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


@pytest.mark.parametrize(
    "path", _sources("repro.theory", "repro.solvers"), ids=lambda p: _module_name(p)
)
def test_theory_and_solvers_import_nothing_from_coding(path):
    assert path.exists()
    bad = sorted(m for m in imported_modules(path) if _within(m, "repro.coding"))
    assert not bad, f"{_module_name(path)} imports {bad}"


def test_solvers_import_only_numpy_scipy_and_the_stdlib():
    (path,) = _sources("repro.solvers")
    assert path.exists()
    roots = {m.split(".")[0] for m in imported_modules(path)}
    foreign = roots - set(sys.stdlib_module_names) - {"__future__"}
    assert foreign == {"numpy", "scipy"}


def test_the_checker_sees_relative_and_nested_imports(tmp_path):
    package = tmp_path / "repro" / "theory"
    package.mkdir(parents=True)
    module = package / "example.py"
    module.write_text(
        "from ..coding import privacy\n"
        "def f():\n"
        "    import repro.coding.reconcile\n"
    )
    found = imported_modules(module, tmp_path)
    assert {"repro.coding", "repro.coding.privacy", "repro.coding.reconcile"} <= found


def test_round_core_imports_no_transport_and_no_service():
    """The round core is sans-io: the session and the engines move its
    packets, so it reaches neither the medium nor the service."""
    (path,) = _sources("repro.core.round")
    assert path.exists()
    bad = sorted(
        m
        for m in imported_modules(path)
        if _within(m, "repro.net") or _within(m, "repro.service")
    )
    assert not bad, f"repro.core.round imports {bad}"


@pytest.mark.parametrize(
    "module", ["repro.core.session", "repro.service.engine"]
)
def test_only_the_round_core_plans_a_round(module):
    """The planning sequence exists once: the session and the engines
    reach the allocation planner and the phase-2 builder only through
    the round core."""
    (path,) = _sources(module)
    assert path.exists()
    names = {m.rpartition(".")[2] for m in imported_modules(path)}
    assert not names & {"plan_y_allocation", "build_phase2_matrices"}


def test_engines_do_not_import_the_session():
    (path,) = _sources("repro.service.engine")
    assert path.exists()
    bad = sorted(
        m for m in imported_modules(path) if _within(m, "repro.core.session")
    )
    assert not bad, f"repro.service.engine imports {bad}"
