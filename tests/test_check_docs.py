"""``scripts/check_docs.py`` on the tree, and its markdown-name check.

The docs lint resolves every path, module and anchor the guides name,
and every Sphinx cross-reference and markdown file name in ``src/``,
``scripts/`` and ``benchmarks/``.
Running it here makes a rename that leaves a stale citation fail the
test suite, not only the docs job.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "check_docs.py"


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tree_has_no_stale_reference():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    run = subprocess.run(
        [sys.executable, str(SCRIPT)],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr


def test_markdown_names_resolve_from_the_root_or_docs(check_docs):
    text = (
        "See README.md, docs/architecture.md and paper-map.md;\n"
        "# the derivation is in DESIGN.md and docs/NOPE.md\n"
    )
    assert check_docs.missing_md_names(text) == ["DESIGN.md", "docs/NOPE.md"]


def test_scripts_and_benchmarks_are_scanned(check_docs, monkeypatch, tmp_path):
    """A stale markdown citation in a script or a benchmark module
    fails the lint like one in ``src/``."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text("# toy\n")
    for rel, text in (
        ("src/repro/ok.py", '"""Cites README.md."""\n'),
        ("scripts/tool.py", '"""Reference run for EXPERIMENTS.md."""\n'),
        ("benchmarks/test_toy.py", '"""Ablation (DESIGN.md §3)."""\n'),
    ):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    assert check_docs.main() == 1
    assert check_docs.check_source(tmp_path / "scripts" / "tool.py") == (
        0,
        ["scripts/tool.py: missing markdown file -> EXPERIMENTS.md"],
    )


def test_a_deleted_definition_cited_from_a_script_is_stale(
    check_docs, monkeypatch, tmp_path
):
    """Cross-references in a script resolve against the package: a
    role naming a deleted definition is flagged, a live one is not."""
    script = tmp_path / "scripts" / "tool.py"
    script.parent.mkdir()
    script.write_text(
        '"""Uses :func:`repro.store.copy_store`, not\n'
        ':func:`repro.gf.matrices.vandermonde_matrix`."""\n'
    )
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    n_roles, stale = check_docs.check_source(script)
    assert n_roles == 2
    assert len(stale) == 1
    assert stale[0].startswith("scripts/tool.py: ")
    assert "vandermonde_matrix" in stale[0]
