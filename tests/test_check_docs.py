"""``scripts/check_docs.py`` on the tree, and its markdown-name check.

The docs lint resolves every path, module and anchor the guides name,
and every Sphinx cross-reference and markdown file name in ``src/``.
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
