"""Self-hosting: the contract holds over the repository's own tree.

``python -m repro.lint src scripts`` must be clean at HEAD — the rules
encode invariants the repo claims to satisfy *now*, and any finding
fails the run.
"""

import os
import subprocess
import sys

import pytest

from repro.lint import lint_paths
from repro.lint.__main__ import main

pytestmark = pytest.mark.lint

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_src_and_scripts_are_clean_at_head():
    report = lint_paths(["src", "scripts"], root=REPO_ROOT)
    assert report.violations == (), "\n".join(
        v.render() for v in report.violations
    )
    # Sanity: the walk actually covered the tree.
    assert report.files_checked > 50


def test_committed_baseline_is_empty(capsys):
    # Nothing is grandfathered: no baseline file, no baseline option.
    assert not os.path.exists(os.path.join(REPO_ROOT, "lint-baseline.json"))
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "baseline" not in capsys.readouterr().out


def test_cli_exits_zero_at_head():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "src", "scripts"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 violations" in proc.stdout


def test_cli_list_rules_describes_all_six():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--list-rules"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    for rule_id in ("R1", "R2", "R3", "R4", "R5", "R6"):
        assert rule_id in proc.stdout


def test_cli_reports_violations_with_nonzero_exit(tmp_path):
    tree = tmp_path / "src" / "repro" / "sim"
    tree.mkdir(parents=True)
    (tree / "bad.py").write_text("seed = hash(key)\n", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "src"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    assert "R1" in proc.stdout
