"""No baseline: a committed finding list grandfathers nothing.

``python -m repro.lint`` reads no baseline file and takes no baseline
option; every finding fails the run unless a justified same-line
``# reprolint: disable=R<n>`` excuses it.
"""

import json

import pytest

from repro.lint.__main__ import main

pytestmark = pytest.mark.lint

BAD = "seed = hash(key)\n"
PATH = "src/repro/sim/example.py"


def test_new_violation_is_reported_against_baseline(tmp_path, monkeypatch, capsys):
    # A lint-baseline.json in the old format, listing this very finding,
    # is an ordinary file: the finding is still reported and fails.
    bad = tmp_path / PATH
    bad.parent.mkdir(parents=True)
    bad.write_text(BAD, encoding="utf-8")
    (tmp_path / "lint-baseline.json").write_text(
        json.dumps({"version": 1, "entries": [f"R1:{PATH}:1"]}), encoding="utf-8"
    )
    monkeypatch.chdir(tmp_path)
    assert main(["src"]) == 1
    out = capsys.readouterr().out
    assert f"{PATH}:1" in out and "R1" in out
    assert "1 violation" in out


def test_malformed_baseline_rejected(capsys):
    # The baseline options are gone: each is a usage error (exit 2).
    for option in (["--baseline", "lint-baseline.json"], ["--no-baseline"], ["--write-baseline"]):
        with pytest.raises(SystemExit) as exc:
            main(option)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
