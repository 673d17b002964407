"""``python -m repro.lint`` — run the reproducibility contract.

Exit status: 0 when the tree is clean, 1 when any violation fired, 2
on usage errors.  A finding is excused only by a justified
``# reprolint: disable=R<n>`` comment on its own line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.rules import iter_rules
from repro.lint.runner import lint_paths

DEFAULT_PATHS = ("src", "scripts")


def _list_rules() -> str:
    blocks: List[str] = []
    for rule in iter_rules():
        patrols = ", ".join(rule.patrols)
        blocks.append(
            f"{rule.id} ({rule.name})\n"
            f"  patrols: {patrols}\n"
            f"  why: {rule.rationale}"
        )
    return "\n".join(blocks)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-enforced determinism, sans-io and durability contract",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files/directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="describe every rule, its patrol area and rationale",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    try:
        report = lint_paths(args.paths, root=Path.cwd())
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for violation in report.violations:
        print(violation.render())
    count = len(report.violations)
    print(
        f"{report.files_checked} files checked, {count} "
        f"violation{'s' if count != 1 else ''}"
    )
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main())
