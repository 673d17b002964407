"""The import fence around scipy's HiGHS binding.

:mod:`repro.solvers` loads ``scipy.optimize._highspy._core`` itself
rather than importing the ``scipy.optimize`` package, which would pull
in ``scipy.linalg``, ``scipy.sparse`` and the rest on every import of
:mod:`repro`.  Each check that depends on what a process has imported
runs in a fresh interpreter: this test process has ``linprog`` loaded
already (``tests/coding/test_lp_helper.py``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import scipy

import repro.solvers

pytestmark = pytest.mark.lp

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(script: str) -> str:
    """Run ``script`` in a fresh interpreter that imports this tree."""
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_importing_every_repro_module_leaves_scipy_optimize_unloaded():
    loaded = json.loads(
        _run(
            """
            import importlib, json, pkgutil, sys
            import repro
            names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
            for name in names:
                importlib.import_module(name)
            print(json.dumps({"modules": len(names), "scipy": sorted(
                m for m in sys.modules if m.startswith("scipy."))}))
            """
        )
    )
    assert loaded["modules"] > 50
    assert "scipy.optimize._highspy._core" in loaded["scipy"]
    for package in ("scipy.optimize", "scipy.linalg"):
        assert package not in loaded["scipy"]


@pytest.mark.parametrize("order", ["repro_first", "scipy_optimize_first"])
def test_binding_is_one_module_and_scipy_optimize_still_works(order):
    """Whichever of repro and scipy.optimize loads the binding first,
    the other reuses it; linprog and milp still run, and solve_lp
    equals linprog to the last bit."""
    first, second = "import repro.solvers", "import scipy.optimize"
    if order == "scipy_optimize_first":
        first, second = second, first
    out = _run(
        f"""
        import sys
        import numpy as np
        {first}
        {second}
        from scipy.optimize import Bounds, LinearConstraint, linprog, milp
        from repro.solvers import solve_lp
        assert repro.solvers._highs is sys.modules["scipy.optimize._highspy._core"]

        rng = np.random.default_rng(11)
        for _ in range(40):
            rows, cols = rng.integers(1, 8, size=2)
            a_ub = rng.uniform(0.0, 2.0, size=(rows, cols))
            a_ub[rng.random((rows, cols)) < 0.3] = 0.0
            a_ub[0] += 0.5  # every column appears in a row: bounded
            c = -rng.uniform(0.1, 1.0, size=cols)
            b_ub = rng.uniform(1.0, 5.0, size=rows)
            res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
            assert res.success
            assert solve_lp(c, a_ub, b_ub).tobytes() == res.x.tobytes()

        res = milp(
            c=[-1.0, -2.0],
            constraints=LinearConstraint([[1.0, 1.0]], ub=3.5),
            integrality=[1, 1],
            bounds=Bounds(0, 2.5),
        )
        assert res.success and list(res.x) == [1.0, 2.0], res.x
        print("ok")
        """
    )
    assert out.strip() == "ok"


def test_the_loader_finds_the_binding_scipy_ships():
    spec = repro.solvers._highs_spec(scipy.__path__)
    assert spec.name == "scipy.optimize._highspy._core"
    assert spec.origin == repro.solvers._highs.__file__


@pytest.mark.parametrize("tree", ["empty", "optimize_without_binding"])
def test_a_scipy_tree_without_the_binding_names_the_pin(tmp_path, tree):
    if tree == "optimize_without_binding":
        (tmp_path / "optimize" / "_highspy").mkdir(parents=True)
    with pytest.raises(ImportError, match=r"scipy>=1\.17,<1\.18"):
        repro.solvers._highs_spec([str(tmp_path)])
