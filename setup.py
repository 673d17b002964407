"""Packaging metadata — the single source of the dependency list.

CI installs the project with ``pip install -e .[test]`` (see
.github/workflows/ci.yml and nightly.yml), so runtime dependencies and
the test extras live here and nowhere else.  The execution environment
ships setuptools without the ``wheel`` package, so PEP 660 editable
installs cannot build; classic ``setup.py`` metadata lets
``pip install -e .`` fall back to the ``setup.py develop`` path.
"""

from setuptools import find_packages, setup

setup(
    name="thin-air-secrets",
    version="1.0.0",
    description=(
        "Reproduction of 'Creating shared secrets out of thin air' "
        "(HotNets 2012): group secret agreement from broadcast erasures"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    install_requires=[
        "numpy",
        # repro.solvers.solve_lp calls scipy's bundled HiGHS
        # binding (scipy.optimize._highspy._core), a private module
        # that repro.solvers loads from the file
        # scipy/optimize/_highspy/_core.<extension suffix> without
        # importing scipy.optimize; re-check both against the lp
        # tests before moving this pin.
        "scipy>=1.17,<1.18",
    ],
    extras_require={
        "test": [
            "pytest",
            "pytest-benchmark",
            "hypothesis",
        ],
        # The static-analysis gate (CI `lint` job): reprolint itself is
        # dependency-free (stdlib ast), mypy drives the strict-typing
        # half of the contract.
        "lint": [
            "mypy",
        ],
    },
)
