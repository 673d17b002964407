"""Public-API surface: everything advertised imports and is documented."""

import importlib

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.gf",
    "repro.coding",
    "repro.net",
    "repro.testbed",
    "repro.core",
    "repro.theory",
    "repro.solvers",
    "repro.analysis",
    "repro.sim",
    "repro.auth",
    "repro.cli",
]


class TestImports:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_package_imports(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a module docstring"

    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "name",
        ["repro.gf", "repro.coding", "repro.net", "repro.testbed",
         "repro.core", "repro.theory", "repro.solvers", "repro.analysis",
         "repro.sim", "repro.auth"],
    )
    def test_subpackage_all_resolves(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.{symbol}"


class TestDocstrings:
    def test_exported_callables_documented(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not getattr(obj, "__doc__", None):
                undocumented.append(name)
        assert not undocumented, undocumented

    def test_version(self):
        assert repro.__version__ == "1.0.0"
