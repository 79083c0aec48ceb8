"""API-discipline meta-tests: every public symbol documented and exported.

Production hygiene, enforced: public functions/classes/methods carry
docstrings, ``__all__`` lists are sorted and resolvable, and the package
imports cleanly without circular-import surprises, and the serve
daemon never reaches into the CLI (both build through
:mod:`repro.workloads`).
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.technology",
    "repro.circuit",
    "repro.variability",
    "repro.aging",
    "repro.emc",
    "repro.circuits",
    "repro.core",
    "repro.solutions",
    "repro.digitalflow",
    "repro.obs",
    "repro.workloads",
]


def iter_modules():
    """All repro modules, recursively."""
    seen = []
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        seen.append(pkg)
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                seen.append(importlib.import_module(
                    f"{pkg_name}.{info.name}"))
    return {m.__name__: m for m in seen}.values()


class TestDocstrings:
    def test_every_module_documented(self):
        undocumented = [m.__name__ for m in iter_modules()
                        if not (m.__doc__ or "").strip()]
        assert not undocumented, f"modules without docstrings: {undocumented}"

    def test_every_public_callable_documented(self):
        missing = []
        for module in iter_modules():
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # re-export; documented at its home
                if not (obj.__doc__ or "").strip():
                    missing.append(f"{module.__name__}.{name}")
        assert not missing, f"undocumented public API: {missing}"

    def test_public_methods_documented(self):
        missing = []
        for module in iter_modules():
            for cls_name, cls in vars(module).items():
                if cls_name.startswith("_") or not inspect.isclass(cls):
                    continue
                if cls.__module__ != module.__name__:
                    continue
                for meth_name, meth in vars(cls).items():
                    if meth_name.startswith("_"):
                        continue
                    func = meth.fget if isinstance(meth, property) else meth
                    if isinstance(meth, (staticmethod, classmethod)):
                        func = meth.__func__
                    if not callable(func):
                        continue
                    if (getattr(func, "__doc__", "") or "").strip():
                        continue
                    # An override inherits its contract from a documented
                    # base-class method (stamp_dc, advance, ...).
                    inherited = any(
                        (getattr(getattr(base, meth_name, None), "__doc__",
                                 "") or "").strip()
                        for base in cls.__mro__[1:])
                    if not inherited:
                        missing.append(
                            f"{module.__name__}.{cls_name}.{meth_name}")
        assert not missing, f"undocumented methods: {missing}"


class TestExports:
    @pytest.mark.parametrize("pkg_name", PACKAGES[1:])
    def test_all_lists_resolve(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        exported = getattr(pkg, "__all__", None)
        assert exported, f"{pkg_name} has no __all__"
        for name in exported:
            assert hasattr(pkg, name), f"{pkg_name}.__all__ lists {name!r} " \
                                       f"but it is not importable"

    @pytest.mark.parametrize("pkg_name", PACKAGES[1:])
    def test_no_duplicate_exports(self, pkg_name):
        pkg = importlib.import_module(pkg_name)
        exported = list(getattr(pkg, "__all__", []))
        assert len(exported) == len(set(exported))


class TestLayering:
    def test_serve_does_not_import_the_cli(self):
        import repro.serve

        offenders = []
        for path in sorted(Path(repro.serve.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [
                        f"{node.module}.{alias.name}" for alias in node.names]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if any(name == "repro.cli" or name.startswith("repro.cli.")
                       for name in names):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert not offenders, f"repro.serve imports repro.cli: {offenders}"
