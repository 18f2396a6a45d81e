"""Public API surface tests: everything advertised in ``__all__``
resolves, and the package version matches the build metadata."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

import repro
import repro.campaigns
import repro.comm
import repro.des
import repro.dse
import repro.engine
import repro.eval
import repro.experiments
import repro.ftcpg
import repro.kernels
import repro.lint
import repro.model
import repro.policies
import repro.runtime
import repro.schedule
import repro.synthesis
import repro.utils
import repro.verify
import repro.workloads

PACKAGES = [
    repro,
    repro.campaigns,
    repro.comm,
    repro.des,
    repro.dse,
    repro.engine,
    repro.eval,
    repro.experiments,
    repro.ftcpg,
    repro.kernels,
    repro.lint,
    repro.model,
    repro.policies,
    repro.runtime,
    repro.schedule,
    repro.synthesis,
    repro.utils,
    repro.verify,
    repro.workloads,
]


@pytest.mark.parametrize("package", PACKAGES,
                         ids=lambda p: p.__name__)
def test_all_exports_resolve(package):
    assert hasattr(package, "__all__")
    for name in package.__all__:
        assert hasattr(package, name), f"{package.__name__}.{name}"


@pytest.mark.parametrize("package", PACKAGES,
                         ids=lambda p: p.__name__)
def test_all_is_sorted_unique(package):
    exported = list(package.__all__)
    assert len(exported) == len(set(exported))


def _declared_homes(package) -> dict[str, str]:
    """Where the package's ``__init__`` says each name comes from: the
    module of its ``from ... import`` (eager packages) or its key in
    the ``lazy_exports`` map (relative, as in a relative import)."""
    tree = ast.parse(Path(package.__file__).read_text(encoding="utf-8"))
    homes: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            homes.update((alias.name, node.module)
                         for alias in node.names)
        elif isinstance(node, ast.Call) \
                and getattr(node.func, "id", None) == "lazy_exports":
            for module, names in ast.literal_eval(node.args[1]).items():
                homes.update((name, module) for name in names)
    return homes


@pytest.mark.parametrize("package", PACKAGES,
                         ids=lambda p: p.__name__)
def test_exports_are_their_defining_modules_objects(package):
    homes = _declared_homes(package)
    for name in package.__all__:
        home = homes.get(name)
        module = (package if home is None
                  else importlib.import_module(home, package.__name__))
        assert getattr(package, name) is getattr(module, name), \
            f"{package.__name__}.{name}"


@pytest.mark.parametrize("package", PACKAGES,
                         ids=lambda p: p.__name__)
def test_dir_lists_every_export(package):
    listed = set(dir(package))
    missing = [name for name in package.__all__ if name not in listed]
    assert not missing, f"{package.__name__}: {missing}"


@pytest.mark.parametrize("package", PACKAGES,
                         ids=lambda p: p.__name__)
def test_unknown_name_raises_attribute_error(package):
    message = f"module {package.__name__!r} has no attribute"
    with pytest.raises(AttributeError, match=re.escape(message)):
        package.no_such_export


def test_version_matches_packaging_metadata():
    """__version__ is sourced from pyproject.toml (directly, or via
    the installed distribution metadata built from it)."""
    import tomllib
    from pathlib import Path

    pyproject = Path(repro.__file__).resolve().parents[2] \
        / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        declared = tomllib.load(handle)["project"]["version"]
    assert repro.__version__ == declared


def test_top_level_reexports_are_canonical():
    from repro.model.application import Application
    assert repro.Application is Application
    from repro.schedule.conditional import synthesize_schedule
    assert repro.synthesize_schedule is synthesize_schedule


def test_docstrings_everywhere():
    import inspect

    for package in PACKAGES:
        assert inspect.getdoc(package), package.__name__
        for name in package.__all__:
            obj = getattr(package, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert inspect.getdoc(obj), f"{package.__name__}.{name}"
