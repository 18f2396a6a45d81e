"""Package re-exports resolved on first access (PEP 562).

A package ``__init__`` that re-exports names from its submodules
would import all of them whenever any one is needed. Instead it
declares where each name lives, keyed by module as in a relative
import, and binds the two module hooks::

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".core": ("Evaluator", "EvaluatorPool"),
        "..schedule.estimation": ("EstimatorState",),
    })

The first access to ``package.Evaluator`` imports ``package.core`` and
stores the value in the package's namespace, so later lookups never
reach ``__getattr__``. Submodules that are not exports
(``from repro.engine import journal``) still import as usual: the
import system falls back to them when ``__getattr__`` raises.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping, Sequence


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]],
                 ) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``, which
    re-exports the names ``exports[module]`` of each relative
    ``module``."""
    home = {name: module
            for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        if name not in home:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(home[name], package)
        value = namespace[name] = getattr(module, name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *home})

    return __getattr__, __dir__
