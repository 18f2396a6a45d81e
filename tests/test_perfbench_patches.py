"""``perfbench``'s patch table still resolves against ``src``.

``perfbench/spans.py`` wraps repro's entry points by module path and
attribute name, and its ``install()`` raises on the first name that is
gone, so renaming or deleting a patched name in ``src`` breaks
``perfbench/run.py --trace 1``. These tests resolve every entry the
way ``install()`` does, without patching anything.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPatchTable:
    def test_every_patch_target_resolves(self):
        patches = _load_spans().PATCHES
        assert patches
        missing = []
        for module_name, path, *_rest in patches:
            *parents, attribute = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for parent in parents:
                    owner = getattr(owner, parent)
                # install() reads class attributes raw, so a method
                # inherited from a base class does not count.
                if isinstance(owner, type):
                    owner.__dict__[attribute]
                else:
                    getattr(owner, attribute)
            except (ImportError, AttributeError, KeyError):
                missing.append(f"{module_name}.{path}")
        assert not missing, f"unresolved perfbench patches: {missing}"

    def test_kernel_counter_snapshot_is_a_dict(self):
        from repro.kernels import counters

        snapshot = counters.snapshot()
        assert isinstance(snapshot, dict)
        assert all(isinstance(value, int)
                   for value in snapshot.values())
