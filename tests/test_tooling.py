"""Names that tools and callers look up still resolve.

``perfbench/spans.py`` looks each traced function up by module and name when
a ``--trace 1`` run starts.  A rename in ``src/`` would otherwise surface only
there; this test makes it fail here.  The tracer's source is read, never
written or imported as a package module.  Every name a module exports in
``__all__`` must resolve too, so a deletion cannot leave a dangling export.
"""

from __future__ import annotations

import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import rootlink

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans() -> types.ModuleType:
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


SPANS_MODULE = _load_spans()
TRACED = SPANS_MODULE.SPANNED + SPANS_MODULE.COUNTED


@pytest.mark.parametrize("module_name,qualname", TRACED)
def test_traced_name_resolves(module_name, qualname):
    importlib.import_module(f"rootlink.{module_name}")
    _, _, function = SPANS_MODULE._resolve(module_name, qualname)
    assert callable(function)
    assert function.__name__ == qualname.rpartition(".")[2]


MODULES = sorted(info.name for info in pkgutil.iter_modules(rootlink.__path__))


def test_package_exports_resolve():
    # getattr, not the module dict: the self-test names load lazily.
    missing = [name for name in rootlink.__all__ if not hasattr(rootlink, name)]
    assert missing == []


@pytest.mark.parametrize("module_name", MODULES)
def test_module_exports_resolve(module_name):
    module = importlib.import_module(f"rootlink.{module_name}")
    exported = getattr(module, "__all__", ())
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []
