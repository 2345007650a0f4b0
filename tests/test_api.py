"""The package's public names: every ``__all__`` entry resolves."""

from __future__ import annotations

import importlib
import pkgutil

import seg_eval


def test_every_all_entry_exists_and_star_import_works():
    modules = [seg_eval] + [
        importlib.import_module(f"seg_eval.{info.name}")
        for info in pkgutil.iter_modules(seg_eval.__path__)]
    assert len(modules) > 1
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
        exec(f"from {module.__name__} import *", {})
