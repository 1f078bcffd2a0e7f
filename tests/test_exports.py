import importlib
import pkgutil

import pytest

import sturmjumps

_MODULES = ["sturmjumps"] + [f"sturmjumps.{m.name}" for m in pkgutil.iter_modules(sturmjumps.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry would fail only at a star import
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, missing
