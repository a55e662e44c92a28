"""Every name a berglab module lists in ``__all__`` exists in it."""

import importlib
import pkgutil

import pytest

import berglab

MODULES = ["berglab"] + [f"berglab.{m.name}"
                         for m in pkgutil.iter_modules(berglab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [e for e in exported if not hasattr(module, e)] == []
