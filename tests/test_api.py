"""Every exported name resolves, so a deleted symbol leaves no stale export."""

import importlib
import pkgutil

import pytest

import cachenoma

MODULES = sorted(m.name for m in pkgutil.iter_modules(cachenoma.__path__))


def test_package_exports_resolve():
    missing = [n for n in cachenoma.__all__ if not hasattr(cachenoma, n)]
    assert not missing
    assert len(set(cachenoma.__all__)) == len(cachenoma.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"cachenoma.{name}")
    exported = getattr(module, "__all__", ())
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing
    assert len(set(exported)) == len(exported)
