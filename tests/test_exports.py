"""Every name a ``mavl`` module exports in ``__all__`` must resolve."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import mavl

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(mavl.__path__, prefix="mavl.")
)


def test_every_module_is_listed():
    assert "mavl.harness" in MODULES
    assert "mavl.syllables.japanese" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
