"""Every name a ``mavl`` module exports in ``__all__`` must resolve."""

from __future__ import annotations

import importlib
import pkgutil
import sys
from pathlib import Path

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


def test_bench_tracer_hooks_resolve(monkeypatch):
    """Every span hook of bench/spans.py names a function that still exists."""
    import mavl.harness

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    spans = importlib.import_module("spans")
    original = mavl.harness.translate_line
    tracer = spans.Tracer("tier-1")
    tracer.install()
    try:
        assert tracer.missing == []
        assert mavl.harness.translate_line is not original
    finally:
        tracer.uninstall()
    assert mavl.harness.translate_line is original
