"""The benchmark's tracer wraps wirtlab functions by (module, name), so
every such name must stay a public callable of its module."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

import tracing  # noqa: E402

NAMES = sorted(tracing.SPANS)


@pytest.mark.parametrize("module, function", NAMES, ids=["%s.%s" % key for key in NAMES])
def test_traced_name_is_a_callable(module, function):
    fn = getattr(importlib.import_module("wirtlab." + module), function, None)
    assert callable(fn), "wirtlab.%s.%s" % (module, function)
