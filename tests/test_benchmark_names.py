"""The benchmark's tracer wraps wirtlab functions by (module, name), and
its workloads call them, so every such name must stay a public callable of
its module with the signature pinned below."""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

import tracing  # noqa: E402

NAMES = sorted(tracing.SPANS)

# parameter names, kinds and defaults of each bound name, as inspect renders
# them with the annotations dropped
SIGNATURES = {
    ("abelian", "abelianization"): "(p)",
    ("abelian", "smith_normal_form"): "(matrix)",
    ("braids", "braid_act"): "(word, braid)",
    ("cli", "main"): "(argv=None)",
    ("diagram", "auto_region_B"): "(sw)",
    ("diagram", "check_theorem"): "(diagram)",
    ("diagram", "faces"): "(sw)",
    ("diagram", "validate_wirtinger_type"): "(diagram)",
    ("dsl", "parse_diagram"): "(text, name='')",
    ("dsl", "serialize_diagram"): "(diagram)",
    ("fpgroups", "tietze_simplify"): "(p)",
    ("genpres", "diagram_braid_monodromy"): "(diagram)",
    ("genpres", "extended_wirtinger"): "(diagram)",
    ("genpres", "wirtinger_presentation"): "(diagram)",
    ("genpres", "zvk_presentation"): "(d, data)",
    ("homcount", "count_homs"): "(p, table, bound=None)",
    ("hypocycloid", "critical_parameters"): "(params, tol=1e-12)",
    ("hypocycloid", "orbifold_presentation"): "(k)",
    ("hypocycloid", "quotient_diagram"): "(k, name=None)",
    ("hypocycloid", "trace_quotient"): "(k)",
    ("hypocycloid", "verify_case"): "(k, targets=('S3', 'S4'))",
    ("profiles", "profile"): "(p, targets=('S3', 'S4'), simplify=True, bound=None)",
}


@pytest.mark.parametrize("module, function", NAMES, ids=["%s.%s" % key for key in NAMES])
def test_traced_name_is_a_callable(module, function):
    fn = getattr(importlib.import_module("wirtlab." + module), function, None)
    assert callable(fn), "wirtlab.%s.%s" % (module, function)


def test_every_bound_name_has_a_pinned_signature():
    assert sorted(SIGNATURES) == NAMES


@pytest.mark.parametrize("module, function", NAMES, ids=["%s.%s" % key for key in NAMES])
def test_traced_name_keeps_its_signature(module, function):
    sig = inspect.signature(getattr(importlib.import_module("wirtlab." + module), function))
    bare = sig.replace(
        parameters=[p.replace(annotation=p.empty) for p in sig.parameters.values()],
        return_annotation=sig.empty,
    )
    assert str(bare) == SIGNATURES[module, function]
