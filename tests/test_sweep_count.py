"""Each public entry point that takes a diagram sweeps it exactly once."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import wirtlab
from tests.conftest import all_corpus_stems, corpus_path
from wirtlab import cli, diagram, genpres
from wirtlab.diagram import DiagramError

MODULES = [
    importlib.import_module("wirtlab." + m.name)
    for m in pkgutil.iter_modules(wirtlab.__path__)
]
ENTRY_POINTS = (
    diagram.validate_wirtinger_type,
    diagram.check_theorem,
    genpres.wirtinger_presentation,
    genpres.extended_wirtinger,
    genpres.edge_meridian_words,
    genpres.diagram_braid_monodromy,
)


@pytest.fixture
def sweeps(monkeypatch):
    """Diagrams passed to ``sweep_ranks``, wherever a module binds it."""
    calls = []
    original = diagram.sweep_ranks

    def counted(d):
        calls.append(d)
        return original(d)

    for module in MODULES:
        if getattr(module, "sweep_ranks", None) is original:
            monkeypatch.setattr(module, "sweep_ranks", counted)
    return calls


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__name__)
def test_one_sweep_per_entry_point(entry, sweeps, corpus):
    returned = 0
    for stem, d in corpus.items():
        sweeps.clear()
        try:
            entry(d)
        except DiagramError:
            continue
        assert sweeps == [d], stem
        returned += 1
    assert returned, "no corpus diagram gets through %s" % entry.__name__


def test_cli_validate_sweeps_once(sweeps, capsys):
    for stem in all_corpus_stems():
        sweeps.clear()
        assert cli.main(["validate", str(corpus_path(stem))]) == 0
        assert len(sweeps) == 1, stem
