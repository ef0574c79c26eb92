"""Independent routes checked against each other on seeded random diagrams.

The diagrams come from the benchmark's stdlib-only generator
(``benchmark/gen.py``, crosscheck shape: 3-5 strands, 8-12 crossings,
ordinary points, cusps and tangencies facing L).  On a Verified diagram the
Zariski–van Kampen and Wirtinger routes present the same group, so after
Tietze simplification their abelianizations must both be Z^components, and
their S3 counts must agree whenever both searches run over at most 5
generators.

Each diagram also has a flipped copy, with every cusp and tangency facing
away from L, so that deaths become births and ovals appear.  On both copies
region B's Euler characteristic and connectivity, computed separately, must
agree; where a region is accepted the extended Wirtinger presentation must
equal the plain one; every two-sided vertex must continue its strands as
its local model does; and on the flipped copies every route must return or
refuse with a ``ValueError``.
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

import gen  # noqa: E402

from wirtlab.abelian import AbelianInvariants, abelianization  # noqa: E402
from tests.conftest import all_corpus_stems, load  # noqa: E402
from wirtlab.diagram import (  # noqa: E402
    CurveDiagram,
    Cusp,
    Ordinary,
    Tangency,
    TheoremReport,
    auto_region_B,
    check_theorem,
    sweep_ranks,
)
from wirtlab.dsl import parse_diagram  # noqa: E402
from wirtlab.fpgroups import tietze_simplify  # noqa: E402
from wirtlab.genpres import (  # noqa: E402
    diagram_braid_monodromy,
    extended_wirtinger,
    wirtinger_presentation,
    zvk_presentation,
)
from wirtlab.homcount import count_homs, symmetric_group  # noqa: E402

S3 = symmetric_group(3)
MAX_S3_GENERATORS = 5


def sample(seed: int) -> gen.Sample:
    rng = random.Random("zvk-diff:%d" % seed)
    return gen.crosscheck_diagram(rng, rng.choice((3, 4, 5)), rng.randint(8, 12))


def flipped(d: CurveDiagram) -> CurveDiagram:
    """The diagram with every cusp and tangency facing the other way."""
    events = []
    for e in d.events:
        if isinstance(e.kind, (Cusp, Tangency)):
            other = "left" if e.kind.branch_side == "right" else "right"
            e = replace(e, kind=replace(e.kind, branch_side=other))
        events.append(e)
    return replace(d, events=tuple(events))


def copies(seed: int) -> tuple[CurveDiagram, CurveDiagram]:
    """The seed's diagram and its flipped copy."""
    d = parse_diagram(sample(seed).dsl)
    return d, flipped(d)


@pytest.mark.parametrize("seed", range(60))
def test_zvk_agrees_with_wirtinger(seed):
    s = sample(seed)
    d = parse_diagram(s.dsl)
    if not check_theorem(d).verified:
        return
    w = tietze_simplify(wirtinger_presentation(d).presentation)[0]
    z = tietze_simplify(zvk_presentation(d.d, diagram_braid_monodromy(d)))[0]
    free = AbelianInvariants(s.components, ())
    assert abelianization(w) == free
    assert abelianization(z) == free
    if max(len(w.generators), len(z.generators)) <= MAX_S3_GENERATORS:
        assert count_homs(w, S3) == count_homs(z, S3)


@pytest.mark.parametrize("seed", range(60))
def test_region_euler_agrees_with_connectivity(seed):
    for d in copies(seed):
        region = auto_region_B(sweep_ranks(d))
        assert region.euler >= 1
        assert region.connected == (region.euler == 1)


def test_flipped_copies_reach_disconnected_unions():
    eulers = [auto_region_B(sweep_ranks(copies(s)[1])).euler for s in range(60)]
    assert max(eulers) > 1


@pytest.mark.parametrize("seed", range(60))
def test_extended_equals_wirtinger_when_region_accepted(seed):
    for d in copies(seed):
        region = check_theorem(d).region
        if region is not None and region.ok:
            extended = extended_wirtinger(d).presentation
            assert extended == wirtinger_presentation(d).presentation


@pytest.mark.parametrize("source", all_corpus_stems() + list(range(60)))
def test_continued_edges_follow_the_local_model(source):
    """An ordinary point reverses its block; an A_m crossing swaps its two
    strands exactly when m = 1 mod 4."""
    d = load(source) if isinstance(source, str) else parse_diagram(sample(source).dsl)
    for copy in (d, flipped(d)):
        sw = sweep_ranks(copy)
        cluster = {e: i for i, (edges, _, _) in enumerate(sw.clusters) for e in edges}
        for rec in sw.records:
            if rec.action != "through":
                assert rec.continued == ()
                continue
            assert sorted(rec.continued) == sorted(rec.far_edges)
            for near, far in zip(rec.near_edges, rec.continued):
                assert cluster[near] == cluster[far]
            swapped = rec.continued == rec.far_edges[::-1]
            if isinstance(rec.event.kind, Ordinary):
                assert swapped
            else:
                assert swapped == (rec.event.kind.m % 4 == 1)


def zvk(d: CurveDiagram):
    return zvk_presentation(d.d, diagram_braid_monodromy(d))


@pytest.mark.parametrize("seed", range(60))
def test_routes_on_flipped_copies_return_or_refuse(seed):
    d = copies(seed)[1]
    assert isinstance(check_theorem(d), TheoremReport)
    for route in (wirtinger_presentation, extended_wirtinger, zvk):
        try:
            route(d)
        except ValueError:
            pass  # a refusal; any other exception fails the test
