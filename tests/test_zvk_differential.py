"""Zariski–van Kampen against Wirtinger on seeded random diagrams.

The diagrams come from the benchmark's stdlib-only generator
(``benchmark/gen.py``, crosscheck shape: 3-5 strands, 8-12 crossings,
ordinary points, cusps and tangencies facing L).  On a Verified diagram both
routes present the same group, so after Tietze simplification their
abelianizations must both be Z^components, and their S3 counts must agree
whenever both searches run over at most 5 generators.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

import gen  # noqa: E402

from wirtlab.abelian import AbelianInvariants, abelianization  # noqa: E402
from wirtlab.diagram import check_theorem  # noqa: E402
from wirtlab.dsl import parse_diagram  # noqa: E402
from wirtlab.fpgroups import tietze_simplify  # noqa: E402
from wirtlab.genpres import (  # noqa: E402
    diagram_braid_monodromy,
    wirtinger_presentation,
    zvk_presentation,
)
from wirtlab.homcount import count_homs, symmetric_group  # noqa: E402

S3 = symmetric_group(3)
MAX_S3_GENERATORS = 5


def sample(seed: int) -> gen.Sample:
    rng = random.Random("zvk-diff:%d" % seed)
    return gen.crosscheck_diagram(rng, rng.choice((3, 4, 5)), rng.randint(8, 12))


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
