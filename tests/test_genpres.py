import pytest

from wirtlab.abelian import abelianization
from wirtlab.braids import Braid
from wirtlab.diagram import (
    Crossing,
    CurveDiagram,
    Cusp,
    DiagramError,
    Event,
    Ordinary,
    Tangency,
    sweep_ranks,
)
from wirtlab.fpgroups import Presentation, braid_relator, tietze_simplify
from wirtlab.genpres import (
    UnsupportedConfiguration,
    diagram_braid_monodromy,
    edge_meridian_words,
    extended_wirtinger,
    local_braid,
    projective_closure,
    wirtinger_presentation,
    zvk_presentation,
)
from wirtlab.profiles import profile, profiles_equal
from wirtlab.words import Word
from tests.conftest import load


def canonical_relators(p: Presentation):
    out = []
    for r in p.relators:
        w = r.cyclically_reduced()
        letters = tuple(w)
        reps = []
        for word in (letters, tuple(w.inverse())):
            for i in range(len(word)):
                reps.append(word[i:] + word[:i])
        out.append(min(reps))
    return sorted(out)


def test_nodal_cubic_group_is_infinite_cyclic():
    res = wirtinger_presentation(load("nodal_cubic"))
    q, transcript = tietze_simplify(res.presentation)
    assert transcript.kinds() <= {"I", "IIa"}
    assert len(q.generators) == 1 and not q.relators
    ab = abelianization(res.presentation)
    assert (ab.free_rank, ab.torsion) == (1, ())


def test_cuspidal_cubic_group_is_the_trefoil_group():
    res = wirtinger_presentation(load("cuspidal_cubic"))
    q, _ = tietze_simplify(res.presentation)
    trefoil = Presentation(("a", "b"), (braid_relator(Word.gen(1), Word.gen(2)),))
    assert canonical_relators(q) == canonical_relators(trefoil)


def test_smooth_cubic_group_is_free_of_component_rank():
    res = wirtinger_presentation(load("smooth_cubic"))
    q, _ = tietze_simplify(res.presentation)
    assert not q.relators and len(q.generators) == 2


def test_generator_components_cover_fiber():
    res = wirtinger_presentation(load("parabola_two_lines"))
    assert len(res.fiber_generators) == res.diagram.d
    comps = {res.generator_components[g] for g in res.fiber_generators}
    assert comps == {"p", "l1", "l2"}


def test_projective_closure_kills_one_free_rank():
    res = wirtinger_presentation(load("nodal_cubic"))
    closed = projective_closure(res.presentation, res.fiber_generators)
    assert len(closed.relators) == len(res.presentation.relators) + 1
    ab = abelianization(closed)
    # Z for the affine complement becomes Z/3 projectively (degree 3 curve
    # with all meridians identified... total degree of the fiber is 2 here,
    # the nodal cubic in degree_y 2 form, so the closure gives Z/2)
    assert (ab.free_rank, ab.torsion) == (0, (2,))


def test_meridian_words_are_meridians():
    d = load("parabola_two_lines")
    words = edge_meridian_words(d)
    # every edge meridian is a conjugate of a single fiber generator
    for e, w in words.items():
        core = w.cyclically_reduced()
        assert len(core) == 1 and core.letters[0][1] == 1, (e, w)


def test_meridian_words_reject_births():
    with pytest.raises(DiagramError):
        edge_meridian_words(load("smooth_cubic"))


def test_zvk_matches_wirtinger_on_small_verified_diagrams():
    for stem in ("nodal_cubic", "parabola_two_lines", "hypocycloid_quotient_k2"):
        d = load(stem)
        w = wirtinger_presentation(d).presentation
        z = zvk_presentation(d.d, diagram_braid_monodromy(d))
        assert profiles_equal(profile(w), profile(z)), stem


def test_extended_equals_plain_when_region_is_valid():
    for stem in ("nodal_cubic", "parabola_two_lines"):
        d = load(stem)
        plain = wirtinger_presentation(d).presentation
        ext = extended_wirtinger(d).presentation
        assert canonical_relators(plain) == canonical_relators(ext), stem
        assert profiles_equal(profile(plain), profile(ext)), stem


def test_extended_records_passed_obstructions_on_cardioid():
    res = extended_wirtinger(load("cardioid"))
    assert any(res.passed[idx] for idx in res.passed)


@pytest.mark.parametrize(
    "kind",
    [Ordinary(2), Ordinary(3), Ordinary(4), Ordinary(5), Crossing(1), Crossing(3), Crossing(5)],
    ids=repr,
)
def test_half_local_braid_squares_to_the_full_one(kind):
    assert local_braid(kind, half=True) ** 2 == local_braid(kind)


@pytest.mark.parametrize("m", [2, 4])
def test_cusp_half_local_braid_is_sigma_to_half_m(m):
    for side in ("left", "right"):
        assert local_braid(Cusp(m, side), half=True) == Braid.sigma(2, 1, m // 2)


def test_tangency_local_braid_is_that_of_a0():
    for side in ("left", "right"):
        assert local_braid(Tangency(side), half=True) == Braid.identity(2)
        assert local_braid(Tangency(side)) == Braid.sigma(2, 1)


@pytest.mark.parametrize(
    "kind",
    [Ordinary(m) for m in range(2, 9)] + [Crossing(m) for m in range(1, 12, 2)],
    ids=repr,
)
@pytest.mark.parametrize("x", [-1, 1], ids=["left", "right"])
def test_sweep_pairing_follows_the_half_local_braid(kind, x):
    # one event on the whole fiber: the strand at near position i goes on
    # as the far edge at the final position of strand i under Delta^(twist//2)
    n = kind.size
    d = CurveDiagram(n, 0, ("c",) * n, (Event(x, kind, 1),))
    (rec,) = sweep_ranks(d).records
    perm = local_braid(kind, half=True).permutation()
    assert rec.continued == tuple(rec.far_edges[p - 1] for p in perm)
