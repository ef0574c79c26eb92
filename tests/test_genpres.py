import random
from pathlib import Path

import pytest

from wirtlab import braids, genpres
from wirtlab.abelian import abelianization
from wirtlab.braids import Braid, braid_images
from wirtlab.diagram import (
    Crossing,
    CurveDiagram,
    Cusp,
    DiagramError,
    Event,
    Ordinary,
    Tangency,
    check_theorem,
    sweep_ranks,
)
from wirtlab.dsl import parse_diagram
from wirtlab.fpgroups import (
    Presentation, artin_relator, braid_relator, commutator, tietze_simplify,
)
from wirtlab.genpres import (
    UnsupportedConfiguration,
    diagram_braid_monodromy,
    edge_meridian_words,
    extended_wirtinger,
    local_braid,
    wirtinger_presentation,
    zvk_presentation,
)
from wirtlab.profiles import profile, profiles_equal
from wirtlab.words import Word
from tests.conftest import all_corpus_stems, load
from tests.test_zvk_differential import copies, gen, sample


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


def test_fiber_clusters_cover_the_components():
    """The rank-r strand at L has edge r, so the clusters holding edges
    1..d, one cluster each, name every component."""
    res = wirtinger_presentation(load("parabola_two_lines"))
    d = res.sweep.diagram.d
    fiber = [names for edges, _, names in res.sweep.clusters for e in edges if e <= d]
    assert len(fiber) == d
    assert {name for names in fiber for name in names} == {"p", "l1", "l2"}


def test_meridian_words_are_meridians():
    d = load("parabola_two_lines")
    words = edge_meridian_words(d)
    # every edge meridian is a conjugate of a single fiber generator
    for e, w in words.items():
        core = w.cyclically_reduced()
        assert len(core) == 1 and core.letters[0] > 0, (e, w)


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


def test_through_vertex_beyond_an_obstruction_point_is_unsupported():
    # the cardioid with its outer left tangency made a double point of the
    # two strands that enclose the cusp's pair
    d = parse_diagram(
        "diagram\ndegree_y 4\nline_L at 1/2\n"
        + "".join("strand %d component c\n" % i for i in range(1, 5))
        + "event at -2 ordinary m=2 top=1\n"
        "event at 0 cusp m=2 side=right top=2\n"
        "event at 1 tangency side=left top=1\n"
        "event at 9/8 tangency side=left top=1\nend\n"
    )
    assert wirtinger_presentation(d).presentation.generators
    with pytest.raises(UnsupportedConfiguration, match="ordinary at x=-2 lies beyond"):
        extended_wirtinger(d)


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


# ---------------------------------------------------------------------------
# no Verified diagram has a block straddling an earlier dead pair
# ---------------------------------------------------------------------------

def straddles_a_dead_pair(sw) -> bool:
    """The fiber-slot walk of a birth-free sweep: a death's strand pair
    leaves the real plane but keeps its fiber positions, so a later block
    on that side straddles it when its positions are not adjacent."""
    n_left = sw.diagram.left_count()
    for run in (sw.records[:n_left][::-1], sw.records[n_left:]):  # from L outward
        positions = list(range(1, sw.diagram.d + 1))  # fiber position of each live strand
        for rec in run:
            lo, size = rec.event.top - 1, rec.event.kind.size
            block = positions[lo:lo + size]
            if block != list(range(block[0], block[0] + size)):
                return True
            if rec.action == "death":
                del positions[lo:lo + size]
    return False


def refused_if_straddling(d: CurveDiagram) -> bool:
    """Whether a structurally sound, birth-free ``d`` straddles a dead
    pair; if so, check that region B refuses it, so that it is not
    Verified, and that the braid monodromy refuses it."""
    sw = sweep_ranks(d)
    if sw.violations or any(rec.action == "birth" for rec in sw.records):
        return False
    if not straddles_a_dead_pair(sw):
        return False
    assert check_theorem(d).verdict == "NoValidRegion"
    with pytest.raises(DiagramError, match="^diagram not verified: ") as exc:
        diagram_braid_monodromy(d)
    assert type(exc.value) is DiagramError
    return True


STRADDLING = {
    "cardioid", "concentric_circles", "deltoid",
    "crosscheck_8", "crosscheck_18", "crosscheck_19", "crosscheck_22", "crosscheck_35",
}


def test_straddling_corpus_and_golden_diagrams_end_at_region_b():
    inputs = Path(__file__).parent / "golden" / "inputs"
    named = {stem: load(stem) for stem in all_corpus_stems()}
    named.update((p.stem, parse_diagram(p.read_text(), name=p.stem)) for p in inputs.glob("*.wd"))
    assert {stem for stem, d in named.items() if refused_if_straddling(d)} == STRADDLING


def test_straddling_crosscheck_samples_end_at_region_b():
    assert any([refused_if_straddling(parse_diagram(sample(seed).dsl)) for seed in range(60)])


def birth_free_diagram(rng: random.Random) -> CurveDiagram:
    """A random in-range diagram whose one-sided events all face L, with
    each branch class at L declared as its own component, so that every
    such diagram reaches region B."""
    d = rng.randint(2, 6)
    events = []
    for sign, toward_l in ((-1, "right"), (1, "left")):
        live = d
        for i in range(1, rng.randint(1, 5) + 1):
            if live < 2:
                break
            kind = rng.choice(
                [Tangency(toward_l), Cusp(2, toward_l), Crossing(1), Crossing(3)]
                + [Ordinary(m) for m in range(2, min(live, 4) + 1)]
            )
            events.append(Event(sign * i, kind, rng.randint(1, live - kind.size + 1)))
            if isinstance(kind, (Cusp, Tangency)):
                live -= 2
    sw = sweep_ranks(CurveDiagram(d, 0, ("c",) * d, events))
    names = ["c"] * d
    for i, (_, ranks, _) in enumerate(sw.clusters):
        for r in ranks:
            names[r - 1] = "c%d" % i
    return CurveDiagram(d, 0, tuple(names), events)


def test_straddling_random_birth_free_diagrams_end_at_region_b():
    rng = random.Random("straddle")
    verified = straddling = 0
    for _ in range(3000):
        d = birth_free_diagram(rng)
        if refused_if_straddling(d):
            straddling += 1
        else:
            verified += check_theorem(d).verified
    assert straddling > 100 and verified > 100


# ---------------------------------------------------------------------------
# local braids act in closed form: the expanded path is the oracle
# ---------------------------------------------------------------------------

def expanded_meridian_words(sw) -> dict:
    """The meridian sweep with each inverse half local braid expanded
    letter by letter and the near words substituted into its images."""
    words = {r: Word.gen(r) for r in range(1, sw.diagram.d + 1)}  # rank r has edge r
    n_left = sw.diagram.left_count()
    for run in (sw.records[:n_left][::-1], sw.records[n_left:]):
        for rec in run:
            if rec.action == "through":
                near = dict(enumerate((words[e] for e in rec.near_edges), start=1))
                far = braid_images(local_braid(rec.event.kind, half=True).inverse())
                for image, e in zip(far, rec.far_edges):
                    words[e] = image.substitute(near)
    return words


def expanded_zvk(d: CurveDiagram) -> Presentation:
    """ZvK with every local braid expanded, from ``expanded_meridian_words``."""
    sw = sweep_ranks(d)
    words = expanded_meridian_words(sw)
    relators = []
    for rec in sw.records:
        meridians = [words[e] for e in rec.near_edges]
        near = dict(enumerate(meridians, start=1))
        for image, mu in zip(braid_images(local_braid(rec.event.kind))[:-1], meridians):
            rel = image.substitute(near) * mu.inverse()
            if rel:
                relators.append(rel)
    return Presentation(tuple("mu%d" % i for i in range(1, d.deg_y + 1)), tuple(relators))


def expanded_obstruction_loop(qrec, edge_gen) -> tuple[int, ...]:
    a, b = (Word.gen(edge_gen[e]) for e in qrec.block_edges)
    twist = local_braid(qrec.event.kind, half=True)
    y1 = braid_images(twist.inverse())[0].substitute({1: a, 2: b})
    return (y1 if qrec.event.kind.branch_side == "left" else y1.inverse()).letters


def outcome(fn, *args):
    """A call's result, or the type and text of the error it raised."""
    try:
        return fn(*args)
    except DiagramError as exc:
        return type(exc), str(exc)


def wide_diagrams() -> list[CurveDiagram]:
    rng = random.Random("closed-form")
    out = []
    for m in (2, 3, 4, 5, 8, 12, 20, 40):
        for sides in ("l", "r", "lr", "ll", "rlr"):
            if m < 20 or len(sides) < 3:
                out.append(parse_diagram(gen.wide_diagram(rng, m, sides).dsl))
    return out


def closed_form_inputs() -> list[CurveDiagram]:
    inputs = Path(__file__).parent / "golden" / "inputs"
    return (
        [load(stem) for stem in all_corpus_stems()]
        + [parse_diagram(p.read_text(), name=p.stem) for p in sorted(inputs.glob("*.wd"))]
        + [d for seed in range(60) for d in copies(seed)]
        + wide_diagrams()
    )


def test_closed_form_equals_the_expanded_local_braids(monkeypatch):
    checked = {"zvk": 0, "words": 0, "extended": 0}
    for d in closed_form_inputs():
        data = outcome(diagram_braid_monodromy, d)
        if isinstance(data, list):
            assert zvk_presentation(d.deg_y, data) == expanded_zvk(d)
            checked["zvk"] += 1
        words = outcome(edge_meridian_words, d)
        if isinstance(words, dict):
            assert words == expanded_meridian_words(sweep_ranks(d))
            checked["words"] += 1
        closed = outcome(extended_wirtinger, d)
        with monkeypatch.context() as patch:
            patch.setattr(genpres, "_obstruction_loop", expanded_obstruction_loop)
            expanded = outcome(extended_wirtinger, d)
        if isinstance(closed, tuple):
            assert closed == expanded
        else:
            assert closed.presentation == expanded.presentation
            checked["extended"] += any(closed.passed.values())
    assert min(checked.values()) > 10, checked


def hand_written_vertex_relators(sw, rec, crossed, edge_gen) -> list[tuple[int, ...]]:
    """A vertex's relators with the action of Delta written out: an
    ordinary point's xbar products and commutators, and an A_m point's
    conjugation by (x2 x1)^(twist // 4)."""
    if crossed and rec.action == "through":
        raise UnsupportedConfiguration(
            "%s lies beyond an obstruction point; only one-sided "
            "vertices are supported there" % rec.event.label()
        )
    kind = rec.event.kind
    x = [Word.gen(edge_gen[e]) for e in rec.block_edges]
    y = [Word.gen(edge_gen[e]) for e in rec.continued]
    relators = []
    if isinstance(kind, Ordinary):
        m = kind.m
        xbar = [Word()]
        for j in range(m):
            xbar.append(x[j] * xbar[j])  # xbar_k = x_k ... x_1
        for j in range(1, m + 1):
            relators.append(commutator(xbar[m], x[j - 1]))
        for j in range(m):
            relators.append(y[j] * (x[j].conjugated_by(xbar[j])).inverse())
    else:
        b = x[1]
        if crossed:
            z = Word()
            for qrec in crossed:
                z = z * Word(genpres._obstruction_loop(qrec, edge_gen))
            left = rec.index < sw.diagram.left_count()
            b = b.conjugated_by(z.inverse() if left else z)
        relators.append(artin_relator(x[0], b, kind.twist))
        if rec.action == "through":
            conj = (x[1] * x[0]) ** (kind.twist // 4)
            for i in (0, 1):
                relators.append(y[i] * (x[i].conjugated_by(conj)).inverse())
    return [r.letters for r in relators if r]


def long_diagrams() -> list[CurveDiagram]:
    """The benchmark's two long shapes: 8 strands and 200 through events,
    12 strands and 300."""
    rng = random.Random("long")
    return [parse_diagram(gen.long_diagram(rng, d, n).dsl) for d, n in ((8, 200), (12, 300))]


def benchmark_wide_points() -> list[CurveDiagram]:
    """The benchmark's two wide shapes with more than one point: m = 20 on
    the sides l, l, r and m = 24 on l, l."""
    rng = random.Random("wide")
    return [parse_diagram(gen.wide_diagram(rng, m, sides).dsl) for m, sides in ((20, "llr"), (24, "ll"))]


def test_vertex_relators_equal_the_hand_written_rule(monkeypatch):
    checked = {"wirtinger_presentation": 0, "extended_wirtinger": 0}
    for d in closed_form_inputs() + long_diagrams() + benchmark_wide_points():
        for build in (wirtinger_presentation, extended_wirtinger):
            closed = outcome(build, d)
            with monkeypatch.context() as patch:
                patch.setattr(genpres, "_vertex_relators", hand_written_vertex_relators)
                by_hand = outcome(build, d)
            if isinstance(closed, tuple):
                assert closed == by_hand
            else:
                assert closed.presentation == by_hand.presentation
                checked[build.__name__] += 1
    assert min(checked.values()) > 100, checked


def test_zvk_on_one_wide_point_makes_linearly_many_tuple_products(monkeypatch):
    """Work count, no timing: Delta acts in closed form, by O(m) products
    of letter tuples on an m-fold point, counted as the calls of
    ``words.product`` that braids and genpres bind; expanding Delta^2
    letter by letter would take about m^2."""
    m = 40
    d = parse_diagram(gen.wide_diagram(random.Random(m), m, "l").dsl)
    products = 0

    def counting(real):
        def counted(*runs):
            nonlocal products
            products += 1
            return real(*runs)
        return counted

    for module in (braids, genpres):
        monkeypatch.setattr(module, "product", counting(module.product))
    p = zvk_presentation(d.deg_y, diagram_braid_monodromy(d))
    assert len(p.relators) == m - 1
    assert products == 202, products


def test_building_the_presentations_takes_no_word_arithmetic(monkeypatch):
    """The builders work on letter tuples and only wrap finished words."""
    def refused(*args):
        raise AssertionError("Word arithmetic while building a presentation")

    for name in ("__mul__", "__pow__", "inverse", "conjugated_by", "substitute", "cyclically_reduced"):
        monkeypatch.setattr(Word, name, refused)
    inputs = Path(__file__).parent / "golden" / "inputs"
    built = 0
    for d in (
        [load(stem) for stem in all_corpus_stems()]
        + [parse_diagram(p.read_text(), name=p.stem) for p in sorted(inputs.glob("*.wd"))]
        + benchmark_wide_points()
    ):
        data = outcome(diagram_braid_monodromy, d)
        results = [outcome(wirtinger_presentation, d), outcome(extended_wirtinger, d)]
        if isinstance(data, list):
            results.append(zvk_presentation(d.deg_y, data))
        edge_words = outcome(edge_meridian_words, d)
        built += sum(not isinstance(r, tuple) for r in results) + isinstance(edge_words, dict)
    assert built > 40, built


def test_wrapped_relators_are_reduced_words_of_valid_letters():
    """The builders wrap their letter tuples unchecked: every relator must
    be non-empty, freely reduced and made of nonzero ints, so equal to the
    checked ``Word`` of its letters.  ZvK is left out on the long diagrams,
    where its relators run to hundreds of thousands of letters."""
    long = long_diagrams()
    relators = 0
    for d in closed_form_inputs() + long:
        results = [outcome(wirtinger_presentation, d), outcome(extended_wirtinger, d)]
        presentations = [r.presentation for r in results if not isinstance(r, tuple)]
        data = outcome(diagram_braid_monodromy, d) if d not in long else None
        if isinstance(data, list):
            presentations.append(zvk_presentation(d.deg_y, data))
        for p in presentations:
            for r in p.relators:
                assert r and type(r.letters) is tuple and Word(r.letters) == r, r
            relators += len(p.relators)
    assert relators > 10000, relators
