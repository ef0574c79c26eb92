from fractions import Fraction

import pytest

from wirtlab.diagram import (
    Crossing,
    CurveDiagram,
    Cusp,
    DiagramError,
    Event,
    Ordinary,
    Tangency,
    auto_region_B,
    check_facing,
    check_theorem,
    event_action,
    faces,
    sweep_ranks,
    validate_wirtinger_type,
)
from wirtlab.genpres import wirtinger_presentation
from tests.conftest import all_corpus_stems


def circle_diagram():
    return CurveDiagram(
        2,
        Fraction(0),
        ("c", "c"),
        (
            Event(Fraction(-1), Tangency("right"), 1),
            Event(Fraction(1), Tangency("left"), 1),
        ),
        name="circle",
    )


def test_event_kind_validation():
    with pytest.raises(DiagramError):
        Ordinary(1)
    with pytest.raises(DiagramError):
        Crossing(0)
    with pytest.raises(DiagramError):
        Cusp(3, "left")
    with pytest.raises(DiagramError):
        Cusp(2, "up")
    with pytest.raises(DiagramError):
        Tangency("middle")


def test_coinciding_event_positions_rejected():
    with pytest.raises(DiagramError):
        CurveDiagram(
            2,
            Fraction(0),
            ("c", "c"),
            (
                Event(Fraction(1), Tangency("left"), 1),
                Event(Fraction(1), Crossing(1), 1),
            ),
        )


def test_event_on_line_rejected():
    with pytest.raises(DiagramError):
        CurveDiagram(
            2,
            Fraction(1),
            ("c", "c"),
            (Event(Fraction(1), Tangency("left"), 1),),
        )


def test_event_actions_on_circle():
    d = circle_diagram()
    left, right = d.events
    # the sweep runs outward from L, so both tangencies face L and die
    assert event_action(d, left) == "death"
    assert event_action(d, right) == "death"


def test_sweep_on_circle_is_verified():
    d = circle_diagram()
    sw = sweep_ranks(d)
    assert not sw.violations
    assert validate_wirtinger_type(d).ok
    report = check_theorem(d)
    assert report.verified
    assert report.region is not None and report.region.euler == 1


def test_structural_violation_block_out_of_range():
    # an event asking for strands 2..3 when only 2 strands are live
    d = CurveDiagram(
        2,
        Fraction(0),
        ("c", "c"),
        (
            Event(Fraction(-1), Tangency("right"), 1),
            Event(Fraction(1), Crossing(1), 2),
        ),
    )
    report = validate_wirtinger_type(d)
    assert not report.ok
    assert any("out of range" in v for v in report.violations)
    assert not check_theorem(d).verified


def test_component_declaration_violation():
    # the two strands of one oval declared as different components
    d = CurveDiagram(
        2,
        Fraction(0),
        ("a", "b"),
        (
            Event(Fraction(-1), Tangency("right"), 1),
            Event(Fraction(1), Tangency("left"), 1),
        ),
    )
    report = validate_wirtinger_type(d)
    assert not report.ok
    assert any(v.startswith("components:") for v in report.violations)


def test_obstruction_points_census(corpus):
    for stem, d in corpus.items():
        expected = sum(
            1 for e in d.events if isinstance(e.kind, (Cusp, Tangency))
        )
        recs = sweep_ranks(d).records
        assert sum(1 for r in recs if r.action != "through") == expected, stem


def test_tangency_extends_edge_count(corpus):
    for stem, d in corpus.items():
        w = wirtinger_presentation(d)
        edge_gen = w.edge_gen
        classes = {}
        for e, gen in edge_gen.items():
            classes.setdefault(gen, []).append(e)
        classes = [tuple(sorted(v)) for v in classes.values()]
        tangencies = sum(1 for e in d.events if isinstance(e.kind, Tangency))
        # each vertical tangency identifies exactly the two extended edges
        # on its block side; the class partition is their transitive closure
        merges = [
            r.near_edges or r.far_edges
            for r in w.sweep.records
            if isinstance(r.event.kind, Tangency)
        ]
        assert len(merges) == tangencies, stem
        parent = {e: e for e in edge_gen}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a, b in merges:
            parent[find(a)] = find(b)
        groups = {}
        for e in edge_gen:
            groups.setdefault(find(e), []).append(e)
        rebuilt = sorted(tuple(sorted(v)) for v in groups.values())
        assert rebuilt == sorted(classes), stem


def test_euler_characteristic_on_corpus(corpus):
    # chi(B + C_R + L_R) for the canonical candidate B: equals 1 whenever
    # the filled union is a disk; the smooth cubic's oval is disjoint from
    # everything else, giving two contractible pieces (chi = 2).
    expected = {stem: (1, True) for stem in all_corpus_stems()}
    expected["smooth_cubic"] = (2, False)
    for stem, d in corpus.items():
        report = auto_region_B(sweep_ranks(d))
        assert (report.euler, report.connected) == expected[stem], stem


def test_oval_inside_circle_is_joined_through_its_face():
    # the oval meets neither the circle nor L, but the bounded face between
    # them is in B, so the filled union is one disk
    d = CurveDiagram(
        2,
        Fraction(0),
        ("c", "c"),
        (
            Event(Fraction(-3), Tangency("right"), 1),
            Event(Fraction(1), Tangency("right"), 2),
            Event(Fraction(2), Tangency("left"), 2),
            Event(Fraction(3), Tangency("left"), 1),
        ),
    )
    report = auto_region_B(sweep_ranks(d))
    assert (report.euler, report.connected) == (1, True)


def test_facing_verdicts_on_corpus(corpus):
    facing_bad = {"cuspidal_cubic", "smooth_cubic"}
    for stem, d in corpus.items():
        violations = check_facing(d)
        assert bool(violations) == (stem in facing_bad), (stem, violations)


def test_region_verdicts_on_corpus(corpus):
    region_bad = {"cardioid", "concentric_circles", "deltoid"}
    for stem, d in corpus.items():
        report = auto_region_B(sweep_ranks(d))
        assert bool(report.blocked_faces) == (stem in region_bad), stem


def test_verified_set_on_corpus(corpus):
    verified = {
        "nodal_cubic",
        "parabola_two_lines",
        "hypocycloid_quotient_k2",
        "hypocycloid_quotient_k3",
        "hypocycloid_quotient_k4",
    }
    for stem, d in corpus.items():
        report = check_theorem(d)
        assert report.verified == (stem in verified), (stem, report.violations)
        if report.verified:
            assert report.region is not None
            assert report.region.euler == 1 and report.region.connected


def test_resweep_after_round_trip_is_identical(corpus):
    from wirtlab.dsl import parse_diagram, serialize_diagram

    for stem, d in corpus.items():
        d2 = parse_diagram(serialize_diagram(d), name=stem)
        sw1, sw2 = sweep_ranks(d), sweep_ranks(d2)
        assert sw1.fiber_edges == sw2.fiber_edges
        assert [
            (r.action, r.top, r.near_edges, r.far_edges, r.block_strands)
            for r in sw1.records
        ] == [
            (r.action, r.top, r.near_edges, r.far_edges, r.block_strands)
            for r in sw2.records
        ]


def test_faces_partition_fragments(corpus):
    for stem, d in corpus.items():
        fc = faces(sweep_ranks(d))
        seen = set()
        for face, frags in fc.face_fragments.items():
            for frag in frags:
                assert fc.faces[frag] == face
                assert frag not in seen
                seen.add(frag)
        assert seen == set(fc.faces)
