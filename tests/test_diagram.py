import hashlib
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from wirtlab.diagram import (
    Crossing,
    CurveDiagram,
    Cusp,
    DiagramError,
    Event,
    EventRecord,
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
from wirtlab.dsl import parse_diagram
from wirtlab.genpres import wirtinger_presentation
from wirtlab.hypocycloid import quotient_diagram
from tests.conftest import all_corpus_stems, corpus_path


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


def sweep_dump(sw) -> str:
    """Every field of each record, then the sweep's own fields, one per line."""
    lines = [repr([getattr(r, f.name) for f in fields(EventRecord)]) for r in sw.records]
    for name in ("intervals", "edge_count", "fiber_edges", "clusters", "violations"):
        lines.append(repr(getattr(sw, name)))
    return "\n".join(lines)


def pinned_diagram(name: str) -> CurveDiagram:
    if name.startswith("quotient_diagram_k"):
        return quotient_diagram(int(name[len("quotient_diagram_k"):]))
    path = Path(__file__).parent / "golden" / "inputs" / (name + ".wd")
    if not path.exists():
        path = corpus_path(name)
    return parse_diagram(path.read_text(), name=name)


# md5 of sweep_dump(sweep_ranks(d)) for every corpus diagram, every golden
# input (the two invalid ones included) and quotient_diagram(k), k = 5..8
SWEEP_MD5 = {
    "block_out_of_range": "749c3eeade551722ed3d7afde2cdfc74",
    "cardioid": "e55ba2610a398f7b9247c24a1754afb4",
    "component_mismatch": "2e13ce801ec2d26eaf6d8726c73fe20a",
    "concentric_circles": "1cdd7b438d3bcab264767f33fb2d9b77",
    "crosscheck_1": "58eea8d4e966bb401365ca9207c4b2fa",
    "crosscheck_18": "213f55fff6e87b2c5275881fbd4f058d",
    "crosscheck_19": "fbba918412967a4892b45cd708513c2d",
    "crosscheck_2": "be4c01a961aebe3581f5b319d0214334",
    "crosscheck_22": "32e1453db90c6cc1e7c5007b956ea735",
    "crosscheck_3": "c031dd91de57c8fe50ed55a3873bda65",
    "crosscheck_35": "433e4debc36fc22deeee6eed2f5ab205",
    "crosscheck_4": "b5951b71953be7d8480d016a28f41f96",
    "crosscheck_5": "c276e625ffcb6bd1e165646ddc0b2623",
    "crosscheck_8": "d5a0f3929f89de8895c99a994ae33868",
    "cuspidal_cubic": "9ea22cabf7eb52e7251e683247d4a623",
    "deltoid": "8698035e444a729e58f34620870e8db4",
    "hypocycloid_quotient_k2": "08e1b8fe7eaabcde6065dc2c789eb58d",
    "hypocycloid_quotient_k3": "1ad9fd308cbb96b1820db5f6baae3c82",
    "hypocycloid_quotient_k4": "40ff1971f3b5092354a4ad65c26abc17",
    "long_100": "7c84992ec478c14665b012131c1856d0",
    "nodal_cubic": "000bd65953243cbbedb9c5aa951a5aba",
    "parabola_two_lines": "0f7ebbe2e093a234c536a8eb7dcd80d0",
    "quotient_diagram_k5": "09c6fc95eb88defc00f5d5b144a1fc83",
    "quotient_diagram_k6": "1cc25f1dd13a0bdfeaab55b76c5211fe",
    "quotient_diagram_k7": "01aab78d08b66a1f022dd098dcad749b",
    "quotient_diagram_k8": "f4a5561d0b50f5d4124c273fa88d3c52",
    "smooth_cubic": "1e6bf526502a67344fc5021c86eed574",
}


def test_sweep_pin_covers_every_diagram():
    inputs = Path(__file__).parent / "golden" / "inputs"
    names = all_corpus_stems() + [p.stem for p in inputs.glob("*.wd")]
    names += ["quotient_diagram_k%d" % k for k in range(5, 9)]
    assert sorted(names) == sorted(SWEEP_MD5)


@pytest.mark.parametrize("name", sorted(SWEEP_MD5))
def test_sweep_is_pinned(name):
    dump = sweep_dump(sweep_ranks(pinned_diagram(name)))
    assert hashlib.md5(dump.encode()).hexdigest() == SWEEP_MD5[name]


# d = 2 strands at L and one event at x = 1: a birth may open its block
# anywhere from above the top strand to below the bottom one (top <= 3);
# any other block must fit among the two live strands (top <= 1)
@pytest.mark.parametrize("kind, last_top", [
    (Tangency("right"), 3),
    (Cusp(2, "right"), 3),
    (Tangency("left"), 1),
    (Crossing(1), 1),
    (Ordinary(2), 1),
])
def test_range_check_edges(kind, last_top):
    def sweep_violations(top):
        event = Event(Fraction(1), kind, top)
        return sweep_ranks(CurveDiagram(2, Fraction(0), ("c", "c"), (event,))).violations

    assert sweep_violations(last_top) == []
    top = last_top + 1
    assert sweep_violations(top) == [
        "sweep: block [%d..%d] out of range among 2 strands at %s at x=1"
        % (top, top + 1, type(kind).__name__.lower())
    ]
