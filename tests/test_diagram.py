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
    SweepResult,
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
            (r.action, r.event.top, r.near_edges, r.far_edges, r.block_strands)
            for r in sw1.records
        ] == [
            (r.action, r.event.top, r.near_edges, r.far_edges, r.block_strands)
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


def test_faces_refuses_a_sweep_with_violations():
    d = parse_diagram(
        (Path(__file__).parent / "golden" / "inputs" / "block_out_of_range.wd").read_text()
    )
    with pytest.raises(DiagramError, match="^cannot build faces: sweep: block "):
        faces(sweep_ranks(d))


def sweep_dump(sw) -> str:
    """Every field of each record, then every field of the sweep but the
    diagram and its records, one per line."""
    lines = [repr([getattr(r, f.name) for f in fields(EventRecord)]) for r in sw.records]
    for f in fields(SweepResult):
        if f.name not in ("diagram", "records"):
            lines.append(repr(getattr(sw, f.name)))
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
    "block_out_of_range": "4290ec4389112fe3b7d58d7480eb0521",
    "cardioid": "9744e5e344ec484f5a5b9eafdbf5f71b",
    "component_mismatch": "f5d48250643d6bda47caa1156b3e14bc",
    "concentric_circles": "1c8bd54c9187fafb4e321ef1e2d87cb6",
    "crosscheck_1": "b61da406e5e5c8cd2a4827b15de4e232",
    "crosscheck_18": "f975bb3835390f99c37227e57d117704",
    "crosscheck_19": "6a36d989d8eaa0e8a3bc31824cc03000",
    "crosscheck_2": "d7a6c67749e5ab6e49cadd0f46f16d09",
    "crosscheck_22": "01d557ed3506ec86e1d9d2854c9701c6",
    "crosscheck_3": "5c153cef696ad5be3cfbc8c133781526",
    "crosscheck_35": "d5f5b104ed3a4a6f57ad4dcda08feb99",
    "crosscheck_4": "6ef1313eaa279408adae8c74447779f8",
    "crosscheck_5": "db17cb2e8c52f31e114e2159554b09b8",
    "crosscheck_8": "7f5cd18848f7197e43b516dcd5795736",
    "cuspidal_cubic": "df4adebe959be0862fad194d9f51490e",
    "deltoid": "65ad4d617d6dc8cd0b45a806080c7a50",
    "hypocycloid_quotient_k2": "fbba5d079ee1325411e4a84110bf50ed",
    "hypocycloid_quotient_k3": "da515cdc23b8e380496485af9d63e1c4",
    "hypocycloid_quotient_k4": "159b5c6ceea5633e1e62c05dc159642b",
    "long_100": "0ef2eaf1e5a10baa47874ac9ef087be5",
    "nodal_cubic": "620dd093cda1401ec67a2aa03b5de25c",
    "parabola_two_lines": "ddde94323f1facf5af4f41a622d65967",
    "quotient_diagram_k5": "cf3f1b3422ef22613141e91bf0ed0dda",
    "quotient_diagram_k6": "9560efbff6bfb422e8dace2e96806ea8",
    "quotient_diagram_k7": "0b0e81d1051fca21dd509246fc6d5831",
    "quotient_diagram_k8": "3f0b4d7d662f66ad686d6053ac9bc480",
    "smooth_cubic": "a1b74e653041251fee3d33cead974318",
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
