import hashlib
import json
import random
import sys
from collections import deque
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
    classes,
    faces,
    sweep_ranks,
    validate_wirtinger_type,
)
from wirtlab import diagram as diagram_module
from wirtlab import genpres
from wirtlab.dsl import parse_diagram
from wirtlab.genpres import extended_wirtinger, wirtinger_presentation
from wirtlab.hypocycloid import quotient_diagram
from tests.conftest import all_corpus_stems, corpus_path
from tests.test_zvk_differential import gen


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
    left, right = sweep_ranks(circle_diagram()).records
    # the sweep runs outward from L, so both tangencies face L and die
    assert left.action == "death"
    assert right.action == "death"


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
        assert len(edge_gen) == w.sweep.edge_count + 1, stem  # entry 0 unused
        classes = {}
        for e, gen in enumerate(edge_gen[1:], start=1):
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
        parent = {e: e for e in range(1, len(edge_gen))}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a, b in merges:
            parent[find(a)] = find(b)
        groups = {}
        for e in parent:
            groups.setdefault(find(e), []).append(e)
        rebuilt = sorted(tuple(sorted(v)) for v in groups.values())
        assert rebuilt == sorted(classes), stem


def test_classes_hand_cases():
    assert classes(0, []) == []
    assert classes(3, [(1, 1)]) == [0, 1, 2]
    assert classes(4, [(2, 3), (3, 2), (2, 3)]) == [0, 1, 2, 2]
    # the chain 0 - 1 - 2 - 3 - 4, linked out of order
    assert classes(5, [(3, 4), (0, 1), (2, 3), (1, 2)]) == [0] * 5
    # {0, 2}, {1, 4} and {3, 5} are numbered by their least members
    assert classes(6, [(5, 3), (4, 1), (2, 0)]) == [0, 1, 0, 2, 1, 2]


def breadth_first_labels(n: int, pairs) -> list[int]:
    """Class labels by a breadth-first search from each unlabelled element
    in increasing order, so classes are numbered by their least member."""
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        neighbours[a].append(b)
        neighbours[b].append(a)
    label: list = [None] * n
    count = 0
    for start in range(n):
        if label[start] is not None:
            continue
        label[start] = count
        queue = deque([start])
        while queue:
            for y in neighbours[queue.popleft()]:
                if label[y] is None:
                    label[y] = count
                    queue.append(y)
        count += 1
    return label


def long_classes_inputs(monkeypatch) -> dict:
    """The ``(n, pairs)`` that each caller of ``classes`` passes while one
    seeded long diagram (8 strands, 60 events) is checked and presented, by
    the caller's name: up to hundreds of elements and pairs, against at
    most 40 elements in the random cases."""
    seen = {}

    def record(n, pairs):
        pairs = list(pairs)
        seen[sys._getframe(1).f_code.co_name] = (n, pairs)
        return classes(n, pairs)

    monkeypatch.setattr(diagram_module, "classes", record)
    monkeypatch.setattr(genpres, "classes", record)
    d = parse_diagram(gen.long_diagram(random.Random(60), 8, 60).dsl)
    check_theorem(d)
    wirtinger_presentation(d)
    return seen


def test_classes_match_a_breadth_first_search(monkeypatch):
    rng = random.Random(0)
    cases = []
    for _ in range(300):
        n = rng.randint(1, 40)
        pairs = [
            (rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randint(0, 2 * n))
        ]
        cases.append((n, pairs))
    long = long_classes_inputs(monkeypatch)
    assert sorted(long) == [
        "_euler_and_connectivity", "_presentation", "faces", "sweep_ranks",
    ]
    for n, pairs in cases + list(long.values()):
        assert classes(n, pairs) == breadth_first_labels(n, pairs), (n, pairs)


def test_connectivity_hands_classes_each_link_once(monkeypatch):
    # a fragment in B links its two bounding strand tokens again in every
    # slab they share: thousands of pairs over a dozen tokens on the
    # benchmark's 12 x 300 long diagram if they were not a set
    seen = []

    def record(n, pairs):
        pairs = list(pairs)
        if sys._getframe(1).f_code.co_name == "_euler_and_connectivity":
            seen.append(pairs)
        return classes(n, pairs)

    monkeypatch.setattr(diagram_module, "classes", record)
    report = auto_region_B(sweep_ranks(big_diagrams()["big_long_12_300"]))
    [pairs] = seen
    assert report.connected
    assert len(set(pairs)) == len(pairs)


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
        violations = check_facing(sweep_ranks(d))
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
        assert [
            (r.action, r.event.top, r.near_edges, r.far_edges, r.block_strands)
            for r in sw1.records
        ] == [
            (r.action, r.event.top, r.near_edges, r.far_edges, r.block_strands)
            for r in sw2.records
        ]


def test_faces_refuses_a_sweep_with_violations():
    d = parse_diagram(
        (Path(__file__).parent / "golden" / "inputs" / "block_out_of_range.wd").read_text()
    )
    with pytest.raises(DiagramError, match="^cannot build faces: sweep: block "):
        faces(sweep_ranks(d))


# the fields that sweep_dump writes: named rather than read off the classes,
# so that the dump of a sweep at an earlier version of the code, whose
# classes had more fields, can be compared with the pins below
RECORD_FIELDS = (
    "index", "event", "action", "near_edges", "far_edges",
    "block_edges", "continued", "block_strands",
)
SWEEP_FIELDS = ("slabs", "edge_count", "clusters", "violations")


def sweep_dump(sw) -> str:
    """The named fields of each record, then those of the sweep, one per
    line."""
    lines = [repr([getattr(r, name) for name in RECORD_FIELDS]) for r in sw.records]
    lines += [repr(getattr(sw, name)) for name in SWEEP_FIELDS]
    return "\n".join(lines)


def test_sweep_dump_covers_every_field():
    assert RECORD_FIELDS == tuple(f.name for f in fields(EventRecord))
    assert SWEEP_FIELDS == tuple(
        f.name for f in fields(SweepResult) if f.name not in ("diagram", "records")
    )


# the benchmark's big-diagrams inputs at seed 101, drawn in its order from
# one generator: two long diagrams (strands, through events), then wide
# ordinary points (m, sides of the points)
BIG_LONG = ((8, 200), (12, 300))
BIG_WIDE = ((20, "r"), (20, "llr"), (24, "ll"), (30, "l"), (36, "r"))


def big_diagrams() -> dict[str, CurveDiagram]:
    rng = random.Random("big-diagrams:101")
    samples = {"big_long_%d_%d" % shape: gen.long_diagram(rng, *shape) for shape in BIG_LONG}
    samples.update(
        ("big_wide_%d_%s" % shape, gen.wide_diagram(rng, *shape)) for shape in BIG_WIDE
    )
    return {name: parse_diagram(s.dsl, name=name) for name, s in samples.items()}


def pinned_diagram(name: str) -> CurveDiagram:
    if name.startswith("big_"):
        return big_diagrams()[name]
    if name.startswith("quotient_diagram_k"):
        return quotient_diagram(int(name[len("quotient_diagram_k"):]))
    path = Path(__file__).parent / "golden" / "inputs" / (name + ".wd")
    if not path.exists():
        path = corpus_path(name)
    return parse_diagram(path.read_text(), name=name)


# md5 of sweep_dump(sweep_ranks(d)) for every corpus diagram, every golden
# input (the two invalid ones included) and quotient_diagram(k), k = 5..8
SWEEP_MD5 = {
    "block_out_of_range": "9bf1a9996d3d008a59ef8753ef94d61d",
    "cardioid": "78f4555c1989088d2a1732b87f06d4d2",
    "component_mismatch": "49d9acd9a535805ab3950a7a5169fb29",
    "concentric_circles": "6a6237a2aeb3d50859288d035e88c329",
    "crosscheck_1": "8f15f2d30432ce07fa3487e78be2bf29",
    "crosscheck_18": "c9471da671dcec7d930672fe5d649c4d",
    "crosscheck_19": "0250ed6d837a0b2745b8f9b18b5cba28",
    "crosscheck_2": "bfb97957417f5c6e21b7c218d2ecc981",
    "crosscheck_22": "816d139dd15ad2013e2690daea119491",
    "crosscheck_3": "9eafd688a0e505da04310c8a298334de",
    "crosscheck_35": "07beffe291030f6d2d016a3fe2f3888a",
    "crosscheck_4": "6a36d3c4bf016edce2ffaba3adfa94b9",
    "crosscheck_5": "5d6eec2e7eebfb65af14e1401206f877",
    "crosscheck_8": "d3994f6ce82636b76e1e9a36750865a0",
    "cuspidal_cubic": "112007d2fd0958a5d2c86cc0b5bde762",
    "deltoid": "02afbe7cc5b0288785eee491142368e7",
    "hypocycloid_quotient_k2": "fbae290cb67a28ab3ce609ccfb2c57d4",
    "hypocycloid_quotient_k3": "806253826f26cd5cb1b9c35fde3c11f9",
    "hypocycloid_quotient_k4": "76d37d98eefa52f211f46f26e88ce537",
    "long_100": "323469c329803a15e2299ada49db6a1d",
    "nodal_cubic": "ea5985eb0d9231f6d29fa0c7a21caec5",
    "parabola_two_lines": "a3933061e879923370efd72527d43590",
    "quotient_diagram_k5": "cd60cf1f9aa21642d21d6605c9df3177",
    "quotient_diagram_k6": "dc3a63c8641a7f6282f52508ff49f894",
    "quotient_diagram_k7": "cba2602bb08c32984e037dacb3aeb1c7",
    "quotient_diagram_k8": "9de401c32192b73ac2511b6eabcbb241",
    "smooth_cubic": "624dc3cc32aa359480d967ddf8a7832d",
}


def pinned_names() -> list[str]:
    inputs = Path(__file__).parent / "golden" / "inputs"
    names = all_corpus_stems() + [p.stem for p in inputs.glob("*.wd")]
    names += ["quotient_diagram_k%d" % k for k in range(5, 9)]
    return sorted(names)


def test_sweep_pin_covers_every_diagram():
    assert pinned_names() == sorted(SWEEP_MD5)


@pytest.mark.parametrize("name", sorted(SWEEP_MD5))
def test_sweep_is_pinned(name):
    dump = sweep_dump(sweep_ranks(pinned_diagram(name)))
    assert hashlib.md5(dump.encode()).hexdigest() == SWEEP_MD5[name]


# the corpus, the golden inputs and quotient_diagram(k), k = 5..8
@pytest.mark.parametrize("name", pinned_names())
def test_faces_match_a_brute_force_oracle(name):
    sw = sweep_ranks(pinned_diagram(name))
    if sw.violations:
        with pytest.raises(DiagramError):
            faces(sw)
        return
    fc = faces(sw)
    assert fc.face == breadth_first_labels(fc.start[-1], fc.glued)
    # a face is bounded exactly when each of its fragments is interior: in
    # neither the first nor the last slab, and neither a top nor a bottom gap
    interior = [True] * len(fc.bounded)
    last = len(sw.slabs) - 1
    for si, slab in enumerate(sw.slabs):
        for g in range(len(slab) + 1):
            if not (0 < si < last and 0 < g < len(slab)):
                interior[fc.face[fc.start[si] + g]] = False
    assert fc.bounded == interior


def region_dump(sw) -> str:
    """The region report with the face and bounded-face counts, or the
    refusal of a sweep with violations."""
    try:
        fc = faces(sw)
    except DiagramError as exc:
        return "refused: %s" % exc
    counts = (len(fc.bounded), sum(fc.bounded))
    return "%r %s" % (counts, json.dumps(auto_region_B(sw).to_json(), sort_keys=True))


# md5 of region_dump(sweep_ranks(d)) for every diagram in SWEEP_MD5 and the
# benchmark's seven big-diagrams inputs at seed 101
REGION_MD5 = {
    "big_long_12_300": "ef6130a9da9af62da7457c1cd26ba037",
    "big_long_8_200": "f8109d39259c6f202888a450eec4f06c",
    "big_wide_20_llr": "36c6a915c5d3c284fdaa6d6d0da14afe",
    "big_wide_20_r": "4d38f59070d5048333888da44d8496e1",
    "big_wide_24_ll": "17294bd5639a9301eceda3c31882a604",
    "big_wide_30_l": "b928d6c8f20766ee20332328b4aafee5",
    "big_wide_36_r": "660bc8744a8e2859ae60ebfda3adbb85",
    "block_out_of_range": "8234c038767b719b1524cb5888c6ebb8",
    "cardioid": "67a5d6bcffb62c1853bf65d410c6a911",
    "component_mismatch": "f398852791330515effd3fdf6e1b0d61",
    "concentric_circles": "9bcde6511f491963da52d333ad1dcf58",
    "crosscheck_1": "b85d2fcb356f64c7a4715ceffa17d4e0",
    "crosscheck_18": "516b836c93873a4b90b3d633e349d443",
    "crosscheck_19": "26ea3cb8c9424ebe7a8e3d088ec2fb92",
    "crosscheck_2": "61f901701a1cbad59bbacf0131a2ea4e",
    "crosscheck_22": "2893b0e13204ba5a652fae3d655e7dc3",
    "crosscheck_3": "d8025b22fd5c94f4ebd227a169a125a8",
    "crosscheck_35": "0f9d830eb87b87ff16b42e41d520de1b",
    "crosscheck_4": "cf2a9eacb30ea507143e1c33c0ca7762",
    "crosscheck_5": "83850a80621da56d9b6fcd083f737261",
    "crosscheck_8": "2893b0e13204ba5a652fae3d655e7dc3",
    "cuspidal_cubic": "8654a6660bbf6a2bf489d04e10a0f1d2",
    "deltoid": "bbd750ddaa776e79ad9b5e7862534c2e",
    "hypocycloid_quotient_k2": "32efe2a0de4feebd401ce64cd6ccc625",
    "hypocycloid_quotient_k3": "b85d2fcb356f64c7a4715ceffa17d4e0",
    "hypocycloid_quotient_k4": "99b6db873d6a979bc589f6e30813b2df",
    "long_100": "b1fad5a651b05d2ef87824eb07044c0b",
    "nodal_cubic": "8654a6660bbf6a2bf489d04e10a0f1d2",
    "parabola_two_lines": "0ddc9389fb08b7be5fb8a87fc1c5caa0",
    "quotient_diagram_k5": "2171de0e5b0b02ad2513c76de642e0ce",
    "quotient_diagram_k6": "e9113747ba22f2b633f4612fc0920d6b",
    "quotient_diagram_k7": "0613f7ab5039769cdc491d496202a6fa",
    "quotient_diagram_k8": "2b6fd4e3d68cc3190e72ec3f0717b413",
    "smooth_cubic": "d9b126d44957448adff32c8d930d463e",
}


def test_region_pin_covers_every_diagram():
    assert sorted(REGION_MD5) == sorted([*SWEEP_MD5, *big_diagrams()])


@pytest.mark.parametrize("name", sorted(REGION_MD5))
def test_region_is_pinned(name):
    dump = region_dump(sweep_ranks(pinned_diagram(name)))
    assert hashlib.md5(dump.encode()).hexdigest() == REGION_MD5[name]


# Fraction comparisons (a < b) made by one check_theorem, wirtinger_presentation
# and extended_wirtinger on the benchmark's 302-event long diagram: the three
# sweeps, faces and region B each bisect the events for L's place, and no
# event compares its own x with L's: the sweep records each event's action.
# A comparison per event and per record made 1520.
LONG_FRACTION_COMPARISONS = 48


def fraction_comparisons(monkeypatch) -> int:
    d = big_diagrams()["big_long_12_300"]
    count = 0
    less = Fraction.__lt__

    def counted(a, b):
        nonlocal count
        count += 1
        return less(a, b)

    monkeypatch.setattr(Fraction, "__lt__", counted)
    check_theorem(d)
    wirtinger_presentation(d)
    extended_wirtinger(d)
    return count


def test_long_diagram_sides_take_few_fraction_comparisons(monkeypatch):
    assert fraction_comparisons(monkeypatch) == LONG_FRACTION_COMPARISONS


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


if __name__ == "__main__":
    # Print SWEEP_MD5, REGION_MD5 and LONG_FRACTION_COMPARISONS as computed by
    # the wirtlab on the import path; run from the repository root as
    # PYTHONPATH=<checkout>/src python -m tests.test_diagram
    print("SWEEP_MD5 = {")
    for name in pinned_names():
        dump = sweep_dump(sweep_ranks(pinned_diagram(name)))
        print('    "%s": "%s",' % (name, hashlib.md5(dump.encode()).hexdigest()))
    print("}")
    print("REGION_MD5 = {")
    for name in sorted([*SWEEP_MD5, *big_diagrams()]):
        dump = region_dump(sweep_ranks(pinned_diagram(name)))
        print('    "%s": "%s",' % (name, hashlib.md5(dump.encode()).hexdigest()))
    print("}")
    with pytest.MonkeyPatch.context() as mp:
        print("LONG_FRACTION_COMPARISONS = %d" % fraction_comparisons(mp))
