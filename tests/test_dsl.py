from pathlib import Path

import pytest

from wirtlab.diagram import Crossing, Cusp, Ordinary, Tangency
from wirtlab.dsl import DiagramParseError, parse_diagram, serialize_diagram
from tests.conftest import all_corpus_stems, corpus_path

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def test_round_trip_is_byte_identical_on_corpus():
    paths = [corpus_path(stem) for stem in all_corpus_stems()]
    paths += sorted(GOLDEN_INPUTS.glob("*.wd"))
    assert len(paths) > len(all_corpus_stems())
    for path in paths:
        text = path.read_text()
        d = parse_diagram(text, name=path.stem)
        assert serialize_diagram(d) == text, path.name


def test_parse_rejects_unknown_lines():
    with pytest.raises(DiagramParseError):
        parse_diagram("diagram\ndegree_y 2\nbogus line\nend\n")


def test_parse_rejects_missing_terminator():
    with pytest.raises(DiagramParseError):
        parse_diagram("diagram\ndegree_y 2\nline_L at 0\nstrand 1 component c\nstrand 2 component c\n")


def test_parse_reports_line_numbers():
    text = "diagram\ndegree_y 2\nline_L at 0\nstrand 1 component c\nstrand 2 component c\nevent at 1 tangency side=up top=1\nend\n"
    with pytest.raises(DiagramParseError) as exc:
        parse_diagram(text)  # malformed event line
    assert exc.value.lineno == 6


def test_parse_reports_zero_denominator_line():
    text = "diagram\ndegree_y 1\nline_L at 0\nstrand 1 component c\nevent at 1/0 crossing m=1 top=1\nend\n"
    with pytest.raises(DiagramParseError) as exc:
        parse_diagram(text)
    assert exc.value.lineno == 5


def test_parse_accepts_rationals():
    text = (
        "diagram\ndegree_y 2\nline_L at -7/3\n"
        "strand 1 component c\nstrand 2 component c\n"
        "event at -3 tangency side=right top=1\n"
        "event at 1/2 tangency side=left top=1\nend\n"
    )
    d = parse_diagram(text)
    assert str(d.line_x) == "-7/3"
    assert serialize_diagram(d) == text


_HEAD = "diagram\ndegree_y 2\nline_L at 0\nstrand 1 component c\nstrand 2 component c\n"


@pytest.mark.parametrize(
    "line, kind",
    [
        ("event at 1 ordinary m=2 top=1", Ordinary(2)),
        ("event at 1 crossing m=3 top=1", Crossing(3)),
        ("event at 1 cusp m=2 side=left top=1", Cusp(2, "left")),
        ("event at 1 tangency side=right top=1", Tangency("right")),
    ],
    ids=["ordinary", "crossing", "cusp", "tangency"],
)
def test_each_event_kind_parses(line, kind):
    text = _HEAD + line + "\nend\n"
    d = parse_diagram(text)
    assert [e.kind for e in d.events] == [kind]
    assert d.events[0].top == 1
    assert serialize_diagram(d) == text


@pytest.mark.parametrize(
    "line",
    [
        "event at 1 tangency m=0 side=left top=1",
        "event at 1 ordinary m=2 side=left top=1",
        "event at 1 cusp side=left m=2 top=1",
        "event at 1 crossing top=1 m=1",
        "event at 1 crossing m=1",
    ],
)
def test_near_miss_event_lines_are_unrecognized(line):
    with pytest.raises(DiagramParseError) as exc:
        parse_diagram(_HEAD + line + "\nend\n")
    assert exc.value.lineno == 6
    assert str(exc.value) == "line 6: unrecognized line: %r" % line


_CROSSING_AT = "event at %s crossing m=1 top=1\n"


@pytest.mark.parametrize(
    "text, lineno, message",
    [
        ("# a comment\n\ndegree_y 2\n", 3, "expected 'diagram' header"),
        ("", 1, "missing 'diagram' header"),
        (_HEAD + "end\nend\n", 7, "content after 'end'"),
        (_HEAD + "degree_y 3\nend\n", 6, "duplicate degree_y"),
        (_HEAD + "line_L at 1\nend\n", 6, "duplicate line_L"),
        (_HEAD + "strand 2 component d\nend\n", 6, "duplicate strand rank 2"),
        (_HEAD, 1, "missing 'end'"),
        ("diagram\nline_L at 0\nstrand 1 component c\nend\n", 1, "missing degree_y"),
        ("diagram\ndegree_y 1\nstrand 1 component c\nend\n", 1, "missing line_L"),
        (
            "diagram\ndegree_y 2\nline_L at 0\n"
            "strand 1 component c\nstrand 3 component c\nend\n",
            5,
            "strand ranks must be exactly 1..d",
        ),
        (
            _HEAD + _CROSSING_AT % 1 + _CROSSING_AT % 2 + _CROSSING_AT % 1 + "end\n",
            8,
            "two events share an x-coordinate",
        ),
        (
            _HEAD + _CROSSING_AT % 1 + _CROSSING_AT % 0 + "end\n",
            7,
            "line_L passes through an event",
        ),
        (_HEAD + "event at 1 ordinary m=1 top=1\nend\n", 6, "ordinary point needs m >= 2"),
        (_HEAD + "event at 1 crossing m=2 top=1\nend\n", 6, "crossing needs odd m >= 1"),
        (_HEAD + "event at 1 cusp m=3 side=left top=1\nend\n", 6, "cusp needs even m >= 2"),
        (_HEAD + "event at 1 crossing m=1 top=0\nend\n", 6, "top rank must be >= 1"),
    ],
    ids=[
        "missing-header", "empty-file", "content-after-end",
        "duplicate-degree", "duplicate-line", "duplicate-rank",
        "missing-end", "missing-degree", "missing-line",
        "rank-gap", "repeated-x", "line-through-event",
        "ordinary-m1", "crossing-even-m", "cusp-odd-m", "top-zero",
    ],
)
def test_structural_errors_name_their_line(text, lineno, message):
    with pytest.raises(DiagramParseError) as exc:
        parse_diagram(text)
    assert exc.value.lineno == lineno
    assert str(exc.value) == "line %d: %s" % (lineno, message)
