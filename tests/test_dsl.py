import pytest

from wirtlab.dsl import DiagramParseError, parse_diagram, serialize_diagram
from tests.conftest import all_corpus_stems, corpus_path


def test_round_trip_is_byte_identical_on_corpus():
    for stem in all_corpus_stems():
        text = corpus_path(stem).read_text()
        d = parse_diagram(text, name=stem)
        assert serialize_diagram(d) == text, stem


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
