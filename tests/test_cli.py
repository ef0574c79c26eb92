import json
import random
import shlex
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmark"))

import gen  # noqa: E402

from wirtlab import hypocycloid  # noqa: E402
from wirtlab.cli import main  # noqa: E402
from wirtlab.fpgroups import artin_from_graph  # noqa: E402
from tests.conftest import corpus_path  # noqa: E402


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_validate_verified(capsys):
    code, out, _ = run(capsys, "validate", str(corpus_path("nodal_cubic")))
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "Verified"


def test_validate_region_failure_is_a_verdict_not_an_error(capsys):
    code, out, _ = run(capsys, "validate", str(corpus_path("cardioid")))
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "NoValidRegion"


def test_validate_facing_failure(capsys):
    code, out, _ = run(capsys, "validate", str(corpus_path("cuspidal_cubic")))
    assert code == 0
    assert json.loads(out)["verdict"] == "FacingViolation"


def test_validate_connectivity_failure(capsys):
    code, out, _ = run(capsys, "validate", str(corpus_path("smooth_cubic")))
    assert code == 0
    assert json.loads(out)["verdict"] == "ConnectivityViolation"


def test_wirtinger_json_and_gap_formats(capsys):
    path = str(corpus_path("nodal_cubic"))
    code, out, _ = run(capsys, "wirtinger", path, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["generators"]
    code, gap, _ = run(capsys, "wirtinger", path, "--format", "gap")
    assert code == 0 and "FreeGroup" in gap


def test_zvk_command(capsys):
    code, out, _ = run(capsys, "zvk", str(corpus_path("parabola_two_lines")), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["generators"]) == 3


def test_extended_command(capsys):
    code, out, _ = run(capsys, "extended", str(corpus_path("cardioid")), "--format", "json")
    assert code == 0
    assert json.loads(out)["relators"]


def test_invariants_and_compare_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "wirtinger", str(corpus_path("nodal_cubic")), "--format", "json")
    pres = out
    f1 = tmp_path / "p1.json"
    f1.write_text(pres)
    code, out, _ = run(capsys, "invariants", str(f1))
    assert code == 0
    inv = json.loads(out)
    assert inv["hom_counts"]["S3"] == 6
    code, out, _ = run(capsys, "compare", str(f1), str(f1))
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_simplify_command(capsys, tmp_path):
    code, out, _ = run(capsys, "wirtinger", str(corpus_path("cuspidal_cubic")), "--format", "json")
    pres = out
    f1 = tmp_path / "p.json"
    f1.write_text(pres)
    code, out, _ = run(capsys, "simplify", str(f1))
    assert code == 0
    data = json.loads(out)
    assert set(data["move_kinds"]) <= {"I", "IIa"}
    assert len(data["presentation"]["generators"]) == 2


def test_hypo_stats_command(capsys):
    code, out, _ = run(capsys, "hypo-stats", "--k", "3")
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 6 and data["ramification_identity"] is True


@pytest.mark.parametrize("k", [2, 3, 4])
def test_hypo_diagram_round_trips(capsys, k):
    code, out, _ = run(capsys, "hypo-diagram", "--k", str(k))
    assert code == 0
    assert out == corpus_path("hypocycloid_quotient_k%d" % k).read_text()


def test_hypo_diagram_k12_stops_at_the_separation_check(capsys):
    code, out, err = run(capsys, "hypo-diagram", "--k", "12")
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["type"] == "TracingError"
    # the gap, then the two events it lies between, named as traced
    assert error["error"] == (
        "event separation below tolerance: 7.778e-07 between "
        "crossing x=-0.043479 and crossing x=-0.043478"
    )


def test_hypo_diagram_reports_an_assembly_refusal(capsys, monkeypatch):
    # a snapping grid of 1/10 puts L and the transversal crossing of k = 3
    # on one point
    monkeypatch.setattr(hypocycloid, "_SNAP", 10)
    code, out, err = run(capsys, "hypo-diagram", "--k", "3")
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["type"] == "TracingError"
    assert error["error"].startswith("x-coordinate snapping collided: L x=")


@pytest.mark.parametrize("command, k", [("hypo-diagram", 1415), ("hypo-verify", 10**7)])
def test_hypo_commands_refuse_a_k_too_large_to_separate_its_events(capsys, command, k):
    code, out, err = run(capsys, command, "--k", str(k))
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["type"] == "TracingError"
    assert error["error"].startswith("event separation below tolerance: k = %d " % k)


@pytest.mark.parametrize("command", ["hypo-diagram", "hypo-verify"])
def test_hypo_commands_refuse_k_below_2(capsys, command):
    code, out, err = run(capsys, command, "--k", "1")
    assert code == 2 and out == ""
    assert json.loads(err) == {"schema": 1, "error": "need k >= 2", "type": "ValueError"}


def test_hypo_verify_command(capsys):
    code, out, _ = run(capsys, "hypo-verify", "--k", "2")
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is True


@pytest.mark.parametrize("value", ["abc", "-5", "1.5"])
def test_bad_hom_bound_is_a_user_error(capsys, monkeypatch, tmp_path, value):
    path = tmp_path / "z.json"
    path.write_text('{"generators": ["a"], "relators": []}')
    monkeypatch.setenv("WIRTLAB_HOM_BOUND", value)
    code, out, err = run(capsys, "invariants", str(path))
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["type"] == "ValueError" and "WIRTLAB_HOM_BOUND" in error["error"]


@pytest.mark.parametrize("value", ["abc", "-5", "1.5"])
def test_bad_tietze_bound_is_a_user_error(capsys, monkeypatch, tmp_path, value):
    path = tmp_path / "z.json"
    path.write_text('{"generators": ["a"], "relators": []}')
    monkeypatch.setenv("WIRTLAB_TIETZE_BOUND", value)
    code, out, err = run(capsys, "simplify", str(path))
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["type"] == "ValueError" and "WIRTLAB_TIETZE_BOUND" in error["error"]


def test_simplify_refuses_a_long_wirtinger_presentation_past_the_letter_budget(capsys, tmp_path):
    """On the benchmark's 8-strand, 200-event long diagram (seed 101),
    least-growth eliminations would grow one relator past two million
    letters; the default letter budget stops them after about 1,000 moves.
    The budget bounds letters, not time: this draw is refused in about a
    second and relators are keyed in linear time, but how many moves a
    draw makes before it reaches the budget depends on the draw, so this
    is no time bound."""
    diagram = tmp_path / "long.wd"
    diagram.write_text(gen.long_diagram(random.Random("big-diagrams:101"), 8, 200).dsl)
    code, out, _ = run(capsys, "wirtinger", str(diagram), "--format", "json")
    assert code == 0
    pres = tmp_path / "long.json"
    pres.write_text(out)
    code, out, err = run(capsys, "simplify", str(pres))
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["type"] == "ResourceGuardError"
    assert error["error"].startswith("Tietze simplification after ")
    assert "WIRTLAB_TIETZE_BOUND" in error["error"]


def test_hom_bound_refusal_is_a_user_error(capsys, monkeypatch):
    monkeypatch.setenv("WIRTLAB_HOM_BOUND", "50")
    code, out, err = run(capsys, "hypo-verify", "--k", "2")
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["type"] == "ResourceGuardError" and "nodes" in error["error"]


def test_a_deep_search_past_the_node_budget_is_a_user_error(capsys, monkeypatch, tmp_path):
    path = tmp_path / "free.json"
    path.write_text(json.dumps({"generators": ["g%d" % i for i in range(1200)], "relators": []}))
    monkeypatch.setenv("WIRTLAB_HOM_BOUND", "100000")
    code, out, err = run(capsys, "invariants", str(path))
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["type"] == "ResourceGuardError"
    assert "1200 generators" in error["error"] and "nodes" in error["error"]


def test_z6_invariants_fit_a_small_hom_bound(capsys, monkeypatch, tmp_path):
    """Z^6 into S4 takes 17,672 nodes when every depth acts by the
    stabilizer of the images so far, and 62,184 when nothing acted past
    depth 1."""
    path = tmp_path / "z6.json"
    path.write_text(json.dumps(artin_from_graph(["g%d" % i for i in range(6)], []).to_json()))
    monkeypatch.setenv("WIRTLAB_HOM_BOUND", "20000")
    code, out, _ = run(capsys, "invariants", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["abelian"] == {"free_rank": 6, "torsion": []}
    assert data["hom_counts"] == {"S3": 918, "S4": 31200}


def test_missing_file_is_a_user_error(capsys):
    code, out, err = run(capsys, "validate", "no_such_file.wd")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "text",
    [
        "diagram\nnot a line\nend\n",
        "diagram\ndegree_y 1\nline_L at 1/0\nstrand 1 component c\nend\n",
        "diagram\ndegree_y 2\nline_L at 0\nstrand 1 component c\n"
        "strand 2 component c\nevent at 1/0 crossing m=1 top=1\nend\n",
    ],
    ids=["unrecognized", "line-zero-denominator", "event-zero-denominator"],
)
def test_malformed_diagram_is_a_user_error(capsys, tmp_path, text):
    bad = tmp_path / "bad.wd"
    bad.write_text(text)
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"generators": ["a"]}',
        "[]",
        '{"generators": ["a"], "relators": 5}',
        '{"generators": ["a"], "relators": [[["a", 1]]]}',
        pytest.param("[" * 100000 + "]" * 100000, id="deeply-nested"),
    ],
)
def test_malformed_presentation_is_a_user_error(capsys, tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for argv in (("invariants", bad), ("compare", bad, bad), ("simplify", bad)):
        code, out, err = run(capsys, *map(str, argv))
        assert code == 2 and out == "", argv
        assert json.loads(err)["type"] == "ValueError", argv


def test_unreadable_presentation_errors_name_the_file(capsys, tmp_path):
    good = tmp_path / "good.json"
    good.write_text('{"generators": ["a"], "relators": []}')
    diagram = corpus_path("nodal_cubic")
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"generators": ["\xe9"], "relators": []}')
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"generators": ["a"], "relators": [[[1, 1]], [[2, -1]]]}')
    not_json = "Expecting value: line 1 column 1 (char 0)"
    not_utf8 = "'utf-8' codec can't decode byte 0xe9 in position 17: invalid continuation byte"
    for argv, message in [
        (("invariants", diagram), "%s: %s" % (diagram, not_json)),
        (("compare", good, diagram), "%s: %s" % (diagram, not_json)),
        (("simplify", latin1), "%s: %s" % (latin1, not_utf8)),
        (("compare", good, unknown), "%s: relator 2 uses an unknown generator" % unknown),
    ]:
        code, out, err = run(capsys, *map(str, argv))
        assert code == 2 and out == "", argv
        assert json.loads(err) == {"schema": 1, "error": message, "type": "ValueError"}


@pytest.mark.parametrize(
    "argv",
    [
        ["hypo-verify", "--k", "abc"],
        ["no-such-command"],
        ["validate"],
        ["simplify", "--allow-iib", "presentation.json"],
    ],
    ids=" ".join,
)
def test_bad_command_line_is_a_user_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["type"] == "UsageError"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_broken_pipe_exits_quietly(capsys, monkeypatch, tmp_path):
    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fh.fileno()))
        code = main(["wirtinger", str(corpus_path("nodal_cubic")), "--format", "json"])
    assert code == 1
    assert capsys.readouterr().err == ""


def readme_examples() -> list[list[str]]:
    """The README's `wirtlab ...` command lines that name a diagram file or
    a hypo-* command; the presentation-file examples are placeholders."""
    out = []
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if not line.startswith("wirtlab "):
            continue
        argv = shlex.split(line, comments=True)[1:]
        if any(a.endswith(".wd") for a in argv) or argv[0].startswith("hypo-"):
            out.append(argv)
    return out


@pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
def test_readme_example_runs(capsys, monkeypatch, argv):
    monkeypatch.chdir(ROOT)
    code, out, err = run(capsys, *argv)
    assert code == 0, err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"generators": ["a", "a"], "relators": []}', "duplicate generator name 'a'"),
        ('{"generators": ["a"], "relators": [[[2, 1]]]}', "relator 1 uses an unknown generator"),
        ('{"generators": ["a"], "relators": [[[0, 1]]]}', "relator 1: generator indices start at 1, got 0"),
        ('{"generators": ["a"], "relators": [[[1, 2]]]}', "relator 1: letter exponents must be +1 or -1, got 2"),
        ('{"generators": ["a"], "relators": [[[1, 0]]]}', "relator 1: letter exponents must be +1 or -1, got 0"),
        (
            '{"generators": ["a"], "relators": [[[true, 1]]]}',
            "relator 1 must be a list of [generator index, exponent] pairs",
        ),
        ('{"generators": "ab", "relators": []}', "presentation 'generators' must be a list of names"),
    ],
    ids=[
        "duplicate-name", "index-past-end", "index-zero", "exponent-two", "exponent-zero",
        "index-true", "generators-not-a-list",
    ],
)
def test_simplify_refuses_a_bad_presentation(capsys, tmp_path, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run(capsys, "simplify", str(bad))
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "schema": 1, "error": "%s: %s" % (bad, message), "type": "ValueError",
    }


@pytest.mark.parametrize(
    "targets, message",
    [(",", "no target groups given"), ("S6", "unknown target group 'S6'")],
)
def test_bad_targets_are_a_user_error(capsys, tmp_path, targets, message):
    path = tmp_path / "z.json"
    path.write_text('{"generators": ["a"], "relators": []}')
    code, out, err = run(capsys, "invariants", str(path), "--targets", targets)
    assert code == 2 and out == ""
    assert json.loads(err) == {"schema": 1, "error": message, "type": "ValueError"}


def test_degree_mismatch_is_a_verdict_for_validate_and_an_error_for_wirtinger(capsys, tmp_path):
    path = tmp_path / "d3.wd"
    path.write_text(
        "diagram\ndegree_y 3\nline_L at 0\nstrand 1 component c\nstrand 2 component c\nend\n"
    )
    message = "W3: 2 strands declared at L but degree_y is 3"
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "StructuralViolation"
    assert data["theorem"]["violations"] == data["validation"]["violations"] == [message]
    code, out, err = run(capsys, "wirtinger", str(path))
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "schema": 1, "error": "invalid diagram: " + message, "type": "DiagramError",
    }
