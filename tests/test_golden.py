"""Golden CLI outputs, compared byte for byte.

``tests/golden/<name>.json`` holds, for each command it names, the exit code,
standard output and standard error of ``wirtlab <command> <diagram>``.  The
diagrams are the corpus plus the files in ``tests/golden/inputs``: two
hand-built invalid diagrams and seeded random diagrams from the benchmark's
generator (crosscheck shape, Verified or NoValidRegion, and one long diagram
without ZvK).

``tests/golden/region.json`` holds, for each of those diagrams whose sweep
has no violations, the region B report and the number of faces and of
bounded faces.  It pins faces on diagrams the CLI never asks for region B,
such as those with births, where the facing check fails first.

``tests/golden/simplified.json`` holds one line per diagram and route
(Wirtinger, extended, and ZvK where the diagram is Verified): the number of
Tietze moves and the simplified presentation.  ``long_100`` is left out; its
relators are too long for a quick test.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from tests.conftest import all_corpus_stems, corpus_path
from wirtlab.cli import main
from wirtlab.diagram import DiagramError, auto_region_B, faces, sweep_ranks
from wirtlab.dsl import parse_diagram
from wirtlab.fpgroups import tietze_simplify
from wirtlab.genpres import (
    diagram_braid_monodromy,
    extended_wirtinger,
    wirtinger_presentation,
    zvk_presentation,
)

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
FLAGS = {
    "validate": (),
    "wirtinger": ("--format", "json"),
    "extended": ("--format", "json"),
    "zvk": ("--format", "json"),
}
NAMES = all_corpus_stems() + sorted(p.stem for p in INPUTS.glob("*.wd"))


def diagram_path(name: str) -> Path:
    path = INPUTS / (name + ".wd")
    return path if path.exists() else corpus_path(name)


def capture(command: str, path: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path), *FLAGS[command]])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def render(name: str, commands) -> str:
    """The golden file text for one diagram and the given commands."""
    runs = {c: capture(c, diagram_path(name)) for c in commands}
    return json.dumps(runs, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", NAMES)
def test_golden_outputs(name):
    expected = (GOLDEN / (name + ".json")).read_text(encoding="utf-8")
    assert render(name, json.loads(expected)) == expected


def render_regions() -> str:
    """The text of ``region.json``."""
    records = {}
    for name in NAMES:
        d = parse_diagram(diagram_path(name).read_text(encoding="utf-8"), name=name)
        sw = sweep_ranks(d)
        if sw.violations:
            continue
        fc = faces(sw)
        records[name] = {
            "region": auto_region_B(sw).to_json(),
            "faces": len(fc.bounded),
            "bounded_faces": sum(fc.bounded),
        }
    return json.dumps(records, indent=1, sort_keys=True) + "\n"


def test_region_golden():
    expected = (GOLDEN / "region.json").read_text(encoding="utf-8")
    assert render_regions() == expected


ROUTES = {
    "wirtinger": lambda d: wirtinger_presentation(d).presentation,
    "extended": lambda d: extended_wirtinger(d).presentation,
    "zvk": lambda d: zvk_presentation(d.d, diagram_braid_monodromy(d)),
}


def simplified_records():
    """One record per diagram and route, as ``simplified.json`` holds them;
    routes that raise DiagramError are skipped."""
    for name in NAMES:
        if name == "long_100":
            continue
        d = parse_diagram(diagram_path(name).read_text(encoding="utf-8"), name=name)
        for route, build in ROUTES.items():
            try:
                p = build(d)
            except DiagramError:
                continue
            q, transcript = tietze_simplify(p)
            yield {
                "name": name,
                "route": route,
                "moves": len(transcript.moves),
                "simplified": q.to_json(),
            }


def render_simplified() -> str:
    """The text of ``simplified.json``."""
    return "".join(
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        for record in simplified_records()
    )


def test_simplified_golden():
    expected = (GOLDEN / "simplified.json").read_text(encoding="utf-8")
    assert render_simplified() == expected


def _sizes(record) -> tuple[int, int, int]:
    """Moves, generators and letters of one simplified.json record."""
    q = record["simplified"]
    return record["moves"], len(q["generators"]), sum(map(len, q["relators"]))


if __name__ == "__main__":
    # Print one row per line of simplified.json that the wirtlab on the
    # import path no longer reproduces, with its moves, generators and
    # letters as committed -> as computed now; run from the repository root
    # as PYTHONPATH=<checkout>/src python -m tests.test_golden
    current = {(r["name"], r["route"]): r for r in simplified_records()}
    text = (GOLDEN / "simplified.json").read_text(encoding="utf-8")
    print("| name | route | moves | generators | letters |")
    print("| --- | --- | --- | --- | --- |")
    for old in map(json.loads, text.splitlines()):
        new = current.get((old["name"], old["route"]))
        if new == old:
            continue
        now = _sizes(new) if new else ("-",) * 3
        cells = ["%s -> %s" % pair for pair in zip(_sizes(old), now)]
        print("| %s | %s | %s |" % (old["name"], old["route"], " | ".join(cells)))
