"""The README's "Library entry points" table names only what exists, and
its counterexample says what the library computes for it."""

import importlib
import re
from importlib import resources
from pathlib import Path

import pytest

from wirtlab.diagram import check_theorem
from wirtlab.dsl import parse_diagram
from wirtlab.fpgroups import Presentation, commutator
from wirtlab.genpres import (
    diagram_braid_monodromy,
    extended_wirtinger,
    wirtinger_presentation,
    zvk_presentation,
)
from wirtlab.profiles import profile
from wirtlab.words import Word

README = Path(__file__).resolve().parent.parent / "README.md"


def entry_point_rows() -> list[tuple[list[str], list[str]]]:
    """For each row of the table: the `wirtlab.*` modules of its first cell
    and the backticked identifiers of its second."""
    text = README.read_text(encoding="utf-8")
    table = text.split("\n## Library entry points\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in table.splitlines():
        cells = line.split("|")[1:-1]
        modules = re.findall(r"`(wirtlab\.\w+)`", cells[0]) if cells else []
        if modules:
            rows.append((modules, re.findall(r"`([A-Za-z_]\w*)`", cells[1])))
    return rows


ROWS = entry_point_rows()


def test_every_library_module_has_a_row():
    files = resources.files("wirtlab").iterdir()
    library = {"wirtlab." + f.name[:-3] for f in files if f.name.endswith(".py")}
    library.discard("wirtlab.cli")
    assert {m for modules, _ in ROWS for m in modules} == library


@pytest.mark.parametrize("modules, names", ROWS, ids=[" ".join(m) for m, _ in ROWS])
def test_backticked_names_resolve(modules, names):
    loaded = [importlib.import_module(m) for m in modules]
    for name in names:
        assert any(hasattr(mod, name) for mod in loaded), name


def test_the_counterexample_with_non_real_critical_values():
    """The ellipse above a line that misses it: every check passes and the
    presentations agree, but the true group is Z^2, which S3 tells apart."""
    text = README.read_text(encoding="utf-8")
    after = text.split("The smallest known counterexample", 1)[1]
    d = parse_diagram(after.split("```\n", 2)[1])
    assert check_theorem(d).verdict == "Verified"
    assert wirtinger_presentation(d).presentation.describe() == "< x1, x2 |  >"
    assert extended_wirtinger(d).presentation.describe() == "< x1, x2 |  >"
    zvk = profile(zvk_presentation(d.d, diagram_braid_monodromy(d)))
    assert dict(zvk.hom_counts) == {"S3": 36, "S4": 576}
    z2 = Presentation(("a", "b"), (commutator(Word.gen(1), Word.gen(2)),))
    assert dict(profile(z2, ("S3",)).hom_counts) == {"S3": 18}
