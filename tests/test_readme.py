"""The README's "Library entry points" table names only what exists."""

import importlib
import re
from importlib import resources
from pathlib import Path

import pytest

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
