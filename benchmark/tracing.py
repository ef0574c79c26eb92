"""Spans and counts recorded around wirtlab's public functions.

:func:`install` replaces each traced function, in every wirtlab module that
binds it (``from .diagram import sweep_ranks`` copies the name into the
importing module), with a wrapper that records a span: name, start, end,
parent span and op id.  Spans stay in memory until :meth:`Tracer.dump`.
A layer's self time is its spans' durations minus the time their direct
child spans cover.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict

# (module, function) -> span name; the per-layer time metric is "<span>_ms"
SPANS = {
    ("dsl", "parse_diagram"): "dsl.parse",
    ("dsl", "serialize_diagram"): "dsl.serialize",
    ("diagram", "check_theorem"): "diagram.check_theorem",
    ("diagram", "validate_wirtinger_type"): "diagram.validate",
    ("diagram", "faces"): "diagram.faces",
    ("diagram", "auto_region_B"): "diagram.region",
    ("genpres", "wirtinger_presentation"): "genpres.wirtinger",
    ("genpres", "extended_wirtinger"): "genpres.extended",
    ("genpres", "diagram_braid_monodromy"): "genpres.monodromy",
    ("genpres", "zvk_presentation"): "genpres.zvk",
    ("braids", "braid_act"): "braids.braid_act",
    ("fpgroups", "tietze_simplify"): "fpgroups.tietze",
    ("abelian", "abelianization"): "abelian.snf",
    ("abelian", "smith_normal_form"): "abelian.snf",
    ("homcount", "count_homs"): "homcount",  # split by target: homcount.s3, .s4
    ("profiles", "profile"): "profiles.profile",
    ("hypocycloid", "critical_parameters"): "hypocycloid.critical",
    ("hypocycloid", "trace_quotient"): "hypocycloid.trace",
    ("hypocycloid", "quotient_diagram"): "hypocycloid.assemble",
    ("hypocycloid", "orbifold_presentation"): "hypocycloid.orbifold",
    ("hypocycloid", "verify_case"): "hypocycloid.verify",
    ("cli", "main"): "cli.main",
}
TIME_METRICS = sorted(set(SPANS.values()) - {"homcount"} | {"homcount.s3", "homcount.s4"})
COUNT_METRICS = (
    "diagram.sweep_calls",
    "diagram.events",
    "genpres.wirtinger_gens",
    "genpres.zvk_relator_len",
    "braids.braid_act_calls",
    "braids.braid_letters",
    "fpgroups.tietze_moves",
    "fpgroups.gens_in",
    "fpgroups.gens_out",
    "fpgroups.relator_len_in",
    "fpgroups.relator_len_out",
    "abelian.matrix_cells",
    "homcount.calls",
    "homcount.refusals",
)


def _letters(p) -> int:
    return sum(len(r) for r in p.relators)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, object]] = []
        self.counts: dict = defaultdict(float)
        self.space_log10: list[float] = []
        self.op_id: object = None
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        """Open a span and return its index; close it with :meth:`end`."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.op_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, end, parent, op)

    def self_times(self, op_ids) -> dict[str, float]:
        """Seconds of self time per span name, over spans of the given ops."""
        wanted = set(op_ids)
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if op in wanted:
                out[name] += end - start - child[i]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": [
                        {"name": n, "start": s, "end": e, "parent": p, "op": op}
                        for n, s, e, p, op in self.spans
                    ],
                    "counts": dict(self.counts),
                },
                fh,
            )

    # -- wrappers --------------------------------------------------------

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return wrapper

    def _wrap(self, key, fn):
        name = SPANS[key]
        counts = self.counts
        if name == "homcount":
            def count_homs(p, table, *args, **kwargs):
                counts["homcount.calls"] += 1
                self.space_log10.append(len(p.generators) * math.log10(table.size))
                index = self.begin("homcount." + table.name.lower())
                try:
                    return fn(p, table, *args, **kwargs)
                except Exception as exc:
                    if type(exc).__name__ == "ResourceGuardError":
                        counts["homcount.refusals"] += 1
                    raise
                finally:
                    self.end(index)

            return count_homs
        inner = self._spanned(name, fn)
        if name == "braids.braid_act":
            def braid_act(word, braid):
                counts["braids.braid_act_calls"] += 1
                counts["braids.braid_letters"] += len(braid.letters)
                return inner(word, braid)

            return braid_act
        if name == "fpgroups.tietze":
            def tietze_simplify(p, *args, **kwargs):
                q, transcript = inner(p, *args, **kwargs)
                counts["fpgroups.tietze_moves"] += len(transcript.moves)
                counts["fpgroups.gens_in"] += len(p.generators)
                counts["fpgroups.gens_out"] += len(q.generators)
                counts["fpgroups.relator_len_in"] += _letters(p)
                counts["fpgroups.relator_len_out"] += _letters(q)
                return q, transcript

            return tietze_simplify
        if name == "abelian.snf" and key[1] == "smith_normal_form":
            def smith_normal_form(matrix):
                counts["abelian.matrix_cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)
                return inner(matrix)

            return smith_normal_form
        if name == "diagram.check_theorem":
            def check_theorem(diagram):
                counts["diagram.events"] += len(diagram.events)
                return inner(diagram)

            return check_theorem
        if name == "genpres.wirtinger":
            def wirtinger_presentation(diagram):
                result = inner(diagram)
                counts["genpres.wirtinger_gens"] += len(result.presentation.generators)
                return result

            return wirtinger_presentation
        if name == "genpres.zvk":
            def zvk_presentation(d, data):
                p = inner(d, data)
                counts["genpres.zvk_relator_len"] += _letters(p)
                return p

            return zvk_presentation
        return inner

    def _counted_sweep(self, fn):
        counts = self.counts

        def sweep_ranks(diagram):
            counts["diagram.sweep_calls"] += 1
            return fn(diagram)

        return sweep_ranks


def install(tracer: Tracer, modules: dict) -> list:
    """Wrap the traced functions wherever the given wirtlab modules bind them.

    ``modules`` maps short names ("dsl", "diagram", ...) to module objects.
    Returns what :func:`uninstall` needs to put the originals back.
    """
    replace = {}
    for mod, fn_name in SPANS:
        fn = getattr(modules[mod], fn_name)
        replace[id(fn)] = (fn, tracer._wrap((mod, fn_name), fn))
    sweep = modules["diagram"].sweep_ranks
    replace[id(sweep)] = (sweep, tracer._counted_sweep(sweep))
    undo = []
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))
    return undo


def uninstall(undo: list) -> None:
    for module, attr, value in undo:
        setattr(module, attr, value)
