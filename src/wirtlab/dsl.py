"""Line-oriented text format for curve diagrams.

::

    diagram
    degree_y <d>
    line_L at <rational>
    strand <rank> component <name>        # one per rank 1..d
    event at <rational> ordinary m=<m> top=<rank>
    event at <rational> crossing m=<m> top=<rank>
    event at <rational> cusp m=<m> side=<left|right> top=<rank>
    event at <rational> tangency side=<left|right> top=<rank>
    end

Rationals are written ``p/q`` or as plain integers.  ``#`` starts a comment;
blank lines are ignored.  ``top`` is the rank of the block's highest strand
in the interval between the event and L.  Serialization round-trips exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .diagram import (
    Crossing,
    CurveDiagram,
    Cusp,
    DiagramError,
    Event,
    Ordinary,
    Tangency,
)


class DiagramParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__("line %d: %s" % (lineno, message))
        self.lineno = lineno


_RATIONAL = r"-?\d+(?:/\d+)?"
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"

_RE_DEGREE = re.compile(r"^degree_y\s+(\d+)$")
_RE_LINE = re.compile(r"^line_L\s+at\s+(%s)$" % _RATIONAL)
_RE_STRAND = re.compile(r"^strand\s+(\d+)\s+component\s+(%s)$" % _NAME)
# DSL field key -> the kind attribute it holds, its pattern and its conversion
_FIELDS = {
    "m": ("m", r"\d+", int),
    "side": ("branch_side", r"left|right", str),
}
# DSL kind name -> its class and its key=value fields, in constructor order
_KINDS = {
    "ordinary": (Ordinary, ("m",)),
    "crossing": (Crossing, ("m",)),
    "cusp": (Cusp, ("m", "side")),
    "tangency": (Tangency, ("side",)),
}
_RE_EVENTS = {
    name: re.compile(
        r"^event\s+at\s+(%s)\s+%s\s+%s\s+top=(\d+)$"
        % (_RATIONAL, name, r"\s+".join(
            "%s=(%s)" % (key, _FIELDS[key][1]) for key in keys
        ))
    )
    for name, (_, keys) in _KINDS.items()
}
_NAME_OF_KIND = {cls: name for name, (cls, _) in _KINDS.items()}


def _parse_event(line: str) -> Event | None:
    for kind_name, (cls, keys) in _KINDS.items():
        m = _RE_EVENTS[kind_name].match(line)
        if m:
            x, *values, top = m.groups()
            x = Fraction(x)  # before the kind: a zero denominator is reported first
            kind = cls(*(_FIELDS[key][2](v) for key, v in zip(keys, values)))
            return Event(x, kind, int(top))
    return None


def parse_diagram(text: str, name: str = "") -> CurveDiagram:
    degree_y = None
    line_x = None
    strands: dict[int, tuple[int, str]] = {}  # rank -> its line and component
    events: list[tuple[int, Event]] = []  # with the line each is on
    seen_header = False
    seen_end = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if seen_end:
            raise DiagramParseError(lineno, "content after 'end'")
        if not seen_header:
            if line != "diagram":
                raise DiagramParseError(lineno, "expected 'diagram' header")
            seen_header = True
            continue
        if line == "end":
            seen_end = True
            continue
        m = _RE_DEGREE.match(line)
        if m:
            if degree_y is not None:
                raise DiagramParseError(lineno, "duplicate degree_y")
            degree_y = int(m.group(1))
            continue
        m = _RE_STRAND.match(line)
        if m:
            rank = int(m.group(1))
            if rank in strands:
                raise DiagramParseError(lineno, "duplicate strand rank %d" % rank)
            strands[rank] = (lineno, m.group(2))
            continue
        try:
            m = _RE_LINE.match(line)
            if m:
                if line_x is not None:
                    raise DiagramParseError(lineno, "duplicate line_L")
                line_x = Fraction(m.group(1))
                continue
            event = _parse_event(line)
            if event is not None:
                events.append((lineno, event))
                continue
        except DiagramError as exc:
            raise DiagramParseError(lineno, str(exc)) from exc
        except ZeroDivisionError:
            raise DiagramParseError(lineno, "zero denominator") from None
        raise DiagramParseError(lineno, "unrecognized line: %r" % raw.strip())

    if not seen_header:
        raise DiagramParseError(1, "missing 'diagram' header")
    if not seen_end:
        raise DiagramParseError(1, "missing 'end'")
    if degree_y is None:
        raise DiagramParseError(1, "missing degree_y")
    if line_x is None:
        raise DiagramParseError(1, "missing line_L")
    for rank, (lineno, _) in strands.items():  # the ranks are distinct
        if not 1 <= rank <= len(strands):
            raise DiagramParseError(lineno, "strand ranks must be exactly 1..d")
    line_of_x: dict = {}  # x -> the line of the first event there
    for lineno, event in events:
        if event.x in line_of_x:
            raise DiagramParseError(lineno, "two events share an x-coordinate")
        line_of_x[event.x] = lineno
    if line_x in line_of_x:
        raise DiagramParseError(line_of_x[line_x], "line_L passes through an event")
    components = tuple(strands[r][1] for r in range(1, len(strands) + 1))
    return CurveDiagram(
        degree_y, line_x, components, tuple(e for _, e in events), name=name
    )


def _fmt_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (
        q.numerator,
        q.denominator,
    )


def serialize_diagram(diagram: CurveDiagram) -> str:
    lines = ["diagram", "degree_y %d" % diagram.deg_y]
    lines.append("line_L at %s" % _fmt_rational(diagram.line_x))
    for rank, comp in enumerate(diagram.components, start=1):
        lines.append("strand %d component %s" % (rank, comp))
    for ev in diagram.events:
        x = _fmt_rational(ev.x)
        name = _NAME_OF_KIND[type(ev.kind)]
        fields = "".join(
            "%s=%s " % (key, getattr(ev.kind, _FIELDS[key][0]))
            for key in _KINDS[name][1]
        )
        lines.append("event at %s %s %stop=%d" % (x, name, fields, ev.top))
    lines.append("end")
    return "\n".join(lines) + "\n"
