"""Seeded random curve diagrams in wirtlab's DSL, using the standard library only.

The generator keeps its own account of the strands.  Each strand crossing L
is a token; through events (crossings, ordinary points) keep a token's
identity and only reorder the block, and a death (a cusp or tangency whose
branches face L) joins its two tokens into one real piece.  The components of
the curve are the classes of tokens under those joins, so the generator knows
the component count without asking wirtlab.

A death splits the live strands of its side into the part above it and the
part below it.  Later through events stay inside one part, so no two-sided
vertex lies beyond an obstruction point: the configurations the extended
method and the braid monodromy support.  Later deaths may join the two parts
(a strand pair around an earlier death, as in two concentric circles).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Sample:
    """One generated diagram with the facts the generator knows about it."""

    shape: str  # crosscheck | long | wide
    dsl: str
    components: int  # number of real pieces, from the generator's joins
    wirtinger_gens: int  # classes of extended edges joined across tangencies
    verified: bool | None  # True when Verified by construction, else unknown


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


class _Side:
    """Live strands of one side of L, as groups that later blocks never straddle."""

    def __init__(self, d: int):
        self.groups: list[list[int]] = [list(range(d))]

    def _offset(self, gi: int) -> int:
        return sum(len(g) for g in self.groups[:gi])

    def through(self, rng: random.Random, kind: str, m: int) -> tuple[int, list[int]] | None:
        """Place a block of ``m`` strands; return its top rank and tokens, or None."""
        size = 2 if kind == "crossing" else m
        fits = [gi for gi, g in enumerate(self.groups) if len(g) >= size]
        if not fits:
            return None
        gi = rng.choice(fits)
        g = self.groups[gi]
        i = rng.randrange(len(g) - size + 1)
        block = g[i:i + size]
        if kind == "ordinary" or m % 4 == 1:  # the branches swap order
            g[i:i + size] = block[::-1]
        return self._offset(gi) + i + 1, block

    def death(self, rng: random.Random, straddle: bool) -> tuple[int, int, int] | None:
        """Remove two adjacent strands; return (top rank, token, token) or None."""
        pairs = []  # (group index, position in group, straddles next group)
        for gi, g in enumerate(self.groups):
            pairs += [(gi, i, False) for i in range(len(g) - 1)]
            if straddle and gi + 1 < len(self.groups):
                pairs.append((gi, len(g) - 1, True))
        if not pairs:
            return None
        gi, i, across = rng.choice(pairs)
        top = self._offset(gi) + i + 1
        g = self.groups[gi]
        if across:
            nxt = self.groups[gi + 1]
            a, b = g.pop(), nxt.pop(0)
            self.groups = [x for x in self.groups if x]
            return top, a, b
        a, b = g[i], g[i + 1]
        self.groups[gi:gi + 1] = [x for x in (g[:i], g[i + 2:]) if x]
        return top, a, b


class _Diagram:
    def __init__(self, rng: random.Random, d: int):
        self.rng = rng
        self.d = d
        self.strand_root = list(range(d))  # joins of strand tokens by deaths
        self.edge_root = list(range(d))  # joins of extended edges by tangencies
        self.edge = {"left": list(range(d)), "right": list(range(d))}  # token -> edge
        self.sides = {"left": _Side(d), "right": _Side(d)}
        self.events: dict[str, list[str]] = {"left": [], "right": []}

    @staticmethod
    def _find(parent: list[int], t: int) -> int:
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    def _classes(self, parent: list[int]) -> int:
        return len({self._find(parent, t) for t in range(len(parent))})

    def through(self, side: str, kind: str, m: int) -> bool:
        found = self.sides[side].through(self.rng, kind, m)
        if found is None:
            return False
        top, block = found
        for t in block:  # each strand of the block starts a new extended edge
            self.edge[side][t] = len(self.edge_root)
            self.edge_root.append(len(self.edge_root))
        self.events[side].append("%s m=%d top=%d" % (kind, m, top))
        return True

    def death(self, side: str, straddle: bool = True) -> bool:
        found = self.sides[side].death(self.rng, straddle)
        if found is None:
            return False
        top, a, b = found
        self.strand_root[self._find(self.strand_root, a)] = self._find(self.strand_root, b)
        toward_l = "right" if side == "left" else "left"
        if self.rng.random() < 0.5:
            self.events[side].append("cusp m=2 side=%s top=%d" % (toward_l, top))
        else:  # a vertical tangency is not a vertex: its two edges are one
            ea, eb = self.edge[side][a], self.edge[side][b]
            self.edge_root[self._find(self.edge_root, ea)] = self._find(self.edge_root, eb)
            self.events[side].append("tangency side=%s top=%d" % (toward_l, top))
        return True

    def render(self, shape: str, verified: bool | None) -> Sample:
        rng = self.rng
        line = Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3, 4)))
        lines = ["diagram", "degree_y %d" % self.d, "line_L at %s" % _fmt(line)]
        names: dict[int, str] = {}
        for t in range(self.d):
            root = self._find(self.strand_root, t)
            names.setdefault(root, "c%d" % (len(names) + 1))
            lines.append("strand %d component %s" % (t + 1, names[root]))
        placed = []  # (x, text)
        for side, sign in (("left", -1), ("right", 1)):
            x = line
            for text in self.events[side]:  # from L outward
                x += sign * Fraction(rng.randrange(1, 9), rng.choice((1, 2, 4)))
                placed.append((x, text))
        for x, text in sorted(placed):
            lines.append("event at %s %s" % (_fmt(x), text))
        lines.append("end")
        return Sample(
            shape,
            "\n".join(lines) + "\n",
            len(names),
            self._classes(self.edge_root),
            verified,
        )


def crosscheck_diagram(rng: random.Random, d: int, events: int) -> Sample:
    """``d`` strands and up to ``events`` events: crossings (m = 1, 3),
    ordinary points (m >= 3), and cusps and tangencies facing L."""
    g = _Diagram(rng, d)
    for _ in range(events):
        side = rng.choice(("left", "right"))
        r = rng.random()
        if r < 0.2 and g.death(side):
            continue
        if r < 0.35 and g.through(side, "ordinary", rng.randint(3, g.d)):
            continue
        g.through(side, "crossing", rng.choice((1, 1, 3)))
    return g.render("crosscheck", None)


def long_diagram(rng: random.Random, d: int, events: int) -> Sample:
    """``d`` strands and ``events`` through events, with at most one death per
    side, outermost and facing L: Verified by construction."""
    g = _Diagram(rng, d)
    for _ in range(events):
        side = rng.choice(("left", "right"))
        if rng.random() < 0.1:
            g.through(side, "ordinary", rng.randint(3, 4))
        else:
            g.through(side, "crossing", rng.choice((1, 1, 3)))
    for side in ("left", "right"):
        if rng.random() < 0.5:
            g.death(side, straddle=False)
    return g.render("long", True)


def wide_diagram(rng: random.Random, m: int, sides: str) -> Sample:
    """Ordinary m-fold points on all d = m strands, one per letter of
    ``sides`` ("l" or "r": the side of L, from L outward).  The sides are
    given, not drawn, because two points on one side cost about twice as
    much as two on opposite sides."""
    g = _Diagram(rng, m)
    for side in sides:
        g.through({"l": "left", "r": "right"}[side], "ordinary", m)
    return g.render("wide", True)
