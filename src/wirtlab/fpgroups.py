"""Finite presentations of groups and Tietze simplification.

A :class:`Presentation` has named generators and relators given as
:class:`~wirtlab.words.Word` objects whose integer letters index the
generator list (1-based).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .words import Word, alternating, format_word


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relators", tuple(self.relators))
        seen = set()
        for name in self.generators:
            if name in seen:
                raise ValueError("duplicate generator name %r" % name)
            seen.add(name)
        for r in self.relators:
            if r.max_generator() > len(self.generators):
                raise ValueError("relator %r uses an unknown generator" % (r,))

    def gen(self, name: str) -> Word:
        return Word.gen(self.generators.index(name) + 1)

    def add_relators(self, extra: Iterable[Word]) -> "Presentation":
        return Presentation(self.generators, self.relators + tuple(extra))

    def describe(self) -> str:
        names = list(self.generators)
        rels = ", ".join(format_word(r, names) for r in self.relators)
        return "< %s | %s >" % (", ".join(names), rels)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "generators": list(self.generators),
            "relators": [list(map(list, r.letters)) for r in self.relators],
        }

    @staticmethod
    def from_json(data) -> "Presentation":
        """Inverse of :meth:`to_json`; malformed input raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("a presentation must be a JSON object")
        gens, rels = data.get("generators"), data.get("relators")
        if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
            raise ValueError("presentation 'generators' must be a list of names")
        if not isinstance(rels, list):
            raise ValueError("presentation 'relators' must be a list of words")
        words = []
        for i, r in enumerate(rels, start=1):
            if not isinstance(r, list) or not all(
                isinstance(x, list) and len(x) == 2 and all(type(v) is int for v in x)
                for x in r
            ):
                raise ValueError(
                    "relator %d must be a list of [generator index, exponent] pairs" % i
                )
            words.append(Word([(g, e) for g, e in r]))
        return Presentation(tuple(gens), tuple(words))

    def to_gap(self) -> str:
        """Emit a GAP script constructing the group."""
        names = ", ".join('"%s"' % g for g in self.generators)
        lines = ["F := FreeGroup(%s);" % names]
        for i, g in enumerate(self.generators, start=1):
            lines.append("%s := F.%d;" % (_gap_name(g), i))
        rels = ", ".join(
            _gap_word(r, self.generators) for r in self.relators
        ) or ""
        lines.append("rels := [%s];" % rels)
        lines.append("G := F / rels;")
        return "\n".join(lines) + "\n"


def _gap_name(name: str) -> str:
    return "g_" + "".join(c if c.isalnum() else "_" for c in name)


def _gap_word(w: Word, names: Sequence[str]) -> str:
    if not w:
        return "One(F)"
    return "*".join(
        _gap_name(names[g - 1]) + ("" if e == 1 else "^-1") for g, e in w.letters
    )


# ---------------------------------------------------------------------------
# Tietze simplification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TietzeMove:
    """One recorded simplification step.

    kind "I" moves replace or delete relators by consequences; kind "IIa"
    moves remove a generator together with a defining relator, substituting
    the defining word everywhere.  Type IIb moves (adding generators) are
    never produced, and :func:`replay_transcript` rejects them.
    """

    kind: str
    action: str
    index: int
    word: Word = field(default_factory=Word)


@dataclass(frozen=True)
class TietzeTranscript:
    moves: tuple[TietzeMove, ...]

    def kinds(self) -> set[str]:
        return {m.kind for m in self.moves}


def _cyclic_canonical(w: Word) -> tuple:
    """Canonical key of a relator up to cyclic rotation and inversion: the
    least rotation of w or of its inverse.  Only a rotation that starts at
    an occurrence of a word's least letter can be its least, so only those
    are built."""
    w = w.cyclically_reduced()
    if not w:
        return ()
    best = None
    for ls in (w.letters, w.inverse().letters):
        least = min(ls)
        for i, letter in enumerate(ls):
            if letter == least:
                rot = ls[i:] + ls[:i]
                if best is None or rot < best:
                    best = rot
    return best


def _eliminate(rels: list[Word], k: int, value: Word, n_gens: int) -> list[Word]:
    """Substitute ``value`` for generator k and re-index the generators
    above k downward, in one pass over each relator."""
    shift = {i: Word.gen(i - 1) for i in range(k + 1, n_gens + 1)}
    images = {k: value.substitute(shift), **shift}
    return [r.substitute(images) for r in rels]


def _apply_move(gens: list[str], rels: list[Word], move: TietzeMove) -> None:
    if move.kind == "I" and move.action == "reduce":
        rels[move.index] = move.word
    elif move.kind == "I" and move.action == "delete":
        del rels[move.index]
    elif move.kind == "IIa" and move.action == "eliminate":
        k = move.index  # 1-based generator index being removed
        rels[:] = _eliminate(rels, k, move.word, len(gens))
        del gens[k - 1]
    else:
        raise ValueError("unsupported Tietze move %r/%r" % (move.kind, move.action))


def replay_transcript(source: Presentation, transcript: TietzeTranscript) -> Presentation:
    gens = list(source.generators)
    rels = list(source.relators)
    for move in transcript.moves:
        _apply_move(gens, rels, move)
    return Presentation(tuple(gens), tuple(rels))


def tietze_simplify(p: Presentation) -> tuple[Presentation, TietzeTranscript]:
    """Simplify by relator reduction and generator elimination.

    Only moves of type I (relator replacement/deletion by consequences) and
    IIa (generator elimination via a relator containing it exactly once) are
    performed; type IIb moves (adding generators) are never generated.
    """
    gens = list(p.generators)
    rels = list(p.relators)
    moves: list[TietzeMove] = []

    def normalise() -> None:
        # cyclic reduction, trivial and duplicate removal
        i = 0
        seen: set[tuple] = set()
        while i < len(rels):
            reduced = rels[i].cyclically_reduced()
            if reduced != rels[i]:
                moves.append(TietzeMove("I", "reduce", i, reduced))
                rels[i] = reduced
            key = _cyclic_canonical(rels[i])
            if not rels[i] or key in seen:
                moves.append(TietzeMove("I", "delete", i))
                del rels[i]
                continue
            seen.add(key)
            i += 1

    def find_elimination() -> tuple[int, int, int] | None:
        """Return (relator idx, 1-based gen, letter position) or None.

        Prefers the shortest defining relator, then the lowest generator
        index, so runs are deterministic.
        """
        best = None
        for ri, r in enumerate(rels):
            counts: dict[int, int] = {}
            for g, _ in r.letters:
                counts[g] = counts.get(g, 0) + 1
            for g, c in counts.items():
                if c != 1:
                    continue
                key = (len(r), g)
                if best is None or key < best[0]:
                    pos = next(
                        i for i, (gg, _) in enumerate(r.letters) if gg == g
                    )
                    best = (key, ri, g, pos)
        if best is None:
            return None
        return best[1], best[2], best[3]

    normalise()
    while True:
        found = find_elimination()
        if found is None:
            break
        ri, g, pos = found
        r = rels[ri]
        # rotate so the defining letter comes first: r ~ g^e * w, so
        # g = w^-1 if e == 1 else w (then re-indexed below)
        rot = Word(r.letters[pos:] + r.letters[:pos])
        e = rot.letters[0][1]
        rest = Word(rot.letters[1:])
        value = rest.inverse() if e == 1 else rest
        del rels[ri]
        # the recorded defining word is expressed before re-indexing
        moves.append(TietzeMove("I", "delete", ri))
        moves.append(TietzeMove("IIa", "eliminate", g, value))
        rels[:] = _eliminate(rels, g, value, len(gens))
        del gens[g - 1]
        normalise()

    simplified = Presentation(tuple(gens), tuple(rels))
    return simplified, TietzeTranscript(tuple(moves))


# ---------------------------------------------------------------------------
# Artin-type presentations
# ---------------------------------------------------------------------------

def braid_relator(a: Word, b: Word) -> Word:
    """a b a = b a b as a relator word."""
    return alternating(a, b, 3) * alternating(b, a, 3).inverse()


def commutator(a: Word, b: Word) -> Word:
    return a * b * a.inverse() * b.inverse()


def artin_from_graph(
    vertices: Sequence[str], edges: Iterable[tuple[str, str]]
) -> Presentation:
    """Artin group of a graph: braid relation on edges, commutation off
    edges."""
    verts = list(vertices)
    edge_set = set()
    for a, b in edges:
        if a not in verts or b not in verts or a == b:
            raise ValueError("edge (%r, %r) is not between distinct vertices" % (a, b))
        edge_set.add(frozenset((a, b)))
    rels = []
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            a = Word.gen(i + 1)
            b = Word.gen(j + 1)
            if frozenset((verts[i], verts[j])) in edge_set:
                rels.append(braid_relator(a, b))
            else:
                rels.append(commutator(a, b))
    return Presentation(tuple(verts), tuple(rels))


def ngon_artin(n: int) -> Presentation:
    """Artin group of the n-gon graph (cyclically adjacent vertices)."""
    if n < 3:
        raise ValueError("n-gon needs n >= 3")
    verts = ["a%d" % i for i in range(n)]
    edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    return artin_from_graph(verts, edges)


def ngon_semidirect(k: int) -> Presentation:
    """Presentation of the semidirect product of the (2k-1)-gon Artin group
    by the involution rotating the polygon half a step.

    Generators ``t, x0 .. x_{k-1}``; relations:
      t^2 = 1
      [t, x_0] = 1              (the involution fixes x_0)
      x_j x_{j+1} x_j = x_{j+1} x_j x_{j+1}           (0 <= j < k-1)
      (x_{k-1} t)^3 = (t x_{k-1})^3
      [x_0, x_j] = 1                                  (1 < j <= k-1)
      [x_i, x_j] = 1                                  (0 < i, j <= k-1, j-i > 1)
      [x_i, t x_j t] = 1        (0 < i <= j <= k-1, (i,j) != (k-1,k-1))

    Writing x_{-j} := t x_j t, these relations together with [t, x_0]
    recover every braid/commutation relation of the full (2k-1)-gon by
    conjugation with t, so the presentation equals the semidirect product
    for every k >= 2.  Without [t, x_0] the list degenerates at k = 2
    (three of the relation families are empty there) and presents a
    strictly larger group.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    gens = ["t"] + ["x%d" % j for j in range(k)]
    t = Word.gen(1)

    def x(j: int) -> Word:
        return Word.gen(j + 2)

    rels: list[Word] = [t * t, commutator(t, x(0))]
    for j in range(k - 1):
        rels.append(braid_relator(x(j), x(j + 1)))
    rels.append((x(k - 1) * t) ** 3 * ((t * x(k - 1)) ** 3).inverse())
    for j in range(2, k):
        rels.append(commutator(x(0), x(j)))
    for i in range(1, k):
        for j in range(i + 2, k):
            rels.append(commutator(x(i), x(j)))
    for i in range(1, k):
        for j in range(i, k):
            if (i, j) == (k - 1, k - 1):
                continue
            rels.append(commutator(x(i), t * x(j) * t))
    return Presentation(tuple(gens), tuple(rels))
