"""Finite presentations of groups and Tietze simplification.

A :class:`Presentation` has named generators and relators given as
:class:`~wirtlab.words.Word` objects, whose signed letters index the
generator list (1-based); only its JSON form writes a letter as a
``[generator, exponent]`` pair.  :func:`tietze_simplify` eliminates, at
each step, the generator whose defining relator gives the least estimated
length growth, (occurrences of g in the other relators) * (len(r) - 2) - 2,
ties going to the shorter relator, the lower generator, then the earlier
relator.  It and its transcripts keep the source numbering; the kept
generators are renumbered 1.. once, at the end.  It works on each
relator's letter tuple with the tuple helpers of :mod:`wirtlab.words`, and
an elimination joins a relator's runs and images in one ``product``;
:func:`replay_transcript` checks a transcript by applying its moves with
:meth:`Word.substitute <wirtlab.words.Word.substitute>`, independent of
that loop.  A budget bounds the letters the loop's relators may hold
(:data:`TIETZE_BOUND_ENV`); past it the loop raises
:class:`~wirtlab.guards.ResourceGuardError`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Iterable, Sequence

from .guards import ResourceGuardError, env_bound
from .words import (
    Word, alternating_factors, cyclically_reduce, format_word, invert, product,
)


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
        # one pass over every letter; only a failing check looks for the
        # first bad relator, to name it
        n = len(self.generators)
        letters = chain.from_iterable(map(attrgetter("letters"), self.relators))
        if max(map(abs, letters), default=0) > n:
            i = next(i for i, r in enumerate(self.relators, start=1) if r.max_generator() > n)
            raise ValueError("relator %d uses an unknown generator" % i)

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
            "relators": [[[abs(x), 1 if x > 0 else -1] for x in r] for r in self.relators],
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
            for g, e in r:
                if g < 1:
                    raise ValueError(
                        "relator %d: generator indices start at 1, got %r" % (i, g)
                    )
                if e not in (1, -1):
                    raise ValueError(
                        "relator %d: letter exponents must be +1 or -1, got %r" % (i, e)
                    )
            words.append(Word([g * e for g, e in r]))
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
        _gap_name(names[abs(x) - 1]) + ("" if x > 0 else "^-1") for x in w.letters
    )


# ---------------------------------------------------------------------------
# Tietze simplification
# ---------------------------------------------------------------------------

# A letter the loop holds is an 8-byte slot of its relator's tuple; the
# copies share their int objects.  At worst a relator also keeps its
# duplicate key, a second copy whose inverted letters may be new 32-byte
# ints, and the relator being rewritten is held as a list and a tuple at
# once: about 60 bytes a letter in all.  So the default budget bounds the
# loop near 600 MB at worst, and near 150 MB when few relators are keyed.
DEFAULT_TIETZE_BOUND = 10**7
TIETZE_BOUND_ENV = "WIRTLAB_TIETZE_BOUND"


@dataclass(frozen=True)
class TietzeMove:
    """One recorded simplification step.

    kind "I" moves replace or delete relators by consequences; kind "IIa"
    moves remove a generator together with a defining relator, substituting
    the defining word everywhere.  Type IIb moves (adding generators) are
    never produced, and :func:`replay_transcript` rejects them.

    Words and IIa indices use the source generator numbering throughout;
    the kept generators are numbered 1.. in source order after the last move.
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


def _positions(t: tuple[int, ...], x: int) -> list[int]:
    """The indices of x in t, in order."""
    found, i = [], -1
    try:
        while True:
            i = t.index(x, i + 1)
            found.append(i)
    except ValueError:
        return found


def _least_rotation(t: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation of t, in linear time: it starts where the last
    Lyndon factor of t + t that begins in the first copy of t does, and
    Duval's algorithm (J. Algorithms 4, 1983) finds the factors in order."""
    n, tt = len(t), t + t
    i = first = 0
    while i < n:
        first, j, k = i, i + 1, i
        while j < 2 * n and tt[k] <= tt[j]:
            k = i if tt[k] < tt[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return tt[first:first + n]


def _cyclic_canonical(t: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical key of a relator's letters up to cyclic rotation and
    inversion: the least rotation of its cyclic reduction or of that one's
    inverse."""
    t = cyclically_reduce(t)
    return min(_least_rotation(t), _least_rotation(invert(t)))


def _substitute(
    t: tuple[int, ...], g: int, image: tuple[int, ...], inverse: tuple[int, ...]
) -> tuple[int, ...]:
    """The relator letters t with x_g replaced by ``image`` and x_g^-1 by
    ``inverse``.  The runs between the replaced letters and the images are
    reduced already, so they are joined whole in one :func:`product`, which
    cancels only at the seams."""
    runs: list[tuple[int, ...]] = []
    start = 0
    for i in sorted(_positions(t, g) + _positions(t, -g)):
        runs += (t[start:i], image if t[i] == g else inverse)
        start = i + 1
    runs.append(t[start:])
    return product(*runs)


def _apply_move(n_gens: int, gone: set[int], rels: list[Word], move: TietzeMove) -> list[int]:
    """Apply one move to ``rels``; ``gone`` holds the eliminated generators.
    Returns the indices of the relators that a IIa move rewrote."""
    if move.kind == "I" and move.action in ("reduce", "delete"):
        if not 0 <= move.index < len(rels) or (
            move.action == "reduce" and move.word != rels[move.index].cyclically_reduced()
        ):
            raise ValueError("%r is not a type I move on the relators" % (move,))
        if move.action == "reduce":
            rels[move.index] = move.word
        else:
            del rels[move.index]
        return []
    if move.kind == "IIa" and move.action == "eliminate":
        k = move.index
        if not 1 <= k <= n_gens or k in gone or any(
            abs(x) == k or abs(x) in gone or abs(x) > n_gens for x in move.word
        ):
            raise ValueError("%r is not a IIa move on the remaining generators" % (move,))
        images = {k: move.word}
        rewritten = []
        for i, r in enumerate(rels):
            if k in r.letters or -k in r.letters:
                rels[i] = r.substitute(images)
                rewritten.append(i)
        gone.add(k)
        return rewritten
    raise ValueError("unsupported Tietze move %r/%r" % (move.kind, move.action))


def _renumber(
    generators: Sequence[str], relators: Iterable[tuple[int, ...]], eliminated: set[int]
) -> Presentation:
    """Drop the eliminated generators; number the rest 1.. in source order
    and build the Words of the relators' letter tuples.  The map is
    one-to-one, so the renumbered words stay reduced."""
    kept = [i for i in range(1, len(generators) + 1) if i not in eliminated]
    letter = {}
    for new, old in enumerate(kept, start=1):
        letter[old], letter[-old] = new, -new
    return Presentation(
        tuple(generators[i - 1] for i in kept),
        tuple(Word._reduced(tuple(map(letter.__getitem__, t))) for t in relators),
    )


def _facts(t: tuple[int, ...]) -> tuple[tuple, Counter, tuple[int, ...]]:
    """The shape of a relator's letters, (length, generator -> count), the
    same for every rotation and for the inverse; its generator counts; and
    its generators that occur exactly once."""
    counts = Counter(map(abs, t))
    once = tuple(g for g, c in counts.items() if c == 1)
    return (len(t), frozenset(counts.items())), counts, once


def replay_transcript(source: Presentation, transcript: TietzeTranscript) -> Presentation:
    """Apply the moves to the source relators as :class:`Word` objects,
    checking each one.  An elimination goes through
    :meth:`Word.substitute <wirtlab.words.Word.substitute>`, not the loop's
    single-generator substitution; with :func:`tietze_simplify` it shares
    the tuple helpers of :mod:`wirtlab.words` and the final renumbering."""
    rels = list(source.relators)
    gone: set[int] = set()
    for move in transcript.moves:
        _apply_move(len(source.generators), gone, rels, move)
    return _renumber(source.generators, (r.letters for r in rels), gone)


def tietze_simplify(p: Presentation) -> tuple[Presentation, TietzeTranscript]:
    """Simplify by relator reduction and generator elimination.

    Only moves of type I (relator replacement/deletion by consequences) and
    IIa (generator elimination via a relator containing it exactly once) are
    performed and recorded, so that :func:`replay_transcript` reproduces the
    result; type IIb moves (adding generators) are never generated.

    After cyclic reduction and the deletion of trivial relators and of each
    relator equal, up to rotation and inversion, to an earlier one, the
    next elimination is the pair (relator r, generator g occurring exactly
    once in r) of least estimated length growth,
    (occurrences of g in the other relators) * (len(r) - 2) - 2, as in
    Havas, Kenne, Richardson and Robertson's Tietze program (1984); ties go
    to the shorter relator, then the lower generator, then the earlier
    relator.  Repeat until no relator has such a generator.  Each relator's
    shape, generator counts, once-occurring generators and cyclic key share
    one cache entry, kept until a move rewrites the relator, and one running
    total of occurrences per generator is updated as entries are computed
    and dropped, so a move costs about what it changed.

    The loop works on each relator's letter tuple, so counting, searching
    and cancelling letters are operations on ints, with the tuple helpers
    of :mod:`wirtlab.words`.  Only the words of recorded moves and the
    output relators are wrapped as :class:`Word` objects again;
    :func:`replay_transcript` applies the moves with
    :meth:`Word.substitute <wirtlab.words.Word.substitute>` and does not
    share this loop.

    A running total counts the letters the relators hold.  Before a
    relator is rewritten, the most it can grow, (occurrences of g) *
    (len(image) - 1), is added to the total; if that passes the budget
    (``WIRTLAB_TIETZE_BOUND``, a non-negative integer, default 1e7),
    :class:`~wirtlab.guards.ResourceGuardError` is raised, naming the
    moves made and the total, and nothing is built.
    """
    budget = env_bound(TIETZE_BOUND_ENV, DEFAULT_TIETZE_BOUND)
    rels = [r.letters for r in p.relators]
    total = sum(map(len, rels))  # the letters held by rels
    gone: set[int] = set()
    moves: list[TietzeMove] = []
    # per relator, [shape, counts, once, key] as _facts and _cyclic_canonical
    # give them, the key None until needed; the entry is None until computed
    # and again once a move rewrites the relator.  occ sums the counts of
    # the computed entries.
    facts: list = [None] * len(rels)
    occ: dict[int, int] = {}

    def drop(i: int) -> None:
        for g, c in facts[i][1].items():
            occ[g] -= c
        facts[i] = None

    def delete(i: int) -> None:
        nonlocal total
        moves.append(TietzeMove("I", "delete", i))
        drop(i)
        total -= len(rels[i])
        del facts[i], rels[i]

    def key(i: int) -> tuple:
        if facts[i][3] is None:
            facts[i][3] = _cyclic_canonical(rels[i])
        return facts[i][3]

    def normalise() -> None:
        nonlocal total
        # cyclic reduction, trivial and duplicate removal, in relator order.
        # Only relators of one shape can be equal, so a relator is keyed
        # only once an earlier kept one has its shape; kept indices lie
        # below j, so deleting relator j leaves them as they are.
        kept: dict[tuple, list[int]] = {}
        j = 0
        while j < len(rels):
            if facts[j] is None:
                reduced = cyclically_reduce(rels[j])
                if len(reduced) < len(rels[j]):
                    moves.append(TietzeMove("I", "reduce", j, Word._reduced(reduced)))
                    total -= len(rels[j]) - len(reduced)
                    rels[j] = reduced
                facts[j] = [*_facts(reduced), None]
                for g, c in facts[j][1].items():
                    occ[g] = occ.get(g, 0) + c
            same = kept.setdefault(facts[j][0], [])
            if not rels[j] or (same and key(j) in map(key, same)):
                delete(j)
            else:
                same.append(j)
                j += 1

    normalise()
    while candidates := [
        ((occ[g] - 1) * (f[0][0] - 2) - 2, f[0][0], g, i)
        for i, f in enumerate(facts)
        for g in f[2]
    ]:
        *_, g, ri = min(candidates)
        t = rels[ri]
        pos = t.index(g if g in t else -g)
        # r ~ x_g^(+-1) * w, so x_g = w^-1 or w; a rotation of a cyclically
        # reduced word less one letter is reduced
        rest = t[pos + 1 :] + t[:pos]
        image = invert(rest) if t[pos] == g else rest
        delete(ri)
        moves.append(TietzeMove("IIa", "eliminate", g, Word._reduced(image)))
        inverse = invert(image)
        for i, f in enumerate(facts):
            if g in f[1]:
                most = total + f[1][g] * (len(image) - 1)
                if most > budget:
                    raise ResourceGuardError(
                        "Tietze simplification after %d moves holds %d letters; "
                        "eliminating generator %d could take it to %d, past the "
                        "budget of %d (%s)"
                        % (len(moves), total, g, most, budget, TIETZE_BOUND_ENV)
                    )
                t = rels[i]
                rels[i] = _substitute(t, g, image, inverse)
                total += len(rels[i]) - len(t)
                drop(i)
        gone.add(g)
        normalise()

    return _renumber(p.generators, rels, gone), TietzeTranscript(tuple(moves))


# ---------------------------------------------------------------------------
# Artin-type presentations
# ---------------------------------------------------------------------------

def artin_letters(a: tuple[int, ...], b: tuple[int, ...], length: int) -> tuple[int, ...]:
    """The letters of the relator a b a ... = b a b ..., ``length`` factors
    a side, of the freely reduced letter tuples ``a`` and ``b``, in one
    product: (b a b ...)^-1 is the alternating product of the inverted
    factors from the last one, which is b^-1 when ``length`` is odd and
    a^-1 when it is even."""
    ia, ib = invert(a), invert(b)
    back = (ib, ia) if length % 2 else (ia, ib)
    return product(*alternating_factors(a, b, length), *alternating_factors(*back, length))


def artin_relator(a: Word, b: Word, length: int) -> Word:
    """a b a ... = b a b ..., ``length`` factors a side, as a relator word."""
    return Word._reduced(artin_letters(a.letters, b.letters, length))


def braid_relator(a: Word, b: Word) -> Word:
    """a b a = b a b as a relator word."""
    return artin_relator(a, b, 3)


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
