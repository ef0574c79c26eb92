"""Group presentations from curve diagrams.

Four constructions are provided:

* :func:`wirtinger_presentation` — generators are the diagram edges (with
  vertical-tangency identifications), relations come from each vertex;
  it is the extended presentation below with no obstruction point passed;
* :func:`zvk_presentation` together with :func:`diagram_braid_monodromy` —
  the fiber-meridian presentation obtained by transporting local braids of
  the projection's critical points back to the base line;
* :func:`edge_meridian_words` — the meridian word in the fiber free group
  carried by every edge during the outward sweep;
* :func:`extended_wirtinger` — the variant that stays correct when the
  candidate region must contain obstruction points, by conjugating the
  far-side generator of each affected vertex with loops around the
  obstruction points crossed on the way out.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braids import Braid, braid_images, half_twist
from .diagram import (
    CurveDiagram,
    DiagramError,
    EventRecord,
    Ordinary,
    SweepResult,
    Tangency,
    UnionFind,
    _check_theorem,
    _validate,
    sweep_ranks,
)
from .fpgroups import Presentation, artin_relator, commutator
from .words import Word


class UnsupportedConfiguration(DiagramError):
    """The diagram mixes obstruction points with vertex types for which no
    conjugation recipe is implemented (only double points and tangencies
    may sit beyond an obstruction point)."""


# ---------------------------------------------------------------------------
# generator bookkeeping
# ---------------------------------------------------------------------------

@dataclass
class GeneratorMap:
    names: tuple[str, ...]  # generator names, index order
    edge_gen: dict  # extended edge id -> generator index (1-based)

    def word(self, edge: int) -> Word:
        return Word.gen(self.edge_gen[edge])


def _build_generators(sweep: SweepResult, merges) -> GeneratorMap:
    uf = UnionFind()
    for e in range(1, sweep.edge_count + 1):
        uf.add(e)
    for a, b in merges:
        uf.union(a, b)
    classes = sorted(
        (min(members), tuple(sorted(members)))
        for members in uf.classes().values()
    )
    index_of_root = {}
    for i, (_, members) in enumerate(classes, start=1):
        for e in members:
            index_of_root[e] = i
    names = tuple("x%d" % i for i in range(1, len(classes) + 1))
    return GeneratorMap(names, index_of_root)


def _require_valid(sw: SweepResult) -> None:
    report = _validate(sw)
    if not report.ok:
        raise DiagramError(
            "invalid diagram: " + "; ".join(report.violations)
        )


def _block_side_edges(rec: EventRecord) -> tuple[int, ...]:
    return rec.far_edges if rec.action == "birth" else rec.near_edges


# ---------------------------------------------------------------------------
# Wirtinger presentation
# ---------------------------------------------------------------------------

@dataclass
class WirtingerResult:
    presentation: Presentation
    diagram: CurveDiagram
    sweep: SweepResult
    gens: GeneratorMap
    fiber_generators: tuple[str, ...]  # generator name per rank, top to bottom
    generator_components: dict  # generator name -> component name or None
    passed: dict  # event index -> indices of the obstruction events passed


def _vertex_relators(rec: EventRecord, gens: GeneratorMap) -> list[Word]:
    """Relators contributed by one vertex, in terms of edge generators.
    x-side = the block edges on the L side (far side for vertices whose
    branches point away); x1 is the topmost x-edge."""
    kind = rec.event.kind
    x = [gens.word(e) for e in _block_side_edges(rec)]
    y = [gens.word(e) for e in rec.continued]  # the far edge continuing x_i
    relators: list[Word] = []
    if isinstance(kind, Ordinary):
        m = kind.m
        xbar = [Word.identity()]
        for j in range(m):
            xbar.append(x[j] * xbar[j])  # xbar_k = x_k ... x_1
        for j in range(1, m + 1):
            relators.append(commutator(xbar[m], x[j - 1]))
        for j in range(m):
            relators.append(y[j] * (x[j].conjugated_by(xbar[j])).inverse())
    else:
        # an A_m point: the Artin relation of length twist = m + 1; a
        # tangency's (A_0) relator x1 x2^-1 is trivial, since its two edges
        # share a generator
        relators.append(artin_relator(x[0], x[1], kind.twist))
        if rec.action == "through":
            conj = (x[1] * x[0]) ** (kind.twist // 4)
            for i in (0, 1):
                relators.append(y[i] * (x[i].conjugated_by(conj)).inverse())
    return [r for r in relators if r]


def _presentation(sw: SweepResult, passed: dict) -> WirtingerResult:
    """The Wirtinger presentation of one valid sweep.  ``passed`` maps each
    event index to the obstruction records passed on the way out from L.
    A vertex that passed none contributes its own relators; a one-sided
    vertex that passed some contributes the conjugated relator."""
    # tangencies identify their two edges only when no obstruction point
    # stands between them and L
    gens = _build_generators(sw, [
        _block_side_edges(rec)
        for rec in sw.records
        if isinstance(rec.event.kind, Tangency) and not passed[rec.index]
    ])
    relators: list[Word] = []
    for rec in sw.records:
        if passed[rec.index]:
            relators.extend(_conjugated_relator(rec, passed[rec.index], gens))
        else:
            relators.extend(_vertex_relators(rec, gens))
    pres = Presentation(gens.names, tuple(relators))
    fiber = tuple(gens.names[gens.edge_gen[e] - 1] for e in sw.fiber_edges)
    edge_component = {
        e: names[0] if names else None
        for edges, _, names in sw.clusters
        for e in edges
    }
    gen_comp: dict = {}
    for e in range(1, sw.edge_count + 1):
        name = gens.names[gens.edge_gen[e] - 1]
        gen_comp.setdefault(name, edge_component[e])
    crossed = {rec.index: [q.index for q in passed[rec.index]] for rec in sw.records}
    return WirtingerResult(pres, sw.diagram, sw, gens, fiber, gen_comp, crossed)


def wirtinger_presentation(diagram: CurveDiagram) -> WirtingerResult:
    """The Wirtinger presentation: the extended one with no obstruction
    point passed, so every vertical tangency identifies its two edges."""
    sw = sweep_ranks(diagram)
    _require_valid(sw)
    return _presentation(sw, {rec.index: [] for rec in sw.records})


def projective_closure(p: Presentation, fiber: tuple[str, ...] | None = None) -> Presentation:
    """Append the big-loop relator: the product of the fiber generators
    from bottom to top equals 1.  ``fiber`` lists generator names from top
    to bottom; by default all generators are taken in index order (the
    fiber-meridian case)."""
    names = tuple(fiber) if fiber is not None else p.generators
    index = {n: i + 1 for i, n in enumerate(p.generators)}
    w = Word.identity()
    for n in names:  # mu_d * ... * mu_1
        w = Word.gen(index[n]) * w
    return p.add_relators([w])


# ---------------------------------------------------------------------------
# sweep of meridian words and braid monodromy
# ---------------------------------------------------------------------------

def local_braid(kind, half: bool = False) -> Braid:
    """Local braid of an event kind, on its own strands: Delta^twist, the
    kind's power of its block's half twist, so Delta_m^2 for an ordinary
    m-fold point and sigma_1^(m+1) for an A_m point (a tangency is A_0).
    With ``half=True``: Delta^(twist // 2), the square root for an ordinary
    point and for odd m, and the obstruction loop's twist for even m."""
    return half_twist(kind.size) ** (kind.twist // 2 if half else kind.twist)


def _meridian_words(sw: SweepResult) -> dict:
    """Meridian word of each extended edge, swept outward from L: each far
    edge of a two-sided vertex carries the image of its local generator
    under the inverse half local braid, with the near edges' words
    substituted for the local generators."""
    words: dict[int, Word] = {}
    for rank, e in enumerate(sw.fiber_edges, start=1):
        words[e] = Word.gen(rank)
    for rec in sw.records:
        if rec.action == "birth":
            raise DiagramError(
                "meridian sweep undefined: %s points away from L" % rec.event.label()
            )
    for side in ("left", "right"):
        for rec in sw.outward[side]:
            if rec.action != "through":
                continue
            near = dict(enumerate((words[e] for e in rec.near_edges), start=1))
            far = braid_images(local_braid(rec.event.kind, half=True).inverse())
            for image, e in zip(far, rec.far_edges):
                words[e] = image.substitute(near)
    return words


def edge_meridian_words(diagram: CurveDiagram) -> dict:
    """Meridian word (in the free group on the d fiber meridians, mu_1 the
    topmost) carried by each extended edge.  Only defined when every
    one-sided vertex points toward L, so that the outward sweep never
    creates strands."""
    sw = sweep_ranks(diagram)
    _require_valid(sw)
    return _meridian_words(sw)


@dataclass
class MonodromyDatum:
    delta: Braid  # full local braid on the block's own strands
    meridians: tuple[Word, ...]  # near-side block meridians, top to bottom


def diagram_braid_monodromy(diagram: CurveDiagram) -> list[MonodromyDatum]:
    """One datum per critical point of the projection, sweeping outward on
    both sides.  Each event's block meridians are read off the meridian
    sweep.  One-sided vertices leave the surviving meridians untouched, and
    their strand pair keeps its fiber positions (the pair moves off the
    real plane but stays in the complex fiber), so a later block must not
    straddle it."""
    sw = sweep_ranks(diagram)
    report = _check_theorem(sw)
    if not report.verified:
        raise DiagramError(
            "diagram not verified: " + "; ".join(report.violations)
        )
    words = _meridian_words(sw)
    data: dict[int, MonodromyDatum] = {}
    for side in ("left", "right"):
        positions = list(range(1, diagram.d + 1))  # fiber position of each live strand
        for rec in sw.outward[side]:
            event = rec.event
            size = event.kind.size
            block = positions[rec.top - 1: rec.top - 1 + size]
            if block != list(range(block[0], block[0] + size)):
                raise UnsupportedConfiguration(
                    "block of %s occupies non-adjacent fiber positions %s"
                    % (event.label(), block)
                )
            data[rec.index] = MonodromyDatum(
                local_braid(event.kind),
                tuple(words[e] for e in rec.near_edges),
            )
            if rec.action == "death":
                del positions[rec.top - 1: rec.top - 1 + size]
    return [data[i] for i in range(len(diagram.events))]


def zvk_presentation(d: int, data: list[MonodromyDatum]) -> Presentation:
    """Fiber-meridian presentation: for each critical point, one relator
    per local strand but the last, equating the strand's meridian with its
    image under the local braid."""
    names = tuple("mu%d" % i for i in range(1, d + 1))
    relators: list[Word] = []
    for datum in data:
        near = dict(enumerate(datum.meridians, start=1))
        images = braid_images(datum.delta)
        for image, mu in zip(images[:-1], datum.meridians):
            rel = image.substitute(near) * mu.inverse()
            if rel:
                relators.append(rel)
    return Presentation(names, tuple(relators))


# ---------------------------------------------------------------------------
# extended method
# ---------------------------------------------------------------------------

def _passed_obstructions(sw: SweepResult, rec: EventRecord, inward: list[EventRecord]) -> list[EventRecord]:
    """Of the one-sided vertices ``inward`` (strictly between L and the
    given event, ordered from L outward), those whose strand pair sits
    strictly inside the event's strand span.  Loops reaching the event
    must travel around their obstruction points."""
    out = []
    for qrec in inward:
        strands = sw.intervals[rec.side][qrec.pos]  # just inside qrec
        try:
            p_pos = sorted(strands.index(tok) + 1 for tok in rec.block_strands)
        except ValueError:
            continue  # the event's strands do not reach that far inward
        q_lo, q_hi = qrec.top, qrec.top + 1
        if p_pos[0] < q_lo and q_hi < p_pos[-1]:
            out.append(qrec)
    return out


def _obstruction_loop(qrec: EventRecord, gens: GeneratorMap) -> Word:
    """Counterclockwise loop around the obstruction point of a one-sided
    vertex, in terms of the vertex's own block-side edge generators."""
    a, b = (gens.word(e) for e in _block_side_edges(qrec))
    twist = local_braid(qrec.event.kind, half=True)
    y1 = braid_images(twist.inverse())[0].substitute({1: a, 2: b})
    return y1 if qrec.event.kind.branch_side == "left" else y1.inverse()


def _conjugated_relator(rec: EventRecord, crossed: list[EventRecord], gens: GeneratorMap) -> list[Word]:
    """Relator of a one-sided vertex beyond the obstruction points
    ``crossed``: its lower block-side generator is conjugated by the loops
    around them before the two are related."""
    if rec.action == "through":
        raise UnsupportedConfiguration(
            "%s lies beyond an obstruction point; only one-sided "
            "vertices are supported there" % rec.event.label()
        )
    z = Word.identity()
    for qrec in crossed:
        z = z * _obstruction_loop(qrec, gens)
    conj = z if rec.side == "left" else z.inverse()
    a, b = (gens.word(e) for e in _block_side_edges(rec))
    b_hat = b.conjugated_by(conj.inverse())  # conj * b * conj^-1
    rel = artin_relator(a, b_hat, rec.event.kind.twist)
    return [rel] if rel else []


def extended_wirtinger(diagram: CurveDiagram) -> WirtingerResult:
    """The extended Wirtinger presentation: loops reaching a vertex travel
    around the obstruction points it passed on the way out from L.  With
    no obstruction point passed it is the plain presentation."""
    sw = sweep_ranks(diagram)
    _require_valid(sw)
    passed: dict[int, list[EventRecord]] = {}
    for side in ("left", "right"):
        one_sided: list[EventRecord] = []  # met so far, from L outward
        for rec in sw.outward[side]:
            passed[rec.index] = _passed_obstructions(sw, rec, one_sided)
            if rec.action != "through":
                one_sided.append(rec)
    return _presentation(sw, passed)
