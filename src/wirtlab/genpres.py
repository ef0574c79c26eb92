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

Each vertex's local braid Delta^twist acts in closed form, by
:func:`wirtlab.braids.twist_images`.  At a Wirtinger vertex, with y_i the
far generator continuing the block generator x_i, an ordinary point relates
x_i to its Delta^2 image and y_i to the Delta^-1 image at position
m + 1 - i; an A_m point has its Artin relation and relates y_i to the
Delta^(-2 (twist // 4)) image of x_i.

Every builder works on letter tuples with the helpers of
:mod:`wirtlab.words` and wraps each finished relator once, as a
:class:`~wirtlab.words.Word`, when it makes the presentation; the edge
meridian words and the monodromy meridians are wrapped the same way.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter

from .braids import Braid, half_twist, twist_images
from .diagram import (
    CurveDiagram,
    DiagramError,
    EventRecord,
    Ordinary,
    SweepResult,
    Tangency,
    _check_theorem,
    _validate,
    classes,
    sweep_ranks,
)
from .fpgroups import Presentation, artin_letters
from .words import Word, invert, product


class UnsupportedConfiguration(DiagramError):
    """The extended method has no conjugation recipe for a vertex beyond
    an obstruction point: only one-sided vertices (cusps and tangencies)
    may sit there."""


# ---------------------------------------------------------------------------
# generator bookkeeping
# ---------------------------------------------------------------------------

def _require_valid(sw: SweepResult) -> None:
    report = _validate(sw)
    if not report.ok:
        raise DiagramError(
            "invalid diagram: " + "; ".join(report.violations)
        )


# ---------------------------------------------------------------------------
# Wirtinger presentation
# ---------------------------------------------------------------------------

@dataclass
class WirtingerResult:
    presentation: Presentation
    sweep: SweepResult
    # generator index (1-based) of each extended edge id; entry 0 is unused
    edge_gen: list[int]
    fiber_generators: tuple[str, ...]  # generator name per rank, top to bottom
    generator_components: dict  # generator name -> component name or None
    passed: dict  # event index -> the records of the obstruction events passed


def _vertex_relators(sw: SweepResult, rec: EventRecord, crossed: list[EventRecord], edge_gen: list[int]) -> list[tuple[int, ...]]:
    """The letters of the relators contributed by one vertex, in terms of
    edge generators.
    x-side = the block edges on the L side (far side for vertices whose
    branches point away); x1 is the topmost x-edge, and y_i the far edge
    continuing x_i.  An ordinary point relates x_i to its Delta^2 image and
    y_i to the Delta^-1 image at position m + 1 - i; an A_m point has the
    Artin relation of length twist = m + 1 and relates y_i to the
    Delta^(-2 (twist // 4)) image of x_i.  A one-sided vertex beyond the
    obstruction points ``crossed`` conjugates x2 by the loops around them
    before relating it to x1."""
    if crossed and rec.action == "through":
        raise UnsupportedConfiguration(
            "%s lies beyond an obstruction point; only one-sided "
            "vertices are supported there" % rec.event.label()
        )
    kind = rec.event.kind
    x = [(edge_gen[e],) for e in rec.block_edges]
    y = [(edge_gen[e],) for e in rec.continued]
    if isinstance(kind, Ordinary):
        relators = [product(image, invert(xi)) for image, xi in zip(twist_images(x, 2), x)]
        far = twist_images(x, -1)[::-1]
    else:
        # a tangency's (A_0) relator x1 x2^-1 is trivial when it passed no
        # obstruction point, since its two edges then share a generator
        b = x[1]
        if crossed:
            z = product(*(_obstruction_loop(qrec, edge_gen) for qrec in crossed))
            # z b z^-1 on the left side, z^-1 b z on the right
            if rec.index < sw.diagram.left_count():
                z = invert(z)
            b = product(invert(z), b, z)
        relators = [artin_letters(x[0], b, kind.twist)]
        far = twist_images(x, -2 * (kind.twist // 4)) if y else ()
    relators += [product(yi, invert(w)) for yi, w in zip(y, far)]
    return [r for r in relators if r]


def _presentation(sw: SweepResult, passed: dict) -> WirtingerResult:
    """The Wirtinger presentation of one valid sweep.  ``passed`` maps each
    event index to the obstruction records passed on the way out from L."""
    # tangencies identify their two edges only when no obstruction point
    # stands between them and L; generators are numbered in order of their
    # least edge, and edge 0 is alone in class 0
    edge_gen = classes(sw.edge_count + 1, [
        rec.block_edges
        for rec in sw.records
        if isinstance(rec.event.kind, Tangency) and not passed[rec.index]
    ])
    relators = [
        Word._reduced(r)
        for rec in sw.records
        for r in _vertex_relators(sw, rec, passed[rec.index], edge_gen)
    ]
    generators = tuple("x%d" % i for i in range(1, max(edge_gen) + 1))
    pres = Presentation(generators, tuple(relators))
    fiber = tuple("x%d" % edge_gen[r] for r in range(1, sw.diagram.d + 1))
    # a generator's edges lie on one branch, so in one cluster
    gen_comp = {
        "x%d" % edge_gen[e]: names[0] if names else None
        for edges, _, names in sw.clusters
        for e in edges
    }
    return WirtingerResult(pres, sw, edge_gen, fiber, gen_comp, passed)


def wirtinger_presentation(diagram: CurveDiagram) -> WirtingerResult:
    """The Wirtinger presentation: the extended one with no obstruction
    point passed, so every vertical tangency identifies its two edges."""
    sw = sweep_ranks(diagram)
    _require_valid(sw)
    return _presentation(sw, {rec.index: [] for rec in sw.records})


# ---------------------------------------------------------------------------
# sweep of meridian words and braid monodromy
# ---------------------------------------------------------------------------

def local_braid(kind, half: bool = False) -> Braid:
    """Local braid of an event kind, on its own strands: Delta^twist, the
    kind's power of its block's half twist, so Delta_m^2 for an ordinary
    m-fold point and sigma_1^(m+1) for an A_m point (a tangency is A_0).
    With ``half=True``: Delta^(twist // 2), the square root for an ordinary
    point and for odd m, and the obstruction loop's twist for even m.  The
    presentations never expand it: they apply each power of Delta in closed
    form, by :func:`wirtlab.braids.twist_images`."""
    return half_twist(kind.size) ** (kind.twist // 2 if half else kind.twist)


def _outward_runs(sw: SweepResult) -> tuple[list[EventRecord], list[EventRecord]]:
    """Each side's run of ``sw.records``, ordered from L outward."""
    n_left = bisect_left(sw.records, sw.diagram.left_count(), key=attrgetter("index"))
    return sw.records[:n_left][::-1], sw.records[n_left:]


def _meridian_words(sw: SweepResult) -> dict:
    """The letters of the meridian word of each extended edge, swept
    outward from L: the far edges of a two-sided vertex carry the images of
    its near edges' words under the inverse half local braid
    Delta^-(twist // 2), applied in closed form."""
    words = {r: (r,) for r in range(1, sw.diagram.d + 1)}  # rank r has edge r
    for rec in sw.records:
        if rec.action == "birth":
            raise DiagramError(
                "meridian sweep undefined: %s points away from L" % rec.event.label()
            )
    for run in _outward_runs(sw):
        for rec in run:
            if rec.action == "through":
                near = [words[e] for e in rec.near_edges]
                far = twist_images(near, -(rec.event.kind.twist // 2))
                words.update(zip(rec.far_edges, far))
    return words


def edge_meridian_words(diagram: CurveDiagram) -> dict:
    """Meridian word (in the free group on the d fiber meridians, mu_1 the
    topmost) carried by each extended edge.  Only defined when every
    one-sided vertex points toward L, so that the outward sweep never
    creates strands."""
    sw = sweep_ranks(diagram)
    _require_valid(sw)
    return {e: Word._reduced(t) for e, t in _meridian_words(sw).items()}


@dataclass
class MonodromyDatum:
    """One critical point: its local braid is Delta^twist on the block's
    own strands, whose near-side meridians are ``meridians``."""

    twist: int  # the power of the block's half twist Delta
    meridians: tuple[Word, ...]  # near-side block meridians, top to bottom


def diagram_braid_monodromy(diagram: CurveDiagram) -> list[MonodromyDatum]:
    """One datum per critical point of the projection, in event order, with
    each block's meridians read off the meridian sweep.  A death's strand
    pair leaves the real plane but keeps its fiber positions, so no later
    block may straddle it, and none does in a Verified diagram: let block p
    be the first to straddle the pair of an earlier death q on its side.
    With no births, the strands on either side of q's gap run unbroken from
    L to p, and only p's point closes the gap, so the face holding q's
    obstruction point is bounded and region B is refused."""
    sw = sweep_ranks(diagram)
    report = _check_theorem(sw)
    if not report.verified:
        raise DiagramError(
            "diagram not verified: " + "; ".join(report.violations)
        )
    words = _meridian_words(sw)
    return [
        MonodromyDatum(
            rec.event.kind.twist, tuple(Word._reduced(words[e]) for e in rec.near_edges)
        )
        for rec in sw.records
    ]


def zvk_presentation(d: int, data: list[MonodromyDatum]) -> Presentation:
    """Fiber-meridian presentation: for each critical point, one relator
    per local strand but the last, equating the strand's meridian with its
    image under the local braid Delta^twist, applied in closed form."""
    names = tuple("mu%d" % i for i in range(1, d + 1))
    relators: list[Word] = []
    for datum in data:
        meridians = [mu.letters for mu in datum.meridians]
        images = twist_images(meridians, datum.twist)
        for image, mu in zip(images[:-1], meridians):
            rel = product(image, invert(mu))
            if rel:
                relators.append(Word._reduced(rel))
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
        strands = sw.slabs[qrec.index + 1]  # just inside qrec
        try:
            p_pos = sorted(strands.index(tok) + 1 for tok in rec.block_strands)
        except ValueError:
            continue  # the event's strands do not reach that far inward
        q_lo, q_hi = qrec.event.top, qrec.event.top + 1
        if p_pos[0] < q_lo and q_hi < p_pos[-1]:
            out.append(qrec)
    return out


def _obstruction_loop(qrec: EventRecord, edge_gen: list[int]) -> tuple[int, ...]:
    """The letters of the counterclockwise loop around the obstruction point
    of a one-sided vertex, in terms of the vertex's own block-side edge
    generators."""
    a, b = ((edge_gen[e],) for e in qrec.block_edges)
    y1 = twist_images((a, b), -(qrec.event.kind.twist // 2))[0]
    return y1 if qrec.event.kind.branch_side == "left" else invert(y1)


def extended_wirtinger(diagram: CurveDiagram) -> WirtingerResult:
    """The extended Wirtinger presentation: loops reaching a vertex travel
    around the obstruction points it passed on the way out from L.  With
    no obstruction point passed it is the plain presentation."""
    sw = sweep_ranks(diagram)
    _require_valid(sw)
    passed: dict[int, list[EventRecord]] = {}
    for run in _outward_runs(sw):
        one_sided: list[EventRecord] = []  # met so far, from L outward
        for rec in run:
            passed[rec.index] = _passed_obstructions(sw, rec, one_sided)
            if rec.action != "through":
                one_sided.append(rec)
    return _presentation(sw, passed)
