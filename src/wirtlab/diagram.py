"""Combinatorial diagrams of real plane curves with a marked vertical line.

A :class:`CurveDiagram` records, purely combinatorially, the real picture of
an affine plane curve together with a vertical base line L:

* ``deg_y`` strands cross L, ranked 1 (top) to d (bottom), each tagged with
  the name of the irreducible component it belongs to;
* events at distinct x-coordinates (all different from L's) describe what
  happens to contiguous blocks of strands: an ordinary m-fold point
  (``Ordinary``), an A_m double point with branches on both sides
  (``Crossing``, m odd), an A_m point whose two real branches leave on one
  side (``Cusp``, m even >= 2), or a simple vertical tangency, the A_0
  point (``Tangency``).

Each kind has a ``size`` (the strands in its block) and a ``twist``: its
local braid is Delta^twist, the power of its block's half twist, so 2 for
an ordinary point and m + 1 for an A_m point (1 for a tangency).  The
outward sweep pairs a through block's near and far edges by the half braid
Delta^(twist // 2), which reverses the block when twist // 2 is odd.

``top`` is the rank of the block's highest strand in the interval between
the event and L; for cusps and tangencies whose branches point away from L
(so the block does not exist on the L side) it is the rank on the far side.

All x-coordinates are exact rationals; no floating point is used anywhere
in validation.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import attrgetter
from typing import Optional, Union


class DiagramError(ValueError):
    pass


# ---------------------------------------------------------------------------
# event kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ordinary:
    """Ordinary m-fold point: m pairwise transverse smooth branches."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise DiagramError("ordinary point needs m >= 2")

    @property
    def size(self) -> int:
        return self.m

    twist = 2


@dataclass(frozen=True)
class Crossing:
    """A_m double point with real branches on both sides (m odd >= 1)."""

    m: int

    def __post_init__(self):
        if self.m < 1 or self.m % 2 == 0:
            raise DiagramError("crossing needs odd m >= 1")

    size = 2
    twist = property(lambda self: self.m + 1)


@dataclass(frozen=True)
class Cusp:
    """A_m double point whose two real half-branches leave on one side
    (m even >= 2); ``branch_side`` is 'left' or 'right'."""

    m: int
    branch_side: str

    def __post_init__(self):
        if self.m < 2 or self.m % 2 == 1:
            raise DiagramError("cusp needs even m >= 2")
        if self.branch_side not in ("left", "right"):
            raise DiagramError("branch_side must be 'left' or 'right'")

    size = 2
    twist = property(lambda self: self.m + 1)


@dataclass(frozen=True)
class Tangency:
    """Simple vertical tangency at a smooth point, the A_0 point; the curve
    lies on ``branch_side``."""

    branch_side: str

    def __post_init__(self):
        if self.branch_side not in ("left", "right"):
            raise DiagramError("branch_side must be 'left' or 'right'")

    m = 0
    size = 2
    twist = 1


EventKind = Union[Ordinary, Crossing, Cusp, Tangency]


@dataclass(frozen=True)
class Event:
    x: Fraction
    kind: EventKind
    top: int

    def __post_init__(self):
        object.__setattr__(self, "x", Fraction(self.x))
        if self.top < 1:
            raise DiagramError("top rank must be >= 1")

    def label(self) -> str:
        return "%s at x=%s" % (type(self.kind).__name__.lower(), self.x)


@dataclass(frozen=True)
class CurveDiagram:
    deg_y: int
    line_x: Fraction
    components: tuple[str, ...]  # component name of the rank-r strand at L
    events: tuple[Event, ...]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "line_x", Fraction(self.line_x))
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(
            self, "events", tuple(sorted(self.events, key=lambda e: e.x))
        )
        xs = [e.x for e in self.events]
        if len(set(xs)) != len(xs):
            raise DiagramError("event x-coordinates must be pairwise distinct")
        if self.line_x in xs:
            raise DiagramError("the line L must not pass through an event")

    @property
    def d(self) -> int:
        return len(self.components)

    def left_count(self) -> int:
        """The number of events left of L, the first ones of the x-sorted
        ``events``, found by bisection."""
        return bisect_left(self.events, self.line_x, key=attrgetter("x"))


# ---------------------------------------------------------------------------
# outward sweep: live strands, extended edges, components
# ---------------------------------------------------------------------------

@dataclass
class EventRecord:
    index: int  # position in diagram.events; slabs[index + 1] lies just inside it
    event: Event
    # through | death | birth: a one-sided block is a birth when its
    # branches lie on its own side of L, away from L
    action: str
    near_edges: tuple[int, ...]  # block edges on the L side (empty for birth)
    far_edges: tuple[int, ...]  # block edges on the far side (empty for death)
    block_edges: tuple[int, ...]  # far edges for a birth, else near edges
    # the far edge continuing each near edge, in near order (through only)
    continued: tuple[int, ...]
    block_strands: tuple[int, ...]  # persistent strand tokens of the block


def classes(n: int, pairs) -> list[int]:
    """The class label of each of the elements 0 .. n-1 under the
    equivalence that the integer ``pairs`` generate.  Classes are numbered
    0, 1, ... in order of their least member.

    A union-find with path halving (Tarjan and van Leeuwen, J. ACM 31,
    1984) that links the larger root under the smaller, so every parent is
    at most its child and each root is its class's least member.  The finds
    are inlined: a call per lookup would cost more than the lookup."""
    parent = list(range(n))
    for a, b in pairs:
        p = parent[a]
        while p != a:
            parent[a] = a = parent[p]
            p = parent[a]
        p = parent[b]
        while p != b:
            parent[b] = b = parent[p]
            p = parent[b]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    # relabel in place: a parent p < x holds its label already
    count = 0
    for x, p in enumerate(parent):
        if p < x:
            parent[x] = parent[p]
        else:
            parent[x] = count
            count += 1
    return parent


@dataclass
class SweepResult:
    """The outward sweep of one diagram.  Edges, faces, region B and the
    presentations are all read off this one object."""

    diagram: CurveDiagram
    # the persistent strand tokens (top to bottom) live in each open
    # x-interval between consecutive events, in x order, L's interval once
    # for each side: slab i lies between cuts i-1 and i (L is a cut too),
    # and slabs[index + 1] is the slab just inside diagram.events[index]
    slabs: list[tuple[int, ...]]
    records: list[EventRecord]  # in diagram event order: the left run, then the right
    edge_count: int  # the rank-r strand at L has edge id r
    # edges connected along the curve, each class with the ranks at L among
    # its edges and the sorted component names declared for those ranks, in
    # order of the smallest edge id
    clusters: list[tuple[list[int], list[int], tuple[str, ...]]]
    violations: list[str]


def sweep_ranks(diagram: CurveDiagram) -> SweepResult:
    """Sweep outward from L on both sides, deriving live-strand orderings,
    extended edges and branch connectivity.  Structural violations are
    collected rather than raised.

    Every event follows one rule: its block replaces its near slice of the
    live strands (none for a birth) with its far slice of fresh edges (none
    for a death).  A through block's far strands continue its near ones by
    the pairing of its half braid; a one-sided block's two strands are one
    branch, and a birth brings fresh strand tokens."""
    d = diagram.d
    violations: list[str] = []
    if d != diagram.deg_y:
        violations.append(
            "W3: %d strands declared at L but degree_y is %d" % (d, diagram.deg_y)
        )
    edge_counter = d
    strand_counter = d
    links: list[tuple[int, int]] = []  # edges on one branch
    slabs: list[tuple[int, ...]] = []
    records: list[EventRecord] = []
    # diagram.events is sorted by x, so each side's events are a run of it
    n_left = diagram.left_count()
    sides = (
        ("left", range(n_left - 1, -1, -1)),
        ("right", range(n_left, len(diagram.events))),
    )

    for side, order in sides:
        live_edges = list(range(1, d + 1))
        live_strands = list(range(1, d + 1))
        ivs: list[tuple[int, ...]] = []
        recs: list[EventRecord] = []
        for idx in order:
            event = diagram.events[idx]
            ivs.append(tuple(live_strands))
            kind = event.kind
            if isinstance(kind, (Ordinary, Crossing)):
                action = "through"
            else:
                action = "birth" if kind.branch_side == side else "death"
            size = kind.size
            lo = event.top - 1
            n_near = 0 if action == "birth" else size
            n_far = 0 if action == "death" else size
            hi = lo + n_near
            if hi > len(live_edges):
                violations.append(
                    "sweep: block [%d..%d] out of range among %d strands at %s"
                    % (event.top, event.top + size - 1, len(live_edges), event.label())
                )
                continue
            near, near_strands = tuple(live_edges[lo:hi]), tuple(live_strands[lo:hi])
            far = tuple(range(edge_counter + 1, edge_counter + 1 + n_far))
            edge_counter += n_far
            block_edges = near or far
            if action == "through":
                # far position i continues the line of position i of
                # near[pairing]: the half local braid Delta^(twist // 2)
                # reverses the block when its exponent is odd.  Either
                # pairing is its own inverse, so far[pairing] lists the far
                # edge continuing each near edge.
                pairing = slice(None, None, -1 if kind.twist // 2 % 2 else 1)
                far_strands, continued = near_strands[pairing], far[pairing]
                links += zip(far, near[pairing])
            else:  # a one-sided block's two strands are one branch
                links.append(block_edges)
                far_strands = tuple(range(strand_counter + 1, strand_counter + 1 + n_far))
                strand_counter += n_far
                continued = ()
            live_edges[lo:hi] = far
            live_strands[lo:hi] = far_strands
            recs.append(EventRecord(
                idx, event, action, near, far,
                block_edges, continued, near_strands or far_strands,
            ))
        ivs.append(tuple(live_strands))
        # the left side runs first; both lists are in x order
        slabs += ivs[::-1] if side == "left" else ivs
        records += recs[::-1] if side == "left" else recs

    # edge 0 is alone in class 0, so the clusters are classes 1, 2, ...
    label = classes(edge_counter + 1, links)
    members: list[list[int]] = [[] for _ in range(max(label) + 1)]
    for e in range(1, edge_counter + 1):
        members[label[e]].append(e)
    clusters = []
    for edges in members[1:]:
        ranks = [e for e in edges if e <= d]  # the rank-r strand at L has edge id r
        names = tuple(sorted({diagram.components[r - 1] for r in ranks}))
        clusters.append((edges, ranks, names))
    return SweepResult(diagram, slabs, records, edge_counter, clusters, violations)


# ---------------------------------------------------------------------------
# component consistency
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    ok: bool
    violations: list[str]

    def to_json(self) -> dict:
        return {"schema": 1, "ok": self.ok, "violations": list(self.violations)}


def validate_wirtinger_type(diagram: CurveDiagram) -> ValidationReport:
    """Structural Wirtinger-type checks: strand count matches degree, every
    event's block is in range, and branch connections never merge strands
    declared to lie on different components."""
    return _validate(sweep_ranks(diagram))


def _validate(sw: SweepResult) -> ValidationReport:
    violations = list(sw.violations)
    # component declarations must be consistent with branch connectivity
    for _, ranks, names in sw.clusters:
        if len(names) > 1:
            violations.append(
                "components: strands %s are connected but declared as %s"
                % (ranks, list(names))
            )
    return ValidationReport(not violations, violations)


# ---------------------------------------------------------------------------
# faces of the complement of C_R + L_R
# ---------------------------------------------------------------------------

# A fragment is a (slab, gap) pair with the integer id start[slab] + gap.
# Gap g of a slab lies just below its g-th strand from the top: gap 0 is the
# unbounded top one, gap len(slab) the unbounded bottom one.


@dataclass
class FaceComplex:
    sweep: SweepResult
    start: list[int]  # fragment (si, g) has id start[si] + g; start[-1] of them
    face: list[int]  # fragment id -> face id
    bounded: list[bool]  # face id -> bounded
    points: int  # curve points on the event cuts (a block's strands share one)
    glued: list[tuple[int, int]]  # fragment ids glued across an event cut


def faces(sw: SweepResult) -> FaceComplex:
    """Decompose the plane into faces of the complement of the curve plus
    L, by slab-gap fragments glued across the event cuts."""
    if sw.violations:
        raise DiagramError("cannot build faces: " + "; ".join(sw.violations))

    start = [0, *accumulate(len(slab) + 1 for slab in sw.slabs)]
    n_left = sw.diagram.left_count()
    total_points = 0
    glued: list[tuple[int, int]] = []
    for rec in sw.records:
        # L is a cut too, between the two sides
        ci = rec.index + (rec.index >= n_left)
        top, size = rec.event.top, rec.event.kind.size
        # The cut's gaps, from the top, lie between its points.  Those
        # above the block's point are the slab gaps with the same index on
        # both sides; the b-th of those below it, counted up from the bottom,
        # is the b-th above each slab's bottom gap start[si + 1] - 1.  The
        # block's inner gaps end at its point and are not glued.  The block
        # side is the slab with more strands (for a through block both have
        # as many), and top <= points.
        points = max(len(sw.slabs[ci]), len(sw.slabs[ci + 1])) - size + 1
        total_points += points
        glued += ((start[ci] + s, start[ci + 1] + s) for s in range(top))
        glued += (
            (start[ci + 1] - 1 - b, start[ci + 2] - 1 - b) for b in range(points + 1 - top)
        )

    # a face's id is the class label of its fragments
    face = classes(start[-1], glued)
    # a face is unbounded exactly when one of its fragments lies in the
    # first or last slab: every event cut glues the top gaps on its two
    # sides, and the bottom gaps, so each top or bottom gap reaches one
    bounded = [True] * (max(face) + 1)
    for f in face[:start[1]] + face[start[-2]:]:
        bounded[f] = False
    return FaceComplex(sw, start, face, bounded, total_points, glued)


# ---------------------------------------------------------------------------
# region B and the theorem checks
# ---------------------------------------------------------------------------

@dataclass
class RegionReport:
    ok: bool
    euler: Optional[int]
    connected: Optional[bool]
    blocked_faces: list[str]  # bounded faces containing obstruction points
    message: str

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "ok": self.ok,
            "euler": self.euler,
            "connected": self.connected,
            "blocked_faces": list(self.blocked_faces),
            "message": self.message,
        }


def auto_region_B(sw: SweepResult) -> RegionReport:
    """Search for a region B making B together with the curve and L simply
    connected while containing no obstruction point.

    A winding-number argument pins the answer down combinatorially: any
    disk B for which the union is simply connected must cover every
    bounded face of the complement of curve+L entirely, and conversely,
    when every bounded face is free of obstruction points, a thin closed
    neighborhood of those faces, the relevant segment of L, and connecting
    arcs of the curve is a valid disk.  So a valid region exists exactly
    when no bounded face contains an obstruction point.

    The report also carries the Euler characteristic and connectivity of
    the filled union as an independent verification.  The Euler
    characteristic is V - E + F, with F counted off the ``inside`` list of
    the fragments in B; connectivity comes from the classes of the sweep's
    strand tokens.  The union is a compact set whose complement in the
    sphere (the unbounded faces and infinity) is connected, so by Alexander
    duality its Euler characteristic is its number of components: the two
    numbers must agree that the union is connected exactly when the
    characteristic is 1."""
    fc = faces(sw)
    n_left = sw.diagram.left_count()
    blocked: dict[int, list[str]] = {}
    for rec in sw.records:
        if rec.action == "through":
            continue
        # a tangency or an A_{2k} point has a forbidden point on the side
        # away from its real branches (y^2 = x has its branches on the right
        # and the point on the left), just beside the event's point, away
        # from the block, so just below that slab's strand top - 1
        side = "left" if rec.event.kind.branch_side == "right" else "right"
        cut = rec.index + (rec.index >= n_left)
        face = fc.face[fc.start[cut + (side == "right")] + rec.event.top - 1]
        if fc.bounded[face]:
            blocked.setdefault(face, []).append(
                "obstruction %s of %s" % (side, rec.event.label())
            )
    blocked_faces = [
        "bounded face must belong to the region but contains %s"
        % "; ".join(labels)
        for labels in blocked.values()
    ]

    euler, connected = _euler_and_connectivity(fc)
    ok = not blocked_faces and euler == 1 and connected
    if ok:
        message = (
            "region accepted: all %d bounded faces are obstruction-free"
            % sum(fc.bounded)
        )
    else:
        reasons = list(blocked_faces)
        if euler != 1:
            reasons.append("Euler characteristic of B+C+L is %s, not 1" % euler)
        if not connected:
            reasons.append("B+C+L is not connected")
        message = "no valid region: " + "; ".join(reasons)
    return RegionReport(ok, euler, connected, blocked_faces, message)


def _euler_and_connectivity(fc: FaceComplex) -> tuple[int, bool]:
    """Euler characteristic and connectivity of closed(B) + C_R + L_R, B
    the bounded faces."""
    d = fc.sweep.diagram.d
    slabs = fc.sweep.slabs
    inside = [fc.bounded[face] for face in fc.face]  # fragment id -> in B
    # vertices: the curve's points on the event cuts, the d points of L and
    # its two clip ends, and a clip vertex at each unbounded strand end
    n_vertices = fc.points + d + 2 + len(slabs[0]) + len(slabs[-1])
    # edges: a segment of each live strand in each slab, the d + 1 pieces of
    # L, and the cut gap of each glued pair inside B
    n_edges = (
        sum(map(len, slabs)) + d + 1
        + sum(inside[lf] for lf, _ in fc.glued)
    )
    euler = n_vertices - n_edges + sum(inside)

    # pieces of the union by strand token, with token 0 (class 0) standing
    # for L: a token's segments are joined through its points, a block's
    # strands meet at its event's point, and a fragment joins its two
    # bounding strands (a fragment in B is not a top or bottom gap)
    # each fragment in B links the same two tokens again in every slab the
    # tokens share, so the links are a set
    links = {(0, r) for r in range(1, d + 1)}
    for rec in fc.sweep.records:
        links.update((rec.block_strands[0], tok) for tok in rec.block_strands[1:])
    links.update(
        (slab[g - 1], slab[g]) for si, slab in enumerate(slabs)
        for g in range(1, len(slab)) if inside[fc.start[si] + g]
    )
    label = classes(1 + max(max(slab, default=0) for slab in slabs), links)
    connected = all(label[tok] == 0 for slab in slabs for tok in slab)
    return euler, connected


def check_facing(sw: SweepResult) -> list[str]:
    """Every cusp and tangency must present its branches toward L, so that
    the outward sweep never gives birth to a strand pair.  Read off the
    records of a sweep that recorded every event."""
    return [
        "facing: %s has branches on the %s, away from L"
        % (rec.event.label(), rec.event.kind.branch_side)
        for rec in sw.records
        if rec.action == "birth"
    ]


def check_connectivity(sw: SweepResult) -> list[str]:
    """The real part of each declared component must be a single piece
    meeting L."""
    out = []
    names_seen: dict[str, int] = {}
    for edges, _, names in sw.clusters:
        if not names:
            out.append(
                "connectivity: a real branch (extended edges %s) never meets L"
                % edges
            )
        for name in names:
            names_seen[name] = names_seen.get(name, 0) + 1
    for name, count in names_seen.items():
        if count > 1:
            out.append(
                "connectivity: component %r has %d disjoint real pieces" % (name, count)
            )
    return out


@dataclass
class TheoremReport:
    verified: bool
    violations: list[str]
    region: Optional[RegionReport]
    validation: ValidationReport  # the structural checks, not in to_json
    # Verified, or the first failing check: StructuralViolation,
    # ConnectivityViolation, FacingViolation or NoValidRegion; not in to_json
    verdict: str

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "verified": self.verified,
            "violations": list(self.violations),
            "region": self.region.to_json() if self.region else None,
        }


def check_theorem(diagram: CurveDiagram) -> TheoremReport:
    """Mechanically check the sufficiency hypotheses: structural validity,
    componentwise real connectivity, the facing condition, and existence of
    the canonical simply-connected region B.  They assume that every
    critical value of the projection is real, since a diagram records only
    real events: an ellipse above a line that misses it is Verified with
    group F2, but the curves meet in two non-real points and the group is
    Z^2 (see README)."""
    return _check_theorem(sweep_ranks(diagram))


def _check_theorem(sw: SweepResult) -> TheoremReport:
    validation = _validate(sw)
    if not validation.ok:
        return TheoremReport(
            False, list(validation.violations), None, validation, "StructuralViolation"
        )
    connectivity = check_connectivity(sw)
    violations = connectivity + check_facing(sw)
    region = None
    if violations:
        verdict = "ConnectivityViolation" if connectivity else "FacingViolation"
    else:
        region = auto_region_B(sw)
        verdict = "Verified" if region.ok else "NoValidRegion"
        if not region.ok:
            violations.append("region: " + region.message)
    return TheoremReport(not violations, violations, region, validation, verdict)
