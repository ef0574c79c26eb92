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

from dataclasses import dataclass
from fractions import Fraction
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

    def side_of(self, event: Event) -> str:
        return "left" if event.x < self.line_x else "right"


def event_action(diagram: CurveDiagram, event: Event) -> str:
    """'through', 'death' or 'birth' for the outward sweep from L."""
    if isinstance(event.kind, (Ordinary, Crossing)):
        return "through"
    toward_l = "right" if diagram.side_of(event) == "left" else "left"
    return "death" if event.kind.branch_side == toward_l else "birth"


# ---------------------------------------------------------------------------
# outward sweep: live strands, extended edges, components
# ---------------------------------------------------------------------------

@dataclass
class EventRecord:
    index: int  # position in diagram.events
    # position among its side's events, from L outward; intervals[side][pos]
    # is the interval just inside the event
    pos: int
    event: Event
    side: str
    action: str  # through | death | birth
    top: int  # block top position on the block side
    near_edges: tuple[int, ...]  # block edges on the L side (empty for birth)
    far_edges: tuple[int, ...]  # block edges on the far side (empty for death)
    # the far edge continuing each near edge, in near order (through only)
    continued: tuple[int, ...]
    block_strands: tuple[int, ...]  # persistent strand tokens of the block


class UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def add(self, x) -> None:
        self.parent.setdefault(x, x)

    def find(self, x):
        self.add(x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def classes(self) -> dict:
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


@dataclass
class SweepResult:
    """The outward sweep of one diagram.  Edges, faces, region B and the
    presentations are all read off this one object."""

    diagram: CurveDiagram
    # side -> the persistent strand tokens (top to bottom) live in each open
    # x-interval between consecutive events, ordered from L outward
    intervals: dict
    records: list[EventRecord]  # in diagram event order
    outward: dict  # side -> list[EventRecord], ordered from L outward
    edge_count: int
    fiber_edges: tuple[int, ...]  # edge id of the rank-r strand at L
    # edges connected along the curve, each class with the ranks at L among
    # its edges and the sorted component names declared for those ranks, in
    # order of the smallest edge id
    clusters: list[tuple[list[int], list[int], tuple[str, ...]]]
    violations: list[str]


def sweep_ranks(diagram: CurveDiagram) -> SweepResult:
    """Sweep outward from L on both sides, deriving live-strand orderings,
    extended edges and branch connectivity.  Structural violations are
    collected rather than raised."""
    d = diagram.d
    violations: list[str] = []
    if d != diagram.deg_y:
        violations.append(
            "W3: %d strands declared at L but degree_y is %d" % (d, diagram.deg_y)
        )
    edge_counter = d
    strand_counter = d
    fiber_edges = tuple(range(1, d + 1))
    branch = UnionFind()
    intervals: dict = {}
    outward: dict = {}
    # diagram.events is sorted by x, so each side's events are a run of it
    n_left = sum(1 for e in diagram.events if e.x < diagram.line_x)
    sides = (
        ("left", range(n_left - 1, -1, -1)),
        ("right", range(n_left, len(diagram.events))),
    )

    for side, order in sides:
        live_edges = list(fiber_edges)
        live_strands = list(range(1, d + 1))
        ivs: list[tuple[int, ...]] = []
        recs: list[EventRecord] = []
        for pos, idx in enumerate(order):
            event = diagram.events[idx]
            ivs.append(tuple(live_strands))
            action = event_action(diagram, event)
            size = event.kind.size
            top = event.top
            n = len(live_edges)
            in_range = top <= n + 1 if action == "birth" else top + size - 1 <= n
            if not in_range:
                violations.append(
                    "sweep: block [%d..%d] out of range among %d strands at %s"
                    % (top, top + size - 1, n, event.label())
                )
                continue
            if action == "birth":
                new_edges = [edge_counter + 1, edge_counter + 2]
                new_strands = [strand_counter + 1, strand_counter + 2]
                edge_counter += 2
                strand_counter += 2
                branch.union(new_edges[0], new_edges[1])
                block_strands = new_strands
                live_edges[top - 1: top - 1] = new_edges
                live_strands[top - 1: top - 1] = new_strands
                near, far, continued = (), tuple(new_edges), ()
            elif action == "death":
                block_edges = live_edges[top - 1: top - 1 + size]
                block_strands = live_strands[top - 1: top - 1 + size]
                branch.union(block_edges[0], block_edges[1])
                del live_edges[top - 1: top - 1 + size]
                del live_strands[top - 1: top - 1 + size]
                near, far, continued = tuple(block_edges), (), ()
            else:  # through
                block_edges = live_edges[top - 1: top - 1 + size]
                block_strands = live_strands[top - 1: top - 1 + size]
                new_edges = list(range(edge_counter + 1, edge_counter + 1 + size))
                edge_counter += size
                # far position i continues the line of near position
                # pairing[i]: the half local braid Delta^(twist // 2)
                # reverses the block when its exponent is odd
                pairing = range(size)[::-1] if event.kind.twist // 2 % 2 else range(size)
                far_strands = [0] * size
                cont = [0] * size
                for far_pos, near_pos in enumerate(pairing):
                    branch.union(new_edges[far_pos], block_edges[near_pos])
                    far_strands[far_pos] = block_strands[near_pos]
                    cont[near_pos] = new_edges[far_pos]
                live_edges[top - 1: top - 1 + size] = new_edges
                live_strands[top - 1: top - 1 + size] = far_strands
                near, far, continued = tuple(block_edges), tuple(new_edges), tuple(cont)
            recs.append(EventRecord(
                idx, pos, event, side, action, top, near, far, continued,
                tuple(block_strands),
            ))
        ivs.append(tuple(live_strands))
        intervals[side] = ivs
        outward[side] = recs

    classes: dict = {}
    for e in range(1, edge_counter + 1):
        classes.setdefault(branch.find(e), []).append(e)
    clusters = []
    for edges in classes.values():
        ranks = [e for e in edges if e <= d]  # the rank-r strand at L has edge id r
        names = tuple(sorted({diagram.components[r - 1] for r in ranks}))
        clusters.append((edges, ranks, names))
    return SweepResult(
        diagram,
        intervals,
        outward["left"][::-1] + outward["right"],
        outward,
        edge_counter,
        fiber_edges,
        clusters,
        violations,
    )


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

# A fragment is a (slab, gap) pair.  Gap g of a slab lies just below its
# g-th strand from the top: gap 0 is the unbounded top one, gap len(slab)
# the unbounded bottom one.


@dataclass
class FaceComplex:
    sweep: SweepResult
    slabs: list[tuple[int, ...]]  # strand tokens; slab i lies between cuts i-1 and i
    faces: dict  # fragment -> face id
    face_fragments: dict  # face id -> list of fragments
    bounded: dict  # face id -> bool
    points: int  # curve points on the event cuts (a block's strands share one)
    glued: list[tuple[tuple, tuple]]  # fragment pairs glued across an event cut


def faces(sw: SweepResult) -> FaceComplex:
    """Decompose the plane into faces of the complement of the curve plus
    L, by slab-gap fragments glued across the event cuts."""
    if sw.violations:
        raise DiagramError("cannot build faces: " + "; ".join(sw.violations))
    # the slabs in x order: the left intervals from the outside in, then
    # the right intervals from L outward
    slabs = sw.intervals["left"][::-1] + sw.intervals["right"]
    line_cut = len(sw.outward["left"])

    uf = UnionFind()
    total_points = 0
    glued: list[tuple[tuple, tuple]] = []
    for ci, rec in enumerate(sw.records):
        ci += ci >= line_cut  # L is a cut too, between the two sides
        # the strands on the block side of the cut: the interval just
        # inside the event, or just outside it for a birth
        block_side = sw.intervals[rec.side][rec.pos + (rec.action == "birth")]
        top, size = rec.top, rec.event.kind.size
        # The cut's gaps, from the top, lie between its points.  Those
        # above the block's point are the slab gaps with the same index on
        # both sides; those below it count from the bottom of each slab.
        # The block's inner gaps end at its point and are not glued.
        points = len(block_side) - size + 1
        total_points += points
        left, right = slabs[ci], slabs[ci + 1]
        for s in range(points + 1):
            lf = (ci, s if s < top else s + len(left) - points)
            rf = (ci + 1, s if s < top else s + len(right) - points)
            uf.union(lf, rf)
            glued.append((lf, rf))

    face_of: dict = {}
    face_frags: dict = {}
    face_ids: dict = {}
    for si, slab in enumerate(slabs):
        for g in range(len(slab) + 1):
            face = face_ids.setdefault(uf.find((si, g)), len(face_ids))
            face_of[si, g] = face
            face_frags.setdefault(face, []).append((si, g))

    last = len(slabs) - 1
    bounded = {
        face: all(0 < si < last and 0 < g < len(slabs[si]) for si, g in frags)
        for face, frags in face_frags.items()
    }
    return FaceComplex(sw, slabs, face_of, face_frags, bounded, total_points, glued)


# ---------------------------------------------------------------------------
# obstruction points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObstructionPoint:
    """The forbidden point sitting beside a tangency or an A_{2k} point,
    on the side opposite the real branches (local model y^2 = x has its
    branches on the right and the obstruction on the left)."""

    event_index: int
    side: str  # side of the event the point lies on

    def label(self, diagram: CurveDiagram) -> str:
        ev = diagram.events[self.event_index]
        return "obstruction %s of %s" % (self.side, ev.label())


def obstruction_points(sw: SweepResult) -> list[ObstructionPoint]:
    out = []
    for rec in sw.records:
        if rec.action == "through":
            continue
        side = "left" if rec.event.kind.branch_side == "right" else "right"
        out.append(ObstructionPoint(rec.index, side))
    return out


def locate_obstruction(fc: FaceComplex, ob: ObstructionPoint) -> tuple[int, int]:
    """Fragment containing an obstruction point.  The point lies just
    beside its event's point, on the side away from the block, so just
    below that slab's strand top - 1."""
    rec = fc.sweep.records[ob.event_index]
    ci = ob.event_index + (rec.side == "right")
    return (ci if ob.side == "left" else ci + 1, rec.top - 1)


# ---------------------------------------------------------------------------
# region B and the theorem checks
# ---------------------------------------------------------------------------

@dataclass
class RegionReport:
    ok: bool
    faces: list[int]  # face ids making up the region
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
    characteristic is V - E + F counted off the faces' cells; connectivity
    comes from a union-find over the sweep's strand tokens.  The union is a
    compact set whose complement in the sphere (the unbounded faces and
    infinity) is connected, so by Alexander duality its Euler
    characteristic is its number of components: the two numbers must agree
    that the union is connected exactly when the characteristic is 1."""
    complex_ = faces(sw)
    blocked: dict[int, list[str]] = {}
    for ob in obstruction_points(sw):
        frag = locate_obstruction(complex_, ob)
        face = complex_.faces[frag]
        if complex_.bounded[face]:
            blocked.setdefault(face, []).append(ob.label(sw.diagram))
    chosen = [face for face, is_b in complex_.bounded.items() if is_b]
    blocked_faces = [
        "bounded face must belong to the region but contains %s"
        % "; ".join(labels)
        for labels in blocked.values()
    ]

    euler, connected = _euler_and_connectivity(complex_, set(chosen))
    ok = not blocked_faces and euler == 1 and connected
    if ok:
        message = (
            "region accepted: all %d bounded faces are obstruction-free"
            % len(chosen)
        )
    else:
        reasons = list(blocked_faces)
        if euler != 1:
            reasons.append("Euler characteristic of B+C+L is %s, not 1" % euler)
        if not connected:
            reasons.append("B+C+L is not connected")
        message = "no valid region: " + "; ".join(reasons)
    return RegionReport(ok, chosen, euler, connected, blocked_faces, message)


def _euler_and_connectivity(fc: FaceComplex, chosen: set) -> tuple[int, bool]:
    """Euler characteristic and connectivity of closed(B) + C_R + L_R."""
    d = fc.sweep.diagram.d
    frags = [frag for face in chosen for frag in fc.face_fragments[face]]
    # vertices: the curve's points on the event cuts, the d points of L and
    # its two clip ends, and a clip vertex at each unbounded strand end
    n_vertices = fc.points + d + 2 + len(fc.slabs[0]) + len(fc.slabs[-1])
    # edges: a segment of each live strand in each slab, the d + 1 pieces of
    # L, and the cut gap of each glued pair inside B
    n_edges = (
        sum(map(len, fc.slabs)) + d + 1
        + sum(fc.faces[lf] in chosen for lf, _ in fc.glued)
    )
    euler = n_vertices - n_edges + len(frags)

    # pieces of the union by strand token, with token 0 standing for L: a
    # token's segments are joined through its points, a block's strands
    # meet at its event's point, and a fragment joins its two bounding strands
    uf = UnionFind()
    for r in range(1, d + 1):
        uf.union(0, r)
    for rec in fc.sweep.records:
        for tok in rec.block_strands[1:]:
            uf.union(rec.block_strands[0], tok)
    for si, g in frags:
        uf.union(fc.slabs[si][g - 1], fc.slabs[si][g])
    root = uf.find(0)
    connected = all(uf.find(tok) == root for slab in fc.slabs for tok in slab)
    return euler, connected


def check_facing(diagram: CurveDiagram) -> list[str]:
    """Every cusp and tangency must present its branches toward L, so that
    the outward sweep never gives birth to a strand pair."""
    return [
        "facing: %s has branches on the %s, away from L"
        % (ev.label(), ev.kind.branch_side)
        for ev in diagram.events
        if event_action(diagram, ev) == "birth"
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
    the canonical simply-connected region B."""
    return _check_theorem(sweep_ranks(diagram))


def _check_theorem(sw: SweepResult) -> TheoremReport:
    validation = _validate(sw)
    if not validation.ok:
        return TheoremReport(
            False, list(validation.violations), None, validation, "StructuralViolation"
        )
    connectivity = check_connectivity(sw)
    violations = connectivity + check_facing(sw.diagram)
    region = None
    if violations:
        verdict = "ConnectivityViolation" if connectivity else "FacingViolation"
    else:
        region = auto_region_B(sw)
        verdict = "Verified" if region.ok else "NoValidRegion"
        if not region.ok:
            violations.append("region: " + region.message)
    return TheoremReport(not violations, violations, region, validation, verdict)
