"""Hypocycloid curves and their fold-quotient diagrams.

For coprime integers 0 < ell < k the hypocycloid is the trace of a point
on a circle rolling inside a larger circle (radius ratio ell : k+ell),
complexified to a plane algebraic curve of degree 2k.  When ell = k-1 the
real picture is symmetric about the horizontal axis; substituting w = y^2
folds the curve onto the upper half plane, and adding the horizontal line
itself yields a curve-plus-line arrangement whose diagram satisfies the
sufficiency hypotheses checked by ``check_theorem``.

This module traces that folded arrangement numerically and assembles its
``CurveDiagram``: the folded off-axis cusp pairs give cusp events, folded
node pairs give crossings, axis nodes become simple tangencies with the
line (intersection multiplicity 2), the single vertical tangency becomes
a transversal line crossing, and the on-axis cusp becomes a contact-order
3 crossing with the line; a crossing of contact order c is the A_(2c-1)
point.  Every node is a parameter pair pi*m/n +- delta: closed-form centre
angle, delta a root of one scalar equation.  k = 2..11 trace; from k = 12
two events lie closer than the separation tolerance and tracing stops with
a ``TracingError``.

Strands are ranked in one fiber per slab between consecutive events: the
real fold pieces by w = y^2 > 0, then the line, then the arc with imaginary
y (w < 0) on its side of the transversal crossing.

Killing the squares of the line meridians in the resulting Wirtinger
presentation gives an orbifold group that is compared, via invariant
profiles, against the semidirect product of the (2k-1)-gon Artin group with
Z/2 (``ngon_semidirect``).
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import cos, gcd, log2, pi, remainder, sin

from .diagram import CurveDiagram, Crossing, Cusp, Event, check_theorem
from .fpgroups import Presentation, Word, ngon_semidirect
from .genpres import wirtinger_presentation
from .profiles import DEFAULT_TARGETS, InvariantProfile, profile, profiles_equal


class TracingError(ValueError):
    """Numeric tracing failed: a tolerance, separation, census, or
    classification check did not come out as the closed-form counts
    predict."""


# ---------------------------------------------------------------------------
# parametrization and closed-form statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypoParams:
    k: int
    ell: int

    def __post_init__(self):
        if not 0 < self.ell < self.k:
            raise ValueError("need 0 < ell < k")
        if gcd(self.k, self.ell) != 1:
            raise ValueError("k and ell must be coprime")

    @property
    def n(self) -> int:
        return self.k + self.ell


def hypo_point(params: HypoParams, t: float) -> tuple[float, float]:
    """Point of the hypocycloid at parameter angle t (normalized so the
    curve is inscribed in the unit circle)."""
    return _x(params, t), _y(params, t)


def _x(params: HypoParams, t: float) -> float:
    k, l, n = params.k, params.ell, params.n
    return (k * cos(l * t) + l * cos(k * t)) / n


def _y(params: HypoParams, t: float) -> float:
    k, l, n = params.k, params.ell, params.n
    return (k * sin(l * t) - l * sin(k * t)) / n


@dataclass(frozen=True)
class HypoStats:
    degree: int
    cusps: int
    nodes: int
    real_nodes: int
    tangencies: int  # simple vertical tangencies of the projection
    identity_holds: bool  # ramification count 2(2k-1) - 2(k-1) - (k+ell) = k-ell

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "degree": self.degree,
            "cusps": self.cusps,
            "nodes": self.nodes,
            "real_nodes": self.real_nodes,
            "vertical_tangencies": self.tangencies,
            "ramification_identity": self.identity_holds,
        }


def hypo_stats(params: HypoParams) -> HypoStats:
    """Singularity counts of the degree-2k hypocycloid: k+ell cusps,
    (k+ell)(k-2) nodes of which (k+ell)(ell-1) are real, and k-ell simple
    vertical tangencies, balancing the ramification count of the
    2k-fold vertical projection."""
    k, l, n = params.k, params.ell, params.n
    identity = 2 * (2 * k - 1) - 2 * (k - 1) - n == k - l
    return HypoStats(2 * k, n, n * (k - 2), n * (l - 1), k - l, identity)


def _dx(params: HypoParams, t: float) -> float:
    k, l, n = params.k, params.ell, params.n
    return -k * l * (sin(l * t) + sin(k * t)) / n


def _dy(params: HypoParams, t: float) -> float:
    k, l, n = params.k, params.ell, params.n
    return k * l * (cos(l * t) - cos(k * t)) / n


def _ddx(params: HypoParams, t: float) -> float:
    k, l, n = params.k, params.ell, params.n
    return -k * l * (l * cos(l * t) + k * cos(k * t)) / n


def _bisect(f, a: float, b: float) -> float:
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise TracingError("bisection bracket does not straddle a root")
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0 or (b - a) <= 1e-15 * max(1.0, abs(m)):
            return m
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return 0.5 * (a + b)


# The node scan stays this far inside (0, pi): at delta -> pi the pair meets
# at a cusp, where the root can be of higher order and sign noise fakes nodes.
_NODE_MARGIN = 1e-3
_RESIDUAL_TOL = 1e-12


def _node_deltas(params: HypoParams, m: int) -> list[float]:
    """Half-separations delta in (0, pi) of the real node pairs pi*m/n +- delta.
    With z(t) = (k e^{i ell t} + ell e^{-ikt})/n, z(theta+delta) - z(theta-delta) =
    (2i/n)(k sin(ell delta) e^{i ell theta} - ell sin(k delta) e^{-ik theta}), so they
    solve k sin(ell delta) = (-1)^m ell sin(k delta).  Its frequency is at most k,
    so 64k scan steps put each root in a bracket of its own."""
    k, l = params.k, params.ell
    sign = -1.0 if m % 2 else 1.0
    f = lambda d: k * sin(l * d) - sign * l * sin(k * d)
    lo, hi, steps = _NODE_MARGIN, pi - _NODE_MARGIN, 64 * k
    ds = [lo + (hi - lo) * i / steps for i in range(steps + 1)]
    fs = [f(d) for d in ds]
    return [_bisect(f, ds[i - 1], ds[i])
            for i in range(1, steps + 1) if fs[i] == 0.0 or fs[i - 1] * fs[i] < 0.0]


@dataclass(frozen=True)
class CriticalParameters:
    cusp_angles: tuple[float, ...]  # the k+ell cusp parameters in [0, 2*pi)
    axis_node_angles: tuple[float, ...]  # positive representatives in (0, pi)
    residuals: dict


def critical_parameters(params: HypoParams, tol: float = _RESIDUAL_TOL) -> CriticalParameters:
    """Critical parameter angles for ell = k-1: the cusps at 2*pi*j/(k+ell),
    the vertical tangency at pi, and the k-2 axis-node angle pairs +-t
    (y(t) = 0), the node pairs with centre angle 0 (``_node_deltas``)."""
    if params.ell != params.k - 1:
        raise ValueError("critical_parameters requires ell = k-1")
    n = params.n
    cusps = tuple(2 * pi * j / n for j in range(n))
    residuals: dict = {}
    for j, t in enumerate(cusps):
        residuals["cusp_%d" % j] = max(abs(_dx(params, t)), abs(_dy(params, t)))
    residuals["tangency"] = max(abs(_dx(params, pi)), abs(_y(params, pi)))

    roots = _node_deltas(params, 0)
    if len(roots) != params.k - 2:
        raise TracingError("expected %d axis-node angles, found %d" % (params.k - 2, len(roots)))
    for i, r in enumerate(roots):
        residuals["axis_node_%d" % i] = abs(_y(params, r))

    bad = {name: r for name, r in residuals.items() if r > tol}
    if bad:
        raise TracingError("residuals above tolerance %g: %s" % (tol, bad))
    return CriticalParameters(cusps, tuple(roots), residuals)


# ---------------------------------------------------------------------------
# folded trace: real arcs in w = y^2 > 0, the line w = 0, imaginary arcs w < 0
# ---------------------------------------------------------------------------

def _w(params: HypoParams, t: float) -> float:
    return _y(params, t) ** 2


# The arcs with real x but imaginary y, t = i*s and t = pi + i*s, have w < 0,
# so each lies below the line wherever it exists: t = i*s over x > 1, right
# of every event, and PSI2 (t = pi + i*s) on one side of the transversal
# crossing at x(pi).  No fiber needs their w.

LINE = ("line",)
PSI2 = ("psi", 2)


@dataclass(frozen=True)
class RawEvent:
    x: float
    w: float
    kind: str  # cusp | tacnode | crossing | transversal | inflection
    arcs: tuple  # the two arc ids forming the event's strand block
    branch_side: str | None = None  # cusps only
    # contact order c of the two strands, so the event is the A_(2c-1)
    # crossing: measured for line events, 1 for nodes, None for cusps
    contact_order: int | None = None


@dataclass
class TracedCurve:
    params: HypoParams
    pieces: tuple[tuple[float, float], ...]  # x-monotone t-intervals of the fold
    transversal_x: float
    events: list[RawEvent]

    def census(self) -> dict:
        counts = {"cusp": 0, "tacnode": 0, "crossing": 0, "transversal": 0, "inflection": 0}
        for ev in self.events:
            counts[ev.kind] += 1
        return counts


def _piece_x_range(params: HypoParams, piece: tuple[float, float]) -> tuple[float, float]:
    a, b = piece
    xa, xb = _x(params, a), _x(params, b)
    return (min(xa, xb), max(xa, xb))


def _piece_t_at(params: HypoParams, piece: tuple[float, float], x0: float) -> float:
    return _bisect(lambda t: _x(params, t) - x0, piece[0], piece[1])


def _piece_w_at(params: HypoParams, piece: tuple[float, float], x0: float) -> float:
    return _w(params, _piece_t_at(params, piece, x0))


def _heights(tr: TracedCurve, x0: float) -> list[tuple]:
    """Arc ids of the strands over x0, top to bottom: the real fold pieces
    by w, the line, then PSI2 if present.  x0 must avoid event x-values and
    must not exceed 1, where the t = i*s arc joins the fiber."""
    p = tr.params
    if x0 > 1.0:
        raise TracingError("no fiber is traced right of x = 1: x=%.6f" % x0)
    real = []
    for i, piece in enumerate(tr.pieces):
        lo, hi = _piece_x_range(p, piece)
        if lo < x0 < hi:
            real.append((_piece_w_at(p, piece, x0), ("phi", i)))
    real.sort(key=lambda pair: -pair[0])
    out = [arc for _, arc in real] + [LINE]
    xpi = tr.transversal_x
    on_psi2_side = x0 < xpi if p.k % 2 == 1 else x0 > xpi
    if on_psi2_side:
        out.append(PSI2)
    return out


def _contact_order(sample, expected: int, label: str) -> int:
    """Vanishing order of |w| ~ C*h^p measured from samples at scales h,
    h/2, h/4; the estimates must converge on the expected integer."""
    h = 1e-4
    vals = [abs(sample(h / 2 ** i)) for i in range(3)]
    if min(vals) <= 0.0:
        raise TracingError("degenerate contact samples at %s" % label)
    p1 = log2(vals[0] / vals[1])
    p2 = log2(vals[1] / vals[2])
    if abs(p2 - expected) > 0.02 or abs(p2 - expected) > abs(p1 - expected) + 1e-6:
        raise TracingError(
            "contact order at %s measured %.6f (then %.6f), expected %d"
            % (label, p1, p2, expected)
        )
    return expected


def trace_quotient(k: int) -> TracedCurve:
    """Trace the folded quotient of the (k, k-1) hypocycloid plus the
    horizontal line and classify all of its diagram events, checking the
    detected census against the closed-form counts."""
    if k < 2:
        raise ValueError("need k >= 2")
    params = HypoParams(k, k - 1)
    n = params.n
    crit = critical_parameters(params)
    cusp_ts = list(crit.cusp_angles[1:k])  # folded representatives
    boundaries = [0.0] + cusp_ts + [pi]
    pieces = tuple(zip(boundaries, boundaries[1:]))
    piece_of = lambda t: ("phi", bisect(boundaries, t) - 1)  # arc of a folded parameter
    xpi = _x(params, pi)
    tr = TracedCurve(params, pieces, xpi, [])

    # folded cusps: one per off-axis mirror pair
    for j, t in enumerate(cusp_ts):
        side = "right" if _ddx(params, t) > 0 else "left"
        tr.events.append(
            RawEvent(_x(params, t), _w(params, t), "cusp",
                     (("phi", j), ("phi", j + 1)), branch_side=side)
        )

    # line events: axis nodes fold to simple tangencies with the line
    # (contact order 2), the vertical tangency to a transversal crossing
    # (order 1) and the on-axis cusp to an order-3 crossing at x = 1.  Each
    # is (kind, parameter, piece, block arc, order), and its contact is
    # sampled on the side of x0 where the piece extends.
    last = len(pieces) - 1
    line_events = [("tacnode", t, piece_of(t)[1], piece_of(t), 2) for t in crit.axis_node_angles]
    line_events += [
        ("transversal", pi, last, ("phi", last) if _ddx(params, pi) > 0 else PSI2, 1),
        ("inflection", 0.0, 0, ("phi", 0), 3),
    ]
    for kind, t, i, arc, expected in line_events:
        x0, hi = _x(params, t), _piece_x_range(params, pieces[i])[1]
        order = _contact_order(
            lambda h: _piece_w_at(params, pieces[i], x0 + h if hi > x0 + h else x0 - h),
            expected, "%s x=%.6f" % (kind, x0),
        )
        tr.events.append(RawEvent(x0, 0.0, kind, (arc, LINE), contact_order=order))

    # folded node pairs pi*m/n +- delta for m = 1..k-1 (n-m is the mirror of m)
    for m in range(1, k):
        for d in _node_deltas(params, m):
            t1, t2 = pi * m / n + d, pi * m / n - d
            residual = abs(complex(*hypo_point(params, t1)) - complex(*hypo_point(params, t2)))
            if residual > _RESIDUAL_TOL:
                raise TracingError("node residual %.3e above tolerance %g at m=%d, delta=%.12g"
                                   % (residual, _RESIDUAL_TOL, m, d))
            f1, f2 = abs(remainder(t1, 2 * pi)), abs(remainder(t2, 2 * pi))
            arcs = (piece_of(f1), piece_of(f2))
            tr.events.append(RawEvent(_x(params, f1), _w(params, f1), "crossing", arcs,
                                      contact_order=1))

    expected = {
        "cusp": k - 1,
        "tacnode": k - 2,
        "crossing": (n - 1) * (k - 2) // 2,
        "transversal": 1,
        "inflection": 1,
    }
    if tr.census() != expected:
        raise TracingError("event census mismatch: found %s, expected %s" % (tr.census(), expected))
    return tr


# ---------------------------------------------------------------------------
# diagram assembly
# ---------------------------------------------------------------------------

_SNAP = 10 ** 7


def _snap(x: float) -> Fraction:
    return Fraction(round(x * _SNAP), _SNAP)


def quotient_diagram(k: int, name: str | None = None) -> CurveDiagram:
    """Diagram of the folded (k, k-1) hypocycloid together with the
    horizontal line, with L placed in the first gap right of the
    transversal crossing.  The result is verified against the theorem
    hypotheses before being returned."""
    tr = trace_quotient(k)
    params = tr.params
    raw = sorted(tr.events, key=lambda ev: ev.x)
    xs = [ev.x for ev in raw]
    for a, b in zip(xs, xs[1:]):
        if b - a < 1e-6:
            raise TracingError("event separation below tolerance: %.3e" % (b - a))
    # the strand order changes only at events, so one fiber per slab
    # between consecutive events serves every event beside it; L sits at
    # the midpoint of the slab right of the transversal crossing
    mids = [0.5 * (a + b) for a, b in zip(xs, xs[1:])]
    fibers = [_heights(tr, x) for x in mids]
    l_slab = xs.index(tr.transversal_x)
    l_float = mids[l_slab]

    events: list[Event] = []
    for i, ev in enumerate(raw):
        right = ev.branch_side == "right" if ev.kind == "cusp" else ev.x < l_float
        slab = i if right else i - 1
        if not 0 <= slab < len(fibers):
            raise TracingError("no slab on the block side of %s x=%.6f" % (ev.kind, ev.x))
        ranks = {arc: r for r, arc in enumerate(fibers[slab], start=1)}
        try:
            r1, r2 = sorted(ranks[a] for a in ev.arcs)
        except KeyError:
            raise TracingError("block strand missing beside %s x=%.6f" % (ev.kind, ev.x))
        if r2 != r1 + 1:
            raise TracingError(
                "block strands not adjacent beside %s x=%.6f" % (ev.kind, ev.x)
            )
        kind = Crossing(2 * ev.contact_order - 1) if ev.contact_order else Cusp(2, ev.branch_side)
        events.append(Event(_snap(ev.x), kind, r1))

    snapped = [e.x for e in events] + [_snap(l_float)]
    if len(set(snapped)) != len(snapped):
        raise TracingError("x-coordinate snapping collided")

    fiber = fibers[l_slab]
    if len(fiber) != k + 1:
        raise TracingError(
            "strand-count mismatch at L: found %d, expected %d" % (len(fiber), k + 1)
        )
    components = tuple("l" if arc == LINE else "c" for arc in fiber)
    diagram = CurveDiagram(
        k + 1, _snap(l_float), components, tuple(events),
        name or "hypocycloid-quotient-k%d" % k,
    )
    report = check_theorem(diagram)
    if not report.verified:
        raise TracingError(
            "traced diagram failed the theorem check: %s" % "; ".join(report.violations)
        )
    return diagram


# ---------------------------------------------------------------------------
# orbifold quotient group and the polygon Artin comparison
# ---------------------------------------------------------------------------

def orbifold_presentation(k: int) -> Presentation:
    """Wirtinger presentation of the folded quotient with the square of
    every line-component generator killed (the orbifold group of the
    double cover branched along the line)."""
    wr = wirtinger_presentation(quotient_diagram(k))
    relators = list(wr.presentation.relators)
    for idx, gen_name in enumerate(wr.presentation.generators, start=1):
        if wr.generator_components.get(gen_name) == "l":
            relators.append(Word.gen(idx) ** 2)
    return Presentation(wr.presentation.generators, tuple(relators))


@dataclass
class HypoComparison:
    k: int
    n: int
    equal: bool
    profile_left: InvariantProfile  # orbifold group of the traced quotient
    profile_right: InvariantProfile  # (2k-1)-gon Artin group semidirect Z/2
    note: str

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "k": self.k,
            "N": self.n,
            "equal": self.equal,
            "profile_left": self.profile_left.to_json(),
            "profile_right": self.profile_right.to_json(),
            "note": self.note,
        }


def verify_case(k: int, targets: tuple[str, ...] = DEFAULT_TARGETS) -> HypoComparison:
    """Compare the traced orbifold group against the polygon Artin
    semidirect product by invariant profiles."""
    left = profile(orbifold_presentation(k), targets)
    right = profile(ngon_semidirect(k), targets)
    return HypoComparison(
        k, 2 * k - 1, profiles_equal(left, right), left, right,
        "profile equality (abelianization and finite homomorphism counts) is "
        "a necessary condition for isomorphism, not an isomorphism certificate",
    )
