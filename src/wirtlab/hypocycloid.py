"""Hypocycloid curves and their fold-quotient diagrams.

For coprime integers 0 < ell < k the hypocycloid is the trace of a point
on a circle rolling inside a larger circle (radius ratio ell : k+ell),
complexified to a plane algebraic curve of degree 2k.  When ell = k-1 the
real picture is symmetric about the horizontal axis; substituting w = y^2
folds the curve onto the upper half plane, and adding the horizontal line
itself yields a curve-plus-line arrangement whose diagram satisfies the
sufficiency hypotheses checked by ``check_theorem``.

This module traces that folded arrangement numerically and assembles its
``CurveDiagram``.  Each traced event carries its ``diagram`` kind from the
start: the folded off-axis cusp pairs are ``Cusp(2, side)``, and every
other event is a crossing of two strands with contact order c, the
A_(2c-1) point ``Crossing(2c - 1)``.  Folded node pairs are nodes (c = 1);
of the line events, axis nodes fold to simple tangencies with the line
(c = 2), the single vertical tangency to a transversal crossing (c = 1)
and the on-axis cusp to an order-3 contact (c = 3), each c measured.
Every node is a parameter pair pi*m/n +- delta: closed-form centre angle,
delta a root of one scalar equation, which must have k - 2 roots for
either parity of m; that one count fixes the number of nodes.
k = 2..11 trace; from k = 12 two events lie closer than the separation
tolerance and tracing stops with a ``TracingError``.

Strands are ranked in one fiber per slab between consecutive events: the
real fold pieces by w = y^2 > 0, then the line, then the arc with imaginary
y (w < 0) on its side of the transversal crossing.  x is monotone on each
fold piece, so one sweep along the piece in increasing t solves x(t) = x0
at every slab midpoint x0 it spans, each solve bracketed by the root
before it.

Killing the squares of the line meridians in the resulting Wirtinger
presentation gives an orbifold group that is compared, via invariant
profiles, against the semidirect product of the (2k-1)-gon Artin group with
Z/2 (``ngon_semidirect``).
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import copysign, cos, gcd, log2, pi, remainder, sin

from .diagram import CurveDiagram, Crossing, Cusp, Event, check_theorem
from .fpgroups import Presentation, ngon_semidirect
from .genpres import wirtinger_presentation
from .profiles import DEFAULT_TARGETS, InvariantProfile, profile, profiles_equal
from .words import Word


class TracingError(ValueError):
    """Numeric tracing failed: a residual, root count, contact order,
    separation or strand-order check did not come out as the closed-form
    picture predicts."""


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


# The evaluators form n = k + ell themselves rather than read the property:
# they run in every root solve.
def _x(params: HypoParams, t: float) -> float:
    k, l = params.k, params.ell
    n = k + l
    return (k * cos(l * t) + l * cos(k * t)) / n


def _y(params: HypoParams, t: float) -> float:
    k, l = params.k, params.ell
    n = k + l
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
    k, l = params.k, params.ell
    n = k + l
    return -k * l * (sin(l * t) + sin(k * t)) / n


def _dy(params: HypoParams, t: float) -> float:
    k, l = params.k, params.ell
    n = k + l
    return k * l * (cos(l * t) - cos(k * t)) / n


def _ddx(params: HypoParams, t: float) -> float:
    k, l = params.k, params.ell
    n = k + l
    return -k * l * (l * cos(l * t) + k * cos(k * t)) / n


# Stop width of a root solve: the certifying bracket is at most this wide,
# relative to the root once it exceeds 1 in magnitude.
_ROOT_WIDTH = 1e-15


def _solve(f, df, a: float, b: float, what: str) -> float:
    """Root of f in the sign-change bracket [a, b] by safeguarded Newton
    (Press et al., Numerical Recipes, 3rd ed., 2007, sec. 9.4, rtsafe); df
    is f'.  It starts at the regula-falsi point, and every evaluation
    shrinks the bracket to the side where f changes sign.  A Newton step
    that leaves the bracket, meets f' = 0, or is longer than half the step
    before last (rtsafe's guard against slow progress, which also stops
    Newton bouncing in the rounding noise around the root) is replaced by
    a bisection step.  One shorter than half the stop width is lengthened
    to it, so that the next iterate lands across the root.

    Certificate: the result r is either a point where the computed f is
    exactly 0, or the midpoint of an interval [p, q] with q - p <=
    w(r) = 1e-15 * max(1, |r|) over whose ends the computed f changes sign;
    without one the solve goes on.  So if |computed f - f| <= E on [p, q]
    and |f'| >= D > 0 near it, a root of the exact f lies within
    w(r) / 2 + E / D of r: either the exact f changes sign over [p, q], or
    |f| <= E at one of its ends.  ``what`` names the solve in errors."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise TracingError("%s: bracket [%.17g, %.17g] does not straddle a root (f = %.3e, %.3e)"
                           % (what, a, b, fa, fb))
    if fa > 0:
        a, b, fa, fb = b, a, fb, fa  # from here on f(a) < 0 < f(b)
    t = a - fa * (b - a) / (fb - fa)
    older = last = b - a
    for _ in range(200):
        ft = f(t)
        if ft == 0.0:
            return t
        if ft < 0.0:
            a = t
        else:
            b = t
        mid = 0.5 * (a + b)
        if abs(b - a) <= _ROOT_WIDTH * max(1.0, abs(mid)):
            return mid
        d = df(t)
        step = -ft / d if d else 0.0
        if 0.0 < step / ((b if ft < 0.0 else a) - t) < 1.0 and abs(step) <= 0.5 * abs(older):
            nxt = t + copysign(max(abs(step), 0.5 * _ROOT_WIDTH * max(1.0, abs(t))), step)
        else:
            nxt = mid  # Newton leaves the bracket or stalls: bisect
        older, last = last, nxt - t
        t = nxt
    raise TracingError("%s: no certified root in [%.17g, %.17g] after 200 steps" % (what, a, b))


# The node scan stays this far inside (0, pi): at delta -> pi the pair meets
# at a cusp, where the root can be of higher order and sign noise fakes nodes.
_NODE_MARGIN = 1e-3
_RESIDUAL_TOL = 1e-12


def _node_deltas(params: HypoParams, m: int) -> list[float]:
    """Half-separations delta in (0, pi) of the real node pairs pi*m/n +- delta.
    With z(t) = (k e^{i ell t} + ell e^{-ikt})/n, z(theta+delta) - z(theta-delta) =
    (2i/n)(k sin(ell delta) e^{i ell theta} - ell sin(k delta) e^{-ik theta}), so they
    solve k sin(ell delta) = (-1)^m ell sin(k delta).  Its frequency is at most k,
    so 64k scan steps put each root in a sign-change bracket of its own, and
    ``_solve`` (Newton on f' = k ell (cos(ell delta) -+ cos(k delta))) certifies
    it there.  There are ell - 1 roots for either parity (k - 2 on the fold,
    ell = k - 1), one per real node pair with this centre angle; a scan that
    finds another number is refused.  Only the parity of m enters, and errors
    name m mod 2."""
    k, l = params.k, params.ell
    sign = -1.0 if m % 2 else 1.0
    f = lambda d: k * sin(l * d) - sign * l * sin(k * d)
    df = lambda d: k * l * (cos(l * d) - sign * cos(k * d))
    lo, hi, steps = _NODE_MARGIN, pi - _NODE_MARGIN, 64 * k
    ds = [lo + (hi - lo) * i / steps for i in range(steps + 1)]
    fs = [f(d) for d in ds]
    what = "node m=%d" % (m % 2)
    roots = [_solve(f, df, ds[i - 1], ds[i], what)
             for i in range(1, steps + 1) if fs[i] == 0.0 or fs[i - 1] * fs[i] < 0.0]
    if len(roots) != l - 1:
        raise TracingError("%s: expected %d roots, found %d" % (what, l - 1, len(roots)))
    return roots


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
    for i, r in enumerate(roots):
        residuals["axis_node_%d" % i] = abs(_y(params, r))

    bad = {name: r for name, r in residuals.items() if r > tol}
    if bad:
        raise TracingError("residuals above tolerance %g: %s" % (tol, bad))
    return CriticalParameters(cusps, tuple(roots), residuals)


# ---------------------------------------------------------------------------
# folded trace: real arcs in w = y^2 > 0, the line w = 0, imaginary arcs w < 0
# ---------------------------------------------------------------------------

# The arcs with real x but imaginary y, t = i*s and t = pi + i*s, have w < 0,
# so each lies below the line wherever it exists: t = i*s over x > 1, right
# of every event, and PSI2 (t = pi + i*s) on one side of the transversal
# crossing at x(pi).  No fiber needs their w.

LINE = ("line",)
PSI2 = ("psi", 2)


@dataclass(frozen=True)
class RawEvent:
    x: float
    kind: Cusp | Crossing  # Crossing(2c - 1) for contact order c
    arcs: tuple  # the two arc ids forming the event's strand block


@dataclass
class TracedCurve:
    params: HypoParams
    pieces: tuple[tuple[float, float], ...]  # x-monotone t-intervals of the fold
    transversal_x: float
    events: list[RawEvent]


def _piece_x_ends(params: HypoParams, piece: tuple[float, float]) -> tuple[float, float]:
    """x at the two ends of a fold piece, in increasing t."""
    return _x(params, piece[0]), _x(params, piece[1])


def _piece_t_at(params: HypoParams, bracket: tuple[float, float], x0: float, what: str) -> float:
    """The t in bracket, on one fold piece, where x(t) = x0."""
    return _solve(lambda t: _x(params, t) - x0, lambda t: _dx(params, t), bracket[0], bracket[1], what)


def _fibers(tr: TracedCurve, xs: list[float]) -> list[list[tuple]]:
    """Arc ids of the strands over each x0 of xs, top to bottom: the real
    fold pieces by w, the line, then PSI2 if present.  The xs must increase,
    avoid event x-values and not exceed 1, where the t = i*s arc joins the
    fiber.  x is monotone on a fold piece, so one walk along each piece in
    increasing t meets the x0 it spans in order, and each x(t) = x0 is
    solved between the root before it on that piece and the piece's end."""
    p = tr.params
    for x0 in xs:
        if x0 > 1.0:
            raise TracingError("no fiber is traced right of x = 1: x=%.6f" % x0)
    real: list[list[tuple]] = [[] for _ in xs]
    for i, piece in enumerate(tr.pieces):
        xa, xb = _piece_x_ends(p, piece)
        lo, hi = min(xa, xb), max(xa, xb)
        spanned = [j for j, x0 in enumerate(xs) if lo < x0 < hi]
        if xa > xb:
            spanned.reverse()  # x falls as t grows
        t = piece[0]
        for j in spanned:
            t = _piece_t_at(p, (t, piece[1]), xs[j], "fiber x=%.6f piece %d" % (xs[j], i))
            real[j].append((_y(p, t) ** 2, ("phi", i)))
    xpi = tr.transversal_x
    out = []
    for x0, ws in zip(xs, real):
        ws.sort(key=lambda pair: -pair[0])
        on_psi2_side = x0 < xpi if p.k % 2 == 1 else x0 > xpi
        out.append([arc for _, arc in ws] + [LINE] + ([PSI2] if on_psi2_side else []))
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
    horizontal line into its events, each with its ``diagram`` kind: k - 1
    folded cusps, k line events of measured contact order and (k - 1)(k - 2)
    nodes: for each centre angle pi*m/n, m = 1..k-1, the k - 2 roots that
    ``_node_deltas`` counts."""
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
        tr.events.append(RawEvent(_x(params, t), Cusp(2, side), (("phi", j), ("phi", j + 1))))

    # line events: axis nodes fold to simple tangencies with the line
    # (contact order 2), the vertical tangency to a transversal crossing
    # (order 1) and the on-axis cusp to an order-3 crossing at x = 1.  Each
    # is (name, parameter, piece, block arc, order), the name only labelling
    # its contact samples, taken on the side of x0 where the piece extends.
    last = len(pieces) - 1
    line_events = [("tacnode", t, piece_of(t)[1], piece_of(t), 2) for t in crit.axis_node_angles]
    line_events += [
        ("transversal", pi, last, ("phi", last) if _ddx(params, pi) > 0 else PSI2, 1),
        ("inflection", 0.0, 0, ("phi", 0), 3),
    ]
    for name, t, i, arc, expected in line_events:
        x0, hi = _x(params, t), max(_piece_x_ends(params, pieces[i]))
        label = "%s x=%.6f" % (name, x0)
        what = "contact sample at " + label
        order = _contact_order(
            lambda h: _y(params, _piece_t_at(params, pieces[i], x0 + h if hi > x0 + h else x0 - h,
                                             what)) ** 2,
            expected, label,
        )
        tr.events.append(RawEvent(x0, Crossing(2 * order - 1), (arc, LINE)))

    # folded node pairs pi*m/n +- delta for m = 1..k-1 (n-m is the mirror of m);
    # delta depends on m only through its parity, and for even m the deltas
    # are the axis-node angles
    deltas = (crit.axis_node_angles, _node_deltas(params, 1))
    for m in range(1, k):
        for d in deltas[m % 2]:
            t1, t2 = pi * m / n + d, pi * m / n - d
            residual = abs(complex(*hypo_point(params, t1)) - complex(*hypo_point(params, t2)))
            if residual > _RESIDUAL_TOL:
                raise TracingError("node residual %.3e above tolerance %g at m=%d, delta=%.12g"
                                   % (residual, _RESIDUAL_TOL, m, d))
            f1, f2 = abs(remainder(t1, 2 * pi)), abs(remainder(t2, 2 * pi))
            tr.events.append(RawEvent(_x(params, f1), Crossing(1), (piece_of(f1), piece_of(f2))))
    return tr


# ---------------------------------------------------------------------------
# diagram assembly
# ---------------------------------------------------------------------------

_SNAP = 10 ** 7
_SEPARATION = 1e-6  # the least x-distance accepted between traced events


def _snap(x: float) -> Fraction:
    return Fraction(round(x * _SNAP), _SNAP)


def quotient_diagram(k: int, name: str | None = None) -> CurveDiagram:
    """Diagram of the folded (k, k-1) hypocycloid together with the
    horizontal line, with L placed in the first gap right of the
    transversal crossing.  The result is verified against the theorem
    hypotheses before being returned."""
    # The quotient has k^2 - k + 1 events with x in [-1, 1], so by pigeonhole
    # two of them lie within 2 / (k^2 - k) of each other: past this k the
    # separation check below must fail, so refuse before tracing.
    if k > 1 and k * (k - 1) * _SEPARATION > 2:
        raise TracingError(
            "event separation below tolerance: k = %d puts %d events in [-1, 1], "
            "two of them at most %.3e apart" % (k, k * k - k + 1, 2 / (k * k - k))
        )
    tr = trace_quotient(k)
    params = tr.params
    raw = sorted(tr.events, key=lambda ev: ev.x)
    xs = [ev.x for ev in raw]
    labels = ["%s x=%.6f" % (type(ev.kind).__name__.lower(), ev.x) for ev in raw]
    for i in range(1, len(xs)):
        gap = xs[i] - xs[i - 1]
        if gap < _SEPARATION:
            raise TracingError("event separation below tolerance: %.3e between %s and %s"
                               % (gap, labels[i - 1], labels[i]))
    # the strand order changes only at events, so one fiber per slab
    # between consecutive events serves every event beside it; L sits at
    # the midpoint of the slab right of the transversal crossing
    mids = [0.5 * (a + b) for a, b in zip(xs, xs[1:])]
    fibers = _fibers(tr, mids)
    l_slab = xs.index(tr.transversal_x)
    l_float = mids[l_slab]

    events: list[Event] = []
    placed = {_snap(l_float): "L x=%.6f" % l_float}  # snapped x -> what sits there
    for i, (ev, label) in enumerate(zip(raw, labels)):
        right = ev.kind.branch_side == "right" if isinstance(ev.kind, Cusp) else ev.x < l_float
        slab = i if right else i - 1
        if not 0 <= slab < len(fibers):
            raise TracingError("no slab on the block side of " + label)
        ranks = {arc: r for r, arc in enumerate(fibers[slab], start=1)}
        try:
            r1, r2 = sorted(ranks[a] for a in ev.arcs)
        except KeyError:
            raise TracingError("block strand missing beside " + label)
        if r2 != r1 + 1:
            raise TracingError("block strands not adjacent beside " + label)
        x = _snap(ev.x)
        if x in placed:
            raise TracingError("x-coordinate snapping collided: %s and %s both snap to %s"
                               % (placed[x], label, x))
        placed[x] = label
        events.append(Event(x, ev.kind, r1))

    fiber = fibers[l_slab]
    if len(fiber) != k + 1:
        raise TracingError("strand-count mismatch at L x=%.6f: found %d, expected %d"
                           % (l_float, len(fiber), k + 1))
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
    # a generator's edges lie on one branch, so in one cluster
    line = {
        wr.edge_gen[e] for edges, _, names in wr.sweep.clusters if names == ("l",) for e in edges
    }
    return wr.presentation.add_relators(Word._reduced((g, g)) for g in sorted(line))


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
