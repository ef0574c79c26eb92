import hashlib
import json
import math
import re
from collections import Counter
from dataclasses import replace

import pytest

from wirtlab.diagram import Crossing, Cusp, check_theorem, sweep_ranks
from wirtlab import hypocycloid
from wirtlab.dsl import serialize_diagram
from wirtlab.genpres import wirtinger_presentation
from wirtlab.hypocycloid import (
    LINE,
    HypoParams,
    TracingError,
    _contact_order,
    _fibers,
    _node_deltas,
    _snap,
    _solve,
    critical_parameters,
    hypo_point,
    hypo_stats,
    orbifold_presentation,
    quotient_diagram,
    trace_quotient,
    verify_case,
)


def test_params_validation():
    with pytest.raises(ValueError):
        HypoParams(2, 2)  # not coprime... also ell >= k
    with pytest.raises(ValueError):
        HypoParams(4, 2)  # not coprime
    with pytest.raises(ValueError):
        HypoParams(3, 0)
    p = HypoParams(3, 2)
    assert p.n == 5


def test_curve_points_lie_on_the_curve():
    p = HypoParams(3, 2)
    # cusps lie on the unit circle, the curve inside the closed unit disk
    for j in range(p.n):
        t = 2 * math.pi * j / p.n
        x, y = hypo_point(p, t)
        assert math.hypot(x, y) == pytest.approx(1.0, abs=1e-12)
    for i in range(200):
        x, y = hypo_point(p, i * 0.05)
        assert math.hypot(x, y) <= 1 + 1e-12


def test_stats_census_small():
    s = hypo_stats(HypoParams(3, 2))
    assert (s.degree, s.cusps, s.nodes, s.real_nodes, s.tangencies) == (
        6,
        5,
        5,
        5,
        1,
    )
    assert s.identity_holds


def test_critical_parameters_residuals():
    for k in range(2, 9):
        crit = critical_parameters(HypoParams(k, k - 1))
        assert len(crit.cusp_angles) == 2 * k - 1
        assert len(crit.axis_node_angles) == k - 2
        assert all(abs(r) < 1e-12 for r in crit.residuals.values())


def test_critical_parameters_refuses_residuals_above_tolerance():
    params = HypoParams(5, 4)
    residuals = critical_parameters(params).residuals
    above = {name: r for name, r in residuals.items() if r > 0}
    assert above  # the largest residual is about 1e-14, not 0
    with pytest.raises(TracingError) as exc:
        critical_parameters(params, tol=0.0)
    assert str(exc.value) == "residuals above tolerance 0: %s" % above


def test_critical_parameters_requires_fold_shape():
    with pytest.raises(ValueError):
        critical_parameters(HypoParams(3, 1))


def test_quotient_diagram_refuses_from_k_1415_before_tracing(monkeypatch):
    # 1414 * 1413 < 2e6 < 1415 * 1414: the pigeonhole bound on the event
    # separation first falls below 1e-6 at k = 1415
    traced = []

    class Traced(Exception):
        pass

    def trace(k):
        traced.append(k)
        raise Traced

    monkeypatch.setattr(hypocycloid, "trace_quotient", trace)
    with pytest.raises(Traced):
        quotient_diagram(1414)
    for k in (1415, 10**7):
        with pytest.raises(TracingError, match="^event separation below tolerance: k = %d puts " % k):
            quotient_diagram(k)
    assert traced == [1414]


# md5 of `hypo-diagram --k K` concatenated over K = 2..11
HYPO_DIAGRAM_MD5 = "2d877d39b9c27862ac8cd166de1e49eb"
# md5 of the sorted-key JSON of orbifold_presentation(k), k = 2..11, one
# line each, joined by newlines
ORBIFOLD_MD5 = "b9f6baafd26a8ca733e862bbc8324d74"


def kind_census(tr) -> Counter:
    """Traced events counted by (DSL kind name, m, whether the line is in
    the block): the counts the DSL of ``quotient_diagram`` shows."""
    return Counter((type(ev.kind).__name__.lower(), ev.kind.m, LINE in ev.arcs) for ev in tr.events)


def hypo_diagram_md5() -> str:
    text = "".join(serialize_diagram(quotient_diagram(k)) for k in range(2, 12))
    return hashlib.md5(text.encode()).hexdigest()


def expected_census(k: int) -> Counter:
    return +Counter({
        ("cusp", 2, False): k - 1,
        ("crossing", 3, True): k - 2,  # axis nodes fold to tangencies with the line
        ("crossing", 1, False): (k - 1) * (k - 2),  # folded node pairs
        ("crossing", 1, True): 1,  # the vertical tangency
        ("crossing", 5, True): 1,  # the on-axis cusp
    })


def test_trace_census():
    for k in range(2, 12):
        assert kind_census(trace_quotient(k)) == expected_census(k), k


def test_quotient_diagram_is_verified():
    for k in range(2, 12):
        d = quotient_diagram(k)
        assert d.d == k + 1
        assert check_theorem(d).verified
    assert hypo_diagram_md5() == HYPO_DIAGRAM_MD5


@pytest.mark.parametrize("k", range(2, 12))
def test_numeric_fibers_agree_with_the_sweep(k):
    d = quotient_diagram(k)
    sw = sweep_ranks(d)
    line_token = d.components.index("l") + 1
    # the sweep's slabs in x order, L's interval counted once
    n_left = sum(ev.x < d.line_x for ev in d.events)
    intervals = sw.slabs[:n_left + 1] + sw.slabs[n_left + 2:]
    tr = trace_quotient(k)
    mids = slab_midpoints(tr)
    assert len(intervals) == len(mids) + 2
    fibers = _fibers(tr, mids)
    for arcs, strands in zip(fibers, intervals[1:-1]):
        assert len(arcs) == len(strands)
        assert arcs.index(LINE) == strands.index(line_token)
    with pytest.raises(TracingError):
        _fibers(tr, [1.5])  # the t = i*s arc joins the fiber right of x = 1


def slab_midpoints(tr) -> list[float]:
    """Midpoints of the slabs between consecutive traced events, in x order."""
    xs = sorted(ev.x for ev in tr.events)
    return [0.5 * (a + b) for a, b in zip(xs, xs[1:])]


@pytest.mark.parametrize("k", range(2, 15))
def test_warm_bracketed_fibers_match_single_fiber_solves(k):
    """The sweep brackets each fiber solve by the root before it on the
    piece; one fiber at a time brackets by the whole piece.  Both rank the
    strands alike at every slab, also past k = 11, where only the separation
    check of ``quotient_diagram`` refuses."""
    tr = trace_quotient(k)
    mids = slab_midpoints(tr)
    assert _fibers(tr, mids) == [_fibers(tr, [x])[0] for x in mids]


@pytest.mark.parametrize("k", range(3, 9))
def test_closed_form_nodes_agree_with_x_inversion(k):
    """Each closed-form node swaps its two pieces, adjacent in the fiber,
    between the x-inverted fibers on either side of it, and nothing else
    moves there."""
    params = HypoParams(k, k - 1)
    for m in range(k):
        assert len(_node_deltas(params, m)) == k - 2
    tr = trace_quotient(k)
    nodes = [ev for ev in tr.events if ev.kind == Crossing(1) and LINE not in ev.arcs]
    assert len(nodes) == (k - 1) * (k - 2)
    xs = sorted(ev.x for ev in tr.events)
    fibers = _fibers(tr, slab_midpoints(tr))
    for ev in nodes:
        s = xs.index(ev.x)
        assert 0 < s < len(xs) - 1
        left, right = fibers[s - 1], fibers[s]
        i, j = sorted(left.index(arc) for arc in ev.arcs)
        assert j == i + 1
        assert right == left[:i] + [left[j], left[i]] + left[j + 1:]


def test_orbifold_presentation_adds_involution_relators():
    pres = orbifold_presentation(2)
    squares = [r for r in pres.relators if len(r) == 2 and r.letters[0] == r.letters[1]]
    assert squares, "expected generator-squared relators for the line component"


@pytest.mark.parametrize("k", range(2, 7))
def test_orbifold_squares_are_the_line_clusters_generators(k):
    """The relators appended to the Wirtinger presentation are (g, g) for
    the generators of the line's cluster, found here from the line's rank
    at L (the rank-r strand at L has edge r), in increasing order."""
    wr = wirtinger_presentation(quotient_diagram(k))
    rank = wr.sweep.diagram.components.index("l") + 1
    (edges, names), = [(edges, names) for edges, _, names in wr.sweep.clusters if rank in edges]
    assert names == ("l",)
    pres = orbifold_presentation(k)
    n = len(wr.presentation.relators)
    assert pres.generators == wr.presentation.generators
    assert pres.relators[:n] == wr.presentation.relators
    assert [r.letters for r in pres.relators[n:]] == [(g, g) for g in sorted({wr.edge_gen[e] for e in edges})]


def orbifold_md5() -> str:
    text = "\n".join(
        json.dumps(orbifold_presentation(k).to_json(), sort_keys=True) for k in range(2, 12)
    )
    return hashlib.md5(text.encode()).hexdigest()


def test_orbifold_presentations_are_pinned():
    assert orbifold_md5() == ORBIFOLD_MD5


@pytest.mark.parametrize("k", [5, 6, 7, 8, 9, 10, 11])
def test_verify_case_with_the_default_bound(k):
    result = verify_case(k)
    assert result.equal, result.note
    for side in (result.profile_left, result.profile_right):
        assert (side.abelian.free_rank, side.abelian.torsion) == (1, (2,))
        assert dict(side.hom_counts) == {"S3": 12, "S4": 72}


def test_contact_order_refusals():
    assert _contact_order(lambda h: 5 * h ** 2, 2, "probe x=0.5") == 2
    with pytest.raises(TracingError, match=r"contact order at probe x=0\.5 measured 2\.0+ .*expected 3"):
        _contact_order(lambda h: h ** 2, 3, "probe x=0.5")
    with pytest.raises(TracingError, match="degenerate contact samples at probe x=0.5"):
        _contact_order(lambda h: 0.0, 2, "probe x=0.5")


@pytest.mark.parametrize("k", [2, 4])
def test_every_line_event_keeps_the_contact_order_refusals(k, monkeypatch):
    """Each line event's samples go through ``_contact_order`` with its
    expected order: doubling their order, or zeroing them, is refused."""
    measured = []

    def checked(sample, expected, label):
        pattern = re.escape(label)
        with pytest.raises(TracingError, match="contact order at " + pattern):
            _contact_order(lambda h: sample(h) ** 2, expected, label)
        with pytest.raises(TracingError, match="degenerate contact samples at " + pattern):
            _contact_order(lambda h: 0.0, expected, label)
        measured.append((label, expected))
        return _contact_order(sample, expected, label)

    monkeypatch.setattr(hypocycloid, "_contact_order", checked)
    tr = trace_quotient(k)
    line = [ev for ev in tr.events if LINE in ev.arcs]
    assert [ev.kind for ev in line] == [Crossing(3)] * (k - 2) + [Crossing(1), Crossing(5)]
    names = ["tacnode"] * (k - 2) + ["transversal", "inflection"]
    assert measured == [
        ("%s x=%.6f" % (name, ev.x), (ev.kind.m + 1) // 2) for name, ev in zip(names, line)
    ]


# ---------------------------------------------------------------------------
# the certified root solve
# ---------------------------------------------------------------------------

def _stop_width(r):
    return 1e-15 * max(1.0, abs(r))


def _reference_bisect(f, a, b):
    """Plain bisection to the same stop width (the tracer's solve before
    Newton), the reference ``_solve``'s roots are compared with.  The
    bracket may come in either order."""
    a, b = min(a, b), max(a, b)
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
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


def test_reference_bisect_takes_a_bracket_in_either_order():
    f = lambda t: t - 0.7
    r = _reference_bisect(f, 0.0, 1.0)
    assert r == pytest.approx(0.7, abs=_stop_width(0.7))
    assert _reference_bisect(f, 1.0, 0.0) == r


def _certified(evals, r):
    """``_solve``'s certificate, read off the (t, f(t)) pairs it evaluated:
    f(r) was computed as exactly 0, or r lies between two neighbouring
    evaluated points no further apart than the stop width, where the
    computed f has opposite signs."""
    if (r, 0.0) in evals:
        return True
    pts = sorted(evals)
    return any(
        (fp > 0) != (fq > 0) and fp != 0.0 and fq != 0.0
        and p <= r <= q and q - p <= _stop_width(r)
        for (p, fp), (q, fq) in zip(pts, pts[1:])
    )


def _recorded_solve(f, df, a, b, what="probe"):
    evals = []

    def recording(t):
        v = f(t)
        evals.append((t, v))
        return v

    r = _solve(recording, df, a, b, what)
    return r, evals


def _evaluation_error(k, t):
    """Bound on the rounding error of both solved functions at t, each a sum
    of two terms c * trig(j * t) with c, j <= k:
    (k cos(ell t) + ell cos(k t))/n - x0, and k sin(ell d) -+ ell sin(k d).
    The product j * t is off by up to j|t|u, which the trig function passes
    on; the trig value adds 2u, the product by c one u more, and the sum,
    quotient and subtraction a few u of values at most k."""
    u = 2.0 ** -53
    return 2 * k * u * (k * abs(t) + 5)


@pytest.mark.parametrize("k", range(2, 12))
def test_every_solve_is_certified_and_agrees_with_bisection(k, monkeypatch):
    """Each root solve in ``quotient_diagram(k)`` (fibers, contact samples,
    nodes) carries its certificate, and lies within the docstring bound of
    the root plain bisection finds: each is within w/2 + E/|f'| of the one
    root in the bracket, where w is the stop width and E bounds the rounding
    error of f.  Where E/|f'| exceeds w, the computed f changes sign more
    than once (or is exactly 0 over a stretch), and the two certified
    roots may differ by more than w."""
    solves = []

    def recording(f, df, a, b, what):
        r, evals = _recorded_solve(f, df, a, b, what)
        solves.append((f, df, a, b, what, r, evals))
        return r

    monkeypatch.setattr(hypocycloid, "_solve", recording)
    quotient_diagram(k)
    kinds = {what.split(" ")[0] for *_, what, _, _ in solves}
    assert kinds == ({"fiber", "contact", "node"} if k > 2 else {"fiber", "contact"})
    for f, df, a, b, what, r, evals in solves:
        assert _certified(evals, r), what
        rb = _reference_bisect(f, a, b)
        bound = (_stop_width(r) + _stop_width(rb)) / 2 + 2 * _evaluation_error(k, r) / abs(df(r))
        assert abs(r - rb) <= bound, (what, r, rb)


def test_solve_refuses_a_bracket_without_a_sign_change():
    with pytest.raises(TracingError, match=r"^probe: bracket \[0, 1\] does not straddle a root"):
        _solve(lambda t: t + 1.0, lambda t: 1.0, 0.0, 1.0, "probe")
    with pytest.raises(TracingError, match="does not straddle"):
        _solve(lambda t: (t - 0.5) ** 2 + 1e-3, lambda t: 2 * (t - 0.5), 0.0, 1.0, "probe")


def test_solve_refuses_after_its_step_limit(monkeypatch):
    # with no stop width no interval certifies a root, so the solve runs out
    # of steps around sqrt(2) instead of returning an uncertified point
    monkeypatch.setattr(hypocycloid, "_ROOT_WIDTH", 0.0)
    with pytest.raises(
        TracingError,
        match=r"^probe: no certified root in \[1\.4142135623730949, 1\.4142135623730951\] after 200 steps$",
    ):
        _solve(lambda t: t * t - 2, lambda t: 2 * t, 1.0, 2.0, "probe")


def test_solve_returns_a_root_at_a_bracket_end_as_is():
    for a, b in ((0.25, 1.0), (-1.0, 0.25), (1.0, 0.25)):
        r, evals = _recorded_solve(lambda t: t - 0.25, lambda t: 1.0, a, b)
        assert r == 0.25
        assert len(evals) <= 2


@pytest.mark.parametrize(
    "f, df, a, b, root",
    [
        # f' = 0 inside, where the regula-falsi start sends Newton outside
        (lambda t: t ** 3 - t, lambda t: 3 * t * t - 1, 0.3, 1.5, 1.0),
        # f' = 0 at the root itself (a triple root)
        (lambda t: (t - 0.3) ** 3, lambda t: 3 * (t - 0.3) ** 2, 0.0, 1.0, 0.3),
        # a derivative that is always 0: every step bisects
        (lambda t: t - 0.7, lambda t: 0.0, 0.0, 1.0, 0.7),
    ],
)
def test_solve_certifies_where_the_derivative_vanishes(f, df, a, b, root):
    for lo, hi in ((a, b), (b, a)):
        r, evals = _recorded_solve(f, df, lo, hi)
        assert _certified(evals, r)
        assert r == pytest.approx(root, abs=1e-5)  # the triple root is flat to 1e-5


@pytest.mark.parametrize("k", [2, 7])
def test_solve_on_pieces_ending_at_cusps(k):
    """x(t) - x0 on every fold piece, whose ends are cusps or the axis
    points t = 0 and pi where x'(t) = 0, with x0 close to either end."""
    tr = trace_quotient(k)
    params = tr.params
    for a, b in tr.pieces:
        xa, xb = hypocycloid._x(params, a), hypocycloid._x(params, b)
        for x0 in (xa + 1e-9 * (xb - xa), xb - 1e-9 * (xb - xa), 0.5 * (xa + xb)):
            r, evals = _recorded_solve(lambda t: hypocycloid._x(params, t) - x0,
                                       lambda t: hypocycloid._dx(params, t), a, b)
            assert _certified(evals, r)
            assert min(a, b) <= r <= max(a, b)


def tracing_counts(k: int) -> tuple[int, Counter]:
    """The x(t) and x'(t) evaluations made by ``quotient_diagram(k)``, and
    its fiber solves counted by label (fiber x and piece)."""
    calls, fibers = [0], Counter()

    def solve(f, df, a, b, what, real=_solve):
        if what.startswith("fiber "):
            fibers[what] += 1
        return real(f, df, a, b, what)

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_x", "_dx"):
            def counted(params, t, real=getattr(hypocycloid, name)):
                calls[0] += 1
                return real(params, t)

            mp.setattr(hypocycloid, name, counted)
        mp.setattr(hypocycloid, "_solve", solve)
        quotient_diagram(k)
    return calls[0], fibers


# x(t) + x'(t) evaluations of quotient_diagram(k), as measured with each
# fiber solve bracketed by the root before it on its piece (k = 6 made 8878
# under plain bisection and 2653 with Newton on whole-piece brackets)
TRACING_EVALUATIONS = {6: 2123, 11: 11626}


def test_tracing_evaluation_count():
    """x(t) and x'(t) evaluations made by quotient_diagram(k), a count with
    no timing in it, within 5% of the measured count (libm may round a
    last bit differently and move a Newton step)."""
    for k, measured in TRACING_EVALUATIONS.items():
        assert tracing_counts(k)[0] <= 1.05 * measured, k


def test_one_fiber_solve_per_piece_and_slab():
    """``quotient_diagram`` solves x(t) = x0 once for each slab midpoint x0
    and each fold piece whose open x-range holds it, and for no other pair."""
    for k in range(2, 12):
        tr = trace_quotient(k)
        expected = Counter()
        for i, (a, b) in enumerate(tr.pieces):
            xa, xb = hypo_point(tr.params, a)[0], hypo_point(tr.params, b)[0]
            expected.update("fiber x=%.6f piece %d" % (x0, i)
                            for x0 in slab_midpoints(tr) if min(xa, xb) < x0 < max(xa, xb))
        assert tracing_counts(k)[1] == expected, k


def test_node_half_separations_are_solved_once_per_parity(monkeypatch):
    """delta depends on m only through its parity, so a trace solves for
    m = 0 (the axis nodes) and for m = 1 once each, whatever k is."""
    calls = []

    def counted(params, m, real=hypocycloid._node_deltas):
        calls.append(m)
        return real(params, m)

    monkeypatch.setattr(hypocycloid, "_node_deltas", counted)
    trace_quotient(7)
    assert sorted(calls) == [0, 1]


def _break_solves(monkeypatch, stage):
    """Give every solve whose label starts with ``stage`` the one-point
    bracket [a, a], which does not straddle a root."""
    def broken(f, df, a, b, what):
        return _solve(f, df, a, a if what.startswith(stage) else b, what)

    monkeypatch.setattr(hypocycloid, "_solve", broken)


@pytest.mark.parametrize(
    "stage, pattern",
    [
        ("node", r"^node m=0: bracket \[\S+, \S+\] does not straddle a root"),
        ("node m=1", r"^node m=1: bracket \[\S+, \S+\] does not straddle a root"),
        ("contact", r"^contact sample at tacnode x=-?\d\.\d{6}: bracket \[\S+, \S+\] does not"),
    ],
)
def test_solve_failures_name_the_solve(stage, pattern, monkeypatch):
    _break_solves(monkeypatch, stage)
    with pytest.raises(TracingError, match=pattern):
        quotient_diagram(3)


def test_a_fiber_over_a_piece_that_misses_it_names_the_fiber(monkeypatch):
    """A piece wrongly taken to span the fiber gives a bracket of its ends
    with no sign change, and the error names the fiber's x and the piece."""
    tr = trace_quotient(3)
    monkeypatch.setattr(hypocycloid, "_piece_x_ends", lambda params, piece: (-2.0, 2.0))
    with pytest.raises(TracingError, match=r"^fiber x=0\.990000 piece \d+: bracket .* does not straddle"):
        _fibers(tr, [0.99])


# ---------------------------------------------------------------------------
# every refusal of trace_quotient and quotient_diagram, reached through a seam
# ---------------------------------------------------------------------------

def test_node_residual_refusal_names_the_node(monkeypatch):
    """Odd-parity deltas moved off their roots give node pairs whose two
    points differ, and the residual check names m and delta."""
    def shifted(params, m, real=hypocycloid._node_deltas):
        return [d + 1e-6 if m % 2 else d for d in real(params, m)]

    monkeypatch.setattr(hypocycloid, "_node_deltas", shifted)
    with pytest.raises(TracingError, match=r"^node residual \S+ above tolerance 1e-12 at m=1, delta=\d"):
        trace_quotient(3)


@pytest.mark.parametrize("parity", [0, 1])
def test_node_root_count_refusal_names_the_parity(parity, monkeypatch):
    """A scan narrowed to the single point pi/2 for one parity finds none of
    its k - 2 roots, and the count check names that parity."""
    margin = hypocycloid._NODE_MARGIN

    def narrowed(params, m, real=hypocycloid._node_deltas):
        monkeypatch.setattr(hypocycloid, "_NODE_MARGIN", math.pi / 2 if m % 2 == parity else margin)
        return real(params, m)

    monkeypatch.setattr(hypocycloid, "_node_deltas", narrowed)
    with pytest.raises(TracingError, match="^node m=%d: expected 2 roots, found 0$" % parity):
        trace_quotient(4)


def _doctor_trace(monkeypatch, change):
    """Make ``quotient_diagram`` assemble a traced curve that ``change``
    has edited in place."""
    def doctored(k, real=trace_quotient):
        tr = real(k)
        change(tr)
        return tr

    monkeypatch.setattr(hypocycloid, "trace_quotient", doctored)


def _edit(tr, pick, **fields):
    ev = pick(tr)
    tr.events[tr.events.index(ev)] = replace(ev, **fields)


def _rightmost(tr):
    return max(tr.events, key=lambda ev: ev.x)


def _transversal(tr):
    return next(ev for ev in tr.events if ev.x == tr.transversal_x)


def test_a_block_side_past_the_last_slab_is_refused(monkeypatch):
    """The rightmost event (the order-3 contact at x = 1) made a cusp
    opening right has no slab on its block side."""
    _doctor_trace(monkeypatch, lambda tr: _edit(tr, _rightmost, kind=Cusp(2, "right")))
    with pytest.raises(TracingError, match=r"^no slab on the block side of cusp x=1\.000000$"):
        quotient_diagram(3)


def test_a_block_arc_missing_from_its_fiber_is_refused(monkeypatch):
    _doctor_trace(monkeypatch, lambda tr: _edit(tr, _rightmost, arcs=(("phi", 99), LINE)))
    with pytest.raises(TracingError, match=r"^block strand missing beside crossing x=1\.000000$"):
        quotient_diagram(3)


def test_block_arcs_apart_in_their_fiber_are_refused(monkeypatch):
    """The transversal crossing's block, moved to the top and bottom
    strands of the fiber at L beside it, is not adjacent."""
    def change(tr):
        x = _transversal(tr).x
        right = min(ev.x for ev in tr.events if ev.x > x)
        fiber = _fibers(tr, [0.5 * (x + right)])[0]
        _edit(tr, _transversal, arcs=(fiber[0], fiber[-1]))

    _doctor_trace(monkeypatch, change)
    with pytest.raises(TracingError, match=r"^block strands not adjacent beside crossing x=0\.200000$"):
        quotient_diagram(3)


def test_snapping_collisions_name_both_sides(monkeypatch):
    """On a grid of 1/10, L (at 0.2011) and the transversal crossing at
    x = 0.2 snap to the same point."""
    monkeypatch.setattr(hypocycloid, "_SNAP", 10)
    pattern = (r"^x-coordinate snapping collided: "
               r"L x=0\.201\d+ and crossing x=0\.200000 both snap to 1/5$")
    with pytest.raises(TracingError, match=pattern):
        quotient_diagram(3)


def test_a_strand_count_off_at_l_is_refused(monkeypatch):
    """An extra strand at the bottom of every fiber leaves each block in
    place, and only the count at L sees it."""
    def padded(tr, xs, real=_fibers):
        return [fiber + [("phi", 99)] for fiber in real(tr, xs)]

    monkeypatch.setattr(hypocycloid, "_fibers", padded)
    pattern = r"^strand-count mismatch at L x=0\.201\d+: found 5, expected 4$"
    with pytest.raises(TracingError, match=pattern):
        quotient_diagram(3)


def test_a_diagram_failing_the_theorem_is_refused(monkeypatch):
    """A node turned into a cusp opening away from L passes every strand
    check, and the theorem check names it in its facing violation."""
    def first_node(tr):
        return next(ev for ev in tr.events if ev.kind == Crossing(1) and LINE not in ev.arcs)

    node_xs = []

    def change(tr):
        node_xs.append(first_node(tr).x)
        _edit(tr, first_node, kind=Cusp(2, "left"))

    _doctor_trace(monkeypatch, change)
    with pytest.raises(TracingError) as exc:
        quotient_diagram(3)
    message = str(exc.value)
    assert message.startswith("traced diagram failed the theorem check: ")
    assert "facing: cusp at x=%s has branches on the left" % _snap(node_xs[0]) in message


if __name__ == "__main__":
    # Print HYPO_DIAGRAM_MD5, ORBIFOLD_MD5, the per-k kind census of trace_quotient, and
    # the per-k x(t) + x'(t) evaluations and fiber solves of quotient_diagram
    # (the TRACING_EVALUATIONS pins) as computed by the wirtlab on the import
    # path; run from the repository root as
    # PYTHONPATH=<checkout>/src python -m tests.test_hypocycloid
    print('HYPO_DIAGRAM_MD5 = "%s"' % hypo_diagram_md5())
    print('ORBIFOLD_MD5 = "%s"' % orbifold_md5())
    for k in range(2, 12):
        census = kind_census(trace_quotient(k))
        mark = "" if census == expected_census(k) else "  # expected %s" % dict(expected_census(k))
        print("k=%d %s%s" % (k, dict(sorted(census.items())), mark))
    for k in range(2, 12):
        calls, fibers = tracing_counts(k)
        print("k=%d x+dx evaluations %d, fiber solves %d" % (k, calls, sum(fibers.values())))
