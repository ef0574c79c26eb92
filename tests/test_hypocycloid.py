import hashlib
import math
import re

import pytest

from wirtlab.diagram import check_theorem, sweep_ranks
from wirtlab import hypocycloid
from wirtlab.dsl import serialize_diagram
from wirtlab.hypocycloid import (
    LINE,
    HypoParams,
    TracingError,
    _contact_order,
    _heights,
    _node_deltas,
    _piece_w_at,
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


def test_critical_parameters_requires_fold_shape():
    with pytest.raises(ValueError):
        critical_parameters(HypoParams(3, 1))


def test_trace_census():
    for k in range(2, 12):
        tr = trace_quotient(k)
        census = tr.census()
        n = 2 * k - 1
        assert census["cusp"] == k - 1
        assert census["tacnode"] == k - 2
        assert census["crossing"] == (n - 1) * (k - 2) // 2
        assert census["transversal"] == 1
        assert census["inflection"] == 1


def test_quotient_diagram_is_verified():
    texts = []
    for k in range(2, 12):
        d = quotient_diagram(k)
        assert d.d == k + 1
        assert check_theorem(d).verified
        texts.append(serialize_diagram(d))
    # md5 of `hypo-diagram --k K` concatenated over K = 2..11
    digest = hashlib.md5("".join(texts).encode()).hexdigest()
    assert digest == "2d877d39b9c27862ac8cd166de1e49eb"


@pytest.mark.parametrize("k", range(2, 12))
def test_numeric_fibers_agree_with_the_sweep(k):
    d = quotient_diagram(k)
    sw = sweep_ranks(d)
    line_token = d.components.index("l") + 1
    # the sweep's intervals in x order, L's interval counted once
    intervals = sw.intervals["left"][::-1] + sw.intervals["right"][1:]
    tr = trace_quotient(k)
    xs = sorted(ev.x for ev in tr.events)
    assert len(intervals) == len(xs) + 1
    for (a, b), strands in zip(zip(xs, xs[1:]), intervals[1:-1]):
        arcs = _heights(tr, 0.5 * (a + b))
        assert len(arcs) == len(strands)
        assert arcs.index(LINE) == strands.index(line_token)
    with pytest.raises(TracingError):
        _heights(tr, 1.5)  # the t = i*s arc joins the fiber right of x = 1


@pytest.mark.parametrize("k", range(3, 9))
def test_closed_form_nodes_agree_with_x_inversion(k):
    params = HypoParams(k, k - 1)
    for m in range(k):
        assert len(_node_deltas(params, m)) == k - 2
    tr = trace_quotient(k)
    crossings = [ev for ev in tr.events if ev.kind == "crossing"]
    assert len(crossings) == (k - 1) * (k - 2)
    for ev in crossings:
        (_, i), (_, j) = ev.arcs
        assert i != j
        for piece in (tr.pieces[i], tr.pieces[j]):
            assert _piece_w_at(params, piece, ev.x) == pytest.approx(ev.w, abs=1e-9)


def test_orbifold_presentation_adds_involution_relators():
    pres = orbifold_presentation(2)
    squares = [r for r in pres.relators if len(r) == 2 and r.letters[0] == r.letters[1]]
    assert squares, "expected generator-squared relators for the line component"


@pytest.mark.parametrize("k", [5, 6, 7, 8])
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
    assert [ev.kind for ev in line] == ["tacnode"] * (k - 2) + ["transversal", "inflection"]
    assert measured == [("%s x=%.6f" % (ev.kind, ev.x), ev.contact_order) for ev in line]
    assert [ev.contact_order for ev in line] == [2] * (k - 2) + [1, 3]
