import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boundary_hausdorff, optimize, random_source
from cqrate import idelta, region, source
from cqrate.errors import InternalError
from cqrate.region import HalfPlane, RatePoint

H14 = 0.8112781244591328
SPECS = Path(__file__).resolve().parent.parent / "specs"


def _spec_sources() -> list[source.CqSource]:
    out = []
    for name in ("src_a", "src_b", "src_c", "mixed_example"):
        with open(SPECS / f"{name}.json") as fh:
            out.append(source.load_source(json.load(fh)))
    return out


def test_dw_points(src_a, src_b, src_c):
    pa = region.dw_point(source.entropic_profile(src_a))
    assert (pa.rx, pa.rb) == (pytest.approx(0.0, abs=1e-10), pytest.approx(1.0, abs=1e-10))
    pb = region.dw_point(source.entropic_profile(src_b))
    assert pb.rx == pytest.approx(1.5 - H14, abs=1e-9)
    assert pb.rb == pytest.approx(H14, abs=1e-9)
    pc = region.dw_point(source.entropic_profile(src_c))
    assert (pc.rx, pc.rb) == (pytest.approx(0.0, abs=1e-9), pytest.approx(2.0, abs=1e-9))


def test_merging_points(src_a, src_b, src_c):
    ma = region.merging_point(source.entropic_profile(src_a))
    assert (ma.rx, ma.rb, ma.ebit_rate) == (
        pytest.approx(1.0), pytest.approx(0.5), pytest.approx(-0.5))
    mb = region.merging_point(source.entropic_profile(src_b))
    assert mb.rx == pytest.approx(1.0, abs=1e-10)
    assert mb.rb == pytest.approx(0.5 * (H14 + 0.5), abs=1e-9)
    assert mb.ebit_rate == pytest.approx(-0.5 * (H14 - 0.5), abs=1e-9)
    mc = region.merging_point(source.entropic_profile(src_c))
    assert (mc.rx, mc.rb, mc.ebit_rate) == (
        pytest.approx(1.0), pytest.approx(1.5), pytest.approx(-0.5))


def test_qsr_point_src_c(src_c, light_opts):
    prof = source.entropic_profile(src_c)
    res = optimize(src_c, 0.0, light_opts)
    q = region.qsr_point(prof, src_c, res)
    assert q.rx == pytest.approx(1.0, abs=1e-9)
    assert q.rb == pytest.approx(1.0, abs=0.03)
    assert q.ebit_rate == pytest.approx(0.0, abs=0.03)


def test_qsr_point_trivial_channel_is_merging(src_b):
    prof = source.entropic_profile(src_b)
    param = idelta.make_channel_param(np.eye(2, dtype=complex), 2, 2, 1)
    res = idelta.IdeltaResult(0.0, 0.0, 0.0, param, 1)
    q = region.qsr_point(prof, src_b, res)
    m = region.merging_point(prof)
    assert (q.rx, q.rb) == (pytest.approx(m.rx), pytest.approx(m.rb))


def test_qsr_point_rejects_infeasible(src_b):
    prof = source.entropic_profile(src_b)
    res = idelta.IdeltaResult(0.0, 0.3, 0.8, None, 1)
    with pytest.raises(InternalError, match="feasible"):
        region.qsr_point(prof, src_b, res)


def test_generic_region_src_b(src_b):
    """The converse at I~0 = 0 is the paper's three-inequality region, the
    exact region of a generic source."""
    prof = source.entropic_profile(src_b)
    reg = region.outer_bound_region(prof, 0.0)
    hb = {(hp.ax, hp.ab): hp.b for hp in reg.half_planes}
    assert hb[(1.0, 0.0)] == pytest.approx(1.5 - H14, abs=1e-9)
    assert hb[(0.0, 1.0)] == pytest.approx(0.5 * (H14 + 0.5), abs=1e-9)
    assert hb[(1.0, 2.0)] == pytest.approx(H14 + 1.5, abs=1e-9)
    vs = sorted((v.rx, v.rb) for v in reg.vertices)
    assert vs[0] == (pytest.approx(1.5 - H14, abs=1e-9), pytest.approx(H14, abs=1e-9))
    assert vs[1] == (pytest.approx(1.0, abs=1e-9), pytest.approx(0.5 * (H14 + 0.5), abs=1e-9))


def test_dw_saturates_sum_inequality(src_a, src_b, src_c):
    for src in (src_a, src_b, src_c):
        prof = source.entropic_profile(src)
        dw = region.dw_point(prof)
        assert dw.rx + 2 * dw.rb == pytest.approx(prof.s_b + prof.s_xb, abs=1e-12)


def test_inner_and_outer_regions_coincide_at_zero():
    """At I0 = I~0 = 0 the DW-QSR hull is the converse: alpha = 2 and
    S(X|B) + 2 S(B) = S(B) + S(XB), on every source."""
    for src in _spec_sources():
        prof = source.entropic_profile(src)
        inner, outer = region.inner_bound_region(prof, 0.0), region.outer_bound_region(prof, 0.0)
        assert inner.vertices == outer.vertices
        for hi, ho in zip(inner.half_planes, outer.half_planes):
            assert (hi.ax, hi.ab, hi.b) == pytest.approx((ho.ax, ho.ab, ho.b), abs=1e-12)


def test_outer_region_src_c(src_c):
    prof = source.entropic_profile(src_c)
    outer = region.outer_bound_region(prof, 1.0, "assisted")
    hb = {(hp.ax, hp.ab): hp.b for hp in outer.half_planes}
    assert hb == {(1.0, 0.0): pytest.approx(0.0, abs=1e-9),
                  (0.0, 1.0): pytest.approx(1.0, abs=1e-9),
                  (1.0, 2.0): pytest.approx(3.0, abs=1e-9)}
    vs = sorted((round(v.rx, 9), round(v.rb, 9)) for v in outer.vertices)
    assert vs == [(0.0, 1.5), (1.0, 1.0)]


def test_outer_region_unassisted_adds_sum_bound(src_c):
    prof = source.entropic_profile(src_c)
    outer = region.outer_bound_region(prof, 1.0, "unassisted")
    assert any((hp.ax, hp.ab) == (1.0, 1.0) and hp.b == pytest.approx(2.0, abs=1e-9)
               for hp in outer.half_planes)
    vs = sorted((round(v.rx, 9), round(v.rb, 9)) for v in outer.vertices)
    assert vs == [(0.0, 2.0), (1.0, 1.0)]


def test_outer_region_rejects_negative_i0(src_b):
    with pytest.raises(ValueError):
        region.outer_bound_region(source.entropic_profile(src_b), -0.1)


def test_inner_region_alpha_line_incidence(src_a, src_b, src_c):
    for src, i0 in [(src_a, 0.0), (src_b, 0.0), (src_c, 1.0), (src_b, 0.15)]:
        prof = source.entropic_profile(src)
        reg = region.inner_bound_region(prof, i0)
        line = [hp for hp in reg.half_planes if hp.ax == 1.0 and hp.ab not in (0.0,)][0]
        dw = region.dw_point(prof)
        qsr_rb = 0.5 * (prof.s_b + prof.s_b_given_x - i0)
        for rx, rb in [(dw.rx, dw.rb), (prof.s_x, qsr_rb)]:
            assert line.ax * rx + line.ab * rb == pytest.approx(line.b, abs=1e-9)


def test_inner_region_src_c(src_c):
    prof = source.entropic_profile(src_c)
    reg = region.inner_bound_region(prof, 1.0)
    vs = sorted((round(v.rx, 9), round(v.rb, 9)) for v in reg.vertices)
    assert vs == [(0.0, 2.0), (1.0, 1.0)]
    # alpha = 2*1/(1+1) = 1: slope-1 connecting line
    assert any(hp.ax == 1.0 and hp.ab == pytest.approx(1.0) for hp in reg.half_planes)


def test_inner_region_alpha_two_when_i0_zero(src_b):
    prof = source.entropic_profile(src_b)
    reg = region.inner_bound_region(prof, 0.0)
    line = [hp for hp in reg.half_planes if hp.ab == pytest.approx(2.0)][0]
    gen_sum = [hp for hp in region.outer_bound_region(prof, 0.0).half_planes
               if hp.ab == 2.0][0]
    assert line.b == pytest.approx(gen_sum.b, abs=1e-9)


def test_inner_region_degenerate_alpha():
    # a source with I(X:B) = 0: two identical states
    src = source.make_source([0.5, 0.5], [[1, 0], [1, 0]], 2, 1)
    prof = source.entropic_profile(src)
    assert prof.i_x_b == pytest.approx(0.0, abs=1e-10)
    reg = region.inner_bound_region(prof, 0.0)
    assert any(hp.ab == pytest.approx(1.0) and hp.ax == 1.0 for hp in reg.half_planes)


def test_inner_region_i0_out_of_range(src_b):
    with pytest.raises(ValueError):
        region.inner_bound_region(source.entropic_profile(src_b), 0.9)


def test_region_contains(src_b):
    prof = source.entropic_profile(src_b)
    reg = region.outer_bound_region(prof, 0.0)
    assert region.region_contains(reg, region.dw_point(prof))
    assert region.region_contains(reg, region.merging_point(prof))
    assert not region.region_contains(reg, RatePoint(0.0, 0.0))
    with pytest.raises(ValueError):
        region.region_contains(region.RateRegion2D((), (), "inner"), RatePoint(0, 0))


def test_region_vertices_direct():
    hps = [HalfPlane(1.0, 0.0, 1.0), HalfPlane(0.0, 1.0, 1.0), HalfPlane(1.0, 1.0, 3.0)]
    vs = region.region_vertices(hps)
    assert sorted((v.rx, v.rb) for v in vs) == [(1.0, 2.0), (2.0, 1.0)]


# normals with each coefficient 0 or any float in [1e-3, 4], offsets up to
# 1e8; any two boundary lines are parallel or meet at an angle whose sine is
# at least 1e-5, so a vertex's rounding error stays far below VERTEX_TOL
# relative to its size.  Vertices reach |R| ~ 1e16, where an absolute
# tolerance is below the float spacing
_COEF = st.one_of(st.just(0.0), st.floats(1e-3, 4.0))


def _well_conditioned(hps) -> bool:
    for i, h1 in enumerate(hps):
        for h2 in hps[i + 1:]:
            det = abs(h1.ax * h2.ab - h2.ax * h1.ab)
            if det != 0.0 and det < 1e-5 * math.hypot(h1.ax, h1.ab) * math.hypot(h2.ax, h2.ab):
                return False
    return True


_HALF_PLANES = st.lists(
    st.tuples(_COEF, _COEF, st.floats(-1e8, 1e8, allow_nan=False, allow_infinity=False))
    .filter(lambda t: t[0] > 0.0 or t[1] > 0.0).map(lambda t: HalfPlane(*t)),
    min_size=1, max_size=6).filter(_well_conditioned)


def _slack(hp: HalfPlane, v: RatePoint) -> float:
    """VERTEX_TOL relative to the size of the terms of hp at v."""
    return region.VERTEX_TOL * max(1.0, abs(hp.b), (hp.ax + hp.ab) * max(abs(v.rx), abs(v.rb)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hps=_HALF_PLANES)
def test_region_vertices_agree_with_the_half_planes(hps):
    """Every vertex satisfies every half-plane and lies on at least two of
    them; every pairwise intersection that satisfies all half-planes exactly
    is a vertex.  Each holds within VERTEX_TOL relative to the coordinates
    (twice that for the match, since a vertex within VERTEX_TOL of one kept
    before it is merged into that one)."""
    vertices = region.region_vertices(hps)
    for v in vertices:
        assert all(hp.contains(v, _slack(hp, v)) for hp in hps)
        assert sum(abs(hp.ax * v.rx + hp.ab * v.rb - hp.b) <= _slack(hp, v) for hp in hps) >= 2
    exact = [tuple(map(Fraction, (hp.ax, hp.ab, hp.b))) for hp in hps]
    for i, (a1, b1, c1) in enumerate(exact):
        for a2, b2, c2 in exact[i + 1:]:
            if abs(float(a1) * float(b2) - float(a2) * float(b1)) < 1e-12:
                continue  # parallel boundary lines meet nowhere or everywhere
            det = a1 * b2 - a2 * b1
            rx, rb = (c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det
            if all(a * rx + b * rb >= c for a, b, c in exact):
                rx, rb = float(rx), float(rb)
                tol = 2 * region.VERTEX_TOL * max(1.0, abs(rx), abs(rb))
                assert any(abs(v.rx - rx) <= tol and abs(v.rb - rb) <= tol for v in vertices)


def test_region_vertices_keeps_a_far_vertex():
    # at R_X = 1e8 the intersection is 1.5e-8 off its own line 1e-8 R_X >= 1
    vs = region.region_vertices([HalfPlane(1.0, 2.5, 1.75), HalfPlane(1e-8, 0.0, 1.0)])
    assert [(v.rx, v.rb) for v in vs] == [(1e8, pytest.approx(-39999999.3, rel=1e-15))]


def test_region_vertices_give_a_far_vertex_of_three_half_planes_once():
    # the three lines meet at (1e8, -39999999.3); the intersections of two
    # pairs differ there by 7e-9, above an absolute 1e-9 but within the
    # float spacing of the coordinates
    vs = region.region_vertices([HalfPlane(1.0, 2.5, 1.75), HalfPlane(1e-8, 0.0, 1.0),
                                 HalfPlane(1.0, 1.0, 60000000.7)])
    assert [(v.rx, v.rb) for v in vs] == [(1e8, pytest.approx(-39999999.3, rel=1e-15))]


def test_region_vertices_meet_lines_with_small_normals():
    # the same corner as R_X >= 1e7, R_B >= 1e7; lines are parallel only
    # relative to the size of their normals
    vs = region.region_vertices([HalfPlane(1e-7, 0.0, 1.0), HalfPlane(0.0, 1e-7, 1.0)])
    assert [(v.rx, v.rb) for v in vs] == [(pytest.approx(1e7), pytest.approx(1e7))]
    # parallel small normals whose determinant rounds to -2.5e-29, not 0
    assert region.region_vertices([HalfPlane(1e-7, 3e-7, 1.0),
                                   HalfPlane(7 * 1e-7, 7 * 3e-7, 2.0)]) == ()


def test_halfplane_validation():
    with pytest.raises(ValueError):
        HalfPlane(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        HalfPlane(-1.0, 1.0, 0.0)


def test_sandwich_inner_inside_outer(src_b, src_c, light_opts):
    for src in (src_b, src_c):
        prof = source.entropic_profile(src)
        est = idelta.idelta_curve(src, opts=light_opts)
        _, _, inner, outer = region.estimated_regions(prof, est.i0, est.i0_tilde)
        for rx in np.linspace(0, 3, 30):
            for rb in np.linspace(0, 3, 30):
                p = RatePoint(float(rx), float(rb))
                if region.region_contains(inner, p):
                    assert region.region_contains(outer, p, slack=1e-6)


def test_generic_collapse_hausdorff(src_b, light_opts):
    prof = source.entropic_profile(src_b)
    est = idelta.idelta_curve(src_b, opts=light_opts)
    _, _, inner, outer = region.estimated_regions(prof, est.i0, est.i0_tilde)
    assert boundary_hausdorff(inner, outer) <= 0.1


@pytest.mark.parametrize("i0, i0_tilde, expected", [
    (-0.0, -0.0, (0.0, 0.0)),
    (-1.0, 0.25, (0.0, 0.25)),
    (0.25, 0.125, (0.25, 0.25)),
    (5.0, -1.0, ("ixb", "ixb")),
], ids=["negative-zero", "negative-i0", "crossed", "over-ixb"])
def test_estimated_regions_clamps(src_b, i0, i0_tilde, expected):
    prof = source.entropic_profile(src_b)
    expected = tuple(prof.i_x_b if e == "ixb" else e for e in expected)
    got_i0, got_i0t, inner, outer = region.estimated_regions(prof, i0, i0_tilde, "unassisted")
    assert (got_i0, got_i0t) == expected
    assert math.copysign(1.0, got_i0) == math.copysign(1.0, got_i0t) == 1.0
    assert inner == region.inner_bound_region(prof, got_i0)
    assert outer == region.outer_bound_region(prof, got_i0t, "unassisted")


def test_boundary_samples_feasible(src_b):
    prof = source.entropic_profile(src_b)
    reg = region.outer_bound_region(prof, 0.0)
    pts = region.boundary_samples(reg, 200, rx_hi=max(v.rx for v in reg.vertices) + 1.0)
    assert len(pts) == 200
    for row in pts:
        p = RatePoint(*row)
        assert region.region_contains(reg, p, slack=1e-9)
        assert region.region_contains(reg, RatePoint(p.rx, p.rb - 1e-6), slack=0) is False


def _lower_boundary_loop(reg: region.RateRegion2D, rx: float) -> float:
    """The scalar rule lower_boundary evaluates over arrays: smallest feasible
    R_B at rx, by Python's max over the half-planes (inf if rx infeasible)."""
    rb = 0.0
    for hp in reg.half_planes:
        if hp.ab > 0:
            rb = max(rb, (hp.b - hp.ax * rx) / hp.ab)
        elif hp.ax * rx < hp.b - region.VERTEX_TOL:
            return float("inf")
    return rb


COEFFS = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(1e-3, 10.0)
HALF_PLANES = st.tuples(COEFFS, COEFFS, st.sampled_from([0.0, -0.0, 1.0]) | st.floats(-10.0, 10.0)
                        ).filter(lambda t: t[0] > 0 or t[1] > 0).map(lambda t: HalfPlane(*t))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hps=st.lists(HALF_PLANES, min_size=1, max_size=5),
       vertical=st.sampled_from([None, 0.0, -0.0, 1.5]), lo=st.floats(-2.0, 2.0),
       span=st.floats(0.0, 5.0), n=st.integers(1, 50))
def test_boundary_samples_equal_the_scalar_rule_bitwise(hps, vertical, lo, span, n):
    """Samples and rates from lo, left of the floor too: vertical half-planes
    (aB = 0) give inf left of their edge, and b = -0.0 keeps the first
    zero's sign."""
    if vertical is not None:
        hps = [*hps, HalfPlane(1.0, 0.0, vertical)]
    reg = region.RateRegion2D(tuple(hps), (), "outer")
    got = region.boundary_samples(reg, n, rx_hi=lo + span)
    xs = np.linspace(region.rx_floor(reg), lo + span, n)
    want = np.array([[x, _lower_boundary_loop(reg, float(x))] for x in xs])
    assert got.shape == (n, 2)
    assert got.tobytes() == want.tobytes()
    rxs = np.linspace(lo, lo + span, n)  # left of the floor too
    assert region.lower_boundary(reg, rxs).tobytes() == np.array(
        [_lower_boundary_loop(reg, float(x)) for x in rxs]).tobytes()


def test_markov_endpoints_src_c(src_c, light_opts, monkeypatch):
    monkeypatch.setattr(region, "MARKOV_RANDOM_MAPS", 1)
    pts = region.markov_interpolation(src_c, 2, light_opts)
    prof = source.entropic_profile(src_c)
    dw = region.dw_point(prof)
    assert any(abs(p.rx - dw.rx) < 0.03 and abs(p.rb - dw.rb) < 0.03 for p in pts)
    assert any(abs(p.rx - 1.0) < 0.03 and abs(p.rb - 1.0) < 0.03 for p in pts)


def test_markov_interior_point_on_or_below_line(src_c, light_opts, monkeypatch):
    monkeypatch.setattr(region, "MARKOV_RANDOM_MAPS", 3)
    pts = region.markov_interpolation(src_c, 2, light_opts)
    # DW-QSR line for SRC-C is rb = 2 - rx
    for p in pts:
        if 0.05 < p.rx < 0.95:
            assert p.rb <= (2.0 - p.rx) + 0.05


def test_markov_dw_endpoint_is_exact(light_opts):
    # on the random source, a climb of the constant map lands 3.4e-16 off DW
    for src in _spec_sources() + [random_source(np.random.default_rng(0), 3, 2, 2)]:
        pts = region.markov_interpolation(src, 1, light_opts)
        assert pts[0] == region.dw_point(source.entropic_profile(src))


def test_markov_below_alphabet_size_climbs_nothing(monkeypatch, src_b, light_opts):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return idelta._optimize_ensemble(*args, **kwargs)

    monkeypatch.setattr(region, "_optimize_ensemble", counting)
    region.markov_interpolation(src_b, 1, light_opts)
    assert calls == []


def test_markov_y_dim_validation(src_b, light_opts):
    with pytest.raises(ValueError):
        region.markov_interpolation(src_b, 4, light_opts)
    with pytest.raises(ValueError):
        region.markov_interpolation(src_b, 0, light_opts)
