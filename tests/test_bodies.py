import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from horokit.core import ball_perimeter, ball_quermass, ball_volume
from horokit.bodies import (
    AnnularDomain2D,
    Body2D,
    RevolutionBody,
    SAMPLES,
    boundary_measures,
    convexity_report,
    curvature_2d,
    curvature_integrals,
    curvature_profile,
    curvature_revolution,
    make_ball,
    ParallelCurve,
    parallel_perimeter,
    parallel_perimeter_direct,
    quermassintegrals,
    revolution_pole_curvature,
)
from horokit.errors import DomainValidationError, NumericError, PreconditionError

from oracles import (
    bisected_polar_radii,
    chart_curvature_2d,
    looped_parallel_perimeters,
    meridian_curvature_fd,
    orbit_curvature_fd,
    planar_polar_curvature,
)


# ---------------------------------------------------------------------------
# curvature formulas against independent oracles

def test_circle_curvature_is_coth():
    for r0 in (0.4, 0.8, 1.5):
        prof = curvature_2d(make_ball(2, r0), 2048)
        assert np.allclose(prof.kappas[:, 0], 1.0 / math.tanh(r0), rtol=1e-12)


def test_curvature_2d_matches_chart_oracle():
    body = Body2D(a0=0.8, cos=[0.0, 0.1])
    theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    prof = curvature_2d(body, 64)
    oracle = chart_curvature_2d(body, theta)
    assert np.max(np.abs(prof.kappas[:, 0] - oracle)) < 1e-4
    # the independent estimator settles the h-convexity of this body:
    # its minimum curvature is below 1 (convex but not horoconvex)
    assert prof.kappas.min() == pytest.approx(0.95951, abs=2e-4)


def test_curvature_2d_euclidean_degeneration():
    # shrinking the body makes sinh r -> r; the hyperbolic curvature must
    # approach the classical planar polar formula scaled by the shrink
    theta = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    scale = 1e-3
    body = Body2D(a0=scale, cos=[0.0, 0.1 * scale])
    prof = curvature_2d(body, 32)
    r = body.radius(theta)
    rp = body.radius_d1(theta)
    rpp = body.radius_d2(theta)
    planar = planar_polar_curvature(r, rp, rpp)
    assert np.allclose(prof.kappas[:, 0], planar, rtol=1e-5)


def test_curvature_revolution_sphere_identity():
    # geodesic sphere: both principal curvatures equal coth r0 at every u
    for r0 in (0.6, 1.0):
        prof = curvature_revolution(make_ball(3, r0), 2048)
        assert np.allclose(prof.kappas, 1.0 / math.tanh(r0), rtol=1e-10)
    prof4 = curvature_revolution(make_ball(4, 1.0), 2048)
    assert np.allclose(prof4.kappas, 1.0 / math.tanh(1.0), rtol=1e-10)


def test_curvature_revolution_matches_fd_oracles():
    body = RevolutionBody(n=3, a0=1.0, cos_even=[0.05])
    u = np.linspace(0.15, np.pi - 0.15, 21)
    prof = curvature_revolution(body, 2048)
    km = np.interp(u, prof.params, prof.kappas[:, 0])
    ko = np.interp(u, prof.params, prof.kappas[:, 1])
    assert np.max(np.abs(km - meridian_curvature_fd(body, u))) < 1e-3
    assert np.max(np.abs(ko - orbit_curvature_fd(body, u))) < 1e-3
    assert min(km.min(), ko.min()) > 1.0


def test_revolution_sphere_surface_area():
    prof = curvature_revolution(make_ball(3, 1.0), 2048)
    assert prof.perimeter == pytest.approx(4 * math.pi * math.sinh(1) ** 2, rel=1e-12)


def test_pole_curvature_matches_interior_limit():
    body = RevolutionBody(n=3, a0=1.0, cos_even=[0.05])
    prof = curvature_revolution(body, 2048)
    k_pole = revolution_pole_curvature(body, at_zero=True)
    # umbilic at the pole: both curvature columns approach the same limit
    # (the first quadrature node sits within ~1e-6 of the pole)
    assert prof.kappas[0, 0] == pytest.approx(k_pole, rel=1e-5)
    assert prof.kappas[0, 1] == pytest.approx(k_pole, rel=1e-5)


# ---------------------------------------------------------------------------
# convexity report

def test_convexity_report_ball():
    rep = convexity_report(make_ball(2, 1.0))
    assert rep.min_curvature == pytest.approx(1.0 / math.tanh(1.0), rel=1e-12)
    assert rep.is_convex and rep.is_h_convex


def test_convexity_report_flags():
    rep = convexity_report(Body2D(a0=0.8, cos=[0.0, 0.1]))
    assert rep.is_convex and not rep.is_h_convex
    rep = convexity_report(Body2D(a0=1.0, cos=[0.0, 0.0, 0.5]))
    assert not rep.is_h_convex
    rep = convexity_report(Body2D(a0=1.0, cos=[0.0, 0.0, 0.0, 0.0, 0.3]))
    assert not rep.is_convex


def test_h_convex_implies_convex(convex_suite_2d, hconvex_suite_n3, hconvex_suite_n4):
    for body in [*convex_suite_2d, *hconvex_suite_n3, *hconvex_suite_n4]:
        rep = convexity_report(body)
        if rep.is_h_convex:
            assert rep.is_convex


def test_resolution_guard_rejects_undersampled_body():
    # a mode at each half count aliases there, so no count in SAMPLES settles
    modes = np.zeros(max(SAMPLES) // 2)
    modes[[m // 2 - 1 for m in SAMPLES]] = 1e-5
    body = Body2D(a0=1.0, cos=modes)
    # a meridian mode of frequency 6000 is not resolved at any count either
    rev = RevolutionBody(n=3, a0=1.0, cos_even=[0.0] * 2999 + [1e-5])
    for b in (body, rev):
        with pytest.raises(NumericError, match=f"{max(SAMPLES)} samples"):
            convexity_report(b)


# ---------------------------------------------------------------------------
# measures

def test_boundary_measures_ball_2d():
    meas = boundary_measures(make_ball(2, 1.0))
    assert meas["perimeter"] == pytest.approx(7.3840069, rel=1e-6)
    assert meas["volume"] == pytest.approx(3.4122763, rel=1e-6)


def test_gauss_bonnet_on_ball():
    prof = curvature_2d(make_ball(2, 1.0), 2048)
    total_curvature = float(np.sum(prof.kappas[:, 0] * prof.weights))
    assert total_curvature - 2 * math.pi == pytest.approx(
        2 * math.pi * (math.cosh(1) - 1), rel=1e-12)


def test_two_area_routes_agree():
    body = Body2D(a0=0.8, cos=[0.0, 0.1])
    prof = curvature_2d(body, 2048)
    area_gb = float(np.sum(prof.kappas[:, 0] * prof.weights)) - 2 * math.pi
    meas = boundary_measures(body)  # raises if the two routes disagree
    assert area_gb == pytest.approx(meas["volume"], rel=1e-8)


def test_boundary_measures_revolution_ball():
    meas = boundary_measures(make_ball(3, 1.0))
    assert meas["perimeter"] == pytest.approx(ball_perimeter(3, 1.0), rel=1e-12)
    assert meas["volume"] == pytest.approx(ball_volume(3, 1.0), rel=1e-12)


def test_revolution_volume_at_large_n_times_a0(monkeypatch):
    # the double binomial sum of the radial integral gave nan here
    body = RevolutionBody(n=200, a0=4.0)
    assert boundary_measures(body)["volume"] == pytest.approx(ball_volume(200, 4.0), rel=1e-9)
    monkeypatch.setattr("horokit.bodies.sinh_power_integral",
                        lambda m, r, dtype: np.full_like(r, np.nan, dtype=dtype))
    with pytest.raises(NumericError, match="volume"):
        boundary_measures(RevolutionBody(n=3, a0=1.0))


# ---------------------------------------------------------------------------
# curvature integrals and quermass vectors

def test_curvature_integrals_ball_values():
    ci = curvature_integrals(make_ball(2, 1.0))
    assert ci.v[1] == pytest.approx(2 * math.pi * math.sinh(1), rel=1e-12)
    assert ci.v[0] == pytest.approx(2 * math.pi * math.cosh(1), rel=1e-12)
    assert ci.v[0] == pytest.approx(9.6954616, rel=1e-6)
    ci3 = curvature_integrals(make_ball(3, 1.0))
    assert ci3.v[0] == pytest.approx(4 * math.pi * math.cosh(1) ** 2, rel=1e-10)


def test_top_curvature_integral_is_perimeter(convex_suite_2d, hconvex_suite_n3):
    for body in [*convex_suite_2d[:3], *hconvex_suite_n3[:2]]:
        ci = curvature_integrals(body)
        assert ci.v[body.n - 1] == pytest.approx(
            boundary_measures(body)["perimeter"], rel=1e-10)


def test_quermassintegrals_ball_agreement():
    for n, r in ((2, 1.0), (3, 0.7), (4, 1.2)):
        w_body = quermassintegrals(make_ball(n, r))
        w_ball = ball_quermass(n, r)
        assert np.allclose(w_body.w, w_ball.w, rtol=1e-10)


def test_quermass_terminal_convention_on_bodies():
    body = Body2D(a0=0.8, cos=[0.0, 0.1])
    assert quermassintegrals(body)[2] == pytest.approx(math.pi, rel=1e-6)
    rev = RevolutionBody(n=3, a0=1.0, cos_even=[0.05])
    assert quermassintegrals(rev)[3] == pytest.approx(4 * math.pi / 3, rel=1e-6)


# ---------------------------------------------------------------------------
# parallel bodies

def test_parallel_perimeter_ball_flows_to_ball():
    for n, r in ((2, 1.0), (3, 0.7)):
        body = make_ball(n, r)
        for delta in (0.1, 0.5, 1.0, 2.0):
            expect = ball_perimeter(n, r + delta)
            assert parallel_perimeter_direct(body, delta) == pytest.approx(expect, rel=1e-10)
    assert parallel_perimeter_direct(make_ball(2, 1.0), 0.5) == pytest.approx(
        2 * math.pi * math.sinh(1.5), rel=1e-10)


def test_parallel_perimeter_identity_at_zero(convex_suite_2d):
    body = convex_suite_2d[1]
    assert parallel_perimeter_direct(body, 0.0) == pytest.approx(
        boundary_measures(body)["perimeter"], rel=1e-12)


def test_parallel_perimeters_match_the_per_delta_loop(convex_suite_2d, hconvex_suite_n3,
                                                     hconvex_suite_n4):
    # an array of distances is evaluated in one broadcast, each row the same
    # sum as one distance alone
    deltas = np.append(0.0, np.geomspace(1e-4, 2.5, 384))
    for body in (convex_suite_2d[1], hconvex_suite_n3[0], hconvex_suite_n4[0],
                 make_ball(2, 0.8), make_ball(3, 1.1)):
        prof = curvature_profile(body)
        expect = looped_parallel_perimeters(prof, deltas)
        assert np.array_equal(parallel_perimeter_direct(body, deltas), expect)
        one = parallel_perimeter_direct(body, deltas[7])
        assert type(one) is float and one == expect[7]


def test_parallel_perimeter_refuses_non_finite_distances():
    # a nan distance used to come back as a nan perimeter
    for bad in (math.nan, math.inf, [0.5, math.nan], [-0.1, 0.5]):
        with pytest.raises(DomainValidationError, match="finite and >= 0"):
            parallel_perimeter_direct(make_ball(2, 1.0), bad)


def test_parallel_perimeter_requires_convexity():
    with pytest.raises(PreconditionError):
        parallel_perimeter_direct(Body2D(a0=1.0, cos=[0.0, 0.0, 0.0, 0.0, 0.3]), 0.2)


def test_direct_vs_polynomial_forms(convex_suite_2d, hconvex_suite_n3):
    # the two forms agree within 2.8e-16 on these bodies
    deltas = [0.0, 0.3, 1.0, 2.0]
    for body in [*convex_suite_2d[:4], *hconvex_suite_n3[:2]]:
        direct = parallel_perimeter_direct(body, deltas)
        assert np.allclose(direct, parallel_perimeter(body, deltas), rtol=3e-14, atol=0.0)


def test_steiner_polynomial_ball_closed_form():
    body = make_ball(2, 1.0)
    assert parallel_perimeter(body, 0.5) == pytest.approx(2 * math.pi * math.sinh(1.5), rel=1e-10)
    assert parallel_perimeter(body, 0.0) == curvature_integrals(body).v[1]
    deltas = np.linspace(0.1, 1.0, 10)
    assert np.allclose(parallel_perimeter(make_ball(3, 0.7), deltas),
                       4 * math.pi * np.sinh(0.7 + deltas) ** 2, rtol=1e-10, atol=0.0)


def test_parallel_perimeter_shapes_and_refusals():
    body = Body2D(a0=0.8, cos=[0.0, 0.1])
    deltas = np.geomspace(1e-3, 2.0, 12).reshape(3, 4)
    table = parallel_perimeter(body, deltas)
    assert table.shape == (3, 4)
    one = parallel_perimeter(body, deltas[1, 2])
    assert type(one) is float and one == table[1, 2]
    for bad in (math.nan, math.inf, [0.5, math.nan], [-0.1, 0.5]):
        with pytest.raises(DomainValidationError, match="finite and >= 0"):
            parallel_perimeter(body, bad)
    with pytest.raises(PreconditionError):
        parallel_perimeter(Body2D(a0=1.0, cos=[0.0, 0.0, 0.0, 0.0, 0.3]), 0.2)
    with pytest.raises(NumericError, match="parallel perimeters overflow"):
        parallel_perimeter(body, [0.5, 800.0])


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.3, max_value=1.5),
       st.floats(min_value=0.0, max_value=0.08),
       st.integers(min_value=2, max_value=4))
def test_random_convex_bodies_have_consistent_measures(a0, eps, k):
    body = Body2D(a0=a0, cos=[0.0] * (k - 1) + [eps * a0 / k])
    meas = boundary_measures(body)  # Gauss-Bonnet consistency enforced inside
    assert meas["perimeter"] > 0.0 and meas["volume"] > 0.0
    # isoperimetric comparison with the ball of the same area
    import horokit.nagy as nagy
    assert nagy.isoperimetric_check_2d(body) >= -1e-9 * meas["perimeter"] ** 2


# ---------------------------------------------------------------------------
# construction errors

def test_body_validation_errors():
    with pytest.raises(DomainValidationError):
        Body2D(a0=-1.0)
    with pytest.raises(DomainValidationError):
        Body2D(a0=0.1, cos=[0.5])  # radius dips below zero
    with pytest.raises(DomainValidationError):
        RevolutionBody(n=2, a0=1.0)
    with pytest.raises(DomainValidationError):
        make_ball(1, 1.0)
    with pytest.raises(DomainValidationError):
        parallel_perimeter_direct(make_ball(2, 1.0), -0.1)
    # non-finite parameters used to surface as "non-finite geodesic curvature"
    for bad in ({"a0": math.nan}, {"a0": math.inf}, {"a0": 1.0, "cos": [math.nan]},
                {"a0": 1.0, "sin": [0.0, math.inf]}):
        with pytest.raises(DomainValidationError, match="finite"):
            Body2D(**bad)
    with pytest.raises(DomainValidationError, match="finite"):
        Body2D(a0=1e308, cos=[1e308])  # finite terms, infinite sum
    with pytest.raises(DomainValidationError, match="finite"):
        RevolutionBody(n=3, a0=1.0, cos_even=[math.nan])
    with pytest.raises(DomainValidationError, match="finite"):
        make_ball(3, math.inf)


def test_derived_data_is_built_once_per_body(monkeypatch):
    # every query shares the profile cached on the body: one build at half
    # the first count in SAMPLES for the resolution check, and one at it
    import horokit.bodies as bodies
    sizes = []
    for name in ("curvature_2d", "curvature_revolution"):
        def spy(body, m, _build=getattr(bodies, name)):
            sizes.append(m)
            return _build(body, m)
        monkeypatch.setattr(bodies, name, spy)
    for body in (Body2D(a0=0.8, cos=[0.0, 0.1]), RevolutionBody(n=3, a0=1.0, cos_even=[0.05])):
        sizes.clear()
        for _ in range(2):
            convexity_report(body)
            boundary_measures(body)
            curvature_integrals(body)
            quermassintegrals(body)
            parallel_perimeter_direct(body, 0.5)
        assert sizes == [1024, 2048], type(body).__name__


# ---------------------------------------------------------------------------
# planar domains

@pytest.mark.parametrize("r, delta", [(0.5, 0.3), (1.0, 0.8), (2.0, 1.5)])
def test_parallel_curve_of_ball_is_concentric_circle(r, delta):
    theta = np.linspace(0.0, 2.0 * np.pi, 257)
    z = ParallelCurve(make_ball(2, r), delta).chart_curve(theta)
    assert np.max(np.abs(np.abs(z) - math.tanh((r + delta) / 2.0))) <= 1e-15


def test_outer_polar_samples_are_taken_once(monkeypatch):
    # the domain's checks read the outer boundary's own samples, taken once,
    # and solve for no polar radius; solved at a sample's polar angle, the
    # outer radius is that sample's
    import horokit.bodies as bodies
    newton, solved = bodies._bracketed_newton, []

    def spy(g, t, *args):
        solved.append(len(t))
        return newton(g, t, *args)

    monkeypatch.setattr(bodies, "_bracketed_newton", spy)
    dom = AnnularDomain2D(inner=make_ball(2, 0.5), outer=Body2D(a0=1.5, cos=[0.0, 0.2]), offset=0.1)
    theta, z, angle = dom.outer_samples
    assert dom.outer_samples[1] is z and solved == []
    assert np.array_equal(theta, np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False))
    assert np.array_equal(z, dom.outer_chart(theta))
    rho_in, rho_out = dom.polar_radii(angle)
    assert solved == [4096]
    assert np.max(np.abs(rho_out - np.abs(z))) <= 1e-15
    assert np.array_equal(rho_in, np.full(4096, math.tanh(0.25)))


@pytest.mark.parametrize("dom", [
    AnnularDomain2D(inner=Body2D(a0=1.0, cos=[0.0, 0.2]), outer=Body2D(a0=1.8, cos=[0.0] * 79 + [0.35])),
    AnnularDomain2D(inner=make_ball(2, 0.3), outer=make_ball(2, 3.0), offset=2.5),
    AnnularDomain2D(inner=Body2D(a0=0.8, cos=[0.0, 0.1]), outer=ParallelCurve(Body2D(a0=0.8, cos=[0.0, 0.1]), 0.8)),
], ids=["petals", "far_offset", "parallel_curve"])
def test_polar_radii_are_the_exact_boundary(dom):
    # a periodic spline of 8192 samples was 6.57e-9 off on the 80 petals and
    # 3.5e-11 on the far-offset ball
    a = np.linspace(-1.0, 7.0, 4001)
    assert np.max(np.abs(dom.polar_radii(a)[1] - bisected_polar_radii(dom, a))) <= 1e-12


def test_annular_domain_refuses_revolution_bodies():
    ball, rev = make_ball(2, 0.5), RevolutionBody(n=3, a0=1.5)
    for inner, outer in ((rev, ball), (ball, rev)):
        with pytest.raises(DomainValidationError, match="Body2D"):
            AnnularDomain2D(inner=inner, outer=outer)
