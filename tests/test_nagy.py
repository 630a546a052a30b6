import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from horokit.bodies import (
    Body2D,
    RevolutionBody,
    boundary_measures,
    convexity_report,
    curvature_profile,
    make_ball,
    quermassintegrals,
)
from horokit.core import ball_perimeter, ball_quermass, ball_volume
from horokit.nagy import (
    af_check,
    equivalent_ball,
    isoperimetric_check_2d,
    nagy_table,
    perimeter_matched_ball,
)
import horokit.nagy
from horokit.errors import DomainValidationError, PreconditionError


def test_equivalent_ball_self_match():
    for n, r in ((2, 1.0), (3, 0.8)):
        assert equivalent_ball(make_ball(n, r)) == pytest.approx(r, rel=1e-10)


def test_equivalent_ball_planar_formula(convex_suite_2d):
    # in the plane the top quermassintegral is half the perimeter, so the
    # matched radius is asinh(P / 2 pi)
    for body in convex_suite_2d[:4]:
        p = boundary_measures(body)["perimeter"]
        assert equivalent_ball(body) == pytest.approx(math.asinh(p / (2 * math.pi)), rel=1e-9)


def test_equivalent_ball_requires_hypotheses():
    nonconvex = Body2D(a0=1.0, cos=[0.0, 0.0, 0.0, 0.0, 0.3])
    with pytest.raises(PreconditionError):
        equivalent_ball(nonconvex)
    convex_not_h = RevolutionBody(n=3, a0=1.0, cos_even=[0.15])
    rep = convexity_report(convex_not_h)
    assert rep.is_convex and not rep.is_h_convex
    with pytest.raises(PreconditionError):
        equivalent_ball(convex_not_h)
    # force downgrades the refusal
    assert equivalent_ball(convex_not_h, force=True) > 0


def test_nagy_table_ball_equality():
    report = nagy_table(make_ball(2, 1.0))
    assert report.verdict
    assert report.equality_detected
    assert np.max(np.abs(report.margins)) <= 1e-10 * np.max(report.p_ball)
    report3 = nagy_table(make_ball(3, 0.9))
    assert report3.equality_detected


def test_nagy_table_planar_convex_bodies(convex_suite_2d):
    grid = np.linspace(0.1, 1.0, 10)
    for body in convex_suite_2d[:4]:
        report = nagy_table(body, delta_grid=grid)
        assert report.verdict
        assert np.all(report.margins > 0.0)
        assert not report.equality_detected


@pytest.mark.parametrize("eps", [1e-3, 1e-2])
def test_nagy_margins_are_the_area_deficit_times_sinh(eps):
    # in H^2 the W_1-matched ball has the body's perimeter and, by
    # Gauss-Bonnet, V_0 = area + 2 pi, so every margin is the area deficit
    # times sinh delta; taken as the difference of the two perimeters, a
    # 1e-3 ripple's margin loses up to 3.0e-7 of itself, from the
    # coefficient differences 5.0e-10
    body = Body2D(a0=0.8, cos=[0.0, eps])
    report = nagy_table(body)
    deficit = ball_volume(2, report.r_star) - boundary_measures(body)["volume"]
    assert np.allclose(report.margins, deficit * np.sinh(report.deltas), rtol=1e-9, atol=0.0)


def test_nagy_table_hconvex_revolution(hconvex_suite_n3):
    for body in hconvex_suite_n3[:3]:
        report = nagy_table(body)
        assert report.verdict
        assert np.all(report.margins > 0.0)
        # perimeter comparison at delta = 0 is strict in n >= 3
        p_body = boundary_measures(body)["perimeter"]
        p_ball = ball_perimeter(3, report.r_star)
        assert p_body < p_ball


def test_nagy_refuses_non_h_convex_in_3d():
    body = RevolutionBody(n=3, a0=1.0, cos_even=[0.15])
    with pytest.raises(PreconditionError):
        nagy_table(body)
    report = nagy_table(body, force=True)
    assert not report.hypotheses_ok


def test_nagy_perimeter_match_exploratory(hconvex_suite_n3):
    body = hconvex_suite_n3[0]
    report = nagy_table(body, match="perimeter")
    assert report.match == "perimeter"
    assert report.r_star == pytest.approx(perimeter_matched_ball(body), rel=1e-12)
    # exploratory: no sign asserted, table still populated
    assert len(report.margins) == len(report.deltas)


def test_nagy_rejects_bad_grid():
    with pytest.raises(DomainValidationError):
        nagy_table(make_ball(2, 1.0), delta_grid=[-0.5, 1.0])
    # a nan distance used to fail as "perimeter of the ball of radius nan"
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainValidationError, match="finite and >= 0"):
            nagy_table(make_ball(2, 1.0), delta_grid=[0.5, bad])
    with pytest.raises(DomainValidationError):
        nagy_table(make_ball(2, 1.0), match="area")


def test_af_check_zero_on_balls():
    for n, r in ((3, 0.8), (4, 1.1)):
        ball = make_ball(n, r)
        w = quermassintegrals(ball)
        for i in range(n):
            for j in range(i + 1, n):
                margin = af_check(ball, i, j)
                scale = max(abs(w[j]), 1.0)
                assert abs(margin) <= 1e-9 * scale


def test_af_check_positive_margins(hconvex_suite_n3):
    body = hconvex_suite_n3[0]
    assert af_check(body, 0, 2) > 0.0
    assert af_check(body, 1, 2) > 0.0
    assert af_check(body, 0, 1) > 0.0


def test_af_check_index_validation():
    ball = make_ball(3, 1.0)
    with pytest.raises(DomainValidationError):
        af_check(ball, 1, 1)
    with pytest.raises(DomainValidationError):
        af_check(ball, 0, 3)
    with pytest.raises(DomainValidationError):
        af_check(make_ball(2, 1.0), 1, 0)
    # the planar comparison is covered for the volume/perimeter pair only
    assert abs(af_check(make_ball(2, 1.0), 0, 1)) <= 1e-9


def test_quermass_domination_chain(hconvex_suite_n3, hconvex_suite_n4):
    # W_j(K) <= W_j(K*) for all j below the matched index
    for body in [*hconvex_suite_n3[:2], *hconvex_suite_n4[:2]]:
        n = body.n
        w = quermassintegrals(body)
        r_star = equivalent_ball(body)
        w_star = ball_quermass(n, r_star)
        for j in range(n - 1):
            assert w[j] <= w_star[j] + 1e-8 * abs(w_star[j])


def test_isoperimetric_ball_identity():
    assert abs(isoperimetric_check_2d(make_ball(2, 1.0))) <= 1e-9


def test_isoperimetric_positive_deficits():
    assert isoperimetric_check_2d(Body2D(a0=0.8, cos=[0.0, 0.1])) > 0.0
    # non-convex bodies are admissible for this check
    wavy = Body2D(a0=1.0, cos=[0.0, 0.0, 0.0, 0.0, 0.3])
    assert not convexity_report(wavy).is_convex
    assert isoperimetric_check_2d(wavy) > 0.0
    with pytest.raises(DomainValidationError):
        isoperimetric_check_2d(make_ball(3, 1.0))


def test_margin_trend_with_asphericity():
    # margins grow with the cos(2 theta) amplitude (statistical trend)
    deltas = np.array([0.5])
    eps_grid = np.linspace(0.0, 0.1, 6)
    margins = []
    for eps in eps_grid:
        body = Body2D(a0=0.9, cos=[0.0, eps]) if eps > 0 else make_ball(2, 0.9)
        margins.append(nagy_table(body, delta_grid=deltas).margins[0])
    margins = np.array(margins)
    diffs = np.diff(margins)
    assert margins[-1] > margins[0]
    assert np.mean(diffs > 0) >= 0.8


def test_equality_implies_round_profile(convex_suite_2d):
    # whenever the table flags equality the curvature profile is a circle's
    for body in [make_ball(2, 1.3), *convex_suite_2d[:3]]:
        report = nagy_table(body)
        prof = curvature_profile(body)
        spread = float(prof.kappas.max() - prof.kappas.min())
        if report.equality_detected:
            assert spread <= 1e-5
        else:
            assert spread > 1e-5


def test_nagy_import_leaves_solver_modules_unloaded():
    # the package root re-exports nothing, so a fresh import of the Nagy
    # tables loads only the geometry layers below them
    env = dict(os.environ, PYTHONPATH=str(Path(horokit.nagy.__file__).parents[1]))
    code = ("import sys, horokit.nagy; print(' '.join(sorted(m for m in sys.modules"
            " if m.startswith('horokit.'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    loaded = set(proc.stdout.split())
    assert "horokit.nagy" in loaded
    assert not loaded & {"horokit.fem2d", "horokit.spectral", "horokit.parallels",
                         "horokit.insulation"}
