"""The spectral p = 2 solver against closed forms, the radial shooting
solver and the independent P1 finite element route (fem2d, fem_energy_p2)."""

import pytest

from horokit import spectral
from horokit.bodies import Body2D, make_ball
from horokit.errors import NumericError
from horokit.fem2d import AnnularDomain2D, build_mesh, eigen_p2, richardson_extrapolate
from horokit.insulation import (
    InsulationSpec,
    _ParallelShell,
    fem_energy_p2,
    insulation_verdict,
    radial_energy_closed_form,
)
from horokit.shell import ShellSpec, shell_eigen

from conftest import rfk_domain_specs

EIGEN_DOMAINS = {
    **rfk_domain_specs(),
    # a four-fold ripple: with an even number of angles the solver would
    # never settle here (the sawtooth mode has no angular stiffness)
    "ripple_4": AnnularDomain2D(inner=Body2D(a0=0.8, cos=[0.0, 0.0, 0.0, 0.05]),
                                outer=make_ball(2, 1.8)),
}
# the planar cores of test_verdict_planar_convex_holes, at delta 0.8, beta 1
CORES = {
    "cos2_0.1": Body2D(a0=0.8, cos=[0.0, 0.1]),
    "cos3_0.05": Body2D(a0=0.9, cos=[0.0, 0.0, 0.05]),
    "cos2_0.08": Body2D(a0=1.0, cos=[0.0, 0.08]),
}
P1_AGREEMENT_RTOL = 1e-6


def _check_against_p1(result, p1_value):
    """Richardson over P1 at h = 0.01 and 0.005 lands on the spectral value,
    and the raw P1 error falls by about 4 (second order) per halving."""
    assert result.step <= spectral.STEP_RTOL
    coarse, fine = p1_value(0.01), p1_value(0.005)
    extrapolated = richardson_extrapolate(coarse, fine)
    assert abs(extrapolated - result.value) <= P1_AGREEMENT_RTOL * result.value
    assert 3.5 <= (coarse - result.value) / (fine - result.value) <= 4.5


@pytest.mark.parametrize("r, R", [(0.5, 1.5), (0.8, 1.8)])
def test_concentric_matches_shell_eigen(r, R):
    dom = AnnularDomain2D(inner=make_ball(2, r), outer=make_ball(2, R))
    result = spectral.mixed_eigenpair(dom)
    tau = shell_eigen(ShellSpec(n=2, p=2.0, r=r, R=R)).tau1
    assert abs(result.value - tau) <= 1e-11 * tau
    assert result.step <= spectral.STEP_RTOL


@pytest.mark.parametrize("r, delta, beta", [(1.0, 1.0, 1.0), (0.8, 0.8, 1.0), (0.5, 1.2, 3.0)])
def test_ball_core_matches_closed_form(r, delta, beta):
    result = spectral.robin_energy(_ParallelShell.around(make_ball(2, r), delta), beta)
    expect = radial_energy_closed_form(2, 2.0, r, delta, beta)
    assert abs(result.value - expect) <= 1e-12 * expect


@pytest.mark.parametrize("name", list(EIGEN_DOMAINS))
def test_eigenvalue_agrees_with_p1_richardson(name):
    dom = EIGEN_DOMAINS[name]
    _check_against_p1(spectral.mixed_eigenpair(dom),
                      lambda h: eigen_p2(build_mesh(dom, h)).tau1)


@pytest.mark.parametrize("name", list(CORES))
def test_robin_energy_agrees_with_p1_richardson(name):
    core = CORES[name]
    _check_against_p1(spectral.robin_energy(_ParallelShell.around(core, 0.8), 1.0),
                      lambda h: fem_energy_p2(core, 0.8, 1.0, h_mesh=h))


def test_unresolvable_domain_raises():
    # a 13-fold ripple on the hole needs more than MAX_UNKNOWNS nodes to
    # settle to STEP_RTOL; the solver must say so instead of returning
    dom = AnnularDomain2D(inner=Body2D(a0=0.8, cos=[0.0] * 12 + [0.03]),
                          outer=make_ball(2, 1.8))
    with pytest.raises(NumericError, match="did not settle"):
        spectral.mixed_eigenpair(dom)


def test_verdicts_report_the_spectral_resolution(rfk_reports):
    metas = [rep.meta for rep in rfk_reports.values()]
    spec = InsulationSpec(p=2.0, body=CORES["cos2_0.1"], delta=0.8, beta=1.0)
    metas.append(insulation_verdict(spec).meta)
    for meta in metas:
        assert "h_mesh" not in meta
        assert meta["n_theta"] % 2 == 1 and meta["n_s"] >= spectral.START[1]
        assert meta["step"] <= spectral.STEP_RTOL
