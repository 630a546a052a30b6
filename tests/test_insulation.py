import math

import pytest
import scipy.sparse.linalg

from horokit import insulation
from horokit.bodies import Body2D, RevolutionBody, make_ball, parallel_perimeter_direct
from horokit.core import gauss_legendre_nodes, sphere_measure
from horokit.insulation import (
    InsulationSpec,
    fem_energy_p2,
    insulation_verdict,
    parallel_bound_energy,
    radial_energy,
    radial_energy_closed_form,
)
from horokit.errors import DomainValidationError, NumericError, PreconditionError

from oracles import quad_parallel_bound_energy


def _richardson(n, p, r, delta, beta):
    e1 = radial_energy(n, p, r, delta, beta, n_cells=1024)
    e2 = radial_energy(n, p, r, delta, beta, n_cells=2048)
    return e2 + (e2 - e1) / 3.0


def test_closed_form_reference_value():
    # independently derived constant-flux solution; the 1-D minimizer
    # reproduces it, pinning the benchmark energy at (n=2, p=2, r=1,
    # delta=1, beta=1)
    e = radial_energy_closed_form(2, 2.0, 1.0, 1.0, 1.0)
    q = math.log(math.tanh(1.0) / math.tanh(0.5))
    c = 1.0 / (1.0 / math.sinh(2.0) + q)
    assert e == pytest.approx(2 * math.pi * c, rel=1e-10)
    assert e == pytest.approx(8.1040323, rel=1e-7)
    assert _richardson(2, 2.0, 1.0, 1.0, 1.0) == pytest.approx(e, rel=1e-8)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("r,delta,beta", [(0.5, 0.5, 1.0), (1.0, 1.0, 0.5), (0.8, 1.2, 2.0)])
def test_minimizer_matches_closed_form_p2(n, r, delta, beta):
    expect = radial_energy_closed_form(n, 2.0, r, delta, beta)
    assert _richardson(n, 2.0, r, delta, beta) == pytest.approx(expect, rel=1e-8)


@pytest.mark.parametrize("p", [1.5, 2.5])
def test_minimizer_matches_closed_form_general_p(p):
    expect = radial_energy_closed_form(2, p, 1.0, 1.0, 1.0)
    got = _richardson(2, p, 1.0, 1.0, 1.0)
    assert got == pytest.approx(expect, rel=1e-6)


def test_energy_limits_in_beta():
    # beta -> 0: no Robin penalty, constant profile, zero energy
    assert radial_energy_closed_form(2, 2.0, 1.0, 1.0, 1e-12) < 1e-10
    assert radial_energy(2, 2.0, 1.0, 1.0, 1e-12, n_cells=256) < 1e-8
    # monotone increasing in beta, saturating toward the Dirichlet cap
    betas = [0.1, 0.5, 1.0, 5.0, 50.0, 500.0]
    energies = [radial_energy_closed_form(2, 2.0, 1.0, 1.0, b) for b in betas]
    assert all(e2 > e1 for e1, e2 in zip(energies, energies[1:]))
    cap = 2 * math.pi / math.log(math.tanh(1.0) / math.tanh(0.5))
    assert energies[-1] < cap


def test_energy_trend_in_delta_hyperbolic():
    # unlike the flat case, thickening the shell helps only when the Robin
    # parameter beats the outer-boundary growth: dE/ddelta < 0 iff
    # beta > coth(r + delta).  Both regimes are exercised.
    deltas = [0.3, 0.6, 1.0, 1.5]
    # strong Robin penalty: insulation wins, energy decreases
    strong = [radial_energy_closed_form(2, 2.0, 1.0, d, 5.0) for d in deltas]
    assert all(e2 < e1 for e1, e2 in zip(strong, strong[1:]))
    # weak penalty (beta = 1 < coth R for all these shells): the growing
    # outer boundary dominates and the energy increases
    weak = [radial_energy_closed_form(2, 2.0, 1.0, d, 1.0) for d in deltas]
    assert all(e2 > e1 for e1, e2 in zip(weak, weak[1:]))


def test_fem_matches_radial_on_ball():
    e_fem = fem_energy_p2(make_ball(2, 1.0), 1.0, 1.0, h_mesh=0.01)
    e_cf = radial_energy_closed_form(2, 2.0, 1.0, 1.0, 1.0)
    assert e_fem == pytest.approx(e_cf, rel=1e-3)


def test_fem_beta_zero_limit():
    e = fem_energy_p2(make_ball(2, 1.0), 1.0, 1e-14, h_mesh=0.03)
    assert e < 1e-10


def test_verdict_ball_equality():
    spec = InsulationSpec(p=2.0, body=make_ball(2, 1.0), delta=1.0, beta=1.0)
    report = insulation_verdict(spec)
    assert report.equality_detected
    assert abs(report.margin) <= 1e-4 * report.energy_ball
    spec3 = InsulationSpec(p=2.0, body=make_ball(3, 0.9), delta=0.8, beta=1.0)
    report3 = insulation_verdict(spec3)
    assert report3.equality_detected


def test_verdict_planar_convex_holes():
    holes = [Body2D(a0=0.8, cos=[0.0, 0.1]),
             Body2D(a0=0.9, cos=[0.0, 0.0, 0.05]),
             Body2D(a0=1.0, cos=[0.0, 0.08])]
    for hole in holes:
        spec = InsulationSpec(p=2.0, body=hole, delta=0.8, beta=1.0)
        report = insulation_verdict(spec)
        assert report.margin >= -1e-6 * report.energy_ball
        assert report.margin > 0.0
        assert not report.one_sided


def test_verdict_revolution_one_sided():
    holes = [RevolutionBody(n=3, a0=1.0, cos_even=[0.05]),
             RevolutionBody(n=3, a0=0.9, cos_even=[0.04])]
    for hole in holes:
        spec = InsulationSpec(p=2.0, body=hole, delta=0.8, beta=1.0)
        report = insulation_verdict(spec)
        assert report.one_sided
        assert report.margin >= -1e-6 * report.energy_ball


def test_parallel_bound_dominates_true_energy():
    # on a ball the parallel-coordinate bound is tight (parallels of balls
    # are balls), so it must coincide with the closed form
    bound = parallel_bound_energy(make_ball(2, 1.0), 2.0, 1.0, 1.0)
    exact = radial_energy_closed_form(2, 2.0, 1.0, 1.0, 1.0)
    assert bound == pytest.approx(exact, rel=1e-13)
    # ... and on a planar non-ball it stays above the FEM energy
    hole = Body2D(a0=0.8, cos=[0.0, 0.1])
    bound = parallel_bound_energy(hole, 2.0, 0.8, 1.0)
    e_fem = fem_energy_p2(hole, 0.8, 1.0, h_mesh=0.01)
    assert bound >= e_fem - 1e-6 * e_fem


_QUAD_CORES = {"revolution": RevolutionBody(n=3, a0=0.9, cos_even=[0.04]),
               "oval": Body2D(a0=0.8, cos=[0.0, 0.1])}


@pytest.mark.parametrize("name,p,delta,beta", [
    *[pytest.param(name, p, 0.8, 1.0, id=f"{name}-{p}")
      for p in (1.1, 1.5, 3.0) for name in _QUAD_CORES],
    # near p = 1, where the unscaled powers of the weights overflow
    pytest.param("revolution", 1.01, 5.0, 1.0, id="revolution-1.01"),
    pytest.param("oval", 1.01, 30.0, 1e12, id="oval-1.01"),
])
def test_parallel_bound_matches_quad_oracle(name, p, delta, beta):
    # L is analytic in the parallel distance, so the Gauss rule leaves only
    # round-off against adaptive quadrature of the same perimeters
    core = _QUAD_CORES[name]
    expect = quad_parallel_bound_energy(core, p, delta, beta)
    assert parallel_bound_energy(core, p, delta, beta) == pytest.approx(expect, rel=1e-12)


def _log_constant_flux_energy(weight, p, delta, beta):
    """(W_b^{-1/(p-1)} + Q)^{-(p-1)} on the closed form's 384 Gauss nodes,
    every term summed as a logarithm from math.log of the weight."""
    x, gw = gauss_legendre_nodes(384)
    k = -1.0 / (p - 1.0)
    logs = [math.log(0.5 * delta * g) + k * math.log(weight(0.5 * delta * (1.0 + xi)))
            for xi, g in zip(x, gw)]
    logs.append(k * (math.log(beta) + math.log(weight(delta))))
    top = max(logs)
    return math.exp((1.0 - p) * (top + math.log(math.fsum(math.exp(t - top) for t in logs))))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spec", [
    InsulationSpec(p=1.01, body=RevolutionBody(n=3, a0=0.9, cos_even=[0.04]), delta=5.0, beta=1.0),
    InsulationSpec(p=1.01, body=Body2D(a0=0.8, cos=[0.0, 0.1]), delta=30.0, beta=1e12),
    InsulationSpec(p=1.0000001, body=make_ball(2, 1.0), delta=1.0, beta=1.0),
], ids=["revolution", "oval", "ball"])
def test_closed_form_near_p1_stays_in_range(spec):
    # W_b^{1/(p-1)} leaves the double range here (the revolution core's
    # matched ball, r* = 0.888, at about 13.55; the ball near its p -> 1
    # limit min(L(0), beta L(delta)) = 2 pi sinh 1) although no energy does
    report = insulation_verdict(spec)
    om = sphere_measure(spec.n - 1)
    ball = _log_constant_flux_energy(lambda s: om * math.sinh(report.r_star + s) ** (spec.n - 1),
                                     spec.p, spec.delta, spec.beta)
    body = _log_constant_flux_energy(lambda s: parallel_perimeter_direct(spec.body, s),
                                     spec.p, spec.delta, spec.beta)
    assert math.isfinite(report.energy_ball) and math.isfinite(report.energy_body)
    assert report.energy_ball == pytest.approx(ball, rel=1e-12)
    assert report.energy_body == pytest.approx(body, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p,delta,beta", [(1.01, 30.0, 1e300), (2.0, 800.0, 1.0)])
def test_parallel_bound_overflow_is_numeric_error(p, delta, beta):
    # the Robin weight beta L(delta) and cosh(delta) overflow; both are
    # refused as the closed form on a ball refuses them
    with pytest.raises(NumericError):
        parallel_bound_energy(Body2D(a0=0.8, cos=[0.0, 0.1]), p, delta, beta)


def test_fem_energy_factor_is_sparser_than_colamd(monkeypatch):
    factored = []

    def spy(A, **options):
        lu = scipy.sparse.linalg.splu(A, **options)
        factored.append((A, lu))
        return lu

    monkeypatch.setattr(insulation, "splu", spy)
    fem_energy_p2(Body2D(a0=0.8, cos=[0.0, 0.1]), 0.8, 1.0, h_mesh=0.05)
    (A, lu), = factored
    assert lu.nnz < scipy.sparse.linalg.splu(A).nnz


def test_verdict_hypothesis_checks():
    nonconvex = Body2D(a0=1.0, cos=[0.0, 0.0, 0.0, 0.0, 0.3])
    with pytest.raises(PreconditionError):
        insulation_verdict(InsulationSpec(p=2.0, body=nonconvex, delta=0.5, beta=1.0))
    not_h = RevolutionBody(n=3, a0=1.0, cos_even=[0.15])
    with pytest.raises(PreconditionError):
        insulation_verdict(InsulationSpec(p=2.0, body=not_h, delta=0.5, beta=1.0))


def test_spec_validation():
    with pytest.raises(DomainValidationError):
        InsulationSpec(p=1.0, body=make_ball(2, 1.0), delta=0.5, beta=1.0)
    with pytest.raises(DomainValidationError):
        InsulationSpec(p=2.0, body=make_ball(2, 1.0), delta=0.0, beta=1.0)
    with pytest.raises(DomainValidationError):
        InsulationSpec(p=2.0, body=make_ball(2, 1.0), delta=0.5, beta=-1.0)
