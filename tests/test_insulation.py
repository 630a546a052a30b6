import math

import pytest
import scipy.sparse.linalg

from horokit import insulation
from horokit.bodies import Body2D, RevolutionBody, make_ball
from horokit.insulation import (
    InsulationSpec,
    fem_energy_p2,
    insulation_verdict,
    parallel_bound_energy,
    radial_energy,
    radial_energy_closed_form,
)
from horokit.errors import DomainValidationError, PreconditionError


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
    assert bound == pytest.approx(exact, rel=1e-6)
    # ... and on a planar non-ball it stays above the FEM energy
    hole = Body2D(a0=0.8, cos=[0.0, 0.1])
    bound = parallel_bound_energy(hole, 2.0, 0.8, 1.0)
    e_fem = fem_energy_p2(hole, 0.8, 1.0, h_mesh=0.01)
    assert bound >= e_fem - 1e-6 * e_fem


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
