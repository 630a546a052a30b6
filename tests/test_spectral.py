"""The spectral p = 2 solver against closed forms, the radial shooting
solver and the independent P1 finite element route (fem2d, fem_energy_p2)."""

import tracemalloc
import warnings

import numpy as np
import pytest

from horokit import spectral
from horokit.bodies import AnnularDomain2D, Body2D, ParallelCurve, make_ball
from horokit.errors import NumericError
from horokit.fem2d import build_mesh, eigen_p2, richardson_extrapolate
from horokit.insulation import (
    InsulationSpec,
    fem_energy_p2,
    insulation_verdict,
    radial_energy_closed_form,
)
from horokit.shell import ShellSpec, shell_eigen

from conftest import rfk_domain_specs
from oracles import dense_eigenpair, dense_mixed_eigenpair, dense_polar_stiffness

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
BLOCK_DOMAINS = {
    **{name: EIGEN_DOMAINS[name] for name in ("concentric", "offset_0.2", "ripple_4")},
    "robin_cos2_0.1": AnnularDomain2D(inner=CORES["cos2_0.1"],
                                      outer=ParallelCurve(CORES["cos2_0.1"], 0.8)),
}


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
    core = make_ball(2, r)
    shell = AnnularDomain2D(inner=core, outer=ParallelCurve(core, delta))
    result = spectral.robin_energy(shell, beta)
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
    shell = AnnularDomain2D(inner=core, outer=ParallelCurve(core, 0.8))
    _check_against_p1(spectral.robin_energy(shell, 1.0),
                      lambda h: fem_energy_p2(core, 0.8, 1.0, h_mesh=h))


SECOND = tuple(map(sum, zip(spectral.START, spectral.GROWTH)))
# tau_1 by dense eigh at every resolution (oracles.dense_mixed_eigenpair);
# ten times thinner than the benchmark domains, with the hole off-centre
THIN_SHELLS = [(0.5, 0.6, 163.73759720804543), (2.0, 2.1, 164.23502952075307)]


@pytest.mark.parametrize("resolution", [spectral.START, SECOND])
@pytest.mark.parametrize("name", list(BLOCK_DOMAINS))
def test_free_block_matches_dense_oracle(name, resolution):
    # the matrix-free apply on a batch of random nodal vectors, and the hole
    # coupling of the free nodes (the apply on the hole row of ones), against
    # the whole 4-D stiffness over every node
    op = spectral._PolarOperator(BLOCK_DOMAINS[name], *resolution)
    K = dense_polar_stiffness(op)
    v = np.random.default_rng(0).standard_normal((3,) + op.mass.shape)
    expect = (v.reshape(3, -1) @ K.T).reshape(v.shape)
    assert np.max(np.abs(op.apply(v) - expect)) <= 1e-13 * np.max(np.abs(expect))
    n_theta = resolution[0]
    hole = np.zeros_like(op.mass)
    hole[0] = 1.0
    expect_hole = K[n_theta:, :n_theta].sum(axis=1)
    coupling = op.apply(hole)[1:].ravel()
    assert np.max(np.abs(coupling - expect_hole)) <= 1e-13 * np.max(np.abs(expect_hole))


def _traced_peak(solve):
    tracemalloc.start()
    try:
        result = solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_mixed_eigenpair_memory_stays_near_one_block():
    # no N x N array: the traced peak, about 80 nodal fields of 8 N bytes
    # (the preconditioner's mode blocks), against N fields for one dense block
    dom = EIGEN_DOMAINS["offset_0.2"]
    result, peak = _traced_peak(lambda: spectral.mixed_eigenpair(dom))
    assert peak <= 160 * 8 * result.n_theta * result.n_s


def test_robin_energy_memory_stays_below_a_dense_block():
    # the same guard for the conjugate gradient solve
    shell = BLOCK_DOMAINS["robin_cos2_0.1"]
    result, peak = _traced_peak(lambda: spectral.robin_energy(shell, 1.0))
    assert peak <= 160 * 8 * result.n_theta * result.n_s


@pytest.mark.parametrize("name", list(BLOCK_DOMAINS))
def test_lobpcg_matches_dense_eigh(name):
    # from the constant vector at START, and at SECOND from START's
    # eigenvector interpolated to the finer grid, as mixed_eigenpair runs
    dom = BLOCK_DOMAINS[name]
    previous = None
    for resolution in (spectral.START, SECOND):
        op = spectral._PolarOperator(dom, *resolution)
        start = np.ones_like(op.mass) if previous is None else spectral._interpolate(previous, op)
        value, u = spectral._eigenpair(op, start)
        expect, expect_u = dense_eigenpair(op)
        assert abs(value - expect) <= 1e-13 * expect
        assert np.max(np.abs(u - expect_u)) <= 1e-10 * np.max(np.abs(expect_u))
        previous = u


@pytest.mark.parametrize("r, R, expect", THIN_SHELLS)
def test_offset_thin_shells_match_dense_eigh(r, R, expect):
    dom = AnnularDomain2D(inner=make_ball(2, r), outer=make_ball(2, R), offset=0.02)
    reference = dense_mixed_eigenpair(dom)
    assert abs(reference.value - expect) <= 1e-13 * expect
    result = spectral.mixed_eigenpair(dom)
    assert (result.n_theta, result.n_s) == (reference.n_theta, reference.n_s)
    assert abs(result.value - expect) <= 1e-13 * expect


def test_interpolation_keeps_polynomials_and_modes():
    # degree <= N_s in s times Fourier modes below N_theta / 2 carry over
    # exactly, also at the nodes the two grids share, without a warning
    op = spectral._PolarOperator(EIGEN_DOMAINS["concentric"], *SECOND)

    def field(s, theta):
        return (1.0 + s - 3.0 * s ** 5 + s ** 16) * (2.0 + np.cos(3 * theta) + np.sin(16 * theta))

    s_old = spectral._lobatto(spectral.START[1])[0]
    theta_old = 2.0 * np.pi * np.arange(spectral.START[0]) / spectral.START[0]
    theta = 2.0 * np.pi * np.arange(SECOND[0]) / SECOND[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = spectral._interpolate(field(s_old[:, None], theta_old), op)
    assert np.max(np.abs(u - field(op.s[:, None], theta))) <= 1e-12


def test_iteration_cap_raises(monkeypatch):
    # one iteration settles neither solve on a non-concentric domain; the
    # solver must say so instead of returning an unconverged value
    monkeypatch.setattr(spectral, "MAX_ITERATIONS", 1)
    with pytest.raises(NumericError, match="LOBPCG did not reach"):
        spectral.mixed_eigenpair(EIGEN_DOMAINS["offset_0.2"])
    with pytest.raises(NumericError, match="conjugate gradients did not reach"):
        spectral.robin_energy(BLOCK_DOMAINS["robin_cos2_0.1"], 1.0)


def test_thin_offset_shell_settles():
    # a shell 0.05 thick, off centre, needs many rays and levels: it
    # settles at (129, 28), 3612 unknowns
    dom = AnnularDomain2D(make_ball(2, 3.0), make_ball(2, 3.05), offset=0.02)
    res = spectral.mixed_eigenpair(dom)
    assert res.step <= spectral.STEP_RTOL
    assert res.n_theta * res.n_s <= spectral.MAX_UNKNOWNS


def test_unresolvable_domain_raises():
    # a 21-fold ripple on the hole needs more than MAX_UNKNOWNS nodes to
    # settle to STEP_RTOL; the solver must say so instead of returning
    dom = AnnularDomain2D(inner=Body2D(a0=0.8, cos=[0.0] * 20 + [0.03]),
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
