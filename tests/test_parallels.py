import math

import numpy as np
import pytest

from horokit.bodies import Body2D, make_ball, parallel_perimeter_direct
from horokit.core import poincare_distance
from horokit.fem2d import AnnularDomain2D
from horokit.parallels import (
    ParallelTable,
    annulus_match,
    build_parallel_table,
    comparison_functions,
    distance_field,
    hersch_bound,
    interior_coords,
    parallel_length,
    rfk_verdict,
)
from horokit.errors import DataFormatError, DomainValidationError, PreconditionError

from oracles import offset_ball_parallel_length

CONCENTRIC = AnnularDomain2D(inner=make_ball(2, 0.5), outer=make_ball(2, 1.5))


@pytest.fixture(scope="module")
def concentric_field():
    return distance_field(CONCENTRIC, grid_res=512)


def test_distance_field_concentric_is_radial(concentric_field):
    fld = concentric_field
    # sample interior nodes: signed distance must equal d(x, 0) - 0.5
    xs = np.linspace(-0.6, 0.6, 9)
    for x in xs:
        for y in (0.0, 0.21, -0.33):
            if x * x + y * y >= 0.95:
                continue
            i = int(np.searchsorted(fld.gx, x))
            j = int(np.searchsorted(fld.gy, y))
            px, py = fld.gx[i], fld.gy[j]
            d0 = poincare_distance(np.zeros(2), np.array([px, py]))
            assert fld.values[i, j] == pytest.approx(d0 - 0.5, abs=1e-8)
    assert fld.delta0 == pytest.approx(1.0, abs=1e-6)


def test_distance_field_vanishes_on_hole_boundary(concentric_field):
    fld = concentric_field
    t = math.tanh(0.25)
    i = int(np.argmin(np.abs(fld.gx - t)))
    j = int(np.argmin(np.abs(fld.gy)))
    assert abs(fld.values[i, j]) <= 2.0 * fld.cell


def test_distance_field_requires_convex_hole():
    wavy = Body2D(a0=1.0, cos=[0.0, 0.0, 0.0, 0.0, 0.3])
    dom = AnnularDomain2D(inner=wavy, outer=make_ball(2, 2.2))
    with pytest.raises(PreconditionError):
        distance_field(dom, grid_res=128)


def test_parallel_length_concentric(concentric_field):
    got = parallel_length(CONCENTRIC, concentric_field, 0.5)
    assert got == pytest.approx(2 * math.pi * math.sinh(1.0), rel=1e-3)
    with pytest.raises(DomainValidationError):
        parallel_length(CONCENTRIC, concentric_field, 2.0)


def test_parallel_length_offset_ball_oracle():
    dom = AnnularDomain2D(inner=make_ball(2, 0.8), outer=make_ball(2, 1.8), offset=0.2)
    fld = distance_field(dom, grid_res=1024)
    assert fld.delta0 == pytest.approx(1.2, abs=1e-4)
    for delta in (0.05, 0.3, 0.6, 0.9, 1.1):
        exact = offset_ball_parallel_length(0.8, 1.8, 0.2, delta)
        got = parallel_length(dom, fld, delta)
        assert got == pytest.approx(exact, rel=2e-3, abs=1e-3)


def test_parallel_length_matches_body_oracle_when_interior(concentric_field):
    # for deltas where the parallel set stays inside the domain, the level
    # length equals the parallel perimeter of the hole
    hole = make_ball(2, 0.5)
    for delta in (0.2, 0.6):
        expect = parallel_perimeter_direct(hole, delta)
        got = parallel_length(CONCENTRIC, concentric_field, delta)
        assert got == pytest.approx(expect, rel=1e-3)


def test_annulus_match_fixed_point():
    r, R = annulus_match(CONCENTRIC)
    assert r == pytest.approx(0.5, rel=1e-6)
    assert R == pytest.approx(1.5, rel=1e-6)


def test_annulus_match_general_hole():
    hole = Body2D(a0=0.8, cos=[0.0, 0.1])
    dom = AnnularDomain2D(inner=hole, outer=make_ball(2, 1.8))
    r, R = annulus_match(dom)
    from horokit.bodies import boundary_measures
    p = boundary_measures(hole)["perimeter"]
    assert r == pytest.approx(math.asinh(p / (2 * math.pi)), rel=1e-12)
    assert r > 0.7  # exceeds the hole's inradius
    area = boundary_measures(make_ball(2, 1.8))["volume"] - boundary_measures(hole)["volume"]
    assert 2 * math.pi * (math.cosh(R) - math.cosh(r)) == pytest.approx(area, rel=1e-6)


def test_interior_coords_concentric(concentric_field):
    table = build_parallel_table(CONCENTRIC, fld=concentric_field, n_deltas=192)
    coords = interior_coords(table, 2.0)
    # L = Ltilde here, so M and Mtilde agree pointwise
    m_interp = np.interp(coords.deltas_tilde, coords.deltas, coords.M)
    mask = coords.deltas_tilde <= coords.deltas[-1]
    rel = np.abs(m_interp[mask] - coords.Mtilde[mask]) / np.max(coords.Mtilde)
    assert np.max(rel) <= 1e-3
    assert coords.Mtilde_star <= coords.M_star + 1e-12
    assert np.all(np.diff(coords.M) > 0.0)
    assert np.all(np.diff(coords.Mtilde) > 0.0)


def test_interior_coords_constant_length_closed_form():
    # p = 2 with constant L == c gives M(delta) = delta / c
    deltas = np.linspace(0.0, 1.0, 257)
    table = ParallelTable(deltas=deltas, L=np.full_like(deltas, 3.0), delta0=1.0,
                          Ltilde=np.full_like(deltas, 3.0), r_match=0.5,
                          R_match=1.5, grid_res=0, cell=1e-3)
    coords = interior_coords(table, 2.0)
    assert np.allclose(coords.M, deltas / 3.0, atol=1e-14)


def test_interior_coords_rejects_interior_vanishing():
    deltas = np.linspace(0.0, 1.0, 65)
    L = np.full_like(deltas, 2.0)
    L[30] = 0.0
    table = ParallelTable(deltas=deltas, L=L, delta0=1.0, Ltilde=L.copy(),
                          r_match=0.5, R_match=1.5, grid_res=0, cell=1e-3)
    with pytest.raises(DataFormatError):
        interior_coords(table, 2.0)


def test_mtilde_below_m_tablewise(rfk_tables):
    for name, table in rfk_tables.items():
        coords = interior_coords(table, 2.0)
        m_at = np.interp(coords.deltas_tilde, coords.deltas, coords.M)
        slack = 1e-3 * max(coords.Mtilde_star, 1e-30)
        mask = coords.deltas_tilde <= coords.deltas[-1]
        assert np.all(coords.Mtilde[mask] <= m_at[mask] + slack), name


def test_parallel_table_l_below_ltilde(rfk_tables):
    for name, table in rfk_tables.items():
        tol = table.comparison_tolerance()
        inside = table.deltas <= (table.R_match - table.r_match)
        assert np.all(table.L[inside] <= table.Ltilde[inside] + tol), name


def test_delta0_exceeds_annulus_gap(rfk_tables):
    for name, table in rfk_tables.items():
        gap = table.R_match - table.r_match
        gridcell = 2.0 * table.cell * 2.0 / (1.0 - math.tanh(table.R_match / 2.0) ** 2)
        assert table.delta0 >= gap - gridcell, name
        if name != "concentric":
            assert table.delta0 > gap + 0.005, name
        else:
            assert table.delta0 == pytest.approx(gap, abs=1e-4)


def test_comparison_functions_ordered(rfk_tables):
    for name, table in rfk_tables.items():
        coords = interior_coords(table, 2.0)
        beta, G, Gt = comparison_functions(table, coords)
        tol = table.comparison_tolerance()
        assert np.all(G <= Gt + tol), name
        if name != "concentric":
            # strict gap on a terminal stretch of the beta range
            tail = beta >= 0.75 * beta[-1]
            assert np.max(Gt[tail] - G[tail]) > 5.0 * tol, name


def test_hersch_bound_concentric_equals_annulus(rfk_tables, rfk_reports):
    rep = rfk_reports["concentric"]
    assert rep.hersch_bound == pytest.approx(rep.tau_annulus, rel=1e-3)


def test_ordering_chain(rfk_reports):
    for name, rep in rfk_reports.items():
        tol = 2e-3 * rep.tau_annulus
        assert rep.tau_omega <= rep.hersch_bound + tol, name
        assert rep.hersch_bound <= rep.tau_annulus + tol, name
        assert rep.chain_ok, name


def test_equality_only_on_concentric(rfk_reports):
    for name, rep in rfk_reports.items():
        if name == "concentric":
            assert rep.equality_detected, name
        else:
            assert not rep.equality_detected, name


def test_transplant_numerator_matches_annulus(rfk_tables):
    # assembled in the transplanted coordinate, the gradient term must
    # reproduce the annulus Rayleigh numerator
    from horokit.shell import ShellSpec, shell_eigen
    from scipy.interpolate import PchipInterpolator
    table = rfk_tables["offset_0.2"]
    r, R = table.r_match, table.R_match
    res = shell_eigen(ShellSpec(n=2, p=2.0, r=r, R=R))
    coords = interior_coords(table, 2.0)
    dt = coords.deltas_tilde
    lt = 2 * math.pi * np.sinh(r + dt)
    dv = PchipInterpolator(res.t - r, res.dv)(dt)
    fprime = dv * lt  # p = 2: p' - 1 = 1
    numerator_beta = np.trapezoid(np.abs(fprime) ** 2 * lt ** (-1.0), dt)
    t_fine = np.linspace(r, R, 4096)
    dv_fine = PchipInterpolator(res.t, res.dv)(t_fine)
    numerator_radial = np.trapezoid(dv_fine ** 2 * 2 * math.pi * np.sinh(t_fine), t_fine)
    assert numerator_beta == pytest.approx(numerator_radial, rel=1e-4)


def test_hersch_bound_rejects_mismatched_profile(concentric_field):
    from horokit.shell import ShellSpec, shell_eigen
    table = build_parallel_table(CONCENTRIC, fld=concentric_field, n_deltas=64)
    wrong = shell_eigen(ShellSpec(n=2, p=2.0, r=0.3, R=1.1))
    with pytest.raises(DataFormatError):
        hersch_bound(table, 2.0, shell_result=wrong)


def test_rfk_verdict_low_resolution_smoke(concentric_field):
    table = build_parallel_table(CONCENTRIC, fld=concentric_field, n_deltas=64)
    report = rfk_verdict(CONCENTRIC, 2.0, table=table, h_mesh=0.02, richardson=False)
    assert report.chain_ok
    assert report.equality_detected
    assert report.r == pytest.approx(0.5, rel=1e-6)
    # the reported resolutions are those of the table the chain ran on
    assert report.meta["n_deltas"] == 64
    assert report.meta["grid_res"] == table.grid_res == 512


def test_rfk_chain_general_p(rfk_domains, rfk_tables):
    # the transplant argument is p-generic; run the eccentric benchmark at
    # p = 1.5 with the inverse power solver on the domain side
    name = "offset_0.2"
    report = rfk_verdict(rfk_domains[name], 1.5, h_mesh=0.03,
                         table=rfk_tables[name])
    tol = 5e-3 * report.tau_annulus  # the P1 value is an upper bound
    assert report.tau_omega <= report.hersch_bound + tol
    assert report.hersch_bound <= report.tau_annulus + tol
    assert report.tau_omega < report.tau_annulus
    assert not report.equality_detected


def test_interior_coords_constant_length_p3():
    # p = 3: p' - 1 = 1/2, so constant L == c gives M = delta / sqrt(c)
    deltas = np.linspace(0.0, 1.0, 129)
    table = ParallelTable(deltas=deltas, L=np.full_like(deltas, 4.0), delta0=1.0,
                          Ltilde=np.full_like(deltas, 4.0), r_match=0.5,
                          R_match=1.5, grid_res=0, cell=1e-3)
    coords = interior_coords(table, 3.0)
    assert np.allclose(coords.M, deltas / 2.0, atol=1e-14)
