import math
import tracemalloc
import warnings

import numpy as np
import pytest

from horokit.bodies import (
    AnnularDomain2D,
    Body2D,
    arc_speed_curvature,
    boundary_measures,
    make_ball,
    parallel_perimeter_direct,
)
from horokit.core import poincare_distance
from horokit import parallels
from horokit.parallels import (
    RAY_COUNTS,
    ROUNDOFF_RTOL,
    SCAN_STEPS,
    ParallelTable,
    annulus_match,
    build_parallel_table,
    comparison_functions,
    distance_field,
    hersch_bound,
    interior_coords,
    rfk_verdict,
)
from horokit.errors import DataFormatError, DomainValidationError, PreconditionError

from oracles import (dense_ray_crossings, grid_distance_field, grid_parallel_length,
                     masked_cuts, offset_ball_parallel_length)

CONCENTRIC = AnnularDomain2D(inner=make_ball(2, 0.5), outer=make_ball(2, 1.5))
# 80 petals: some normal rays of the oval hole leave the domain, come back
# and leave again (the outer body settles at 8192 samples, which its
# Gauss-Bonnet check in annulus_match needs)
PETALS = AnnularDomain2D(inner=Body2D(a0=1.0, cos=[0.0, 0.2]),
                         outer=Body2D(a0=1.8, cos=[0.0] * 79 + [0.35]))
OFFSET_BALL = AnnularDomain2D(inner=make_ball(2, 0.8), outer=make_ball(2, 1.8), offset=0.2)
# the oval hole's normal rays are not radial, so each sweeps an arc of angles
OVAL_HOLE = AnnularDomain2D(inner=Body2D(a0=0.8, cos=[0.0, 0.1]), outer=make_ball(2, 1.8), offset=0.1)


@pytest.fixture(scope="module")
def concentric_field():
    return distance_field(CONCENTRIC, grid_res=512)


def test_distance_field_concentric_is_radial(concentric_field):
    # every normal ray of the centred ball is radial and leaves at R - r
    fld = concentric_field
    assert fld.values.shape == (512,)
    assert fld.reentries.shape == (512, 0)
    assert np.max(np.abs(fld.values - 1.0)) <= 1e-12
    assert fld.delta0 == pytest.approx(1.0, abs=1e-12)
    speed, kappa = arc_speed_curvature(CONCENTRIC.inner, fld.theta)
    assert np.allclose(speed, math.sinh(0.5), rtol=1e-12)
    assert np.allclose(kappa, 1.0 / math.tanh(0.5), rtol=1e-12)


def test_distance_field_vanishes_on_hole_boundary(rfk_domains, rfk_tables):
    # the parallel at distance 0 is the hole boundary itself, and the rays'
    # foot points lie on it
    for name in ("hole_eps_0.05", "hole_eps_0.1"):
        dom, table = rfk_domains[name], rfk_tables[name]
        perimeter = boundary_measures(dom.inner)["perimeter"]
        assert table.L[0] == pytest.approx(perimeter, rel=1e-12), name
        theta = np.linspace(0.0, 2.0 * np.pi, 7)
        z = dom.inner.chart_curve(theta)
        dist = poincare_distance(np.zeros(2), np.stack([z.real, z.imag], axis=1))
        assert np.allclose(dist, dom.inner.radius(theta), atol=1e-12), name


def test_parallels_refuse_an_outer_that_is_not_a_body():
    # the parallel curve of the hole has no radius of its own to pull back to
    from horokit.bodies import ParallelCurve
    hole = make_ball(2, 0.5)
    dom = AnnularDomain2D(inner=hole, outer=ParallelCurve(hole, 1.0))
    for build in (annulus_match, build_parallel_table, lambda d: distance_field(d, 64)):
        with pytest.raises(DomainValidationError, match="body outer boundary"):
            build(dom)


def test_distance_field_requires_convex_hole():
    wavy = Body2D(a0=1.0, cos=[0.0, 0.0, 0.0, 0.0, 0.3])
    dom = AnnularDomain2D(inner=wavy, outer=make_ball(2, 2.2))
    with pytest.raises(PreconditionError):
        distance_field(dom, grid_res=128)


@pytest.mark.parametrize("dom", [CONCENTRIC, PETALS, OVAL_HOLE], ids=["concentric", "petals", "oval_hole"])
def test_ray_crossings_match_dense_scan_oracle(dom):
    # the scan finds every crossing a scan over the whole ray at four times
    # the step count finds, and nothing else
    fld = distance_field(dom, grid_res=512)
    dense = dense_ray_crossings(dom, fld.theta, 4 * SCAN_STEPS)
    assert dense.shape == fld.crossings.shape
    assert np.array_equal(np.isnan(dense), np.isnan(fld.crossings))
    assert np.nanmax(np.abs(dense - fld.crossings)) <= 1e-12


@pytest.mark.parametrize("dom, cap", [(OFFSET_BALL, 3), (PETALS, 6)], ids=["offset_0.2", "petals"])
def test_newton_passes_are_few(monkeypatch, dom, cap):
    # Newton from the false position of each scan bracket: three passes on
    # the offset ball, in the field and in the extremum rounds; the petals'
    # brackets across a wavy boundary take a few more in the field
    import horokit.parallels as parallels
    newton = parallels._bracketed_newton
    passes = []

    def counting_newton(g, *args):
        passes.append(0)

        def counted(k, t):
            passes[-1] += 1
            return g(k, t)

        return newton(counted, *args)

    monkeypatch.setattr(parallels, "_bracketed_newton", counting_newton)
    distance_field(dom, RAY_COUNTS[-1])
    assert len(passes) == 1 + parallels.PEAK_ROUNDS
    assert max(passes) <= cap and passes[1:] == [3] * parallels.PEAK_ROUNDS


def test_bracketed_newton_survives_a_zero_derivative():
    # cos t - 1/2 on [-1, 1.5] from t = 0, where the derivative vanishes: the
    # step bisects instead, and Newton then finishes; (1 - t)^3 from its root
    # t = 1, where value and derivative vanish together; no RuntimeWarning
    from horokit.parallels import _bracketed_newton

    def g(k, t):
        return (np.where(k == 0, np.cos(t) - 0.5, (1.0 - t) ** 3),
                np.where(k == 0, -np.sin(t), -3.0 * (1.0 - t) ** 2))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        root = _bracketed_newton(g, np.array([0.0, 1.0]), np.array([-1.0, 0.0]),
                                 np.array([1.5, 2.5]), np.array([True, True]))
    assert root[0] == pytest.approx(math.pi / 3.0, abs=1e-15) and root[1] == 1.0


def test_parallel_length_concentric(concentric_field):
    got = parallels._lengths(CONCENTRIC, concentric_field, [0.5])[0]
    assert got == pytest.approx(2 * math.pi * math.sinh(1.0), rel=1e-12)


def _offset_ball(offset, angle=0.0):
    return AnnularDomain2D(inner=make_ball(2, 0.8), outer=make_ball(2, 1.8),
                           offset=offset, offset_angle=angle)


def test_parallel_length_offset_ball_oracle(rfk_tables):
    # law of cosines: every row below delta0 within 1e-11 and within L_err;
    # the delta0 row, where L falls like sqrt(delta0 - delta) and its arc is
    # far narrower than the ray spacing, within 1e-6 from the ray at the
    # farthest point; turned by 0.1234, that point lies between two rays; the
    # far-offset ball's base point is 2.5 from the hole's, and delta0 = 5.2
    far = AnnularDomain2D(inner=make_ball(2, 0.3), outer=make_ball(2, 3.0), offset=2.5)
    cases = {0.005: (build_parallel_table(_offset_ball(0.005)), 0.8, 1.8, 0.005),
             0.1: (rfk_tables["offset_0.1"], 0.8, 1.8, 0.1),
             0.2: (rfk_tables["offset_0.2"], 0.8, 1.8, 0.2),
             "turned": (build_parallel_table(_offset_ball(0.2, 0.1234)), 0.8, 1.8, 0.2),
             "far": (build_parallel_table(far), 0.3, 3.0, 2.5)}
    for key, (table, r, R, offset) in cases.items():
        assert table.delta0 == pytest.approx(R + offset - r, abs=1e-12), key
        exact = np.array([offset_ball_parallel_length(r, R, offset, d)
                          for d in table.deltas])
        err = np.abs(table.L - exact)
        assert np.max(err[:-1]) <= min(1e-11, table.L_err), key
        assert err[-1] <= 1e-6, key


def test_parallel_length_sees_arcs_between_rays():
    # turned by 0.1234, the nearest point of the outer ball lies between two
    # of 64 rays; just past the first exit 0.8 the parallel leaves the domain
    # on an arc narrower than their spacing, which neither ray sees but the
    # field's ray at the exit's minimum does
    dom = _offset_ball(0.2, 0.1234)
    deltas = 0.8 + np.array([1e-6, 1e-5, 3e-5])
    exact = np.array([offset_ball_parallel_length(0.8, 1.8, 0.2, d) for d in deltas])
    assert np.max(np.abs(parallels._lengths(dom, distance_field(dom, 64), deltas) - exact)) <= 1e-11


def test_parallel_length_fourier_hole_steiner(rfk_domains, rfk_fields, rfk_tables):
    # until the first ray leaves the domain, the parallel is the whole
    # normal-flow curve: L = L0 cosh + (2 pi + area) sinh (Gauss-Bonnet)
    for name in ("hole_eps_0.05", "hole_eps_0.1"):
        table = rfk_tables[name]
        hole = boundary_measures(rfk_domains[name].inner)
        rows = table.deltas < np.min(rfk_fields[name].values)
        assert np.sum(rows) > 100, name
        d = table.deltas[rows]
        steiner = hole["perimeter"] * np.cosh(d) + (2 * math.pi + hole["volume"]) * np.sinh(d)
        assert np.max(np.abs(table.L[rows] - steiner)) <= 1e-12, name


def test_parallel_length_at_any_delta_below_first_exit():
    # L at distances off any table row: below the oval hole's first exit it
    # is Steiner's formula, whatever the rays
    fld = distance_field(OVAL_HOLE, RAY_COUNTS[0])
    deltas = np.sort(np.random.default_rng(5).uniform(0.0, 0.9 * np.min(fld.values), 40))
    hole = boundary_measures(OVAL_HOLE.inner)
    steiner = hole["perimeter"] * np.cosh(deltas) + (2 * math.pi + hole["volume"]) * np.sinh(deltas)
    assert np.max(np.abs(parallels._lengths(OVAL_HOLE, fld, deltas) - steiner)) <= 1e-12


@pytest.fixture(scope="module")
def petals_table():
    return build_parallel_table(PETALS, n_deltas=17)


def test_parallel_length_nonconvex_outer_matches_grid_oracle(petals_table):
    # each return of a ray into the petals adds to L
    fld = distance_field(PETALS, petals_table.grid_res)
    assert np.sum(np.isfinite(fld.reentries[:, 0])) > 100
    grid = grid_distance_field(PETALS, 1024)
    R = annulus_match(PETALS)[1]
    tol = 4.0 * grid.cell * 2.0 / (1.0 - math.tanh(R / 2.0) ** 2)
    table = petals_table
    for delta, length in zip(table.deltas[1:-1], table.L[1:-1]):
        assert length == pytest.approx(grid_parallel_length(grid, delta), abs=tol), delta


def test_parallel_length_petals_settles_at_round_off(petals_table):
    # the petal tips' arcs are narrower than 64 rays' spacing, but at 17
    # rows the doubling reaches rays that bracket every arc end: L_err at
    # its floor, and L as on twice the rays
    table = petals_table
    assert RAY_COUNTS[0] < table.grid_res <= RAY_COUNTS[-1]
    assert table.L_err == ROUNDOFF_RTOL * np.max(table.L)
    finer = parallels._lengths(PETALS, distance_field(PETALS, 2 * table.grid_res), table.deltas)
    assert np.max(np.abs(table.L - finer)[:-1]) <= 1e-12


def test_error_estimate_settles_at_the_first_ray_count():
    # exact arc ends: 64 rays bracket every one, so the table stops there,
    # and its L_err bounds the change to 8192 rays below delta0
    for dom in (OFFSET_BALL, AnnularDomain2D(inner=Body2D(a0=0.8, cos=[0.0, 0.1]),
                                             outer=make_ball(2, 1.8))):
        table = build_parallel_table(dom, n_deltas=64)
        assert table.grid_res == RAY_COUNTS[0] == 64
        dense = parallels._lengths(dom, distance_field(dom, RAY_COUNTS[-1]), table.deltas)
        assert np.max(np.abs(table.L - dense)[:-1]) <= table.L_err


def test_parallel_table_memory_and_mask_oracle(rfk_domains, monkeypatch):
    # the arc ends each delta cuts come from searchsorted runs, not from a
    # deltas-by-pieces mask: the table stays within a few MiB, and L is
    # bit-identical to the one summed over the mask's pairs
    dom = rfk_domains["offset_0.2"]
    tracemalloc.start()
    try:
        table = build_parallel_table(dom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20
    monkeypatch.setattr(parallels, "_cuts", masked_cuts)
    reference = build_parallel_table(dom)
    assert np.array_equal(table.L, reference.L)
    assert table.L_err == reference.L_err


def test_cuts_match_the_mask_on_edge_cases():
    # repeated deltas, pieces touching a delta at either end, empty runs
    deltas = np.array([0.0, 0.0, 0.5, 1.0, 1.0, 2.0])
    near = np.array([0.0, 0.5, 0.2, 1.0, 2.0, 3.0, -1.0])
    far = np.array([0.5, 0.5, 1.0, 2.0, 2.5, 4.0, 0.0])
    row, k = parallels._cuts(deltas, near, far)
    mask_row, mask_k = masked_cuts(deltas, near, far)
    order = np.lexsort((k, row))
    assert np.array_equal(row[order], mask_row) and np.array_equal(k[order], mask_k)


def test_parallel_length_matches_body_oracle_when_interior(concentric_field):
    # for deltas where the parallel set stays inside the domain, the level
    # length equals the parallel perimeter of the hole
    hole = make_ball(2, 0.5)
    for delta in (0.2, 0.6):
        expect = parallel_perimeter_direct(hole, delta)
        got = parallels._lengths(CONCENTRIC, concentric_field, [delta])[0]
        assert got == pytest.approx(expect, rel=1e-12)


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


def test_interior_coords_concentric():
    table = build_parallel_table(CONCENTRIC, n_deltas=192)
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
                          R_match=1.5, grid_res=0, L_err=1e-3, delta0_err=1e-3)
    coords = interior_coords(table, 2.0)
    assert np.allclose(coords.M, deltas / 3.0, atol=1e-14)


def test_interior_coords_rejects_interior_vanishing():
    deltas = np.linspace(0.0, 1.0, 65)
    L = np.full_like(deltas, 2.0)
    L[30] = 0.0
    table = ParallelTable(deltas=deltas, L=L, delta0=1.0, Ltilde=L.copy(),
                          r_match=0.5, R_match=1.5, grid_res=0, L_err=1e-3, delta0_err=1e-3)
    with pytest.raises(DataFormatError):
        interior_coords(table, 2.0)


def test_interior_coords_rejects_inadmissible_exponents():
    # p = inf used to give NaN coordinates without an error or a warning
    deltas = np.linspace(0.0, 1.0, 65)
    L = np.full_like(deltas, 3.0)
    table = ParallelTable(deltas=deltas, L=L, delta0=1.0, Ltilde=L.copy(),
                          r_match=0.5, R_match=1.5, grid_res=0, L_err=1e-3, delta0_err=1e-3)
    for p in (math.inf, math.nan, 1.0, 0.5):
        with pytest.raises(DomainValidationError, match="exponent"):
            interior_coords(table, p)


def test_mtilde_below_m_tablewise(rfk_tables):
    for name, table in rfk_tables.items():
        coords = interior_coords(table, 2.0)
        m_at = np.interp(coords.deltas_tilde, coords.deltas, coords.M)
        slack = 1e-3 * max(coords.Mtilde_star, 1e-30)
        mask = coords.deltas_tilde <= coords.deltas[-1]
        assert np.all(coords.Mtilde[mask] <= m_at[mask] + slack), name


def test_parallel_table_l_below_ltilde(rfk_tables):
    for name, table in rfk_tables.items():
        tol = table.L_err
        inside = table.deltas <= (table.R_match - table.r_match)
        assert np.all(table.L[inside] <= table.Ltilde[inside] + tol), name


def test_delta0_exceeds_annulus_gap(rfk_tables):
    for name, table in rfk_tables.items():
        gap = table.R_match - table.r_match
        assert table.delta0 >= gap - table.delta0_err, name
        if name != "concentric":
            assert table.delta0 > gap + 0.005, name
        else:
            assert table.delta0 == pytest.approx(gap, abs=1e-4)


def test_comparison_functions_ordered(rfk_tables):
    for name, table in rfk_tables.items():
        coords = interior_coords(table, 2.0)
        beta, G, Gt = comparison_functions(table, coords)
        tol = table.L_err
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
    # hersch_bound takes its gradient term as the annulus numerator: in the
    # transplanted coordinate, int |f'(beta)|^p dbeta on the Mtilde grid,
    # with f' = v' Ltilde^(p'-1) from the shot's steps, must equal it
    from horokit.shell import ShellSpec, _continuous_extension, radial_integrals, shell_eigen
    for name in ("offset_0.2", "hole_eps_0.1"):
        table = rfk_tables[name]
        r, R = table.r_match, table.R_match
        for p in (1.5, 2.0, 3.0):
            steps = shell_eigen(ShellSpec(n=2, p=p, r=r, R=R)).steps
            coords = interior_coords(table, p)
            t = r + coords.deltas_tilde
            flux = _continuous_extension(steps, t)[1]
            pc = p / (p - 1.0)
            fprime = (np.abs(flux) / np.sinh(t)) ** (pc - 1.0) * (2 * math.pi * np.sinh(t)) ** (pc - 1.0)
            numerator_beta = np.trapezoid(fprime ** p, coords.Mtilde)
            numerator = 2 * math.pi * radial_integrals(2, p, steps)[0]
            assert numerator_beta == pytest.approx(numerator, rel=5e-8), (name, p)


def test_hersch_bound_rejects_mismatched_profile():
    from horokit.shell import ShellSpec, shell_eigen
    table = build_parallel_table(CONCENTRIC, n_deltas=64)
    wrong = shell_eigen(ShellSpec(n=2, p=2.0, r=0.3, R=1.1))
    with pytest.raises(DataFormatError):
        hersch_bound(table, 2.0, shell_result=wrong)


def test_hersch_bound_refuses_a_result_without_a_profile():
    # the bound reads the shot's steps and the shell's (n, r, R, p): a result
    # without them is refused, not taken on the table's own values
    from dataclasses import replace
    from horokit.fem2d import build_mesh, eigen_p2
    from horokit.shell import EigResult, ShellSpec, shell_eigen
    table = build_parallel_table(CONCENTRIC, n_deltas=64)
    shell = shell_eigen(ShellSpec(n=2, p=2.0, r=table.r_match, R=table.R_match))
    no_outer = {k: v for k, v in shell.meta.items() if k != "R"}
    for result in (EigResult(tau1=1.0), eigen_p2(build_mesh(CONCENTRIC, 0.1)),
                   replace(shell, steps=None), replace(shell, meta=no_outer)):
        with pytest.raises(DataFormatError):
            hersch_bound(table, 2.0, shell_result=result)
    assert hersch_bound(table, 2.0, shell_result=shell) == hersch_bound(table, 2.0)


def test_rfk_verdict_low_resolution_smoke():
    table = build_parallel_table(CONCENTRIC, n_deltas=64)
    report = rfk_verdict(CONCENTRIC, 2.0, table=table)
    assert report.chain_ok
    assert report.equality_detected
    assert report.r == pytest.approx(0.5, rel=1e-6)
    # the reported resolutions are those of the table the chain ran on
    assert report.meta["n_deltas"] == 64
    assert report.meta["grid_res"] == table.grid_res == 64
    assert report.meta["L_err"] == table.L_err


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
                          R_match=1.5, grid_res=0, L_err=1e-3, delta0_err=1e-3)
    coords = interior_coords(table, 3.0)
    assert np.allclose(coords.M, deltas / 2.0, atol=1e-14)
