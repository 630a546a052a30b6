"""Acceptance suite: one test per criterion, one printed line each.

Heavy pipeline artifacts (normal-ray fields, parallel tables, annulus
comparisons for the five benchmark domains) come from session fixtures so
the full suite stays inside its runtime budget.
"""

import math
import time

import numpy as np

from horokit.core import ball_perimeter, ball_quermass, ball_volume, sphere_measure
from horokit.bodies import (
    AnnularDomain2D,
    boundary_measures,
    make_ball,
    parallel_perimeter,
    parallel_perimeter_direct,
)
from horokit.nagy import af_check, isoperimetric_check_2d, nagy_table
from horokit.shell import ShellSpec, shell_eigen
from horokit.fem2d import build_mesh, eigen_p2
from horokit.insulation import (
    InsulationSpec,
    fem_energy_p2,
    insulation_verdict,
    radial_energy,
    radial_energy_closed_form,
)
from horokit.parallels import interior_coords, comparison_functions

from conftest import hconvex_bodies_rev


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


def test_criterion_01_ball_oracles():
    t0 = time.time()
    ok = abs(ball_volume(2, 1.0) - 2 * math.pi * (math.cosh(1) - 1)) \
        <= 1e-10 * ball_volume(2, 1.0)
    ok &= abs(ball_perimeter(2, 1.0) - 2 * math.pi * math.sinh(1)) \
        <= 1e-10 * ball_perimeter(2, 1.0)
    ok &= abs(ball_perimeter(3, 1.0) - 4 * math.pi * math.sinh(1) ** 2) \
        <= 1e-10 * ball_perimeter(3, 1.0)
    worst = 0.0
    for n in (2, 3, 4, 5):
        target = sphere_measure(n - 1) / n
        for r in (0.1, 0.5, 1.0, 2.0, 4.0):
            worst = max(worst, abs(ball_quermass(n, r)[n] - target) / target)
    ok &= worst <= 1e-10
    elapsed = time.time() - t0
    _report(1, "ball oracles and terminal identity", ok and elapsed < 1.0,
            f"terminal worst {worst:.1e}, {elapsed:.2f}s")


def test_criterion_02_steiner_consistency(convex_suite_2d):
    t0 = time.time()
    bodies = list(convex_suite_2d) + hconvex_bodies_rev(3)
    assert len(bodies) == 15
    worst = 0.0
    deltas = [0.0, 0.5, 1.0, 1.5, 2.0]
    for body in bodies:
        poly = parallel_perimeter(body, deltas)
        worst = max(worst, float(np.max(np.abs(parallel_perimeter_direct(body, deltas) - poly)
                                        / poly)))
    ok = worst <= 4e-14  # the two forms agree within 4.3e-16 here
    ball_worst = 0.0
    for n, r in ((2, 1.0), (3, 0.7)):
        for delta in (0.3, 1.0, 2.0):
            expect = ball_perimeter(n, r + delta)
            got = parallel_perimeter_direct(make_ball(n, r), delta)
            ball_worst = max(ball_worst, abs(got - expect) / expect)
    ok &= ball_worst <= 1e-10
    elapsed = time.time() - t0
    _report(2, "parallel perimeter: direct vs polynomial", ok and elapsed < 10.0,
            f"body worst {worst:.1e}, ball worst {ball_worst:.1e}, {elapsed:.1f}s")


def test_criterion_03_isoperimetric(random_suite_2d):
    t0 = time.time()
    assert len(random_suite_2d) == 100
    worst = np.inf
    for body in random_suite_2d:
        p = boundary_measures(body)["perimeter"]
        deficit = isoperimetric_check_2d(body)
        worst = min(worst, deficit / p ** 2)
    ok = worst >= -1e-9
    ball_dev = max(abs(isoperimetric_check_2d(make_ball(2, r))) for r in (0.4, 1.0, 1.9))
    ok &= ball_dev <= 1e-9
    elapsed = time.time() - t0
    _report(3, "isoperimetric deficit on 100 random bodies",
            ok and elapsed < 10.0,
            f"min scaled deficit {worst:.1e}, ball dev {ball_dev:.1e}, {elapsed:.1f}s")


def test_criterion_04_quermass_comparisons(hconvex_suite_n3, hconvex_suite_n4):
    t0 = time.time()
    worst = np.inf
    for body in [*hconvex_suite_n3, *hconvex_suite_n4]:
        n = body.n
        for i in range(n):
            for j in range(i + 1, n):
                worst = min(worst, af_check(body, i, j))
    ok = worst >= -1e-8
    ball_dev = 0.0
    for n in (3, 4):
        ball = make_ball(n, 0.9)
        for i in range(n):
            for j in range(i + 1, n):
                ball_dev = max(ball_dev, abs(af_check(ball, i, j)))
    ok &= ball_dev <= 1e-8
    elapsed = time.time() - t0
    _report(4, "quermass comparison margins (10 h-convex bodies)",
            ok and elapsed < 30.0,
            f"min margin {worst:.1e}, ball dev {ball_dev:.1e}, {elapsed:.1f}s")


def test_criterion_05_parallel_comparison(convex_suite_2d, hconvex_suite_n3):
    t0 = time.time()
    worst = np.inf
    for body in convex_suite_2d:
        rep = nagy_table(body)
        worst = min(worst, float(np.min(rep.margins / rep.p_ball)))
        assert not rep.equality_detected
    perimeter_gap = np.inf
    for body in hconvex_suite_n3:
        rep = nagy_table(body)
        worst = min(worst, float(np.min(rep.margins / rep.p_ball)))
        assert not rep.equality_detected
        p_body = boundary_measures(body)["perimeter"]
        p_ball = ball_perimeter(3, rep.r_star)
        perimeter_gap = min(perimeter_gap, p_ball - p_body)
    ok = worst >= -1e-8 and perimeter_gap > 0.0
    for n, r in ((2, 1.0), (3, 0.8)):
        ok &= nagy_table(make_ball(n, r)).equality_detected
    elapsed = time.time() - t0
    _report(5, "parallel-set comparison tables", ok and elapsed < 30.0,
            f"min scaled margin {worst:.1e}, strict perimeter gap "
            f"{perimeter_gap:.2e}, {elapsed:.1f}s")


def test_criterion_06_cross_solver(shell_benchmark):
    t0 = time.time()
    spec, radial = shell_benchmark
    dom = AnnularDomain2D(inner=make_ball(2, spec.r), outer=make_ball(2, spec.R))
    taus = {h: eigen_p2(build_mesh(dom, h)).tau1 for h in (0.04, 0.02, 0.01)}
    agree = abs(taus[0.01] - radial.tau1) / radial.tau1
    ratio = (taus[0.04] - taus[0.02]) / (taus[0.02] - taus[0.01])
    ok = agree <= 1e-3 and ratio >= 3.0
    elapsed = time.time() - t0
    _report(6, "radial vs finite-element eigenvalue", ok and elapsed < 120.0,
            f"agreement {agree:.2e}, refinement ratio {ratio:.2f}, {elapsed:.1f}s")


def test_criterion_07_annulus_comparison_chain(rfk_reports):
    t0 = time.time()
    ok = True
    details = []
    for name, rep in rfk_reports.items():
        tol = 2e-3 * rep.tau_annulus
        chain = rep.tau_omega <= rep.hersch_bound + tol and \
            rep.hersch_bound <= rep.tau_annulus + tol
        equality_correct = rep.equality_detected == (name == "concentric")
        ok &= chain and equality_correct
        details.append(f"{name}: tau={rep.tau_omega:.5f} bound={rep.hersch_bound:.5f} "
                       f"ann={rep.tau_annulus:.5f}")
    elapsed = time.time() - t0
    _report(7, "eigenvalue ordering chain on 5 domains", ok,
            "; ".join(details) + f", +{elapsed:.1f}s")


def test_criterion_08_parallel_coordinate_lemmas(rfk_tables):
    t0 = time.time()
    ok = True
    for name, table in rfk_tables.items():
        gap = table.R_match - table.r_match
        ok &= gap <= table.delta0 + table.delta0_err
        coords = interior_coords(table, 2.0)
        beta, G, Gt = comparison_functions(table, coords)
        tol = table.L_err
        ok &= bool(np.all(G <= Gt + tol))
        if name != "concentric":
            tail = beta >= 0.75 * beta[-1]
            ok &= float(np.max(Gt[tail] - G[tail])) > 5.0 * tol
    elapsed = time.time() - t0
    _report(8, "reach and comparison-function ordering", ok and elapsed < 120.0,
            f"{elapsed:.1f}s")


def test_criterion_09_insulation(hconvex_suite_n3):
    t0 = time.time()
    worst_cf = 0.0
    for n in (2, 3, 4):
        for beta in (0.5, 2.0):
            e1 = radial_energy(n, 2.0, 1.0, 1.0, beta, n_cells=1024)
            e2 = radial_energy(n, 2.0, 1.0, 1.0, beta, n_cells=2048)
            ext = e2 + (e2 - e1) / 3.0
            cf = radial_energy_closed_form(n, 2.0, 1.0, 1.0, beta)
            worst_cf = max(worst_cf, abs(ext - cf) / cf)
    ok = worst_cf <= 1e-8
    e_fem = fem_energy_p2(make_ball(2, 1.0), 1.0, 1.0, h_mesh=0.01)
    cf = radial_energy_closed_form(2, 2.0, 1.0, 1.0, 1.0)
    fem_dev = abs(e_fem - cf) / cf
    ok &= fem_dev <= 1e-3
    from horokit.bodies import Body2D
    planar_holes = [Body2D(a0=0.8, cos=[0.0, 0.1]),
                    Body2D(a0=0.9, cos=[0.0, 0.0, 0.05]),
                    Body2D(a0=1.0, cos=[0.0, 0.08])]
    min_margin = np.inf
    for hole in planar_holes:
        rep = insulation_verdict(InsulationSpec(p=2.0, body=hole, delta=0.8, beta=1.0))
        min_margin = min(min_margin, rep.margin / rep.energy_ball)
    for hole in hconvex_suite_n3[:2]:
        rep = insulation_verdict(InsulationSpec(p=2.0, body=hole, delta=0.8, beta=1.0))
        assert rep.one_sided
        min_margin = min(min_margin, rep.margin / rep.energy_ball)
    ok &= min_margin >= -1e-6
    elapsed = time.time() - t0
    _report(9, "insulation energy comparison", ok and elapsed < 300.0,
            f"closed-form dev {worst_cf:.1e}, fem dev {fem_dev:.1e}, "
            f"min margin {min_margin:.2e}, {elapsed:.1f}s")


def test_criterion_10_solver_structure(rfk_reports):
    t0 = time.time()
    specs = [ShellSpec(n=2, p=2.0, r=0.5, R=1.5),
             ShellSpec(n=2, p=1.5, r=0.5, R=1.5),
             ShellSpec(n=3, p=1.5, r=0.3, R=1.3),
             ShellSpec(n=3, p=2.0, r=0.8, R=1.6)]
    specs += [ShellSpec(n=2, p=2.0, r=rep.r, R=rep.R) for rep in rfk_reports.values()]
    ok = True
    worst_bc = worst_flux = 0.0
    for spec in specs:
        res = shell_eigen(spec)
        ok &= res.v[0] == 0.0
        ok &= bool(np.all(res.v[1:] > 0.0))
        ok &= bool(np.all(np.diff(res.v) >= -1e-12 * np.max(res.v)))
        worst_bc = max(worst_bc, res.residuals["bc_outer"])
        worst_flux = max(worst_flux, res.residuals["flux_outer"])
    ok &= worst_bc <= 1e-10 and worst_flux <= 1e-12
    elapsed = time.time() - t0
    _report(10, "radial solver structure on every shell run", ok,
            f"worst |v'(R)| {worst_bc:.1e}, worst |W(R)|/max|W| {worst_flux:.1e}, {elapsed:.1f}s")
