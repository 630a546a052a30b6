"""Condensed invariant suite behind `horokit selftest`.

A fast subset of the full test suite: one line per check, nonzero exit on
any failure.  Meant as a smoke test for installations, not a replacement
for pytest.
"""

import math

from .core import ball_perimeter, ball_quermass, ball_volume, sphere_measure
from .bodies import (
    AnnularDomain2D,
    Body2D,
    make_ball,
    boundary_measures,
    parallel_perimeter,
    parallel_perimeter_direct,
    quermassintegrals,
)
from .nagy import isoperimetric_check_2d, nagy_table
from .shell import ShellSpec, shell_eigen, rayleigh_quotient_radial
from .fem2d import build_mesh, eigen_p2, richardson_extrapolate
from .insulation import radial_energy, radial_energy_closed_form
from .spectral import mixed_eigenpair
from .parallels import build_parallel_table


def run(verbose=True):
    checks = []

    def check(name, ok, detail=""):
        checks.append((name, bool(ok)))
        if verbose:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}{(' ' + detail) if detail else ''}")

    v = ball_volume(2, 1.0)
    check("ball volume n=2", abs(v - 2 * math.pi * (math.cosh(1) - 1)) < 1e-12 * v)
    p = ball_perimeter(3, 1.0)
    check("ball perimeter n=3", abs(p - 4 * math.pi * math.sinh(1) ** 2) < 1e-12 * p)

    worst = 0.0
    for n in (2, 3, 4, 5):
        for r in (0.1, 1.0, 4.0):
            qv = ball_quermass(n, r)
            target = sphere_measure(n - 1) / n
            worst = max(worst, abs(qv[n] - target) / target)
    check("quermass terminal identity", worst <= 1e-10, f"worst={worst:.2e}")

    body = Body2D(a0=0.8, cos=[0.0, 0.1])
    deltas = [0.0, 0.3, 1.0, 2.0]
    steiner = parallel_perimeter(body, deltas)
    rel = max(abs(parallel_perimeter_direct(body, deltas) - steiner) / steiner)
    # the two forms agree within 2.8e-16 on this body
    check("parallel perimeter: direct vs polynomial", rel <= 3e-14, f"rel={rel:.2e}")

    deficit = isoperimetric_check_2d(body)
    check("isoperimetric deficit >= 0", deficit >= -1e-9)
    ball_deficit = abs(isoperimetric_check_2d(make_ball(2, 1.0)))
    check("isoperimetric equality on balls", ball_deficit <= 1e-9,
          f"|deficit|={ball_deficit:.2e}")

    rep = nagy_table(body)
    check("parallel comparison verdict (planar convex)", rep.verdict)
    rep_ball = nagy_table(make_ball(2, 1.0))
    check("parallel comparison equality on balls", rep_ball.equality_detected)

    spec = ShellSpec(n=2, p=2.0, r=0.5, R=1.5)
    res = shell_eigen(spec)
    rq = rayleigh_quotient_radial(spec, res)
    check("shell eigenvalue Rayleigh consistency",
          abs(rq - res.tau1) <= 1e-10 * res.tau1, f"tau={res.tau1:.8f}")
    check("shell outer Neumann residual",
          res.residuals["bc_outer"] <= 1e-10 and res.residuals["flux_outer"] <= 1e-12)

    dom = AnnularDomain2D(inner=make_ball(2, 0.5), outer=make_ball(2, 1.5))
    tau_fem = eigen_p2(build_mesh(dom, 0.02)).tau1
    check("cross-solver agreement (coarse mesh)",
          abs(tau_fem - res.tau1) <= 5e-3 * res.tau1,
          f"fem={tau_fem:.6f} radial={res.tau1:.6f}")
    tau_spectral = mixed_eigenpair(dom).value
    rel = abs(tau_spectral - res.tau1) / res.tau1
    check("spectral vs radial eigenvalue", rel <= 1e-10, f"rel={rel:.2e}")

    # ball hole 0.8 in a ball 1.8 offset by 0.2: the parallel circle of
    # radius 0.8 + delta keeps the arc given by the law of cosines
    offset_dom = AnnularDomain2D(inner=make_ball(2, 0.8), outer=make_ball(2, 1.8), offset=0.2)
    table = build_parallel_table(offset_dom, n_deltas=64)
    worst = 0.0
    for delta, length in zip(table.deltas[:-1], table.L[:-1]):
        rho = 0.8 + delta
        a = (math.cosh(rho) * math.cosh(0.2) - math.cosh(1.8)) / (math.sinh(rho) * math.sinh(0.2))
        exact = 2.0 * math.acos(max(-1.0, min(1.0, a))) * math.sinh(rho)
        worst = max(worst, abs(length - exact))
    check("normal-flow parallel length vs law of cosines", worst <= 1e-5, f"max err={worst:.2e}")

    e1 = radial_energy(2, 2.0, 1.0, 1.0, 1.0, n_cells=1024)
    e2 = radial_energy(2, 2.0, 1.0, 1.0, 1.0, n_cells=2048)
    e_ext = richardson_extrapolate(e1, e2)
    e_cf = radial_energy_closed_form(2, 2.0, 1.0, 1.0, 1.0)
    check("insulation 1-D vs closed form", abs(e_ext - e_cf) <= 1e-8 * e_cf,
          f"rel={abs(e_ext - e_cf) / e_cf:.2e}")

    measures = boundary_measures(body)
    w = quermassintegrals(body)
    check("planar quermass conventions",
          abs(w[1] - measures["perimeter"] / 2) <= 1e-10 * w[1]
          and abs(w[2] - math.pi) <= 1e-6 * math.pi)

    failed = [name for name, ok in checks if not ok]
    if verbose:
        print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 0 if not failed else 2
