"""Checks of horokit's reports against the benchmark's own oracles.

Each check takes the values a command reported and the inputs it was given,
raises CheckError on a wrong answer, and returns the accuracy figures it
measured on the way (merged into the per-layer metrics by maximum).
Tolerances come from the methods: the grid-cell slack of the parallel
table, the Richardson-extrapolated pencil, the Simpson error of a 512-point
profile, and the ordering-chain slack CHAIN_RTOL.
"""

import math

import numpy as np

import oracles as ora

CHAIN_RTOL = 2e-3          # ordering-chain slack, as in horokit.parallels
SHELL_RTOL = 1e-6          # eig-shell against the pencil / profile quadrature
MATCH_RTOL = 1e-9          # closed forms the program evaluates exactly
NAGY_RTOL = 1e-8           # margin slack and direct-vs-oracle perimeters
ENERGY_RTOL = 1e-6         # 1024-point trapezoid rule in parallel_bound_energy
CONCENTRIC_FEM_RTOL = 1e-2  # P1 upper bound above the shell value at h = 0.03


class CheckError(Exception):
    """A report disagrees with what the benchmark computed apart from horokit."""


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _rel(a, b):
    return abs(a - b) / abs(b)


def table_tolerance(outer_R, offset, grid_res):
    """ParallelTable.comparison_tolerance() rebuilt from the domain geometry.

    4 lambda(R) times the chart cell of a grid spanning the outer ball's
    chart extent tanh((offset + R)/2), padded as the distance field pads it.
    """
    extent = min(math.tanh((offset + outer_R) / 2.0) * 1.005 + 2e-3, 0.999)
    cell = 2.0 * extent / (grid_res - 1)
    lam = 2.0 / (1.0 - math.tanh(outer_R / 2.0) ** 2)
    return 4.0 * lam * cell


def check_chain(report, rows, hole_r, outer_R, offset, grid_res, n_deltas):
    """rfk on an offset-ball domain: matched radii, tau(annulus), L rows, chain.

    rows are (delta, L, Ltilde) from parallels.csv.  The last row sits at
    delta0 (1 - 1e-9), where the marching-squares length is known to exceed
    the table tolerance; it is measured, not gated.
    """
    _require(_rel(report["r"], hole_r) <= MATCH_RTOL, f"matched r {report['r']} != {hole_r}")
    _require(_rel(report["R"], outer_R) <= MATCH_RTOL, f"matched R {report['R']} != {outer_R}")
    tau_ann = report["tau_annulus"]
    tau_ref = ora.pencil_shell_eigen_p2(2, hole_r, outer_R)
    tau_err = _rel(tau_ann, tau_ref)
    _require(tau_err <= SHELL_RTOL, f"tau(annulus) {tau_ann} vs pencil {tau_ref}")

    _require(len(rows) == n_deltas, f"{len(rows)} table rows, expected {n_deltas}")
    tol = table_tolerance(outer_R, offset, grid_res)
    reach = ora.offset_ball_reach(hole_r, outer_R, offset)
    _require(abs(rows[-1][0] - reach) <= tol / 4.0,  # one cell, in hyperbolic length
             f"delta0 {rows[-1][0]} vs reach {reach}")
    worst = 0.0
    for i, (delta, length, length_tilde) in enumerate(rows):
        exact = ora.offset_ball_parallel_length(hole_r, outer_R, offset, delta)
        err = abs(length - exact)
        worst = max(worst, err)
        if i < len(rows) - 1:
            _require(err <= tol, f"L({delta}) = {length}, exact {exact}, tolerance {tol}")
        ann = 2.0 * math.pi * math.sinh(hole_r + delta) if delta <= outer_R - hole_r else 0.0
        _require(abs(length_tilde - ann) <= MATCH_RTOL * max(ann, 1.0),
                 f"Ltilde({delta}) = {length_tilde}, exact {ann}")

    slack = CHAIN_RTOL * tau_ann
    tau_dom, bound = report["tau_omega"], report["hersch_bound"]
    _require(tau_dom <= bound + slack, f"tau(domain) {tau_dom} above bound {bound}")
    _require(bound <= tau_ann + slack, f"bound {bound} above tau(annulus) {tau_ann}")
    _require(report["chain_ok"] is True, "chain_ok is not true")
    return {"parallels.L_max_abs_err": worst, "shell.tau_max_rel_err": tau_err}


def check_shell(report, profile, n, p, r, R):
    """eig-shell: the pencil at p = 2, the profile's own Rayleigh quotient otherwise."""
    tau = report["tau1"]
    t, v, dv = np.asarray(profile, dtype=float).T
    _require(abs(t[0] - r) <= 1e-12 and abs(t[-1] - R) <= 1e-12, "profile off the shell")
    ref = ora.pencil_shell_eigen_p2(n, r, R) if p == 2.0 else \
        ora.radial_rayleigh_quotient(n, p, t, v, dv)
    err = _rel(tau, ref)
    _require(err <= SHELL_RTOL, f"tau1 {tau} vs reference {ref} (n={n}, p={p})")
    return {"shell.tau_max_rel_err": err}


def check_concentric_fem(tau_fem, tau_shell):
    """P1 value on a concentric annulus: an upper bound, at most 1 % above."""
    gap = (tau_fem - tau_shell) / tau_shell
    _require(0.0 <= gap <= CONCENTRIC_FEM_RTOL,
             f"FEM {tau_fem} is {gap:+.3%} from the shell value {tau_shell}")
    return {}


def check_hole_fem(tau_fem, tau_annulus):
    """Non-round hole: the P1 value stays below tau of the matched annulus."""
    _require(tau_fem <= tau_annulus, f"FEM {tau_fem} above matched annulus {tau_annulus}")
    return {}


def matched_annulus(hole_params, outer_R):
    """(r, R) with P(B_r) = P(hole) and |B_R \\ B_r| = |ball_R \\ hole|."""
    length = ora.fourier_parallel_perimeter(hole_params, 0.0)
    area = 2.0 * math.pi * (math.cosh(outer_R) - 1.0) - ora.fourier_area(hole_params)
    r = math.asinh(length / (2.0 * math.pi))
    return r, math.acosh(math.cosh(r) + area / (2.0 * math.pi))


def check_nagy(report, n, params, kind):
    """nagy: ball side, margins, direct perimeters, Steiner form, equality flag.

    kind is "ball", "fourier2d" or "revolution"; params as in the spec.
    """
    _require(report["verdict"] is True, "verdict is not true")
    rows = report["rows"]
    r_star = report["r_star"]
    if kind == "ball":
        _require(_rel(r_star, params["r"]) <= MATCH_RTOL, f"r_star {r_star} != {params['r']}")
    elif kind == "fourier2d":
        own = math.asinh(ora.fourier_parallel_perimeter(params, 0.0) / (2.0 * math.pi))
        _require(_rel(r_star, own) <= MATCH_RTOL, f"r_star {r_star} != {own}")
    for row in rows:
        delta = row["delta"]
        ball = ora.ball_perimeter(n, r_star + delta)
        _require(_rel(row["P_Kstar"], ball) <= MATCH_RTOL, f"P(K*_{delta}) {row['P_Kstar']} != {ball}")
        _require(abs(row["margin"] - (ball - row["P_K"])) <= NAGY_RTOL * ball,
                 f"margin at {delta} is not P(K*) - P(K)")
        _require(row["margin"] >= -NAGY_RTOL * ball, f"margin {row['margin']} at {delta}")
        if kind == "revolution":
            own = ora.revolution_parallel_perimeter(n, params, delta)
        elif kind == "fourier2d":
            own = ora.fourier_parallel_perimeter(params, delta)
        else:
            own = ora.ball_perimeter(n, params["r"] + delta)
        _require(_rel(row["P_K"], own) <= NAGY_RTOL, f"P(K_{delta}) {row['P_K']} vs flow {own}")
    _require(report["equality_detected"] is (kind == "ball"),
             f"equality_detected is {report['equality_detected']} on a {kind} body")
    dev = ora.steiner_fit_max_rel_dev(n, [row["delta"] for row in rows],
                                      [row["P_K"] for row in rows])
    _require(dev <= NAGY_RTOL, f"direct perimeters leave the Steiner form by {dev}")
    return {"nagy.steiner_max_rel_dev": dev}


def check_insulation(report, n, params, kind, delta, beta, p):
    """insulation: ball side by quadrature, body side against a parallel test function.

    On a planar Fourier core the parallel perimeters follow Steiner's
    formula L cosh s + (2 pi + A) sinh s exactly, and the FEM energy must not
    exceed the energy of that admissible test function.  On a revolution
    core the program reports that test-function energy itself, which the
    normal-flow perimeters reproduce.
    """
    e_body, e_ball, margin = report["energy_body"], report["energy_ball"], report["margin"]
    _require(abs(margin - (e_ball - e_body)) <= 1e-12 * e_ball, "margin is not E(ball) - E(body)")
    _require(margin >= 0.0, f"margin {margin} < 0")
    r_star = report["r_star"]
    if kind == "fourier2d":
        length = ora.fourier_parallel_perimeter(params, 0.0)
        own = math.asinh(length / (2.0 * math.pi))
        _require(_rel(r_star, own) <= MATCH_RTOL, f"r_star {r_star} != {own}")
        curvature = 2.0 * math.pi + ora.fourier_area(params)
        bound = ora.constant_flux_energy(
            lambda s: length * math.cosh(s) + curvature * math.sinh(s), delta, beta, p)
        _require(e_body <= bound, f"E(body) {e_body} above the parallel test function {bound}")
    elif kind == "revolution":
        _require(report["one_sided"] is True, "revolution core not reported one-sided")
        bound = ora.constant_flux_energy(
            lambda s: ora.revolution_parallel_perimeter(n, params, s), delta, beta, p)
        _require(_rel(e_body, bound) <= ENERGY_RTOL, f"E(body) {e_body} vs {bound}")
    ball = ora.ball_shell_energy(n, p, r_star, delta, beta)
    _require(_rel(e_ball, ball) <= MATCH_RTOL, f"E(ball) {e_ball} vs quadrature {ball}")
    return {}
