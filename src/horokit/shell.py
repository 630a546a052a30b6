"""First eigenvalue of the mixed problem on concentric spherical shells.

The eigenfunction of the inner-Dirichlet / outer-Neumann p-Laplacian on
B_R \\ B_r is radial, reducing the problem to

    (sinh^{n-1} t |v'|^{p-2} v')' + tau sinh^{n-1} t |v|^{p-2} v = 0,
    v(r) = 0,  v'(R) = 0.

The solver shoots in the flux variable W = sinh^{n-1} t |v'|^{p-2} v'
(which stays C^1 through critical points of v) and takes tau_1 as the one
sign change of the outer flux: W(R), or -1 once v crosses zero inside the
shell. While v > 0, W' = -tau sinh^{n-1} t v^{p-1} < 0, so once W turns
negative it stays negative until v crosses zero. By half-linear Sturm
theory (Walter, Math. Z. 227, 1998) the Prüfer phase at R grows strictly
with tau and passes pi_p/2 at tau_1, so the outer flux is > 0 for every
tau < tau_1 and < 0 for every tau > tau_1. Brent's method therefore
converges on any bracket of that sign change, and no bisection onto the
first branch is needed.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .core import check_dimension
from .errors import DomainValidationError, NumericError, SearchError

DENSE_POINTS = 512
SEARCH_MAX_ITER = 200      # bracket expansions, and brentq's iterations
RAYLEIGH_POINTS = 4096     # trapezoid nodes of rayleigh_quotient_radial


@dataclass(frozen=True)
class ShellSpec:
    """Concentric geodesic annulus B_R \\ B_r with exponent p."""

    n: int
    p: float
    r: float
    R: float

    def __post_init__(self):
        check_dimension(self.n)
        if not 1.0 < self.p < np.inf:
            raise DomainValidationError(f"exponent p must be finite and exceed 1, got {self.p}")
        if not 0.0 < self.r < self.R < np.inf:
            raise DomainValidationError(f"need finite 0 < r < R, got r={self.r}, R={self.R}")


@dataclass(frozen=True)
class EigResult:
    """Eigenvalue with a sampled eigenfunction and solver diagnostics.

    Radial solves fill (t, v, dv); mesh solves fill u with nodal values.
    """

    tau1: float
    t: np.ndarray = None
    v: np.ndarray = None
    dv: np.ndarray = None
    u: np.ndarray = None
    residuals: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def _integrate(spec, tau, rtol=1e-11, atol=1e-13, dense=False, slope=1.0):
    """Shoot once from v(r) = 0, v'(r) = slope; stop early if v crosses zero."""
    n, p, r, R = spec.n, spec.p, spec.r, spec.R
    expo, pm1, nm1 = 1.0 / (p - 1.0), p - 1.0, n - 1
    sinh, copysign = math.sinh, math.copysign

    # Python floats: numpy scalar ufuncs cost about three times as much per
    # call. A float power raises where numpy returned inf, and an infinite
    # slope only makes solve_ivp reject the trial step (p near 1 needs that).
    def rhs(t, y):
        v, W = y.tolist()
        s = sinh(t) ** nm1
        try:
            dv = (abs(W) / s) ** expo
        except OverflowError:
            dv = math.inf
        try:
            f = abs(v) ** pm1
        except OverflowError:
            f = math.inf
        return (copysign(dv, W), -tau * s * copysign(f, v))

    eps = 1e-9 * (R - r)

    def crossing(t, y):
        return y[0] if t > r + eps else 1.0

    crossing.terminal = True
    crossing.direction = -1.0

    flux0 = np.sinh(r) ** (n - 1) * abs(slope) ** (p - 2.0) * slope
    try:
        sol = solve_ivp(rhs, (r, R), [0.0, flux0], rtol=rtol, atol=atol,
                        events=crossing, dense_output=dense, max_step=(R - r) / 40.0)
    except ArithmeticError as exc:  # sinh overflow or a zero weight in rhs
        raise NumericError(f"radial integration failed: {exc}") from exc
    if not sol.success and len(sol.t_events[0]) == 0:
        raise NumericError(f"radial integration failed: {sol.message}")
    crossed = len(sol.t_events[0]) > 0
    return sol, crossed


def _outer_flux(spec, tau, slope=1.0):
    """Signed outer flux of one shot: W(R), or -1 if v crosses zero first.

    It is > 0 below tau_1 and < 0 above it (see the module docstring).
    """
    sol, crossed = _integrate(spec, tau, slope=slope)
    return -1.0 if crossed else float(sol.y[1][-1])


def shell_eigen(spec, tol=1e-12, initial_slope=1.0):
    """Locate tau_1 and return the eigenvalue with its radial profile.

    The bracket starts from the flat-interval estimate (pi/(2(R-r)))^2 and
    expands geometrically until _outer_flux changes sign; brentq then zeroes
    it directly, since it is positive below tau_1 and negative above it.
    tol is relative: xtol = tol * lo, lo being the final lower bracket end,
    which lies below tau_1 because the flux is positive there.
    Each tau is shot once per call; meta["integrations"] counts every
    solve_ivp call, including the dense final one and its re-integration.
    initial_slope only rescales the eigenfunction (the problem is
    homogeneous), which makes it a cheap simplicity cross-check.

    residuals["flux_outer"] = |W(R)| / max|W| is the quantity the root
    search zeroes. residuals["bc_outer"] = |v'(R)| =
    (|W(R)| / sinh^{n-1} R)^{1/(p-1)} takes it to the power 1/(p-1), which
    lifts a tiny flux far from 0 once p > 2: on the 0.5/1.5 shell it reads
    about 1e-4 at p = 5, 0.02 at p = 10 and 0.4 at p = 40 on converged
    roots whose flux_outer is below 2e-15. It measures convergence only
    for moderate p.
    """
    if initial_slope <= 0.0:
        raise DomainValidationError("initial slope must be > 0")
    n, p, r, R = spec.n, spec.p, spec.r, spec.R
    half_wave = np.pi / (2.0 * (R - r))
    tau_flat = half_wave * half_wave
    if not tau_flat < np.inf:
        raise DomainValidationError(f"shell of width {R - r} is too thin to solve")
    fluxes = {}

    def flux_at_R(tau):
        if tau not in fluxes:
            fluxes[tau] = _outer_flux(spec, tau, slope=initial_slope)
        return fluxes[tau]

    lo, hi = 0.5 * tau_flat, 4.0 * tau_flat
    budget = SEARCH_MAX_ITER
    while flux_at_R(lo) < 0.0:
        lo /= 4.0
        budget -= 1
        if budget <= 0 or lo < 1e-300:
            raise SearchError("no lower bracket for the shell eigenvalue")
    while flux_at_R(hi) > 0.0:
        hi *= 4.0
        budget -= 1
        if budget <= 0 or hi > 1e12 * tau_flat:
            raise SearchError("no upper bracket for the shell eigenvalue")

    xtol = tol * lo
    if not 0.0 < xtol < np.inf:
        raise DomainValidationError(f"need a finite tol > 0 that keeps tol * {lo:.3g} "
                                    f"(the lower bracket end) > 0, got tol={tol}")
    tau1 = brentq(flux_at_R, lo, hi, xtol=xtol, rtol=8.9e-16, maxiter=SEARCH_MAX_ITER)

    sol, crossed = _integrate(spec, tau1, dense=True, slope=initial_slope)
    if crossed:
        raise NumericError("interior zero at the converged eigenvalue; wrong branch")
    t = np.linspace(r, R, DENSE_POINTS)
    y = sol.sol(t)
    v, W = y[0], y[1]
    if np.any(v[1:] < 0.0):
        raise NumericError("profile fails interior positivity; wrong branch")
    s = np.sinh(t) ** (n - 1)
    dv = np.sign(W) * (np.abs(W) / s) ** (1.0 / (p - 1.0))
    # re-integration at looser tolerance bounds the ODE error
    sol_f, _ = _integrate(spec, tau1, rtol=1e-9, atol=1e-11, dense=True,
                          slope=initial_slope)
    ode_max = float(np.max(np.abs(sol_f.sol(t)[0] - v)))
    residuals = {
        "bc_inner": float(abs(v[0])),
        "bc_outer": float(abs(dv[-1])),
        "flux_outer": float(abs(W[-1]) / np.max(np.abs(W))),
        "ode_max": ode_max,
    }
    meta = {"n": n, "p": p, "r": r, "R": R, "dense_points": DENSE_POINTS,
            "bracket": (float(lo), float(hi)), "tol": tol,
            "integrations": len(fluxes) + 2}
    return EigResult(tau1=float(tau1), t=t, v=v, dv=dv, residuals=residuals, meta=meta)


def radial_profile_eval(res, t):
    """Monotone-cubic interpolation of the stored profile; exact at nodes."""
    t_arr = np.asarray(t, dtype=float)
    lo, hi = res.t[0], res.t[-1]
    if np.any(t_arr < lo - 1e-12) or np.any(t_arr > hi + 1e-12):
        raise DomainValidationError(f"evaluation point outside [{lo}, {hi}]")
    interp = PchipInterpolator(res.t, res.v)
    return interp(np.clip(t_arr, lo, hi))


def rayleigh_quotient_radial(spec, res):
    """Rayleigh quotient of the stored profile in the shell weight sinh^{n-1}."""
    t = np.linspace(spec.r, spec.R, RAYLEIGH_POINTS)
    v = PchipInterpolator(res.t, res.v)(t)
    dv = PchipInterpolator(res.t, res.dv)(t)
    w = np.sinh(t) ** (spec.n - 1)
    num = np.trapezoid(np.abs(dv) ** spec.p * w, t)
    den = np.trapezoid(np.abs(v) ** spec.p * w, t)
    return float(num / den)
