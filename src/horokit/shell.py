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

Each shot is one run of a scalar Dormand-Prince 5(4) stepper (_dopri45):
the steps, step-size control and 4th-order continuous extension of scipy's
RK45, on a state of two Python floats, without solve_ivp's per-step array
machinery.  The accepted steps of the shot at tau_1 are the profile: its
512 samples and every integral of it come from their continuous extension
(Shampine, Math. Comp. 46, 1986), and radial_integrals applies a 4-node
Gauss-Legendre rule on each step.  The gradient term is integrated in the
flux variable, |v'|^p sinh^{n-1} t = |W|^{p'} sinh^{(n-1)(1-p')} t with
p' = p / (p - 1), so v' is never formed.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import RK45
from scipy.optimize import brentq

from .core import check_dimension, check_exponent, gauss_legendre_nodes
from .errors import DomainValidationError, NumericError, SearchError

DENSE_POINTS = 512
SEARCH_MAX_ITER = 200      # bracket expansions, and brentq's iterations
TAU_RTOL = 1e-12           # brentq's xtol, relative to the lower bracket end

# Dormand-Prince 5(4) tableau and step-size control, as scipy's RK45 has them
RK_C = RK45.C[1:].tolist()
RK_A = [row[:s] for s, row in enumerate(RK45.A.tolist()) if s]
RK_B, RK_E = RK45.B.tolist(), RK45.E.tolist()
RK_ERROR_EXPONENT = -1.0 / (RK45.error_estimator_order + 1)
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
# one accepted step: t_old, h, v_old, W_old and the seven stage slopes (v', W')
_pack_step = struct.Struct("18d").pack


@dataclass(frozen=True)
class ShellSpec:
    """Concentric geodesic annulus B_R \\ B_r with exponent p."""

    n: int
    p: float
    r: float
    R: float

    def __post_init__(self):
        check_dimension(self.n)
        check_exponent(self.p)
        if not 0.0 < self.r < self.R < np.inf:
            raise DomainValidationError(f"need finite 0 < r < R, got r={self.r}, R={self.R}")


@dataclass(frozen=True)
class EigResult:
    """Eigenvalue with a sampled eigenfunction and solver diagnostics.

    Radial solves fill (t, v, dv) and steps, the accepted steps of the shot
    at tau_1 as _dopri45 returns them; mesh solves fill u with nodal values,
    and at p = 2 order, their stiffness factor's order of Mesh.free_nodes.
    """

    tau1: float
    t: np.ndarray = None
    v: np.ndarray = None
    dv: np.ndarray = None
    steps: np.ndarray = None
    u: np.ndarray = None
    order: np.ndarray = None
    residuals: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def _rms(a, b):
    """RMS norm of the pair (a, b), as scipy's RK45 measures its errors."""
    return math.sqrt(0.5 * (a * a + b * b))


def _initial_step(f, t, v, W, fv, fW, span, max_step, rtol, atol):
    """Starting step of Hairer, Norsett & Wanner (Sec. II.4) for RK45."""
    sv, sW = atol + abs(v) * rtol, atol + abs(W) * rtol
    d0, d1 = _rms(v / sv, W / sW), _rms(fv / sv, fW / sW)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    gv, gW = f(t + h0, v + h0 * fv, W + h0 * fW)
    d2 = _rms((gv - fv) / sv, (gW - fW) / sW) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -RK_ERROR_EXPONENT
    return min(100.0 * h0, h1, span, max_step)


def _dopri45(f, t0, t1, y0, rtol, atol, max_step, guard):
    """Integrate (v, W)' = f(t, v, W) from t0 to t1 in the steps of scipy's RK45.

    The Dormand-Prince 5(4) pair with RK45's step control, on Python floats.
    A non-finite error estimate (an overflowing trial slope) is rejected with
    MIN_FACTOR. The shot stops after the first accepted step that ends past
    guard with v <= 0. Returns (W, crossed, steps): W at the end of the last
    step, whether v crossed zero, and the accepted steps for
    _continuous_extension as the rows of an (n_steps, 18) array, packed
    step by step into one buffer (no float objects are kept alive).
    """
    c2, c3, c4, c5, c6 = RK_C
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65) = RK_A
    b1, b2, b3, b4, b5, b6 = RK_B
    e1, e2, e3, e4, e5, e6, e7 = RK_E
    t, (v, W) = t0, y0
    fv, fW = f(t, v, W)
    h_abs = _initial_step(f, t, v, W, fv, fW, t1 - t0, max_step, rtol, atol)
    steps = bytearray()
    while t < t1:
        min_step = 10.0 * math.ulp(t)
        h_abs = max_step if h_abs > max_step else max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise NumericError("radial integration failed: required step size "
                                   "is less than spacing between numbers")
            t_new = min(t + h_abs, t1)
            h = h_abs = t_new - t
            k2v, k2W = f(t + c2 * h, v + a21 * fv * h, W + a21 * fW * h)
            k3v, k3W = f(t + c3 * h, v + (a31 * fv + a32 * k2v) * h,
                         W + (a31 * fW + a32 * k2W) * h)
            k4v, k4W = f(t + c4 * h, v + (a41 * fv + a42 * k2v + a43 * k3v) * h,
                         W + (a41 * fW + a42 * k2W + a43 * k3W) * h)
            k5v, k5W = f(t + c5 * h, v + (a51 * fv + a52 * k2v + a53 * k3v + a54 * k4v) * h,
                         W + (a51 * fW + a52 * k2W + a53 * k3W + a54 * k4W) * h)
            k6v, k6W = f(t + c6 * h,
                         v + (a61 * fv + a62 * k2v + a63 * k3v + a64 * k4v + a65 * k5v) * h,
                         W + (a61 * fW + a62 * k2W + a63 * k3W + a64 * k4W + a65 * k5W) * h)
            v_new = v + h * (b1 * fv + b2 * k2v + b3 * k3v + b4 * k4v + b5 * k5v + b6 * k6v)
            W_new = W + h * (b1 * fW + b2 * k2W + b3 * k3W + b4 * k4W + b5 * k5W + b6 * k6W)
            k7v, k7W = f(t_new, v_new, W_new)
            ev = e1 * fv + e2 * k2v + e3 * k3v + e4 * k4v + e5 * k5v + e6 * k6v + e7 * k7v
            eW = e1 * fW + e2 * k2W + e3 * k3W + e4 * k4W + e5 * k5W + e6 * k6W + e7 * k7W
            error = _rms(ev * h / (atol + max(abs(v), abs(v_new)) * rtol),
                         eW * h / (atol + max(abs(W), abs(W_new)) * rtol))
            if error < 1.0:
                factor = MAX_FACTOR if error == 0.0 else \
                    min(MAX_FACTOR, SAFETY * error ** RK_ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            rejected = True
            h_abs *= max(MIN_FACTOR, SAFETY * error ** RK_ERROR_EXPONENT) \
                if error < math.inf else MIN_FACTOR
        steps += _pack_step(t, h, v, W, fv, fW, k2v, k2W, k3v, k3W, k4v, k4W, k5v, k5W,
                            k6v, k6W, k7v, k7W)
        t, v, W, fv, fW = t_new, v_new, W_new, k7v, k7W
        if t > guard and v <= 0.0:
            return W, True, np.frombuffer(steps).reshape(-1, 18)
    return W, False, np.frombuffer(steps).reshape(-1, 18)


def _continuous_extension(steps, t):
    """RK45's 4th-order interpolant of the accepted steps at the sorted points t.

    Each point takes the polynomial of the step whose interval holds it, and
    points outside all steps that of the nearest one; returns the rows (v, W).
    Each step's stages are contracted with RK45.P once, then gathered per point.
    """
    t_old, h, y_old, stages = steps[:, 0], steps[:, 1], steps[:, 2:4], steps[:, 4:].reshape(-1, 7, 2)
    q = np.einsum("msk,sq->mkq", stages, RK45.P)
    j = np.maximum(np.searchsorted(t_old, t, side="left") - 1, 0)
    hj = h[j]
    x = (t - t_old[j]) / hj
    x2 = x * x  # the powers x .. x^4 of RK45.P, multiplied up as a cumulative product
    powers = np.column_stack([x, x2, x2 * x, x2 * x * x])
    poly = np.einsum("mkq,mq->mk", q.take(j, axis=0), powers)
    return (y_old.take(j, axis=0) + hj[:, None] * poly).T


def _radial_rhs(spec, tau):
    """Right-hand side (v', W') of the radial equation in the flux variable W."""
    n, p = spec.n, spec.p
    expo, pm1, nm1 = 1.0 / (p - 1.0), p - 1.0, n - 1
    sinh, copysign, inf = math.sinh, math.copysign, math.inf

    # A float power past the double range raises OverflowError; an infinite
    # slope only makes the stepper reject its trial step (p near 1 needs that).
    def rhs(t, v, W):
        s = sinh(t) ** nm1
        try:
            dv = (abs(W) / s) ** expo
        except OverflowError:
            dv = inf
        try:
            f = abs(v) ** pm1
        except OverflowError:
            f = inf
        return copysign(dv, W), -tau * s * copysign(f, v)

    return rhs


def _integrate(spec, tau, rtol=1e-11, atol=1e-13, slope=1.0):
    """Shoot once from v(r) = 0, v'(r) = slope; stop early if v crosses zero.

    Returns (W, crossed, steps): W where the shot stopped, whether v
    crossed zero, and the accepted steps for _continuous_extension.
    """
    n, p, r, R = spec.n, spec.p, spec.r, spec.R
    try:  # sinh overflow or a zero weight in the right-hand side
        flux0 = math.sinh(r) ** (n - 1) * abs(slope) ** (p - 2.0) * slope
        return _dopri45(_radial_rhs(spec, tau), r, R, (0.0, flux0), rtol, atol,
                        (R - r) / 40.0, r + 1e-9 * (R - r))
    except ArithmeticError as exc:
        raise NumericError(f"radial integration failed: {exc}") from exc


def _outer_flux(shot):
    """Signed outer flux of a shot (W, crossed, steps): W(R), or -1 if v
    crossed zero first.

    It is > 0 below tau_1 and < 0 above it (see the module docstring).
    """
    W, crossed, _ = shot
    return -1.0 if crossed else W


def shell_eigen(spec):
    """Locate tau_1 and return the eigenvalue with its radial profile.

    The bracket starts from the flat-interval estimate (pi/(2(R-r)))^2 and
    expands geometrically until _outer_flux changes sign; brentq then zeroes
    it directly, since it is positive below tau_1 and negative above it.
    The root tolerance is relative: xtol = TAU_RTOL * lo, lo being the final
    lower bracket end, which lies below tau_1 because the flux is positive
    there, and above 1e-300, where the bracket search gives up.
    Each tau is shot once per call, from slope 1, and every shot keeps its
    steps: brentq returns one of the taus it shot, the result keeps that
    shot's steps, and the 512-point profile is their continuous extension.
    meta["integrations"] counts every shot of the Dormand-Prince stepper,
    including the re-integration of tau_1 at looser tolerance.

    residuals["flux_outer"] = |W(R)| / max|W| is the quantity the root
    search zeroes. residuals["bc_outer"] = |v'(R)| =
    (|W(R)| / sinh^{n-1} R)^{1/(p-1)} takes it to the power 1/(p-1), which
    lifts a tiny flux far from 0 once p > 2: on the 0.5/1.5 shell it reads
    about 1e-4 at p = 5, 0.02 at p = 10 and 0.4 at p = 40 on converged
    roots whose flux_outer is below 2e-15. It measures convergence only
    for moderate p.
    """
    n, p, r, R = spec.n, spec.p, spec.r, spec.R
    half_wave = np.pi / (2.0 * (R - r))
    tau_flat = half_wave * half_wave
    if not tau_flat < np.inf:
        raise DomainValidationError(f"shell of width {R - r} is too thin to solve")
    shots = {}

    def flux_at_R(tau):
        if tau not in shots:
            shots[tau] = _integrate(spec, tau)
        return _outer_flux(shots[tau])

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

    tau1 = brentq(flux_at_R, lo, hi, xtol=TAU_RTOL * lo, rtol=8.9e-16, maxiter=SEARCH_MAX_ITER)

    t = np.linspace(r, R, DENSE_POINTS)
    _, crossed, steps = shots[tau1]
    v, W = _continuous_extension(steps, t)
    if crossed:
        raise NumericError("interior zero at the converged eigenvalue; wrong branch")
    if np.any(v[1:] < 0.0):
        raise NumericError("profile fails interior positivity; wrong branch")
    s = np.sinh(t) ** (n - 1)
    dv = np.sign(W) * (np.abs(W) / s) ** (1.0 / (p - 1.0))
    # re-integration at looser tolerance bounds the ODE error
    v_loose, _ = _continuous_extension(_integrate(spec, tau1, rtol=1e-9, atol=1e-11)[2], t)
    ode_max = float(np.max(np.abs(v_loose - v)))
    residuals = {
        "bc_outer": float(abs(dv[-1])),
        "flux_outer": float(abs(W[-1]) / np.max(np.abs(W))),
        "ode_max": ode_max,
    }
    meta = {"n": n, "p": p, "r": r, "R": R, "dense_points": DENSE_POINTS,
            "bracket": (float(lo), float(hi)), "tol": TAU_RTOL,
            "integrations": len(shots) + 1}
    return EigResult(tau1=float(tau1), t=t, v=v, dv=dv, steps=steps,
                     residuals=residuals, meta=meta)


def radial_integrals(n, p, steps):
    """(int |v'|^p sinh^{n-1} t dt, int |v|^p sinh^{n-1} t dt) over the steps.

    A 4-node Gauss-Legendre rule on every accepted step, at which the
    continuous extension gives v and W.  The gradient term is
    |W|^{p'} sinh^{(n-1)(1-p')} t, grouped as (|W| / s)^{p'} s with
    s = sinh^{n-1} t so that neither power leaves the double range near p = 1.
    """
    x, w = gauss_legendre_nodes(4)
    half = 0.5 * steps[:, 1:2]
    t = (steps[:, :1] + half * (1.0 + x)).ravel()
    v, W = _continuous_extension(steps, t)
    s, weights = np.sinh(t) ** (n - 1), (half * w).ravel()
    return (float(np.dot(weights, (np.abs(W) / s) ** (p / (p - 1.0)) * s)),
            float(np.dot(weights, np.abs(v) ** p * s)))


def rayleigh_quotient_radial(spec, res):
    """Rayleigh quotient of the profile in the shell weight sinh^{n-1}.

    Both integrals come from radial_integrals on the steps of the shot at
    tau_1, so no sampled profile is re-interpolated.
    """
    num, den = radial_integrals(spec.n, spec.p, res.steps)
    return num / den
