"""Interior parallels of the Dirichlet boundary and the annulus comparison.

The machinery: a signed hyperbolic distance field to the hole boundary on a
Cartesian chart grid, marching-squares extraction of the parallel lengths
L(delta) clipped to the domain, the reparametrizations M (from L) and
M-tilde (from the matched annulus), the tabulated comparison functions
G <= G-tilde, the transplanted test-function upper bound for the first
mixed eigenvalue, and the end-to-end verdict

    tau_1(domain) <= transplant bound <= tau_1(matched annulus).
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .core import ball_perimeter
from .bodies import boundary_measures, convexity_report
from .fem2d import (
    AnnularDomain2D,
    build_mesh,
    eigen_p2,  # not called; bench/tracing.py wraps it here until ROADMAP item 1
    eigen_p_general,
)
from .spectral import mixed_eigenpair
from .shell import ShellSpec, shell_eigen
from .errors import DomainValidationError, PreconditionError, DataFormatError

DEFAULT_GRID_RES = 1024
DEFAULT_N_DELTAS = 384
CHAIN_RTOL = 2e-3          # combined solver tolerance for the ordering chain
EQUALITY_RTOL = 1e-3       # tau agreement that flags the concentric case


@dataclass(frozen=True)
class DistanceField:
    """Signed chart-grid distance to the hole boundary (negative inside)."""

    gx: np.ndarray
    gy: np.ndarray
    values: np.ndarray     # (len(gx), len(gy)), signed
    in_domain: np.ndarray  # nodes strictly between hole and outer boundary
    delta0: float
    cell: float
    rho_out: object


def _require_convex_hole(dom):
    rep = convexity_report(dom.inner)
    if not rep.is_convex:
        raise PreconditionError(
            f"hole must be convex for the parallel construction "
            f"(min curvature {rep.min_curvature:.6f})"
        )


def _min_chord_to_curve(dom, theta, bxy, b2, px, py, p2):
    """Minimum squared-chord form of the distance from nodes to the hole curve.

    Coarse minimum over the sampled curve via one BLAS product, then a
    3-point parabolic refinement in the curve parameter.  The chord form
    q = |x-y|^2 / ((1-|x|^2)(1-|y|^2)) is monotone in the true distance,
    so refinement can happen before the arcsinh.
    """
    n_boundary = len(theta)

    def chord_q(ts):
        z = dom.inner_chart(ts)
        c2 = z.real ** 2 + z.imag ** 2
        return ((px - z.real) ** 2 + (py - z.imag) ** 2) / ((1.0 - p2) * (1.0 - c2))

    nodes = np.stack([px, py], axis=1)
    dots = nodes @ bxy.T
    q = p2[:, None] - 2.0 * dots
    q += b2[None, :]
    q /= (1.0 - p2)[:, None]
    q /= (1.0 - b2)[None, :]
    am = np.argmin(q, axis=1)
    qmin = q[np.arange(len(am)), am]
    del q, dots
    dt = 2.0 * np.pi / n_boundary
    tm = theta[am]
    q_lo = chord_q(tm - dt)
    q_hi = chord_q(tm + dt)
    denom = q_lo - 2.0 * qmin + q_hi
    shift = np.where(np.abs(denom) > 1e-300, 0.5 * (q_lo - q_hi) / denom, 0.0)
    shift = np.clip(shift, -1.0, 1.0)
    return np.minimum(qmin, chord_q(tm + shift * dt))


def distance_field(dom, grid_res=DEFAULT_GRID_RES, n_boundary=256):
    """Sampled signed distance d(x, hole boundary) over the domain chart.

    delta0 comes from a dense outer-boundary trace of the field, where the
    maximum is attained; the grid maximum only backs it up.
    """
    if not isinstance(dom, AnnularDomain2D):
        raise DomainValidationError("distance fields are built over annular domains")
    _require_convex_hole(dom)
    rho_in_fn, rho_out_fn = dom.polar_tables
    a = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    b = float(np.max(rho_out_fn(a))) * 1.005 + 2e-3
    b = min(b, 0.999)
    gx = np.linspace(-b, b, grid_res)
    gy = np.linspace(-b, b, grid_res)
    XX, YY = np.meshgrid(gx, gy, indexing="ij")
    px = XX.ravel()
    py = YY.ravel()
    p2 = px * px + py * py
    ok = p2 < 1.0 - 1e-12

    theta = np.linspace(0.0, 2.0 * np.pi, n_boundary, endpoint=False)
    zb = dom.inner_chart(theta)
    bxy = np.stack([zb.real, zb.imag], axis=1)
    b2 = zb.real ** 2 + zb.imag ** 2

    dist = np.full(px.shape, np.inf)
    chunk = 262144
    for i0 in range(0, len(px), chunk):
        sl = slice(i0, min(i0 + chunk, len(px)))
        keep = ok[sl]
        if not np.any(keep):
            continue
        q_best = _min_chord_to_curve(dom, theta, bxy, b2,
                                     px[sl][keep], py[sl][keep], p2[sl][keep])
        buf = np.full(sl.stop - sl.start, np.inf)
        buf[keep] = 2.0 * np.arcsinh(np.sqrt(q_best))
        dist[sl] = buf

    rho = np.sqrt(p2)
    ang = np.arctan2(py, px)
    inside_hole = rho < rho_in_fn(ang)
    signed = np.where(inside_hole, -dist, dist)
    signed = np.where(ok, signed, 1e6)
    inside_outer = rho < rho_out_fn(ang)
    in_domain = ok & inside_outer & ~inside_hole

    tb = np.linspace(0.0, 2.0 * np.pi, 8192, endpoint=False)
    ob = rho_out_fn(tb) * np.exp(1j * tb)
    ob2 = np.abs(ob) ** 2
    q_b = _min_chord_to_curve(dom, theta, bxy, b2, ob.real, ob.imag, ob2)
    delta0_boundary = float(np.max(2.0 * np.arcsinh(np.sqrt(q_b))))
    grid_max = float(np.max(signed[in_domain.ravel()])) if np.any(in_domain) else 0.0
    delta0 = max(delta0_boundary, grid_max)

    return DistanceField(gx=gx, gy=gy, values=signed.reshape(grid_res, grid_res),
                         in_domain=in_domain.reshape(grid_res, grid_res),
                         delta0=delta0, cell=float(gx[1] - gx[0]), rho_out=rho_out_fn)


def parallel_length(dom, fld, delta):
    """Hyperbolic length of {d = delta} clipped to the domain (marching squares)."""
    if delta < 0.0 or delta > fld.delta0 + 1e-12:
        raise DomainValidationError(f"delta={delta} outside [0, delta0={fld.delta0}]")
    return _march_length(fld, delta)


def _march_cache(fld):
    """Per-field cell-corner arrays; cell min/max prune the level search."""
    cache = getattr(fld, "_cells", None)
    if cache is None:
        F = fld.values
        corners = np.stack([F[:-1, :-1], F[1:, :-1], F[1:, 1:], F[:-1, 1:]], axis=0)
        cmin = corners.min(axis=0)
        cmax = corners.max(axis=0)
        cache = (corners, cmin, cmax)
        object.__setattr__(fld, "_cells", cache)
    return cache


def _march_length(fld, level):
    gx, gy = fld.gx, fld.gy
    h = fld.cell
    corners, cmin, cmax = _march_cache(fld)
    ii, jj = np.nonzero((cmin <= level) & (cmax >= level))
    if len(ii) == 0:
        return 0.0
    G = corners[:, ii, jj].T - level  # columns: (0,0), (1,0), (1,1), (0,1)
    X0, Y0 = gx[ii], gy[jj]
    pts = np.full((len(ii), 4, 2), np.nan)

    def cut(mask, ga, gb, ax, ay, bx, by, slot):
        s = ga[mask] / (ga[mask] - gb[mask])
        pts[mask, slot, 0] = ax[mask] + s * (bx[mask] - ax[mask])
        pts[mask, slot, 1] = ay[mask] + s * (by[mask] - ay[mask])

    cut(G[:, 0] * G[:, 1] < 0, G[:, 0], G[:, 1], X0, Y0, X0 + h, Y0, 0)
    cut(G[:, 1] * G[:, 2] < 0, G[:, 1], G[:, 2], X0 + h, Y0, X0 + h, Y0 + h, 1)
    cut(G[:, 3] * G[:, 2] < 0, G[:, 3], G[:, 2], X0, Y0 + h, X0 + h, Y0 + h, 2)
    cut(G[:, 0] * G[:, 3] < 0, G[:, 0], G[:, 3], X0, Y0, X0, Y0 + h, 3)

    have = ~np.isnan(pts[:, :, 0])
    two = have.sum(axis=1) == 2
    if not np.any(two):
        return 0.0
    P = pts[two]
    order = np.argsort(np.isnan(P[:, :, 0]), axis=1, kind="stable")[:, :2]
    A = np.take_along_axis(P, order[:, 0][:, None, None].repeat(2, 2), 1)[:, 0, :]
    B = np.take_along_axis(P, order[:, 1][:, None, None].repeat(2, 2), 1)[:, 0, :]
    mx = 0.5 * (A[:, 0] + B[:, 0])
    my = 0.5 * (A[:, 1] + B[:, 1])
    seg = np.hypot(B[:, 0] - A[:, 0], B[:, 1] - A[:, 1])
    lam = 2.0 / (1.0 - (mx * mx + my * my))
    rho = np.hypot(mx, my)
    keep = rho < fld.rho_out(np.arctan2(my, mx))
    return float(np.sum(seg[keep] * lam[keep]))


@dataclass(frozen=True)
class ParallelTable:
    """Sampled parallel lengths and their annulus counterparts."""

    deltas: np.ndarray
    L: np.ndarray
    delta0: float
    Ltilde: np.ndarray
    r_match: float
    R_match: float
    grid_res: int
    cell: float

    def comparison_tolerance(self):
        """Discretization slack for tablewise comparisons of L against Ltilde."""
        lam = 2.0 / (1.0 - np.tanh(self.R_match / 2.0) ** 2)
        return 4.0 * lam * self.cell


def annulus_match(dom):
    """Radii (r, R) of the concentric annulus with matched hole W_1 and area.

    r satisfies P(B_r) = P(hole) (the planar quermass match); R conserves
    the domain area through |B_R| - |B_r| = |domain|.
    """
    _require_convex_hole(dom)
    hole = boundary_measures(dom.inner)
    outer = boundary_measures(dom.outer)
    area = outer["volume"] - hole["volume"]
    if area <= 0.0:
        raise DomainValidationError("domain area must be positive")
    r = math.asinh(hole["perimeter"] / (2.0 * math.pi))
    R = math.acosh(math.cosh(r) + area / (2.0 * math.pi))
    return r, R


def build_parallel_table(dom, fld=None, n_deltas=DEFAULT_N_DELTAS, grid_res=DEFAULT_GRID_RES):
    """Tabulate L(delta) on [0, delta0] along with the annulus lengths."""
    if fld is None:
        fld = distance_field(dom, grid_res=grid_res)
    r, R = annulus_match(dom)
    deltas = np.linspace(0.0, fld.delta0 * (1.0 - 1e-9), n_deltas)
    L = np.array([_march_length(fld, d) for d in deltas])
    Ltilde = np.array([ball_perimeter(2, r + min(d, R - r)) if d <= R - r else 0.0
                       for d in deltas])
    return ParallelTable(deltas=deltas, L=L, delta0=fld.delta0, Ltilde=Ltilde,
                         r_match=r, R_match=R, grid_res=len(fld.gx), cell=fld.cell)


@dataclass(frozen=True)
class InteriorCoords:
    """Cumulative reparametrizations M, Mtilde and their endpoints."""

    deltas: np.ndarray
    M: np.ndarray
    deltas_tilde: np.ndarray
    Mtilde: np.ndarray
    M_star: float
    Mtilde_star: float
    p: float


def interior_coords(table, p):
    """M(delta) = int_0^delta L^{1-p'} and the annulus analogue Mtilde.

    Both cumulative integrals are trapezoidal on the stored grids.  L must
    stay positive in the interior (disconnected parallels are unsupported).
    """
    if not p > 1.0:
        raise DomainValidationError("exponent p must exceed 1")
    pc = p / (p - 1.0)
    L = table.L
    interior = L[:-1]
    if np.any(interior[1:] <= 0.0):
        raise DataFormatError("parallel length vanishes in the interior of [0, delta0]")
    # L may vanish at delta0 itself (parallels shrinking to the far contact
    # point); M(delta0) is then allowed to blow up, but must stay finite for
    # the interpolants.  Everything beyond Mtilde_star is capped anyway.
    safe_L = np.maximum(L, 1e-300)
    with np.errstate(over="ignore"):
        integrand = np.minimum(safe_L ** (1.0 - pc), 1e30)
    M = np.concatenate([[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1])
                                         * np.diff(table.deltas))])
    if np.any(np.diff(M) <= 0.0):
        raise DataFormatError("reparametrization M is not strictly increasing")
    span = table.R_match - table.r_match
    dt = np.linspace(0.0, span, 4096)
    lt = ball_perimeter(2, table.r_match) * np.cosh(dt) + \
        2.0 * math.pi * math.cosh(table.r_match) * np.sinh(dt)  # 2 pi sinh(r + d)
    integrand_t = lt ** (1.0 - pc)
    Mt = np.concatenate([[0.0], np.cumsum(0.5 * (integrand_t[1:] + integrand_t[:-1])
                                          * np.diff(dt))])
    return InteriorCoords(deltas=table.deltas, M=M, deltas_tilde=dt, Mtilde=Mt,
                          M_star=float(M[-1]), Mtilde_star=float(Mt[-1]), p=p)


def comparison_functions(table, coords, n_beta=2048):
    """G and Gtilde on a shared beta grid in [0, Mtilde_star]."""
    beta = np.linspace(0.0, coords.Mtilde_star, n_beta)
    d_from_beta = PchipInterpolator(coords.M, coords.deltas)
    dt_from_beta = PchipInterpolator(coords.Mtilde, coords.deltas_tilde)
    L_of = PchipInterpolator(table.deltas, table.L)
    beta_cap = min(coords.Mtilde_star, coords.M_star)
    G = L_of(d_from_beta(np.minimum(beta, beta_cap)))
    span = table.R_match - table.r_match
    Gt = 2.0 * math.pi * np.sinh(table.r_match + np.clip(dt_from_beta(beta), 0.0, span))
    return beta, G, Gt


def hersch_bound(table, p, shell_result=None):
    """Rayleigh quotient of the transplanted annulus eigenfunction.

    The test function is u = f(M(d(x, hole))) capped at f(Mtilde_star) with
    f = v o Mtilde^{-1}, v the radial annulus eigenfunction.  Assembled
    entirely from one-dimensional tables: the gradient term collapses to
    int_0^{Mtilde_star} |f'|^p dbeta and the p-norm splits into the interior
    part plus the capped tail.
    """
    r, R = table.r_match, table.R_match
    if shell_result is None:
        shell_result = shell_eigen(ShellSpec(n=2, p=p, r=r, R=R))
    elif abs(shell_result.meta.get("r", r) - r) > 1e-9 or \
            abs(shell_result.meta.get("R", R) - R) > 1e-9 or \
            shell_result.meta.get("p", p) != p:
        raise DataFormatError("shell profile does not match this parallel table")
    coords = interior_coords(table, p)
    pc = p / (p - 1.0)

    # v and v' as functions of the distance to the hole (delta = t - r)
    dv_of = PchipInterpolator(shell_result.t - r, shell_result.dv)
    v_of = PchipInterpolator(shell_result.t - r, shell_result.v)

    # numerator: int |f'(beta)|^p dbeta on the Mtilde grid, with
    # f'(beta) = v'(delta) Ltilde(delta)^{p'-1} by the chain rule
    dt = coords.deltas_tilde
    lt = 2.0 * math.pi * np.sinh(r + dt)
    fprime = dv_of(dt) * lt ** (pc - 1.0)
    numerator = float(np.trapezoid(np.abs(fprime) ** p * lt ** (1.0 - pc), dt))

    # u along the parallels: v evaluated at Mtilde^{-1}(min(M(delta), Mtilde_*));
    # the min implements the cap at f(Mtilde_star), so one integral covers
    # both the interior part and the constant tail of the p-norm.
    dt_from_beta = PchipInterpolator(coords.Mtilde, coords.deltas_tilde)
    fine = np.linspace(0.0, table.deltas[-1], 8192)
    L_fine = PchipInterpolator(table.deltas, table.L)(fine)
    M_fine = PchipInterpolator(table.deltas, coords.M)(fine)
    beta_cap = np.minimum(M_fine, coords.Mtilde_star)
    u_fine = v_of(dt_from_beta(beta_cap))
    denominator = float(np.trapezoid(np.abs(u_fine) ** p * L_fine, fine))
    return float(numerator / denominator)


@dataclass(frozen=True)
class RFKReport:
    tau_omega: float
    hersch_bound: float
    tau_annulus: float
    r: float
    R: float
    chain_ok: bool
    equality_detected: bool
    p: float
    meta: dict = field(default_factory=dict)


def rfk_verdict(dom, p, table, h_mesh=0.01):
    """Assemble the full ordering chain for one domain on its parallel table.

    tau(domain) comes from the spectral solver on the polar map at p = 2,
    settled to the relative step its meta reports, or from the inverse power
    solver on a P1 mesh of size h_mesh for general p; tau(annulus) from the
    radial shooting solver; the middle term from the transplanted test
    function.
    """
    r, R = table.r_match, table.R_match
    shell_res = shell_eigen(ShellSpec(n=2, p=p, r=r, R=R))
    tau_annulus = shell_res.tau1
    bound = hersch_bound(table, p, shell_result=shell_res)

    if p == 2.0:
        spectral = mixed_eigenpair(dom)
        tau_omega, resolution = spectral.value, spectral.resolution
    else:
        tau_omega = eigen_p_general(build_mesh(dom, h_mesh), p).tau1
        resolution = {"h_mesh": h_mesh}

    tol = CHAIN_RTOL * tau_annulus
    chain_ok = bool(tau_omega <= bound + tol and bound <= tau_annulus + tol)
    equality = bool(abs(tau_omega - tau_annulus) <= EQUALITY_RTOL * tau_annulus)
    meta = {**resolution, "grid_res": table.grid_res, "n_deltas": len(table.deltas),
            "delta0": table.delta0}
    return RFKReport(tau_omega=float(tau_omega), hersch_bound=float(bound),
                     tau_annulus=float(tau_annulus), r=r, R=R,
                     chain_ok=chain_ok, equality_detected=equality, p=p, meta=meta)
