"""Interior parallels of the Dirichlet boundary and the annulus comparison.

The hole is convex, so in H^2 its outward normal exponential map is a
diffeomorphism onto the hole's exterior (Bridson-Haefliger, Metric Spaces
of Non-positive Curvature, II.2.4): every point at distance delta from the
hole lies on exactly one normal ray, at parameter delta.  The parallel
{d = delta} clipped to the domain therefore has length

    L(delta) = int (cosh delta + kappa sinh delta) 1[exp_s(delta nu) in domain] ds,

and all the machinery is one-dimensional: the distances at which the normal
rays cross the outer boundary (every crossing, so a ray that leaves and
re-enters a non-convex domain counts twice; a scan brackets each and
bracketed Newton finishes it, on the outer body itself through the domain's
outer_gap), the ends of the clipped parallel's arcs, bracketed between
neighbouring rays and finished the same way, which make L exact at any
delta, the table of L(delta) on as many rays as its every-other-ray error
estimate asks for, the reparametrizations M (from L) and M-tilde (from the
matched annulus), the tabulated comparison functions G <= G-tilde, the
transplanted test-function upper bound for the first mixed eigenvalue, and
the end-to-end verdict

    tau_1(domain) <= transplant bound <= tau_1(matched annulus).
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .core import (
    ROUNDOFF_RTOL,
    _bracketed_newton,
    ball_perimeter,
    check_exponent,
    gauss_legendre_nodes,
    geodesic_step,
    geodesic_velocity,
)
from .bodies import (
    AnnularDomain2D,
    Body2D,
    arc_speed_curvature,
    boundary_measures,
    normal_flow,
    require_convex,
)
from .fem2d import (
    build_mesh,
    eigen_p2,  # not called; bench/tracing.py wraps it here until ROADMAP item 1
    eigen_p_general,
)
from .spectral import mixed_eigenpair
from .shell import ShellSpec, _continuous_extension, radial_integrals, shell_eigen
from .errors import DomainValidationError, NumericError, DataFormatError

RAY_COUNTS = tuple(64 * 2 ** k for k in range(8))  # doubled until L_err reaches round-off
DEFAULT_N_DELTAS = 384
MIN_N_DELTAS = 2
SCAN_STEPS = 128           # samples per ray that bracket its boundary crossings
BAND_MARGIN = 0.01         # pads the outer boundary's largest distance from the origin
RAY_CHUNK = 1024           # rays scanned at once, bounding the scan's memory
ARC_NODES = 8              # Gauss-Legendre nodes per ray interval of the arc integrals
PEAK_RAYS = 65             # rays per round of each extremum's refinement
PEAK_ROUNDS = 3            # each round narrows to the best ray's neighbours
# the last row sits this far inside delta0: above the crossings' round-off,
# so a boundary arc at distance delta0 (concentric domains) still counts
DELTA0_ROW_RTOL = 1e-12
CHAIN_RTOL = 2e-3          # combined solver tolerance for the ordering chain
EQUALITY_RTOL = 1e-3       # tau agreement that flags the concentric case


@dataclass(frozen=True)
class DistanceField:
    """Distances at which the hole's outward normal rays cross the outer boundary.

    Ray i leaves the hole at parameter theta[i]; values[i] is its first exit
    from the domain.  A ray that comes back into a non-convex domain has its
    further (entry, exit) distances in the row reentries[i], NaN-padded.
    The extremum rays (see distance_field) have crossings of as many columns.
    delta0 is the largest distance from the hole within the domain.
    """

    theta: np.ndarray
    values: np.ndarray     # (grid_res,)
    reentries: np.ndarray  # (grid_res, 2m)
    extremum_theta: np.ndarray
    extremum_crossings: np.ndarray
    delta0: float
    delta0_err: float

    @property
    def crossings(self):
        """Every crossing of each ray in order, exits in the even columns."""
        return np.column_stack([self.values, self.reentries])


def _ray_crossings(dom, theta):
    """(ray index, distance) of every outer-boundary crossing of the rays at theta.

    At parameter t a ray from distance r of the chart origin is at least
    t - r from it, so past r + d_hi (d_hi the outer boundary's largest
    distance from the origin, plus BAND_MARGIN) it stays outside: each ray
    crosses an odd number of times, ending with an exit.  A scan of
    SCAN_STEPS steps over [0, r + d_hi] brackets each sign change of the
    gap, and Newton along the ray's velocity, from the bracket's false
    position, finishes it.  Crossings come out ordered by ray, then distance.
    """
    hole, theta = dom.inner, np.atleast_1d(theta)
    z, nu, r = hole.chart_curve(theta), hole.chart_normal(theta), hole.radius(theta)
    t_hi = r + 2.0 * math.atanh(float(np.max(np.abs(dom.outer_samples[1])))) + BAND_MARGIN
    steps = np.linspace(0.0, 1.0, SCAN_STEPS + 1)
    brackets = []
    for i0 in range(0, len(z), RAY_CHUNK):
        ray = np.arange(i0, min(i0 + RAY_CHUNK, len(z)))[:, None]
        t = t_hi[ray] * steps
        w = geodesic_step(z[ray], nu[ray], t)
        ft = dom.outer_gap(w)
        i, j = np.nonzero((ft[:, :-1] > 0.0) != (ft[:, 1:] > 0.0))
        brackets.append((ray[i, 0], t[i, j], t[i, j + 1], ft[i, j], ft[i, j + 1]))
    ray, a, b, fa, fb = (np.concatenate(x) for x in zip(*brackets))
    if np.any(np.bincount(ray, minlength=len(z)) % 2 == 0):
        raise NumericError("a normal ray does not leave the domain")
    z, nu = z[ray], nu[ray]

    def f(k, t):
        w = geodesic_step(z[k], nu[k], t)
        return dom.outer_gap(w, geodesic_velocity(z[k], nu[k], w, t))

    return ray, _bracketed_newton(f, b - fb * (b - a) / (fb - fa), a, b, fa > 0.0)


def _crossing_table(dom, theta):
    """Every crossing of each ray at theta in order, one row per ray, NaN-padded."""
    ray, dist = _ray_crossings(dom, theta)
    column = np.arange(len(ray)) - np.searchsorted(ray, ray)
    crossings = np.full((len(theta), column.max() + 1), np.nan)
    crossings[ray, column] = dist
    return crossings


def _require_body_outer(dom):
    """Refuse all but annular domains with a convex hole and a body outer boundary."""
    if not (isinstance(dom, AnnularDomain2D) and isinstance(dom.outer, Body2D)):
        raise DomainValidationError("parallels are built over annular domains with a body outer boundary")
    require_convex(dom.inner, "hole")


def distance_field(dom, grid_res):
    """Boundary crossings of grid_res normal rays, equally spaced in the hole's
    parameter, and of a ray at each local extremum of the last exit.

    A ray whose last exit is no lower than its neighbours' and beyond
    round-off above one of them brackets a maximum with them (and the
    reverse a minimum), as does the largest exit's ray, the only one where
    rays re-enter; PEAK_ROUNDS rounds of PEAK_RAYS rays, each spanning the
    neighbours of the last round's best ray, narrow each to its ray.
    delta0 is the largest exit found, delta0_err what the last round added.
    """
    _require_body_outer(dom)
    theta = np.linspace(0.0, 2.0 * np.pi, grid_res, endpoint=False)
    crossings = _crossing_table(dom, theta)
    last = np.nanmax(crossings, axis=1)
    rise = np.stack([np.roll(last, 1), np.roll(last, -1)]) - last
    # +1 at a minimum, -1 at a maximum: argmin of sense * exits finds either
    sense = np.sign(np.sum(np.sign(rise) * (np.abs(rise) > ROUNDOFF_RTOL * last), axis=0))
    if np.any(np.isfinite(crossings[:, 1:])):  # re-entering rays: delta0's peak only
        sense[:] = 0.0
    sense[np.argmax(last)] = -1.0
    h = 2.0 * np.pi / grid_res
    lo, hi, sense = theta[sense != 0] - h, theta[sense != 0] + h, sense[sense != 0]
    delta0 = float(np.max(last))
    for _ in range(PEAK_ROUNDS):
        t = np.linspace(lo, hi, PEAK_RAYS, axis=1)
        table = _crossing_table(dom, t.ravel()).reshape(*t.shape, -1)
        exits = np.nanmax(table, axis=2)
        e, k = np.arange(len(t)), np.argmin(sense[:, None] * exits, axis=1)
        lo, hi = t[e, np.maximum(k - 1, 0)], t[e, np.minimum(k + 1, PEAK_RAYS - 1)]
        previous, delta0 = delta0, max(delta0, float(np.max(exits)))
        peak_theta, peaks = np.mod(t[e, k], 2.0 * np.pi), table[e, k]
    width = max(crossings.shape[1], peaks.shape[1])
    crossings, peaks = (np.pad(x, ((0, 0), (0, width - x.shape[1])), constant_values=np.nan)
                        for x in (crossings, peaks))
    return DistanceField(theta=theta, values=crossings[:, 0], reentries=crossings[:, 1:],
                         extremum_theta=peak_theta, extremum_crossings=peaks,
                         delta0=delta0, delta0_err=delta0 - previous)


def _cuts(deltas, near, far):
    """Index pairs (row, k) with near[k] <= deltas[row] < far[k], deltas ascending.

    The rows that cut piece k are the run [lo_k, hi_k).  Runs are laid out
    piece by piece, so each row meets its pieces in ascending k, as in a
    row-major scan of the full deltas-by-pieces mask, and sums per row by
    bincount add in that order.
    """
    lo, hi = np.searchsorted(deltas, near), np.searchsorted(deltas, far)
    runs = hi - lo
    k = np.repeat(np.arange(len(near)), runs)
    return np.arange(len(k)) - np.repeat(np.cumsum(runs) - runs - lo, runs), k


def _lengths(dom, fld, deltas, stride=1):
    """L at the ascending deltas, exact between every stride-th ray of the
    field and its extremum rays.

    A ray is inside at delta when an odd number of its crossings lie beyond
    delta.  Rays i and i + 1 differ on [e1, e2), [e3, e4), ... of their
    merged, sorted crossings, and there an arc of the clipped parallel ends
    between them, at the root s of the gap at w(s) = geodesic_step(z(s),
    nu(s), delta).  Newton finds it, with dw/ds from bodies.normal_flow,
    from the linear interpolant of the pair's crossings, or its square root
    next to an extremum ray, where the crossings fold (the middle, where
    both are one ray's).  With A(s) and B(s) the integrals of speed and
    speed kappa from 0 to s (ARC_NODES-point Gauss-Legendre on each ray
    interval and on the part up to each end), L sums cosh delta A + sinh
    delta B over the ends where the inside set ends, less over those where
    it starts, plus the whole parallel where ray 0 is inside.
    """
    theta = np.append(fld.theta[::stride], fld.extremum_theta)
    order = np.argsort(theta, kind="stable")
    theta, c = theta[order], np.vstack([fld.crossings[::stride], fld.extremum_crossings])[order]
    peak = np.isin(theta, fld.extremum_theta)  # the extremum rays, and uniform rays at their angles
    ends = np.append(theta[1:], 2.0 * np.pi)  # so that the intervals tile [0, 2 pi] exactly
    deltas = np.asarray(deltas, dtype=float)
    hole = dom.inner
    nodes, weights = gauss_legendre_nodes(ARC_NODES)

    def arc_integrals(a, b):
        """(A(b) - A(a), B(b) - B(a)) for arrays of intervals."""
        half = 0.5 * (b - a)[:, None]
        speed, kappa = arc_speed_curvature(hole, (0.5 * (a + b))[:, None] + half * nodes)
        return np.sum(half * weights * speed, axis=1), np.sum(half * weights * speed * kappa, 1)

    A0, B0 = (np.append(0.0, np.cumsum(y)) for y in arc_integrals(theta, ends))

    # pair j of interval i is columns (2j, 2j + 1) of the merged crossings; ray
    # i is inside on it when an even number of its crossings lie up to column 2j
    merged = np.column_stack([c, np.roll(c, -1, axis=0)])
    order = np.argsort(merged, axis=1)  # NaN last
    merged = np.take_along_axis(merged, order, axis=1)
    of_next = order >= c.shape[1]
    interval, j = np.nonzero(np.isfinite(merged[:, 1::2]))
    near, far = merged[interval, 2 * j], merged[interval, 2 * j + 1]
    near_next, far_next = of_next[interval, 2 * j], of_next[interval, 2 * j + 1]
    in_i = np.cumsum(~of_next, axis=1)[interval, 2 * j] % 2 == 0

    row, k = _cuts(deltas, near, far)
    d, lo, hi = deltas[row], theta[interval[k]], ends[interval[k]]
    frac = (d - near[k]) / (far[k] - near[k])  # 0 at ray i, 1 at ray i + 1 where near is ray i's
    u = np.abs(near_next[k] - frac)
    # at an extremum ray the crossings fold, delta - e ~ (s - s_e)^2, so the
    # end's distance from that ray is the square root of the linear one
    u = np.where(peak[(interval[k] + 1) % len(theta)], 1.0 - np.sqrt(1.0 - u),
                 np.where(peak[interval[k]], np.sqrt(u), u))
    u = np.where(near_next[k] == far_next[k], 0.5, u)

    def g(q, s):
        return dom.outer_gap(*normal_flow(hole, s, d[q]))

    end = _bracketed_newton(g, lo + (hi - lo) * u, lo, hi, in_i[k])
    sign = np.where(in_i[k], 1.0, -1.0)  # +1 where the inside set ends
    whole = np.sum(c[0] > deltas[:, None], axis=1) % 2 == 1  # ray 0 inside
    A, B = (np.where(whole, cum[-1], 0.0)
            + np.bincount(row, weights=sign * (cum[interval[k]] + p), minlength=len(deltas))
            for cum, p in zip((A0, B0), arc_integrals(lo, end)))
    return np.cosh(deltas) * A + np.sinh(deltas) * B


@dataclass(frozen=True)
class ParallelTable:
    """Sampled parallel lengths and their annulus counterparts.

    grid_res counts the uniform rays of the table's field.  L_err is the
    largest change of an L row below delta0 when every other one of them is
    dropped, at least ROUNDOFF_RTOL of the largest L.  The last row,
    just inside delta0, may err by more: L falls like sqrt(delta0 - delta)
    there.  delta0_err is the field's, at least ROUNDOFF_RTOL of delta0.
    """

    deltas: np.ndarray
    L: np.ndarray
    delta0: float
    Ltilde: np.ndarray
    r_match: float
    R_match: float
    grid_res: int
    L_err: float
    delta0_err: float


def annulus_match(dom):
    """Radii (r, R) of the concentric annulus with matched hole W_1 and area.

    r satisfies P(B_r) = P(hole) (the planar quermass match); R conserves
    the domain area through |B_R| - |B_r| = |domain|.
    """
    _require_body_outer(dom)
    hole = boundary_measures(dom.inner)
    outer = boundary_measures(dom.outer)
    area = outer["volume"] - hole["volume"]
    if area <= 0.0:
        raise DomainValidationError("domain area must be positive")
    r = math.asinh(hole["perimeter"] / (2.0 * math.pi))
    R = math.acosh(math.cosh(r) + area / (2.0 * math.pi))
    return r, R


def build_parallel_table(dom, n_deltas=DEFAULT_N_DELTAS):
    """Tabulate L(delta) on [0, delta0] along with the annulus lengths, on the
    first of RAY_COUNTS whose L_err is at its round-off floor, or the last."""
    if n_deltas < MIN_N_DELTAS:
        raise DomainValidationError(f"n_deltas must be at least {MIN_N_DELTAS}, got {n_deltas}")
    r, R = annulus_match(dom)
    for rays in RAY_COUNTS:
        fld = distance_field(dom, rays)
        deltas = np.linspace(0.0, fld.delta0 * (1.0 - DELTA0_ROW_RTOL), n_deltas)
        L = _lengths(dom, fld, deltas)
        floor = ROUNDOFF_RTOL * float(np.max(L))
        L_err = max(float(np.max(np.abs(L - _lengths(dom, fld, deltas, stride=2))[:-1])), floor)
        if L_err <= floor:
            break
    # the matched annulus' circles, 2 pi sinh(r + delta), up to its outer radius
    Ltilde = np.where(deltas <= R - r, 2.0 * math.pi * np.sinh(r + deltas), 0.0)
    return ParallelTable(deltas=deltas, L=L, delta0=fld.delta0, Ltilde=Ltilde,
                         r_match=r, R_match=R, grid_res=rays, L_err=L_err,
                         delta0_err=max(fld.delta0_err, ROUNDOFF_RTOL * fld.delta0))


@dataclass(frozen=True)
class InteriorCoords:
    """Cumulative reparametrizations M, Mtilde and their endpoints."""

    deltas: np.ndarray
    M: np.ndarray
    deltas_tilde: np.ndarray
    Mtilde: np.ndarray
    M_star: float
    Mtilde_star: float


def interior_coords(table, p):
    """M(delta) = int_0^delta L^{1-p'} and the annulus analogue Mtilde.

    Both cumulative integrals are trapezoidal on the stored grids.  L must
    stay positive in the interior (disconnected parallels are unsupported).
    """
    check_exponent(p)
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
                          M_star=float(M[-1]), Mtilde_star=float(Mt[-1]))


def comparison_functions(table, coords):
    """G and Gtilde at the table rows with beta = M(delta) in [0, Mtilde_star].

    At those betas G is the tabulated L itself, so the comparison carries
    the table's measured error and nothing from interpolating L between
    rows.  Next to the row where the parallels first touch the outer
    boundary, L drops like a square root, and an interpolant of the rows
    there rises above L by up to the row spacing times its slope (7e-3 on
    the offset-0.2 benchmark domain with PCHIP).
    """
    rows = coords.M <= coords.Mtilde_star
    beta = coords.M[rows]
    dt_from_beta = PchipInterpolator(coords.Mtilde, coords.deltas_tilde)
    span = table.R_match - table.r_match
    Gt = 2.0 * math.pi * np.sinh(table.r_match + np.clip(dt_from_beta(beta), 0.0, span))
    return beta, table.L[rows], Gt


def hersch_bound(table, p, shell_result=None):
    """Rayleigh quotient of the transplanted annulus eigenfunction.

    The test function is u = f(M(d(x, hole))) capped at f(Mtilde_star) with
    f = v o Mtilde^{-1}, v the radial annulus eigenfunction.  Assembled
    entirely from one-dimensional tables.  The gradient term collapses to
    int_0^{Mtilde_star} |f'|^p dbeta, and since f'(beta) = v'(delta)
    Ltilde(delta)^{p'-1} and (p' - 1)(p - 1) = 1, |f'(beta)|^p dbeta =
    |v'(delta)|^p Ltilde(delta) ddelta: it is the annulus numerator,
    2 pi int |v'|^p sinh t dt, taken by shell.radial_integrals on the steps of
    the shot at tau_1.  The p-norm splits into the interior part plus the
    capped tail, with v at the transplanted distances read from the same
    steps.  A given shell_result must carry those steps and the n = 2 shell
    (r, R, p) of this table.
    """
    r, R = table.r_match, table.R_match
    if shell_result is None:
        shell_result = shell_eigen(ShellSpec(n=2, p=p, r=r, R=R))
    meta, steps = shell_result.meta, shell_result.steps
    if steps is None or not {"n", "r", "R", "p"} <= meta.keys():
        raise DataFormatError("shell result has no radial profile (steps; n, r, R, p)")
    if (meta["n"], meta["p"]) != (2, p) or max(abs(meta["r"] - r), abs(meta["R"] - R)) > 1e-9:
        raise DataFormatError("shell profile does not match this parallel table")
    coords = interior_coords(table, p)
    numerator = 2.0 * math.pi * radial_integrals(2, p, steps)[0]

    # u along the parallels: v evaluated at Mtilde^{-1}(min(M(delta), Mtilde_*));
    # the min implements the cap at f(Mtilde_star), so one integral covers
    # both the interior part and the constant tail of the p-norm.
    dt_from_beta = PchipInterpolator(coords.Mtilde, coords.deltas_tilde)
    fine = np.linspace(0.0, table.deltas[-1], 8192)
    L_fine, M_fine = PchipInterpolator(table.deltas, np.column_stack([table.L, coords.M]))(fine).T
    beta_cap = np.minimum(M_fine, coords.Mtilde_star)
    u_fine = _continuous_extension(steps, r + dt_from_beta(beta_cap))[0]
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
            "delta0": table.delta0, "L_err": table.L_err, "delta0_err": table.delta0_err}
    return RFKReport(tau_omega=float(tau_omega), hersch_bound=float(bound),
                     tau_annulus=float(tau_annulus), r=r, R=R,
                     chain_ok=chain_ok, equality_detected=equality, p=p, meta=meta)
