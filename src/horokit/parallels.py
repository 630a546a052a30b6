"""Interior parallels of the Dirichlet boundary and the annulus comparison.

The hole is convex, so in H^2 its outward normal exponential map is a
diffeomorphism onto the hole's exterior (Bridson-Haefliger, Metric Spaces
of Non-positive Curvature, II.2.4): every point at distance delta from the
hole lies on exactly one normal ray, at parameter delta.  The parallel
{d = delta} clipped to the domain therefore has length

    L(delta) = int (cosh delta + kappa sinh delta) 1[exp_s(delta nu) in domain] ds,

and all the machinery is one-dimensional: the distances at which the normal
rays cross the outer boundary (every crossing, so a ray that leaves and
re-enters a non-convex domain counts twice; each ray is scanned only where
its distance from the origin lies in the outer boundary's band of radii over
the polar angles the ray sweeps, and bracketed Newton finishes each
crossing), the table of L(delta) with its even-ray error estimate, the
reparametrizations M (from L) and M-tilde (from the matched annulus), the
tabulated comparison functions G <= G-tilde, the transplanted test-function
upper bound for the first mixed eigenvalue, and the end-to-end verdict

    tau_1(domain) <= transplant bound <= tau_1(matched annulus).
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .core import ball_perimeter, check_exponent, geodesic_step
from .bodies import AnnularDomain2D, boundary_measures, curvature_2d, require_convex
from .fem2d import (
    build_mesh,
    eigen_p2,  # not called; bench/tracing.py wraps it here until ROADMAP item 1
    eigen_p_general,
)
from .spectral import mixed_eigenpair
from .shell import ShellSpec, _continuous_extension, radial_integrals, shell_eigen
from .errors import DomainValidationError, NumericError, DataFormatError

DEFAULT_GRID_RES = 8192    # normal rays from the hole boundary
DEFAULT_N_DELTAS = 384
MIN_GRID_RES = 4           # the even-ray error estimate needs two rays
MIN_N_DELTAS = 2
SCAN_STEPS = 128           # samples per ray that bracket its boundary crossings
BAND_MARGIN = 0.01         # widens the outer boundary's band of radii
ROOT_MAX_ITER = 100
RAY_CHUNK = 1024           # rays scanned at once, bounding the scan's memory
# relative round-off: the error estimates never read below it, and a Newton
# step below it leaves a crossing's next iterate at round-off
ROUNDOFF_RTOL = 1e-12
PEAK_RAYS = 65             # rays per round of the delta0 refinement
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
    speed is the hyperbolic arc length per unit parameter and kappa the
    geodesic curvature of the hole at each ray's foot.
    """

    theta: np.ndarray
    values: np.ndarray     # (grid_res,)
    reentries: np.ndarray  # (grid_res, 2m)
    speed: np.ndarray
    kappa: np.ndarray
    delta0: float

    @property
    def crossings(self):
        """Every crossing of each ray in order, exits in the even columns."""
        return np.column_stack([self.values, self.reentries])


def _normal_rays(dom, theta):
    """Chart foot point, outward unit chart normal and hyperbolic radius of each ray."""
    hole = dom.inner
    return hole.chart_curve(theta), hole.chart_normal(theta), hole.radius(theta)


def _radius_band(dom):
    """Bands of hyperbolic distance from the chart origin in which the outer
    boundary lies: (d_lo, d_hi) over the whole boundary, and arc_band.

    Both come from the domain's outer_polar_samples, widened by BAND_MARGIN.
    arc_band(w0, w1) gives, for each pair of chart points, the band over the
    arc of polar angles swept from w0 to w1 (shorter than pi), from the
    samples in the arc and one more at each end.  The extremes of those
    samples come from a sparse table over the periodic samples: level j
    holds the extremes of every run of 2**j samples, and two overlapping
    runs cover any arc.
    """
    d = 2.0 * np.arctanh(dom.outer_polar_samples)
    n = len(d)
    step = 2.0 * np.pi / n
    lows, highs = [d], [d]
    while 2 ** len(lows) <= n:
        span = 2 ** (len(lows) - 1)
        lows.append(np.minimum(lows[-1], np.roll(lows[-1], -span)))
        highs.append(np.maximum(highs[-1], np.roll(highs[-1], -span)))
    lows, highs = np.array(lows), np.array(highs)

    def widen(lo, hi):
        return np.maximum(lo - BAND_MARGIN, 0.0), hi + BAND_MARGIN

    def arc_band(w0, w1):
        sweep = np.angle(w1 * np.conj(w0))
        start = np.angle(np.where(sweep < 0.0, w1, w0))
        first = np.floor(start / step)
        count = np.floor((start + np.abs(sweep)) / step) + 2.0 - first
        level = np.frexp(count)[1] - 1  # the longest run of 2**level samples in the arc
        i0 = first.astype(int) % n
        i1 = (i0 + count.astype(int) - 2 ** level) % n
        return widen(np.minimum(lows[level, i0], lows[level, i1]),
                     np.maximum(highs[level, i0], highs[level, i1]))

    lo, hi = widen(np.min(d), np.max(d))
    return (float(lo), float(hi)), arc_band


def _ray_windows(z, nu, r, band):
    """Parameters [t_lo, t_hi] at which each ray's distance d(t) from the chart
    origin enters and leaves the band (d_lo, d_hi), one band or one per ray.

    Along the ray from z at radius r with outward normal nu,
    cosh d(t) = A cosh t + B sinh t = K cosh(t + atanh(B / A)), with
    A = cosh r, B = sinh r cos psi, cos psi = Re(nu conj z) / |z| and
    K = sqrt(A^2 - B^2).  The hole is star-shaped about the origin, so
    cos psi > 0, the phase atanh(B / A) is positive and d grows with t >= 0;
    t_lo is clamped at the foot point, and cosh d(t) >= cosh t gives
    t_hi <= d_hi.  A narrower band gives a window inside the wider one's.
    """
    a = np.cosh(r)
    b = np.sinh(r) * (nu * np.conj(z)).real / np.abs(z)
    k = np.sqrt((a - b) * (a + b))
    phase = np.arctanh(b / a)
    d_lo, d_hi = band
    t_lo = np.arccosh(np.maximum(np.cosh(d_lo) / k, 1.0)) - phase
    return np.maximum(t_lo, 0.0), np.arccosh(np.cosh(d_hi) / k) - phase


def _bracketed_newton(g, t, a, b, a_in):
    """Roots of g in the brackets [a, b], by Newton from t inside each bracket.

    g(k, t) gives the values and derivatives of the functions k at t, and
    a_in says where the value at a is positive.  Each evaluation shrinks its
    bracket to the side that keeps the sign change; a Newton step that does
    not land inside the bracket (a zero or tiny derivative) is replaced by
    bisection.  A function converges, and leaves the active set, once it
    evaluates to zero, a bisection step falls to round-off, or a Newton step
    falls below ROUNDOFF_RTOL relative: Newton converges quadratically, so
    the point after such a step is at round-off.
    """
    root = np.empty_like(t)
    k = np.arange(len(t))
    for _ in range(ROOT_MAX_ITER):
        f, df = g(k, t)
        on_a = (f > 0.0) == a_in
        a, b = np.where(on_a, t, a), np.where(on_a, b, t)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            nxt = t - f / df
        bisect = ~((a < nxt) & (nxt < b))
        nxt = np.where(bisect, 0.5 * (a + b), nxt)
        step = np.abs(nxt - t)
        done = (f == 0.0) | np.where(bisect, step <= 4.0 * np.spacing(t), step <= ROUNDOFF_RTOL * t)
        root[k[done]] = np.where(f == 0.0, t, nxt)[done]
        if np.all(done):
            return root
        k, t, a, b, a_in = (x[~done] for x in (k, nxt, a, b, a_in))
    raise NumericError("boundary crossings did not converge")


def _ray_crossings(dom, theta, band):
    """(ray index, distance) of every outer-boundary crossing of the rays at theta.

    Along a ray w(t), f(t) = rho_out(arg w) - |w| is positive inside the
    outer boundary.  A crossing lies where the ray's distance from the chart
    origin is inside band, the outer boundary's range of distances from the
    origin (see _radius_band), so the scan covers only a window of the ray
    (see _ray_windows), narrowed in two passes.  The window of the whole
    boundary's band sweeps an arc of polar angles, monotonically, because a
    geodesic ray meets each radial geodesic at most once (Bridson-Haefliger
    II.2); every crossing lies in that arc, so within the band of that arc,
    which gives each ray its own window with f(t_lo) > 0 > f(t_hi).  All
    rays take the same number of steps, enough that no ray's spacing exceeds
    (r + d_hi) / SCAN_STEPS, that of a scan of SCAN_STEPS steps over
    [0, r + d_hi]; on an offset-ball domain that is one or two.  The scan
    brackets each sign change, and Newton on f, started from the false
    position of the bracket and kept inside it, finishes every crossing to
    round-off, with rho_out and rho_out' from one table lookup and
    f' = rho_out'(arg w) Im(w'/w) - Re(conj(w) w') / |w| and
    w' = sech^2(t/2) nu (1 - conj(z) w)^2 / (2 (1 - |z|^2)).
    Past t_hi the ray stays outside the outer boundary, so each ray crosses
    an odd number of times and its last crossing is an exit.  Crossings come
    out ordered by ray, then distance.
    """
    rho_out = dom.polar_tables[1]
    whole, arc_band = band
    z, nu, r = _normal_rays(dom, np.atleast_1d(theta))
    t_lo, t_hi = _ray_windows(z, nu, r, whole)
    arc = arc_band(geodesic_step(z, nu, t_lo), geodesic_step(z, nu, t_hi))
    t_lo, t_hi = _ray_windows(z, nu, r, arc)
    n_steps = math.ceil(SCAN_STEPS * float(np.max((t_hi - t_lo) / (r + whole[1]))))

    steps = np.linspace(0.0, 1.0, n_steps + 1)
    brackets = []
    for i0 in range(0, len(z), RAY_CHUNK):
        ray = np.arange(i0, min(i0 + RAY_CHUNK, len(z)))[:, None]
        t = t_lo[ray] + (t_hi - t_lo)[ray] * steps
        w = geodesic_step(z[ray], nu[ray], t)
        ft = rho_out(np.angle(w)) - np.abs(w)
        i, j = np.nonzero((ft[:, :-1] > 0.0) != (ft[:, 1:] > 0.0))
        brackets.append((ray[i, 0], t[i, j], t[i, j + 1], ft[i, j], ft[i, j + 1]))
    ray, a, b, fa, fb = (np.concatenate(x) for x in zip(*brackets))
    if np.any(np.bincount(ray, minlength=len(z)) % 2 == 0):
        raise NumericError("a normal ray does not leave the domain")
    z, nu = z[ray], nu[ray]

    def f(k, t):
        w = geodesic_step(z[k], nu[k], t)
        dw = ((1.0 - np.tanh(0.5 * t) ** 2) * nu[k] * (1.0 - np.conj(z[k]) * w) ** 2
              / (2.0 * (1.0 - np.abs(z[k]) ** 2)))
        radius = np.abs(w)
        rho, slope = rho_out.value_and_slope(np.angle(w))
        return rho - radius, slope * (dw / w).imag - (np.conj(w) * dw).real / radius

    return ray, _bracketed_newton(f, b - fb * (b - a) / (fb - fa), a, b, fa > 0.0)


def distance_field(dom, grid_res=DEFAULT_GRID_RES):
    """Boundary crossings of grid_res normal rays, equally spaced in the hole's parameter.

    delta0, the largest distance from the hole within the domain, is the
    largest exit, maximized over the parameter between the neighbours of
    the best ray: PEAK_ROUNDS rounds of PEAK_RAYS rays each, every round
    spanning the neighbours of the previous round's best ray, so each round
    divides the spacing by (PEAK_RAYS - 1) / 2.
    """
    if not isinstance(dom, AnnularDomain2D):
        raise DomainValidationError("distance fields are built over annular domains")
    if grid_res < MIN_GRID_RES:
        raise DomainValidationError(f"grid_res must be at least {MIN_GRID_RES}, got {grid_res}")
    require_convex(dom.inner, "hole")
    band = _radius_band(dom)

    prof = curvature_2d(dom.inner, n_theta=grid_res)
    theta = prof.params
    ray, dist = _ray_crossings(dom, theta, band)
    column = np.arange(len(ray)) - np.searchsorted(ray, ray)
    crossings = np.full((grid_res, column.max() + 1), np.nan)
    crossings[ray, column] = dist

    last = np.nanmax(crossings, axis=1)
    best = int(np.argmax(last))
    h = 2.0 * np.pi / grid_res
    delta0, lo, hi = float(last[best]), theta[best] - h, theta[best] + h
    for _ in range(PEAK_ROUNDS):
        t = np.linspace(lo, hi, PEAK_RAYS)
        ray, dist = _ray_crossings(dom, t, band)
        exits = dist[np.append(ray[1:] != ray[:-1], True)]  # each ray's last crossing
        k = int(np.argmax(exits))
        delta0 = max(delta0, float(exits[k]))
        lo, hi = t[max(k - 1, 0)], t[min(k + 1, PEAK_RAYS - 1)]
    return DistanceField(theta=theta, values=crossings[:, 0], reentries=crossings[:, 1:],
                         speed=prof.weights / h, kappa=prof.kappas[:, 0], delta0=delta0)


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


def _lengths(fld, deltas, stride=1):
    """L at each of the ascending deltas from every stride-th ray of the field.

    Between neighbouring rays that cross the outer boundary equally often,
    each crossing distance is interpolated linearly in the parameter, and
    the density speed (cosh delta + kappa sinh delta), linear between the
    rays, is integrated exactly over the part of the interval where that
    crossing lies beyond delta; an exit counts +1 and an entry -1.  Where
    the counts differ (the outer boundary touches a ray in between), each
    ray keeps its own crossings on its half of the interval.
    """
    theta, c, speed, kappa = (x[::stride] for x in
                              (fld.theta, fld.crossings, fld.speed, fld.kappa))
    nxt = np.roll(np.arange(len(theta)), -1)
    width = np.diff(np.append(theta, theta[0] + 2.0 * np.pi))
    counts = np.sum(np.isfinite(c), axis=1)
    same = (counts == counts[nxt])[:, None]
    sign = np.where(np.arange(c.shape[1]) % 2 == 0, 1.0, -1.0)

    # one piece per interval and crossing; where the counts differ, a second
    # piece gives the right-hand ray's crossings the right half
    cn = c[nxt]
    u_mid = np.where(same, 1.0, 0.5)
    pieces = [(0.0, u_mid, c, np.where(same, cn, c)),
              (u_mid, 1.0, np.where(same, np.nan, cn), cn)]
    a, b = speed, speed * kappa
    per_interval = (sign * width[:, None], a[:, None], a[nxt][:, None],
                    b[:, None], b[nxt][:, None])
    columns = zip(*([np.broadcast_to(x, c.shape).ravel() for x in (*piece, *per_interval)]
                    for piece in pieces))
    u0, u1, c0, c1, w, a0, a1, b0, b1 = (np.concatenate(x) for x in columns)
    keep = np.isfinite(c0) & np.isfinite(c1)
    u0, u1, c0, c1, w, a0, a1, b0, b1 = (x[keep] for x in (u0, u1, c0, c1, w, a0, a1, b0, b1))

    def integral(ua, ub, k):
        """int_{ua}^{ub} of the density on piece k, split as (cosh, sinh) parts."""
        span, half_sq = ub - ua, 0.5 * (ub * ub - ua * ua)
        return (w[k] * (a0[k] * span + (a1[k] - a0[k]) * half_sq),
                w[k] * (b0[k] * span + (b1[k] - b0[k]) * half_sq))

    # a piece lying beyond delta throughout adds a constant: sum those in
    # order of their nearer end, and interpolate only the pieces delta cuts
    deltas = np.asarray(deltas, dtype=float)
    near, far = np.minimum(c0, c1), np.maximum(c0, c1)
    order = np.argsort(near)
    whole = integral(u0[order], u1[order], order)
    beyond = np.searchsorted(near[order], deltas, side="right")
    A, B = (np.append(np.cumsum(x[::-1])[::-1], 0.0)[beyond] for x in whole)
    row, k = _cuts(deltas, near, far)
    d = deltas[row]
    cut = u0[k] + (u1[k] - u0[k]) * (c0[k] - d) / (c0[k] - c1[k])
    falling = c0[k] > d
    part = integral(np.where(falling, u0[k], cut), np.where(falling, cut, u1[k]), k)
    A = A + np.bincount(row, weights=part[0], minlength=len(deltas))
    B = B + np.bincount(row, weights=part[1], minlength=len(deltas))
    return np.cosh(deltas) * A + np.sinh(deltas) * B


@dataclass(frozen=True)
class ParallelTable:
    """Sampled parallel lengths and their annulus counterparts.

    L_err and delta0_err are measured: the largest change of an L row, and
    of delta0 (taken as the largest exit, unrefined), when the table is
    rebuilt from every other ray of its field.  The last row, just inside
    delta0, is the exception: where the level set is narrower than the ray
    spacing neither ray set sees it, and L there, which falls like
    sqrt(delta0 - delta), may err by more than L_err.
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
    require_convex(dom.inner, "hole")
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
    if n_deltas < MIN_N_DELTAS:
        raise DomainValidationError(f"n_deltas must be at least {MIN_N_DELTAS}, got {n_deltas}")
    if fld is None:
        fld = distance_field(dom, grid_res=grid_res)
    r, R = annulus_match(dom)
    deltas = np.linspace(0.0, fld.delta0 * (1.0 - DELTA0_ROW_RTOL), n_deltas)
    L = _lengths(fld, deltas)
    L_err = float(np.max(np.abs(L - _lengths(fld, deltas, stride=2))))
    delta0_err = fld.delta0 - float(np.nanmax(fld.crossings[::2]))
    # the matched annulus' circles, 2 pi sinh(r + delta), up to its outer radius
    Ltilde = np.where(deltas <= R - r, 2.0 * math.pi * np.sinh(r + deltas), 0.0)
    return ParallelTable(deltas=deltas, L=L, delta0=fld.delta0, Ltilde=Ltilde,
                         r_match=r, R_match=R, grid_res=len(fld.values),
                         L_err=max(L_err, ROUNDOFF_RTOL * float(np.max(L))),
                         delta0_err=max(delta0_err, ROUNDOFF_RTOL * fld.delta0))


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
