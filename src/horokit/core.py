"""Closed-form hyperbolic primitives.

Everything here is about the hyperbolic space of curvature -1: measures of
geodesic balls, the quermassintegral vector of a ball (computed through the
curvature-integral recursion and validated by its terminal convention
W_n = omega_{n-1}/n), each W_m(B_r) on its own as a sum of positive terms,
inverse radius lookups, and distances in the Poincare ball chart.  These
functions are the oracles the rest of the toolkit is checked against, so
they favour closed forms and extended precision over generality.  The one
scalar and vectorized root finder, a bracketed Newton, sits with the chart
plumbing at the end: it inverts W_m(B_r), and bodies and parallels find
boundary points with it.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainValidationError, ConsistencyError, NumericError, SearchError

_LD = np.longdouble
_TINY = np.finfo(float).tiny  # smallest normal double
ROOT_MAX_ITER = 100      # passes of _bracketed_newton, a convergence guard
# relative round-off: a Newton step below it leaves a root's next iterate at
# round-off, and the parallel tables' error estimates never read below it
ROUNDOFF_RTOL = 1e-12

# log-space switch-over for sinh/cosh powers, safely under double overflow
_LOG_SPACE_THRESHOLD = 700.0 * math.log(2.0)
# largest ambient dimension: of 160 radii in [0.01, 5], ball_quermass accepts
# some ball up to n = 271 and none from 272 to 319; at n = 256, of r = 0.20-2.0
# in steps of 0.01, it accepts 0.25-0.29, and it refuses the unit ball from
# n = 37 on; ball_quermassintegral takes no recursion and has no such window
MAX_DIMENSION = 256


# first zeros j_{0,k} of the Bessel function J_0, for Olver's end-node estimates
_J0_ZEROS = np.array([
    2.4048255576957724, 5.520078110286311, 8.653727912911013, 11.791534439014281,
    14.930917708487787, 18.071063967910924, 21.21163662987926, 24.352471530749302,
    27.493479132040253, 30.634606468431976, 33.77582021357357, 36.917098353664045,
    40.05842576462824, 43.19979171317673, 46.341188371661815, 49.482609897397815,
    52.624051841115, 55.76551075501998, 58.90698392608094, 62.048469190227166,
])
# cap on the recurrence passes of gauss_legendre_nodes, a convergence guard:
# it takes one from n = 83 on, two for 3 <= n <= 82 and three at n = 2
_GL_MAX_PASSES = 5


def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@lru_cache(maxsize=256)
def gauss_legendre_nodes(n_nodes):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only and cached.

    The nonpositive nodes start from asymptotic estimates (Hale & Townsend,
    SIAM J. Sci. Comput. 35 (2013) A652): Olver's Bessel-zero form
    -cos(psi + (psi cot psi - 1) / (8 psi rho^2)), psi = j_{0,k} / rho,
    rho = n + 1/2, for the 20 nodes nearest -1, and Tricomi's expansion
    cos(theta) (1 - (n-1)/(8n^3) - (39 - 28/sin^2 theta)/(384n^4)),
    theta = pi (k - 1/4) / (n + 1/2), inside.  At n = 384 every start is
    within 8e-13 of its node (1e-14 at the ends), so one pass of the
    three-term recurrence, which gives P_n and P_n', and its Newton step
    land within round-off.  The same pass gives the weights
    2 / ((1 - x^2) P_n'(x)^2): P_n' is moved to the corrected node by a
    Taylor step, with P_n'' and P_n''' from Legendre's equation
    (1 - x^2) P'' = 2x P' - n(n+1) P and its derivative.  Passes repeat
    until, at every node, the Newton step's error bound |P''/P'| dx^2 is
    below 1e-17 and the weight's, |P'''/P'| dx^2, below 1e-15: one pass from
    n = 83 on, two or three below.  The positive nodes and their weights are
    mirror images.  The weights sum to 2 within 1.6e-15 for n <= 400, and
    are within 9e-13 relative at n = 384, 5e-12 at n = 1024 and 4e-11 at
    n = 2048; numpy's leggauss loses two to three more digits.
    """
    n = n_nodes
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainValidationError(f"Gauss-Legendre rules need n >= 1 nodes, got {n!r}")
    k = np.arange(n, n // 2, -1, dtype=float)
    theta = np.pi * (k - 0.25) / (n + 0.5)
    x = np.cos(theta) * (1.0 - (n - 1) / (8.0 * n ** 3)
                         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n ** 4))
    rho = n + 0.5
    psi = _J0_ZEROS[:len(x)] / rho
    x[:len(psi)] = -np.cos(psi + (psi / np.tan(psi) - 1.0) / (8.0 * psi * rho ** 2))
    if n % 2:
        x[-1] = 0.0
    for _ in range(_GL_MAX_PASSES):
        p, dp = _legendre(n, x)
        dx = -p / dp
        ddp = (2.0 * x * dp - n * (n + 1) * p) / (1.0 - x * x)
        dddp = (4.0 * x * ddp - (n * (n + 1) - 2) * dp) / (1.0 - x * x)
        settled = (np.all(np.abs(ddp / dp) * dx * dx < 1e-17)
                   and np.all(np.abs(dddp / dp) * dx * dx < 1e-15))
        x += dx
        dp += ddp * dx
        if settled:
            break
    else:
        raise NumericError(f"Gauss-Legendre nodes for n = {n} did not converge")
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    mirror = slice(-1 - n % 2, None, -1)
    x = np.concatenate([x, -x[mirror]])
    w = np.concatenate([w, w[mirror]])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def check_dimension(n):
    """Validate an ambient dimension 2 <= n <= MAX_DIMENSION."""
    if not isinstance(n, (int, np.integer)):
        raise DomainValidationError(f"dimension must be an integer, got {n!r}")
    if not 2 <= n <= MAX_DIMENSION:
        raise DomainValidationError(f"dimension must be in [2, {MAX_DIMENSION}], got {n}")
    return int(n)


def check_exponent(p):
    """Validate a p-Laplacian exponent 1 < p < inf."""
    if not 1.0 < p < math.inf:
        raise DomainValidationError(f"exponent p must be finite and exceed 1, got {p}")


def sphere_measure(i):
    """Hausdorff measure omega_i of the unit i-sphere.

    Uses the exact recurrence omega_i = 2*pi*omega_{i-2}/(i-1) seeded by
    omega_0 = 2 and omega_1 = 2*pi, which keeps small indices free of
    Gamma-function rounding (omega_2 == 4*pi exactly).
    """
    if i < 0:
        raise DomainValidationError(f"sphere index must be >= 0, got {i}")
    omega = 2.0 * math.pi if i % 2 else 2.0
    for k in range(i % 2 + 2, i + 1, 2):
        omega = 2.0 * math.pi * omega / (k - 1)
    return omega


def sinh_pow(r, k):
    """sinh(r)**k with a log-space branch for arguments that would overflow."""
    if k == 0:
        return 1.0
    if r <= 0:
        raise DomainValidationError(f"sinh_pow needs r > 0, got {r}")
    if k * r > _LOG_SPACE_THRESHOLD:
        log_sinh = r + math.log1p(-math.exp(-2.0 * r)) - math.log(2.0)
        try:
            return math.exp(k * log_sinh)
        except OverflowError:
            raise NumericError(f"sinh({r!r})**{k} overflows a double") from None
    return math.sinh(r) ** k


def sinh_power_integral(m, r, dtype=float):
    """integral_0^r sinh(t)**m dt in the given dtype, elementwise over a
    scalar or array r.

    Above r = 0.25 the binomial antiderivative of ((e^t - e^-t)/2)^m is
    summed (expm1 terms, the middle one integrating to r).  Its terms grow
    like C(m, k) while the result does not, so the sum stands only where
    the sum of the terms' magnitudes times the dtype's epsilon is within
    four float64 epsilons of the result (a NaN sum, inf - inf, is not).
    Elsewhere Gauss-Legendre on the positive integrand takes over with
    m + 48 nodes, as it does with 48 at r <= 0.25, where the result scales
    like r^{m+1}.  In long double it is within 4.4e-14 of 700-digit sums at
    24 powers m <= 255 and 42 radii in [0.01, 5], and 8.8e-18 for m <= 1.
    """
    if m < 0:
        raise DomainValidationError("power must be >= 0")
    r = np.asarray(r, dtype=dtype)
    if np.any(r < 0):
        raise DomainValidationError("upper limit must be >= 0")
    if r.ndim == 0:
        return _sinh_power_integral_scalar(m, r[()], dtype)
    out = np.zeros_like(r)
    small = r <= 0.25
    lost = np.zeros_like(small)
    if np.any(~small):
        rl = r[~small]
        total, size = np.zeros_like(rl), np.zeros_like(rl)
        for k in range(m + 1):
            a = m - 2 * k
            c = dtype(math.comb(m, k)) * dtype((-1.0) ** k)
            term = c * rl if a == 0 else c * np.expm1(dtype(a) * rl) / dtype(a)
            total += term
            size += np.abs(term)
        out[~small] = total / dtype(2.0) ** m
        lost[~small] = ~(size * np.finfo(dtype).eps <= 4.0 * np.finfo(float).eps * np.abs(total))
    for where, n_nodes in ((small, 48), (lost, m + 48)):
        if np.any(where):
            x, w = gauss_legendre_nodes(n_nodes)
            rs = r[where]
            t = dtype(0.5) * rs[:, None] * (dtype(1.0) + x.astype(dtype))
            out[where] = dtype(0.5) * rs * np.sum(w.astype(dtype) * np.sinh(t) ** m, axis=1)
    return out[()]


def _sinh_power_integral_scalar(m, r, dtype):
    """sinh_power_integral at one upper limit r, a dtype scalar: the same
    operations in the same order on scalars, so the same result bit for bit,
    without the masks and one-element arrays of the array path."""
    n_nodes = 48
    if r > 0.25:
        total = size = dtype(0.0)
        for k in range(m + 1):
            a = m - 2 * k
            c = dtype(math.comb(m, k)) * dtype((-1.0) ** k)
            term = c * r if a == 0 else c * np.expm1(dtype(a) * r) / dtype(a)
            total += term
            size += abs(term)
        if size * np.finfo(dtype).eps <= 4.0 * np.finfo(float).eps * abs(total):
            return total / dtype(2.0) ** m
        n_nodes = m + 48
    x, w = gauss_legendre_nodes(n_nodes)
    t = dtype(0.5) * r * (dtype(1.0) + x.astype(dtype))
    return dtype(0.5) * r * np.sum(w.astype(dtype) * np.sinh(t) ** m)


def _normal(value, what, n, r):
    """value, unless it is not a finite normal double (below _TINY, inf or nan)."""
    if not _TINY <= value < math.inf:
        raise NumericError(f"{what} of the ball of radius {r!r} in dimension {n} "
                           f"is {value:.3g}, not a finite normal double")
    return value


def ball_volume(n, r):
    """Volume of the geodesic ball B_r, omega_{n-1} * integral_0^r sinh^{n-1}
    by sinh_power_integral in long double (closed form for n = 2); a volume
    that is no finite normal double raises NumericError."""
    n = check_dimension(n)
    if r <= 0:
        raise DomainValidationError(f"ball radius must be > 0, got {r}")
    try:
        if n == 2:
            # 2*pi*(cosh r - 1) cancellation-free: within 5e-16, the general path 6e-15
            vol = 4.0 * math.pi * math.sinh(0.5 * r) ** 2
        else:
            with np.errstate(over="raise"):
                vol = float(sphere_measure(n - 1) * sinh_power_integral(n - 1, r, dtype=_LD))
    # math.sinh or its square past the double range, or a term of the
    # integral past the long-double one
    except (OverflowError, FloatingPointError):
        vol = math.inf
    return _normal(vol, "volume", n, r)


def ball_perimeter(n, r):
    """Perimeter (boundary measure) of B_r: omega_{n-1} * sinh^{n-1} r.

    A perimeter that is no finite normal double raises NumericError."""
    n = check_dimension(n)
    if r <= 0:
        raise DomainValidationError(f"ball radius must be > 0, got {r}")
    return _normal(sphere_measure(n - 1) * sinh_pow(r, n - 1), "perimeter", n, r)


@dataclass(frozen=True)
class QuermassVector:
    """Quermassintegrals (W_0, ..., W_n) of a convex body in dimension n.

    Conventions baked in: W_0 = volume, W_1 = perimeter / n and
    W_n = omega_{n-1}/n exactly.
    """

    n: int
    w: np.ndarray

    def __post_init__(self):
        check_dimension(self.n)
        if len(self.w) != self.n + 1:
            raise DomainValidationError("quermass vector must have n+1 entries")
        w = np.asarray(self.w)
        # zero is an underflow of a positive value, not a sign of bad input
        if np.any(w < 0.0):
            raise DomainValidationError("quermassintegrals of a nonempty body are positive")
        if np.any(w < _TINY):
            raise NumericError("quermassintegrals underflow below the smallest normal double")

    def __getitem__(self, j):
        return float(self.w[j])


def quermass_from_curvature_integrals(n, volume, v, terminal_rtol, dtype=float):
    """Solve the triangular curvature-integral relation for (W_0..W_n).

    v[n-j-1] holds the boundary integral of the j-th normalized symmetric
    curvature function; the relation V_{n-j-1} = n*(W_{j+1} + j/(n-j+1) W_{j-1})
    is marched upward from W_0 = volume.  The terminal entry must land on
    omega_{n-1}/n; a miss beyond `terminal_rtol` invalidates the inputs.
    """
    w = np.zeros(n + 1, dtype=dtype)
    w[0] = dtype(volume)
    for j in range(n):
        vj = dtype(v[n - j - 1])
        if j == 0:
            w[1] = vj / n
        else:
            w[j + 1] = vj / n - (dtype(j) / dtype(n - j + 1)) * w[j - 1]
    w_n_expected = dtype(sphere_measure(n - 1)) / n
    # in Python floats a relative error beyond the double range reads inf
    rel = abs(float(w[n] - w_n_expected) / float(w_n_expected))
    if rel > terminal_rtol:
        raise ConsistencyError(
            f"quermass recursion terminal mismatch: W_n relative error {rel:.3e} "
            f"exceeds {terminal_rtol:.1e}"
        )
    return w.astype(float)


def ball_curvature_integrals(n, r):
    """Curvature integrals V_i(B_r) = omega_{n-1} sinh^i r cosh^{n-1-i} r,
    i = 0..n-1, of the geodesic ball (all principal curvatures equal
    coth r), in long double; the caller sets the overflow policy."""
    rl = _LD(r)
    i = np.arange(n)
    return _LD(sphere_measure(n - 1)) * np.cosh(rl) ** (n - 1 - i) * np.sinh(rl) ** i


def ball_quermass(n, r):
    """QuermassVector of the geodesic ball B_r.

    The recursion runs on ball_curvature_integrals in extended precision:
    its terminal entry is a cancellation of terms that grow like
    sinh^{n-1} r, and the 1e-10 terminal guarantee would not survive double
    rounding at r ~ 4, n = 5.
    """
    n = check_dimension(n)
    if r <= 0:
        raise DomainValidationError(f"ball radius must be > 0, got {r}")
    try:
        with np.errstate(over="raise"):
            v_by_index = ball_curvature_integrals(n, r)
            vol = _LD(sphere_measure(n - 1)) * sinh_power_integral(n - 1, r, dtype=_LD)
            if not float(vol) < math.inf:  # finite in long double, but W_0 is a double
                raise NumericError(f"volume of the ball of radius {r!r} in dimension {n} "
                                   f"is {float(vol):.3g}, not a finite double")
            w = quermass_from_curvature_integrals(n, vol, v_by_index, 1e-10, dtype=_LD)
    except FloatingPointError:
        raise NumericError(f"quermassintegrals of the ball of radius {r!r} in dimension {n} "
                           "overflow the long-double range") from None
    return QuermassVector(n=n, w=w)


def ball_quermassintegral(n, m, r):
    """W_m(B_r) and its slope, for 0 <= m <= n-1, in long double.

    W_m(B_r) = ((n-m)/n) omega_{n-1} int_0^r sinh^{n-1-m} t cosh^m t dt as a
    sum of positive terms, with no recursion to cancel or to fail a terminal
    check: for odd m the polynomial sum_k C((m-1)/2, k) s^{n-m+2k} / (n-m+2k)
    in s = sinh r, and for even m, by cosh^m = (1 + sinh^2)^{m/2},
    sum_k C(m/2, k) sinh_power_integral(n-1-m+2k, r).
    """
    n = check_dimension(n)
    if not 0 <= m <= n - 1:
        raise DomainValidationError(f"index m must be in 0..{n - 1}, got {m}")
    if r <= 0:
        raise DomainValidationError(f"ball radius must be > 0, got {r}")
    rl, a, half = _LD(r), n - 1 - m, m // 2
    scale = _LD(n - m) / _LD(n) * _LD(sphere_measure(n - 1))
    if m % 2:
        s = np.sinh(rl)
        integral = sum(_LD(math.comb(half, k)) * s ** (a + 1 + 2 * k) / _LD(a + 1 + 2 * k)
                       for k in range(half + 1))
    else:
        integral = sum(_LD(math.comb(half, k)) * sinh_power_integral(a + 2 * k, rl, dtype=_LD)
                       for k in range(half + 1))
    return scale * integral, scale * np.sinh(rl) ** a * np.cosh(rl) ** m


def quermass_inverse_radius(n, m, w):
    """Radius r with W_m(B_r) = w, for 0 <= m <= n-1.

    _bracketed_newton zeroes the increasing log(W_m(B_r) / w) of
    ball_quermassintegral from hi on [0, hi], hi the smaller of two bounds
    on the root: W_m(B_r) >= omega_{n-1} r^{n-m} / n (sinh t >= t,
    cosh t >= 1), tight for small balls, and W_m(B_r) >= ((n-m)/n)
    omega_{n-1} sinh^{n-1}(r - 1) (the integrand on [r - 1, r]).  Of the
    root and its two neighbouring doubles the one with the smallest
    long-double residual is returned, and that residual is checked.
    """
    n = check_dimension(n)
    if not 0 <= m <= n - 1:
        raise DomainValidationError(f"index m must be in 0..{n - 1}, got {m}")
    if not _TINY <= w < math.inf:
        raise DomainValidationError(f"target quermassintegral must be a normal double > 0, got {w}")
    log_w = math.log(w) - math.log(sphere_measure(n - 1))
    hi = 1.0 + math.asinh(math.exp((math.log(n / (n - m)) + log_w) / (n - 1)))
    # the small-ball bound is within round-off of tiny roots: pad it past its own rounding
    hi = math.exp(min((math.log(n) + log_w) / (n - m), math.log(hi)) + ROUNDOFF_RTOL)

    def g(k, t):
        value, slope = ball_quermassintegral(n, m, t[0])
        return np.array([float(np.log(value / _LD(w)))]), np.array([float(slope / value)])

    root = _bracketed_newton(g, np.array([hi]), np.array([0.0]), np.array([hi]),
                             np.array([False]))[0]
    candidates = (root, np.nextafter(root, 0.0), np.nextafter(root, math.inf))
    resid, r = min((abs(ball_quermassintegral(n, m, x)[0] - _LD(w)), x) for x in candidates)
    if resid > 1e-12 * w:
        raise SearchError(f"inverse radius residual {float(resid):.3e} exceeds 1e-12 relative")
    return float(r)


def _validate_chart_points(x):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] < 1:
        raise DomainValidationError("chart points need at least one coordinate")
    if np.any(np.sum(x * x, axis=-1) >= 1.0):
        raise DomainValidationError("chart point outside the open unit ball")
    return x


def poincare_distance(x, y):
    """Hyperbolic distance between Poincare-ball chart points (broadcasting).

    Evaluated as 2*asinh(|x-y| / sqrt((1-|x|^2)(1-|y|^2))), which is the
    cancellation-free form of acosh(1 + 2|x-y|^2/((1-|x|^2)(1-|y|^2))).
    """
    x = _validate_chart_points(x)
    y = _validate_chart_points(y)
    diff2 = np.sum((x - y) ** 2, axis=-1)
    ax = 1.0 - np.sum(x * x, axis=-1)
    ay = 1.0 - np.sum(y * y, axis=-1)
    return 2.0 * np.arcsinh(np.sqrt(diff2 / (ax * ay)))


# ---------------------------------------------------------------------------
# Poincare-disk helpers (2-D chart plumbing used by the planar solvers)

def mobius_shift(z, c):
    """Disk automorphism sending 0 -> c applied to complex chart points z."""
    return (z + c) / (1.0 + np.conj(c) * z)


def chart_radius(rho):
    """Euclidean chart radius of a point at hyperbolic distance rho from 0."""
    return np.tanh(np.asarray(rho, dtype=float) / 2.0)


def geodesic_step(z0, direction, delta):
    """Point at hyperbolic distance delta from z0 along a unit chart direction.

    Directions at z0 are preserved by the automorphism centring z0, so the
    step reduces to tanh(delta/2) at the origin followed by mobius_shift.
    """
    w = np.tanh(delta / 2.0) * direction
    return mobius_shift(w, z0)


def geodesic_velocity(z0, direction, w, delta):
    """Chart velocity at w = geodesic_step(z0, direction, delta) of that
    unit-speed geodesic: sech^2(delta/2) direction (1 - conj(z0) w)^2 / (2 (1 - |z0|^2))."""
    return ((1.0 - np.tanh(0.5 * delta) ** 2) * direction * (1.0 - np.conj(z0) * w) ** 2
            / (2.0 * (1.0 - np.abs(z0) ** 2)))


def _bracketed_newton(g, t, a, b, a_in):
    """Roots of g in the brackets [a, b], by Newton from t inside each bracket.

    g(k, t) gives the values and derivatives of the functions k at t, and
    a_in says where the value at a is positive.  Each evaluation shrinks its
    bracket to the side that keeps the sign change; a Newton step that does
    not land inside the bracket (a zero or tiny derivative) is replaced by
    bisection, unless it rounds to no step at all.  A function converges,
    and leaves the active set, once it evaluates to zero, a bisection step
    falls to round-off, or a Newton step falls below ROUNDOFF_RTOL relative:
    Newton converges quadratically, so the point after such a step is at
    round-off.
    """
    root = np.empty_like(t)
    k = np.arange(len(t))
    for _ in range(ROOT_MAX_ITER):
        f, df = g(k, t)
        on_a = (f > 0.0) == a_in
        a, b = np.where(on_a, t, a), np.where(on_a, b, t)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            nxt = t - f / df
        bisect = ~((a < nxt) & (nxt < b)) & (nxt != t)
        nxt = np.where(bisect, 0.5 * (a + b), nxt)
        step = np.abs(nxt - t)
        done = (f == 0.0) | np.where(bisect, step <= 4.0 * np.spacing(t), step <= ROUNDOFF_RTOL * t)
        root[k[done]] = np.where(f == 0.0, t, nxt)[done]
        if np.all(done):
            return root
        k, t, a, b, a_in = (x[~done] for x in (k, nxt, a, b, a_in))
    raise NumericError("bracketed Newton did not converge")
