"""Closed-form hyperbolic primitives.

Everything here is about the hyperbolic space of curvature -1: measures of
geodesic balls, the quermassintegral vector of a ball (computed through the
curvature-integral recursion and validated by its terminal convention
W_n = omega_{n-1}/n), inverse radius lookups, and distances in the Poincare
ball chart.  These functions are the oracles the rest of the toolkit is
checked against, so they favour closed forms and extended precision over
generality.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .errors import DomainValidationError, ConsistencyError, NumericError, SearchError

_LD = np.longdouble
_TINY = np.finfo(float).tiny  # smallest normal double

# log-space switch-over for sinh/cosh powers, safely under double overflow
_LOG_SPACE_THRESHOLD = 700.0 * math.log(2.0)
# largest ambient dimension: of 160 radii in [0.01, 5], ball_quermass accepts
# some ball up to n = 271 and none from 272 to 319; at n = 256, of r = 0.20-2.0
# in steps of 0.01, it accepts 0.25-0.29 (smaller radii underflow, larger ones
# fail the terminal check), and it refuses the unit ball from n = 37 on
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
# it takes one from n = 45 on, two for 3 <= n <= 44 and three at n = 2
_GL_MAX_PASSES = 5


def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@lru_cache(maxsize=32)
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
    Taylor step, with P_n'' from Legendre's equation
    (1 - x^2) P'' = 2x P' - n(n+1) P.  Passes repeat until the quadratic
    error bound |P''/P'| dx^2 of every Newton step is below 1e-17: one pass
    from n = 45 on, two or three below.  The positive nodes and their
    weights are mirror images.  The weights are within 9e-13 relative at
    n = 384, 5e-12 at n = 1024 and 4e-11 at n = 2048; numpy's leggauss
    loses two to three more digits.
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
        bound = np.abs(ddp / dp) * dx * dx
        x += dx
        dp += ddp * dx
        if np.all(bound < 1e-17):
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
    like r^{m+1}.  In long double this is within 3.5e-14 of the binomial sum
    in 900-digit arithmetic for m <= 255 and 0.01 <= r <= 5.
    """
    if m < 0:
        raise DomainValidationError("power must be >= 0")
    r = np.asarray(r, dtype=dtype)
    if np.any(r < 0):
        raise DomainValidationError("upper limit must be >= 0")
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


def ball_quermass(n, r):
    """QuermassVector of the geodesic ball B_r.

    The curvature integrals of a ball are omega_{n-1} cosh^j r sinh^{n-1-j} r
    (all principal curvatures equal coth r).  The recursion is evaluated in
    extended precision: its terminal entry is a cancellation of terms that
    grow like sinh^{n-1} r, and the 1e-10 terminal guarantee would not
    survive double rounding at r ~ 4, n = 5.
    """
    n = check_dimension(n)
    if r <= 0:
        raise DomainValidationError(f"ball radius must be > 0, got {r}")
    rl = _LD(r)
    om = _LD(sphere_measure(n - 1))
    try:
        with np.errstate(over="raise"):
            sh, ch = np.sinh(rl), np.cosh(rl)
            v = [om * ch ** j * sh ** (n - 1 - j) for j in range(n)]  # v[j] = V_{n-j-1}
            v_by_index = np.zeros(n, dtype=_LD)
            for j in range(n):
                v_by_index[n - j - 1] = v[j]
            vol = om * sinh_power_integral(n - 1, r, dtype=_LD)
            if not float(vol) < math.inf:  # finite in long double, but W_0 is a double
                raise NumericError(f"volume of the ball of radius {r!r} in dimension {n} "
                                   f"is {float(vol):.3g}, not a finite double")
            w = quermass_from_curvature_integrals(n, vol, v_by_index, 1e-10, dtype=_LD)
    except FloatingPointError:
        raise NumericError(f"quermassintegrals of the ball of radius {r!r} in dimension {n} "
                           "overflow the long-double range") from None
    return QuermassVector(n=n, w=w)


def quermass_inverse_radius(n, m, w):
    """Radius r with W_m(B_r) = w, for 0 <= m <= n-1.

    r -> W_m(B_r) is strictly increasing, so the root is unique; located by
    geometric bracket expansion followed by brentq, then residual-checked.
    """
    n = check_dimension(n)
    if not 0 <= m <= n - 1:
        raise DomainValidationError(f"index m must be in 0..{n - 1}, got {m}")
    if w <= 0:
        raise DomainValidationError(f"target quermassintegral must be > 0, got {w}")

    def f(r):
        return ball_quermass(n, r)[m] - w

    lo, hi = 1e-8, 1.0
    for _ in range(80):
        if f(lo) < 0.0:
            break
        lo *= 1e-2
    else:
        raise SearchError("could not bracket quermass inverse from below")
    for _ in range(60):
        if f(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise SearchError("could not bracket quermass inverse from above")
    r = brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    resid = abs(ball_quermass(n, r)[m] - w)
    if resid > 1e-12 * w:
        raise SearchError(f"inverse radius residual {resid:.3e} exceeds 1e-12 relative")
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
