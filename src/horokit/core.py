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
# largest ambient dimension: of 160 radii in [0.01, 5], some ball passes the
# quermass terminal check up to n = 265 and none beyond n = 268; at n = 256
# only radii 0.21-0.25 do (below 0.245 the volume is no normal double), and
# the unit ball fails it from n = 37 on
MAX_DIMENSION = 256


def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@lru_cache(maxsize=32)
def gauss_legendre_nodes(n_nodes):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only and cached.

    The nonpositive nodes take three Newton steps on P_n from Tricomi's
    estimate (1 - (n-1)/(8n^3)) cos(pi (k - 1/4) / (n + 1/2)), O(n^2); the
    positive ones are their mirror images.  The weights are
    2 / ((1 - x^2) P_n'(x)^2), mirrored too.  P_n and P_n' come from the
    three-term recurrence, which keeps the weights within 3e-12 relative at
    n = 384 and 7e-11 at n = 2048; numpy's legval/legder route loses two to
    three more digits.
    """
    n = n_nodes
    k = np.arange(n, n // 2, -1, dtype=float)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(np.pi * (k - 0.25) / (n + 0.5))
    for _ in range(3):
        p, dp = _legendre(n, x)
        x -= p / dp
    if n % 2:
        x[-1] = 0.0
    _, dp = _legendre(n, x)
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

    For r above 0.25 the exact binomial antiderivative of
    ((e^t - e^-t)/2)^m is used (a sum of expm1 terms, the middle one
    integrating to r).  Small radii would suffer catastrophic cancellation
    there (the result scales like r^{m+1} while the terms stay O(r)), so
    they go through Gauss-Legendre on the positive integrand instead.
    """
    if m < 0:
        raise DomainValidationError("power must be >= 0")
    r = np.asarray(r, dtype=dtype)
    if np.any(r < 0):
        raise DomainValidationError("upper limit must be >= 0")
    out = np.zeros_like(r)
    small = r <= 0.25
    if np.any(small):
        x, w = gauss_legendre_nodes(48)
        rs = r[small]
        t = dtype(0.5) * rs[:, None] * (dtype(1.0) + x.astype(dtype))
        out[small] = dtype(0.5) * rs * np.sum(w.astype(dtype) * np.sinh(t) ** m, axis=1)
    if np.any(~small):
        rl = r[~small]
        total = np.zeros_like(rl)
        for k in range(m + 1):
            a = m - 2 * k
            c = dtype(math.comb(m, k)) * dtype((-1.0) ** k)
            if a == 0:
                total += c * rl
            else:
                total += c * np.expm1(dtype(a) * rl) / dtype(a)
        out[~small] = total / dtype(2.0) ** m
    return out[()]


def _normal(value, what, n, r):
    """value, unless it is not a finite normal double (below _TINY, inf or nan)."""
    if not _TINY <= value < math.inf:
        raise NumericError(f"{what} of the ball of radius {r!r} in dimension {n} "
                           f"is {value:.3g}, not a finite normal double")
    return value


def ball_volume(n, r):
    """Volume of the geodesic ball B_r, omega_{n-1} * integral_0^r sinh^{n-1}.

    A volume that is no finite normal double raises NumericError."""
    n = check_dimension(n)
    if r <= 0:
        raise DomainValidationError(f"ball radius must be > 0, got {r}")
    try:
        if n == 2:
            # 2*pi*(cosh r - 1), written cancellation-free
            vol = 4.0 * math.pi * math.sinh(0.5 * r) ** 2
        elif n == 3:
            # pi*(sinh 2r - 2r); series for small arguments
            x = 2.0 * r
            if x < 1e-2:
                x2 = x * x
                vol = math.pi * (x ** 3 / 6.0) * (1.0 + x2 / 20.0 + x2 * x2 / 840.0)
            else:
                vol = math.pi * (math.sinh(x) - x)
        else:
            vol = float(sphere_measure(n - 1) * sinh_power_integral(n - 1, r, dtype=_LD))
    except OverflowError:  # math.sinh or its square past the double range
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
        if np.any(w <= 0.0):
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
    rel = abs(float((w[n] - w_n_expected) / w_n_expected))
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
