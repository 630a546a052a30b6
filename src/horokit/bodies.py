"""Convex bodies in hyperbolic space as radial graphs.

Two representations are supported: closed curves in the hyperbolic plane
given by a truncated Fourier series r(theta) about a base point, and
rotationally symmetric bodies in dimension n >= 3 given by an even cosine
series h(u) over the polar angle u in [0, pi].  Both make every geometric
quantity (curvature profile, measures, curvature integrals, quermass
vector) a one-dimensional quadrature.  Parallel-body perimeters then follow
from Steiner's formula in the curvature integrals (steiner_polynomial,
parallel_perimeter); the Jacobian integral over the boundary
(parallel_perimeter_direct) is kept as their cross-check.

Planar profiles sample uniformly in theta (the trapezoid rule is spectral
for periodic integrands); revolution profiles sample at Gauss-Legendre
nodes of [0, pi], which never touch the poles.

Each body samples itself: its profile is built at the first count in
SAMPLES whose curvature integrals agree with those at half the samples, and
it and the data derived from it are cached on the immutable body.
require_convex is the one convex gate, and check_hypotheses the one
hypothesis rule of the comparisons: convex in H^2, h-convex for n >= 3.

The planar solvers work on one domain type, AnnularDomain2D: a Body2D hole
inside a second, possibly offset, Body2D or inside the hole's ParallelCurve
(the insulation shell).  It is checked once, when it is built, on
POLAR_SAMPLES samples of its outer boundary.  polar_radii gives the polar-map
solvers both chart radii at the polar angles they ask for, exact to
round-off: in closed form for the hole and a centred body, by bracketed
Newton on the curve's own parameter otherwise; outer_gap reads a body outer
boundary itself.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    _bracketed_newton,
    chart_radius,
    check_dimension,
    gauss_legendre_nodes,
    geodesic_step,
    geodesic_velocity,
    mobius_shift,
    sphere_measure,
    sinh_power_integral,
    quermass_from_curvature_integrals,
    QuermassVector,
)
from .errors import DomainValidationError, PreconditionError, NumericError, ConsistencyError

CONVEXITY_TOL = 1e-9
GAUSS_BONNET_RTOL = 1e-8
BODY_TERMINAL_RTOL = 1e-6
RESOLUTION_CHECK_RTOL = 1e-6
SAMPLES = (2048, 4096, 8192, 16384)  # profile sample counts, tried in order
POLAR_SAMPLES = 4096  # outer-boundary samples of a domain's checks and polar-radius brackets


def _as_coeffs(c):
    return np.atleast_1d(np.asarray(c, dtype=float)) if c is not None and len(np.atleast_1d(c)) else np.zeros(0)


class _RadialGraph:
    """The radial series and the cached derived data of both representations.

    A subclass gives its cosine and sine terms, each a cached tuple of the
    (frequency, coefficient) pairs with nonzero coefficients, its curvature
    profile at a given sample count, and its volume.
    """

    def _check(self, x):
        """Constructor checks on a grid x over the whole parameter range."""
        coeffs = [self.a0, *(c for terms in self._terms for _, c in terms)]
        # before the series, where an infinite coefficient would meet sin 0
        if not all(map(math.isfinite, coeffs)):
            raise DomainValidationError("mean radius and coefficients must be finite")
        with np.errstate(over="ignore"):  # finite terms may still sum past the double range
            r = self.radius(x)
        if not np.all(np.isfinite(r)):
            raise DomainValidationError("radial graph must stay finite")
        if self.a0 <= 0:
            raise DomainValidationError("mean radius a0 must be > 0")
        if r.min() <= 0.0:
            raise DomainValidationError("radial graph must stay positive")

    def _series(self, x, derivative):
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, self.a0 if derivative == 0 else 0.0)
        cos_terms, sin_terms = self._terms
        for k, a in cos_terms:
            if derivative == 0:
                out = out + a * np.cos(k * x)
            elif derivative == 1:
                out = out - a * k * np.sin(k * x)
            else:
                out = out - a * k * k * np.cos(k * x)
        for k, b in sin_terms:
            if derivative == 0:
                out = out + b * np.sin(k * x)
            elif derivative == 1:
                out = out + b * k * np.cos(k * x)
            else:
                out = out - b * k * k * np.sin(k * x)
        return out

    def radius(self, x):
        return self._series(x, 0)

    def radius_d1(self, x):
        return self._series(x, 1)

    def radius_d2(self, x):
        return self._series(x, 2)

    @cached_property
    def _profile(self):
        """The profile at the first of SAMPLES whose curvature integrals
        V_0..V_{n-1} all agree with those at half the samples."""
        half = curvature_integrals_from_profile(self._profile_at(SAMPLES[0] // 2)).v
        for samples in SAMPLES:
            prof = self._profile_at(samples)
            v = curvature_integrals_from_profile(prof).v
            if np.all(np.abs(v - half) <= RESOLUTION_CHECK_RTOL * np.abs(v)):
                return prof
            half = v
        raise NumericError("curvature integrals of the body do not settle: "
                           f"they still move at {samples} samples")

    @cached_property
    def _measures(self):
        return {"perimeter": self._profile.perimeter, "volume": self._volume()}

    @cached_property
    def _integrals(self):
        return curvature_integrals_from_profile(self._profile)


@dataclass(frozen=True)
class Body2D(_RadialGraph):
    """Closed curve r(theta) = a0 + sum a_k cos(k theta) + b_k sin(k theta)."""

    a0: float
    cos: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sin: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self._check(np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False))

    @property
    def n(self):
        return 2

    @cached_property
    def _terms(self):
        return tuple(tuple((k, c) for k, c in enumerate(_as_coeffs(x), start=1) if c != 0.0)
                     for x in (self.cos, self.sin))

    def _profile_at(self, samples):
        return curvature_2d(self, samples)

    def _volume(self):
        """Polar area integral_0^r sinh, cross-checked against the
        Gauss-Bonnet area integral kappa_g ds - 2 pi (curvature -1), whose
        disagreement flags a bad curvature profile."""
        prof = self._profile
        theta = prof.params
        r = self.radius(theta)
        volume = float(np.sum(np.cosh(r) - 1.0) * (2.0 * np.pi / len(theta)))
        area_gb = float(np.sum(prof.kappas[:, 0] * prof.weights) - 2.0 * np.pi)
        if abs(area_gb - volume) > GAUSS_BONNET_RTOL * abs(volume):
            raise ConsistencyError(
                f"Gauss-Bonnet area {area_gb!r} disagrees with polar area {volume!r}"
            )
        return volume

    @property
    def is_round(self):
        return len(_as_coeffs(self.cos)) == 0 and len(_as_coeffs(self.sin)) == 0

    def chart_curve(self, theta):
        """Poincare-disk image of the boundary (base point at the origin)."""
        r = self.radius(theta)
        return np.tanh(r / 2.0) * np.exp(1j * np.asarray(theta, dtype=float))

    def chart_tangent(self, theta):
        """d/dtheta of chart_curve, analytic through the series."""
        theta = np.asarray(theta, dtype=float)
        r = self.radius(theta)
        rp = self.radius_d1(theta)
        t = np.tanh(r / 2.0)
        dt = rp / (2.0 * np.cosh(r / 2.0) ** 2)
        return (dt + 1j * t) * np.exp(1j * theta)

    def chart_normal(self, theta):
        """Outward unit normal of chart_curve, also the hyperbolic one since the
        chart is conformal: -i times the tangent of a counterclockwise curve."""
        tangent = self.chart_tangent(theta)
        return -1j * tangent / np.abs(tangent)


@dataclass(frozen=True)
class RevolutionBody(_RadialGraph):
    """Rotationally symmetric body in H^n, n >= 3: radial graph h(u), u in [0, pi].

    The profile is an even cosine series h(u) = a0 + sum c_j cos(2j u), which
    enforces the pole regularity h'(0) = h'(pi) = 0 automatically.
    """

    n: int
    a0: float
    cos_even: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        check_dimension(self.n)
        if self.n < 3:
            raise DomainValidationError("revolution bodies need ambient dimension >= 3")
        self._check(np.linspace(0.0, np.pi, 2049))

    @cached_property
    def _terms(self):
        return tuple((2 * j, c) for j, c in enumerate(_as_coeffs(self.cos_even), start=1)
                     if c != 0.0), ()

    def _profile_at(self, samples):
        return curvature_revolution(self, samples)

    def _volume(self):
        """Radial integral in long double, like core.ball_volume: in double
        its binomial sum overflows to inf - inf for large n * a0."""
        n = self.n
        u, qw = _gauss_legendre(len(self._profile.params), 0.0, np.pi)
        radial = sinh_power_integral(n - 1, self.height(u), dtype=np.longdouble)
        volume = float(sphere_measure(n - 2) * np.sum(qw * np.sin(u) ** (n - 2) * radial))
        if not math.isfinite(volume):
            raise NumericError(f"volume of the body is {volume}, not a finite double")
        return volume

    height = _RadialGraph.radius
    height_d1 = _RadialGraph.radius_d1
    height_d2 = _RadialGraph.radius_d2

    @property
    def is_round(self):
        return len(_as_coeffs(self.cos_even)) == 0


def make_ball(n, r):
    """Geodesic ball as a body of the appropriate representation."""
    n = check_dimension(n)
    if r <= 0:
        raise DomainValidationError("ball radius must be > 0")
    if n == 2:
        return Body2D(a0=float(r))
    return RevolutionBody(n=n, a0=float(r))


# ---------------------------------------------------------------------------
# Curvature profiles

@dataclass(frozen=True)
class CurvatureProfile:
    """Sampled principal curvatures and area-element weights of a boundary.

    kappas has one column per distinct principal curvature; multiplicity[k]
    counts how many times column k occurs among the n-1 curvatures.  weights
    already include the quadrature rule, so sum(weights) is the perimeter.
    """

    n: int
    params: np.ndarray
    kappas: np.ndarray
    multiplicity: tuple
    weights: np.ndarray

    def __post_init__(self):
        if np.any(~np.isfinite(self.kappas)) or np.any(~np.isfinite(self.weights)):
            raise NumericError("non-finite entries in curvature profile")
        if np.any(self.weights < 0.0):
            raise NumericError("negative area-element weight")
        if sum(self.multiplicity) != self.n - 1:
            raise DomainValidationError("multiplicities must sum to n-1")

    @property
    def perimeter(self):
        return float(np.sum(self.weights))

    def min_curvature(self):
        return float(self.kappas.min())

    def symmetric_means(self):
        """H_j = sigma_j(principal curvatures)/C(n-1, j) for j = 0..n-1.

        With at most two distinct curvatures (kappa_a mult 1, kappa_b mult
        n-2) the elementary symmetric functions have a binomial closed form.
        """
        n = self.n
        m = len(self.params)
        H = np.ones((n, m))
        if n == 2:
            H[1] = self.kappas[:, 0]
            return H
        ka = self.kappas[:, 0]
        kb = self.kappas[:, 1]
        nb = self.multiplicity[1]
        for j in range(1, n):
            sig = np.zeros(m)
            if j <= nb:
                sig += math.comb(nb, j) * kb ** j
            if 0 <= j - 1 <= nb:
                sig += math.comb(nb, j - 1) * kb ** (j - 1) * ka
            H[j] = sig / math.comb(n - 1, j)
        return H


def _gauss_legendre(n_nodes, a, b):
    x, w = gauss_legendre_nodes(n_nodes)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _geodesic_curvature_polar(r, rp, rpp):
    """Geodesic curvature of a polar radial graph in the metric dr^2 + sinh^2 r dth^2."""
    f = np.sinh(r)
    fp = np.cosh(r)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        kg = (-rpp * f + 2.0 * rp ** 2 * fp + f ** 2 * fp) / (rp ** 2 + f ** 2) ** 1.5
    if np.any(~np.isfinite(kg)):
        raise NumericError("non-finite geodesic curvature")
    return kg


def arc_speed_curvature(body, theta):
    """Hyperbolic arc length per unit theta and geodesic curvature of a
    planar body's boundary at the angles theta."""
    r, rp, rpp = body.radius(theta), body.radius_d1(theta), body.radius_d2(theta)
    return np.sqrt(rp ** 2 + np.sinh(r) ** 2), _geodesic_curvature_polar(r, rp, rpp)


def curvature_2d(body, m):
    """Curvature profile of a planar body at m uniform angular samples."""
    if not isinstance(body, Body2D):
        raise DomainValidationError("curvature_2d expects a Body2D")
    theta = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    speed, kg = arc_speed_curvature(body, theta)
    return CurvatureProfile(n=2, params=theta, kappas=kg[:, None],
                            multiplicity=(1,), weights=speed * (2.0 * np.pi / m))


def revolution_pole_curvature(body, at_zero=True):
    """Umbilic curvature at a pole: (sinh h cosh h - h'')/sinh^2 h."""
    u = 0.0 if at_zero else np.pi
    h = float(body.height(u))
    hpp = float(body.height_d2(u))
    return (math.sinh(h) * math.cosh(h) - hpp) / math.sinh(h) ** 2


def curvature_revolution(body, m):
    """Curvature profile of a revolution body at m Gauss-Legendre nodes.

    The meridian curvature comes from the planar polar formula applied to the
    generating curve; the orbit curvature (multiplicity n-2) is the normal
    derivative of the distance-to-axis rho times coth rho, with
    sinh rho = sinh h sin u.  The area element collapses the orbit sphere:
    dS = omega_{n-2} sinh^{n-2} rho sqrt(h'^2 + sinh^2 h) du.
    """
    if not isinstance(body, RevolutionBody):
        raise DomainValidationError("curvature_revolution expects a RevolutionBody")
    u, qw = _gauss_legendre(m, 0.0, np.pi)
    h = body.height(u)
    hp = body.height_d1(u)
    hpp = body.height_d2(u)
    km = _geodesic_curvature_polar(h, hp, hpp)
    sh = np.sinh(h)
    speed = np.sqrt(hp ** 2 + sh ** 2)
    sinh_rho = sh * np.sin(u)
    ko = (sh * np.cosh(h) * np.sin(u) - hp * np.cos(u)) / (sinh_rho * speed)
    if np.any(~np.isfinite(ko)):
        raise NumericError("non-finite orbit curvature")
    n = body.n
    with np.errstate(over="ignore"):  # CurvatureProfile rejects an infinite weight
        ds = sphere_measure(n - 2) * sinh_rho ** (n - 2) * speed * qw
    kappas = np.stack([km, ko], axis=1)
    return CurvatureProfile(n=n, params=u, kappas=kappas,
                            multiplicity=(1, n - 2), weights=ds)


def curvature_profile(body):
    """Curvature profile at the body's own settled sample count, cached on the body."""
    return body._profile


@dataclass(frozen=True)
class ConvexityReport:
    min_curvature: float
    is_convex: bool
    is_h_convex: bool


def convexity_report(body):
    """Minimum principal curvature and the resulting convexity flags.

    Pole curvatures of revolution bodies are appended explicitly since the
    interior quadrature nodes only approach the poles.
    """
    kmin = body._profile.min_curvature()
    if isinstance(body, RevolutionBody):
        kmin = min(kmin, revolution_pole_curvature(body, True),
                   revolution_pole_curvature(body, False))
    return ConvexityReport(
        min_curvature=kmin,
        is_convex=bool(kmin >= -CONVEXITY_TOL),
        is_h_convex=bool(kmin >= 1.0 - CONVEXITY_TOL),
    )


# ---------------------------------------------------------------------------
# Measures and curvature integrals

def boundary_measures(body):
    """Perimeter and volume of a body; Gauss-Bonnet cross-checks the planar area."""
    return dict(body._measures)


@dataclass(frozen=True)
class CurvatureIntegrals:
    """v[i] = V_i(K) = integral of H_{n-1-i} over the boundary; v[n-1] = P(K)."""

    n: int
    v: np.ndarray

    def __post_init__(self):
        if len(self.v) != self.n:
            raise DomainValidationError("curvature integral vector must have n entries")


def curvature_integrals_from_profile(prof):
    H = prof.symmetric_means()
    n = prof.n
    v = np.zeros(n)
    for j in range(n):
        v[n - j - 1] = float(np.sum(H[j] * prof.weights))
    return CurvatureIntegrals(n=n, v=v)


def curvature_integrals(body):
    return body._integrals


def quermassintegrals(body):
    """QuermassVector of a body via the curvature-integral recursion.

    The terminal convention W_n = omega_{n-1}/n (checked at 1e-6 relative)
    doubles as the smoothness/closedness certificate of the sampled body.
    """
    meas = boundary_measures(body)
    ci = curvature_integrals(body)
    w = quermass_from_curvature_integrals(body.n, meas["volume"], ci.v,
                                          BODY_TERMINAL_RTOL)
    return QuermassVector(n=body.n, w=w)


# ---------------------------------------------------------------------------
# Admission: the convex gate and the hypothesis rule

def require_convex(body, what):
    """Raise PreconditionError unless the body (named `what` in the message) is convex."""
    rep = convexity_report(body)
    if not rep.is_convex:
        raise PreconditionError(
            f"{what} must be convex (min curvature {rep.min_curvature:.6f})"
        )


def check_hypotheses(body, force=False):
    """Convexity for planar bodies, h-convexity for n >= 3.

    Bodies in n >= 3 that are convex but not h-convex are refused (the
    comparisons are unsupported there) unless force=True, in which case the
    caller gets False and flags its result as outside the hypotheses.
    """
    rep = convexity_report(body)
    if body.n == 2:
        ok = rep.is_convex
        need = "is_convex"
    else:
        ok = rep.is_h_convex
        need = "is_h_convex"
    if not ok and not force:
        raise PreconditionError(
            f"body fails hypothesis {need} (min curvature {rep.min_curvature:.6f}); "
            "pass force=True to compute anyway"
        )
    return ok


# ---------------------------------------------------------------------------
# Parallel bodies


def _checked_distances(delta):
    deltas = np.asarray(delta, dtype=float)
    # negated comparisons, so that a nan distance is refused as well
    if not (np.all(deltas >= 0.0) and np.all(deltas < math.inf)):
        raise DomainValidationError("parallel distance must be finite and >= 0")
    return deltas


def steiner_polynomial(v, delta):
    """Steiner's formula sum_j C(n-1, j) v[n-1-j] sinh^j delta cosh^{n-1-j} delta
    with the n coefficients v, at a distance or at every entry of an array of
    them (returned in its shape).

    With v the curvature integrals V_0..V_{n-1} of a convex body it is the
    perimeter of the parallel body at distance delta; being linear in v, it
    turns coefficient differences into perimeter differences.  A negative or
    non-finite distance is refused, and a value past the double range is a
    NumericError.
    """
    deltas = _checked_distances(delta)
    try:
        with np.errstate(over="raise", invalid="raise"):
            v = np.asarray(v, dtype=float)
            n = len(v)
            j = np.arange(n)
            coef = np.array([math.comb(n - 1, k) for k in j], dtype=float) * v[::-1]
            s = np.sinh(deltas)[..., None]
            c = np.cosh(deltas)[..., None]
            out = np.sum(coef * s ** j * c ** (n - 1 - j), axis=-1)
    except FloatingPointError as exc:
        raise NumericError(f"parallel perimeters overflow: {exc}") from None
    return float(out) if deltas.ndim == 0 else out


def parallel_perimeter(body, delta):
    """Perimeter of the outer parallel body of a convex body at distance
    delta, or at every entry of an array of distances (returned in its
    shape): steiner_polynomial of the body's cached curvature integrals.
    parallel_perimeter_direct is its independent cross-check."""
    require_convex(body, "body")
    return steiner_polynomial(curvature_integrals(body).v, delta)


def parallel_perimeter_direct(body, delta, profile=None):
    """Perimeter of the outer parallel body at distance delta, or at every
    entry of an array of distances (returned in its shape).

    Normal-exponential Jacobian form: integral over the boundary of
    prod_i (cosh delta + kappa_i sinh delta) dS.  Convexity keeps the normal
    map injective, so the integrand is exactly the area-element stretch.
    Each row is the same sum as for its distance alone; a negative or
    non-finite distance is refused.  No command evaluates it: it is the
    reference that parallel_perimeter is checked against.
    """
    deltas = _checked_distances(delta)
    if profile is None:
        require_convex(body, "body")
        profile = curvature_profile(body)
    flat = deltas.ravel()
    c = np.array([math.cosh(d) for d in flat])[:, None]
    s = np.array([math.sinh(d) for d in flat])[:, None]
    jac = None  # 1 * f and f ** 1 are exact: the product starts at the first factor
    for col, mult in enumerate(profile.multiplicity):
        factor = profile.kappas[:, col] * s
        factor += c
        if mult != 1:
            factor **= mult
        if jac is None:
            jac = factor
        else:
            jac *= factor
    jac *= profile.weights
    out = np.sum(jac, axis=1)
    return float(out[0]) if deltas.ndim == 0 else out.reshape(deltas.shape)


# ---------------------------------------------------------------------------
# Planar domains between two boundary curves


def normal_flow(body, theta, delta):
    """(w, dw/dtheta) of w = geodesic_step(z, nu, delta): the points at the
    distances delta along the outward normals nu of a planar body's boundary
    z(theta), and their velocities, the normal geodesic's velocity at w
    turned a quarter turn and stretched by the normal flow, speed (cosh delta
    + kappa sinh delta)."""
    z, nu = body.chart_curve(theta), body.chart_normal(theta)
    w = geodesic_step(z, nu, delta)
    speed, kappa = arc_speed_curvature(body, theta)
    stretch = speed * (np.cosh(delta) + kappa * np.sinh(delta))
    return w, 1j * geodesic_velocity(z, nu, w, delta) * stretch


@dataclass(frozen=True)
class ParallelCurve:
    """Outer boundary of the parallel body K_delta of a planar body K."""

    body: Body2D
    delta: float

    def chart_curve(self, theta):
        """The normal geodesic flow of the body's boundary, run for delta."""
        return geodesic_step(self.body.chart_curve(theta), self.body.chart_normal(theta), self.delta)

    def chart_tangent(self, theta):
        """d/dtheta of chart_curve, from the normal flow."""
        return normal_flow(self.body, theta, self.delta)[1]


@dataclass(frozen=True)
class AnnularDomain2D:
    """Domain between a Dirichlet hole and an outer Neumann boundary.

    The inner body's base point sits at the chart origin; the outer boundary
    is a body, whose base point is offset by a hyperbolic distance along a
    fixed direction, or the parallel curve of the hole.  The outer boundary
    must be star-shaped about the origin, inside the disk and strictly
    outside the hole, which is checked on its POLAR_SAMPLES samples.
    """

    inner: Body2D
    outer: Body2D | ParallelCurve
    offset: float = 0.0
    offset_angle: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.inner, Body2D) and isinstance(self.outer, (Body2D, ParallelCurve))):
            raise DomainValidationError(
                "annular domains are built from a Body2D hole and a Body2D or ParallelCurve outer boundary")
        if not (math.isfinite(self.offset) and math.isfinite(self.offset_angle)):
            raise DomainValidationError("offset and offset_angle must be finite")
        if self.offset < 0.0:
            raise DomainValidationError("offset must be >= 0")
        _, z, angle = self.outer_samples
        if np.any(np.diff(np.append(angle, angle[0] + 2.0 * np.pi)) <= 0.0):
            raise DomainValidationError("boundary curve is not star-shaped about the base point")
        radius = np.abs(z)
        # negated comparisons, so that a nan radius is refused as well
        if not np.max(radius) < 1.0:
            raise DomainValidationError("outer boundary too far out: chart radius rounds to 1")
        if not np.min(radius - np.tanh(0.5 * self.inner.radius(angle))) > 1e-9:
            raise DomainValidationError("inner boundary touches or crosses the outer one")

    @property
    def _shift(self):
        """Chart point of the outer body's base point."""
        return chart_radius(self.offset) * np.exp(1j * self.offset_angle)

    def outer_chart(self, theta):
        z = self.outer.chart_curve(theta)
        return z if self.offset == 0.0 else mobius_shift(z, self._shift)

    def outer_gap(self, w, dw=None):
        """tanh(r(arg z)/2) - |z| at z = mobius_shift(w, -c), the chart points w
        pulled back to the frame of the outer body r, c its base point: zero on
        the outer boundary and positive inside.  Given chart velocities dw at w,
        also its derivatives along them, dz = (1 - |c|^2) dw / (1 - conj(c) w)^2."""
        c = self._shift
        z = mobius_shift(w, -c)
        angle, radius = np.angle(z), np.abs(z)
        rho = np.tanh(0.5 * self.outer.radius(angle))
        if dw is None:
            return rho - radius
        dz = (1.0 - abs(c) ** 2) * dw / (1.0 - np.conj(c) * w) ** 2
        slope = 0.5 * (1.0 - rho ** 2) * self.outer.radius_d1(angle)
        return rho - radius, slope * (dz / z).imag - (np.conj(z) * dz).real / radius

    @cached_property
    def outer_samples(self):
        """(theta, z, angle): the outer boundary's chart points z at
        POLAR_SAMPLES equally spaced curve parameters theta from 0, and
        their polar angles about the origin, unwrapped."""
        theta = np.linspace(0.0, 2.0 * np.pi, POLAR_SAMPLES, endpoint=False)
        z = self.outer_chart(theta)
        return theta, z, np.unwrap(np.angle(z))

    def polar_radii(self, a):
        """Chart radii (rho_in, rho_out) of both boundaries at the array of
        polar angles a about the origin, exact to round-off.

        The hole's is tanh(r(a)/2), and so is a centred body outer's.  Any
        other outer boundary C is solved at each angle for the curve
        parameter t with arg C(t) = a, by bracketed Newton with slope
        Im(C'/C) between the two samples whose polar angles enclose a.
        """
        a = np.asarray(a, dtype=float)
        rho_in = np.tanh(0.5 * self.inner.radius(a))
        if self.offset == 0.0 and isinstance(self.outer, Body2D):
            return rho_in, np.tanh(0.5 * self.outer.radius(a))
        theta, z, angle = self.outer_samples
        theta, angle = np.append(theta, 2.0 * np.pi), np.append(angle, angle[0] + 2.0 * np.pi)
        a = angle[0] + np.mod(a - angle[0], 2.0 * np.pi)
        k = np.minimum(np.searchsorted(angle, a, side="right"), len(z)) - 1
        lo, hi = theta[k], theta[k + 1]
        turn = a - angle[k]  # from the bracket's first sample

        def g(q, t):
            w, dw = self._outer_chart_and_tangent(t)
            return np.angle(w / z[k[q]]) - turn[q], (dw / w).imag

        t = _bracketed_newton(g, lo + (hi - lo) * turn / (angle[k + 1] - angle[k]), lo, hi,
                              np.zeros(len(lo), dtype=bool))
        return rho_in, np.abs(self.outer_chart(t))

    def _outer_chart_and_tangent(self, t):
        """outer_chart at the curve parameters t and its derivative in t."""
        z, dz = self.outer.chart_curve(t), self.outer.chart_tangent(t)
        if self.offset == 0.0:
            return z, dz
        c = self._shift
        return mobius_shift(z, c), (1.0 - abs(c) ** 2) * dz / (1.0 + np.conj(c) * z) ** 2
