"""Fourier x Legendre spectral Galerkin solver for p = 2 on the polar map.

Every domain the mesher accepts is the image of the periodic strip
[0, 2 pi) x [0, 1] under (theta, s) -> (rho_in + s (rho_out - rho_in)) e^{i theta}
with rho_in, rho_out the chart radii of its two boundaries at the polar
angle theta (AnnularDomain2D.polar_radii, exact to round-off).  Pulled back,
the conformally invariant Dirichlet integral is

    int c1 u_s^2 + c2 (u_theta - a u_s)^2 ds dtheta,
    c1 = rho / w,  c2 = w / rho,  a = rho_theta / w,  w = rho_out - rho_in,

the metric mass weight is rho w lambda^2 with lambda = 2 / (1 - rho^2), and a
Robin term on the outer boundary s = 1 carries lambda sqrt(rho_out^2 +
rho_out'^2) dtheta.  The hole s = 0 is Dirichlet.  Both boundaries are smooth
and separate, so the eigenfunction and the Robin minimizer are smooth up to
them and a nodal Galerkin method on N_theta equispaced Fourier points times
N_s + 1 Gauss-Lobatto points (quadrature at the nodes, so the mass matrix is
diagonal) converges spectrally (Trefethen, Spectral Methods in MATLAB, 2000,
ch. 11; Boyd, Chebyshev and Fourier Spectral Methods, 2001).

No matrix is formed.  The quadrature form is applied as products of the
small Fourier and Lobatto differentiation matrices, O(N (N_theta + N_s))
flops for N = N_theta N_s free nodes, and both solvers iterate on that
apply.  Their preconditioner is the form with its coefficients, and the
Robin weight, averaged over theta once each ray is scaled by its radial
stiffness: it commutes with rotations, so the real FFT in theta splits it
into one N_s x N_s block per Fourier mode, each inverted once per
resolution (Shen, SIAM J. Sci. Comput. 18, 1997).  On a concentric domain
it is the operator itself.  The Robin minimizer comes from preconditioned
conjugate gradients, the eigenpair from single-vector LOBPCG with the
diagonal mass (Knyazev, SIAM J. Sci. Comput. 23, 2001), started from the
constant vector at START and from the previous resolution's eigenvector
afterwards.  A solve stops once its preconditioned residual has fallen to
SOLVE_RTOL and raises NumericError after MAX_ITERATIONS.

Each solver raises its resolution from START until two consecutive values
agree within STEP_RTOL and reports that last relative step as its error
estimate; a domain that needs more than MAX_UNKNOWNS unknowns raises
NumericError instead of returning a value short of that accuracy.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre
from scipy.linalg import LinAlgError, eigvalsh_tridiagonal

from .errors import NumericError

START = (33, 16)           # (N_theta, N_s) of the first solve; N_theta stays odd
GROWTH = (16, 2)           # added to (N_theta, N_s) after each unsettled solve
STEP_RTOL = 1e-11          # consecutive values must agree this closely
MAX_UNKNOWNS = 10000       # N_theta N_s free nodes; a domain needing more raises NumericError
SOLVE_RTOL = 1e-12         # a solve stops once its preconditioned residual falls this far
MAX_ITERATIONS = 1000      # iterations of one solve before it gives up
GRAM_RTOL = 1e-14          # LOBPCG drops basis directions below this Gram eigenvalue


@dataclass(frozen=True)
class SpectralResult:
    """A converged value with the nodal field behind it.

    u holds the nodal values on the (N_s + 1, N_theta) grid, s = 0 first;
    step is the relative change of value from the previous resolution.
    """

    value: float
    u: np.ndarray
    n_theta: int
    n_s: int
    step: float

    @property
    def resolution(self):
        return {"n_theta": self.n_theta, "n_s": self.n_s, "step": self.step}


def _lobatto(n):
    """Gauss-Lobatto-Legendre nodes, weights, differentiation matrix and
    barycentric weights on [0, 1] with n + 1 nodes.  The interior nodes are
    the zeros of the Jacobi polynomial P^(1,1)_{n-1}, from its symmetric
    tridiagonal matrix."""
    k = np.arange(1.0, n - 1)
    inner = eigvalsh_tridiagonal(np.zeros(n - 1),
                                 np.sqrt(k * (k + 2.0) / ((2.0 * k + 1.0) * (2.0 * k + 3.0))))
    x = np.concatenate([[-1.0], inner, [1.0]])
    c = np.zeros(n + 1)
    c[-1] = 1.0
    w = 2.0 / (n * (n + 1.0) * legendre.legval(x, c) ** 2)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    bary = 1.0 / np.prod(diff, axis=1)
    D = (bary[None, :] / bary[:, None]) / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return 0.5 * (x + 1.0), 0.5 * w, 2.0 * D, bary


def _fourier(n):
    """Equispaced angles and the periodic differentiation matrix, n odd.

    An even n would add the sawtooth (-1)^i, which this matrix maps to zero:
    a direction with no angular stiffness, and on wavy holes a spurious
    eigenvalue that sinks below tau_1 as n grows.
    """
    theta = 2.0 * np.pi * np.arange(n) / n
    k = np.arange(n)[:, None] - np.arange(n)[None, :]
    with np.errstate(divide="ignore"):
        D = np.where(k == 0, 0.0, 0.5 * (-1.0) ** k / np.sin(np.pi * k / n))
    return theta, D


class _PolarOperator:
    """Stiffness, diagonal mass and outer trace weight on one node grid.

    Arrays over nodes are shaped (N_s + 1, N_theta), hole row s = 0 first.
    """

    def __init__(self, dom, n_theta, n_s):
        theta, self.Dt = _fourier(n_theta)
        self.s, ws, self.Ds, _ = _lobatto(n_s)
        rho_in, rho_out = dom.polar_radii(theta)
        w = rho_out - rho_in
        # boundary derivatives by the same Fourier differentiation as u
        d_in, d_out = self.Dt @ rho_in, self.Dt @ rho_out
        rho = rho_in + self.s[:, None] * w
        rho_theta = d_in + self.s[:, None] * (d_out - d_in)
        weight = ws[:, None] * (2.0 * np.pi / n_theta)
        self.c1 = weight * rho / w
        self.c2 = weight * w / rho
        self.a = rho_theta / w
        self.mass = weight * rho * w * (2.0 / (1.0 - rho ** 2)) ** 2
        self.trace = (2.0 * np.pi / n_theta) * 2.0 / (1.0 - rho_out ** 2) * np.hypot(rho_out, d_out)

    def apply(self, u):
        """K u for the quadrature form K of energy, so energy(u) = sum(u * K u),
        on nodal arrays u shaped (..., N_s + 1, N_theta)."""
        us = self.Ds @ u
        flux = self.c2 * (u @ self.Dt.T - self.a * us)
        return self.Ds.T @ (self.c1 * us - self.a * flux) + flux @ self.Dt

    def energy(self, u):
        """Dirichlet integral of nodal values u as a sum of positive terms."""
        us = self.Ds @ u
        ut = u @ self.Dt.T
        return float(np.sum(self.c1 * us * us + self.c2 * (ut - self.a * us) ** 2))


def _preconditioner(op, robin):
    """r -> P^-1 r on the free nodes of nodal arrays, hole row returned zero.

    P = G A G, with G scaling each ray by the square root of its radial
    stiffness c1 + c2 a^2 relative to the mean over rays, and A the form plus
    the weight robin with every coefficient divided by G^2 and then averaged
    over theta.  A commutes with rotations, so the real FFT over theta, in
    which d/dtheta is i k, splits it into one Hermitian positive definite
    block over the free levels per mode k.  The scaling keeps A close to the
    form on shells whose width varies strongly along the hole; on a
    concentric domain G = 1 and P is the form itself.
    """
    n_theta = op.c1.shape[1]
    Ds = op.Ds
    radial = op.c1 + op.c2 * op.a ** 2
    g2 = radial.sum(axis=0) / radial.sum(axis=0).mean()
    g = np.sqrt(g2)
    ss, tt, ts, rb = ((c / g2).mean(axis=1) for c in (radial, op.c2, op.c2 * op.a, robin))
    k = np.arange(n_theta // 2 + 1)[:, None, None]
    blocks = ((Ds.T * ss) @ Ds + np.diag(rb) + k ** 2 * np.diag(tt)
              + 1j * k * (ts[:, None] * Ds - Ds.T * ts))
    inverse = np.linalg.inv(blocks[:, 1:, 1:])

    def solve(r):
        z = np.zeros_like(r)
        modes = np.fft.rfft(r[1:] / g, axis=1).T[:, :, None]
        z[1:] = np.fft.irfft((inverse @ modes)[:, :, 0].T, n=n_theta, axis=1) / g
        return z

    return solve


def _interpolate(u, op):
    """Nodal values u of another grid at op's nodes: Fourier in theta,
    barycentric Lagrange in s.  Both grids keep N_theta odd, so the Fourier
    modes carry over without a Nyquist term."""
    n_theta = op.c1.shape[1]
    u = np.fft.irfft(np.fft.rfft(u, axis=1), n=n_theta, axis=1) * (n_theta / u.shape[1])
    s, _, _, bary = _lobatto(u.shape[0] - 1)
    diff = op.s[:, None] - s[None, :]
    exact = diff == 0.0  # the end nodes always coincide
    diff[exact] = 1.0
    lagrange = bary / diff
    lagrange /= lagrange.sum(axis=1, keepdims=True)
    hit = exact.any(axis=1)
    lagrange[hit] = exact[hit]
    return lagrange @ u


def _converge(solve):
    """Run solve(n_theta, n_s, previous) -> (value, u) from START, growing by
    GROWTH, until two consecutive values agree within STEP_RTOL; previous is
    the field u at the resolution before, None at START."""
    n_theta, n_s = START
    previous, field, step = None, None, math.inf
    while n_theta * n_s <= MAX_UNKNOWNS:
        try:
            value, u = solve(n_theta, n_s, field)
        except LinAlgError as exc:
            raise NumericError(f"spectral solve failed: {exc}") from exc
        if previous is not None:
            step = abs(value - previous) / abs(value)
            if step <= STEP_RTOL:
                return SpectralResult(value=value, u=u, n_theta=n_theta, n_s=n_s, step=step)
        previous, field = value, u
        n_theta, n_s = n_theta + GROWTH[0], n_s + GROWTH[1]
    raise NumericError(f"spectral solve did not settle to {STEP_RTOL:.0e} within "
                       f"{MAX_UNKNOWNS} unknowns (last step {step:.1e})")


def _unsettled(method, residual):
    return NumericError(f"{method} did not reach a residual of {SOLVE_RTOL:.0e} within "
                        f"{MAX_ITERATIONS} iterations (last {residual:.1e})")


def _conjugate_gradients(op, u, robin, precondition):
    """Minimizes the form plus sum(robin u^2) over the free nodes of u, in
    place, from their values in u; the hole row of u is the Dirichlet data."""
    r = -(op.apply(u) + robin * u)
    z = precondition(r)
    rz = start = float(np.vdot(r, z))
    d = z
    for _ in range(MAX_ITERATIONS):
        Kd = op.apply(d) + robin * d
        alpha = rz / float(np.vdot(d, Kd))
        u += alpha * d
        r -= alpha * Kd
        z = precondition(r)
        rz, previous = float(np.vdot(r, z)), rz
        if rz <= SOLVE_RTOL ** 2 * start:
            return u
        if not math.isfinite(rz):
            break
        d = z + (rz / previous) * d
    raise _unsettled("conjugate gradients", math.sqrt(abs(rz / start)))


def _lobpcg(op, x, precondition):
    """Lowest eigenvector of K x = tau M x over the free nodes, M the diagonal
    mass, by single-vector LOBPCG from x, whose hole row is zero: each step
    takes the Rayleigh-Ritz minimizer over x, its preconditioned residual w
    and the previous step p.  The basis is M-orthonormalized through the
    eigenvectors of its Gram matrix, which drops a direction that has become
    dependent near convergence (Stathopoulos and Wu, SIAM J. Sci. Comput.
    23, 2002)."""
    mass = op.mass
    Kx = op.apply(x)
    p = Kp = None
    for iteration in range(MAX_ITERATIONS + 1):
        norm = float(np.vdot(x, mass * x))
        tau = float(np.vdot(x, Kx)) / norm
        r = Kx - tau * mass * x
        w = precondition(r)
        rw = float(np.vdot(r, w))
        if rw <= SOLVE_RTOL ** 2 * tau * norm:
            return x
        if iteration == MAX_ITERATIONS or not math.isfinite(rw):
            break
        basis = np.stack([x, w] if p is None else [x, w, p])
        images = np.stack([Kx, op.apply(w)] if p is None else [Kx, op.apply(w), Kp])
        flat, kflat = basis.reshape(len(basis), -1), images.reshape(len(basis), -1)
        gram = (flat * mass.ravel()) @ flat.T
        scale = 1.0 / np.sqrt(np.diag(gram))
        d, V = np.linalg.eigh(gram * np.outer(scale, scale))
        keep = d > GRAM_RTOL * d[-1]
        Q = scale[:, None] * V[:, keep] / np.sqrt(d[keep])
        ritz = Q.T @ (flat @ kflat.T) @ Q
        c = Q @ np.linalg.eigh(0.5 * (ritz + ritz.T))[1][:, 0]
        # the Ritz vector, and the step p: its part along w and the old p
        steps = np.array([c, np.r_[0.0, c[1:]]])
        x, p = (steps @ flat).reshape(basis[:2].shape)
        Kx, Kp = (steps @ kflat).reshape(basis[:2].shape)
    raise _unsettled("LOBPCG", math.sqrt(abs(rw / (tau * norm))))


def _eigenpair(op, start):
    """Lowest eigenpair of the free nodes on op's grid as (tau_1, u), by
    LOBPCG from the nodal array start, whose hole row is ignored."""
    x = start.copy()
    x[0] = 0.0
    u = _lobpcg(op, x, _preconditioner(op, np.zeros_like(op.mass)))
    u /= math.sqrt(float(np.sum(op.mass * u * u)))
    if u[np.unravel_index(np.argmax(np.abs(u)), u.shape)] < 0.0:
        u = -u
    # the eigenvector's Rayleigh quotient, summed from positive terms
    return op.energy(u), u


def mixed_eigenpair(dom):
    """First eigenpair of the Laplace-Beltrami operator, Dirichlet on the hole
    and Neumann on the outer boundary; value is tau_1 and u >= 0 has unit
    weighted L2 norm.  LOBPCG starts from the constant vector at START and
    from the previous resolution's eigenvector, interpolated, afterwards."""

    def solve(n_theta, n_s, previous):
        op = _PolarOperator(dom, n_theta, n_s)
        return _eigenpair(op, np.ones_like(op.mass) if previous is None
                          else _interpolate(previous, op))

    return _converge(solve)


def robin_energy(dom, beta):
    """Minimum of int |grad u|^2 dx + beta int_outer u^2 lambda ds over u = 1
    on the hole; value is the energy and u the minimizer."""

    def solve(n_theta, n_s, _previous):
        op = _PolarOperator(dom, n_theta, n_s)
        robin = np.zeros_like(op.mass)
        robin[-1] = beta * op.trace
        u = np.zeros_like(op.mass)
        u[0] = 1.0
        u = _conjugate_gradients(op, u, robin, _preconditioner(op, robin))
        return op.energy(u) + float(np.sum(robin * u * u)), u

    return _converge(solve)
