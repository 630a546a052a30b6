"""Fourier x Legendre spectral Galerkin solver for p = 2 on the polar map.

Every domain the mesher accepts is the image of the periodic strip
[0, 2 pi) x [0, 1] under (theta, s) -> (rho_in + s (rho_out - rho_in)) e^{i theta}
with rho_in, rho_out the polar tables of its two boundaries.  Pulled back,
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

The dense systems are solved directly.  Only the free nodes' block of the
stiffness is built, level by level, and LAPACK works on it in place, so a
solve holds about one block of memory; the Dirichlet hole row enters the
Robin problem through its closed-form coupling to the free nodes.  Each
solver raises its resolution from START until two consecutive values agree
within STEP_RTOL and reports that last relative step as its error
estimate; a domain that needs more than MAX_UNKNOWNS unknowns raises
NumericError instead of returning a value short of that accuracy.

The eigensolve needs one eigenpair.  At START a dense eigh finds it.  Every
later resolution takes tau_1 from the one before, which is already close,
shifts the block to just below that value, factors it by
Cholesky (n^3 / 3 flops against eigh's 4 n^3 / 3 for the tridiagonal
reduction alone) and runs inverse iteration on the factor, which settles in
three to five solves (Parlett, The Symmetric Eigenvalue Problem, 1998,
ch. 4).  The factor exists only while the shift is below tau_1 (Sylvester's
law of inertia), so a failed Cholesky widens the margin and factors again.
Both the shift and eigh's start are needed: unshifted inverse iteration
took hundreds of solves on thin shells.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre
from scipy.linalg import LinAlgError, cho_factor, cho_solve, eigh, eigvalsh_tridiagonal

from .errors import NumericError

START = (33, 16)           # (N_theta, N_s) of the first solve; N_theta stays odd
GROWTH = (16, 2)           # added to (N_theta, N_s) after each unsettled solve
STEP_RTOL = 1e-11          # consecutive values must agree this closely
MAX_UNKNOWNS = 2500        # N_theta N_s free nodes; dense cost grows as its cube
MARGIN = 1e-6              # the shift sits this far, relatively, below the last tau_1
MARGIN_GROWTH = 1e3        # widens the margin after a failed Cholesky
ITERATE_TOL = 1e-12        # inverse iteration stops when the unit iterate moves less
MAX_SOLVES = 500           # triangular solve pairs before inverse iteration gives up


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
    """Gauss-Lobatto-Legendre nodes, weights and differentiation matrix on
    [0, 1] with n + 1 nodes.  The interior nodes are the zeros of the Jacobi
    polynomial P^(1,1)_{n-1}, from its symmetric tridiagonal matrix."""
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
    return 0.5 * (x + 1.0), 0.5 * w, 2.0 * D


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

    Arrays over nodes are shaped (N_s + 1, N_theta), so flattened the hole
    row s = 0 comes first and the free nodes s > 0 form the trailing block.
    """

    def __init__(self, dom, n_theta, n_s):
        rho_in_fn, rho_out_fn = dom.polar_tables
        theta, self.Dt = _fourier(n_theta)
        s, ws, self.Ds = _lobatto(n_s)
        rho_in, rho_out = rho_in_fn(theta), rho_out_fn(theta)
        w = rho_out - rho_in
        # boundary derivatives by the same Fourier differentiation as u
        d_in, d_out = self.Dt @ rho_in, self.Dt @ rho_out
        rho = rho_in + s[:, None] * w
        rho_theta = d_in + s[:, None] * (d_out - d_in)
        weight = ws[:, None] * (2.0 * np.pi / n_theta)
        self.c1 = weight * rho / w
        self.c2 = weight * w / rho
        self.a = rho_theta / w
        self.mass = weight * rho * w * (2.0 / (1.0 - rho ** 2)) ** 2
        self.trace = (2.0 * np.pi / n_theta) * 2.0 / (1.0 - rho_out ** 2) * np.hypot(rho_out, d_out)

    def free_block(self):
        """Dense K[(j, i), (l, n)] of the quadrature form over the free nodes
        j, l >= 1, flattened, and their coupling to the hole row,
        sum_n K[(j, i), (0, n)], shaped (N_s, N_theta).

        The block is written one level j of rows at a time: the ray term ss
        couples the nodes on ray i, the level term tt those on level j, and
        the cross term Dt[n, i] (c2 a)[j, n] Ds[j, l] and its transpose are
        rows of Ds times one (N_s + 1, N_theta, N_theta) array, so no
        temporary is as large as the block.  Since Dt 1 = 0, the transpose
        adds nothing to the hole coupling.
        """
        Ds, Dt = self.Ds, self.Dt
        ns1, nt = self.c1.shape
        n_free = (ns1 - 1) * nt
        c2a = self.c2 * self.a
        # both as batched matrix products, which numpy hands to BLAS
        ss = (Ds.T * (self.c1 + c2a * self.a).T[:, None, :]) @ Ds  # [i, j, l]
        tt = (Dt.T * self.c2[:, None, :]) @ Dt  # [j, i, n]
        cross = Dt.T * c2a[:, None, :]  # cross[j, i, n] = Dt[n, i] (c2 a)[j, n]
        mirror = np.ascontiguousarray(cross[1:].transpose(2, 0, 1))  # [i, l, n] = cross[l, n, i]
        K = np.zeros((n_free, n_free))
        rays = np.arange(nt)
        for j in range(1, ns1):
            rows = K[(j - 1) * nt:j * nt].reshape(nt, ns1 - 1, nt)  # [i, l, n]
            rows[rays, :, rays] += ss[:, j, 1:]
            rows[:, j - 1] += tt[j]
            rows -= Ds[j, 1:, None] * cross[j, :, None, :]
            rows -= Ds[1:, j, None] * mirror
        hole = ss[:, 1:, 0].T - Ds[1:, :1] * (c2a[1:] @ Dt)
        return K, hole

    def energy(self, u):
        """Dirichlet integral of nodal values u as a sum of positive terms."""
        us = self.Ds @ u
        ut = u @ self.Dt.T
        return float(np.sum(self.c1 * us * us + self.c2 * (ut - self.a * us) ** 2))


def _converge(solve):
    """Run solve(n_theta, n_s, previous) -> (value, u) from START, growing by
    GROWTH, until two consecutive values agree within STEP_RTOL; previous is
    the value at the resolution before, None at START."""
    n_theta, n_s = START
    previous, step = None, math.inf
    while n_theta * n_s <= MAX_UNKNOWNS:
        try:
            value, u = solve(n_theta, n_s, previous)
        except LinAlgError as exc:
            raise NumericError(f"dense spectral solve failed: {exc}") from exc
        if previous is not None:
            step = abs(value - previous) / abs(value)
            if step <= STEP_RTOL:
                return SpectralResult(value=value, u=u, n_theta=n_theta, n_s=n_s, step=step)
        previous = value
        n_theta, n_s = n_theta + GROWTH[0], n_s + GROWTH[1]
    raise NumericError(f"spectral solve did not settle to {STEP_RTOL:.0e} within "
                       f"{MAX_UNKNOWNS} unknowns (last step {step:.1e})")


def _cholesky(K):
    """Cholesky factor of the symmetric block K, written over K: K.T is
    Fortran-ordered, so LAPACK works in place on its lower triangle, K's
    upper one.  Raises LinAlgError unless K is positive definite."""
    return cho_factor(K.T, lower=True, overwrite_a=True)


def _scaled_block(op):
    """The free block in place as M^-1/2 K M^-1/2, with M^-1/2 beside it."""
    A, _ = op.free_block()
    scale = 1.0 / np.sqrt(op.mass[1:].ravel())
    A *= scale[:, None]
    A *= scale[None, :]
    return A, scale


def _inverse_iteration(op, tau):
    """Lowest eigenvector of the scaled block by inverse iteration shifted to
    tau (1 - margin), from the constant vector.

    A failed Cholesky certifies that the shift is not below tau_1; the block
    is then built afresh, since LAPACK has overwritten it, and the margin
    widens by MARGIN_GROWTH up to 1, the unshifted block.
    """
    margin = MARGIN
    while True:
        A, scale = _scaled_block(op)
        A[np.diag_indices_from(A)] -= tau * (1.0 - margin)
        try:
            factor = _cholesky(A)
            break
        except LinAlgError:
            if margin >= 1.0:
                raise
        del A  # the failed factor goes before the next block is built
        margin = min(MARGIN_GROWTH * abs(margin), 1.0)
    x = np.full(len(scale), 1.0 / math.sqrt(len(scale)))
    for _ in range(MAX_SOLVES):
        y = cho_solve(factor, x, check_finite=False)
        y /= np.linalg.norm(y)
        moved = float(np.linalg.norm(y - x))
        x = y
        if moved <= ITERATE_TOL:
            return x, scale
    raise NumericError(f"inverse iteration did not settle within {MAX_SOLVES} solves "
                       f"(last move {moved:.1e})")


def _eigenpair(op, previous):
    """Lowest eigenpair of the scaled free block M^-1/2 K M^-1/2 on op's grid
    as (tau_1, u): dense eigh at the first resolution (previous None), then
    inverse iteration shifted just below the previous resolution's value."""
    if previous is None:
        A, scale = _scaled_block(op)
        # A.T is Fortran-ordered, so LAPACK works in place; its upper
        # triangle is A's lower one
        _, vec = eigh(A.T, lower=False, subset_by_index=[0, 0], overwrite_a=True,
                      check_finite=False)
        vec = vec[:, 0]
    else:
        vec, scale = _inverse_iteration(op, previous)
    u = np.zeros_like(op.mass)
    u[1:] = (vec * scale).reshape(u[1:].shape)
    u /= math.sqrt(float(np.sum(op.mass * u * u)))
    if u[np.unravel_index(np.argmax(np.abs(u)), u.shape)] < 0.0:
        u = -u
    # the eigenvector's Rayleigh quotient, summed from positive terms,
    # holds to roundoff where eigh's eigenvalue drifts with ||K||
    return op.energy(u), u


def mixed_eigenpair(dom):
    """First eigenpair of the Laplace-Beltrami operator, Dirichlet on the hole
    and Neumann on the outer boundary; value is tau_1 and u >= 0 has unit
    weighted L2 norm.  Dense eigh seeds the first resolution, and a shifted
    Cholesky factor refines every later one (see _inverse_iteration)."""
    return _converge(lambda n_theta, n_s, previous:
                     _eigenpair(_PolarOperator(dom, n_theta, n_s), previous))


def robin_energy(dom, beta):
    """Minimum of int |grad u|^2 dx + beta int_outer u^2 lambda ds over u = 1
    on the hole; value is the energy and u the minimizer."""

    def solve(n_theta, n_s, _previous):
        op = _PolarOperator(dom, n_theta, n_s)
        K, hole = op.free_block()
        robin = np.zeros_like(op.mass)
        robin[-1] = beta * op.trace
        K[np.diag_indices_from(K)] += robin[1:].ravel()
        factor = _cholesky(K)
        u = np.ones_like(op.mass)
        u[1:] = cho_solve(factor, -hole.ravel()).reshape(-1, n_theta)
        return op.energy(u) + float(np.sum(robin * u * u)), u

    return _converge(solve)
