"""Thermal-insulation energy of a shell around a heated convex core.

The core is held at unit value, the shell is the outer parallel body at
distance delta minus the core (in the plane the bodies.AnnularDomain2D
whose outer boundary is the core's ParallelCurve), and the outer boundary
carries a Robin penalty with parameter beta.  For radial weights the minimizer has constant flux and
the energy reduces to a scalar closed form in the flux integral of the
shell weight, taken on a 384-node Gauss-Legendre rule; production uses it
for ball cores and for the parallel-coordinate bound, and a 1-D convex
minimization (radial_energy) is kept as its cross-check.  In the plane
at p = 2 the spectral Galerkin solver on the polar map (horokit.spectral)
evaluates the energy on non-circular cores, and a conformal P1 finite
element solve (fem_energy_p2) is kept as its independent cross-check; for
revolution cores (n >= 3), and for planar cores at p != 2, the
parallel-coordinate test function gives a certified upper bound, which
suffices for the one-sided comparison against the quermass-matched ball.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded
from scipy.sparse.linalg import splu

from .core import gauss_legendre_nodes, sphere_measure
from .bodies import (
    AnnularDomain2D,
    Body2D,
    ParallelCurve,
    curvature_profile,
    parallel_perimeter_direct,
    require_convex,
)
from .nagy import equivalent_ball
from .fem2d import SPLU_OPTIONS, assemble_p2, boundary_mass_outer, build_mesh, damped_newton
from .spectral import robin_energy
from .errors import DomainValidationError, NumericError

EQUALITY_RTOL = 1e-4       # energy agreement that flags the ball case


@dataclass(frozen=True)
class InsulationSpec:
    """Core body, shell thickness delta and Robin parameter beta."""

    p: float
    body: object
    delta: float
    beta: float

    def __post_init__(self):
        if not 1.0 < self.p < math.inf:
            raise DomainValidationError(f"exponent p must be finite and exceed 1, got {self.p}")
        if not 0.0 < self.delta < math.inf:
            raise DomainValidationError(f"shell thickness must be finite and > 0, got {self.delta}")
        if not 0.0 < self.beta < math.inf:
            raise DomainValidationError(f"Robin parameter must be finite and > 0, got {self.beta}")

    @property
    def n(self):
        return self.body.n


def _constant_flux_energy(weight, p, delta, beta):
    """Energy of the constant-flux minimizer of a 1-D weighted p-energy.

    weight(s) is the vectorised shell weight L on [0, delta].  With
    Q = int_0^delta L^{-1/(p-1)} ds by 384-node Gauss-Legendre (exact to
    round-off, since the shell weights of balls and parallel bodies are
    analytic in s) and the Robin weight W_b = beta L(delta), the energy is
    (W_b^{-1/(p-1)} + Q)^{-(p-1)}.  The weights are divided by the smallest
    of them, c, before the powers, and c multiplies the result: near p = 1
    the powers of the weights themselves leave the double range where the
    energy does not.  A Robin weight or an energy outside the double range
    is a NumericError.
    """
    x, gw = gauss_legendre_nodes(384)
    try:  # numpy raises here where it would overflow to inf, as Python floats do
        with np.errstate(over="raise", divide="raise"):
            w = weight(np.append(0.5 * delta * (1.0 + x), delta))
            w[-1] *= beta
            c = float(w.min())
            w = (w / c) ** (-1.0 / (p - 1.0))
            q = 0.5 * delta * float(np.sum(gw * w[:-1]))
            energy = c * float((w[-1] + q) ** (1.0 - p))
    except ArithmeticError as exc:
        raise NumericError(f"closed-form energy failed: {exc}") from exc
    if not 0.0 < energy < math.inf:
        raise NumericError(f"closed-form energy {energy!r} is outside the floating-point range")
    return energy


def radial_energy_closed_form(n, p, r, delta, beta):
    """Closed-form shell energy for a ball core of radius r, whose shell
    weight omega_{n-1} sinh^{n-1}(r + s) is analytic."""
    om = sphere_measure(n - 1)
    return _constant_flux_energy(lambda s: om * np.sinh(r + s) ** (n - 1), p, delta, beta)


def _interval_weights(n, r, R, grid):
    """Per-interval integrals of omega_{n-1} sinh^{n-1} by 5-point Gauss."""
    om = sphere_measure(n - 1)
    xg, wg = gauss_legendre_nodes(5)
    h = np.diff(grid)
    mid = 0.5 * (grid[:-1] + grid[1:])
    w = np.zeros(len(h))
    for q in range(5):
        tq = mid + 0.5 * h * xg[q]
        w += 0.5 * h * wg[q] * om * np.sinh(tq) ** (n - 1)
    return w


def _tridiagonal_solve(k, robin, rhs):
    """Solve the free-node system of the 1-D P1 operator with per-cell
    coefficients k and the extra diagonal entry robin at the outer node."""
    ab = np.zeros((3, len(k)))
    ab[0, 1:] = -k[1:]
    ab[1, :-1] = k[:-1] + k[1:]
    ab[1, -1] = k[-1] + robin
    ab[2, :-1] = -k[1:]
    return solve_banded((1, 1), ab, rhs)


def radial_energy(n, p, r, delta, beta, n_cells=2048):
    """Shell energy of a ball core by 1-D convex minimization.

    P1 elements on [r, r+delta] with exactly integrated weights; for p = 2
    the optimality system is a tridiagonal solve, otherwise damped Newton
    (tridiagonal Hessian) on the convex discrete functional from the p = 2
    minimizer, which converges to roundoff where quasi-Newton crawls.
    """
    if delta <= 0.0 or beta <= 0.0 or r <= 0.0:
        raise DomainValidationError("r, delta, beta must be positive")
    R = r + delta
    om = sphere_measure(n - 1)
    grid = np.linspace(r, R, n_cells + 1)
    h = np.diff(grid)
    w = _interval_weights(n, r, R, grid)
    robin = beta * om * math.sinh(R) ** (n - 1)

    def energy_grad(uf):
        du = np.diff(np.concatenate([[1.0], uf])) / h
        e = float(np.sum(w * np.abs(du) ** p) + robin * abs(uf[-1]) ** p)
        flux = w * p * np.abs(du) ** (p - 1.0) * np.sign(du) / h
        g = flux.copy()
        g[:-1] -= flux[1:]
        g[-1] += robin * p * abs(uf[-1]) ** (p - 1.0) * np.sign(uf[-1])
        return e, g

    def newton_step(uf, g):
        du = np.diff(np.concatenate([[1.0], uf])) / h
        return _tridiagonal_solve(p * (p - 1.0) * w * np.abs(du) ** (p - 2.0) / h ** 2,
                                  robin * p * (p - 1.0) * abs(uf[-1]) ** (p - 2.0), g)

    rhs = np.zeros(n_cells)
    rhs[0] = w[0] / h[0] ** 2
    u_free = _tridiagonal_solve(w / h ** 2, robin, rhs)
    if p != 2.0:
        u_free, _, _ = damped_newton(energy_grad, newton_step, u_free)
    energy, _ = energy_grad(u_free)
    return energy


def parallel_bound_energy(body, p, delta, beta):
    """Upper bound on the core's shell energy via parallel-coordinate profiles.

    Test functions constant on the equidistants of the core reduce the
    energy to the 1-D functional with weight L(s) = P(core_s) (the parallel
    perimeter) and Robin weight beta L(delta); its constant-flux minimum is
    evaluated in closed form from L at the 384 Gauss nodes and at delta.
    The true energy can only be lower.
    """
    require_convex(body, "core")
    prof = curvature_profile(body)
    return _constant_flux_energy(
        lambda s: np.array([parallel_perimeter_direct(body, sv, profile=prof) for sv in s]),
        p, delta, beta)


def fem_energy_p2(body, delta, beta, h_mesh=0.01):
    """Planar insulation energy at p = 2 by a conformal P1 solve.

    Minimizes int |grad u|^2 dx + beta int_{outer} u^2 lambda ds over P1
    functions pinned to 1 on the core boundary (Dirichlet energy is
    conformally invariant; only the Robin term sees the metric).  Second
    order in h_mesh and independent of the spectral solver the verdict uses,
    so the tests cross-check one against the other.
    """
    mesh = build_mesh(AnnularDomain2D(inner=body, outer=ParallelCurve(body, delta)), h_mesh)
    K, _ = assemble_p2(mesh)
    B = boundary_mass_outer(mesh)
    A = (K + beta * B).tocsr()
    nv = mesh.vertices.shape[0]
    free = np.setdiff1d(np.arange(nv), mesh.inner_nodes)
    g = np.zeros(nv)
    g[mesh.inner_nodes] = 1.0
    rhs = -(A @ g)[free]
    lu = splu(A[np.ix_(free, free)].tocsc(), **SPLU_OPTIONS)
    u = g.copy()
    u[free] = lu.solve(rhs)
    return float(u @ (A @ u))


@dataclass(frozen=True)
class InsulationReport:
    energy_body: float
    energy_ball: float
    margin: float
    r_star: float
    equality_detected: bool
    one_sided: bool
    meta: dict = field(default_factory=dict)


def insulation_verdict(spec, *, h_mesh=None):
    """Compare the core's energy against the quermass-matched ball core.

    Non-round planar cores at p = 2 are evaluated by the spectral solver on
    the polar map of the shell, settled to the relative step its meta
    reports; other non-round cores use the one-sided parallel-coordinate
    bound.  Round cores and the ball side use the radial closed form.
    h_mesh is ignored: nothing here meshes any more, and the keyword stays
    accepted only because bench/test_bench.py still passes it.
    """
    body = spec.body
    r_star = equivalent_ball(body)  # refuses a core outside the hypotheses
    e_ball = radial_energy_closed_form(body.n, spec.p, r_star, spec.delta, spec.beta)
    one_sided = False
    resolution = {}
    if body.is_round:
        e_body = radial_energy_closed_form(body.n, spec.p, body.a0, spec.delta, spec.beta)
    elif isinstance(body, Body2D) and spec.p == 2.0:
        shell = AnnularDomain2D(inner=body, outer=ParallelCurve(body, spec.delta))
        spectral = robin_energy(shell, spec.beta)
        e_body, resolution = spectral.value, spectral.resolution
    else:
        e_body = parallel_bound_energy(body, spec.p, spec.delta, spec.beta)
        one_sided = True
    margin = e_ball - e_body
    equality = bool(abs(margin) <= EQUALITY_RTOL * e_ball)
    meta = {"p": spec.p, "delta": spec.delta, "beta": spec.beta, "n": body.n, **resolution}
    return InsulationReport(energy_body=float(e_body), energy_ball=float(e_ball),
                            margin=float(margin), r_star=float(r_star),
                            equality_detected=equality, one_sided=one_sided, meta=meta)
