"""Reference computations made apart from horokit.

Nothing here imports horokit.  Each function computes a quantity the
program also reports, by another route: hyperbolic trigonometry instead of
a distance field, an explicit normal flow of the boundary instead of
curvature profiles, a 1-D finite-element pencil instead of shooting, and
adaptive quadrature instead of fixed Gauss rules.
"""

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad, simpson
from scipy.sparse import diags
from scipy.sparse.linalg import eigsh


def sphere_measure(i):
    """Measure of the unit i-sphere, 2 pi^((i+1)/2) / Gamma((i+1)/2)."""
    return 2.0 * math.pi ** ((i + 1) / 2.0) / math.gamma((i + 1) / 2.0)


def offset_ball_parallel_length(hole_r, outer_R, offset, delta):
    """Length of the delta-parallel of a ball hole, clipped to an offset ball.

    The parallel is the circle of radius hole_r + delta about the hole
    centre; the hyperbolic law of cosines gives the arc inside the outer
    ball whose centre lies at distance `offset`.
    """
    rho = hole_r + delta
    full = 2.0 * math.pi * math.sinh(rho)
    if offset == 0.0:
        return full if rho <= outer_R else 0.0
    a = (math.cosh(rho) * math.cosh(offset) - math.cosh(outer_R)) / (
        math.sinh(rho) * math.sinh(offset))
    if a <= -1.0:
        return full
    if a >= 1.0:
        return 0.0
    return 2.0 * math.acos(a) * math.sinh(rho)


def offset_ball_reach(hole_r, outer_R, offset):
    """Largest distance from the hole to a point of the offset outer ball."""
    return offset + outer_R - hole_r


def pencil_shell_eigen_p2(n, r, R, n_cells=4000):
    """First mixed eigenvalue of a shell at p = 2 by a weighted 1-D P1 pencil.

    Dirichlet at r, natural (Neumann) at R, weight sinh^(n-1) taken at the
    cell midpoints.  The pencil error is O(h^2), so the values at n_cells
    and 2 n_cells are Richardson extrapolated.
    """
    def pencil(cells):
        t = np.linspace(r, R, cells + 1)
        h = t[1] - t[0]
        w = np.sinh(0.5 * (t[:-1] + t[1:])) ** (n - 1)
        k, m = w / h, w * h
        main_k = np.zeros(cells + 1)
        main_k[:-1] += k
        main_k[1:] += k
        main_m = np.zeros(cells + 1)
        main_m[:-1] += m / 3.0
        main_m[1:] += m / 3.0
        K = diags([-k, main_k, -k], offsets=[-1, 0, 1], format="csc")[1:, 1:]
        M = diags([m / 6.0, main_m, m / 6.0], offsets=[-1, 0, 1], format="csc")[1:, 1:]
        vals = eigsh(K, k=1, M=M, sigma=0.0, which="LM", v0=np.ones(cells),
                     return_eigenvectors=False)
        return float(vals[0])

    coarse, fine = pencil(n_cells), pencil(2 * n_cells)
    return fine + (fine - coarse) / 3.0


def radial_rayleigh_quotient(n, p, t, v, dv):
    """Rayleigh quotient of a sampled radial profile in the weight sinh^(n-1).

    Composite Simpson over the profile's own sample points.
    """
    w = np.sinh(t) ** (n - 1)
    num = simpson(np.abs(dv) ** p * w, x=t)
    den = simpson(np.abs(v) ** p * w, x=t)
    return float(num / den)


def constant_flux_energy(weight, delta, beta, p):
    """Minimal energy of int_0^delta L |u'|^p + beta L(delta) |u(delta)|^p, u(0) = 1.

    The minimizer has constant flux; with Q = int_0^delta L^(-1/(p-1)) and
    W = (beta L(delta))^(1/(p-1)) the energy is (W / (1 + W Q))^(p-1).
    weight is L as a function of the distance from the core.
    """
    q, _ = quad(lambda t: weight(t) ** (-1.0 / (p - 1.0)), 0.0, delta,
                epsabs=0.0, epsrel=1e-13, limit=200)
    wb = (beta * weight(delta)) ** (1.0 / (p - 1.0))
    return float((wb / (1.0 + wb * q)) ** (p - 1.0))


def ball_shell_energy(n, p, r, delta, beta):
    """Constant-flux energy of the shell of thickness delta around B_r."""
    om = sphere_measure(n - 1)
    return constant_flux_energy(lambda t: om * math.sinh(r + t) ** (n - 1),
                                delta, beta, p)


# ---------------------------------------------------------------------------
# Radial-graph bodies, flowed along their normals

def fourier_radius(params, theta):
    """r(theta) = a0 + sum_k cos_k cos(k theta) + sin_k sin(k theta)."""
    theta = np.asarray(theta, dtype=float)
    r = np.full_like(theta, float(params["a0"]))
    for k, a in enumerate(params.get("cos", []), start=1):
        r += a * np.cos(k * theta)
    for k, b in enumerate(params.get("sin", []), start=1):
        r += b * np.sin(k * theta)
    return r


def revolution_height(params, u):
    """h(u) = a0 + sum_j c_j cos(2 j u) on [0, pi]."""
    u = np.asarray(u, dtype=float)
    h = np.full_like(u, float(params["a0"]))
    for j, c in enumerate(params.get("cos_even", []), start=1):
        h += c * np.cos(2 * j * u)
    return h


def _flowed_chart_curve(radius, s, fd_step=1e-3):
    """Chart points of the boundary moved a hyperbolic distance s outward.

    Returns a function of the curve parameter.  The curve is
    tanh(radius/2) e^(i theta) in the Poincare disk; each point moves along
    the geodesic leaving it in the outward normal direction, realised by
    the disk automorphism carrying 0 to the point.
    """
    step = math.tanh(s / 2.0)

    def chart(x):
        return np.tanh(radius(x) / 2.0) * np.exp(1j * x)

    def flowed(x):
        z = chart(x)
        dz = (-chart(x + 2 * fd_step) + 8 * chart(x + fd_step)
              - 8 * chart(x - fd_step) + chart(x - 2 * fd_step)) / (12 * fd_step)
        w = step * (-1j * dz / np.abs(dz))
        return (w + z) / (1.0 + np.conj(z) * w)

    return flowed


def _speed(curve, x, fd_step=1e-3):
    """Hyperbolic speed |curve'(x)| 2 / (1 - |curve(x)|^2), fourth-order differences."""
    dz = (-curve(x + 2 * fd_step) + 8 * curve(x + fd_step)
          - 8 * curve(x - fd_step) + curve(x - 2 * fd_step)) / (12 * fd_step)
    z = curve(x)
    return np.abs(dz) * 2.0 / (1.0 - np.abs(z) ** 2)


def fourier_parallel_perimeter(params, s, n_samples=4096):
    """Length of the outer s-parallel of a planar Fourier body (trapezoid, periodic)."""
    theta = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)
    curve = _flowed_chart_curve(lambda x: fourier_radius(params, x), s)
    return float(np.mean(_speed(curve, theta)) * 2.0 * np.pi)


def fourier_area(params, n_samples=4096):
    """Hyperbolic area int_0^{2 pi} (cosh r - 1) d theta."""
    theta = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)
    return float(np.mean(np.cosh(fourier_radius(params, theta)) - 1.0) * 2.0 * np.pi)


_gauss_legendre = lru_cache(maxsize=4)(np.polynomial.legendre.leggauss)


def revolution_parallel_perimeter(n, params, s, n_nodes=512):
    """Area of the outer s-parallel of a revolution body in H^n.

    The meridian lives in a totally geodesic plane through the axis (the
    real line of the disk).  Its flowed copy sweeps an orbit sphere of
    radius rho, the distance to the axis, with sinh rho = sinh|z|_h sin(arg z).
    """
    x, wq = _gauss_legendre(n_nodes)
    u = 0.5 * np.pi * (x + 1.0)
    curve = _flowed_chart_curve(lambda y: revolution_height(params, y), s)
    z = curve(u)
    dist = 2.0 * np.arctanh(np.abs(z))
    sinh_rho = np.sinh(dist) * np.sin(np.angle(z))
    integrand = sinh_rho ** (n - 2) * _speed(curve, u)
    return float(sphere_measure(n - 2) * 0.5 * np.pi * np.sum(wq * integrand))


def ball_perimeter(n, r):
    return sphere_measure(n - 1) * math.sinh(r) ** (n - 1)


def steiner_fit_max_rel_dev(n, deltas, perimeters):
    """Largest relative misfit of sampled parallel perimeters to a Steiner polynomial.

    A convex body's parallel perimeter is sum_j c_j sinh^j cosh^(n-1-j) of
    the distance; the coefficients are fitted by least squares.
    """
    deltas = np.asarray(deltas, dtype=float)
    perimeters = np.asarray(perimeters, dtype=float)
    basis = np.stack([np.sinh(deltas) ** j * np.cosh(deltas) ** (n - 1 - j)
                      for j in range(n)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, perimeters, rcond=None)
    return float(np.max(np.abs(basis @ coef - perimeters) / perimeters))
