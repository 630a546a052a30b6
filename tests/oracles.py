"""Independent numerical oracles for the test suite.

Everything here deliberately avoids the code paths under test: quadrature
instead of closed forms, finite differences in the conformal chart instead
of the radial curvature formulas, a finite-element generalized eigenproblem
instead of shooting, circle-circle trigonometry instead of normal flow, a
dense bisected scan of every normal ray instead of the windowed one, and
the signed distance on a chart grid with marching-squares level lengths as
the general-domain cross-check of the normal-flow parallel lengths, the
whole 4-D spectral stiffness as a dense matrix against the matrix-free
apply that LOBPCG and conjugate gradients run on, dense eigh at every
spectral resolution against LOBPCG, adaptive quadrature of the parallel
perimeters instead of the Gauss rule behind the constant-flux energy, and
an explicit delta-by-piece mask instead of searchsorted runs for the pieces
each delta cuts.  The P1 element kernels and the parallel perimeters are
also kept in their (element, corner) broadcast and per-delta loop forms,
and the shooting stepper's continuous extension in its per-point form:
the references their one-row-per-corner, blocked and per-step forms must
equal bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import RK45, quad
from scipy.linalg import eigh
from scipy.sparse import diags
from scipy.sparse.linalg import eigsh


def quad_ball_volume(n, r):
    """omega_{n-1} * integral of sinh^{n-1} by adaptive quadrature; relative
    accuracy only, since volumes in high dimensions reach 1e-24 and below."""
    from horokit.core import sphere_measure
    val, _ = quad(lambda t: math.sinh(t) ** (n - 1), 0.0, r,
                  epsabs=0.0, epsrel=1e-13)
    return sphere_measure(n - 1) * val


def quad_parallel_bound_energy(body, p, delta, beta):
    """Constant-flux energy of the parallel-coordinate bound by adaptive
    quadrature of the direct parallel perimeters L.  With the weights scaled
    by c = min(L(0), beta L(delta)), so that their powers stay in the double
    range near p = 1, Q = int_0^delta (L / c)^{-1/(p-1)} ds and the energy
    is c ((beta L(delta) / c)^{-1/(p-1)} + Q)^{1-p}."""
    from horokit.bodies import parallel_perimeter_direct
    k = -1.0 / (p - 1.0)
    robin = beta * parallel_perimeter_direct(body, delta)
    c = min(parallel_perimeter_direct(body, 0.0), robin)
    q, _ = quad(lambda s: (parallel_perimeter_direct(body, s) / c) ** k,
                0.0, delta, epsabs=0.0, epsrel=2e-14, limit=200)
    return c * ((robin / c) ** k + q) ** (1.0 - p)


def gauss_legendre_reference(n):
    """Gauss-Legendre nodes (ascending) and weights in long double.

    Newton on P_n from the asymptotic estimates cos(pi (k - 1/4) / (n + 1/2)),
    P_n and P_n' by the three-term recurrence in long double, then
    w = 2 / ((1 - x^2) P_n'(x)^2).  At n = 384 the weights are within 1.2e-15
    of 40-digit mpmath.
    """
    def legendre(x):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, n * (x * p1 - p0) / (x * x - 1)

    k = np.arange(n, 0, -1, dtype=np.longdouble)
    x = np.cos(np.pi * (k - np.longdouble(0.25)) / (n + np.longdouble(0.5)))
    for _ in range(6):  # quadratic convergence: 2e-13 after three steps at n = 2048
        p, dp = legendre(x)
        x = x - p / dp
    _, dp = legendre(x)
    return x, 2 / ((1 - x * x) * dp * dp)


def chart_curvature_2d(body, theta, fd_step=1e-5):
    """Geodesic curvature via the Poincare-disk conformal correction.

    Euclidean curvature of the chart curve by central differences plus the
    normal derivative of log(conformal factor):
    kappa_hyp = (kappa_euc + d_nu log lambda)/lambda.
    """
    theta = np.asarray(theta, dtype=float)

    def z(t):
        return np.tanh(body.radius(t) / 2.0) * np.exp(1j * t)

    zm, z0, zp = z(theta - fd_step), z(theta), z(theta + fd_step)
    d1 = (zp - zm) / (2.0 * fd_step)
    d2 = (zp - 2.0 * z0 + zm) / fd_step ** 2
    kappa_e = (d1.real * d2.imag - d1.imag * d2.real) / np.abs(d1) ** 3
    lam = 2.0 / (1.0 - np.abs(z0) ** 2)
    nu = -1j * d1 / np.abs(d1)
    grad_log = 2.0 * z0 / (1.0 - np.abs(z0) ** 2)
    dn = nu.real * grad_log.real + nu.imag * grad_log.imag
    return (kappa_e + dn) / lam


def meridian_curvature_fd(body, u, fd_step=1e-5):
    """Meridian curvature of a revolution body through the planar oracle."""
    class _Gen:
        def radius(self, t):
            return body.height(t)

    return chart_curvature_2d(_Gen(), u, fd_step=fd_step)


def orbit_curvature_fd(body, u, eps=1e-5, fd_step=1e-6):
    """Orbit curvature by flowing the meridian point along its normal.

    kappa_orbit = d/d eps log sinh rho(flowed point) at eps = 0, where rho
    is the distance to the rotation axis; the flow happens in the meridian
    half-plane realized as the Poincare disk.
    """
    u = np.asarray(u, dtype=float)

    def z(t):
        return np.tanh(body.height(t) / 2.0) * np.exp(1j * t)

    def rho_after(eps):
        z0 = z(u)
        d1 = (z(u + fd_step) - z(u - fd_step)) / (2.0 * fd_step)
        nu = -1j * d1 / np.abs(d1)
        w = np.tanh(eps / 2.0) * nu
        zf = (w + z0) / (1.0 + np.conj(z0) * w)
        t_h = 2.0 * np.arctanh(np.abs(zf))
        ang = np.angle(zf)
        return np.arcsinh(np.sinh(t_h) * np.sin(ang))

    return (np.log(np.sinh(rho_after(eps))) - np.log(np.sinh(rho_after(-eps)))) / (2.0 * eps)


def fd_shell_eigen_p2(n, r, R, n_cells=6000):
    """Smallest eigenvalue of the weighted 1-D P1 pencil, Dirichlet at r."""
    t = np.linspace(r, R, n_cells + 1)
    h = t[1] - t[0]
    w = np.sinh(0.5 * (t[:-1] + t[1:])) ** (n - 1)
    k = w / h
    m = w * h
    main_k = np.zeros(n_cells + 1)
    main_k[:-1] += k
    main_k[1:] += k
    main_m = np.zeros(n_cells + 1)
    main_m[:-1] += m / 3.0
    main_m[1:] += m / 3.0
    K = diags([-k, main_k, -k], offsets=[-1, 0, 1], format="csc")
    M = diags([m / 6.0, main_m, m / 6.0], offsets=[-1, 0, 1], format="csc")
    K = K[1:, 1:]
    M = M[1:, 1:]
    v0 = np.ones(K.shape[0])
    vals = eigsh(K, k=1, M=M, sigma=0.0, which="LM", v0=v0,
                 return_eigenvectors=False)
    return float(vals[0])


def offset_ball_parallel_length(hole_r, outer_R, offset, delta):
    """Exact clipped parallel length for a ball hole inside an offset ball.

    The parallel set is the circle of radius hole_r + delta about the hole
    centre; hyperbolic law of cosines gives the arc lying inside the outer
    ball at centre distance `offset`.
    """
    rho = hole_r + delta
    if offset == 0.0:
        return 2.0 * math.pi * math.sinh(rho) if rho <= outer_R else 0.0
    a = (math.cosh(rho) * math.cosh(offset) - math.cosh(outer_R)) / (
        math.sinh(rho) * math.sinh(offset))
    if a <= -1.0:
        return 2.0 * math.pi * math.sinh(rho)
    if a >= 1.0:
        return 0.0
    return 2.0 * math.acos(a) * math.sinh(rho)


def dense_ray_crossings(dom, theta, n_samples):
    """Every outer-boundary crossing of the hole's normal rays at theta, by a
    dense scan and bisection.

    Each ray is sampled at n_samples + 1 points over [0, r + reach], r the
    chart distance of its foot and reach 0.01 past the outer boundary's
    largest distance from the origin, with the Mobius maps written out: w on
    the ray, and v, w seen from the outer body's base point c.  Every sign
    change of tanh(R(arg v)/2) - |v|, R the outer body's radius, is bisected
    until its bracket stops shrinking.  Returns a (rays, max crossings)
    array, NaN-padded.
    """
    reach = 2.0 * math.atanh(float(np.max(np.abs(dom.outer_samples[1])))) + 0.01
    z, nu = dom.inner.chart_curve(theta), dom.inner.chart_normal(theta)
    r = 2.0 * np.arctanh(np.abs(z))
    c = math.tanh(dom.offset / 2.0) * np.exp(1j * dom.offset_angle)

    def f(ray, t):
        s = np.tanh(t / 2.0) * nu[ray]
        w = (s + z[ray]) / (1.0 + np.conj(z[ray]) * s)
        v = (w - c) / (1.0 - np.conj(c) * w)
        return np.tanh(dom.outer.radius(np.angle(v)) / 2.0) - np.abs(v)

    rays = np.arange(len(z))[:, None]
    t = (r[:, None] + reach) * np.linspace(0.0, 1.0, n_samples + 1)
    inside = f(rays, t) > 0.0
    ray, j = np.nonzero(inside[:, :-1] != inside[:, 1:])
    a, b = t[ray, j], t[ray, j + 1]
    a_in = inside[ray, j]
    while True:
        m = 0.5 * (a + b)
        moving = (a < m) & (m < b)
        if not np.any(moving):
            break
        side = (f(ray, m) > 0.0) == a_in
        a, b = np.where(moving & side, m, a), np.where(moving & ~side, m, b)
    column = np.arange(len(ray)) - np.searchsorted(ray, ray)
    out = np.full((len(z), column.max() + 1), np.nan)
    out[ray, column] = 0.5 * (a + b)
    return out


def bisected_polar_radii(dom, a, n_samples=1 << 16):
    """Chart radius of a domain's outer boundary at the polar angles a, by
    bisection on its curve parameter.

    The boundary dom.outer_chart is sampled at n_samples + 1 parameters over
    [0, 2 pi]; between the two whose unwrapped polar angles enclose an angle,
    the parameter is halved until its bracket stops shrinking, and the
    radius is read at the bracket's middle.
    """
    t = np.linspace(0.0, 2.0 * np.pi, n_samples + 1)
    z = dom.outer_chart(t)
    angle = np.unwrap(np.angle(z))
    a = angle[0] + np.mod(np.asarray(a, dtype=float) - angle[0], 2.0 * np.pi)
    k = np.searchsorted(angle, a, side="right") - 1
    lo, hi = t[k], t[k + 1]
    while True:
        m = 0.5 * (lo + hi)
        moving = (lo < m) & (m < hi)
        if not np.any(moving):
            break
        beyond = angle[k] + np.angle(dom.outer_chart(m) / z[k]) > a
        lo, hi = np.where(moving & ~beyond, m, lo), np.where(moving & beyond, m, hi)
    return np.abs(dom.outer_chart(0.5 * (lo + hi)))


def planar_polar_curvature(r, rp, rpp):
    """Classical Euclidean polar-graph curvature (degeneration target)."""
    return (r * r + 2.0 * rp * rp - r * rpp) / (r * r + rp * rp) ** 1.5


@dataclass(frozen=True)
class GridField:
    """Hyperbolic distance to the hole boundary at the nodes of a chart grid."""

    gx: np.ndarray
    gy: np.ndarray
    values: np.ndarray     # (len(gx), len(gy)); hole nodes and nodes off the disk are far
    cell: float
    rho_out: object


def _min_chord_to_curve(dom, theta, bxy, b2, px, py, p2):
    """Minimum squared-chord form of the distance from nodes to the hole curve.

    Coarse minimum over the sampled curve via one BLAS product, then a
    3-point parabolic refinement in the curve parameter.  The chord form
    q = |x-y|^2 / ((1-|x|^2)(1-|y|^2)) is monotone in the true distance,
    so refinement can happen before the arcsinh.
    """
    n_boundary = len(theta)

    def chord_q(ts):
        z = dom.inner.chart_curve(ts)
        c2 = z.real ** 2 + z.imag ** 2
        return ((px - z.real) ** 2 + (py - z.imag) ** 2) / ((1.0 - p2) * (1.0 - c2))

    nodes = np.stack([px, py], axis=1)
    q = p2[:, None] - 2.0 * (nodes @ bxy.T)
    q += b2[None, :]
    q /= (1.0 - p2)[:, None]
    q /= (1.0 - b2)[None, :]
    am = np.argmin(q, axis=1)
    qmin = q[np.arange(len(am)), am]
    del q
    dt = 2.0 * np.pi / n_boundary
    tm = theta[am]
    q_lo = chord_q(tm - dt)
    q_hi = chord_q(tm + dt)
    denom = q_lo - 2.0 * qmin + q_hi
    shift = np.where(np.abs(denom) > 1e-300, 0.5 * (q_lo - q_hi) / denom, 0.0)
    shift = np.clip(shift, -1.0, 1.0)
    return np.minimum(qmin, chord_q(tm + shift * dt))


def grid_distance_field(dom, grid_res, n_boundary=256):
    """Distance to the hole boundary on a grid_res^2 chart grid over the domain."""
    def rho_out_fn(a):
        return dom.polar_radii(a)[1]

    a = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    b = min(float(np.max(rho_out_fn(a))) * 1.005 + 2e-3, 0.999)
    gx = np.linspace(-b, b, grid_res)
    XX, YY = np.meshgrid(gx, gx, indexing="ij")
    px, py = XX.ravel(), YY.ravel()
    p2 = px * px + py * py
    ok = p2 < 1.0 - 1e-12

    theta = np.linspace(0.0, 2.0 * np.pi, n_boundary, endpoint=False)
    zb = dom.inner.chart_curve(theta)
    bxy = np.stack([zb.real, zb.imag], axis=1)
    b2 = zb.real ** 2 + zb.imag ** 2

    dist = np.full(px.shape, 1e6)
    chunk = 65536
    for i0 in range(0, len(px), chunk):
        idx = np.arange(i0, min(i0 + chunk, len(px)))
        idx = idx[ok[idx]]
        if len(idx):
            q = _min_chord_to_curve(dom, theta, bxy, b2, px[idx], py[idx], p2[idx])
            dist[idx] = 2.0 * np.arcsinh(np.sqrt(q))
    inside_hole = np.sqrt(p2) < np.tanh(0.5 * dom.inner.radius(np.arctan2(py, px)))
    signed = np.where(inside_hole, -dist, dist)
    return GridField(gx=gx, gy=gx, values=signed.reshape(grid_res, grid_res),
                     cell=float(gx[1] - gx[0]), rho_out=rho_out_fn)


def grid_parallel_length(fld, level):
    """Hyperbolic length of {d = level} inside the outer boundary, by marching squares.

    Each level segment is cut where it crosses the outer boundary, so the
    clipping costs O(cell^2) per crossing and a boundary with many petals
    does not add a cell length for every crossing.
    """
    gx, gy, h, F = fld.gx, fld.gy, fld.cell, fld.values
    corners = np.stack([F[:-1, :-1], F[1:, :-1], F[1:, 1:], F[:-1, 1:]], axis=0)
    ii, jj = np.nonzero((corners.min(axis=0) <= level) & (corners.max(axis=0) >= level))
    G = corners[:, ii, jj].T - level  # columns: (0,0), (1,0), (1,1), (0,1)
    X0, Y0 = gx[ii], gy[jj]
    pts = np.full((len(ii), 4, 2), np.nan)

    def cut(mask, ga, gb, ax, ay, bx, by, slot):
        s = ga[mask] / (ga[mask] - gb[mask])
        pts[mask, slot, 0] = ax[mask] + s * (bx[mask] - ax[mask])
        pts[mask, slot, 1] = ay[mask] + s * (by[mask] - ay[mask])

    cut(G[:, 0] * G[:, 1] < 0, G[:, 0], G[:, 1], X0, Y0, X0 + h, Y0, 0)
    cut(G[:, 1] * G[:, 2] < 0, G[:, 1], G[:, 2], X0 + h, Y0, X0 + h, Y0 + h, 1)
    cut(G[:, 3] * G[:, 2] < 0, G[:, 3], G[:, 2], X0, Y0 + h, X0 + h, Y0 + h, 2)
    cut(G[:, 0] * G[:, 3] < 0, G[:, 0], G[:, 3], X0, Y0, X0, Y0 + h, 3)

    two = (~np.isnan(pts[:, :, 0])).sum(axis=1) == 2
    P = pts[two]
    order = np.argsort(np.isnan(P[:, :, 0]), axis=1, kind="stable")[:, :2]
    A = np.take_along_axis(P, order[:, 0][:, None, None].repeat(2, 2), 1)[:, 0, :]
    B = np.take_along_axis(P, order[:, 1][:, None, None].repeat(2, 2), 1)[:, 0, :]
    # clip each segment at the outer boundary, linear in the boundary's polar gap
    fa = fld.rho_out(np.arctan2(A[:, 1], A[:, 0])) - np.hypot(A[:, 0], A[:, 1])
    fb = fld.rho_out(np.arctan2(B[:, 1], B[:, 0])) - np.hypot(B[:, 0], B[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.clip(fa / (fa - fb), 0.0, 1.0)
    start = np.where(fa > 0.0, 0.0, np.where(fb > 0.0, s, 0.0))[:, None]
    stop = np.where(fb > 0.0, 1.0, np.where(fa > 0.0, s, 0.0))[:, None]
    A, B = A + start * (B - A), A + stop * (B - A)
    mx = 0.5 * (A[:, 0] + B[:, 0])
    my = 0.5 * (A[:, 1] + B[:, 1])
    seg = np.hypot(B[:, 0] - A[:, 0], B[:, 1] - A[:, 1])
    return float(np.sum(seg * 2.0 / (1.0 - (mx * mx + my * my))))


def dense_polar_stiffness(op):
    """Dense K[(j, i), (l, n)] of a spectral._PolarOperator's quadrature form
    over all nodes, hole row included, built as one 4-D array."""
    Ds, Dt, a = op.Ds, op.Dt, op.a
    ns1, nt = op.c1.shape
    K = np.zeros((ns1, nt, ns1, nt))
    # s-derivative terms couple nodes on one ray, theta terms one level
    ss = np.einsum("kj,ki,kl->ijl", Ds, op.c1 + op.c2 * a * a, Ds)
    rays = np.arange(nt)
    K[:, rays, :, rays] += ss
    tt = np.einsum("mi,jm,mn->jin", Dt, op.c2, Dt)
    levels = np.arange(ns1)
    K[levels, :, levels, :] += tt
    cross = np.einsum("ni,jn,jl->jiln", Dt, op.c2 * a, Ds)
    K -= cross
    K -= cross.transpose(2, 3, 0, 1)
    return K.reshape(ns1 * nt, ns1 * nt)


def dense_eigenpair(op):
    """(tau_1, u) on a spectral._PolarOperator's grid by dense eigh of the
    scaled free block of dense_polar_stiffness: u >= 0 with unit weighted L2
    norm, and tau_1 its Rayleigh quotient op.energy(u), as
    spectral._eigenpair reports them."""
    n_hole = op.mass.shape[1]
    K = dense_polar_stiffness(op)[n_hole:, n_hole:]
    scale = 1.0 / np.sqrt(op.mass[1:].ravel())
    _, vec = eigh(scale[:, None] * K * scale[None, :], subset_by_index=[0, 0])
    u = np.zeros_like(op.mass)
    u[1:] = (vec[:, 0] * scale).reshape(u[1:].shape)
    u /= math.sqrt(float(np.sum(op.mass * u * u)))
    if u[np.unravel_index(np.argmax(np.abs(u)), u.shape)] < 0.0:
        u = -u
    return op.energy(u), u


def dense_mixed_eigenpair(dom):
    """spectral.mixed_eigenpair with dense eigh at every resolution."""
    from horokit import spectral
    return spectral._converge(lambda n_theta, n_s, _previous: dense_eigenpair(
        spectral._PolarOperator(dom, n_theta, n_s)))


def masked_cuts(deltas, near, far):
    """(row, k) with near[k] <= deltas[row] < far[k], from the full mask."""
    return np.nonzero((near <= deltas[:, None]) & (far > deltas[:, None]))


def _broadcast_element_quadrature(mesh):
    """Areas and the (element, corner) arrays b, c and lambda of fem2d."""
    v, t = mesh.vertices, mesh.triangles
    x, y = v[t, 0], v[t, 1]
    det = ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
           - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    area = 0.5 * np.abs(det)
    lam = np.empty((len(area), 3))
    for q, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
        mx = 0.5 * (x[:, i] + x[:, j])
        my = 0.5 * (y[:, i] + y[:, j])
        lam[:, q] = 2.0 / (1.0 - (mx * mx + my * my))
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], 1) / det[:, None]
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], 1) / det[:, None]
    return area, b, c, lam


_MID_PHI = (np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.5, 0.5]), np.array([0.5, 0.0, 0.5]))


def broadcast_assemble_p2(mesh):
    """fem2d.assemble_p2 from (element, i, j) element matrices."""
    from scipy.sparse import coo_matrix
    area, b, c, lam = _broadcast_element_quadrature(mesh)
    ke = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) * area[:, None, None]
    me = np.zeros_like(ke)
    for q, phi in enumerate(_MID_PHI):
        w = lam[:, q] ** 2 * (area / 3.0)
        me += w[:, None, None] * (phi[:, None] * phi[None, :])[None, :, :]
    t = mesh.triangles
    ii, jj = np.repeat(t, 3, axis=1).ravel(), np.tile(t, (1, 3)).ravel()
    nv = mesh.vertices.shape[0]
    return (coo_matrix((ke.ravel(), (ii, jj)), shape=(nv, nv)).tocsr(),
            coo_matrix((me.ravel(), (ii, jj)), shape=(nv, nv)).tocsr())


def unique_stiffness_pattern(corners, nf):
    """(slot, pattern) of fem2d._RayleighP from np.unique: the slot of every
    element entry (i, j) in the CSC pattern (indices, indptr) of the
    free-node stiffness, len(indices) at a hole node (corner index nf)."""
    rows, cols = np.repeat(corners.ravel(), 3), np.tile(corners, 3).ravel()
    both = (rows < nf) & (cols < nf)
    keys, slot = np.unique(cols[both] * nf + rows[both], return_inverse=True)
    slots = np.full(rows.shape, len(keys))
    slots[both] = slot
    return slots, (keys % nf, np.searchsorted(keys // nf, np.arange(nf + 1)))


class BroadcastRayleighP:
    """fem2d._RayleighP's quotient, gradients and element Hessians on
    (element, corner) arrays: num sums nu_T |g_T|^p, den is the midpoint
    quadrature of |u|^p lambda^2; element matrices are indexed [T, i, j]."""

    def __init__(self, mesh, p):
        self.p, self.t, self.nv = p, mesh.triangles, mesh.vertices.shape[0]
        self.free = np.setdiff1d(np.arange(self.nv), mesh.inner_nodes)
        area, self.b, self.c, lam = _broadcast_element_quadrature(mesh)
        self.nu = area / 3.0 * np.sum(lam ** (2.0 - p), axis=1)
        self.mass_w = (area / 3.0)[:, None] * lam ** 2
        self.bb = self.b[:, :, None] * self.b[:, None, :] + self.c[:, :, None] * self.c[:, None, :]

    def _full(self, x):
        u = np.zeros(self.nv)
        u[self.free] = x
        return u

    def _scatter(self, per_vertex):
        return np.bincount(self.t.ravel(), per_vertex.ravel(), minlength=self.nv)[self.free]

    def gradients(self, x):
        """(gx, gy, d) with d[T, k] = gx b_k + gy c_k."""
        ut = self._full(x)[self.t]
        gx, gy = np.sum(self.b * ut, axis=1), np.sum(self.c * ut, axis=1)
        return gx, gy, gx[:, None] * self.b + gy[:, None] * self.c

    def numerator(self, x):
        p = self.p
        gx, gy, d = self.gradients(x)
        g2 = gx * gx + gy * gy + 1e-300
        coef = self.nu * p * g2 ** (p / 2.0 - 1.0)
        return float(np.sum(self.nu * g2 ** (p / 2.0))), self._scatter(coef[:, None] * d)

    def _midpoints(self, x):
        u = self._full(x)
        return 0.5 * (u[self.t] + u[self.t[:, [1, 2, 0]]])

    def denominator(self, x):
        p = self.p
        uq = self._midpoints(x)
        dd = 0.5 * p * self.mass_w * np.abs(uq) ** (p - 1.0) * np.sign(uq)
        return float(np.sum(self.mass_w * np.abs(uq) ** p)), self._scatter(dd + dd[:, [2, 0, 1]])

    def hessian_elements(self, x):
        p = self.p
        gx, gy, d = self.gradients(x)
        s = gx * gx + gy * gy
        s += 1e-12 * s.max()
        he = (self.nu * s ** (p / 2.0 - 1.0))[:, None, None] * self.bb
        he += ((p - 2.0) * self.nu * s ** (p / 2.0 - 2.0))[:, None, None] * d[:, :, None] * d[:, None, :]
        return he

    def denominator_hessian_elements(self, x):
        p = self.p
        a = np.abs(self._midpoints(x))
        w = np.zeros_like(a)
        nz = a > 0.0
        w[nz] = p * (p - 1.0) * self.mass_w[nz] * a[nz] ** (p - 2.0)
        return sum(w[:, q, None, None] * np.outer(phi, phi) for q, phi in enumerate(_MID_PHI))


def looped_parallel_perimeters(profile, deltas):
    """bodies.parallel_perimeter_direct of a curvature profile, one delta at
    a time: the boundary integral of prod_i (cosh delta + kappa_i sinh delta)."""
    out = []
    for delta in deltas:
        c, s = math.cosh(delta), math.sinh(delta)
        jac = np.ones(len(profile.params))
        for col, mult in enumerate(profile.multiplicity):
            jac *= (c + profile.kappas[:, col] * s) ** mult
        out.append(float(np.sum(jac * profile.weights)))
    return np.array(out)


def per_point_continuous_extension(steps, t):
    """RK45's continuous extension of the accepted steps at the points t, with
    each point's stages contracted with RK45.P on their own; rows (v, W)."""
    t_old, h, y_old, stages = steps[:, 0], steps[:, 1], steps[:, 2:4], steps[:, 4:].reshape(-1, 7, 2)
    j = np.clip(np.searchsorted(t_old, t, side="left") - 1, 0, len(t_old) - 1)
    x = (t - t_old[j]) / h[j]
    powers = np.cumprod(np.repeat(x[:, None], RK45.P.shape[1], axis=1), axis=1)
    q = np.einsum("msk,sq->mkq", stages[j], RK45.P)
    return (y_old[j] + h[j, None] * np.einsum("mkq,mq->mk", q, powers)).T
