"""P1 finite elements on doubly connected domains in the Poincare disk.

At p = 2 the Dirichlet integral is conformally invariant in two dimensions,
so the stiffness matrix is the flat one and only the mass matrix carries the
metric weight lambda(x)^2 = (2/(1-|x|^2))^2.  The stiffness matrix on the
free nodes is symmetric positive definite; it is factored once per mesh by
a sparse LU under a symmetric minimum-degree ordering, and the p = 2
eigenpair comes from shift-invert Lanczos on that factor.  General p uses
the nonlinear inverse power iteration on the discrete Rayleigh quotient,
each step a convex p-energy minimized by damped Newton on sparse LUs of its
Hessian, which has the stiffness matrix's sparsity pattern.

Meshes are structured polar triangulations between two boundary curves that
are star-shaped about the inner base point; the construction is intrinsic
(the inner base point is always centred), so hyperbolic isometries of the
input domain produce identical meshes and eigenvalues.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.sparse import coo_matrix, csc_matrix
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

from .core import chart_radius, mobius_shift
from .bodies import Body2D
from .shell import EigResult
from .errors import DomainValidationError, NumericError

MIN_ANGLE_DEG = 20.0
EIG_RESIDUAL_RTOL = 1e-10
DESCENT_DECREASE = 1e-10   # general-p starts differ only beyond this gap
POWER_DECREASE = 1e-13     # inverse power settles below this decrease
MONOTONE_RTOL = 1e-13      # roundoff allowed in the quotient's decrease
HESSIAN_EPS = 1e-12
# P1 systems are SPD: minimum degree on A + A^T keeps the factor about half
# as full as the default COLAMD column ordering, which ignores the symmetry
SPLU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A"}


@dataclass(frozen=True)
class AnnularDomain2D:
    """Domain between a Dirichlet hole and an outer Neumann boundary.

    The inner body's base point sits at the chart origin; the outer body's
    base point is offset by a hyperbolic distance along a fixed direction.
    Both boundaries must be star-shaped about the origin.
    """

    inner: Body2D
    outer: Body2D
    offset: float = 0.0
    offset_angle: float = 0.0

    def __post_init__(self):
        if not isinstance(self.inner, Body2D) or not isinstance(self.outer, Body2D):
            raise DomainValidationError("annular domains are built from two Body2D")
        if self.offset < 0.0:
            raise DomainValidationError("offset must be >= 0")
        ri, ro = self.polar_tables
        a = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        if np.min(ro(a) - ri(a)) <= 1e-9:
            raise DomainValidationError("inner boundary touches or crosses the outer one")

    def inner_chart(self, theta):
        return self.inner.chart_curve(theta)

    def outer_chart(self, theta):
        z = self.outer.chart_curve(theta)
        if self.offset == 0.0:
            return z
        c = chart_radius(self.offset) * np.exp(1j * self.offset_angle)
        return mobius_shift(z, c)

    @cached_property
    def polar_tables(self):
        """Chart radii (rho_in, rho_out) of both boundaries as periodic
        functions of the polar angle about the origin."""
        theta = np.linspace(0.0, 2.0 * np.pi, 8192, endpoint=False)
        return (_periodic_radius_interpolant(self.inner_chart(theta)),
                _periodic_radius_interpolant(self.outer_chart(theta)))


def _periodic_radius_interpolant(z):
    """Chart radius as a periodic cubic spline of the polar angle about 0."""
    ang = np.unwrap(np.angle(z))
    if ang[-1] < ang[0]:
        z = z[::-1]
        ang = np.unwrap(np.angle(z))
    if np.any(np.diff(ang) <= 0.0):
        raise DomainValidationError("boundary curve is not star-shaped about the base point")
    rad = np.abs(z)
    a0 = ang[0]
    angs = np.append(ang, a0 + 2.0 * np.pi)
    rads = np.append(rad, rad[0])
    spline = CubicSpline(angs, rads, bc_type="periodic")

    def table(a):
        a = np.asarray(a, dtype=float)
        return spline(a0 + np.mod(a - a0, 2.0 * np.pi))

    return table


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation with tagged inner/outer boundary loops."""

    vertices: np.ndarray
    triangles: np.ndarray
    inner_nodes: np.ndarray
    outer_nodes: np.ndarray
    h_mesh: float
    n_theta: int
    n_layers: int

    @property
    def boundary_edges(self):
        """(a, b, tag) rows; tag 'D' on the inner loop, 'N' on the outer."""
        rows = []
        for loop, tag in ((self.inner_nodes, "D"), (self.outer_nodes, "N")):
            nxt = np.roll(loop, -1)
            rows.extend((int(a), int(b), tag) for a, b in zip(loop, nxt))
        return rows

    def edge_lengths(self):
        v = self.vertices
        t = self.triangles
        e = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        d = v[e[:, 0]] - v[e[:, 1]]
        return np.hypot(d[:, 0], d[:, 1])

    def min_angle_deg(self):
        v = self.vertices
        t = self.triangles
        p = v[t]
        angles = []
        for k in range(3):
            a = p[:, (k + 1) % 3] - p[:, k]
            b = p[:, (k + 2) % 3] - p[:, k]
            cosang = np.sum(a * b, axis=1) / (np.hypot(a[:, 0], a[:, 1]) * np.hypot(b[:, 0], b[:, 1]))
            angles.append(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
        return float(np.min(angles))


def _polar_mesh(rho_in_fn, rho_out_fn, n_theta, n_layers):
    a = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    ri, ro = rho_in_fn(a), rho_out_fn(a)
    s = np.linspace(0.0, 1.0, n_layers + 1)
    rho = ri[None, :] + s[:, None] * (ro - ri)[None, :]
    verts = np.stack([(rho * np.cos(a)[None, :]).ravel(),
                      (rho * np.sin(a)[None, :]).ravel()], axis=1)
    idx = np.arange((n_layers + 1) * n_theta).reshape(n_layers + 1, n_theta)
    tris = []
    for j in range(n_layers):
        i0 = idx[j]
        i1 = np.roll(idx[j], -1)
        i2 = idx[j + 1]
        i3 = np.roll(idx[j + 1], -1)
        even = (np.arange(n_theta) + j) % 2 == 0
        tris.append(np.where(even[:, None], np.stack([i0, i1, i3], 1), np.stack([i0, i1, i2], 1)))
        tris.append(np.where(even[:, None], np.stack([i0, i3, i2], 1), np.stack([i1, i3, i2], 1)))
    # the (theta, layer) frame is left-handed in the chart; flip to CCW
    triangles = np.concatenate(tris, axis=0)[:, [0, 2, 1]]
    return verts, triangles, idx[0].copy(), idx[n_layers].copy()


def build_mesh(dom, h_mesh):
    """Triangulate the domain with chart edges <= h_mesh and angles >= 20 deg."""
    if h_mesh <= 0:
        raise DomainValidationError("h_mesh must be > 0")
    rho_in_fn, rho_out_fn = dom.polar_tables
    a = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    ri, ro = rho_in_fn(a), rho_out_fn(a)
    gap = ro - ri
    # boundary arc element sqrt(rho'^2 + rho^2) governs the angular density
    dro = np.gradient(ro, a)
    arc = float(np.max(np.sqrt(dro ** 2 + ro ** 2)))
    target = h_mesh / math.sqrt(2.0)
    n_theta = int(np.ceil(2.0 * np.pi * arc / target))
    n_layers = max(2, int(np.ceil(gap.max() / target)))
    for _ in range(8):
        verts, tris, inner, outer = _polar_mesh(rho_in_fn, rho_out_fn, n_theta, n_layers)
        mesh = Mesh(vertices=verts, triangles=tris, inner_nodes=inner,
                    outer_nodes=outer, h_mesh=h_mesh, n_theta=n_theta,
                    n_layers=n_layers)
        max_edge = float(mesh.edge_lengths().max())
        min_ang = mesh.min_angle_deg()
        if max_edge <= h_mesh and min_ang >= MIN_ANGLE_DEG:
            return mesh
        if max_edge > h_mesh:
            scale = max_edge / h_mesh
            n_theta = int(np.ceil(n_theta * min(scale, 2.0)))
            n_layers = int(np.ceil(n_layers * min(scale, 2.0)))
        elif min_ang < MIN_ANGLE_DEG:
            # thin cells: grow resolution transverse to the short direction
            ang_edge = 2.0 * np.pi * arc / n_theta
            rad_edge = gap.max() / n_layers
            if rad_edge > ang_edge:
                n_layers = int(np.ceil(n_layers * 1.5))
            else:
                n_theta = int(np.ceil(n_theta * 1.5))
    raise NumericError("mesh quality targets not reached; domain too distorted")


_MID_PAIRS = ((0, 1), (1, 2), (2, 0))
_MID_PHI = (np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.5, 0.5]), np.array([0.5, 0.0, 0.5]))


def _element_quadrature(mesh):
    """Areas, P1 gradient coefficients (b, c) and the metric weight lambda at
    the three edge midpoints (columns in _MID_PAIRS order) of every element."""
    v = mesh.vertices
    t = mesh.triangles
    x = v[t, 0]
    y = v[t, 1]
    det = ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
           - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    if np.any(det == 0.0):
        raise NumericError("degenerate triangle in mesh")
    area = 0.5 * np.abs(det)
    lam = np.empty((len(area), 3))
    for q, (i, j) in enumerate(_MID_PAIRS):
        mx = 0.5 * (x[:, i] + x[:, j])
        my = 0.5 * (y[:, i] + y[:, j])
        lam[:, q] = 2.0 / (1.0 - (mx * mx + my * my))
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], 1) / det[:, None]
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], 1) / det[:, None]
    return area, b, c, lam


def assemble_p2(mesh):
    """Flat stiffness matrix and lambda^2-weighted mass matrix."""
    area, b, c, lam = _element_quadrature(mesh)
    ke = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) * area[:, None, None]
    me = np.zeros_like(ke)
    for q, phi in enumerate(_MID_PHI):
        w = lam[:, q] ** 2 * (area / 3.0)
        me += w[:, None, None] * (phi[:, None] * phi[None, :])[None, :, :]
    t = mesh.triangles
    ii = np.repeat(t, 3, axis=1).ravel()
    jj = np.tile(t, (1, 3)).ravel()
    nv = mesh.vertices.shape[0]
    K = coo_matrix((ke.ravel(), (ii, jj)), shape=(nv, nv)).tocsr()
    M = coo_matrix((me.ravel(), (ii, jj)), shape=(nv, nv)).tocsr()
    return K, M


def boundary_mass_outer(mesh):
    """Robin (trace) mass matrix on the outer loop with hyperbolic length weight."""
    v = mesh.vertices
    loop = mesh.outer_nodes
    nxt = np.roll(loop, -1)
    ax, ay = v[loop, 0], v[loop, 1]
    bx, by = v[nxt, 0], v[nxt, 1]
    ell = np.hypot(bx - ax, by - ay)
    mx, my = 0.5 * (ax + bx), 0.5 * (ay + by)
    lam = 2.0 / (1.0 - (mx * mx + my * my))
    w = ell * lam
    ii = np.concatenate([loop, nxt, loop, nxt])
    jj = np.concatenate([loop, nxt, nxt, loop])
    vals = np.concatenate([w / 3.0, w / 3.0, w / 6.0, w / 6.0])
    nv = v.shape[0]
    return coo_matrix((vals, (ii, jj)), shape=(nv, nv)).tocsr()


def hyperbolic_area(mesh):
    """Hyperbolic area of the meshed region from the weighted mass matrix."""
    _, M = assemble_p2(mesh)
    return float(M.sum())


def richardson_extrapolate(coarse, fine):
    """(h, h/2) Richardson extrapolation of a second-order accurate value."""
    return fine + (fine - coarse) / 3.0


def _dirichlet_system(mesh):
    """K and M on the free (non-hole) nodes, with the sparse LU of K.

    The one P1 assembly and factorization a mesh needs: the p = 2
    eigensolver inverts K, also for the first start of the general-p solver.
    """
    K, M = assemble_p2(mesh)
    free = np.setdiff1d(np.arange(mesh.vertices.shape[0]), mesh.inner_nodes)
    Kf = K[np.ix_(free, free)].tocsc()
    Mf = M[np.ix_(free, free)].tocsr()
    return free, Kf, Mf, splu(Kf, **SPLU_OPTIONS)


def eigen_p2(mesh):
    """Smallest eigenvalue of (K, M) with inner-Dirichlet elimination.

    Shift-invert Lanczos (ARPACK, shift 0) on the sparse LU of K, started
    from the constant vector so that repeated runs agree to the last bit;
    the eigenpair must satisfy ||K u - tau M u|| <= 1e-10 ||M u||.
    """
    return _shift_invert_eigenpair(mesh, _dirichlet_system(mesh))


def _shift_invert_eigenpair(mesh, system):
    free, Kf, Mf, lu = system
    nv = mesh.vertices.shape[0]
    solves = 0

    def solve(x):
        nonlocal solves
        solves += 1
        return lu.solve(x)

    v0 = np.ones(len(free))
    v0 /= math.sqrt(v0 @ (Mf @ v0))
    try:
        _, vecs = eigsh(Kf, k=1, M=Mf, sigma=0.0, which="LM", v0=v0,
                        OPinv=LinearOperator(Kf.shape, matvec=solve, dtype=float))
    except ArpackError as exc:
        raise NumericError(f"shift-invert Lanczos failed: {exc}") from exc
    u = vecs[:, 0]
    u /= math.sqrt(u @ (Mf @ u))
    tau = float(u @ (Kf @ u))
    Mu = Mf @ u
    res = float(np.linalg.norm(Kf @ u - tau * Mu) / np.linalg.norm(Mu))
    if not res <= EIG_RESIDUAL_RTOL:
        raise NumericError(f"shift-invert Lanczos stopped at residual {res:.2e}")
    if u[np.argmax(np.abs(u))] < 0.0:
        u = -u
    full = np.zeros(nv)
    full[free] = u
    residuals = {"eig_residual": res, "dirichlet_trace": float(np.max(np.abs(full[mesh.inner_nodes])))}
    meta = {"n_vertices": nv, "n_triangles": mesh.triangles.shape[0],
            "h_mesh": mesh.h_mesh, "iterations": solves, "p": 2.0}
    return EigResult(tau1=tau, residuals=residuals, meta=meta, u=full)


class _RayleighP:
    """Rayleigh quotient num/den of free-node vectors for general p: num sums
    nu_T |g_T|^p over element gradients g_T, den is the edge-midpoint
    quadrature of |u|^p lambda^2."""

    def __init__(self, mesh, p):
        self.p, self.t, self.nv = p, mesh.triangles, mesh.vertices.shape[0]
        self.free = free = np.setdiff1d(np.arange(self.nv), mesh.inner_nodes)
        area, self.b, self.c, lam = _element_quadrature(mesh)
        self.nu = area / 3.0 * np.sum(lam ** (2.0 - p), axis=1)
        self.mass_w = (area / 3.0)[:, None] * lam ** 2
        self.bb = self.b[:, :, None] * self.b[:, None, :] + self.c[:, :, None] * self.c[:, None, :]
        # element entry (i, j) -> its slot in the fixed CSC pattern of the
        # free-node stiffness, or a trailing dummy slot at a hole node
        nf = len(free)
        pos = np.full(self.nv, -1)
        pos[free] = np.arange(nf)
        rows, cols = np.repeat(pos[self.t], 3, axis=1).ravel(), np.tile(pos[self.t], 3).ravel()
        both = (rows >= 0) & (cols >= 0)
        keys, slot = np.unique(cols[both] * nf + rows[both], return_inverse=True)
        self.slot = np.full(rows.shape, len(keys))
        self.slot[both] = slot
        self.pattern = (keys % nf, np.searchsorted(keys // nf, np.arange(nf + 1)))

    def full(self, x):
        u = np.zeros(self.nv)
        u[self.free] = x
        return u

    def _gradients(self, x):
        """Element gradients (gx, gy) and the rows d = gx b + gy c = B^T g."""
        ut = self.full(x)[self.t]
        gx, gy = np.sum(self.b * ut, axis=1), np.sum(self.c * ut, axis=1)
        return gx, gy, gx[:, None] * self.b + gy[:, None] * self.c

    def _scatter(self, per_vertex):
        return np.bincount(self.t.ravel(), per_vertex.ravel(), minlength=self.nv)[self.free]

    def numerator(self, x):
        p = self.p
        gx, gy, d = self._gradients(x)
        g2 = gx * gx + gy * gy + 1e-300
        coef = self.nu * p * g2 ** (p / 2.0 - 1.0)
        return float(np.sum(self.nu * g2 ** (p / 2.0))), self._scatter(coef[:, None] * d)

    def denominator(self, x):
        p = self.p
        u = self.full(x)
        uq = 0.5 * (u[self.t] + u[self.t[:, [1, 2, 0]]])  # on the _MID_PAIRS edges
        dd = 0.5 * p * self.mass_w * np.abs(uq) ** (p - 1.0) * np.sign(uq)
        return float(np.sum(self.mass_w * np.abs(uq) ** p)), self._scatter(dd + dd[:, [2, 0, 1]])

    def hessian(self, x):
        """Hessian of num/p: on element T, B^T nu_T (s^{p/2-1} I + (p-2)
        s^{p/2-2} g g^T) B with B = [b; c] and s = |g|^2 + HESSIAN_EPS
        max |g|^2, which keeps it definite and finite where g vanishes."""
        p = self.p
        gx, gy, d = self._gradients(x)
        s = gx * gx + gy * gy
        s += HESSIAN_EPS * s.max()
        he = (self.nu * s ** (p / 2.0 - 1.0))[:, None, None] * self.bb
        he += ((p - 2.0) * self.nu * s ** (p / 2.0 - 2.0))[:, None, None] * d[:, :, None] * d[:, None, :]
        indices, indptr = self.pattern
        data = np.bincount(self.slot, he.ravel(), minlength=len(indices) + 1)[:-1]
        return csc_matrix((data, indices, indptr), shape=(len(self.free),) * 2)


def damped_newton(energy_grad, newton_step, u, max_iter=80):
    """Minimize a convex energy by Newton steps with energy backtracking.

    energy_grad(u) gives (energy, gradient), newton_step(u, g) solves the
    Hessian at u against g.  Stops when the Newton decrement g . step falls
    below roundoff (1e-15 max(|energy|, 1)), when 30 halvings of a step do
    not lower the energy, or after max_iter steps; returns (u, solves)."""
    e, g = energy_grad(u)
    for solves in range(1, max_iter + 1):
        step = newton_step(u, g)
        if float(g @ step) <= 1e-15 * max(abs(e), 1.0):
            break
        t = 1.0
        for _ in range(30):
            e_new, g_new = energy_grad(u - t * step)
            if e_new <= e:
                break
            t *= 0.5
        else:
            break
        u, e, g = u - t * step, e_new, g_new
    return u, solves


def eigen_p_general(mesh, p, max_iter=300):
    """Upper-bound approximation of tau_1 for general p in (1, inf).

    Nonlinear inverse power iteration (Hein & Buehler 2010) on the P1
    Rayleigh quotient from the p = 2 eigenvector and from the constant 1,
    at most max_iter outer steps each.  Not certified globally optimal: the
    quotient of an admissible function, an upper bound whose quality the
    radial cross-checks establish.
    """
    if not p > 1.0:
        raise DomainValidationError(f"exponent p must exceed 1, got {p}")
    rq = _RayleighP(mesh, p)
    p2 = _shift_invert_eigenpair(mesh, _dirichlet_system(mesh))
    best = None
    for label, u0 in (("p2_eigenvector", np.abs(p2.u[rq.free])), ("constant", np.ones(len(rq.free)))):
        run = _inverse_power(rq, u0, max_iter)
        # both starts often settle on the same quotient to the last bit; the
        # p = 2 start is kept unless the other is lower by more than
        # DESCENT_DECREASE of it, so the label never rests on round-off
        if best is None or best[0] - run[0] > DESCENT_DECREASE * best[0]:
            best = run + (label,)
    value, u, outer, newton, settled, label = best
    if not settled:
        raise NumericError("inverse power iteration hit the iteration limit without settling")
    (_, g_num), (_, g_den) = rq.numerator(u), rq.denominator(u)
    u = rq.full(u)
    residuals = {"eig_residual": float(np.linalg.norm(g_num - value * g_den) / np.linalg.norm(g_den)),
                 "dirichlet_trace": float(np.max(np.abs(u[mesh.inner_nodes])))}
    meta = {"n_vertices": rq.nv, "h_mesh": mesh.h_mesh, "p": p, "start": label,
            "iterations": outer, "newton_steps": newton, "upper_bound_only": True}
    return EigResult(tau1=float(value), residuals=residuals, meta=meta, u=u)


def _inverse_power(rq, u, max_iter):
    """Outer steps from u until the quotient settles; returns (quotient,
    u with den(u) = 1, outer steps, Newton solves, settled)."""
    (num, _), (den, _) = rq.numerator(u), rq.denominator(u)
    u, value, newton = u / den ** (1.0 / rq.p), num / den, 0
    for outer in range(1, max_iter + 1):
        u, new, solves = _power_step(rq, u, value)
        newton += solves
        if new > value * (1.0 + MONOTONE_RTOL):
            raise NumericError(f"Rayleigh quotient rose from {value!r} to {new!r} in a power step")
        settled = value - new <= POWER_DECREASE * value
        value = new
        if settled:
            break
    return value, u, outer, newton, settled


def _power_step(rq, u, value):
    """From u with den(u) = 1 and quotient value, damped Newton lowers the
    convex F(v) = num(v)/p - <g_den(u)/p, v> from u value^{-1/(p-1)} (its
    minimizer if u is an eigenvector); F(v) <= F(start) implies R(v) <=
    value.  Returns (v / den(v)^{1/p}, R(v), Newton solves)."""
    p = rq.p
    s = rq.denominator(u)[1] / p

    def energy_grad(v):
        n, g = rq.numerator(v)
        return n / p - float(s @ v), g / p - s

    def newton_step(v, g):
        return splu(rq.hessian(v), **SPLU_OPTIONS).solve(g)

    v, solves = damped_newton(energy_grad, newton_step, u * value ** (-1.0 / (p - 1.0)))
    (num, _), (den, _) = rq.numerator(v), rq.denominator(v)
    return v / den ** (1.0 / p), num / den, solves
