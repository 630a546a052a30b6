"""P1 finite elements on doubly connected domains in the Poincare disk.

At p = 2 the Dirichlet integral is conformally invariant in two dimensions,
so the stiffness matrix is the flat one and only the mass matrix carries the
metric weight lambda(x)^2 = (2/(1-|x|^2))^2.  The stiffness matrix on the
free nodes is symmetric positive definite; it is factored once per mesh by
a sparse LU under a symmetric minimum-degree ordering, and the p = 2
eigenpair comes from shift-invert Lanczos on that factor.  General p uses
the nonlinear inverse power iteration on the discrete Rayleigh quotient,
started once from the p = 2 eigenvector, each step a convex p-energy
minimized by damped Newton on sparse LUs of its Hessian, which has the
stiffness matrix's sparsity pattern.  Every outer step first tries a
Newton step on the eigen-system (g_num(u) - tau g_den(u), den(u) - 1), full
and then halved, from one sparse LU of the stiffness pattern bordered by
g_den; a trial is kept only if it keeps the iterate positive, lowers the
eigen-residual and does not raise the quotient, and otherwise the step is a
power step, which converges only linearly.  Every bordered system of one
solve is assembled in place on the elimination order of the first and
factored on it: its entries are written straight into the CSC pattern of
the permuted matrix, and each iterate is differentiated once for its
quotient, its residual and its Jacobian.

The element kernels work on per-corner columns: every per-element quantity
(gradient coefficients, mass weights, corner values, element-matrix
entries) is one contiguous numpy row over the elements.  They keep every
bit of the (element, corner) broadcast forms they replaced (tests/oracles.py
keeps those as references): each entry takes the same float operations in
the same order, three-term sums add (a0 + a1) + a2, the quotient's
denominator is summed pairwise in (element, midpoint) order, and the sparse
sums add element matrices in (element, i, j) order.  Near p = 1 one changed
rounding moves the inverse power iteration's eigen-residual several-fold.

Meshes are structured polar triangulations between the two boundary curves
of a domain, read only through its polar radii (rho_in, rho_out), the chart
radii of both boundaries at the polar angles about the inner base point that
the mesh asks for, exact to round-off (bodies.AnnularDomain2D.polar_radii,
on a domain checked when it was built); the construction is intrinsic (the
inner base point is always centred), so hyperbolic isometries of the input
domain produce identical meshes and eigenvalues.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

from .core import check_exponent
from .shell import EigResult
from .errors import DomainValidationError, NumericError

MIN_ANGLE_DEG = 20.0
SIZING_ANGLES = 4096       # polar angles at which the boundaries' gap and arc length are read
EIG_RESIDUAL_RTOL = 1e-10
POWER_DECREASE = 1e-13     # inverse power settles below this decrease
MONOTONE_RTOL = 1e-13      # roundoff allowed in the quotient's decrease
HESSIAN_EPS = 1e-12
NEWTON_MAX_ITER = 80       # Newton steps of one convex minimization
POWER_MAX_ITER = 300       # outer inverse power steps from the p = 2 start
# P1 systems are SPD: minimum degree on A + A^T keeps the factor about half
# as full as the default COLAMD column ordering, which ignores the symmetry
SPLU_OPTIONS = {"permc_spec": "MMD_AT_PLUS_A"}


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation with its inner (Dirichlet) and outer (Neumann) loops."""

    vertices: np.ndarray
    triangles: np.ndarray
    inner_nodes: np.ndarray
    outer_nodes: np.ndarray
    h_mesh: float
    n_theta: int
    n_layers: int

    def _corner_coordinates(self):
        """Chart coordinates (x, y) of the corners, one row per corner."""
        t = self.triangles.T
        return self.vertices[:, 0][t], self.vertices[:, 1][t]

    def edge_lengths(self):
        """Chart lengths of the element edges (k, k+1), edge by edge for k = 0, 1, 2."""
        x, y = self._corner_coordinates()
        return np.hypot(x - x[_NEXT], y - y[_NEXT]).ravel()

    def min_angle_deg(self):
        x, y = self._corner_coordinates()
        ax, ay, bx, by = x[_NEXT] - x, y[_NEXT] - y, x[_PREV] - x, y[_PREV] - y
        cosang = (ax * bx + ay * by) / (np.hypot(ax, ay) * np.hypot(bx, by))
        return float(np.min(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))))


def _polar_mesh(dom, n_theta, n_layers):
    a = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    ri, ro = dom.polar_radii(a)
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
    a = np.linspace(0.0, 2.0 * np.pi, SIZING_ANGLES, endpoint=False)
    ri, ro = dom.polar_radii(a)
    gap = ro - ri
    # boundary arc element sqrt(rho'^2 + rho^2) governs the angular density
    dro = np.gradient(ro, a)
    arc = float(np.max(np.sqrt(dro ** 2 + ro ** 2)))
    target = h_mesh / math.sqrt(2.0)
    n_theta = int(np.ceil(2.0 * np.pi * arc / target))
    n_layers = max(2, int(np.ceil(gap.max() / target)))
    for _ in range(8):
        verts, tris, inner, outer = _polar_mesh(dom, n_theta, n_layers)
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


# corner k of an element is followed by corner _NEXT[k] and preceded by
# _PREV[k]; midpoint q lies on the edge (q, _NEXT[q])
_NEXT, _PREV = [1, 2, 0], [2, 0, 1]


def _element_quadrature(mesh):
    """Areas, P1 gradient coefficients (b, c) and the metric weight lambda at
    the three edge midpoints of every element; b, c and lambda have one row
    per corner or midpoint."""
    x, y = mesh._corner_coordinates()
    det = (x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0])
    if np.any(det == 0.0):
        raise NumericError("degenerate triangle in mesh")
    area = 0.5 * np.abs(det)
    mx, my = 0.5 * (x + x[_NEXT]), 0.5 * (y + y[_NEXT])
    lam = 2.0 / (1.0 - (mx * mx + my * my))
    return area, (y[_NEXT] - y[_PREV]) / det, (x[_PREV] - x[_NEXT]) / det, lam


def _midpoint_matrices(w):
    """Element matrices sum_q w_q phi_q phi_q^T of the midpoint rule with
    weights w (one row per midpoint): phi_q is 1/2 at both ends of edge q,
    so every entry is a sum of 0.25 w_q, indexed [i, j, element]."""
    q = 0.25 * w
    diag = q + q[_PREV]
    return np.stack([diag[0], q[0], q[2], q[0], diag[1], q[1], q[2], q[1], diag[2]]).reshape(3, 3, -1)


def _element_major_rows(rows):
    """Rows [k, element] of per-corner or per-midpoint values flattened
    element by element (a stack along axis 1 copies three rows faster than
    a transposed ravel)."""
    return np.stack(rows, axis=1).ravel()


def _element_major(he):
    """Element matrices he[i, j, element] flattened element by element, in
    the (element, i, j) order in which the sparse sums add them."""
    return he.reshape(9, -1).T.ravel()


def assemble_p2(mesh):
    """Flat stiffness matrix and lambda^2-weighted mass matrix."""
    area, b, c, lam = _element_quadrature(mesh)
    ke = (b[:, None] * b[None] + c[:, None] * c[None]) * area
    me = _midpoint_matrices(lam ** 2 * (area / 3.0))
    t = mesh.triangles
    ii = np.repeat(t, 3, axis=1).ravel()
    jj = np.tile(t, (1, 3)).ravel()
    nv = mesh.vertices.shape[0]
    K = coo_matrix((_element_major(ke), (ii, jj)), shape=(nv, nv)).tocsr()
    M = coo_matrix((_element_major(me), (ii, jj)), shape=(nv, nv)).tocsr()
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


def _factor(a, permc_spec=SPLU_OPTIONS["permc_spec"]):
    """Sparse LU of a under the column ordering permc_spec (SPLU_OPTIONS' by
    default); an exactly singular factor raises NumericError.  splu is looked
    up in this module at each call, so a wrapper set on fem2d.splu sees every
    factorization."""
    try:
        return splu(a, permc_spec=permc_spec)
    except RuntimeError as exc:
        raise NumericError(f"sparse LU failed: {exc}") from exc


def richardson_extrapolate(coarse, fine):
    """(h, h/2) Richardson extrapolation of a second-order accurate value."""
    return fine + (fine - coarse) / 3.0


def eigen_p2(mesh):
    """Smallest eigenvalue of (K, M) with inner-Dirichlet elimination.

    Shift-invert Lanczos (ARPACK, shift 0) on the sparse LU of K on the free
    (non-hole) nodes, started from the constant vector so that repeated runs
    agree to the last bit; the eigenpair must satisfy
    ||K u - tau M u|| <= 1e-10 ||M u||.
    """
    K, M = assemble_p2(mesh)
    nv = mesh.vertices.shape[0]
    free = np.setdiff1d(np.arange(nv), mesh.inner_nodes)
    Kf = K[np.ix_(free, free)].tocsc()
    Mf = M[np.ix_(free, free)].tocsr()
    lu = _factor(Kf)
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
    residuals = {"eig_residual": res}
    meta = {"n_vertices": nv, "n_triangles": mesh.triangles.shape[0],
            "h_mesh": mesh.h_mesh, "iterations": solves, "p": 2.0}
    return EigResult(tau1=tau, residuals=residuals, meta=meta, u=full)


def _keep_last(method):
    """Keep method's result for the last vector it was given (iterates are
    never written in place): the u that _normalized returns and the bordered
    step that starts from it are differentiated once, and so is a v that
    den(v) = 1 leaves unscaled."""
    name = method.__name__

    @functools.wraps(method)
    def kept(self, x):
        last = self._kept.get(name)
        if last is None or not np.array_equal(last[0], x):
            last = self._kept[name] = (x, method(self, x))
        return last[1]
    return kept


class _RayleighP:
    """Rayleigh quotient num/den of free-node vectors for general p: num sums
    nu_T |g_T|^p over element gradients g_T, den is the edge-midpoint
    quadrature of |u|^p lambda^2.  Per-element data is held one row per
    corner, midpoint or matrix entry, and every float operation is the one
    of the (element, corner) layout, in the same order."""

    def __init__(self, mesh, p):
        self.p, self.nv = p, mesh.vertices.shape[0]
        self.free = free = np.setdiff1d(np.arange(self.nv), mesh.inner_nodes)
        area, self.b, self.c, lam = _element_quadrature(mesh)
        weights = lam ** (2.0 - p)
        self.nu = area / 3.0 * (weights[0] + weights[1] + weights[2])
        self.mass_w = area / 3.0 * lam ** 2
        self.bb = self.b[:, None] * self.b[None] + self.c[:, None] * self.c[None]
        # the free index of every corner, nf at a hole node, where vectors
        # read an appended zero and scatters drop a trailing bin
        nf = len(free)
        pos = np.full(self.nv, nf)
        pos[free] = np.arange(nf)
        self.corners = pos[mesh.triangles]  # its transpose gives one row per corner
        # element entry (i, j) -> its slot in the fixed CSC pattern of the
        # free-node stiffness: the keys col * nf + row in sorted order, each
        # run of equal keys one slot; an entry at a hole node has the key
        # nf * nf, past all others, and so the trailing dummy slot
        rows, cols = np.repeat(self.corners.ravel(), 3), np.tile(self.corners, 3).ravel()
        keys = np.where((rows < nf) & (cols < nf), cols * nf + rows, nf * nf)
        order = np.argsort(keys)
        keys = keys[order]
        first = np.append(True, keys[1:] != keys[:-1])
        self.slot = np.empty_like(order)
        self.slot[order] = np.cumsum(first) - 1
        keys = keys[first & (keys < nf * nf)]
        self.pattern = (keys % nf, np.searchsorted(keys // nf, np.arange(nf + 1)))
        self._kept = {}
        self.border_order = None  # elimination order of the bordered systems
        self._border = None  # their CSC layout in that order, once laid out

    def order_border(self, perm_c):
        """Lay every later bordered system out on the column order perm_c of
        a factor of the first.  The layout is built with the next system,
        when that factor is freed."""
        self.border_order = np.argsort(perm_c)
        self._border = None

    def _border_layout(self):
        """(source, indices, indptr) of the bordered matrix B[order][:, order]
        (B itself before border_order is set) in canonical CSC: its data is
        [free-pattern slots, g_den, -g_den][source].  Found once by permuting
        a matrix of source numbers, counted from 1 so that no entry is an
        explicit zero."""
        indices, indptr = self.pattern
        nf, ns = len(self.free), len(indices)
        rows = np.concatenate([indices, np.full(nf, nf), np.arange(nf)])
        cols = np.concatenate([np.repeat(np.arange(nf), np.diff(indptr)), np.arange(nf), np.full(nf, nf)])
        source = np.arange(1, ns + 2 * nf + 1, dtype=np.int32)
        marker = csc_matrix((source, (rows, cols)), shape=(nf + 1, nf + 1))
        if self.border_order is not None:
            marker = marker[self.border_order][:, self.border_order]
            marker.sort_indices()
        return marker.data - 1, marker.indices, marker.indptr

    def full(self, x):
        u = np.zeros(self.nv)
        u[self.free] = x
        return u

    def _corner_values(self, x):
        return np.append(x, 0.0)[self.corners.T]

    def _gradients(self, x):
        """Element gradients (gx, gy) and the rows d = gx b + gy c = B^T g."""
        u = self._corner_values(x)
        bu, cu = self.b * u, self.c * u
        gx, gy = bu[0] + bu[1] + bu[2], cu[0] + cu[1] + cu[2]
        return gx, gy, gx * self.b + gy * self.c

    def _scatter(self, per_corner):
        """Per-corner values summed into the free nodes, element by element."""
        weights = _element_major_rows(per_corner)
        return np.bincount(self.corners.ravel(), weights, minlength=len(self.free) + 1)[:-1]

    @_keep_last
    def numerator(self, x):
        """(num, g_num, element gradients): the Hessian reuses the last."""
        p = self.p
        gx, gy, d = grads = self._gradients(x)
        g2 = gx * gx + gy * gy + 1e-300
        coef = self.nu * p * g2 ** (p / 2.0 - 1.0)
        return float(np.sum(self.nu * g2 ** (p / 2.0))), self._scatter(coef * d), grads

    def _midpoints(self, x):
        u = self._corner_values(x)
        return 0.5 * (u + u[_NEXT])

    def _slots(self, he):
        """Element matrices he[i, j, element] summed into the slots of the free pattern."""
        return np.bincount(self.slot, _element_major(he), minlength=len(self.pattern[0]) + 1)[:-1]

    def _assemble(self, he):
        """Free-node CSC matrix of the element matrices he on the fixed pattern."""
        indices, indptr = self.pattern
        return csc_matrix((self._slots(he), indices, indptr), shape=(len(self.free),) * 2)

    @_keep_last
    def denominator(self, x):
        p = self.p
        uq = self._midpoints(x)
        a = np.abs(uq)
        dd = 0.5 * p * self.mass_w * a ** (p - 1.0) * np.sign(uq)
        # summed pairwise in (element, midpoint) order
        den = float(np.sum(_element_major_rows(self.mass_w * a ** p)))
        return den, self._scatter(dd + dd[_PREV])

    def _hessian_elements(self, x):
        """Element matrices of the Hessian of num/p: on element T, B^T nu_T
        (s^{p/2-1} I + (p-2) s^{p/2-2} g g^T) B with B = [b; c] and s = |g|^2
        + HESSIAN_EPS max |g|^2, which keeps it definite and finite where g
        vanishes."""
        p = self.p
        gx, gy, d = self.numerator(x)[2]
        s = gx * gx + gy * gy
        s += HESSIAN_EPS * s.max()
        he = self.nu * s ** (p / 2.0 - 1.0) * self.bb
        he += ((p - 2.0) * self.nu * s ** (p / 2.0 - 2.0) * d)[:, None] * d[None]
        return he

    def _denominator_hessian_elements(self, x):
        """Element matrices of the Hessian of den: the same midpoint quadrature
        of p (p-1) |u|^{p-2} lambda^2 phi_i phi_j; midpoints where u = 0 weigh
        nothing."""
        p = self.p
        a = np.abs(self._midpoints(x))
        power = np.power(a, p - 2.0, out=np.zeros_like(a), where=a > 0.0)
        return _midpoint_matrices(p * (p - 1.0) * self.mass_w * power)

    def hessian(self, x):
        return self._assemble(self._hessian_elements(x))

    def denominator_hessian(self, x):
        return self._assemble(self._denominator_hessian_elements(x))

    def bordered_jacobian(self, x, tau):
        """[p H_num - tau H_den, -g_den; g_den^T, 0] at x, filled straight into
        the CSC pattern of that matrix in border_order.  p H_num and tau H_den
        are combined slot by slot, as the sum of the two assembled matrices
        would be."""
        n = len(self.free) + 1
        g_den = self.denominator(x)[1]
        leading = (self.p * self._slots(self._hessian_elements(x))
                   - tau * self._slots(self._denominator_hessian_elements(x)))
        if self._border is None:
            self._border = self._border_layout()
        source, indices, indptr = self._border
        data = np.concatenate([leading, g_den, -g_den])[source]
        return csc_matrix((data, indices, indptr), shape=(n, n))


def damped_newton(energy_grad, newton_step, u):
    """Minimize a convex energy by Newton steps with energy backtracking.

    energy_grad(u) gives (energy, gradient), newton_step(u, g) solves the
    Hessian at u against g.  Stops when the Newton decrement g . step falls
    below roundoff (1e-15 max(|energy|, 1)), after NEWTON_MAX_ITER steps, or
    stalls when 30 halvings of a step do not lower the energy; returns
    (u, solves, stalled)."""
    e, g = energy_grad(u)
    stalled = False
    for solves in range(1, NEWTON_MAX_ITER + 1):
        step = newton_step(u, g)
        if float(g @ step) <= 1e-15 * max(abs(e), 1.0):
            break
        t = 1.0
        for _ in range(30):
            v = u - t * step
            e_new, g_new = energy_grad(v)
            if e_new <= e:
                break
            t *= 0.5
        else:
            stalled = True
            break
        u, e, g = v, e_new, g_new
    return u, solves, stalled


def eigen_p_general(mesh, p):
    """Upper-bound approximation of tau_1 for general p in (1, inf).

    Nonlinear inverse power iteration (Hein & Buehler 2010) on the P1
    Rayleigh quotient, at most POWER_MAX_ITER outer steps from |u| of the
    p = 2 eigenvector u.  That start is positive, so the iterates stay
    nonnegative and aim at the first eigenfunction, in the continuous
    problem the only one of one sign.  Every outer step first tries a Newton
    step on the bordered system (g_num(u) - tau g_den(u), den(u) - 1) (Yao &
    Zhou 2007), full and then halved, which converges quadratically near the
    eigenpair; a trial is taken only if it keeps the iterate positive, lowers
    the eigen-residual ||g_num - tau g_den|| / ||g_den|| and does not raise
    the quotient, otherwise a power step is.  A run whose inner minimization
    stalls, or that hits the step limit, is not settled and raises
    NumericError, as does one whose arithmetic leaves the double range (p
    near 1, or p so large that |u|^p underflows).  Not certified globally
    optimal: the quotient of an admissible function, an upper bound whose
    quality the radial cross-checks establish.
    """
    check_exponent(p)
    rq = _RayleighP(mesh, p)
    start = np.abs(eigen_p2(mesh).u[rq.free])
    # Python floats raise where the quotient leaves the double range, and so
    # do numpy arrays here, instead of warning and going on with inf or nan
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            value, u, outer, newton, settled, res = _inverse_power(rq, start)
    except ArithmeticError as exc:
        raise NumericError(f"inverse power iteration failed at p = {p}: {exc!r}") from exc
    if not settled:
        raise NumericError("inverse power iteration stalled or hit the iteration limit without settling")
    u = rq.full(u)
    residuals = {"eig_residual": res}
    meta = {"n_vertices": rq.nv, "h_mesh": mesh.h_mesh, "p": p,
            "iterations": outer, "newton_steps": newton, "upper_bound_only": True}
    return EigResult(tau1=float(value), residuals=residuals, meta=meta, u=u)


def _normalized(rq, v):
    """(u = v / den(v)^{1/p}, R(v), ||g_num - R g_den|| / ||g_den|| at u).

    The residual is scale-invariant only in exact arithmetic: near p = 1
    round-off gradients enter it through |g|^{p-1}, and at p = 1.2 that of
    v and that of u differed in the fifth digit."""
    num, den = rq.numerator(v)[0], rq.denominator(v)[0]
    u, value = v / den ** (1.0 / rq.p), num / den
    g_num, g_den = rq.numerator(u)[1], rq.denominator(u)[1]
    return u, value, float(np.linalg.norm(g_num - value * g_den) / np.linalg.norm(g_den))


def _inverse_power(rq, u):
    """Outer steps from u until the quotient settles; returns (quotient,
    u with den(u) = 1, outer steps, Newton solves, settled, eigen-residual).

    Each step takes _bordered_step's iterate if it accepts one, and a power
    step otherwise.  A power step whose inner minimization stalls ends the
    run unsettled."""
    u, value, res = _normalized(rq, u)
    newton = 0
    for outer in range(1, POWER_MAX_ITER + 1):
        step = _bordered_step(rq, u, value)
        newton += 1
        if step is None:
            *step, solves, stalled = _power_step(rq, u, value)
            newton += solves
            if stalled:
                return value, u, outer, newton, False, res
            if step[1] > value * (1.0 + MONOTONE_RTOL):
                raise NumericError(f"Rayleigh quotient rose from {value!r} to {step[1]!r} in a power step")
        settled = value - step[1] <= POWER_DECREASE * value
        u, value, res = step
        if settled:
            break
    return value, u, outer, newton, settled, res


def _bordered_step(rq, u, value):
    """From u with den(u) = 1 and quotient value, one Newton step on
    (g_num(u) - tau g_den(u), den(u) - 1) in (u, tau), solved with the
    bordered Jacobian [H_num - tau H_den, -g_den; g_den^T, 0] (its leading
    block is singular at an eigenpair: u spans its kernel).  Returns
    _normalized(v) for the first v = u + t du, t = 1 then 1/2, that is
    positive (hence den(v) > 0), whose quotient does not rise beyond
    MONOTONE_RTOL and whose eigen-residual is below u's; None if neither is.
    More halvings would accept tiny steps that raise the residual at p = 1.2.

    The first bordered system of rq is factored under SPLU_OPTIONS, whose
    minimum degree puts the dense border last; every later one reuses that
    column order, since ordering a matrix with a dense row costs more than
    factoring it.  rq.bordered_jacobian fills each system straight into the
    CSC pattern of the matrix in that order (the identity before the first
    factor), from the element gradients and g_den that _normalized formed
    at u."""
    g_num, g_den = rq.numerator(u)[1], rq.denominator(u)[1]
    res = float(np.linalg.norm(g_num - value * g_den) / np.linalg.norm(g_den))
    rhs = np.append(value * g_den - g_num, 0.0)
    order = rq.border_order
    if order is None:
        lu = _factor(rq.bordered_jacobian(u, value))
        rq.order_border(lu.perm_c)
        du = lu.solve(rhs)
    else:
        du = np.empty_like(rhs)
        du[order] = _factor(rq.bordered_jacobian(u, value), "NATURAL").solve(rhs[order])
    for t in (1.0, 0.5):
        v = u + t * du[:-1]
        if np.all(v > 0.0):
            step = _normalized(rq, v)
            if step[1] <= value * (1.0 + MONOTONE_RTOL) and step[2] < res:
                return step
    return None


def _power_step(rq, u, value):
    """From u with den(u) = 1 and quotient value, damped Newton lowers the
    convex F(v) = num(v)/p - <g_den(u)/p, v> from u value^{-1/(p-1)} (its
    minimizer if u is an eigenvector); F(v) <= F(start) implies R(v) <=
    value.  Returns _normalized(v) followed by (Newton solves, stalled)."""
    p = rq.p
    s = rq.denominator(u)[1] / p

    def energy_grad(v):
        n, g, _ = rq.numerator(v)
        return n / p - float(s @ v), g / p - s

    def newton_step(v, g):
        return _factor(rq.hessian(v)).solve(g)

    v, solves, stalled = damped_newton(energy_grad, newton_step, u * value ** (-1.0 / (p - 1.0)))
    return _normalized(rq, v) + (solves, stalled)
