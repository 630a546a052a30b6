import collections
import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from horokit import fem2d
from horokit.bodies import AnnularDomain2D, Body2D, make_ball
from horokit.fem2d import (
    assemble_p2,
    build_mesh,
    eigen_p2,
    eigen_p_general,
)
from horokit.shell import ShellSpec, shell_eigen
from horokit.errors import DomainValidationError, NumericError

ANNULUS = AnnularDomain2D(inner=make_ball(2, 0.5), outer=make_ball(2, 1.5))


def test_build_mesh_structure():
    mesh = build_mesh(ANNULUS, 0.05)
    assert mesh.triangles.shape[1] == 3
    assert len(mesh.inner_nodes) == mesh.n_theta
    assert len(mesh.outer_nodes) == mesh.n_theta
    assert mesh.edge_lengths().max() <= 0.05
    assert mesh.min_angle_deg() >= 20.0
    # all triangles positively oriented
    v = mesh.vertices
    t = mesh.triangles
    det = ((v[t[:, 1], 0] - v[t[:, 0], 0]) * (v[t[:, 2], 1] - v[t[:, 0], 1])
           - (v[t[:, 2], 0] - v[t[:, 0], 0]) * (v[t[:, 1], 1] - v[t[:, 0], 1]))
    assert np.all(det > 0.0)


def test_mesh_refinement_scaling():
    coarse = build_mesh(ANNULUS, 0.04)
    fine = build_mesh(ANNULUS, 0.02)
    ratio = fine.vertices.shape[0] / coarse.vertices.shape[0]
    assert 3.0 <= ratio <= 5.5


def test_degenerate_domain_rejected():
    with pytest.raises(DomainValidationError):
        AnnularDomain2D(inner=make_ball(2, 1.5), outer=make_ball(2, 1.5))
    with pytest.raises(DomainValidationError):
        AnnularDomain2D(inner=make_ball(2, 1.0), outer=make_ball(2, 1.2), offset=0.4)


def test_eigen_p2_matches_radial(shell_benchmark):
    _, radial = shell_benchmark
    res = eigen_p2(build_mesh(ANNULUS, 0.01))
    assert res.tau1 == pytest.approx(radial.tau1, rel=1e-3)
    assert res.residuals["eig_residual"] <= 1e-10


def test_eigen_p2_constant_sign():
    res = eigen_p2(build_mesh(ANNULUS, 0.03))
    interior = res.u[np.abs(res.u) > 1e-12]
    assert np.all(interior > 0.0) or np.all(interior < 0.0)


def test_eigen_p2_dirichlet_trace_zero():
    mesh = build_mesh(ANNULUS, 0.03)
    res = eigen_p2(mesh)
    assert np.max(np.abs(res.u[mesh.inner_nodes])) == 0.0


def test_isometry_invariance_under_rotation():
    # rotating the outer body's placement is a hyperbolic isometry of the
    # whole configuration; the intrinsic mesh construction must reproduce
    # tau to rounding
    dom0 = AnnularDomain2D(inner=make_ball(2, 0.8), outer=make_ball(2, 1.8),
                           offset=0.2, offset_angle=0.0)
    dom1 = AnnularDomain2D(inner=make_ball(2, 0.8), outer=make_ball(2, 1.8),
                           offset=0.2, offset_angle=1.234)
    tau0 = eigen_p2(build_mesh(dom0, 0.03)).tau1
    tau1 = eigen_p2(build_mesh(dom1, 0.03)).tau1
    assert tau1 == pytest.approx(tau0, rel=1e-6)


def test_mesh_convergence_factor(shell_benchmark):
    _, radial = shell_benchmark
    taus = [eigen_p2(build_mesh(ANNULUS, h)).tau1 for h in (0.04, 0.02, 0.01)]
    d1 = taus[0] - taus[1]
    d2 = taus[1] - taus[2]
    assert d1 / d2 >= 3.0
    assert abs(taus[2] - radial.tau1) < abs(taus[0] - radial.tau1)


def test_hyperbolic_area_from_mass_matrix():
    mesh = build_mesh(ANNULUS, 0.01)
    area = assemble_p2(mesh)[1].sum()
    exact = 2 * math.pi * (math.cosh(1.5) - math.cosh(0.5))
    assert area == pytest.approx(exact, rel=1e-4)


def _spy_splu(monkeypatch):
    factored = []

    def spy(A, **options):
        lu = scipy.sparse.linalg.splu(A, **options)
        factored.append((A, options, lu))
        return lu

    monkeypatch.setattr(fem2d, "splu", spy)
    return factored


def test_eigen_p2_factor_is_sparser_than_colamd(monkeypatch):
    factored = _spy_splu(monkeypatch)
    eigen_p2(build_mesh(ANNULUS, 0.05))
    (A, _, lu), = factored
    assert lu.nnz < scipy.sparse.linalg.splu(A).nnz


def test_eigen_p2_is_deterministic():
    # ARPACK starts from a random vector unless it is given one
    mesh = build_mesh(ANNULUS, 0.04)
    first, second = eigen_p2(mesh), eigen_p2(mesh)
    assert first.tau1 == second.tau1
    assert np.array_equal(first.u, second.u)


def test_eigen_p_general_runs_one_start(monkeypatch):
    # the inverse power method runs once, from the p = 2 eigenvector
    inverse_power = fem2d._inverse_power
    starts = []

    def spy(rq, u0):
        starts.append(u0)
        return inverse_power(rq, u0)

    monkeypatch.setattr(fem2d, "_inverse_power", spy)
    mesh = build_mesh(ANNULUS, 0.05)
    res = eigen_p_general(mesh, 1.7)
    (u0,) = starts
    free = np.setdiff1d(np.arange(mesh.vertices.shape[0]), mesh.inner_nodes)
    assert np.array_equal(u0, np.abs(eigen_p2(mesh).u[free]))
    assert "start" not in res.meta


# tau at h = 0.04 from the Armijo-descent solver this one replaced
DESCENT_TAU_H004 = {1.5: 0.992003224741169, 3.0: 1.986552913160455}
# tau and eigen-residual at p = 1.2, h = 0.04 from power steps alone
POWER_TAU_P12_H004, POWER_RESIDUAL_P12_H004 = 0.7111100872466675, 1.9246338344300553e-05


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_eigen_p_general_matches_descent_values(p):
    res = eigen_p_general(build_mesh(ANNULUS, 0.04), p)
    assert res.tau1 == pytest.approx(DESCENT_TAU_H004[p], rel=1e-9)
    # power steps alone took 6 (p = 1.5) and 7 (p = 3) outer steps here, and
    # 33 on the concentric 0.8 / 1.8 annulus at p = 3, h = 0.03
    assert res.meta["iterations"] <= 10
    assert res.meta["newton_steps"] >= res.meta["iterations"]


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_eigen_p_general_eigen_residual(p):
    # ||g_num - tau g_den|| / ||g_den|| of the discrete p-Laplace equation;
    # the p = 2 eigenvector the solver starts from gives 1.5 (p = 1.5) and
    # 2.9 (p = 3) here, power steps alone settle at 5.8e-9 and 2.7e-8, and
    # the bordered finish reaches 7e-13 and 6e-14
    res = eigen_p_general(build_mesh(ANNULUS, 0.04), p)
    assert res.residuals["eig_residual"] <= 1e-10


def test_eigen_p_general_bordered_steps_keep_p12():
    # at p = 1.2 the |g|^{p-2} weights make bordered steps lower the quotient
    # while raising the residual; they must not be kept
    res = eigen_p_general(build_mesh(ANNULUS, 0.04), 1.2)
    assert res.tau1 == pytest.approx(POWER_TAU_P12_H004, rel=1e-9)
    assert res.residuals["eig_residual"] <= POWER_RESIDUAL_P12_H004


@pytest.mark.parametrize("p", [1.5, 3.0, 5.0])
def test_eigen_p_general_quotient_never_rises(monkeypatch, p):
    # per start: (step kind, quotient in, quotient out) of every step tried,
    # then the quotient the start ends on; every accepted outer step, power
    # or bordered, begins at the quotient the previous one ended on
    runs = []
    inverse_power = fem2d._inverse_power

    def run(rq, u):
        runs.append([])
        out = inverse_power(rq, u)
        runs[-1].append(("end", out[0], None))
        return out

    def recorded(kind, step):
        def wrapped(rq, u, value):
            out = step(rq, u, value)
            runs[-1].append((kind, value, None if out is None else out[1]))
            return out
        return wrapped

    monkeypatch.setattr(fem2d, "_inverse_power", run)
    monkeypatch.setattr(fem2d, "_power_step", recorded("power", fem2d._power_step))
    monkeypatch.setattr(fem2d, "_bordered_step", recorded("bordered", fem2d._bordered_step))
    eigen_p_general(build_mesh(ANNULUS, 0.04), p)
    accepted = {"power": 0, "bordered": 0}
    for rows in runs:
        quotients = [q_in for _, q_in, _ in rows]
        assert all(new <= old * (1.0 + 1e-13) for old, new in zip(quotients, quotients[1:]))
        for (kind, _, q_out), (_, q_next, _) in zip(rows, rows[1:]):
            accepted[kind] += q_out == q_next
    # from the p = 2 start, p = 1.5 and 3 settle on bordered steps alone; at
    # p = 5 both first trials are refused and a power step runs
    assert accepted["bordered"] >= 2
    if p == 5.0:
        assert accepted["power"] >= 1


def test_eigen_p_general_rejects_a_rising_quotient(monkeypatch):
    step = fem2d._power_step

    def rising(rq, u, value):
        v, _, *rest = step(rq, u, value)
        return (v, value * (1.0 + 1e-9), *rest)

    monkeypatch.setattr(fem2d, "_power_step", rising)
    with pytest.raises(NumericError, match="rose"):
        eigen_p_general(build_mesh(ANNULUS, 0.05), 5.0)


@pytest.mark.parametrize("p,most", [(1.5, 9), (3.0, 8)])
def test_eigen_p_general_factorization_count(monkeypatch, p, most):
    # power steps alone, then the bordered finish below an eigen-residual of
    # 1e-2, took 31 (p = 1.5) and 17 (p = 3) factorizations here
    factored = _spy_splu(monkeypatch)
    eigen_p_general(build_mesh(ANNULUS, 0.04), p)
    assert len(factored) <= most


def test_bordered_factors_reuse_one_order(monkeypatch):
    # every bordered system after the first is factored on the first one's
    # minimum-degree column order; the factor must be no fuller than a fresh
    # minimum-degree factor of the same system, and solve it alike
    factored = _spy_splu(monkeypatch)
    mesh = build_mesh(ANNULUS, 0.04)
    eigen_p_general(mesh, 1.5)
    n = len(np.setdiff1d(np.arange(mesh.vertices.shape[0]), mesh.inner_nodes)) + 1
    bordered = [(A, options, lu) for A, options, lu in factored if A.shape == (n, n)]
    assert [options["permc_spec"] for _, options, _ in bordered] == (
        ["MMD_AT_PLUS_A"] + ["NATURAL"] * (len(bordered) - 1))
    assert len(bordered) >= 3
    rhs = np.random.default_rng(0).standard_normal(n)
    for A, _, lu in bordered[1:]:
        fresh = scipy.sparse.linalg.splu(A, **fem2d.SPLU_OPTIONS)
        assert lu.nnz <= fresh.nnz
        x = fresh.solve(rhs)
        assert np.linalg.norm(lu.solve(rhs) - x) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("p", [1.5, 3.0, 5.0])
def test_bordered_systems_match_bmat_assembly(monkeypatch, p):
    # every factored bordered system is, bit for bit, the matrix bmat builds
    # from the assembled Hessians, laid out on the order then in use; splu
    # sorts its input's indices in place, so the reference is sorted too
    factored = _spy_splu(monkeypatch)
    steps = []
    bordered_step = fem2d._bordered_step

    def recorded(rq, u, value):
        order = rq.border_order
        steps.append((rq, u, value, np.arange(len(u) + 1) if order is None else order))
        return bordered_step(rq, u, value)

    monkeypatch.setattr(fem2d, "_bordered_step", recorded)
    eigen_p_general(build_mesh(ANNULUS, 0.04), p)
    n = len(steps[0][1]) + 1
    bordered = [A for A, _, _ in factored if A.shape == (n, n)]
    assert len(bordered) == len(steps) >= 2
    for A, (rq, u, value, order) in zip(bordered, steps):
        g = rq.denominator(u)[1]
        jac = p * rq.hessian(u) - value * rq.denominator_hessian(u)
        ref = scipy.sparse.bmat([[jac, -g[:, None]], [g[None, :], None]], format="csc")[order][:, order]
        ref.sort_indices()
        for field in ("indices", "indptr", "data"):
            assert np.array_equal(getattr(A, field), getattr(ref, field))


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_bordered_iterates_are_differentiated_once(monkeypatch, p):
    # the u that _normalized returns is the one the next bordered step
    # linearizes at; its element gradients serve both, and the Hessian
    formed = collections.Counter()
    gradients = fem2d._RayleighP._gradients

    def spy(rq, x):
        formed[x.tobytes()] += 1
        return gradients(rq, x)

    monkeypatch.setattr(fem2d._RayleighP, "_gradients", spy)
    res = eigen_p_general(build_mesh(ANNULUS, 0.04), p)
    assert len(formed) >= 2 * res.meta["iterations"]
    assert max(formed.values()) == 1


def test_constant_start_stall_is_not_settled():
    # at p >= 4 the first Newton step from the constant start exhausts its
    # halvings (quotient 36368 against 3.128 at p = 5); that start used to
    # count its zero decrease as settled
    mesh = build_mesh(ANNULUS, 0.04)
    rq = fem2d._RayleighP(mesh, 5.0)
    ref = eigen_p_general(mesh, 5.0)
    value, _, _, _, settled, _ = fem2d._inverse_power(rq, np.ones(len(rq.free)))
    assert value == pytest.approx(ref.tau1, rel=1e-9) or not settled


def test_damped_newton_reports_a_stall():
    # a gradient of the wrong sign points every step uphill: no halving
    # lowers the energy
    def energy_grad(sign):
        return lambda u: (float(u @ u), sign * 2.0 * u)

    u0 = np.array([1.0, -2.0])
    u, solves, stalled = fem2d.damped_newton(energy_grad(-1.0), lambda u, g: 0.5 * g, u0)
    assert stalled and solves == 1 and np.array_equal(u, u0)
    u, _, stalled = fem2d.damped_newton(energy_grad(1.0), lambda u, g: 0.5 * g, u0)
    assert not stalled and np.max(np.abs(u)) == 0.0


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_denominator_hessian_matches_gradient_differences(p):
    rq = fem2d._RayleighP(build_mesh(ANNULUS, 0.05), p)
    rng = np.random.default_rng(0)
    x = 1.0 + rng.random(len(rq.free))
    dx = 1e-6 * rng.standard_normal(len(rq.free))
    central = 0.5 * (rq.denominator(x + dx)[1] - rq.denominator(x - dx)[1])
    assert np.linalg.norm(rq.denominator_hessian(x) @ dx - central) <= 1e-6 * np.linalg.norm(central)


def test_eigen_p_general_agrees_at_p2():
    mesh = build_mesh(ANNULUS, 0.03)
    ref = eigen_p2(mesh)
    res = eigen_p_general(mesh, 2.0)
    assert res.tau1 == pytest.approx(ref.tau1, rel=1e-4)


def test_eigen_p_general_matches_radial_p15():
    spec = ShellSpec(n=2, p=1.5, r=0.5, R=1.5)
    radial = shell_eigen(spec)
    res = eigen_p_general(build_mesh(ANNULUS, 0.02), 1.5)
    assert res.tau1 == pytest.approx(radial.tau1, rel=1e-2)
    assert res.meta["upper_bound_only"]


def test_eigen_p_general_positive_profile():
    mesh = build_mesh(ANNULUS, 0.04)
    res = eigen_p_general(mesh, 1.7)
    interior = np.delete(res.u, mesh.inner_nodes)
    assert np.all(interior > 0.0)
    with pytest.raises(DomainValidationError):
        eigen_p_general(mesh, 1.0)


def test_noncircular_boundaries_mesh_cleanly():
    dom = AnnularDomain2D(inner=Body2D(a0=0.8, cos=[0.0, 0.1]),
                          outer=make_ball(2, 1.8))
    mesh = build_mesh(dom, 0.03)
    assert mesh.min_angle_deg() >= 20.0
    res = eigen_p2(mesh)
    assert res.tau1 > 0.0
