import math

import numpy as np
import pytest
import scipy.sparse.linalg

from horokit import fem2d
from horokit.bodies import Body2D, make_ball
from horokit.fem2d import (
    AnnularDomain2D,
    build_mesh,
    eigen_p2,
    eigen_p_general,
    hyperbolic_area,
)
from horokit.shell import ShellSpec, shell_eigen
from horokit.errors import DomainValidationError, NumericError

ANNULUS = AnnularDomain2D(inner=make_ball(2, 0.5), outer=make_ball(2, 1.5))


def test_build_mesh_structure():
    mesh = build_mesh(ANNULUS, 0.05)
    assert mesh.triangles.shape[1] == 3
    assert len(mesh.inner_nodes) == mesh.n_theta
    assert len(mesh.outer_nodes) == mesh.n_theta
    tags = {tag for _, _, tag in mesh.boundary_edges}
    assert tags == {"D", "N"}
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
    area = hyperbolic_area(mesh)
    exact = 2 * math.pi * (math.cosh(1.5) - math.cosh(0.5))
    assert area == pytest.approx(exact, rel=1e-4)


def test_eigen_p2_factor_is_sparser_than_colamd(monkeypatch):
    factored = []

    def spy(A, **options):
        lu = scipy.sparse.linalg.splu(A, **options)
        factored.append((A, lu))
        return lu

    monkeypatch.setattr(fem2d, "splu", spy)
    eigen_p2(build_mesh(ANNULUS, 0.05))
    (A, lu), = factored
    assert lu.nnz < scipy.sparse.linalg.splu(A).nnz


def test_eigen_p2_is_deterministic():
    # ARPACK starts from a random vector unless it is given one
    mesh = build_mesh(ANNULUS, 0.04)
    first, second = eigen_p2(mesh), eigen_p2(mesh)
    assert first.tau1 == second.tau1
    assert np.array_equal(first.u, second.u)


def _start_label(monkeypatch, lower):
    """eigen_p_general's start label when the constant start ends at
    lower(q), q being where the p = 2 eigenvector start ended."""
    inverse_power = fem2d._inverse_power
    ends = []

    def lowered(rq, u0, *args):
        value, *rest = inverse_power(rq, u0, *args)
        if np.ptp(u0[u0 != 0.0]) == 0.0:
            value = lower(ends[0])
        ends.append(value)
        return (value, *rest)

    monkeypatch.setattr(fem2d, "_inverse_power", lowered)
    return eigen_p_general(build_mesh(ANNULUS, 0.04), 1.7).meta["start"]


def test_eigen_p_general_start_label_ignores_round_off(monkeypatch):
    assert _start_label(monkeypatch, lambda v: np.nextafter(v, 0.0)) == "p2_eigenvector"


def test_eigen_p_general_keeps_a_clearly_lower_start(monkeypatch):
    assert _start_label(monkeypatch, lambda v: v * (1.0 - 1e-6)) == "constant"


# tau at h = 0.04 from the Armijo-descent solver this one replaced
DESCENT_TAU_H004 = {1.5: 0.992003224741169, 3.0: 1.986552913160455}


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_eigen_p_general_matches_descent_values(p):
    res = eigen_p_general(build_mesh(ANNULUS, 0.04), p)
    assert res.tau1 == pytest.approx(DESCENT_TAU_H004[p], rel=1e-9)
    assert res.meta["iterations"] <= 30
    assert res.meta["newton_steps"] >= res.meta["iterations"]


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_eigen_p_general_eigen_residual(p):
    # ||g_num - tau g_den|| / ||g_den|| of the discrete p-Laplace equation;
    # the p = 2 eigenvector the solver starts from gives 1.5 (p = 1.5) and
    # 2.9 (p = 3) here
    res = eigen_p_general(build_mesh(ANNULUS, 0.04), p)
    assert res.residuals["eig_residual"] <= 1e-6


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_eigen_p_general_quotient_never_rises(monkeypatch, p):
    step = fem2d._power_step
    quotients = []

    def recorded(rq, u, value):
        out = step(rq, u, value)
        quotients.append((value, out[1]))
        return out

    monkeypatch.setattr(fem2d, "_power_step", recorded)
    eigen_p_general(build_mesh(ANNULUS, 0.04), p)
    assert len(quotients) >= 4
    assert all(new <= old * (1.0 + 1e-13) for old, new in quotients)


def test_eigen_p_general_rejects_a_rising_quotient(monkeypatch):
    step = fem2d._power_step

    def rising(rq, u, value):
        v, _, solves = step(rq, u, value)
        return v, value * (1.0 + 1e-9), solves

    monkeypatch.setattr(fem2d, "_power_step", rising)
    with pytest.raises(NumericError, match="rose"):
        eigen_p_general(build_mesh(ANNULUS, 0.05), 1.5)


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
