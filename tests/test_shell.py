import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import horokit.shell as shell_module
from horokit.shell import (
    ShellSpec,
    _integrate,
    _outer_flux,
    rayleigh_quotient_radial,
    shell_eigen,
)
from horokit.errors import DomainValidationError, NumericError

from oracles import fd_shell_eigen_p2, per_point_continuous_extension


def test_shell_spec_validation():
    with pytest.raises(DomainValidationError):
        ShellSpec(n=2, p=1.0, r=0.5, R=1.5)
    with pytest.raises(DomainValidationError):
        ShellSpec(n=2, p=2.0, r=1.5, R=0.5)
    with pytest.raises(DomainValidationError):
        ShellSpec(n=1, p=2.0, r=0.5, R=1.5)
    for p, r, R in ((np.inf, 0.5, 1.5), (2.0, np.nan, 1.5), (2.0, 0.5, np.inf),
                    (2.0, 0.5, np.nan)):
        with pytest.raises(DomainValidationError):
            ShellSpec(n=2, p=p, r=r, R=R)


def test_shell_eigen_rejects_unusable_tolerance():
    spec = ShellSpec(n=2, p=2.0, r=0.5, R=1.5)
    for tol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(DomainValidationError):
            shell_eigen(spec, tol=tol)
    with pytest.raises(DomainValidationError):  # tol * tau_flat underflows to 0
        shell_eigen(ShellSpec(n=2, p=2.0, r=0.5, R=10.0), tol=5e-324)


def test_benchmark_eigenvalue_against_fd_pencil(shell_benchmark):
    spec, res = shell_benchmark
    fd = fd_shell_eigen_p2(2, 0.5, 1.5)
    assert res.tau1 == pytest.approx(fd, rel=1e-6)


def test_profile_structure(shell_benchmark):
    _, res = shell_benchmark
    assert res.v[0] == 0.0
    assert res.residuals["bc_outer"] <= 1e-10
    assert np.all(res.v[1:] > 0.0)
    assert np.all(np.diff(res.v) >= -1e-12)


def test_profile_structure_p_not_2():
    spec = ShellSpec(n=3, p=1.5, r=0.3, R=1.3)
    res = shell_eigen(spec)
    assert res.tau1 > 0.0
    assert res.v[0] == 0.0
    assert np.all(np.diff(res.v) >= -1e-12)
    assert res.residuals["bc_outer"] <= 1e-10
    assert rayleigh_quotient_radial(spec, res) == pytest.approx(res.tau1, rel=1e-10)


def test_rayleigh_consistency(shell_benchmark):
    spec, res = shell_benchmark
    assert rayleigh_quotient_radial(spec, res) == pytest.approx(res.tau1, rel=1e-10)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
def test_rayleigh_quotient_radial_is_tight(n, p):
    # Gauss rules on the shot's own steps: at most 1.5e-11 off tau_1 here
    spec = ShellSpec(n=n, p=p, r=0.5, R=1.5)
    res = shell_eigen(spec)
    assert rayleigh_quotient_radial(spec, res) == pytest.approx(res.tau1, rel=1e-10)


@pytest.mark.parametrize("shell", [(2, 2.0), (3, 1.5), (2, 3.0), (3, 5.0)])
@pytest.mark.parametrize("points", [512, 8192])
def test_continuous_extension_matches_per_point_form(shell, points):
    # the stages are contracted once per step and gathered per point: bit
    # for bit the contraction at every point
    spec = ShellSpec(*shell, r=0.5, R=1.5)
    steps = shell_eigen(spec).steps
    t = np.linspace(spec.r, spec.R, points)
    assert np.array_equal(shell_module._continuous_extension(steps, t),
                          per_point_continuous_extension(steps, t))


def test_shell_import_loads_no_scipy_interpolate():
    env = dict(os.environ, PYTHONPATH=str(Path(shell_module.__file__).parents[1]))
    code = "import sys, horokit.shell; print('scipy.interpolate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "False"


def test_outer_radius_sweep_decreases_tau():
    # recorded as regression data: growing the Neumann side lowers tau_1
    taus = [shell_eigen(ShellSpec(n=2, p=2.0, r=0.5, R=R)).tau1
            for R in (1.0, 1.5, 2.0)]
    assert taus[0] > taus[1] > taus[2]


def test_eigenvalue_invariant_under_slope_rescaling(shell_benchmark):
    spec, res = shell_benchmark
    res2 = shell_eigen(spec, initial_slope=2.0)
    assert res2.tau1 == pytest.approx(res.tau1, rel=1e-10)
    # the profile just rescales
    assert np.allclose(res2.v, 2.0 * res.v, rtol=1e-6, atol=1e-9)


def test_profile_against_tight_reintegration(shell_benchmark):
    spec, res = shell_benchmark
    # the stored ode_max residual bounds the profile error between solver
    # tolerances; it must be tiny relative to the profile scale
    assert res.residuals["ode_max"] <= 1e-6 * np.max(res.v)


def test_interior_zero_rejection_finds_first_branch():
    # p = 1.5 exposed a spurious higher branch without crossing detection;
    # the eigenvalue must sit below the flat-interval estimate here
    spec = ShellSpec(n=2, p=1.5, r=0.5, R=1.5)
    res = shell_eigen(spec)
    assert res.tau1 < (np.pi / 2.0) ** 2
    assert np.all(res.v[1:] > 0.0)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 5.0])
def test_outer_flux_changes_sign_once_at_tau1(n, p):
    # the root search rests on this: + below tau_1, - everywhere above it
    spec = ShellSpec(n=n, p=p, r=0.5, R=1.5)
    tau1 = shell_eigen(spec).tau1
    tau_flat = (np.pi / 2.0) ** 2
    assert _outer_flux(_integrate(spec, 0.999 * tau1)) > 0.0
    # up to 16 tau_flat so that the sweep also crosses the second branch,
    # where W(R) of a shot that ignored the interior zero is positive again
    assert 4.0 * tau_flat > 1.001 * tau1
    taus = np.geomspace(1.001 * tau1, 16.0 * tau_flat, 16)
    above = [_outer_flux(_integrate(spec, tau)) for tau in taus]
    assert all(flux < 0.0 for flux in above), above


# tau_1 from the bisect-then-brentq search this solver replaced: the four
# criterion-10 shells and the general_p shell shapes (hole, concentric, 6 shapes)
PINNED_TAU = {
    (2, 2.0, 0.5, 1.5): 1.3576021911837446,
    (2, 1.5, 0.5, 1.5): 0.989101676928431,
    (3, 1.5, 0.3, 1.3): 0.31136335750866523,
    (3, 2.0, 0.8, 1.6): 1.6027014050819968,
    (2, 1.5, 0.78, 1.83): 0.9884060432750316,
    (2, 3.0, 0.8, 1.8): 2.1374983595927572,
    (2, 3.0, 0.5, 1.5): 1.9808766025454103,
    (3, 1.5, 0.5, 1.5): 0.45506053193284224,
    (3, 2.0, 0.5, 1.5): 0.6789581879057883,
    (3, 3.0, 0.5, 1.5): 1.0453318462754335,
    # near the Cheeger limit 0.42546: trial slopes overflow and are rejected
    (2, 1.0001, 0.5, 1.5): 0.4258916244482048,
    # bc_outer = |v'(R)| reads 0.4 here; flux_outer still gauges the root
    (2, 40.0, 0.5, 1.5): 21.885938530439734,
}


def _counting_dopri45(monkeypatch):
    calls = []
    real = shell_module._dopri45

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(shell_module, "_dopri45", counting)
    return calls


@pytest.mark.parametrize("shell", sorted(PINNED_TAU))
def test_tau_pinned_with_few_integrations(shell, monkeypatch):
    calls = _counting_dopri45(monkeypatch)
    res = shell_eigen(ShellSpec(*shell))
    assert res.tau1 == pytest.approx(PINNED_TAU[shell], rel=1e-12, abs=0.0)
    # one shot per tau, and the profile reuses the search shot at tau_1:
    # the bisecting search took 33-34
    assert res.meta["integrations"] == len(calls) <= 12
    assert res.residuals["flux_outer"] <= 1e-12


@pytest.mark.parametrize("shell", sorted(PINNED_TAU))
def test_profile_comes_from_the_search_shot_at_tau1(shell):
    # brentq returns a tau it shot: the result keeps that shot's steps, and
    # the profile is their extension, bit for bit what a fresh shot gives
    spec = ShellSpec(*shell)
    res = shell_eigen(spec)
    steps = _integrate(spec, res.tau1)[2]
    assert np.array_equal(res.steps, steps)
    v, W = shell_module._continuous_extension(steps, res.t)
    dv = np.sign(W) * (np.abs(W) / np.sinh(res.t) ** (spec.n - 1)) ** (1.0 / (spec.p - 1.0))
    assert np.array_equal(res.v, v) and np.array_equal(res.dv, dv)


def test_root_tolerance_is_relative(monkeypatch):
    # tau_1 is about 1.3e-13 here; a tolerance in units of the flat estimate
    # (pi/59)^2 let brentq stop about 2 % away from it
    xtols = []
    real = shell_module.brentq

    def spy(f, a, b, **kwargs):
        xtols.append(kwargs["xtol"])
        return real(f, a, b, **kwargs)

    monkeypatch.setattr(shell_module, "brentq", spy)
    tol = 1e-12
    res = shell_eigen(ShellSpec(n=2, p=2.0, r=0.5, R=30.0), tol=tol)
    (xtol,) = xtols
    assert 0.0 < xtol <= tol * res.tau1


def _solve_ivp_shot(spec, tau, t, scale=1.0):
    """The shot as solve_ivp(RK45) takes it, with the right-hand side times scale.

    Returns the crossing flag, W where the shot stopped, (v, W) at the points
    t, the mask of the points the shot reached and the number of steps.
    """
    r, R = spec.r, spec.R
    rhs = shell_module._radial_rhs(spec, tau)
    guard = r + 1e-9 * (R - r)

    def crossing(t, y):
        return y[0] if t > guard else 1.0

    crossing.terminal = True
    crossing.direction = -1.0
    # near p = 1 the overflowing trial slopes make numpy warn inside rk.py
    with np.errstate(invalid="ignore", over="ignore"):
        sol = solve_ivp(lambda t, y: np.multiply(rhs(t, *y.tolist()), scale), (r, R),
                        [0.0, math.sinh(r) ** (spec.n - 1)], rtol=1e-11, atol=1e-13,
                        events=crossing, dense_output=True, max_step=(R - r) / 40.0)
        assert sol.success
        return (len(sol.t_events[0]) > 0, sol.y[1][-1], sol.sol(t), t <= sol.t[-1],
                len(sol.t) - 1)


def _shot_gap(W, profile, ref):
    """Largest gap of (W(R), v, W) from a reference shot, relative to its scale."""
    crossed, ref_W, ref_profile, inside, _ = ref
    # relative to the profile's scale: at tau_1, W(R) itself is roundoff
    scale = np.max(np.abs(ref_profile[:, inside]), axis=1)
    gaps = np.max(np.abs(profile[:, inside] - ref_profile[:, inside]), axis=1) / scale
    return max(*gaps, 0.0 if crossed else abs(W - ref_W) / scale[1])


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("p", [1.0001, 1.5, 2.0, 3.0, 10.0, 40.0])
def test_dopri45_matches_solve_ivp_rk45(n, p, monkeypatch):
    # the scalar stepper takes the same RK45 steps solve_ivp does, up to the
    # rounding of its stage sums
    step_counts = []
    real = shell_module._dopri45

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        step_counts.append(len(out[2]))
        return out

    spec = ShellSpec(n=n, p=p, r=0.5, R=1.5)
    tau1 = shell_eigen(spec).tau1
    t = np.linspace(spec.r, spec.R, shell_module.DENSE_POINTS)
    monkeypatch.setattr(shell_module, "_dopri45", recording)
    # 30 tau_1 is past the second branch for p <= 3 at n <= 3: v crosses zero
    for tau in (0.5 * tau1, 0.9 * tau1, tau1, 1.1 * tau1, 3.0 * tau1, 30.0 * tau1):
        W, crossed, steps = _integrate(spec, tau)
        profile = shell_module._continuous_extension(steps, t)
        ref = _solve_ivp_shot(spec, tau, t)
        assert crossed == ref[0], tau
        # roundoff in the error estimates shifts the step sizes a little:
        # 3 of these 108 shots take one or two steps more or less
        assert abs(step_counts[-1] - ref[4]) <= 2, tau
        gap = _shot_gap(W, profile, ref)
        if gap > 1e-9:
            # RK45's error estimates can be roundoff: at n = 5, p = 40,
            # 1.1 tau_1 one ulp in the right-hand side moves solve_ivp's own
            # W(R) by 2.6e-9, so there the bound is twice that spread
            spread = max(_shot_gap(ref[1], ref[2], _solve_ivp_shot(spec, tau, t, s))
                         for s in (1.0 - 2.0 ** -52, 1.0 + 2.0 ** -52))
            assert gap <= 2.0 * spread, (tau, gap, spread)


def test_dopri45_rejects_non_finite_steps_like_solve_ivp():
    # past the barrier the slope overflows, so no error estimate is finite:
    # every trial step across it shrinks by MIN_FACTOR until one is below
    # min_step, after as many right-hand-side calls as solve_ivp makes
    for barrier in (0.501, 0.7, 1.2):
        calls = []

        def rhs(t, v, W):
            calls.append(t)
            return (math.inf, 0.0) if t > barrier else (1.0, -W)

        with pytest.raises(NumericError, match="step size"):
            shell_module._dopri45(rhs, 0.5, 1.5, (0.0, 1.0), 1e-11, 1e-13, 0.025, 0.5)
        ours = len(calls)
        with np.errstate(invalid="ignore"):
            sol = solve_ivp(lambda t, y: rhs(t, *y.tolist()), (0.5, 1.5), [0.0, 1.0],
                            rtol=1e-11, atol=1e-13, max_step=0.025)
        assert sol.status == -1 and "step size" in sol.message
        assert ours == sol.nfev
