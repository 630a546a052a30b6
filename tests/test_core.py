import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import horokit.core
from horokit.core import (
    MAX_DIMENSION,
    ball_perimeter,
    ball_quermass,
    ball_volume,
    check_dimension,
    gauss_legendre_nodes,
    poincare_distance,
    quermass_inverse_radius,
    sphere_measure,
    sinh_power_integral,
)
from horokit.errors import DomainValidationError, NumericError

from oracles import gauss_legendre_reference, quad_ball_volume


def test_sphere_measures():
    assert sphere_measure(1) == 2.0 * math.pi
    assert sphere_measure(2) == 4.0 * math.pi
    assert sphere_measure(0) == 2.0
    for i in range(8):
        gamma_form = 2.0 * math.pi ** ((i + 1) / 2) / math.gamma((i + 1) / 2)
        assert sphere_measure(i) == pytest.approx(gamma_form, rel=1e-14)


def test_sphere_measure_is_not_recursive():
    # the recursive form ended in a RecursionError near i = 2000
    for i in (170, 171, 341):
        log_form = math.log(2.0) + (i + 1) / 2 * math.log(math.pi) - math.lgamma((i + 1) / 2)
        assert math.log(sphere_measure(i)) == pytest.approx(log_form, rel=1e-12)
    assert sphere_measure(10_000) == 0.0  # underflows to zero, no RecursionError


def test_check_dimension_bounds():
    assert check_dimension(2) == 2 and check_dimension(MAX_DIMENSION) == MAX_DIMENSION
    for n in (1, MAX_DIMENSION + 1, 5000):
        with pytest.raises(DomainValidationError, match="dimension"):
            check_dimension(n)


# from n = 31 on, the alternating binomial sum of sinh_power_integral used to
# cancel: 0.10 off at (31, 0.26), negative volumes at (41, 0.3) and (255, 1.0)
@pytest.mark.parametrize("n,r", [(2, 1.0), (2, 0.3), (3, 1.0), (4, 0.7), (5, 2.0),
                                 (31, 0.26), (33, 0.3), (41, 0.3), (61, 0.5), (101, 1.0),
                                 (255, 1.0)])
def test_ball_volume_matches_quadrature(n, r):
    # volumes in high dimensions lie far below approx's default absolute tolerance
    assert ball_volume(n, r) == pytest.approx(quad_ball_volume(n, r), rel=1e-12, abs=0.0)


def test_ball_volume_n3_matches_positive_series():
    # pi (sinh 2r - 2r) lost up to 7.5e-12 to cancellation, at r = 0.00508
    for r in [*np.geomspace(1e-4, 0.5, 200), 0.00508]:
        x = 2.0 * r
        series = math.pi * math.fsum(x ** (2 * k + 1) / math.factorial(2 * k + 1)
                                     for k in range(1, 30))
        assert ball_volume(3, r) == pytest.approx(series, rel=1e-14, abs=0.0), r


def test_ball_volume_reference_values():
    # closed forms cross-checked against quadrature in the test above
    assert ball_volume(2, 1.0) == pytest.approx(2 * math.pi * (math.cosh(1) - 1), rel=1e-12)
    assert ball_volume(2, 1.0) == pytest.approx(3.4122763, rel=1e-6)
    assert ball_volume(3, 1.0) == pytest.approx(math.pi * (math.sinh(2) - 2), rel=1e-12)
    assert ball_volume(3, 1.0) == pytest.approx(5.1109327, rel=1e-6)


def test_ball_volume_degenerate_limit():
    # volume vanishes like the Euclidean one as r -> 0+
    for r in (1e-3, 1e-5, 1e-7):
        v = ball_volume(2, r)
        assert 0.0 < v < 1.1 * math.pi * r ** 2
    with pytest.raises(DomainValidationError):
        ball_volume(2, 0.0)
    with pytest.raises(DomainValidationError):
        ball_volume(2, -1.0)


def test_subnormal_ball_measures_are_refused():
    # at n = 256 the radius 0.22 passes the quermass terminal check, but its
    # volume 3.93e-320 and perimeter 4.6e-317 are below the smallest normal
    with pytest.raises(NumericError, match="volume"):
        ball_volume(256, 0.22)
    with pytest.raises(NumericError, match="perimeter"):
        ball_perimeter(256, 0.22)
    with pytest.raises(NumericError, match="underflow"):
        ball_quermass(256, 0.22)
    assert ball_volume(256, 0.25) > np.finfo(float).tiny
    # at 0.2 and 0.21 some quermassintegrals cast to exactly 0.0, which was
    # refused as bad input ("are positive") instead of as an underflow
    for r in (0.2, 0.21):
        with pytest.raises(NumericError, match="underflow"):
            ball_quermass(256, r)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_long_double_overflow_is_numeric_error():
    # past the long-double range these warned "overflow encountered in
    # expm1" or "in scalar power" before their error, or raised the warning
    # itself under -W error
    for n, r in ((4, 1e4), (3, 6000.0)):
        with pytest.raises(NumericError, match="volume"):
            ball_volume(n, r)
    with pytest.raises(NumericError, match="overflow"):
        ball_quermass(3, 1e4)


def test_overflowing_ball_measures_are_refused():
    # ball_volume(5, 400) returned inf, ball_quermass(5, 400) reported a
    # terminal mismatch of inf, ball_perimeter(5, 400) raised a bare
    # OverflowError from sinh_pow, and n = 2, 3 from math.sinh
    for measure in (ball_volume, ball_quermass):
        with pytest.raises(NumericError, match="volume"):
            measure(5, 400.0)
    with pytest.raises(NumericError, match="overflows"):
        ball_perimeter(5, 400.0)
    for n in (2, 3):
        with pytest.raises(NumericError, match="volume"):
            ball_volume(n, 1500.0)
        with pytest.raises(NumericError, match="overflows"):
            ball_perimeter(n, 1500.0)
    assert math.isfinite(ball_volume(5, 100.0))


def test_ball_perimeter_values_and_derivative():
    assert ball_perimeter(2, 1.0) == pytest.approx(2 * math.pi * math.sinh(1), rel=1e-12)
    assert ball_perimeter(2, 1.0) == pytest.approx(7.3840069, rel=1e-6)
    assert ball_perimeter(3, 1.0) == pytest.approx(4 * math.pi * math.sinh(1) ** 2, rel=1e-12)
    assert ball_perimeter(3, 1.0) == pytest.approx(17.355387, rel=1e-6)
    with pytest.raises(DomainValidationError):
        ball_perimeter(3, -0.5)
    # d/dr volume = perimeter, centered finite differences
    step = 1e-5
    for n in (2, 3, 4, 5):
        for r in (0.3, 1.0, 2.5):
            fd = (ball_volume(n, r + step) - ball_volume(n, r - step)) / (2 * step)
            assert fd == pytest.approx(ball_perimeter(n, r), rel=1e-6)


def test_ball_isoperimetric_identity():
    # P^2 = 4 pi V + V^2 for planar balls
    for r in (0.2, 0.7, 1.0, 2.0):
        v = ball_volume(2, r)
        p = ball_perimeter(2, r)
        assert p * p == pytest.approx(4 * math.pi * v + v * v, rel=1e-12)


def test_ball_quermass_reference_n2():
    qv = ball_quermass(2, 1.0)
    assert qv[0] == pytest.approx(3.4122763, rel=1e-6)
    assert qv[1] == pytest.approx(math.pi * math.sinh(1), rel=1e-12)
    assert qv[1] == pytest.approx(3.6920034, rel=1e-6)
    assert qv[2] == pytest.approx(math.pi, rel=1e-12)


def test_ball_quermass_terminal_convention():
    for n in (2, 3, 4, 5):
        target = sphere_measure(n - 1) / n
        for r in (0.1, 0.5, 1.0, 2.0, 4.0):
            qv = ball_quermass(n, r)
            assert abs(qv[n] - target) <= 1e-10 * target
    assert ball_quermass(3, 1.0)[3] == pytest.approx(4 * math.pi / 3, rel=1e-12)


def test_ball_quermass_monotone_in_radius():
    radii = np.linspace(0.1, 3.0, 12)
    for n in (2, 3, 4):
        rows = np.array([ball_quermass(n, r).w for r in radii])
        for j in range(n):
            assert np.all(np.diff(rows[:, j]) > 0.0)


def test_quermass_inverse_radius_round_trips():
    assert quermass_inverse_radius(2, 1, math.pi * math.sinh(1)) == pytest.approx(1.0, rel=1e-12)
    assert quermass_inverse_radius(2, 0, ball_volume(2, 1.0)) == pytest.approx(1.0, rel=1e-9)
    w2 = ball_quermass(3, 0.7)[2]
    assert quermass_inverse_radius(3, 2, w2) == pytest.approx(0.7, rel=1e-9)
    for n in (2, 3, 4):
        for r in (0.2, 0.9, 1.7):
            qv = ball_quermass(n, r)
            for m in range(n):
                assert quermass_inverse_radius(n, m, qv[m]) == pytest.approx(r, rel=1e-9)
    with pytest.raises(DomainValidationError):
        quermass_inverse_radius(3, 3, 1.0)
    with pytest.raises(DomainValidationError):
        quermass_inverse_radius(3, 0, -2.0)


def test_quermass_inverse_radius_is_relative_for_small_balls():
    # brentq's absolute 1e-15 tolerance left r = 1e-3 off by 1.4e-14 and
    # failed the residual check on the volume of r = 1e-6; Newton on the
    # closed-form slope stops on a relative step
    for n in (2, 3, 4):
        for r in (1e-6, 1e-3):
            qv = ball_quermass(n, r)
            for m in range(n):
                assert quermass_inverse_radius(n, m, qv[m]) == pytest.approx(r, rel=4e-16, abs=0.0)


def test_core_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(horokit.core.__file__).parents[1]))
    code = "import sys, horokit.core; print(any(m.startswith('scipy') for m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "False"


def test_poincare_distance_basics():
    origin = np.zeros(2)
    assert poincare_distance(origin, origin) == 0.0
    x = np.array([math.tanh(0.5), 0.0])
    assert poincare_distance(origin, x) == pytest.approx(1.0, rel=1e-14)
    y = np.array([0.3, -0.4])
    assert poincare_distance(x, y) == pytest.approx(poincare_distance(y, x), rel=1e-15)
    with pytest.raises(DomainValidationError):
        poincare_distance(np.array([1.0, 0.0]), origin)


_coords = st.floats(min_value=-0.69, max_value=0.69)


@settings(max_examples=60, deadline=None)
@given(_coords, _coords, _coords, _coords, _coords, _coords)
def test_poincare_triangle_inequality(ax, ay, bx, by, cx, cy):
    a = np.array([ax, ay])
    b = np.array([bx, by])
    c = np.array([cx, cy])
    dab = poincare_distance(a, b)
    dbc = poincare_distance(b, c)
    dac = poincare_distance(a, c)
    assert dac <= dab + dbc + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.floats(min_value=0.05, max_value=5.0))
def test_sinh_power_integral_positive_and_increasing(m, r):
    val = float(sinh_power_integral(m, r))
    assert val > 0.0
    assert float(sinh_power_integral(m, r + 0.1)) > val
    # an array takes the same branch per element as scalar calls
    radii = np.array([0.0, 0.1, r, 0.25, r + 0.1])
    assert np.array_equal(sinh_power_integral(m, radii),
                          [sinh_power_integral(m, x) for x in radii])


def test_sinh_power_integral_scalar_path_is_the_array_path(monkeypatch):
    # a scalar r runs scalar arithmetic in the array path's order: the same
    # result bit for bit on each branch, told apart by the Gauss-Legendre
    # rule it asks for (48 nodes at r <= 0.25, none for the binomial sum,
    # m + 48 where its cancellation loses the result)
    gauss_legendre = horokit.core.gauss_legendre_nodes
    rules = []

    def spy(n_nodes):
        rules.append(n_nodes)
        return gauss_legendre(n_nodes)

    monkeypatch.setattr(horokit.core, "gauss_legendre_nodes", spy)
    radii = (0.0, 1e-3, 0.1, 0.25, 0.2500001, 0.6, 1.0, 2.0, 3.0, 5.0)
    branches = set()
    for dtype, powers in ((np.longdouble, (0, 1, 2, 3, 4, 7, 30, 100, 255)), (float, (0, 1, 4, 30, 100))):
        for m in powers:
            array = sinh_power_integral(m, np.array(radii), dtype=dtype)
            for r, ref in zip(radii, array):
                rules.clear()
                got = sinh_power_integral(m, r, dtype=dtype)
                assert type(got) is type(ref) and got == ref, (dtype, m, r)
                branches.add("binomial" if not rules else "small" if rules == [48] else "lost")
    assert branches == {"small", "binomial", "lost"}


def test_bracketed_newton_stops_on_a_step_below_round_off():
    # t - 0.1 + 1e-18 is 1e-18 at t = 0.1, where the Newton step rounds to
    # no step and lands on the bracket's end: a converged root, which took
    # 50 more bisections when that step counted as leaving the bracket
    passes = []

    def g(k, t):
        passes.append(len(k))
        return t - 0.1 + 1e-18, np.ones_like(t)

    root = horokit.core._bracketed_newton(g, np.array([0.3]), np.array([0.0]), np.array([1.0]),
                                          np.array([False]))
    assert root[0] == 0.1 and len(passes) == 2


@pytest.mark.parametrize("n,w_rtol", [(5, 1e-12), (48, 1e-11), (384, 2e-12),
                                      (1024, 1e-11), (2048, 1e-10)])
def test_gauss_legendre_nodes_match_numpy(n, w_rtol):
    # the nodes agree with leggauss; its weights are off by up to 4e-10
    # relative at n = 384 and 6e-8 at n = 2048, so they are checked against
    # the long-double reference instead (measured: 8.7e-13, 5.2e-12 and
    # 3.5e-11 at n = 384, 1024 and 2048)
    x, w = gauss_legendre_nodes(n)
    assert np.max(np.abs(x - np.polynomial.legendre.leggauss(n)[0])) <= 1e-15
    _, w_ref = gauss_legendre_reference(n)
    assert np.max(np.abs(w / w_ref - 1)) <= w_rtol
    assert not x.flags.writeable and not w.flags.writeable


@pytest.mark.parametrize("n", [48, 49, 96, 384, 1024, 2048])
def test_gauss_legendre_nodes_take_one_recurrence_pass(monkeypatch, n):
    # the asymptotic starts are close enough that one Newton step from one
    # recurrence pass meets the stopping bound, and the weights come from it
    import horokit.core as core
    calls = []

    def counted(m, x, _legendre=core._legendre):
        calls.append(m)
        return _legendre(m, x)

    monkeypatch.setattr(core, "_legendre", counted)
    x, w = gauss_legendre_nodes.__wrapped__(n)  # past the cache
    assert calls == [n]
    assert np.max(np.abs(x - np.polynomial.legendre.leggauss(n)[0])) <= 1e-15


def test_bessel_zero_table_matches_scipy():
    from scipy.special import jn_zeros
    from horokit.core import _J0_ZEROS
    ref = jn_zeros(0, 20)
    assert np.all(np.abs(_J0_ZEROS - ref) <= np.spacing(ref))


def test_gauss_legendre_end_nodes_match_long_double_reference():
    # Olver's Bessel-zero starts put the 20 nodes nearest each end on the
    # reference after one pass; Tricomi's estimate alone is 2.7e-8 off there
    # at n = 384
    n = 2048
    x, _ = gauss_legendre_nodes(n)
    x_ref, _ = gauss_legendre_reference(n)
    ends = np.r_[0:20, n - 20:n]
    assert np.max(np.abs(x[ends] - x_ref[ends])) <= 2e-16


@pytest.mark.parametrize("n", [0, -1, 2.5])
def test_gauss_legendre_nodes_reject_bad_counts(n):
    with pytest.raises(DomainValidationError, match="n >= 1"):
        gauss_legendre_nodes(n)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
def test_gauss_legendre_nodes_exact_to_degree_2n_minus_1(n):
    x, w = gauss_legendre_nodes(n)
    for k in range(2 * n - 1):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert float(np.sum(w * x ** k)) == pytest.approx(exact, rel=1e-14, abs=1e-15)
