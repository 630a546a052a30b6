"""Parallel-set perimeter comparison against the matched geodesic ball.

Given a body K, the matched ball K* shares its top quermassintegral
W_{n-1}; the engine tabulates P(K_delta) against P(K*_delta) over a delta
grid, plus the quermassintegral comparisons (Alexandrov-Fenchel style) and
the planar isoperimetric deficit that the comparison rests on.  Both
perimeters are Steiner polynomials in (cosh delta, sinh delta) whose
coefficients are curvature integrals, so each margin is the Steiner
polynomial of the coefficient differences V_i(K*) - V_i(K), not the
difference of two large totals.
"""

from dataclasses import dataclass

import numpy as np

from .core import ball_curvature_integrals, ball_quermassintegral, quermass_inverse_radius
from .bodies import (
    Body2D,
    boundary_measures,
    check_hypotheses,
    curvature_integrals,
    parallel_perimeter_direct,  # not called; bench/tracing.py counts it here until ROADMAP item 1
    quermassintegrals,
    steiner_polynomial,
)
from .errors import DomainValidationError

TOL_NUM_REL = 1e-8   # numerical slack on margins, relative to the ball side
TOL_EQ_REL = 1e-6    # equality detection threshold, relative


def default_delta_grid():
    """16 log-spaced parallel distances in [1e-3, 2]."""
    return np.geomspace(1e-3, 2.0, 16)


def equivalent_ball(body, force=False):
    """Radius r* of the ball with the same W_{n-1} as the body."""
    check_hypotheses(body, force=force)
    w = quermassintegrals(body)
    return quermass_inverse_radius(body.n, body.n - 1, w[body.n - 1])


def perimeter_matched_ball(body):
    """Radius of the ball with the same perimeter (exploratory for n >= 3)."""
    p = boundary_measures(body)["perimeter"]
    return quermass_inverse_radius(body.n, 1, p / body.n)


@dataclass(frozen=True)
class NagyReport:
    r_star: float
    deltas: np.ndarray
    p_body: np.ndarray
    p_ball: np.ndarray
    margins: np.ndarray
    verdict: bool
    equality_detected: bool
    hypotheses_ok: bool = True
    match: str = "quermass"

    def rows(self):
        return list(zip(self.deltas, self.p_body, self.p_ball, self.margins))


def nagy_table(body, delta_grid=None, force=False, match="quermass"):
    """Tabulate P(K_delta) vs P(K*_delta) and issue the comparison verdict.

    match="quermass" uses the W_{n-1}-matched ball (the supported
    comparison); match="perimeter" is exploratory for n >= 3 and never
    asserts a sign.
    """
    if match not in ("quermass", "perimeter"):
        raise DomainValidationError(f"unknown matching rule {match!r}")
    hypotheses_ok = check_hypotheses(body, force=force)
    if delta_grid is None:
        delta_grid = default_delta_grid()
    deltas = np.asarray(delta_grid, dtype=float)  # steiner_polynomial refuses a bad distance
    if match == "quermass":
        r_star = equivalent_ball(body, force=force)
    else:
        r_star = perimeter_matched_ball(body)
    # the body's own coefficients, not bodies.parallel_perimeter, whose
    # convex gate would refuse a table forced past the hypotheses; the sum
    # is the boundary integral of the Jacobian product either way
    v_body = curvature_integrals(body).v
    # rounded once from long double: where the match is exact to round-off,
    # as W_1 in the plane, the top coefficients then cancel exactly
    v_ball = ball_curvature_integrals(body.n, r_star).astype(float)
    p_body = steiner_polynomial(v_body, deltas)
    p_ball = steiner_polynomial(v_ball, deltas)
    margins = steiner_polynomial(v_ball - v_body, deltas)
    verdict = bool(np.all(margins >= -TOL_NUM_REL * p_ball))
    equality = bool(np.all(np.abs(margins) <= TOL_EQ_REL * p_ball))
    if match == "perimeter" and body.n >= 3:
        verdict = True  # exploratory table: no asserted sign
        equality = False
    return NagyReport(r_star=float(r_star), deltas=deltas, p_body=p_body,
                      p_ball=p_ball, margins=margins, verdict=verdict,
                      equality_detected=equality, hypotheses_ok=hypotheses_ok,
                      match=match)


def af_check(body, i, j, force=False):
    """Quermassintegral comparison margin W_j(K) - f_j(f_i^{-1}(W_i(K))).

    Nonnegative for bodies satisfying the hypotheses (h-convex when n >= 3;
    for n = 2 only the pair (0, 1) is covered, through the isoperimetric
    inequality), zero exactly on balls.
    """
    n = body.n
    if not (0 <= i < j <= n - 1):
        raise DomainValidationError(f"need 0 <= i < j <= {n - 1}, got ({i}, {j})")
    check_hypotheses(body, force=force)
    w = quermassintegrals(body)
    predicted, _ = ball_quermassintegral(n, j, quermass_inverse_radius(n, i, w[i]))
    return float(w[j] - predicted)


def isoperimetric_check_2d(body):
    """Planar hyperbolic isoperimetric deficit P^2 - 4 pi A - A^2.

    Needs no convexity; zero exactly on geodesic circles.
    """
    if not isinstance(body, Body2D):
        raise DomainValidationError("isoperimetric deficit is a planar check")
    meas = boundary_measures(body)
    p, a = meas["perimeter"], meas["volume"]
    return float(p * p - 4.0 * np.pi * a - a * a)
