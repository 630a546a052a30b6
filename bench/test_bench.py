"""Fast tests of the benchmark's own oracles and checks.

Run from the root of a checkout: python3 -m pytest bench/test_bench.py
The oracles must reproduce closed forms; every check must accept a right
answer and reject one perturbed by a little more than its tolerance.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import oracles as ora  # noqa: E402
from checks import CheckError  # noqa: E402


def _h3_shell_kappa(r, R):
    """tau = 1 - kappa^2 for n = 3, p = 2: v = sinh(kappa (t - r)) / sinh t."""
    return brentq(lambda k: math.tanh(k * (R - r)) - k * math.tanh(R), 1e-6, 1.0 - 1e-12)


# ---------------------------------------------------------------------------
# oracles against closed forms

def test_offset_ball_length_closed_forms():
    for r, delta in ((0.8, 0.0), (0.8, 0.5), (0.5, 1.2)):
        assert ora.offset_ball_parallel_length(r, 1.8, 0.0, delta) == \
            pytest.approx(2 * math.pi * math.sinh(r + delta), rel=1e-15)
    # fully inside the offset ball, then past its far side
    assert ora.offset_ball_parallel_length(0.8, 1.8, 0.2, 0.1) == \
        pytest.approx(2 * math.pi * math.sinh(0.9), rel=1e-15)
    assert ora.offset_ball_parallel_length(0.8, 1.8, 0.2, ora.offset_ball_reach(0.8, 1.8, 0.2) + 1e-9) == 0.0


def test_pencil_matches_h3_closed_form():
    r, R = 0.5, 1.5
    tau = 1.0 - _h3_shell_kappa(r, R) ** 2
    assert ora.pencil_shell_eigen_p2(3, r, R) == pytest.approx(tau, rel=1e-9)


def test_profile_quadrature_matches_h3_closed_form():
    r, R = 0.5, 1.5
    kappa = _h3_shell_kappa(r, R)
    t = np.linspace(r, R, 512)
    v = np.sinh(kappa * (t - r)) / np.sinh(t)
    dv = (kappa * np.cosh(kappa * (t - r)) - v * np.cosh(t)) / np.sinh(t)
    assert ora.radial_rayleigh_quotient(3, 2.0, t, v, dv) == pytest.approx(1 - kappa ** 2, rel=1e-8)


def test_ball_energy_closed_form_p2():
    r, delta, beta = 0.9, 0.8, 1.0
    q = math.log(math.tanh((r + delta) / 2) / math.tanh(r / 2)) / (2 * math.pi)
    wb = beta * 2 * math.pi * math.sinh(r + delta)
    assert ora.ball_shell_energy(2, 2.0, r, delta, beta) == pytest.approx(wb / (1 + wb * q), rel=1e-12)


def test_flow_perimeters_of_balls():
    for s in (0.0, 0.3, 1.7):
        assert ora.fourier_parallel_perimeter({"a0": 0.9}, s) == \
            pytest.approx(2 * math.pi * math.sinh(0.9 + s), rel=1e-11)
        assert ora.revolution_parallel_perimeter(3, {"a0": 0.9}, s) == \
            pytest.approx(4 * math.pi * math.sinh(0.9 + s) ** 2, rel=1e-11)
        assert ora.revolution_parallel_perimeter(4, {"a0": 0.9}, s) == \
            pytest.approx(ora.ball_perimeter(4, 0.9 + s), rel=1e-11)
    assert ora.fourier_area({"a0": 0.9}) == pytest.approx(2 * math.pi * (math.cosh(0.9) - 1), rel=1e-14)


def test_flow_perimeter_follows_planar_steiner_formula():
    params = {"a0": 0.8, "cos": [0.0, 0.1], "sin": [0.0, 0.0, 0.02]}
    length = ora.fourier_parallel_perimeter(params, 0.0)
    total_curvature = 2 * math.pi + ora.fourier_area(params)  # Gauss-Bonnet
    for s in (0.2, 0.8, 2.0):
        steiner = length * math.cosh(s) + total_curvature * math.sinh(s)
        assert ora.fourier_parallel_perimeter(params, s) == pytest.approx(steiner, rel=1e-11)


def test_steiner_fit_detects_non_polynomial_data():
    deltas = np.geomspace(1e-3, 2.0, 16)
    exact = [ora.ball_perimeter(3, 0.7 + d) for d in deltas]
    assert ora.steiner_fit_max_rel_dev(3, deltas, exact) < 1e-13
    bent = np.array(exact) * (1 + 1e-6 * deltas ** 3)
    assert ora.steiner_fit_max_rel_dev(3, deltas, bent) > 1e-8


# ---------------------------------------------------------------------------
# checks reject perturbed answers

def _chain_answer(hole_r=0.8, outer_R=1.8, offset=0.2, n_deltas=64):
    reach = ora.offset_ball_reach(hole_r, outer_R, offset)
    deltas = np.linspace(0.0, reach * (1 - 1e-9), n_deltas)
    rows = [[d, ora.offset_ball_parallel_length(hole_r, outer_R, offset, d),
             2 * math.pi * math.sinh(hole_r + d) if d <= outer_R - hole_r else 0.0]
            for d in deltas]
    tau = ora.pencil_shell_eigen_p2(2, hole_r, outer_R)
    report = {"r": hole_r, "R": outer_R, "tau_annulus": tau, "tau_omega": 0.99 * tau,
              "hersch_bound": 0.995 * tau, "chain_ok": True}
    return report, rows, (hole_r, outer_R, offset, 1024, n_deltas)


def test_chain_check_accepts_exact_answer():
    report, rows, args = _chain_answer()
    acc = checks.check_chain(report, rows, *args)
    assert acc["parallels.L_max_abs_err"] < 1e-12
    assert acc["shell.tau_max_rel_err"] < 1e-8


@pytest.mark.parametrize("field", ["tau_annulus", "r", "R"])
def test_chain_check_rejects_perturbed_scalar(field):
    report, rows, args = _chain_answer()
    report[field] *= 1 + 1e-3
    with pytest.raises(CheckError):
        checks.check_chain(report, rows, *args)


def test_chain_check_rejects_L_row_off_by_twice_the_tolerance():
    report, rows, args = _chain_answer()
    rows[20][1] += 2 * checks.table_tolerance(1.8, 0.2, 1024)
    with pytest.raises(CheckError):
        checks.check_chain(report, rows, *args)


def test_chain_check_measures_but_does_not_gate_the_delta0_row():
    report, rows, args = _chain_answer()
    off = 2 * checks.table_tolerance(1.8, 0.2, 1024)
    rows[-1][1] += off
    assert checks.check_chain(report, rows, *args)["parallels.L_max_abs_err"] == pytest.approx(off)


@pytest.mark.parametrize("field, factor", [("tau_omega", 1.05), ("hersch_bound", 1.01)])
def test_chain_check_rejects_broken_ordering(field, factor):
    report, rows, args = _chain_answer()
    report[field] = report["tau_annulus"] * factor
    with pytest.raises(CheckError):
        checks.check_chain(report, rows, *args)


def _shell_answer(n, p, r=0.5, R=1.5):
    from horokit.shell import ShellSpec, shell_eigen
    res = shell_eigen(ShellSpec(n=n, p=p, r=r, R=R))
    return {"tau1": res.tau1}, np.stack([res.t, res.v, res.dv], axis=1), (n, p, r, R)


@pytest.mark.parametrize("n, p", [(2, 2.0), (3, 1.5), (2, 3.0)])
def test_shell_check_rejects_perturbed_tau(n, p):
    report, profile, args = _shell_answer(n, p)
    assert checks.check_shell(report, profile, *args)["shell.tau_max_rel_err"] < 1e-7
    report["tau1"] *= 1 + 1e-3
    with pytest.raises(CheckError):
        checks.check_shell(report, profile, *args)


def test_fem_comparisons_reject_wrong_side():
    checks.check_concentric_fem(1.002, 1.0)
    for fem in (0.999, 1.02):
        with pytest.raises(CheckError):
            checks.check_concentric_fem(fem, 1.0)
    checks.check_hole_fem(0.99, 1.0)
    with pytest.raises(CheckError):
        checks.check_hole_fem(1.001, 1.0)


def _nagy_answer(spec):
    from horokit import io as hio
    from horokit.nagy import nagy_table
    payload = hio.nagy_report_payload(nagy_table(hio.body_from_dict(spec)))
    return json.loads(json.dumps(hio._jsonable(payload)))


NAGY_SPECS = [
    {"schema": 1, "kind": "fourier2d", "n": 2, "params": {"a0": 0.9, "cos": [0.0, 0.05], "sin": []}},
    {"schema": 1, "kind": "revolution", "n": 3, "params": {"a0": 1.0, "cos_even": [0.04]}},
    {"schema": 1, "kind": "ball", "n": 2, "params": {"r": 0.7}},
]


@pytest.mark.parametrize("spec", NAGY_SPECS, ids=lambda s: s["kind"])
def test_nagy_check_rejects_perturbed_perimeter(spec):
    report = _nagy_answer(spec)
    checks.check_nagy(report, spec["n"], spec["params"], spec["kind"])
    report["rows"][5]["P_K"] *= 1 + 1e-6
    with pytest.raises(CheckError):
        checks.check_nagy(report, spec["n"], spec["params"], spec["kind"])


def test_nagy_check_rejects_negative_margin_and_wrong_equality_flag():
    spec = NAGY_SPECS[0]
    report = _nagy_answer(spec)
    row = report["rows"][3]
    row["P_Kstar"] = row["P_K"] * (1 - 1e-6)
    row["margin"] = row["P_Kstar"] - row["P_K"]
    with pytest.raises(CheckError):
        checks.check_nagy(report, spec["n"], spec["params"], spec["kind"])
    ball = NAGY_SPECS[2]
    report = _nagy_answer(ball)
    report["equality_detected"] = False
    with pytest.raises(CheckError):
        checks.check_nagy(report, ball["n"], ball["params"], ball["kind"])


def _insulation_answer(spec, p, h_mesh=0.02):
    from horokit import io as hio
    from horokit.insulation import InsulationSpec, insulation_verdict
    body = hio.body_from_dict(spec)
    rep = insulation_verdict(InsulationSpec(p=p, body=body, delta=0.8, beta=1.0), h_mesh=h_mesh)
    return hio.insulation_report_payload(rep)


INSULATION_CASES = [
    ({"schema": 1, "kind": "fourier2d", "n": 2, "params": {"a0": 0.8, "cos": [0.0, 0.1]}}, 2.0),
    ({"schema": 1, "kind": "revolution", "n": 3, "params": {"a0": 0.9, "cos_even": [0.04]}}, 1.5),
]


@pytest.mark.parametrize("spec, p", INSULATION_CASES, ids=["planar", "revolution"])
@pytest.mark.parametrize("field", ["energy_ball", "energy_body"])
def test_insulation_check_rejects_perturbed_energy(spec, p, field):
    report = _insulation_answer(spec, p)
    args = (spec["n"], spec["params"], spec["kind"], 0.8, 1.0, p)
    checks.check_insulation(report, *args)
    report[field] *= 1 + 1e-3
    report["margin"] = report["energy_ball"] - report["energy_body"]
    with pytest.raises(CheckError):
        checks.check_insulation(report, *args)


def test_benchmark_json_lists_the_emitted_metrics():
    from run import END_TO_END
    from tracing import PER_LAYER
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = lambda key: [(m["name"], m["unit"], m["better"]) for m in spec[key]]  # noqa: E731
    assert listed("end_to_end") == list(END_TO_END)
    assert listed("per_layer") == list(PER_LAYER)
