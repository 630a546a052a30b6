import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from horokit.bodies import Body2D, boundary_measures, curvature_2d, quermassintegrals
import horokit
from horokit import core, nagy
from horokit.cli import make_parser, run_command
from horokit.errors import DataFormatError, DomainValidationError
from horokit.spectral import mixed_eigenpair
from horokit.io import (
    body_from_dict,
    load_body,
    load_domain,
    write_csv,
)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BALL_SPEC = {"schema": 1, "kind": "ball", "n": 2, "params": {"r": 1.0}}
FOURIER_SPEC = {"schema": 1, "kind": "fourier2d", "n": 2,
                "params": {"a0": 0.8, "cos": [0.0, 0.1]}}
DOMAIN_SPEC = {"schema": 1, "kind": "annular2d",
               "inner": {"schema": 1, "kind": "ball", "n": 2, "params": {"r": 0.5}},
               "outer": {"schema": 1, "kind": "ball", "n": 2, "params": {"r": 1.5}}}


def test_load_body_ball(tmp_path):
    body, report = load_body(write(tmp_path, "ball.json", BALL_SPEC))
    assert body.is_round and body.a0 == 1.0
    assert report.is_h_convex


def test_load_body_fourier(tmp_path):
    body, report = load_body(write(tmp_path, "f.json", FOURIER_SPEC))
    assert body.radius(0.0) == pytest.approx(0.9)
    assert body.radius(np.pi / 2) == pytest.approx(0.7)
    assert report.is_convex and not report.is_h_convex


def test_load_body_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataFormatError, match="line"):
        load_body(str(bad))
    with pytest.raises(DataFormatError, match="schema"):
        load_body(write(tmp_path, "v2.json", dict(BALL_SPEC, schema=2)))
    with pytest.raises(DataFormatError, match="missing required field"):
        load_body(write(tmp_path, "nop.json", {"schema": 1, "kind": "ball", "n": 2}))
    with pytest.raises(DataFormatError, match="kind"):
        load_body(write(tmp_path, "kind.json", dict(BALL_SPEC, kind="cube")))


BALL_40 = {"schema": 1, "kind": "ball", "n": 2, "params": {"r": 40.0}}


@pytest.mark.parametrize("loader, doc, error, match", [
    # these ended in a ValueError traceback, or were read silently as n = 2
    (load_body, dict(BALL_SPEC, n="x"), DataFormatError, "'n' must be a number"),
    (load_body, dict(BALL_SPEC, n=2.7), DataFormatError, "'n' must be an integer"),
    (load_body, dict(FOURIER_SPEC, params={"a0": 0.8, "cos": "ab"}), DataFormatError, "'cos'"),
    (load_domain, dict(DOMAIN_SPEC, offset="a"), DataFormatError, "'offset' must be a number"),
    # these ended in a "non-finite geodesic curvature" NumericError
    (load_body, dict(FOURIER_SPEC, params={"a0": math.nan}), DomainValidationError, "finite"),
    (load_body, dict(FOURIER_SPEC, params={"a0": 0.8, "cos": [0.0, math.inf]}),
     DomainValidationError, "finite"),
    (load_body, dict(BALL_SPEC, params={"r": math.nan}), DomainValidationError, "finite"),
    # these ended in a ValueError traceback in rfk and eig-domain
    (load_domain, dict(DOMAIN_SPEC, offset=math.nan), DomainValidationError, "finite"),
    (load_domain, dict(DOMAIN_SPEC, offset_angle=math.nan), DomainValidationError, "finite"),
    # tanh(20) rounds to 1: rfk hit a math domain error, eig-domain exited 0
    (load_domain, dict(DOMAIN_SPEC, outer=BALL_40), DomainValidationError, "rounds to 1"),
    # annular domains take planar bodies only
    (load_domain, dict(DOMAIN_SPEC, outer={"schema": 1, "kind": "revolution", "n": 3,
                                           "params": {"a0": 1.5}}),
     DomainValidationError, "Body2D"),
])
def test_bad_spec_fields_are_rejected(tmp_path, loader, doc, error, match):
    with pytest.raises(error, match=match):
        loader(write(tmp_path, "spec.json", doc))


def test_body_round_trip_preserves_measures(tmp_path):
    body = Body2D(a0=0.8, cos=[0.0, 0.1], sin=[0.02])
    doc = {"schema": 1, "kind": "fourier2d", "n": 2,
           "params": {"a0": 0.8, "cos": [0.0, 0.1], "sin": [0.02]}}
    clone = body_from_dict(doc)
    m0 = boundary_measures(body)
    m1 = boundary_measures(clone)
    assert m0["perimeter"] == m1["perimeter"]
    assert m0["volume"] == m1["volume"]


def test_domain_round_trip(tmp_path):
    doc = {"schema": 1, "kind": "annular2d",
           "inner": {"schema": 1, "kind": "ball", "n": 2, "params": {"r": 0.8}},
           "outer": {"schema": 1, "kind": "ball", "n": 2, "params": {"r": 1.8}},
           "offset": 0.2, "offset_angle": 0.0}
    path = write(tmp_path, "dom.json", doc)
    clone = load_domain(path)
    assert clone.offset == 0.2
    assert clone.inner.a0 == 0.8


def test_write_csv_matches_csv_writer(tmp_path):
    # one % pass over all rows must write the bytes csv.writer wrote cell
    # by cell, CRLF line ends included
    rows = [[-0.0, 5e-324, 1e308], [math.nan, math.inf, -math.inf],
            [np.float64(0.1), np.float64(-2.5e-300), 1.0 / 3.0]]
    header = ["a", "b", "c"]
    ref = io.StringIO(newline="")
    writer = csv.writer(ref)
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{float(x):.17g}" for x in row])
    write_csv(tmp_path / "t.csv", header, rows)
    assert (tmp_path / "t.csv").read_bytes() == ref.getvalue().encode()
    write_csv(tmp_path / "empty.csv", header, [])
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b,c\r\n"


def test_cli_ball_tables(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_command(["ball-tables", "--n", "3", "--r", "0.5", "1.0", "--out", str(out)])
    assert code == 0
    lines = (out / "ball_tables.csv").read_text().splitlines()
    assert lines[0] == "r,volume,perimeter,W0,W1,W2,W3"
    assert len(lines) == 3


def test_cli_nagy_ball_equality(tmp_path):
    body = write(tmp_path, "ball.json", BALL_SPEC)
    out = tmp_path / "out"
    code = run_command(["nagy", "--body", body, "--deltas", "0.1:2:16", "--out", str(out)])
    assert code == 0
    csv_lines = (out / "nagy.csv").read_text().splitlines()
    assert csv_lines[0] == "delta,P_K,P_Kstar,margin"
    assert len(csv_lines) == 17
    doc = json.loads((out / "nagy.json").read_text())
    assert doc["equality_detected"] is True
    assert doc["manifest"]["command"] == "nagy"
    assert "wall_time_s" not in doc["manifest"]
    manifest = json.loads((out / "nagy.manifest.json").read_text())
    assert "wall_time_s" in manifest


def test_cli_manifests_record_every_report_option(tmp_path):
    # a forced af-check and a nagy table on its own delta grid read like
    # default runs unless their manifests say otherwise
    body = write(tmp_path, "ball.json", BALL_SPEC)
    out = tmp_path / "out"
    assert run_command(["nagy", "--body", body, "--deltas", "0:1:3", "--out", str(out)]) == 0
    params = json.loads((out / "nagy.json").read_text())["manifest"]["parameters"]
    assert params["deltas"] == "0:1:3" and params["force"] is False
    assert run_command(["af-check", "--body", body, "--force", "--out", str(out)]) == 0
    params = json.loads((out / "af_check.json").read_text())["manifest"]["parameters"]
    assert params["force"] is True


def test_cli_determinism(tmp_path):
    body = write(tmp_path, "f.json", FOURIER_SPEC)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert run_command(["nagy", "--body", body, "--out", str(out)]) == 0
        outs.append((out / "nagy.json").read_bytes() + (out / "nagy.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_eig_shell(tmp_path, capsys):
    out = tmp_path / "o"
    code = run_command(["eig-shell", "--n", "2", "--p", "2", "--r", "0.5",
                        "--R", "1.5", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "tau1 = 1.35760" in printed
    prof = (out / "profile.csv").read_text().splitlines()
    assert prof[0] == "t,v,dv"


def test_cli_isoperimetric(tmp_path):
    body = write(tmp_path, "f.json", FOURIER_SPEC)
    assert run_command(["isoperimetric", "--body", body]) == 0


def test_cli_af_check_all_pairs(tmp_path, capsys):
    spec = {"schema": 1, "kind": "revolution", "n": 3,
            "params": {"a0": 1.0, "cos_even": [0.05]}}
    body = write(tmp_path, "rev.json", spec)
    assert run_command(["af-check", "--body", body]) == 0
    assert "(0,2)" in capsys.readouterr().out


def test_cli_af_check_inverts_each_index_once(tmp_path, monkeypatch):
    # all n(n-1)/2 pairs read the n - 1 radii f_i^{-1}(W_i(K)), each found
    # once; every margin is, bit for bit, the one that inverting W_i again
    # for each pair gives (the pinned values were printed that way)
    n = 20
    path = write(tmp_path, "rev.json", {"schema": 1, "kind": "revolution", "n": n,
                                        "params": {"a0": 1.2, "cos_even": [0.01]}})
    inverted = []

    def counted(n, m, w):
        inverted.append(m)
        return core.quermass_inverse_radius(n, m, w)

    monkeypatch.setattr(nagy, "quermass_inverse_radius", counted)
    out = tmp_path / "o"
    assert run_command(["af-check", "--body", path, "--out", str(out)]) == 0
    assert inverted == list(range(n - 1))
    rows = json.loads((out / "af_check.json").read_text())["margins"]
    assert len(rows) == n * (n - 1) // 2
    w = quermassintegrals(load_body(path)[0])
    for row in rows:
        i, j = row["i"], row["j"]
        r = core.quermass_inverse_radius(n, i, w[i])
        assert row["margin"] == float(w[j] - core.ball_quermassintegral(n, j, r)[0])
    pinned = {(0, 1): 0.0004354826306139613, (0, 19): 0.012322752434613185,
              (18, 19): 0.000653917338430017}
    assert {(row["i"], row["j"]): row["margin"] for row in rows if (row["i"], row["j"]) in pinned} == pinned


# revolution bodies whose matched balls the inverse refused: its probes at
# r = 1, 2 or 8 failed ball_quermass's terminal check (n <= 37), and at
# r = 1e-8 underflowed (n = 38, 40), so every command below exited 1
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, a0", [(3, 8.5), (4, 4.5), (5, 4.3), (20, 1.2), (37, 1.0),
                                   (38, 0.3), (40, 0.3)])
def test_cli_matched_ball_commands_accept_revolution_bodies(tmp_path, capsys, n, a0):
    body = write(tmp_path, "rev.json", {"schema": 1, "kind": "revolution", "n": n,
                                        "params": {"a0": a0, "cos_even": [0.01]}})
    # all n(n-1)/2 pairs of af-check take 3-5 s at n >= 37; its last pair reads
    # W_{n-1} of a ball that ball_quermass refuses from n = 37 on
    pairs = [] if n <= 20 else ["--i", "0", "--j", str(n - 1)]
    for argv in (["nagy"], ["af-check", *pairs], ["insulation", "--delta", "0.5", "--beta", "1"]):
        assert run_command([*argv, "--body", body]) == 0, argv
    assert capsys.readouterr().err == ""


def test_cli_quermass(tmp_path):
    body = write(tmp_path, "ball.json", BALL_SPEC)
    out = tmp_path / "o"
    assert run_command(["quermass", "--body", body, "--out", str(out)]) == 0
    doc = json.loads((out / "quermass.json").read_text())
    assert doc["w"][2] == pytest.approx(math.pi, rel=1e-10)


# 80 petals: the outer body's curvature integrals settle only at 8192 samples
PETAL_OUTER_SPEC = {"schema": 1, "kind": "fourier2d", "n": 2,
                    "params": {"a0": 1.8, "cos": [0.0] * 79 + [0.35]}}
PETAL_DOMAIN_SPEC = {"schema": 1, "kind": "annular2d",
                     "inner": {"schema": 1, "kind": "fourier2d", "n": 2,
                               "params": {"a0": 1.0, "cos": [0.0, 0.2]}},
                     "outer": PETAL_OUTER_SPEC}


def test_cli_quermass_of_a_body_that_needs_more_samples(tmp_path):
    # this exited 1 while the sample count was a field no spec could set
    body = write(tmp_path, "petals.json", PETAL_OUTER_SPEC)
    out = tmp_path / "o"
    assert run_command(["quermass", "--body", body, "--out", str(out)]) == 0
    doc = json.loads((out / "quermass.json").read_text())
    assert doc["perimeter"] == curvature_2d(body_from_dict(PETAL_OUTER_SPEC), 8192).perimeter


def test_cli_hersch_on_the_petal_domain(tmp_path):
    # this exited 1 on the outer body's Gauss-Bonnet check
    dom = write(tmp_path, "petals.json", PETAL_DOMAIN_SPEC)
    out = tmp_path / "o"
    assert run_command(["hersch", "--domain", dom, "--n-deltas", "17", "--out", str(out)]) == 0
    doc = json.loads((out / "hersch.json").read_text())
    assert doc["hersch_bound"] == pytest.approx(2.387868628835878, rel=1e-12)


def test_cli_insulation(tmp_path):
    body = write(tmp_path, "ball.json", BALL_SPEC)
    code = run_command(["insulation", "--body", body, "--delta", "1.0",
                        "--beta", "1.0"])
    assert code == 0


def test_cli_selftest_passes():
    assert run_command(["selftest"]) == 0


def test_cli_exit_code_2_on_failed_verdict(tmp_path, monkeypatch):
    # no honest theorem violation is constructible, so exercise the exit
    # mapping by stubbing the table with a verdict-false report
    import horokit.cli as cli

    real = cli.nagy_table

    def broken(body, **kwargs):
        report = real(body, **kwargs)
        return type(report)(**{**report.__dict__, "verdict": False})

    monkeypatch.setattr(cli, "nagy_table", broken)
    body = write(tmp_path, "b.json", BALL_SPEC)
    assert run_command(["nagy", "--body", body]) == 2


def test_cli_usage_errors(tmp_path):
    assert run_command(["nonsense-command"]) == 1
    assert run_command(["nagy"]) == 1  # missing --body
    assert run_command(["nagy", "--body", "missing.json"]) == 1
    body = write(tmp_path, "b.json", BALL_SPEC)
    assert run_command(["nagy", "--body", body, "--deltas", "oops"]) == 1


SHELL_ARGS = ["eig-shell", "--n", "2", "--p", "2", "--r", "0.5", "--R", "1.5"]
INSULATION_ARGS = ["insulation", "--body", "{body}"]


@pytest.mark.parametrize("argv, kind", [
    # eig-shell has no --tol: its root tolerance is a constant, so these are
    # unknown options
    (SHELL_ARGS + ["--tol", "0"], "usage error"),
    (SHELL_ARGS + ["--tol", "-1"], "usage error"),
    (SHELL_ARGS + ["--tol", "nan"], "usage error"),
    (SHELL_ARGS + ["--tol", "inf"], "usage error"),
    # these ended in a brentq traceback or in "radial integration failed"
    (SHELL_ARGS[:-1] + ["inf"], "error: need finite"),
    (SHELL_ARGS[:-1] + ["nan"], "error: need finite"),
    (["eig-shell", "--n", "2", "--p", "inf", "--r", "0.5", "--R", "1.5"], "error: exponent"),
    (["eig-domain", "--domain", "{dom}", "--h-mesh", "nan"], "usage error"),
    (["eig-domain", "--domain", "{dom}", "--h-mesh", "inf"], "usage error"),
    (["rfk", "--domain", "{dom}", "--p", "1.5", "--h-mesh", "nan"], "usage error"),
    # these ended in a ValueError or OverflowError traceback
    (INSULATION_ARGS + ["--delta", "nan", "--beta", "1"], "usage error"),
    (INSULATION_ARGS + ["--delta", "inf", "--beta", "1"], "usage error"),
    (INSULATION_ARGS + ["--delta", "1000", "--beta", "1"], "error: closed-form energy"),
    (INSULATION_ARGS + ["--delta", "1", "--beta", "nan"], "usage error"),
    (INSULATION_ARGS + ["--delta", "1", "--beta", "inf"], "usage error"),
    (INSULATION_ARGS + ["--delta", "1", "--beta", "1e308"], "error: closed-form energy"),
    (["nagy", "--body", "{body}", "--deltas", "0:800:3"], "error: parallel perimeters overflow"),
    # these exited 0: zero energies, nan and inf rows, no margin computed
    (INSULATION_ARGS + ["--delta", "1", "--beta", "1", "--p", "inf"], "error: exponent"),
    (["ball-tables", "--n", "2", "--r", "nan"], "usage error"),
    (["ball-tables", "--n", "2", "--r", "1", "inf"], "usage error"),
    (["af-check", "--body", "{body}", "--i", "0", "--j", "5"], "error: need 0 <= i < j"),
    # these ended in a ValueError traceback from the spectral solver: the
    # shell's outer chart radius rounds to 1, or equals the core's
    (["insulation", "--body", "{oval}", "--delta", "300", "--beta", "1"], "error: outer boundary"),
    (["insulation", "--body", "{oval}", "--delta", "1e-300", "--beta", "1"], "error: inner boundary"),
    # these ended in a RecursionError traceback
    (["quermass", "--body", "{n5000}"], "error: dimension must be in [2, 256]"),
    (["ball-tables", "--n", "5000", "--r", "1"], "error: dimension must be in [2, 256]"),
    # this printed the subnormal volume 3.93e-320 and exited 0
    (["ball-tables", "--n", "256", "--r", "0.22"], "error: quermassintegrals underflow"),
    # this said "quermass recursion terminal mismatch: W_n relative error inf"
    (["ball-tables", "--n", "5", "--r", "400"], "error: volume of the ball of radius 400.0"),
    # a nan volume gave "quermassintegrals of a nonempty body are positive"
    (["quermass", "--body", "{rev200}"], "error: quermass recursion terminal mismatch"),
    # these ended in a ZeroDivisionError (inf, 1e6) or OverflowError (1.001)
    # traceback from the inverse power iteration; 1e6 then printed five
    # RuntimeWarnings before its error
    (["eig-domain", "--domain", "{dom}", "--p", "inf", "--h-mesh", "0.05"], "error: exponent"),
    pytest.param(["eig-domain", "--domain", "{dom}", "--p", "1e6", "--h-mesh", "0.05"],
                 "error: inverse power iteration failed",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    (["eig-domain", "--domain", "{dom}", "--p", "1.001", "--h-mesh", "0.05"],
     "error: inverse power iteration failed"),
    # these ended in a "Factor is exactly singular" RuntimeError traceback
    # from the sparse LU of a Newton step
    (["eig-domain", "--domain", "{dom}", "--p", "200", "--h-mesh", "0.05"], "error:"),
    (["rfk", "--domain", "{dom}", "--p", "200", "--h-mesh", "0.05"], "error:"),
    # these said "quermassintegrals of a nonempty body are positive"
    (["ball-tables", "--n", "256", "--r", "0.2"], "error: quermassintegrals underflow"),
    (["ball-tables", "--n", "256", "--r", "0.21"], "error: quermassintegrals underflow"),
    # this warned "overflow encountered in scalar power" before its error
    pytest.param(["ball-tables", "--n", "3", "--r", "10000"], "error: quermassintegrals of the ball",
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
])
def test_cli_bad_numbers_are_errors_without_traceback(tmp_path, capsys, argv, kind):
    files = {"{dom}": write(tmp_path, "dom.json", DOMAIN_SPEC),
             "{body}": write(tmp_path, "ball.json", BALL_SPEC),
             "{oval}": write(tmp_path, "oval.json", FOURIER_SPEC),
             "{n5000}": write(tmp_path, "n5000.json", dict(BALL_SPEC, n=5000)),
             "{rev200}": write(tmp_path, "rev200.json", {"schema": 1, "kind": "revolution",
                                                         "n": 200, "params": {"a0": 4.0}})}
    assert run_command([files.get(a, a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert kind in err and "Traceback" not in err
    assert "radial integration failed" not in err


def _fuzz_number(lo, hi, valid):
    # `valid` is a sub-range drawn as often as the full one, so that more
    # than one example in ten reaches the solver instead of an input check
    return st.one_of(st.floats(*valid), st.floats(lo, hi),
                     st.sampled_from([0.0, math.nan, math.inf, -math.inf]))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(n=st.one_of(st.integers(2, 6), st.integers(-1, 6)),
       p=_fuzz_number(0.5, 8.0, (1.05, 8.0)),
       r=_fuzz_number(-1.0, 4.0, (0.05, 2.0)),
       R=_fuzz_number(-1.0, 4.0, (2.0, 4.0)))
def test_cli_eig_shell_fuzz_exits_cleanly(n, p, r, R):
    # "--opt=value" so that negative values reach the option's own check
    argv = ["eig-shell", f"--n={n}", f"--p={p!r}", f"--r={r!r}", f"--R={R!r}"]
    assert run_command(argv) in (0, 1, 2)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(n=st.sampled_from([2, 3]),
       r=_fuzz_number(-1.0, 50.0, (0.05, 3.0)),
       p=_fuzz_number(0.5, 1e3, (1.05, 8.0)),
       delta=_fuzz_number(-1.0, 2e3, (0.01, 3.0)),
       beta=_fuzz_number(-1.0, 1e300, (0.01, 10.0)))
def test_cli_insulation_fuzz_exits_cleanly(tmp_path_factory, n, r, p, delta, beta):
    # ball cores take the closed-form path, a few milliseconds per example
    body = tmp_path_factory.mktemp("fuzz") / "ball.json"
    body.write_text(json.dumps({"schema": 1, "kind": "ball", "n": n, "params": {"r": r}}))
    argv = ["insulation", "--body", str(body), f"--p={p!r}", f"--delta={delta!r}",
            f"--beta={beta!r}"]
    assert run_command(argv) in (0, 1, 2)


# thicknesses log-uniform over the whole floating-point range
_EXTREME_DELTAS = st.builds(lambda e: 10.0 ** e, st.floats(-300.0, 300.0))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(delta=st.one_of(_EXTREME_DELTAS, _fuzz_number(-1.0, 50.0, (0.01, 3.0))))
def test_cli_insulation_oval_delta_fuzz_exits_cleanly(tmp_path_factory, delta):
    # a non-round planar core at p = 2 takes the spectral solver on the shell
    body = tmp_path_factory.mktemp("fuzz") / "oval.json"
    body.write_text(json.dumps(FOURIER_SPEC))
    argv = ["insulation", "--body", str(body), f"--delta={delta!r}", "--beta=1.0"]
    assert run_command(argv) in (0, 1, 2)


# non-round cores off the ball and off p = 2 take the one-sided
# parallel-coordinate bound: Fourier ovals of up to four modes and
# revolution bodies, amplitudes as in _RFK_FOURIER_HOLES so that most stay
# (h-)convex; the thickness and the Robin parameter are log-uniform
_ONE_SIDED_CORES = st.one_of(
    st.builds(lambda a0, rel: dict(FOURIER_SPEC, params={
                  "a0": a0, "cos": [a0 * c / (k * k) for k, c in enumerate(rel, start=1)]}),
              st.floats(0.05, 2.0), st.lists(st.floats(-0.4, 0.4), min_size=1, max_size=4)),
    st.builds(lambda n, a0, c: {"schema": 1, "kind": "revolution", "n": n,
                                "params": {"a0": a0, "cos_even": [a0 * c]}},
              st.integers(3, 5), st.floats(0.05, 2.0), st.floats(-0.2, 0.2)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(spec=_ONE_SIDED_CORES,
       p=st.one_of(st.floats(1.01, 1.2), st.floats(1.01, 8.0)).filter(lambda p: p != 2.0),
       delta=st.builds(lambda e: 10.0 ** e, st.floats(-6.0, math.log10(30.0))),
       beta=st.builds(lambda e: 10.0 ** e, st.floats(-12.0, 12.0)))
def test_cli_insulation_one_sided_fuzz_exits_cleanly(tmp_path_factory, spec, p, delta, beta):
    body = tmp_path_factory.mktemp("fuzz") / "core.json"
    body.write_text(json.dumps(spec))
    _exits_cleanly(["insulation", "--body", str(body), f"--p={p!r}", f"--delta={delta!r}",
                    f"--beta={beta!r}"])


_FUZZ_DIMENSIONS = st.one_of(st.integers(2, 8), st.integers(-3, 300), st.integers(-10**6, 10**6))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(n=_FUZZ_DIMENSIONS, r=_fuzz_number(-1.0, 50.0, (0.05, 2.0)))
def test_cli_quermass_dimension_fuzz_exits_cleanly(tmp_path_factory, n, r):
    body = tmp_path_factory.mktemp("fuzz") / "ball.json"
    body.write_text(json.dumps({"schema": 1, "kind": "ball", "n": n, "params": {"r": r}}))
    assert run_command(["quermass", "--body", str(body)]) in (0, 1, 2)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(n=_FUZZ_DIMENSIONS, r=_fuzz_number(-1.0, 50.0, (0.05, 2.0)))
def test_cli_ball_tables_dimension_fuzz_exits_cleanly(n, r):
    assert run_command(["ball-tables", f"--n={n}", f"--r={r!r}"]) in (0, 1, 2)


_FUZZ_BODIES = st.sampled_from([
    BALL_SPEC, FOURIER_SPEC,
    {"schema": 1, "kind": "revolution", "n": 3, "params": {"a0": 1.0, "cos_even": [0.05]}}])
_FUZZ_DISTANCE = _fuzz_number(-1.0, 1e3, (0.0, 3.0))


def _exits_cleanly(argv):
    # capsys is function-scoped, so each example captures stderr itself
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run_command(argv)
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(spec=_FUZZ_BODIES, start=_FUZZ_DISTANCE, stop=_FUZZ_DISTANCE, num=st.integers(-1, 32),
       match=st.sampled_from(["quermass", "perimeter"]), force=st.booleans())
def test_cli_nagy_deltas_fuzz_exits_cleanly(tmp_path_factory, spec, start, stop, num, match,
                                            force):
    body = tmp_path_factory.mktemp("fuzz") / "body.json"
    body.write_text(json.dumps(spec))
    argv = ["nagy", "--body", str(body), f"--deltas={start!r}:{stop!r}:{num}", "--match", match]
    _exits_cleanly(argv + ["--force"] * force)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
# in-range indices are drawn as often as the full range, as in _fuzz_number
@given(spec=_FUZZ_BODIES, i=st.one_of(st.none(), st.integers(0, 1), st.integers(-2, 6)),
       j=st.one_of(st.none(), st.integers(1, 2), st.integers(-2, 6)))
def test_cli_af_check_indices_fuzz_exits_cleanly(tmp_path_factory, spec, i, j):
    body = tmp_path_factory.mktemp("fuzz") / "body.json"
    body.write_text(json.dumps(spec))
    argv = ["af-check", "--body", str(body)]
    _exits_cleanly(argv + [f"--i={i}"] * (i is not None) + [f"--j={j}"] * (j is not None))


# (hole radius, outer radius, offset): half of the draws nest the hole inside
# the outer ball, from thick shells down to ones too thin to settle
_RFK_BALLS = st.one_of(
    st.builds(lambda r, width, shift: (r, r + width, shift * width),
              st.floats(0.05, 2.5), st.floats(0.02, 2.0), st.floats(0.0, 0.95)),
    st.tuples(_fuzz_number(-1.0, 4.0, (0.05, 2.0)), _fuzz_number(-1.0, 5.0, (0.1, 3.0)),
              _fuzz_number(-1.0, 3.0, (0.0, 0.5))))


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(balls=_RFK_BALLS, n_deltas=st.one_of(st.integers(2, 16), st.integers(-1, 4)))
def test_cli_rfk_fuzz_exits_cleanly(tmp_path_factory, balls, n_deltas):
    # p = 2 takes the spectral eigensolve; a domain that does not settle
    # within its unknowns must exit 1 like any other failure.  hersch builds
    # the same table without the eigensolve
    r, R, offset = balls
    dom = tmp_path_factory.mktemp("fuzz") / "dom.json"
    dom.write_text(json.dumps(dict(DOMAIN_SPEC, inner=dict(BALL_SPEC, params={"r": r}),
                                   outer=dict(BALL_SPEC, params={"r": R}), offset=offset)))
    for command in ("rfk", "hersch"):
        _exits_cleanly([command, "--domain", str(dom), "--p=2", f"--n-deltas={n_deltas}"])


# (a0, relative cos amplitudes, gap to the outer ball): wavy holes of up to
# six modes, amplitude k^-2 of a0 times the draw so that most stay convex,
# inside a centred ball from thick shells down to thin ones; half of the
# draws are in range, as in _RFK_BALLS
_RFK_FOURIER_HOLES = st.one_of(
    st.tuples(st.floats(0.05, 2.0), st.lists(st.floats(-0.4, 0.4), min_size=1, max_size=6),
              st.floats(0.02, 1.5)),
    st.tuples(_fuzz_number(-1.0, 3.0, (0.05, 2.0)),
              st.lists(_fuzz_number(-2.0, 2.0, (-0.4, 0.4)), min_size=1, max_size=6),
              _fuzz_number(-1.0, 2.0, (0.02, 1.5))))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(hole=_RFK_FOURIER_HOLES)
def test_cli_rfk_fourier_hole_fuzz_exits_cleanly(tmp_path_factory, hole):
    # the spectral eigensolve on wavy holes and thin shells; non-convex holes
    # and outer balls that do not contain the hole are usage errors
    a0, rel, gap = hole
    cos = [a0 * c / (k * k) for k, c in enumerate(rel, start=1)]
    R = a0 + sum(abs(c) for c in cos) + gap
    dom = tmp_path_factory.mktemp("fuzz") / "dom.json"
    inner = dict(FOURIER_SPEC, params={"a0": a0, "cos": cos})
    outer = dict(BALL_SPEC, params={"r": R})
    dom.write_text(json.dumps(dict(DOMAIN_SPEC, inner=inner, outer=outer)))
    _exits_cleanly(["rfk", "--domain", str(dom), "--p=2", "--n-deltas=16"])


@pytest.mark.parametrize("command", ["rfk", "hersch"])
def test_cli_too_small_table_is_usage_error(tmp_path, capsys, command):
    # fewer than two rows used to end in a traceback
    dom = write(tmp_path, "dom.json", DOMAIN_SPEC)
    for option, value in (("--n-deltas", "0"), ("--n-deltas", "1")):
        assert run_command([command, "--domain", dom, option, value]) == 1, (option, value)
        err = capsys.readouterr().err
        assert "usage error" in err and "Traceback" not in err, (option, value)


def test_cli_insulation_has_no_mesh_size(tmp_path, capsys):
    # the planar p = 2 energy is spectral and sets its own resolution
    body = write(tmp_path, "oval.json", FOURIER_SPEC)
    code = run_command(["insulation", "--body", body, "--delta", "0.8",
                        "--beta", "1.0", "--h-mesh", "0.01"])
    assert code == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "Traceback" not in err


def test_cli_rfk_concentric_small(tmp_path):
    dom = write(tmp_path, "dom.json", DOMAIN_SPEC)
    out = tmp_path / "o"
    code = run_command(["rfk", "--domain", dom, "--p", "2", "--h-mesh", "0.03",
                        "--n-deltas", "96", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "rfk.json").read_text())
    assert doc["chain_ok"] is True
    assert doc["equality_detected"] is True
    assert (out / "parallels.csv").read_text().splitlines()[0] == "delta,L,Ltilde"


OFFSET_DOMAIN_SPEC = dict(DOMAIN_SPEC, inner=dict(BALL_SPEC, params={"r": 0.8}),
                          outer=dict(BALL_SPEC, params={"r": 1.8}), offset=0.2)


def test_cli_rfk_reports_the_rays_its_table_used(tmp_path):
    # the rays come from the table's own error estimate: on the benchmark's
    # offset ball 64 settle it, and the manifest and the meta say so
    dom = write(tmp_path, "dom.json", OFFSET_DOMAIN_SPEC)
    out = tmp_path / "o"
    assert run_command(["rfk", "--domain", dom, "--out", str(out)]) == 0
    doc = json.loads((out / "rfk.json").read_text())
    assert doc["manifest"]["resolutions"]["grid_res"] == doc["meta"]["grid_res"] == 64


@pytest.mark.parametrize("p", [2.0, 1.5])
def test_cli_manifests_record_the_mesh_size_only_where_a_mesh_is_built(tmp_path, p):
    # p = 2 takes the spectral solver, which builds no P1 mesh
    dom = write(tmp_path, "dom.json", DOMAIN_SPEC)
    mesh = {} if p == 2.0 else {"h_mesh": 0.03}
    for command, extra, table in (("eig-domain", [], {}),
                                  ("rfk", ["--n-deltas", "64"], {"n_deltas": 64, "grid_res": 64})):
        out = tmp_path / command
        assert run_command([command, "--domain", dom, "--p", repr(p), "--h-mesh", "0.03",
                            *extra, "--out", str(out)]) == 0
        doc = json.loads((out / f"{command.replace('-', '_')}.json").read_text())
        assert doc["manifest"]["resolutions"] == {**mesh, **table}, command


def test_cli_eig_domain(tmp_path):
    dom = write(tmp_path, "dom.json", DOMAIN_SPEC)
    code = run_command(["eig-domain", "--domain", dom, "--h-mesh", "0.03"])
    assert code == 0


def test_cli_eig_domain_p2_is_spectral(tmp_path):
    # P1 at the default h = 0.01 read 1.124078489 here, 1.4e-4 high
    dom = write(tmp_path, "dom.json", OFFSET_DOMAIN_SPEC)
    out = tmp_path / "o"
    assert run_command(["eig-domain", "--domain", dom, "--out", str(out)]) == 0
    doc = json.loads((out / "eig_domain.json").read_text())
    res = mixed_eigenpair(load_domain(dom))
    assert doc["tau1"] == res.value
    assert doc["residuals"] == {"step": res.step} and res.step <= 1e-11
    assert doc["meta"] == {"n_theta": res.n_theta, "n_s": res.n_s}


def test_cli_hersch(tmp_path):
    dom = write(tmp_path, "dom.json", DOMAIN_SPEC)
    out = tmp_path / "o"
    code = run_command(["hersch", "--domain", dom, "--n-deltas", "96", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "hersch.json").read_text())
    assert doc["hersch_bound"] == pytest.approx(1.3576, rel=2e-3)


def test_cli_nagy_empty_delta_grid_is_usage_error(tmp_path):
    # an empty grid would pass the comparison vacuously
    body = write(tmp_path, "b.json", BALL_SPEC)
    assert run_command(["nagy", "--body", body, "--deltas", "0:1:0"]) == 1


def test_cli_nagy_nonfinite_deltas_is_usage_error(tmp_path):
    body = write(tmp_path, "b.json", BALL_SPEC)
    assert run_command(["nagy", "--body", body, "--deltas", "0:nan:3"]) == 1
    assert run_command(["nagy", "--body", body, "--deltas", "0:inf:3"]) == 1


def test_cli_af_check_needs_both_indices(tmp_path):
    spec = {"schema": 1, "kind": "revolution", "n": 3,
            "params": {"a0": 1.0, "cos_even": [0.05]}}
    body = write(tmp_path, "rev.json", spec)
    assert run_command(["af-check", "--body", body, "--i", "0"]) == 1
    assert run_command(["af-check", "--body", body, "--j", "1"]) == 1


def test_cli_cached_parser_matches_fresh_processes(tmp_path, capsys):
    # one process parses every command with the same parser; each command,
    # also one run after a usage error, ends as it does in a fresh process
    body = write(tmp_path, "f.json", FOURIER_SPEC)
    commands = [SHELL_ARGS, ["nagy", "--body", body], ["nagy", "--body", body, "--deltas", "oops"],
                SHELL_ARGS]
    env = dict(os.environ, PYTHONPATH=str(Path(horokit.__file__).parents[1]))

    def reports(out):
        # manifests carry wall times; the reports themselves are deterministic
        return {p.name: p.read_bytes() for p in sorted(out.glob("*"))
                if not p.name.endswith(".manifest.json")}

    def here(argv, out):
        code = run_command(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err, reports(out)

    def fresh(argv, out):
        proc = subprocess.run([sys.executable, "-m", "horokit.cli", *argv, "--out", str(out)],
                              capture_output=True, text=True, env=env, check=False)
        return proc.returncode, proc.stdout, proc.stderr, reports(out)

    runs = [(here(argv, tmp_path / f"here{k}"), fresh(argv, tmp_path / f"fresh{k}"))
            for k, argv in enumerate(commands)]
    assert [h[0] for h, _ in runs] == [0, 0, 1, 0]
    assert runs[1][0][3] and "usage error" in runs[2][0][2]
    for (h, f), argv in zip(runs, commands):
        assert h == f, argv
    assert make_parser() is make_parser()
