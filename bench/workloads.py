"""Workload inputs drawn from a seed, the horokit commands run on them, and
the check bound to each command.

The seed perturbs shapes only; resolutions, command lines and the number
of commands never depend on it.  Inputs that set the size of a mesh or the
length of a descent move little, so the work of a round is nearly the same
on every seed: radii and the chain's offset by at most RADIUS_REL and
SHAPE_REL, and non-round meshed cores only by a rotation.  A rotation keeps
the polar mesh's dimensions, hence the sparsity pattern and the splu fill,
which otherwise jumps by up to 10 % between neighbouring mesh sizes.
Bodies whose cost does not depend on their shape (nagy tables, the
revolution insulation core) are drawn from wide ranges.
"""

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("chain", "insulation", "general_p")
INSULATION_DELTA = 0.8
INSULATION_BETA = 1.0
RADIUS_REL = 0.002
SHAPE_REL = 0.01


@dataclass
class Command:
    """One CLI invocation and the check of its reports, returning accuracy figures."""

    argv: list
    check: Callable[[], dict]


def _near(rng, value, rel):
    """value perturbed by a uniform relative amount in [-rel, rel]."""
    return float(value * (1.0 + rng.uniform(-rel, rel)))


def _ball(n, r):
    return {"schema": 1, "kind": "ball", "n": n, "params": {"r": r}}


def _fourier(a0, cos, sin=()):
    return {"schema": 1, "kind": "fourier2d", "n": 2,
            "params": {"a0": a0, "cos": list(cos), "sin": list(sin)}}


def _rotated_oval(rng):
    """r = 0.8 + 0.1 cos(2 (theta - phi)) at a seed-drawn angle phi."""
    phi = rng.uniform(0.0, np.pi)
    return _fourier(0.8, [0.0, 0.1 * np.cos(2 * phi)], [0.0, 0.1 * np.sin(2 * phi)])


def _revolution(n, a0, cos_even):
    return {"schema": 1, "kind": "revolution", "n": n,
            "params": {"a0": a0, "cos_even": list(cos_even)}}


def _domain(inner, outer, offset=0.0):
    return {"schema": 1, "kind": "annular2d", "inner": inner, "outer": outer,
            "offset": offset, "offset_angle": 0.0}


def _write(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _report(out, name):
    return json.loads((out / f"{name}.json").read_text(encoding="utf-8"))


def _csv_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return [[float(x) for x in row] for row in list(csv.reader(fh))[1:]]


def _chain(rng, work):
    hole_r = _near(rng, 0.8, RADIUS_REL)
    outer_R = _near(rng, 1.8, RADIUS_REL)
    offset = _near(rng, 0.2, SHAPE_REL)
    dom = _write(work / "domain.json", _domain(_ball(2, hole_r), _ball(2, outer_R), offset))
    out = work / "rfk"

    def check():
        report = _report(out, "rfk")
        res = report["manifest"]["resolutions"]
        return checks.check_chain(report, _csv_rows(out / "parallels.csv"), hole_r,
                                  outer_R, offset, res["grid_res"], res["n_deltas"])

    return [Command(["rfk", "--domain", dom, "--p", "2", "--out", str(out)], check)]


def _insulation_command(work, name, spec, p):
    body = _write(work / f"{name}.json", spec)
    out = work / name

    def check():
        return checks.check_insulation(_report(out, "insulation"), spec["n"], spec["params"],
                                       spec["kind"], INSULATION_DELTA, INSULATION_BETA, p)

    argv = ["insulation", "--body", body, "--delta", repr(INSULATION_DELTA),
            "--beta", repr(INSULATION_BETA), "--p", repr(p), "--out", str(out)]
    return Command(argv, check)


def _insulation(rng, work):
    return [_insulation_command(work, "core", _rotated_oval(rng), 2.0)]


def _shell_command(work, name, n, p, r, R):
    out = work / name

    def check():
        return checks.check_shell(_report(out, "eig_shell"), _csv_rows(out / "profile.csv"),
                                  n, p, r, R)

    argv = ["eig-shell", "--n", str(n), "--p", repr(p), "--r", repr(r), "--R", repr(R),
            "--out", str(out)]
    return Command(argv, check)


def _fem_command(work, name, domain, p, h_mesh, compare):
    """eig-domain on a domain spec; compare(tau_fem) checks it against a shell run."""
    dom = _write(work / f"{name}.json", domain)
    out = work / name
    argv = ["eig-domain", "--domain", dom, "--p", repr(p), "--h-mesh", repr(h_mesh),
            "--out", str(out)]
    return Command(argv, lambda: compare(_report(out, "eig_domain")["tau1"]))


def _nagy_command(work, name, spec):
    body = _write(work / f"{name}.json", spec)
    out = work / name

    def check():
        return checks.check_nagy(_report(out, "nagy"), spec["n"], spec["params"], spec["kind"])

    return Command(["nagy", "--body", body, "--out", str(out)], check)


def _general_p(rng, work):
    commands = []

    hole = _rotated_oval(rng)
    outer_R = _near(rng, 1.8, RADIUS_REL)
    r_m, R_m = checks.matched_annulus(hole["params"], outer_R)
    matched = work / "hole_annulus"
    commands.append(_shell_command(work, "hole_annulus", 2, 1.5, r_m, R_m))
    commands.append(_fem_command(
        work, "hole_p1.5", _domain(hole, _ball(2, outer_R)), 1.5, 0.03,
        lambda tau: checks.check_hole_fem(tau, _report(matched, "eig_shell")["tau1"])))

    r_c, R_c = _near(rng, 0.8, RADIUS_REL), _near(rng, 1.8, RADIUS_REL)
    concentric = work / "concentric_shell"
    commands.append(_shell_command(work, "concentric_shell", 2, 3.0, r_c, R_c))
    commands.append(_fem_command(
        work, "concentric_p3", _domain(_ball(2, r_c), _ball(2, R_c)), 3.0, 0.03,
        lambda tau: checks.check_concentric_fem(tau, _report(concentric, "eig_shell")["tau1"])))

    r_g, R_g = _near(rng, 0.5, SHAPE_REL), _near(rng, 1.5, SHAPE_REL)
    for n in (2, 3):
        for p in (1.5, 2.0, 3.0):
            commands.append(_shell_command(work, f"shell_n{n}_p{p}", n, p, r_g, R_g))

    for i in range(6):
        body = _fourier(float(rng.uniform(0.7, 1.2)), [0.0, float(rng.uniform(0.02, 0.08))],
                        [0.0, 0.0, float(rng.uniform(-0.02, 0.02))])
        commands.append(_nagy_command(work, f"nagy_planar_{i}", body))
    for n in (3, 4):
        for i in range(3):
            body = _revolution(n, float(rng.uniform(0.85, 1.15)), [float(rng.uniform(0.02, 0.06))])
            commands.append(_nagy_command(work, f"nagy_rev{n}_{i}", body))
    for n in (2, 3):
        commands.append(_nagy_command(work, f"nagy_ball{n}", _ball(n, float(rng.uniform(0.6, 1.2)))))

    core = _revolution(3, float(rng.uniform(0.85, 1.0)), [float(rng.uniform(0.03, 0.05))])
    commands.append(_insulation_command(work, "core_rev3", core, 1.5))
    return commands


_PLANS = {"chain": _chain, "insulation": _insulation, "general_p": _general_p}


def plan(workload, seed, work):
    """Write the inputs of one workload round into `work` and return its commands."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    return _PLANS[workload](rng, work)
