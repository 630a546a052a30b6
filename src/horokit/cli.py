"""Command-line surface.

Exit codes: 0 for success / verdict-true runs, 2 when a tabulated
inequality fails beyond tolerance (a finding, not a crash), 1 for errors
of any kind including bad usage.
"""

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import io as hio
from .core import ball_perimeter, ball_quermass, ball_volume
from .bodies import boundary_measures, quermassintegrals
from .nagy import af_check, isoperimetric_check_2d, nagy_table, TOL_NUM_REL
from .shell import TAU_RTOL, ShellSpec, shell_eigen
from .fem2d import build_mesh, eigen_p_general
from .fem2d import eigen_p2  # not called; bench/tracing.py wraps it here until ROADMAP item 1
from .spectral import mixed_eigenpair
from .parallels import (
    DEFAULT_N_DELTAS,
    MIN_N_DELTAS,
    build_parallel_table,
    hersch_bound,
    rfk_verdict,
)
from .insulation import InsulationSpec, insulation_verdict
from .errors import HorokitError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_float(text):
    """argparse type for sizes and tolerances: a finite float > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _parse_deltas(text):
    try:
        a, b, num = text.split(":")
        start, stop, num = float(a), float(b), int(num)
    except ValueError:
        raise _UsageError(f"--deltas expects start:stop:num, got {text!r}")
    if not (np.isfinite(start) and np.isfinite(stop)) or num < 1:
        raise _UsageError(f"--deltas needs finite start and stop and num >= 1, got {text!r}")
    return np.linspace(start, stop, num)


def _parallel_table(args, dom, manifest):
    """The table, with the rays it settled on recorded as the manifest's grid_res."""
    if args.n_deltas < MIN_N_DELTAS:
        raise _UsageError(f"--n-deltas needs at least {MIN_N_DELTAS} rows, got {args.n_deltas}")
    table = build_parallel_table(dom, n_deltas=args.n_deltas)
    manifest.resolutions["grid_res"] = table.grid_res
    return table


def _outdir(args):
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(args, manifest, name, payload=None, csv_writer=None):
    out = _outdir(args)
    if out is None:
        return
    if payload is not None:
        hio.write_json_report(payload, manifest, out / f"{name}.json")
    if csv_writer is not None:
        csv_writer(out)
    hio.write_manifest(manifest, out / f"{name}.manifest.json")


def cmd_ball_tables(args):
    manifest = hio.RunManifest("ball-tables", {"n": args.n, "r": args.r})
    rows = []
    for r in args.r:
        qv = ball_quermass(args.n, r)
        rows.append([r, ball_volume(args.n, r), ball_perimeter(args.n, r),
                     *[qv[j] for j in range(args.n + 1)]])
    header = ["r", "volume", "perimeter"] + [f"W{j}" for j in range(args.n + 1)]
    _emit(args, manifest, "ball_tables",
          csv_writer=lambda out: hio.write_csv(out / "ball_tables.csv", header, rows))
    for row in rows:
        print(" ".join(f"{x:.12g}" for x in row))
    return 0


def cmd_quermass(args):
    manifest = hio.RunManifest("quermass", {"body": args.body})
    body, report = hio.load_body(args.body)
    qv = quermassintegrals(body)
    meas = boundary_measures(body)
    payload = {"n": body.n, "w": list(qv.w), "perimeter": meas["perimeter"],
               "volume": meas["volume"],
               "convexity": {"min_curvature": report.min_curvature,
                             "is_convex": report.is_convex,
                             "is_h_convex": report.is_h_convex}}
    _emit(args, manifest, "quermass", payload)
    print(f"W = {[f'{w:.10g}' for w in qv.w]}")
    print(f"convex={report.is_convex} h-convex={report.is_h_convex}")
    return 0


def cmd_nagy(args):
    manifest = hio.RunManifest("nagy", {"body": args.body, "match": args.match,
                                        "deltas": args.deltas, "force": args.force},
                               tolerances={"tol_num_rel": TOL_NUM_REL})
    body, _ = hio.load_body(args.body)
    grid = _parse_deltas(args.deltas) if args.deltas else None
    report = nagy_table(body, delta_grid=grid, force=args.force, match=args.match)
    payload = hio.nagy_report_payload(report)
    _emit(args, manifest, "nagy", payload,
          csv_writer=lambda out: hio.write_nagy_csv(report, out / "nagy.csv"))
    if not report.hypotheses_ok:
        print("warning: body is outside the supported hypotheses; "
              "comparison is exploratory, not a theorem check", file=sys.stderr)
    print(f"r_star = {report.r_star:.12g}  verdict = {report.verdict}  "
          f"equality = {report.equality_detected}")
    return 0 if report.verdict else 2


def cmd_af_check(args):
    if (args.i is None) != (args.j is None):
        raise _UsageError("--i and --j must be given together")
    manifest = hio.RunManifest("af-check", {"body": args.body, "i": args.i, "j": args.j,
                                            "force": args.force})
    body, _ = hio.load_body(args.body)
    n = body.n
    pairs = [(args.i, args.j)] if args.i is not None else \
        [(i, j) for i in range(n) for j in range(i + 1, n)]
    results = []
    ok = True
    for (i, j), margin in zip(pairs, af_check(body, pairs, force=args.force)):
        results.append({"i": i, "j": j, "margin": margin})
        ok = ok and margin >= -1e-8
        print(f"({i},{j}): margin = {margin:.6e}")
    _emit(args, manifest, "af_check", {"margins": results, "verdict": ok})
    return 0 if ok else 2


def cmd_isoperimetric(args):
    manifest = hio.RunManifest("isoperimetric", {"body": args.body})
    body, _ = hio.load_body(args.body)
    deficit = isoperimetric_check_2d(body)
    meas = boundary_measures(body)
    ok = deficit >= -1e-8 * meas["perimeter"] ** 2
    _emit(args, manifest, "isoperimetric", {"deficit": deficit, "verdict": ok})
    print(f"deficit = {deficit:.6e}")
    return 0 if ok else 2


def cmd_eig_shell(args):
    manifest = hio.RunManifest("eig-shell",
                               {"n": args.n, "p": args.p, "r": args.r, "R": args.R},
                               tolerances={"tau_tol": TAU_RTOL})
    spec = ShellSpec(n=args.n, p=args.p, r=args.r, R=args.R)
    res = shell_eigen(spec)
    payload = {"tau1": res.tau1, "residuals": res.residuals, "meta": res.meta}
    _emit(args, manifest, "eig_shell", payload,
          csv_writer=lambda out: hio.write_profile_csv(res, out / "profile.csv"))
    print(f"tau1 = {res.tau1:.12g}")
    return 0


def _mesh_size(args):
    """The P1 mesh size, as a resolution, where p != 2 builds that mesh."""
    return {} if args.p == 2.0 else {"h_mesh": args.h_mesh}


def cmd_eig_domain(args):
    manifest = hio.RunManifest("eig-domain", {"domain": args.domain, "p": args.p},
                               resolutions=_mesh_size(args))
    dom = hio.load_domain(args.domain)
    if args.p == 2.0:
        res = mixed_eigenpair(dom)
        tau1, residuals, meta = res.value, {"step": res.step}, {"n_theta": res.n_theta, "n_s": res.n_s}
    else:
        res = eigen_p_general(build_mesh(dom, args.h_mesh), args.p)
        tau1, residuals, meta = res.tau1, res.residuals, res.meta
    _emit(args, manifest, "eig_domain", {"tau1": tau1, "residuals": residuals, "meta": meta})
    print(f"tau1 = {tau1:.12g}")
    return 0


def cmd_hersch(args):
    manifest = hio.RunManifest("hersch", {"domain": args.domain, "p": args.p},
                               resolutions={"n_deltas": args.n_deltas})
    dom = hio.load_domain(args.domain)
    table = _parallel_table(args, dom, manifest)
    bound = hersch_bound(table, args.p)
    payload = {"hersch_bound": bound, "delta0": table.delta0,
               "r": table.r_match, "R": table.R_match}
    _emit(args, manifest, "hersch", payload,
          csv_writer=lambda out: hio.write_parallel_table_csv(table, out / "parallels.csv"))
    print(f"hersch bound = {bound:.12g}  delta0 = {table.delta0:.12g}")
    return 0


def cmd_rfk(args):
    manifest = hio.RunManifest("rfk", {"domain": args.domain, "p": args.p},
                               resolutions={**_mesh_size(args), "n_deltas": args.n_deltas})
    dom = hio.load_domain(args.domain)
    table = _parallel_table(args, dom, manifest)
    report = rfk_verdict(dom, args.p, table, h_mesh=args.h_mesh)
    payload = hio.rfk_report_payload(report)
    _emit(args, manifest, "rfk", payload,
          csv_writer=lambda out: hio.write_parallel_table_csv(table, out / "parallels.csv"))
    print(f"tau(domain) = {report.tau_omega:.10g} <= bound = {report.hersch_bound:.10g}"
          f" <= tau(annulus) = {report.tau_annulus:.10g}  chain_ok = {report.chain_ok}")
    return 0 if report.chain_ok else 2


def cmd_insulation(args):
    manifest = hio.RunManifest("insulation",
                               {"body": args.body, "delta": args.delta,
                                "beta": args.beta, "p": args.p})
    body, _ = hio.load_body(args.body)
    spec = InsulationSpec(p=args.p, body=body, delta=args.delta, beta=args.beta)
    report = insulation_verdict(spec)
    payload = hio.insulation_report_payload(report)
    _emit(args, manifest, "insulation", payload)
    print(f"E(body) = {report.energy_body:.10g}  E(ball) = {report.energy_ball:.10g}"
          f"  margin = {report.margin:.6e}")
    return 0 if report.margin >= -1e-6 * report.energy_ball else 2


def cmd_selftest(args):
    from . import selftest
    return selftest.run(verbose=True)


def _table_options(sp):
    sp.add_argument("--n-deltas", type=int, default=DEFAULT_N_DELTAS,
                    help="rows of the parallel-length table")


@functools.cache
def make_parser():
    """The argument parser, built once per process: parsing leaves it as it
    was, and each cmd_* looks up its layers when it runs."""
    parser = _Parser(prog="horokit", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ball-tables", help="ball measures and quermass vectors")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r", type=_positive_float, nargs="+", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_ball_tables)

    sp = sub.add_parser("quermass", help="quermass vector of a body")
    sp.add_argument("--body", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_quermass)

    sp = sub.add_parser("nagy", help="parallel-perimeter comparison table")
    sp.add_argument("--body", required=True)
    sp.add_argument("--deltas", help="start:stop:num")
    sp.add_argument("--match", choices=["quermass", "perimeter"], default="quermass")
    sp.add_argument("--force", action="store_true",
                    help="compute outside the supported hypotheses")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_nagy)

    sp = sub.add_parser("af-check", help="quermassintegral comparison margins")
    sp.add_argument("--body", required=True)
    sp.add_argument("--i", type=int)
    sp.add_argument("--j", type=int)
    sp.add_argument("--force", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_af_check)

    sp = sub.add_parser("isoperimetric", help="planar isoperimetric deficit")
    sp.add_argument("--body", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_isoperimetric)

    sp = sub.add_parser("eig-shell", help="first mixed eigenvalue on a shell")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--r", type=float, required=True)
    sp.add_argument("--R", type=float, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_eig_shell)

    sp = sub.add_parser("eig-domain", help="first mixed eigenvalue on a planar domain")
    sp.add_argument("--domain", required=True)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--h-mesh", type=_positive_float, default=0.01,
                    help="P1 mesh size for p != 2 (p = 2 is spectral)")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_eig_domain)

    sp = sub.add_parser("hersch", help="interior-parallels upper bound")
    sp.add_argument("--domain", required=True)
    sp.add_argument("--p", type=float, default=2.0)
    _table_options(sp)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_hersch)

    sp = sub.add_parser("rfk", help="annulus comparison for the first eigenvalue")
    sp.add_argument("--domain", required=True)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--h-mesh", type=_positive_float, default=0.01,
                    help="P1 mesh size for p != 2 (p = 2 is spectral)")
    _table_options(sp)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_rfk)

    sp = sub.add_parser("insulation", help="insulation energy comparison")
    sp.add_argument("--body", required=True)
    sp.add_argument("--delta", type=_positive_float, required=True)
    sp.add_argument("--beta", type=_positive_float, required=True)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_insulation)

    sp = sub.add_parser("selftest", help="run the condensed invariant suite")
    sp.set_defaults(func=cmd_selftest)
    return parser


def run_command(argv):
    """Parse and execute; returns the process exit code."""
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except HorokitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None):
    sys.exit(run_command(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
