"""One workload round in a fresh process: set up, run the commands, check.

Usage: python3 bench/worker.py --workload NAME --seed N --work DIR [--setup-only] [--trace]

Imports horokit from the checkout's src directory (never an installed
copy), writes the round's inputs, then runs every command through
horokit.cli.run_command.  The timed span ends when the last report is
written; the checks run after it.  The last line of standard output is one
JSON object with the round's figures.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_horokit():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import horokit.cli
    if not Path(horokit.cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"horokit imported from {horokit.cli.__file__}, not {src}")
    return horokit.cli


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    cli = _import_horokit()
    import checks
    import workloads
    commands = workloads.plan(args.workload, args.seed, args.work)
    result = {"setup_done": time.monotonic()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    codes, logs = [], []
    start = time.perf_counter()
    for cmd in commands:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                codes.append(cli.run_command(cmd.argv))
        except Exception:  # a crash is one failed command, not a failed round
            codes.append(None)
            sink.write(traceback.format_exc())
        logs.append(sink.getvalue())
    wall_s = time.perf_counter() - start

    failed = wrong = 0
    accuracy = {}
    for cmd, code, log in zip(commands, codes, logs):
        if code != 0:
            failed += 1
            print(f"failed: horokit {' '.join(cmd.argv)}: exit {code}\n{log}", file=sys.stderr)
            continue
        try:
            for name, value in cmd.check().items():
                accuracy[name] = max(accuracy.get(name, 0.0), value)
        except (checks.CheckError, OSError, KeyError, ValueError) as exc:
            failed += 1
            wrong += 1
            print(f"check failed: horokit {' '.join(cmd.argv)}: {exc!r}", file=sys.stderr)

    result.update(
        wall_s=wall_s,
        attempted=len(commands),
        failed=failed,
        wrong=wrong,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        layers={**tracer.metrics(wall_s), **accuracy} if tracer else {},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
