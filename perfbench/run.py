#!/usr/bin/env python3
"""Wall-clock SI-Rep benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload browse --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures an
untraced window, then a separate deployment with span wrappers around
each layer's entry points, and reports the per-layer metrics (see
``perfbench/layers.py``).  Either way the run's correctness is checked,
a table of every metric with its unit and sample count is printed, and
the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every check passed.  ``--workload all`` runs every workload,
each in a fresh process so that peak memory does not carry over.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space (writeset logs, span dumps), inside the checkout
SCRATCH = ROOT / ".perfbench"
#: set-ups per run; setup_s is their median (the first, which pays for
#: lazy imports and a cold collector, is slower than the rest)
SETUPS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args, workloads) -> int:
    """Each workload in its own process; fails if any of them fails."""
    status = 0
    for name in workloads:
        child = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        status = max(status, subprocess.run(child).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} is missing; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    import metrics

    if args.workload == "all":
        return run_all(args, harness.WORKLOADS)
    problem = None
    if args.workload not in harness.WORKLOADS:
        problem = f"unknown workload {args.workload!r}; pick from {sorted(harness.WORKLOADS)} or all"
    elif args.seconds <= 0:
        problem = "--seconds must be positive"
    else:
        try:
            harness.check_clients(harness.N_CLIENTS)
        except ValueError as err:
            problem = str(err)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        if args.trace:
            import layers

            result = layers.traced_run(args.workload, args.seed, args.seconds, scratch)
        else:
            result = metrics.end_to_end_run(
                args.workload, args.seed, args.seconds, scratch, SETUPS
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    metrics.print_report(result)
    print(json.dumps(result.line()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
