"""CLI: ``run``, ``compare`` and ``report`` (see the package docstring)."""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import Dict, List, Optional

from benchmarks.layers import RUN_SECONDS
from benchmarks.layers.spec import WORKLOAD_WHY


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.layers")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the workloads and print every metric")
    run.add_argument("--workload", choices=list(WORKLOAD_WHY), default=None,
                     help="one workload (default: each, in its own process)")
    run.add_argument("--seed", type=int, default=2021)
    run.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                     help="op counts are fixed at this many reference-host "
                          "seconds and scale linearly with it")
    run.add_argument("--trace", nargs="?", const="both", default="0",
                     choices=("0", "1", "both"),
                     help="0: end-to-end metrics; 1: traced pass and per-layer "
                          "metrics; bare --trace: both")
    run.add_argument("--smoke", action="store_true",
                     help="n=8/16 and 3 ops: exercises every path in seconds")
    run.add_argument("--setup-only", action="store_true",
                     help=argparse.SUPPRESS)

    compare = sub.add_parser(
        "compare", help="judge run B against run A by BENCHMARK.json's bounds")
    compare.add_argument("a", help="baseline: a run file or a directory of them")
    compare.add_argument("b", help="candidate: a run file or a directory of them")

    report = sub.add_parser(
        "report", help="the where-the-time-goes table of a traced run, as Markdown")
    report.add_argument("run_file")
    return parser


def _run(ns: argparse.Namespace) -> int:
    if ns.workload is None:
        return _run_each(ns)
    from benchmarks.layers import runner

    if ns.setup_only:
        print(json.dumps(runner.setup_only(ns.workload, ns.seed, ns.smoke)))
        return 0
    entry = runner.run_workload(
        ns.workload, ns.seed, ns.seconds, ns.trace, ns.smoke
    )
    path = runner.write_results(ns.seed, {ns.workload: entry})
    runner.print_metrics(ns.workload, entry)
    print(f"results: {path}")
    # Last line: the driver's result object.
    print(json.dumps(runner.result_line(entry, ns.trace)))
    return 0


def _run_each(ns: argparse.Namespace) -> int:
    """Every workload, each in a fresh process so that set-up time and
    peak RSS are the workload's own."""
    status = 0
    for name in WORKLOAD_WHY:
        command = [
            sys.executable, "-m", "benchmarks.layers", "run",
            "--workload", name, "--seed", str(ns.seed),
            "--seconds", str(ns.seconds), "--trace", ns.trace,
        ]
        if ns.smoke:
            command.append("--smoke")
        status |= subprocess.run(command, check=False).returncode
    return status


def main(argv: Optional[List[str]] = None) -> int:
    ns = _parser().parse_args(argv)
    if ns.command == "run":
        return _run(ns)
    if ns.command == "compare":
        from benchmarks.layers.compare import main as compare_main

        return compare_main(ns.a, ns.b)
    from benchmarks.layers.report import main as report_main

    return report_main(ns.run_file)


if __name__ == "__main__":
    sys.exit(main())
