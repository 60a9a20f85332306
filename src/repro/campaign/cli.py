"""``python -m repro campaign`` — the campaign operator interface.

Subcommands::

    campaign run [--budget N] [--seed S] [--include-planted]
                 [--results-dir DIR] [--only CONFIG[,CONFIG...]]
        Sweep the first N cells of the strategy x schedule x protocol
        matrix; print one line per run, emit repro specs for failures,
        write BENCH_campaign.json, exit non-zero on *unexpected*
        failures.  ``--only`` restricts the sweep to the named protocol
        configs (e.g. ``--only aba,aba-unanimous`` for the asynchronous
        cells).

    campaign replay <spec...>
        Re-execute one repro-spec line exactly and print its verdict.

    campaign minimize <spec...>
        Greedily shrink a failing spec to a 1-minimal failing instance.

    campaign list
        Show the matrix, the strategy catalog, and the schedules.
"""

from __future__ import annotations

import argparse
from typing import List

from repro.campaign.matrix import default_matrix
from repro.campaign.minimize import minimize_failure
from repro.campaign.runner import RunOutcome, execute_spec, run_campaign
from repro.campaign.schedules import default_schedules
from repro.campaign.spec import format_spec, parse_spec
from repro.campaign.catalog import default_catalog
from repro.errors import ConfigurationError


def _print_outcome(outcome: RunOutcome) -> None:
    verdict = "PASS"
    if outcome.failed:
        verdict = "EXPECTED-FAIL" if outcome.expected_failure else "FAIL"
    print(f"{verdict}  {format_spec(outcome.spec)}")
    for violation in outcome.violations:
        print(f"  violation {violation.name}: {violation.detail}")
    if outcome.error is not None:
        print(f"  loud {outcome.error_type}: {outcome.error}")
    if outcome.measured_bits is not None:
        line = f"  max_bits_per_party={outcome.measured_bits:,}"
        if outcome.budget_bits is not None:
            line += (
                f" budget={outcome.budget_bits:,} "
                f"(ratio {outcome.measured_bits / outcome.budget_bits:.2f})"
            )
        print(line)
    if outcome.failed:
        print(f"  signature: {','.join(outcome.signature)}")


def _cmd_run(args: argparse.Namespace) -> int:
    only = None
    if args.only:
        only = [name for name in args.only.split(",") if name]
        if not only:
            raise ConfigurationError("--only given but no config names parsed")
    summary = run_campaign(
        args.budget,
        args.seed,
        include_planted=args.include_planted,
        results_dir=args.results_dir,
        emit=print,
        only=only,
    )
    print(
        f"campaign: {len(summary.outcomes)} runs, {summary.passed} passed, "
        f"{summary.expected_failures} expected failures, "
        f"{len(summary.unexpected_failures)} unexpected failures"
    )
    if summary.bench_path is not None:
        print(f"summary -> {summary.bench_path}")
    if not summary.ok:
        print("unexpected failures (replay with "
              "`python -m repro campaign replay <spec>`):")
        for outcome in summary.unexpected_failures:
            print(f"  {format_spec(outcome.spec)}")
        return 1
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    spec = parse_spec(" ".join(args.spec))
    outcome = execute_spec(spec)
    _print_outcome(outcome)
    return 1 if outcome.unexpected else 0


def _cmd_minimize(args: argparse.Namespace) -> int:
    spec = parse_spec(" ".join(args.spec))
    result = minimize_failure(spec, emit=print)
    print(f"original : {format_spec(result.original.spec)}")
    print(f"minimized: {format_spec(result.minimized.spec)}")
    print(
        f"signature: {','.join(result.signature)}  "
        f"({result.attempts} attempts, "
        f"removed {len(result.removed_corrupt)} corrupt, "
        f"{len(result.removed_crashes)} crashes)"
    )
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    catalog = default_catalog()
    print("protocol configs:")
    for config in default_matrix():
        print(
            f"  {config.name:<22} kind={config.kind:<12} n={config.n:<4} "
            f"schedules={','.join(config.schedules)}"
        )
    print("strategies:")
    for strategy in catalog.strategies:
        planted = "  [PLANTED]" if strategy.expect_violation else ""
        print(
            f"  {strategy.name:<20} kinds={','.join(strategy.kinds)}"
            f"{planted}\n      {strategy.description}"
        )
    print("schedules:")
    for schedule in default_schedules():
        flags = []
        if schedule.needs_runtime:
            flags.append("runtime")
        if schedule.model_breaking:
            flags.append("model-breaking")
        suffix = f"  [{','.join(flags)}]" if flags else ""
        print(f"  {schedule.name:<16} {schedule.description}{suffix}")
    return 0


def cmd_campaign(argv: List[str]) -> int:
    """Entry point used by ``repro.__main__``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description="adversarial conformance campaigns",
    )
    sub = parser.add_subparsers(dest="action")

    run_p = sub.add_parser("run", help="sweep the matrix")
    run_p.add_argument("--budget", type=int, default=25,
                       help="number of cells to run (default 25)")
    run_p.add_argument("--seed", type=int, default=0,
                       help="campaign seed (default 0)")
    run_p.add_argument("--include-planted", action="store_true",
                       help="include the planted over-threshold strategies")
    run_p.add_argument("--results-dir", default="benchmarks/results",
                       help="where BENCH_campaign.json lands")
    run_p.add_argument("--only", default=None, metavar="CONFIG[,CONFIG...]",
                       help="restrict the sweep to these protocol configs "
                            "(comma-separated; unknown names are loud)")
    run_p.set_defaults(func=_cmd_run)

    replay_p = sub.add_parser("replay", help="re-execute one repro spec")
    replay_p.add_argument("spec", nargs="+",
                          help="the campaign/1 spec line (may be quoted)")
    replay_p.set_defaults(func=_cmd_replay)

    minimize_p = sub.add_parser("minimize", help="shrink a failing spec")
    minimize_p.add_argument("spec", nargs="+",
                            help="the campaign/1 spec line (may be quoted)")
    minimize_p.set_defaults(func=_cmd_minimize)

    list_p = sub.add_parser("list", help="show matrix/catalog/schedules")
    list_p.set_defaults(func=_cmd_list)

    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    return args.func(args)
