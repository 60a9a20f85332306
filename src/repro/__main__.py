"""Command-line entry point: ``python -m repro <command>``.

:data:`COMMANDS` is the whole CLI.  Every command is a
``cmd_*(argv) -> int`` argparse function living beside the package it
drives and imported only when dispatched; ``python -m repro <command>
--help`` documents its arguments.  Longer, annotated versions of the
demos live in ``examples/``.
"""

from __future__ import annotations

import importlib
import sys
import textwrap
from typing import Dict, List, Tuple

#: command -> (module, function, one-line help).
COMMANDS: Dict[str, Tuple[str, str, str]] = {
    "ba": ("repro.analysis.cli", "cmd_ba",
           "[n] — run pi_ba with both SRDS constructions; print "
           "agreement, certificate size, per-party communication"),
    "attacks": ("repro.analysis.cli", "cmd_attacks",
                "— the Thm 1.3 (CRS) and Thm 1.4 (OWF) attacks, summarized"),
    "tree": ("repro.analysis.cli", "cmd_tree",
             "[n] — build an almost-everywhere tree under random "
             "corruption; print its Def. 2.3 guarantees"),
    "report": ("repro.analysis.cli", "cmd_report",
               "[path] — assemble benchmarks/results/ into one "
               "measured-experiment report"),
    "runtime": ("repro.runtime.cli", "cmd_runtime",
                "[n] [local|tcp] [trace-dir] [--flow-out F] — "
                "phase-king under a hostile fault plan, then pi_ba "
                "hybrid-vs-wire-replay parity, on one row of the "
                "placement table"),
    "aba": ("repro.asynchrony.cli", "cmd_aba",
            "[n] [--seed S] [--policy P] [--latency NAME] "
            "[--adaptive NAME] [--bench DIR] — MMR14 binary agreement "
            "under asynchronous delivery; --bench records BENCH_aba.json"),
    "obs": ("repro.obs.cli", "cmd_obs",
            "{report,timeline,top,flows,diff,profile} — phase "
            "attribution, flow reports, Perfetto timelines, profiles, "
            "the bench regression gate"),
    "cluster": ("repro.cluster.cli", "cmd_cluster",
                "{run,resume,status,bench} — parties sharded across "
                "worker processes: durable checkpoints, SIGKILL "
                "recovery (run --kill 3:1), the scaling bench"),
    "serve": ("repro.serve.cli", "cmd_serve",
              "{run,client,bench} — the agreement-as-a-service gateway: "
              "concurrent sessions, amortized SRDS setup, NDJSON + "
              "GET /metrics on one port"),
    "campaign": ("repro.campaign.cli", "cmd_campaign",
                 "{run,replay,minimize,list} — adversarial conformance "
                 "sweeps: strategies x fault schedules x configs, with "
                 "replayable one-line specs"),
    "lint": ("repro.lint.cli", "cmd_lint",
             "{check,explain,rules} — protocol-aware static analysis; "
             "a finding is fixed or carries a reasoned pragma"),
}


def usage() -> str:
    """The usage text, generated from :data:`COMMANDS`."""
    lines = ["usage: python -m repro <command> [args]   "
             "(<command> --help for details)", "", "Commands:"]
    for name, (_, _, summary) in COMMANDS.items():
        lines.append(textwrap.fill(
            f"{name} {summary}", 76,
            initial_indent="  ", subsequent_indent="      ",
        ))
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if not argv or argv[0] not in COMMANDS:
        print(usage())
        return 2
    module, function, _ = COMMANDS[argv[0]]
    try:
        return getattr(importlib.import_module(module), function)(argv[1:])
    except SystemExit as exc:  # argparse: 2 on usage errors, 0 on --help
        return exc.code if isinstance(exc.code, int) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
