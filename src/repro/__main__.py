"""Command-line entry point: ``python -m repro <command>``.

:data:`COMMANDS` is the whole CLI.  Every command is a
``cmd_*(argv) -> int`` argparse function living beside the package it
drives and imported only when dispatched; ``python -m repro <command>
--help`` documents its arguments.  Usage errors exit 2; any
:class:`~repro.errors.ReproError` a command raises becomes one
``error: ...`` line on stderr and exit 1.  Longer, annotated versions
of the demos live in ``examples/``.
"""

from __future__ import annotations

import importlib
import sys
import textwrap
from typing import Dict, List, Tuple

from repro.errors import ReproError

#: command -> (module, function, one-line help).
COMMANDS: Dict[str, Tuple[str, str, str]] = {
    "ba": ("repro.analysis.cli", "cmd_ba",
           "[n] [--out DIR] — pi_ba under both SRDS constructions: "
           "agreement, certificate size, per-phase and per-party tables, "
           "the phase-sum invariant (exit 1 if violated); --out writes "
           "BENCH records + timelines"),
    "attacks": ("repro.analysis.cli", "cmd_attacks",
                "— the Thm 1.3 (CRS) and Thm 1.4 (OWF) attacks, summarized"),
    "tree": ("repro.analysis.cli", "cmd_tree",
             "[n] — build an almost-everywhere tree under random "
             "corruption; print its Def. 2.3 guarantees"),
    "aba": ("repro.asynchrony.cli", "cmd_aba",
            "[n] [--seed S] [--policy P] [--latency NAME] "
            "[--adaptive NAME] [--bench DIR] — MMR14 binary agreement "
            "under asynchronous delivery; --bench records BENCH_aba.json"),
    "obs": ("repro.obs.cli", "cmd_obs",
            "{report,timeline,flows,diff,profile} — render a BENCH "
            "record or trace dir, flow reports, Perfetto timelines, "
            "profiles, the bench regression gate"),
    "cluster": ("repro.cluster.cli", "cmd_cluster",
                "{run,status,bench} — parties sharded across worker "
                "processes: durable checkpoints, SIGKILL recovery "
                "(run --kill 3:1, run --resume), the scaling bench"),
    "serve": ("repro.serve.cli", "cmd_serve",
              "{run,client,bench} — the agreement-as-a-service gateway: "
              "concurrent sessions, amortized SRDS setup, NDJSON + "
              "GET /metrics on one port"),
    "campaign": ("repro.campaign.cli", "cmd_campaign",
                 "{run,replay,minimize,list} — adversarial conformance "
                 "sweeps: strategies x fault schedules x configs, with "
                 "replayable one-line specs"),
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
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
