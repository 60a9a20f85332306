"""``python -m repro {ba,attacks,tree}`` — the one-shot demos.

Longer, annotated versions of these live in ``examples/``.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List

from repro.analysis.tables import format_bits
from repro.net.adversary import random_corruption
from repro.params import ProtocolParameters
from repro.utils.randomness import Randomness


def _parse_n(command: str, default: int, description: str,
             argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog=f"python -m repro {command}", description=description
    )
    parser.add_argument("n", nargs="?", type=int, default=default)
    return parser.parse_args(argv).n


def pi_ba_demo_cell(n: int):
    """The seed-2021 split-input cell the fresh-run commands share:
    ``(params, rng, plan, inputs, labelled schemes)``."""
    from repro.srds import scheme_by_name

    params = ProtocolParameters()
    rng = Randomness(2021)
    plan = random_corruption(n, params.max_corruptions(n), rng.fork("c"))
    schemes = (
        ("snark-srds", scheme_by_name("snark-hash")),
        ("owf-srds", scheme_by_name("owf")),
    )
    return params, rng, plan, {i: i % 2 for i in range(n)}, schemes


def cmd_ba(argv: List[str]) -> int:
    from repro.analysis.report import (
        render_party_phase_table,
        render_phase_breakdown,
    )
    from repro.net.metrics import CommunicationMetrics
    from repro.obs.spans import SpanLog, recording, span
    from repro.protocols.balanced_ba import run_balanced_ba

    parser = argparse.ArgumentParser(
        prog="python -m repro ba",
        description="pi_ba under both SRDS constructions, with its "
                    "per-phase and per-party tables and the phase-sum "
                    "invariant (exit 1 if violated)",
    )
    parser.add_argument("n", nargs="?", type=int, default=64)
    parser.add_argument(
        "--out", type=Path, default=None, metavar="DIR",
        help="write each scheme's BENCH record and span timeline here",
    )
    args = parser.parse_args(argv)
    params, rng, plan, inputs, schemes = pi_ba_demo_cell(args.n)
    print(f"pi_ba: n={args.n}, t={plan.t}, split inputs")
    all_ok = True
    for label, scheme in schemes:
        log = SpanLog()
        metrics = CommunicationMetrics()
        with recording(log):
            with span("ba", scheme=label):
                result = run_balanced_ba(inputs, plan, scheme, params,
                                         rng.fork(label), metrics=metrics)
        print(
            f"  {label:<11} agree={result.agreement} y={result.agreed_value} "
            f"cert={result.certificate_bytes:,}B "
            f"max/party={format_bits(result.metrics.max_bits_per_party)} "
            f"imbalance={result.metrics.imbalance:.2f}"
        )
        print(render_phase_breakdown(metrics.phase_breakdown()))
        print()
        print(render_party_phase_table(metrics))
        parties = sorted(metrics.party_ids)
        sums = [sum(metrics.bits_by_phase(p).values()) for p in parties]
        totals = [metrics.tally_of(p).bits_total for p in parties]
        ok = (
            sums == totals
            and max(sums, default=0) == metrics.max_bits_per_party
        )
        all_ok = all_ok and ok
        print(f"invariant sum(bits_by_phase) == bits_total per party: "
              f"{'ok' if ok else 'VIOLATED'}\n")
        if args.out is not None:
            from repro.obs.bench import bench_payload, write_bench_json
            from repro.obs.timeline import export_chrome_trace

            slug = label.replace("-", "_")
            bench_path = write_bench_json(args.out, bench_payload(
                f"ba_{slug}",
                snapshot=metrics.snapshot(),
                phase_breakdown=metrics.phase_breakdown(),
                extra={"n": args.n, "t": plan.t, "scheme": label,
                       "agreement": result.agreement},
            ))
            timeline_path = export_chrome_trace(
                args.out / f"timeline_{slug}.json", trace=None, spans=log,
            )
            print(f"wrote {bench_path} and {timeline_path}\n")
    return 0 if all_ok else 1


def cmd_attacks(argv: List[str]) -> int:
    from repro.lowerbounds.crs_attack import attack_success_rate as crs_rate
    from repro.lowerbounds.owf_attack import attack_success_rate as owf_rate

    argparse.ArgumentParser(
        prog="python -m repro attacks",
        description="the Thm 1.3 (CRS) and Thm 1.4 (OWF) attacks",
    ).parse_args(argv)
    rng = Randomness(1)
    crs = crs_rate(200, 30, 10, 40, rng.fork("crs"))
    pki = crs_rate(200, 30, 10, 40, rng.fork("pki"), with_pki=True)
    print(f"Thm 1.3  CRS-only single-round boost: victim errs {crs:.0%}")
    print(f"         with PKI/SRDS certificates:  victim errs {pki:.0%}")
    weak = owf_rate(80, 12, 6, secret_bits=8, effort_bits=12, trials=15,
                    rng=rng.fork("w"))
    strong = owf_rate(80, 12, 6, secret_bits=40, effort_bits=12, trials=15,
                      rng=rng.fork("s"))
    print(f"Thm 1.4  invertible (8-bit) PKI keys: victim errs {weak:.0%}")
    print(f"         one-way (40-bit) PKI keys:   victim errs {strong:.0%}")
    return 0


def cmd_tree(argv: List[str]) -> int:
    from repro.aetree import analyze, build_tree

    n = _parse_n("tree", 256, "an almost-everywhere tree's Def. 2.3 "
                 "guarantees under random corruption", argv)
    params = ProtocolParameters()
    rng = Randomness(7)
    plan = random_corruption(n, params.max_corruptions(n), rng.fork("c"))
    tree = build_tree(n, params, rng.fork("t"), honest_root_hint=plan.honest)
    report = analyze(tree, plan)
    print(f"(n, I)-tree for n={n}, t={plan.t}:")
    print(f"  leaves={report.num_leaves} height={report.height} "
          f"z={tree.z} z*={tree.z_star}")
    print(f"  good-path leaves: {report.good_path_leaf_fraction:.1%}")
    print(f"  well-connected parties: {report.well_connected_fraction:.1%}")
    print(f"  supreme committee 2/3-honest: {report.root_is_good}")
    return 0
