"""``python -m repro aba`` — the asynchronous baseline.

Runs MMR14 common-coin binary agreement over the adversarially-scheduled
asyncio model (no round synchronizer) and prints the decision, round
count and per-party bits; ``--bench DIR`` instead sweeps all delivery
models and both n in {16, 64} against π_ba on identical cells and writes
``BENCH_aba.json``.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List

from repro.analysis.tables import format_bits


def cmd_aba(argv: List[str]) -> int:
    from repro.asynchrony.adaptive import ADAPTIVE_STRATEGIES
    from repro.asynchrony.bench import MAX_EXPECTED_ROUNDS, run_aba_bench
    from repro.asynchrony.driver import run_aba
    from repro.net.latency import LATENCY_MODEL_NAMES

    parser = argparse.ArgumentParser(
        prog="python -m repro aba",
        description="MMR14 binary agreement under asynchronous delivery",
    )
    parser.add_argument("n", nargs="?", type=int, default=16)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument(
        "--policy", choices=("latency", "adversarial"), default="latency",
        help="'adversarial' hands delivery order to a seeded adversary",
    )
    parser.add_argument("--latency", choices=LATENCY_MODEL_NAMES,
                        default=None, help="delivery model")
    parser.add_argument("--adaptive", choices=sorted(ADAPTIVE_STRATEGIES),
                        default=None, help="mid-run corruption strategy")
    parser.add_argument("--bench", type=Path, default=None, metavar="DIR",
                        help="record BENCH_aba.json there instead")
    args = parser.parse_args(argv)

    if args.bench is not None:
        payload = run_aba_bench(results_dir=args.bench)
        print(f"BENCH_aba.json -> {args.bench} "
              f"(round gate: <= {MAX_EXPECTED_ROUNDS})")
        for row in payload["extra"]["comparison"]:
            print(
                f"  n={row['n']:<3} "
                f"aba={format_bits(row['aba_max_bits_per_party'])}/party "
                f"pi_ba={format_bits(row['pi_ba_max_bits_per_party'])}/party "
                f"ratio={row['ratio_aba_over_pi_ba']:.2f}"
            )
        return 0

    result = run_aba(
        args.n, seed=args.seed, policy=args.policy,
        latency=args.latency, adaptive=args.adaptive,
    )
    model = args.latency or ("(adversary picks order)"
                             if args.policy == "adversarial" else "fixed")
    print(f"aba: n={args.n} seed={args.seed} policy={args.policy} "
          f"latency={model}"
          + (f" adaptive={args.adaptive}" if args.adaptive else ""))
    agreed = result.agreed_value
    print(
        f"  decided={agreed} rounds={result.rounds} "
        f"deliveries={result.deliveries:,} "
        f"corrupted={result.corrupted or '[]'} "
        f"max/party={format_bits(result.metrics.max_bits_per_party)}"
    )
    return 0 if agreed is not None else 1
