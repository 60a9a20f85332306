"""``python -m repro runtime [n] [placement] [trace-dir]``.

Runs phase-king under a seeded hostile fault plan (reordering,
duplication, a crash) on one single-process row of the placement table
(``local`` by default, ``tcp`` for loopback sockets), then the pi_ba
differential parity check: hybrid-model reference vs wire replay on the
same row.  A directory argument dumps the per-party JSONL traces there.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List

from repro.analysis.tables import format_bits
from repro.net.adversary import random_corruption
from repro.params import ProtocolParameters
from repro.runtime.placements import PLACEMENTS
from repro.utils.randomness import Randomness


def cmd_runtime(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro runtime",
        description="phase-king under a hostile fault plan, then the "
                    "pi_ba hybrid-vs-wire-replay parity check, on one row "
                    "of the placement table",
    )
    parser.add_argument(
        "args", nargs="*", metavar="n | placement | trace-dir",
        help=f"party count (default 16), one of {sorted(PLACEMENTS)} "
             "(default local), a directory for per-party JSONL traces",
    )
    parser.add_argument(
        "--flow-out", type=Path, default=None,
        help="attach the wire-level flow ledger to the pi_ba replay and "
             "write its repro-flow/1 report here",
    )
    ns = parser.parse_intermixed_args(argv)
    n, kind, trace_dir = 16, "local", None
    for arg in ns.args:
        if arg in PLACEMENTS:
            kind = arg
        elif arg.isdigit():
            n = int(arg)
        else:
            trace_dir = arg
    return _run(n, kind, trace_dir, ns.flow_out)


def _run(n: int, kind: str, trace_dir, flow_out) -> int:
    from repro.net.metrics import CommunicationMetrics
    from repro.protocols.balanced_ba import run_balanced_ba
    from repro.protocols.phase_king import build_phase_king, run_phase_king
    from repro.runtime.drivers import run_balanced_ba_runtime
    from repro.runtime.faults import FaultPlan
    from repro.runtime.trace import TraceRecorder, summarize
    from repro.srds.base_sigs import HashRegistryBase
    from repro.srds.snark_based import SnarkSRDS

    flow = None
    if flow_out is not None:
        from repro.obs.flush import open_flow

        flow = open_flow(flow_out)

    params = ProtocolParameters()
    rng = Randomness(2021)
    print(f"runtime: n={n}, transport={kind}")

    # 1. Phase-king on the chosen row, hostile schedule.
    inputs = {i: i % 2 for i in range(n)}
    byzantine = sorted(rng.fork("byz").sample(range(n), max(1, (n - 1) // 3)))
    faults = FaultPlan(
        crashes={byzantine[0]: 2},
        reorder=True,
        duplicate_probability=0.05,
        rng=rng.fork("faults"),
    )
    trace = TraceRecorder()
    parties, honest, max_rounds = build_phase_king(inputs, byzantine)
    result = PLACEMENTS[kind].run(
        parties, honest, max_rounds, fault_plan=faults, trace=trace
    )
    outputs = {member: result.outputs[member] for member in honest}
    reference, _ = run_phase_king(inputs, byzantine)
    decided = set(outputs.values())
    print(
        f"  phase-king  honest={len(outputs)} byz={len(byzantine)} "
        f"(1 crashed@r2) agree={len(decided) == 1} "
        f"matches-sync={outputs == reference} "
        f"max/party={format_bits(result.metrics.max_bits_per_party)}"
    )
    counts = summarize(
        event for p in trace.party_ids for event in trace.events_of(p)
    )
    print(
        f"  trace       events={trace.count():,} "
        f"(send={counts.get('send', 0):,} recv={counts.get('recv', 0):,} "
        f"barriers={counts.get('round-barrier', 0):,}) "
        f"max-queue-depth={trace.max_queue_depth()}"
    )
    if trace_dir is not None:
        paths = trace.dump_dir(trace_dir)
        print(f"  trace       {len(paths)} JSONL files -> {trace_dir}")

    # 2. pi_ba: hybrid-model reference vs wire replay on the same row.
    plan = random_corruption(
        n, params.max_corruptions(n), Randomness(7).fork("c")
    )
    scheme = SnarkSRDS(base_scheme=HashRegistryBase())
    ref = run_balanced_ba(inputs, plan, scheme, params, Randomness(99))
    runtime_metrics = CommunicationMetrics()
    runtime_metrics.attach_flow(flow)
    res, replay = run_balanced_ba_runtime(
        inputs, plan, scheme, params, Randomness(99), transport=kind,
        metrics=runtime_metrics,
    )
    parity = (
        res.outputs == ref.outputs
        and res.metrics.max_bits_per_party == ref.metrics.max_bits_per_party
        and res.metrics.total_bits == ref.metrics.total_bits
    )
    print(
        f"  pi_ba       t={plan.t} wire-replay rounds={replay.rounds} "
        f"agree={res.agreement} parity-with-hybrid={parity} "
        f"max/party={format_bits(res.metrics.max_bits_per_party)}"
    )

    if flow is not None:
        from repro.obs.flush import finish_artifacts

        payload = finish_artifacts(
            flow, flow_out, metrics=runtime_metrics,
            extra={"n": n, "transport": kind, "workload": "pi-ba"},
        )
        flow_problems = payload["parity_problems"]
        print(f"  flow        coverage={flow.coverage():.1%} "
              f"parity={not flow_problems}")
        for problem in flow_problems:
            print(f"    {problem}")
        print(f"  flow        report -> {flow_out}")
        if flow_problems:
            return 1
    return 0 if parity else 1
