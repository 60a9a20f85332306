#!/usr/bin/env python3
"""The asyncio runtime: the paper's synchronous model, recovered.

The analysis in the paper (and everything under ``repro.protocols``)
assumes the *synchronous* model of §1: computation proceeds in rounds,
and a message sent in round r arrives at the start of round r+1, in a
canonical order.  Real networks offer none of that.  The
``repro.runtime`` package bridges the gap: it drives the **unchanged**
``Party`` state machines over an asynchronous transport — asyncio
queues or real loopback TCP sockets — and recovers the synchronous
abstraction with round barriers.

This example demonstrates the four claims the runtime makes:

1. **Differential equivalence** — phase-king over the runtime produces
   byte-identical outputs and an identical communication snapshot to
   the in-process row, on both transports.
2. **π_ba parity** — the full Fig. 3 protocol, record-and-replayed
   over real TCP sockets, charges each party exactly the bits the
   reference accounting says it should (polylog per party).
3. **Fault injection** — seeded crash/delay/reorder/duplication
   schedules are reproducible and phase-king still agrees under them.
4. **Tracing** — every run emits per-party JSONL event streams whose
   fingerprint is identical across repeats and across transports.

Usage::

    python examples/async_runtime.py [n]
"""

import sys
import tempfile
from pathlib import Path

from repro.net.adversary import random_corruption
from repro.params import ProtocolParameters
from repro.protocols.phase_king import build_phase_king, run_phase_king
from repro.runtime.faults import FaultPlan, LinkDelay
from repro.runtime.placements import LOCAL, PLACEMENTS, TCP
from repro.runtime.replay import replay_balanced_ba
from repro.runtime.trace import TraceRecorder
from repro.srds.base_sigs import HashRegistryBase
from repro.srds.snark_based import SnarkSRDS
from repro.utils.randomness import Randomness


def banner(title: str) -> None:
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


def phase_king_on(row, inputs, byzantine, **kwargs):
    """Phase-king on one row of the placement table: a builder's
    ``(parties, honest_ids, max_rounds)`` is exactly a row's arguments."""
    parties, honest, max_rounds = build_phase_king(inputs, byzantine)
    result = row.run(parties, honest, max_rounds, **kwargs)
    return {p: result.outputs[p] for p in honest}, result.metrics


def demo_differential(n: int) -> None:
    banner("1. Differential equivalence (phase-king, local + TCP)")
    inputs = {i: i % 2 for i in range(n)}
    byzantine = [1, n - 2]
    sync_out, sync_metrics = run_phase_king(inputs, byzantine)
    for kind in ("local", "tcp"):
        out, metrics = phase_king_on(PLACEMENTS[kind], inputs, byzantine)
        same_out = out == sync_out
        same_metrics = metrics.snapshot() == sync_metrics.snapshot()
        print(f"  {kind:5s}: outputs match={same_out}  "
              f"metrics match={same_metrics}  "
              f"max_bits={metrics.snapshot().max_bits_per_party}")


def demo_balanced_ba(n: int) -> None:
    banner("2. pi_ba (Fig. 3) replayed over TCP sockets")
    rng = Randomness(33)
    params = ProtocolParameters()
    plan = random_corruption(n, params.max_corruptions(n), rng.fork("c"))
    inputs = {i: 1 for i in range(n)}
    scheme = SnarkSRDS(base_scheme=HashRegistryBase())
    result, runtime = replay_balanced_ba(
        TCP, inputs, plan, scheme, params, rng.fork("run")
    )
    print(f"  n={n}, t={plan.t}: agreement={result.agreement}, "
          f"value={result.agreed_value}")
    print(f"  transport-charged max bits/party: "
          f"{result.metrics.max_bits_per_party} "
          f"(polylog target, n*polylog total = "
          f"{result.metrics.total_bits})")
    print(f"  replay rounds over the wire: {runtime.rounds}")


def demo_faults(n: int) -> None:
    banner("3. Seeded fault injection (crash + delay + reorder + dup)")
    inputs = {i: i % 2 for i in range(n)}
    byzantine = [3]
    faults = FaultPlan(
        crashes={3: 2},
        delays=[LinkDelay(0, 1, rounds=1, first_round=0, last_round=2)],
        reorder=True,
        duplicate_probability=0.1,
        rng=Randomness(21),
    )
    outputs, _ = phase_king_on(LOCAL, inputs, byzantine, fault_plan=faults)
    values = {v for v in outputs.values()}
    print("  crash@2, +1 round delay on 0->1, reorder, 10% dup")
    print(f"  honest outputs: {sorted(values)} "
          f"(agreement={'yes' if len(values) == 1 else 'NO'})")
    repeat, _ = phase_king_on(LOCAL, inputs, byzantine, fault_plan=FaultPlan(
        crashes={3: 2},
        delays=[LinkDelay(0, 1, rounds=1, first_round=0, last_round=2)],
        reorder=True,
        duplicate_probability=0.1,
        rng=Randomness(21),
    ))
    print(f"  same seed, second run identical: {repeat == outputs}")


def demo_tracing(n: int) -> None:
    banner("4. Deterministic per-party JSONL traces")
    inputs = {i: i % 2 for i in range(n)}
    fingerprints = {}
    for kind in ("local", "tcp"):
        trace = TraceRecorder()
        phase_king_on(PLACEMENTS[kind], inputs, [2], trace=trace)
        fingerprints[kind] = trace.fingerprint()
    print(f"  local fingerprint: {fingerprints['local'][:16]}...")
    print(f"  tcp   fingerprint: {fingerprints['tcp'][:16]}...")
    print(f"  identical across transports: "
          f"{fingerprints['local'] == fingerprints['tcp']}")
    with tempfile.TemporaryDirectory() as tmp:
        trace = TraceRecorder()
        phase_king_on(LOCAL, inputs, [2], trace=trace)
        paths = trace.dump_dir(Path(tmp))
        sample = paths[0].read_text().splitlines()[0]
        print(f"  wrote {len(paths)} JSONL files; first event of "
              f"{paths[0].name}:")
        print(f"    {sample}")


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    demo_differential(n)
    demo_balanced_ba(n)
    demo_faults(n)
    demo_tracing(n)
    print()


if __name__ == "__main__":
    main()
