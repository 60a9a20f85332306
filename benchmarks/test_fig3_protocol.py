"""F3 — Figure 3: pi_ba end-to-end under adversarial conditions.

Executes the full protocol at several sizes and corruption patterns,
with corrupt parties running each implemented misbehaviour, and reports
agreement/validity plus the structural metrics the theorem promises
(polylog rounds, succinct certificate, balanced communication).
"""

import pytest

from benchmarks.conftest import write_result
from repro.analysis.tables import format_bits
from repro.net.adversary import random_corruption
from repro.net.metrics import CommunicationMetrics
from repro.obs.spans import SpanLog, recording
from repro.params import ProtocolParameters
from repro.protocols.balanced_ba import AdversaryBehavior, run_balanced_ba
from repro.srds.base_sigs import HashRegistryBase
from repro.srds.snark_based import SnarkSRDS
from repro.utils.randomness import Randomness

NS = [64, 128, 256]
PARAMS = ProtocolParameters()

BEHAVIOURS = [
    ("silent", AdversaryBehavior()),
    ("equivocate", AdversaryBehavior(
        sign_message=lambda party, virtual, honest: b"equivocation"
    )),
    ("follow", AdversaryBehavior(
        sign_message=lambda party, virtual, honest: honest
    )),
]


def _run_grid():
    rows = []
    rng = Randomness(42)
    for n in NS:
        plan = random_corruption(
            n, PARAMS.max_corruptions(n), rng.fork(f"c{n}")
        )
        for label, behaviour in BEHAVIOURS:
            result = run_balanced_ba(
                {i: i % 2 for i in range(n)},
                plan,
                SnarkSRDS(base_scheme=HashRegistryBase()),
                PARAMS,
                rng.fork(f"r{n}{label}"),
                adversary=behaviour,
            )
            rows.append((n, label, result))
    return rows


@pytest.mark.benchmark(group="fig3")
def test_fig3_protocol(benchmark, results_dir, bench_json):
    rows = benchmark.pedantic(_run_grid, rounds=1, iterations=1)

    lines = [
        "pi_ba (Fig. 3) under adversarial behaviours, split inputs:",
        f"{'n':>5} {'adversary':<12} {'agree':<6} {'cert':>7} "
        f"{'max/party':>12} {'imbalance':>10} {'isolated':>9}",
    ]
    for n, label, result in rows:
        lines.append(
            f"{n:>5} {label:<12} {str(result.agreement):<6} "
            f"{result.certificate_bytes:>6}B "
            f"{format_bits(result.metrics.max_bits_per_party):>12} "
            f"{result.metrics.imbalance:>10.2f} "
            f"{result.isolated_before_boost:>9}"
        )
    write_result(results_dir, "fig3_protocol", "\n".join(lines))

    for n, label, result in rows:
        assert result.agreement, f"agreement failed at n={n} vs {label}"
        # Succinct certificate: constant-size for the SNARK scheme.
        assert result.certificate_bytes < 512
        # Balanced: worst party within a small factor of the mean.
        assert result.metrics.imbalance < 5.0

    # Structured record: one phase-instrumented run at the smallest n,
    # so the per-phase cost trajectory is diffable across PRs.
    n = NS[0]
    rng = Randomness(42)
    plan = random_corruption(n, PARAMS.max_corruptions(n), rng.fork("bench"))
    metrics = CommunicationMetrics()
    with recording(SpanLog()):
        instrumented = run_balanced_ba(
            {i: i % 2 for i in range(n)},
            plan,
            SnarkSRDS(base_scheme=HashRegistryBase()),
            PARAMS,
            rng.fork("bench-run"),
            metrics=metrics,
        )
    assert instrumented.agreement
    for party_id in metrics.party_ids:
        assert (
            sum(metrics.bits_by_phase(party_id).values())
            == metrics.tally_of(party_id).bits_total
        )
    bench_json(
        "fig3_protocol",
        snapshot=metrics.snapshot(),
        phase_breakdown=metrics.phase_breakdown(),
        extra={"n": n, "t": plan.t, "scheme": "snark-srds"},
    )
