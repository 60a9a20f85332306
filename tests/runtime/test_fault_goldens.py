"""Fault-plan goldens: pinned trace fingerprints and tally digests.

The same-seed-twice checks in ``test_differential.py`` prove a faulty
schedule is *reproducible*; they cannot see a change that moves both
runs together (a different fork label, an extra rng draw, a reordered
fault query).  These values were computed at c5adc33 — before the
round core was extracted — and pin the delivery-policy contract bit for
bit: crash, reorder and duplication in plan (a), partition drop, link
delay, seeded latency and churn in plan (b), on every single-process
row of the placement table.
"""

import hashlib

import pytest

from repro.net.latency import RandomDelayLatency
from repro.protocols.phase_king import build_phase_king
from repro.runtime.faults import FaultPlan, LinkDelay, Partition
from repro.runtime.placements import PLACEMENTS
from repro.runtime.trace import TraceRecorder
from repro.utils.randomness import Randomness

N = 16
INPUTS = {i: i % 2 for i in range(N)}


def cli_plan():
    """The hostile plan the retired ``python -m repro runtime 16`` demo
    ran phase-king under (seed 2021): a crash at round 2, within-round
    reordering and 5 % duplication.  The pin keeps its name."""
    rng = Randomness(2021)
    byzantine = sorted(rng.fork("byz").sample(range(N), max(1, (N - 1) // 3)))
    plan = FaultPlan(
        crashes={byzantine[0]: 2},
        reorder=True,
        duplicate_probability=0.05,
        rng=rng.fork("faults"),
    )
    return byzantine, plan


def mixed_plan():
    """Every fault kind plan (a) lacks: partition, link delay, seeded
    latency and a late joiner (whose early mail is churn-dropped)."""
    byzantine = [3, 11]
    plan = FaultPlan(
        joins={11: 2},
        delays=[LinkDelay(sender=0, recipient=5, rounds=1, last_round=6)],
        partitions=[
            Partition(
                group_a=frozenset({1, 2}),
                group_b=frozenset({12, 13, 14}),
                first_round=0,
                last_round=3,
            )
        ],
        latency=RandomDelayLatency(0.1, 2),
        rng=Randomness(77),
    )
    return byzantine, plan


def tally_digest(metrics) -> str:
    digest = hashlib.sha256()
    for party in range(N):
        tally = metrics.tally_of(party)
        digest.update(
            repr(
                (
                    party,
                    tally.bits_sent,
                    tally.bits_received,
                    tally.messages_sent,
                    tally.messages_received,
                    sorted(tally.peers_sent_to),
                    sorted(tally.peers_received_from),
                )
            ).encode("ascii")
        )
    return digest.hexdigest()


def compute(make_plan, transport: str):
    byzantine, plan = make_plan()
    trace = TraceRecorder()
    result = PLACEMENTS[transport].run(
        *build_phase_king(INPUTS, byzantine), fault_plan=plan, trace=trace
    )
    return trace.fingerprint(), tally_digest(result.metrics)


PINNED = {
    "cli": (
        "b38ebc5a8a514f0f6767f32f86013c1a50e0e94a9d6ca0c06717abbc8204eab2",
        "8a53c8236f924d19cbf3a71738238d541f59b50fa6ffef9431c64bdf5730907b",
    ),
    "mixed": (
        "d421fff55805b6e0a110314aad26bb5dab23c10a2acc26d8b214e43f6151371b",
        "01c1ae13a4d22168229035ba46261f760f136119dc9405998a5042a5e353964c",
    ),
}
PLANS = {"cli": cli_plan, "mixed": mixed_plan}


@pytest.mark.parametrize("transport", ["in-process", "local", "tcp"])
@pytest.mark.parametrize("plan_name", sorted(PLANS))
def test_fault_plan_run_matches_pin(plan_name, transport):
    assert compute(PLANS[plan_name], transport) == PINNED[plan_name]
