"""Fault injection semantics: crash, delay, partition, duplication,
reorder — all seeded and reproducible."""

from typing import List, Sequence

import pytest

from repro.errors import ConfigurationError
from repro.net.adversary import prefix_corruption
from repro.net.latency import RandomDelayLatency
from repro.net.party import Envelope, Frame, Party
from repro.protocols.phase_king import build_phase_king
from repro.runtime.faults import (
    FaultPlan,
    LinkDelay,
    Partition,
    adversarial_schedule,
    crash_corrupted,
    partition_halves,
)
from repro.runtime.placements import LOCAL
from repro.runtime.synchronizer import run_parties
from repro.runtime.trace import TraceRecorder
from repro.utils.randomness import Randomness
from tests.placements import run_honest


class Recorder(Party):
    """Logs (round, sender, payload) for every delivery; halts on demand."""

    def __init__(self, party_id: int, halt_round: int = 6) -> None:
        super().__init__(party_id)
        self.log: List[tuple] = []
        self.halt_round = halt_round

    def step(self, round_index: int, inbox: Sequence[Frame]) -> List[Envelope]:
        for envelope in inbox:
            self.log.append((round_index, envelope.sender, envelope.payload))
        if round_index >= self.halt_round:
            return self.halt()
        return []


class Beacon(Party):
    """Sends one tagged message to everyone else each round."""

    def __init__(self, party_id: int, peers: Sequence[int], halt_round: int = 6):
        super().__init__(party_id)
        self.peers = [p for p in peers if p != party_id]
        self.halt_round = halt_round

    def step(self, round_index: int, inbox: Sequence[Frame]) -> List[Envelope]:
        if round_index >= self.halt_round:
            return self.halt()
        return [
            self.send(peer, b"r%d" % round_index) for peer in self.peers
        ]


class TestCrash:
    def test_crashed_party_goes_silent(self):
        recorder = Recorder(1)
        beacon = Beacon(0, [0, 1])
        run_parties(
            [beacon, recorder],
            fault_plan=FaultPlan(crashes={0: 2}),
            until=[1],
            max_rounds=10,
        )
        rounds_received = sorted({r for r, _, _ in recorder.log})
        # Sends from rounds 0 and 1 arrive (rounds 1, 2); nothing later.
        assert rounds_received == [1, 2]

    def test_crash_traced_once(self):
        trace = TraceRecorder()
        run_parties(
            [Beacon(0, [0, 1]), Recorder(1)],
            fault_plan=FaultPlan(crashes={0: 1}),
            until=[1],
            trace=trace,
            max_rounds=10,
        )
        crashes = [
            e for e in trace.events_of(0) if e["kind"] == "crash"
        ]
        assert len(crashes) == 1
        assert crashes[0]["round"] == 1

    def test_crash_corrupted_composes_with_corruption_plan(self):
        plan = prefix_corruption(9, 2)
        faults = crash_corrupted(plan, Randomness(3), max_round=5)
        assert set(faults.crashes) == {0, 1}
        assert all(0 <= r <= 5 for r in faults.crashes.values())
        # Honest parties never crash.
        assert all(not faults.is_crashed(p, 10_000) for p in plan.honest)


class TestDelay:
    def test_link_delay_shifts_delivery(self):
        recorder = Recorder(1)
        plan = FaultPlan(delays=[LinkDelay(sender=0, recipient=1, rounds=2)])
        run_parties(
            [Beacon(0, [0, 1], halt_round=1), recorder],
            fault_plan=plan,
            until=[1],
            max_rounds=10,
        )
        # Sent in round 0, normally due round 1, delayed to round 3.
        assert recorder.log == [(3, 0, b"r0")]

    def test_delay_window(self):
        recorder = Recorder(1)
        plan = FaultPlan(
            delays=[LinkDelay(0, 1, rounds=3, first_round=1, last_round=1)]
        )
        run_parties(
            [Beacon(0, [0, 1], halt_round=2), recorder],
            fault_plan=plan,
            until=[1],
            max_rounds=12,
        )
        assert (1, 0, b"r0") in recorder.log          # round 0: on time
        assert (5, 0, b"r1") in recorder.log          # round 1: +3 rounds

    def test_random_delays_are_reproducible(self):
        logs = []
        for _ in range(2):
            recorder = Recorder(1, halt_round=12)
            plan = FaultPlan(
                latency=RandomDelayLatency(probability=0.5, max_rounds=3),
                rng=Randomness(11),
            )
            run_parties(
                [Beacon(0, [0, 1], halt_round=5), recorder],
                fault_plan=plan,
                until=[1],
                max_rounds=20,
            )
            logs.append(recorder.log)
        assert logs[0] == logs[1]


class TestPartition:
    def test_partition_drops_cross_links_and_charges_nothing(self):
        recorder_far = Recorder(1, halt_round=8)
        recorder_near = Recorder(2, halt_round=8)
        plan = partition_halves([0, 1, 2, 3], first_round=0, last_round=3)
        # groups: {0, 1} vs {2, 3}; beacon 0 reaches 1 but not 2.
        result = run_parties(
            [Beacon(0, [0, 1, 2, 3], halt_round=4), recorder_far,
             recorder_near, Recorder(3, halt_round=8)],
            fault_plan=plan,
            until=[1, 2, 3],
            max_rounds=12,
        )
        senders_to_1 = {s for _, s, _ in recorder_far.log}
        senders_to_2 = {s for _, s, _ in recorder_near.log}
        assert senders_to_1 == {0}
        assert senders_to_2 == set()  # cut severed for the whole send window
        # Dropped messages are never charged.
        assert result.metrics.tally_of(2).bits_received == 0

    def test_partition_window_heals(self):
        recorder = Recorder(2, halt_round=8)
        plan = FaultPlan(
            partitions=[
                Partition(
                    group_a=frozenset({0}),
                    group_b=frozenset({2}),
                    first_round=0,
                    last_round=1,
                )
            ]
        )
        run_parties(
            [Beacon(0, [0, 2], halt_round=4), recorder],
            fault_plan=plan,
            until=[2],
            max_rounds=12,
        )
        rounds = sorted(r for r, _, _ in recorder.log)
        assert rounds == [3, 4]  # only rounds 2 and 3 sends survive

    def test_drop_traced(self):
        trace = TraceRecorder()
        plan = partition_halves([0, 1], first_round=0, last_round=10)
        run_parties(
            [Beacon(0, [0, 1], halt_round=2), Recorder(1, halt_round=3)],
            fault_plan=plan,
            until=[1],
            trace=trace,
            max_rounds=8,
        )
        assert any(e["kind"] == "drop" for e in trace.events_of(0))


class TestDuplication:
    def test_duplicates_delivered_but_charged_once(self):
        recorder = Recorder(1, halt_round=4)
        plan = FaultPlan(duplicate_probability=1.0, rng=Randomness(1))
        result = run_parties(
            [Beacon(0, [0, 1], halt_round=1), recorder],
            fault_plan=plan,
            until=[1],
            max_rounds=8,
        )
        assert recorder.log == [(1, 0, b"r0"), (1, 0, b"r0")]
        # The wire charge covers the message once; the duplicate is the
        # delivery layer's artifact.
        assert result.metrics.tally_of(1).messages_received == 1


class TestReorder:
    def test_reorder_permutes_but_preserves_multiset(self):
        n = 6
        plain = Recorder(0, halt_round=3)
        parties = [plain] + [Beacon(i, range(n), halt_round=2) for i in range(1, n)]
        run_parties(parties, until=[0], max_rounds=8)
        canonical = [entry for entry in plain.log if entry[0] == 1]

        shuffled = Recorder(0, halt_round=3)
        parties = [shuffled] + [Beacon(i, range(n), halt_round=2) for i in range(1, n)]
        run_parties(
            parties,
            fault_plan=FaultPlan(reorder=True, rng=Randomness(5)),
            until=[0],
            max_rounds=8,
        )
        permuted = [entry for entry in shuffled.log if entry[0] == 1]
        assert sorted(permuted) == sorted(canonical)
        assert permuted != canonical  # the schedule really moved

    def test_reorder_reproducible(self):
        logs = []
        for _ in range(2):
            recorder = Recorder(0, halt_round=3)
            parties = [recorder] + [
                Beacon(i, range(5), halt_round=2) for i in range(1, 5)
            ]
            run_parties(
                parties,
                fault_plan=FaultPlan(reorder=True, rng=Randomness(8)),
                until=[0],
                max_rounds=8,
            )
            logs.append(recorder.log)
        assert logs[0] == logs[1]


class TestValidation:
    def test_random_features_require_rng(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(reorder=True)
        with pytest.raises(ConfigurationError):
            FaultPlan(duplicate_probability=0.5)

    def test_probability_bounds(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(duplicate_probability=1.5, rng=Randomness(0))

    def test_random_delay_needs_max(self):
        with pytest.raises(ConfigurationError):
            RandomDelayLatency(probability=0.2, max_rounds=0)
        with pytest.raises(ConfigurationError):  # the model draws
            FaultPlan(latency=RandomDelayLatency(0.2, max_rounds=1))

    def test_adversarial_schedule_builder(self):
        plan = adversarial_schedule(Randomness(4))
        assert plan.reorder and plan.duplicate_probability > 0


def test_phase_king_survives_hostile_schedule():
    """End-to-end: phase-king under crash + reorder + duplication + delay
    still reaches agreement among surviving honest parties."""
    n = 10
    inputs = {i: i % 2 for i in range(n)}
    byzantine = [4, 8]
    faults = FaultPlan(
        crashes={4: 1},
        delays=[LinkDelay(0, 1, rounds=1, first_round=0, last_round=2)],
        reorder=True,
        duplicate_probability=0.1,
        rng=Randomness(21),
    )
    outputs, _ = run_honest(
        LOCAL, build_phase_king(inputs, byzantine), fault_plan=faults
    )
    assert len(set(outputs.values())) == 1
