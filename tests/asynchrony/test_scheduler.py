"""AsyncScheduler: determinism/replay, churn, loud stalls, config errors.

The determinism contract is the subsystem's foundation: a run is a pure
function of ``(parties, seed, policy, latency model, fault plan)``, and
the recorded delivery trace is the replay witness.  Everything else —
the campaign's repro lines, the BENCH gate, the Hypothesis properties —
leans on it.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, NetworkError
from repro.net.latency import LATENCY_MODEL_NAMES
from repro.net.metrics import CommunicationMetrics
from repro.net.party import AsyncParty, Envelope
from repro.obs.flow import FlowLedger
from repro.obs.spans import recording
from repro.protocols.aba import PHASE_OF_TAG, ABAParty, CommonCoin
from repro.asynchrony.bench import _aba_cell
from repro.asynchrony.driver import run_aba
from repro.asynchrony.scheduler import (
    DEFAULT_PHASE,
    AsyncScheduler,
    run_async_parties,
)
from repro.runtime.faults import FaultPlan, churn_schedule, crash_everyone
from repro.utils.randomness import Randomness


def _parties(n: int, seed: int = 1):
    coin = CommonCoin(Randomness(seed))
    return [ABAParty(p, range(n), p % 2, coin) for p in range(n)]


# -- determinism and replay --------------------------------------------------


class TestDeterminism:
    def test_same_seed_replays_exactly(self):
        a = run_aba(16, seed=5, policy="adversarial")
        b = run_aba(16, seed=5, policy="adversarial")
        assert a.trace == b.trace
        assert a.outputs == b.outputs
        assert a.rounds == b.rounds
        assert a.deliveries == b.deliveries
        assert (
            a.metrics.max_bits_per_party == b.metrics.max_bits_per_party
        )

    def test_different_seed_changes_the_schedule(self):
        a = run_aba(16, seed=1, policy="adversarial")
        b = run_aba(16, seed=2, policy="adversarial")
        assert a.trace != b.trace

    @pytest.mark.parametrize("name", LATENCY_MODEL_NAMES)
    def test_every_latency_model_is_replayable(self, name):
        a = run_aba(16, seed=9, latency=name)
        b = run_aba(16, seed=9, latency=name)
        assert a.trace == b.trace
        assert a.outputs == b.outputs
        assert a.agreed_value in (0, 1)

    def test_trace_is_the_replay_witness(self):
        result = run_aba(16, seed=5, policy="adversarial")
        # One row per delivery, counter strictly increasing from 1.
        assert len(result.trace) == result.deliveries
        counters = [row[0] for row in result.trace]
        assert counters == list(range(1, result.deliveries + 1))


# -- pinned schedules ----------------------------------------------------------

BENCH_ABA = (
    Path(__file__).resolve().parents[2] / "benchmarks/results/BENCH_aba.json"
)

#: ``run_aba(16, seed=2025, **kwargs)`` as the consumer-task scheduler
#: delivered it: deliveries, max_bits_per_party, rounds, final corrupted
#: set and sha256(repr(trace))[:16] — the replay witness, row for row.
PINNED_SCHEDULES = [
    ({}, 1605, 819840, 2, [], "6a66fe37deb0bde5"),
    ({"policy": "adversarial"}, 2352, 1229400, 3, [], "65dc36c1e7710549"),
    ({"adaptive": "adaptive-coin"},
     1258, 819360, 2, [0, 2, 4, 6, 8], "c58dd7162ab76e63"),
    ({"policy": "adversarial", "adaptive": "adaptive-first-aux"},
     1404, 1228344, 3, [1, 7, 9, 11, 12], "5e501a1a0a9c1599"),
]


class TestPinnedSchedules:
    """Direct dispatch changed how a delivery reaches ``on_message``,
    not which delivery is next: committed figures and witnesses hold."""

    def test_committed_bench_cells_reproduce(self):
        cells = json.loads(BENCH_ABA.read_text())["extra"]["aba_cells"]
        pinned = [cell for cell in cells if cell["n"] == 16]
        assert {cell["mode"] for cell in pinned} >= {"fixed", "adversarial"}
        for cell in pinned:
            assert _aba_cell(16, cell["seed"], cell["mode"]) == cell

    @pytest.mark.parametrize(
        "kwargs, deliveries, max_bits, rounds, corrupted, witness",
        PINNED_SCHEDULES,
        ids=["latency", "adversarial", "adaptive-coin", "adaptive-adversarial"],
    )
    def test_trace_witness_is_unchanged(
        self, kwargs, deliveries, max_bits, rounds, corrupted, witness
    ):
        result = run_aba(16, seed=2025, **kwargs)
        assert result.deliveries == deliveries
        assert result.metrics.max_bits_per_party == max_bits
        assert result.rounds == rounds
        assert sorted(result.corrupted) == corrupted
        assert hashlib.sha256(
            repr(result.trace).encode()
        ).hexdigest()[:16] == witness


# -- attribution ---------------------------------------------------------------


class _PlainPinger(AsyncParty):
    """Sends one phase-less envelope and decides on the first receipt."""

    def start(self):
        peer = 1 - self.party_id
        return [Envelope(sender=self.party_id, recipient=peer, payload=b"hi")]

    def on_message(self, envelope):
        self.decide(envelope.payload)
        return []


class TestAttribution:
    def test_sends_are_labeled_without_a_span_per_message(self):
        metrics = CommunicationMetrics()
        flow = FlowLedger()
        metrics.attach_flow(flow)
        with recording() as log:
            result = run_aba(8, seed=3, metrics=metrics, coin_committee=range(8))
        assert result.agreed_value in (0, 1)
        # The label rides the charge: the only intervals an ABA run
        # opens are its coin tosses, however many messages it sends.
        assert set(log.names) == {"aba-coin"}
        assert result.deliveries > len(log.records)
        envelope_phases = set(PHASE_OF_TAG.values())
        for party in range(8):
            assert set(metrics.bits_by_phase(party)) <= (
                envelope_phases | {"aba-coin"}
            )
        assert set(flow.by_phase()) == set(metrics.phases)
        assert set(flow.by_kind()) == {"async", "hybrid"}
        assert flow.coverage() == 1.0
        assert flow.verify_against(metrics) == []

    def test_phaseless_envelopes_fall_back_to_the_default_phase(self):
        with recording() as log:
            result = run_async_parties([_PlainPinger(0), _PlainPinger(1)])
        assert log.records == []
        assert result.metrics.bits_by_phase(0) == {DEFAULT_PHASE: 32}


# -- the completion contract -------------------------------------------------


class _Exploding(_PlainPinger):
    """Decides nothing; blows up on its first delivery."""

    def on_message(self, envelope):
        raise LookupError(f"party {self.party_id} cannot parse this")


class TestCompletion:
    def test_on_message_error_surfaces_from_run_unwrapped(self):
        scheduler = AsyncScheduler([_PlainPinger(0), _Exploding(1)])
        with pytest.raises(LookupError, match="party 1 cannot parse"):
            asyncio.run(scheduler.run())
        # The delivery that raised is the last row of the witness.
        assert scheduler.trace[-1][2] == 1

    def test_all_honest_parties_decide(self):
        result = run_aba(16, seed=3)
        assert set(result.outputs) == set(range(16))
        assert result.agreed_value in (0, 1)
        assert result.virtual_time > 0

    def test_stall_is_loud_and_names_the_undecided(self):
        # n=4 with two silenced parties: the 2f+1 = 3 BVAL quorum is
        # unreachable, traffic dries up, and the scheduler must raise —
        # naming exactly the honest parties left hanging.
        with pytest.raises(NetworkError, match=r"undecided.*\[0, 3\]"):
            run_aba(4, seed=1, corrupted={1, 2})

    def test_delivery_cap_is_loud(self):
        with pytest.raises(NetworkError, match="cap"):
            run_aba(16, seed=1, max_deliveries=10)

    def test_corrupted_outputs_are_suppressed(self):
        result = run_aba(16, seed=4, corrupted={3, 5}, byzantine="silent")
        assert result.corrupted == [3, 5]
        assert 3 not in result.outputs and 5 not in result.outputs
        assert set(result.outputs) == set(range(16)) - {3, 5}

    def test_equivocators_are_excused_not_silenced(self):
        # An equivocator keeps talking (its sends are charged) but never
        # decides; the run must still complete without it.
        result = run_aba(16, seed=4, corrupted={3}, byzantine="equivocate")
        assert 3 not in result.outputs
        assert set(result.outputs) == set(range(16)) - {3}
        assert result.metrics.tally_of(3).bits_sent > 0


# -- churn -------------------------------------------------------------------


class TestChurn:
    def test_late_joiners_are_excused_from_liveness(self):
        plan = churn_schedule({0: 2, 1: 2})
        result = run_aba(16, seed=6, fault_plan=plan)
        # Everyone the model owes a decision decided, on one bit.
        assert set(range(2, 16)) <= set(result.outputs)
        assert result.agreed_value in (0, 1)

    def test_leavers_degrade_gracefully(self):
        plan = churn_schedule({}, {0: 3, 1: 3})
        result = run_aba(16, seed=6, fault_plan=plan)
        assert set(range(2, 16)) <= set(result.outputs)
        assert result.agreed_value in (0, 1)

    def test_collapse_below_quorum_stalls_loudly(self):
        plan = crash_everyone(range(8), round_index=1)
        with pytest.raises(NetworkError):
            run_aba(16, seed=6, fault_plan=plan)

    def test_join_before_leave_enforced(self):
        with pytest.raises(ConfigurationError):
            churn_schedule({0: 3}, {0: 2})


# -- configuration errors ----------------------------------------------------


class TestConfiguration:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            AsyncScheduler(_parties(4), policy="clairvoyant")

    def test_adversarial_policy_requires_rng(self):
        with pytest.raises(ConfigurationError):
            AsyncScheduler(_parties(4), policy="adversarial")

    def test_duplicate_party_ids_rejected(self):
        parties = _parties(4)
        with pytest.raises(ConfigurationError):
            AsyncScheduler(parties + [parties[0]])

    def test_empty_party_set_rejected(self):
        with pytest.raises(ConfigurationError):
            AsyncScheduler([])

    def test_corrupt_and_excuse_validate_ids(self):
        scheduler = AsyncScheduler(_parties(4))
        with pytest.raises(ConfigurationError):
            scheduler.corrupt(9)
        with pytest.raises(ConfigurationError):
            scheduler.excuse(9)

    def test_facade_runs_to_agreement(self):
        result = run_async_parties(_parties(4), rng=Randomness(2))
        assert set(result.outputs) == {0, 1, 2, 3}
        assert len(set(result.outputs.values())) == 1
