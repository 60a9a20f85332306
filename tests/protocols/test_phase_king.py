"""Tests for the phase-king committee BA (realizing f_ba)."""

import pytest

from repro.errors import ConfigurationError
from repro.net.party import Frame
from repro.protocols.phase_king import (
    PhaseKingParty,
    _encode,
    ideal_f_ba,
    run_phase_king,
)


class TestAgreementValidity:
    def test_unanimous_no_faults(self):
        outputs, _ = run_phase_king({i: 1 for i in range(7)})
        assert set(outputs.values()) == {1}

    def test_unanimous_with_byzantine(self):
        outputs, _ = run_phase_king({i: 0 for i in range(10)}, byzantine=[1, 4, 8])
        assert set(outputs.values()) == {0}

    def test_agreement_on_split_inputs(self):
        outputs, _ = run_phase_king(
            {i: i % 2 for i in range(10)}, byzantine=[0, 5]
        )
        assert len(set(outputs.values())) == 1

    @pytest.mark.parametrize("seed_offset", range(5))
    def test_agreement_various_input_patterns(self, seed_offset):
        inputs = {i: (i + seed_offset) % 2 for i in range(13)}
        outputs, _ = run_phase_king(inputs, byzantine=[seed_offset, 7 + seed_offset % 3])
        assert len(set(outputs.values())) == 1

    def test_all_honest_minority_value_agreement(self):
        inputs = {i: 1 if i < 3 else 0 for i in range(10)}
        outputs, _ = run_phase_king(inputs)
        assert set(outputs.values()) == {0}  # clear honest majority


class TestResilience:
    def test_too_many_byzantine_rejected(self):
        with pytest.raises(ConfigurationError):
            run_phase_king({i: 1 for i in range(6)}, byzantine=[0, 1, 2])

    def test_f_bound_enforced_in_party(self):
        with pytest.raises(ConfigurationError):
            PhaseKingParty(0, list(range(9)), 3, 1)


class TestKingRound:
    def test_a_bare_party_adopts_the_king_value(self):
        # The king (members[0]) spoke in round 2; its value arrives at
        # round 3, and a party whose own value gathered too few
        # proposals sends the king's value from there on.
        party = PhaseKingParty(3, list(range(7)), 2, 0)
        party.step(2, [])
        king = Frame(sender=0, recipient=3, payload=_encode(2, 1),
                     sent_round=2, deliver_round=3)
        sent = party.step(3, [king])
        assert party.value == 1
        assert {envelope.payload for envelope in sent} == {_encode(0, 1)}


class TestCommunication:
    def test_quadratic_in_committee(self):
        _, small = run_phase_king({i: 1 for i in range(7)})
        _, large = run_phase_king({i: 1 for i in range(14)})
        # 2x committee => ~4x+ total bits (n^2 per round and more phases).
        assert large.total_bits > 3 * small.total_bits

    def test_rounds_linear_in_faults(self):
        _, metrics = run_phase_king({i: 1 for i in range(10)})
        f = (10 - 1) // 3
        assert metrics.rounds_completed <= 3 * (f + 2) + 3


class TestIdealFba:
    def test_supermajority_wins(self):
        inputs = {i: 1 for i in range(9)}
        inputs[0] = 0
        assert ideal_f_ba(inputs, num_corrupt=2) == 1

    def test_split_lets_adversary_choose(self):
        inputs = {i: i % 2 for i in range(10)}
        assert ideal_f_ba(inputs, num_corrupt=3, adversary_choice=1) == 1
        assert ideal_f_ba(inputs, num_corrupt=3, adversary_choice=0) == 0

    def test_unanimous(self):
        assert ideal_f_ba({i: 0 for i in range(5)}, num_corrupt=1) == 0
