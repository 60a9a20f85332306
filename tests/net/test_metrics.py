"""Tests for communication accounting."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.net.metrics import (
    CommunicationMetrics,
    _mask,
    _synthetic_peer_masks,
)


class TestRecordMessage:
    def test_basic_accounting(self):
        metrics = CommunicationMetrics()
        metrics.record_message(0, 1, 100)
        assert metrics.tally_of(0).bits_sent == 100
        assert metrics.tally_of(0).messages_sent == 1
        assert metrics.tally_of(1).bits_received == 100
        assert metrics.tally_of(1).messages_received == 1

    def test_negative_size_rejected(self):
        with pytest.raises(NetworkError):
            CommunicationMetrics().record_message(0, 1, -1)

    def test_total_counts_each_message_once(self):
        metrics = CommunicationMetrics()
        metrics.record_message(0, 1, 100)
        metrics.record_message(1, 0, 50)
        assert metrics.total_bits == 150

    def test_bits_total_sums_both_directions(self):
        metrics = CommunicationMetrics()
        metrics.record_message(0, 1, 100)
        metrics.record_message(1, 0, 60)
        assert metrics.tally_of(0).bits_total == 160

    def test_locality(self):
        metrics = CommunicationMetrics()
        metrics.record_message(0, 1, 1)
        metrics.record_message(0, 2, 1)
        metrics.record_message(3, 0, 1)
        assert metrics.tally_of(0).locality == 3

    def test_max_metrics(self):
        metrics = CommunicationMetrics()
        metrics.record_message(0, 1, 100)
        metrics.record_message(2, 1, 100)
        assert metrics.max_bits_per_party == 200  # party 1 receives both
        assert metrics.max_messages_per_party == 1
        assert metrics.max_locality == 2

    def test_empty_metrics(self):
        metrics = CommunicationMetrics()
        assert metrics.max_bits_per_party == 0
        assert metrics.mean_bits_per_party == 0.0
        assert metrics.max_locality == 0
        assert metrics.imbalance() == 1.0


class TestChargeFunctionality:
    def test_per_party_charges(self):
        metrics = CommunicationMetrics()
        metrics.charge_functionality([0, 1, 2], bits_per_party=90,
                                     peers_per_party=2, rounds=3)
        for party in (0, 1, 2):
            assert metrics.tally_of(party).bits_total == 90
        assert metrics.rounds_completed == 3

    def test_peers_widened(self):
        metrics = CommunicationMetrics()
        metrics.charge_functionality([0, 1, 2, 3], bits_per_party=8,
                                     peers_per_party=2, rounds=1)
        assert metrics.tally_of(0).locality == 2

    def test_mix_with_messages(self):
        metrics = CommunicationMetrics()
        metrics.record_message(0, 1, 10)
        metrics.charge_functionality([0], bits_per_party=10,
                                     peers_per_party=1, rounds=1)
        assert metrics.tally_of(0).bits_total == 20


class TestRoundAccountingConsistency:
    """Regression tests: hybrid charges follow the record_message
    convention — each wire transfer counted once, at the sender — in
    *both* the per-round counters and ``total_bits``.  (Historically
    ``charge_functionality`` added the full per-party charge to the
    round counter, ~2x what ``total_bits`` accrued.)"""

    def test_functionality_round_bits_match_total_bits(self):
        metrics = CommunicationMetrics()
        metrics.charge_functionality([0, 1, 2], bits_per_party=90,
                                     peers_per_party=2, rounds=3)
        metrics.end_round()
        # Sent halves: 3 parties x ceil(90 / 2) = 135, not 3 x 90 = 270.
        assert metrics.total_bits == 135
        assert metrics.round_bits == [135]

    def test_odd_split_counts_sent_half(self):
        metrics = CommunicationMetrics()
        metrics.charge_functionality([0], bits_per_party=9,
                                     peers_per_party=1)
        assert metrics.tally_of(0).bits_sent == 5
        assert metrics.tally_of(0).bits_received == 4
        assert metrics.tally_of(0).bits_total == 9
        assert metrics.current_round_bits == 5
        assert metrics.total_bits == 5

    def test_mixed_wire_and_hybrid_charges_stay_consistent(self):
        metrics = CommunicationMetrics()
        metrics.record_message(0, 1, 100)
        metrics.charge_functionality([0, 1], bits_per_party=50,
                                     peers_per_party=1)
        metrics.end_round()
        metrics.record_message(1, 0, 60)
        # Invariant: closed rounds + open round == total_bits, always.
        assert (
            sum(metrics.round_bits) + metrics.current_round_bits
            == metrics.total_bits
        )
        assert metrics.total_bits == 100 + 2 * 25 + 60

    def test_per_party_totals_unchanged_by_fix(self):
        # The headline metric (max bits per party) must be unaffected by
        # the round-counter alignment: bits_total still grows by the
        # full bits_per_party.
        metrics = CommunicationMetrics()
        metrics.charge_functionality([0, 1, 2, 3], bits_per_party=71,
                                     peers_per_party=2)
        assert all(
            metrics.tally_of(p).bits_total == 71 for p in range(4)
        )
        assert metrics.max_bits_per_party == 71


class TestSnapshot:
    def test_snapshot_fields(self):
        metrics = CommunicationMetrics()
        metrics.record_message(0, 1, 100)
        metrics.end_round()
        snapshot = metrics.snapshot()
        assert snapshot.total_bits == 100
        assert snapshot.max_bits_per_party == 100
        assert snapshot.num_parties == 2
        assert snapshot.rounds == 1

    def test_imbalance(self):
        metrics = CommunicationMetrics()
        metrics.record_message(0, 1, 300)   # party 0: 300, party 1: 300
        metrics.record_message(2, 3, 100)   # parties 2,3: 100
        snapshot = metrics.snapshot()
        assert snapshot.imbalance == pytest.approx(300 / 200)

    def test_snapshot_immutable(self):
        snapshot = CommunicationMetrics().snapshot()
        with pytest.raises(Exception):
            snapshot.total_bits = 5


def _reference_peer_mask(pool, party, peers):
    """Synthetic peers by their definition: the first ``peers`` pool
    entries other than ``party``, filtered per party."""
    return _mask([p for p in pool if p != party][:peers])


class TestSyntheticPeers:
    @given(
        pool=st.lists(st.integers(0, 11), max_size=24),
        parties=st.lists(st.integers(0, 15), min_size=1, max_size=8),
        peers=st.integers(0, 30),
    )
    @example(pool=[3, 3, 1, 3, 2], parties=[3, 1, 9], peers=0)
    @example(pool=[3, 3, 1, 3, 2], parties=[3, 1, 9], peers=2)
    @example(pool=[3, 3, 1, 3, 2], parties=[3, 1, 9], peers=5)
    @example(pool=[3, 3, 1, 3, 2], parties=[3, 2, 9], peers=9)
    def test_masks_match_the_per_party_filter(self, pool, parties, peers):
        masks = _synthetic_peer_masks(pool, peers)
        metrics = CommunicationMetrics()
        metrics.charge_functionality(
            parties, bits_per_party=8, peers_per_party=peers,
            peer_pool=pool,
        )
        for party in parties:
            expected = _reference_peer_mask(pool, party, peers)
            assert masks(party) == expected
            tally = metrics.tally_of(party)
            assert tally.sent_mask == tally.received_mask == expected

    def test_a_negative_widening_is_refused(self):
        metrics = CommunicationMetrics()
        with pytest.raises(NetworkError, match="negative"):
            metrics.charge_functionality(
                [0, 1, 2, 3], bits_per_party=8, peers_per_party=-1,
            )
        assert metrics.total_bits == 0
        assert metrics.max_locality == 0


class TestCommitteeExchanges:
    """``record_exchange`` keeps each committee tuple's mask and skips the
    duplicate count when one committee talks among itself; every view
    must still equal one ``record_message`` per (sender, recipient) pair."""

    @staticmethod
    def _per_pair(ledger, senders, recipients, bits, skip_self):
        for sender in senders:
            for recipient in recipients:
                if not (skip_self and recipient == sender):
                    ledger.record_message(sender, recipient, bits)

    @given(
        charges=st.lists(
            st.tuples(
                st.sampled_from(range(4)),
                st.sampled_from(range(4)),
                st.booleans(),
                st.booleans(),
                st.integers(0, 64),
            ),
            min_size=1, max_size=12,
        ),
        committees=st.lists(
            st.lists(st.integers(0, 9), min_size=1, max_size=6),
            min_size=4, max_size=4,
        ),
    )
    @example(
        charges=[(0, 0, True, True, 8), (0, 0, True, True, 8),
                 (1, 1, True, True, 16)],
        committees=[[0, 2, 5], [3, 3, 4], [7], [0, 1]],
    )
    def test_equals_the_per_pair_reference(self, charges, committees):
        # Tuples as the tree holds them; the lists may repeat an id.
        committees = [tuple(committee) for committee in committees]
        fast, reference = CommunicationMetrics(), CommunicationMetrics()
        for left, right, same, skip_self, bits in charges:
            senders = committees[left]
            recipients = senders if same else committees[right]
            fast.record_exchange(
                senders, recipients, bits, skip_self=skip_self
            )
            self._per_pair(reference, senders, recipients, bits, skip_self)
        assert fast.snapshot() == reference.snapshot()
        assert fast.party_ids == reference.party_ids
        for party in reference.party_ids:
            assert fast.tally_of(party) == reference.tally_of(party)
            assert fast.bits_by_phase(party) == reference.bits_by_phase(party)
        assert fast.phase_breakdown() == reference.phase_breakdown()
        assert fast.current_round_bits == reference.current_round_bits

    def test_a_committee_mask_is_built_once(self, monkeypatch):
        import repro.net.metrics as metrics_module

        folded = []
        real = metrics_module._mask
        monkeypatch.setattr(
            metrics_module, "_mask",
            lambda parties: folded.append(tuple(parties)) or real(parties),
        )
        ledger = CommunicationMetrics()
        committee = (1, 4, 6)
        for _ in range(3):
            ledger.record_exchange(committee, committee, 8, skip_self=True)
            ledger.record_exchange([0, 2], committee, 8)
        assert folded.count(committee) == 1
        assert folded.count((0, 2)) == 3  # a list is folded afresh

    def test_the_memo_is_scratch(self):
        import pickle

        ledger = CommunicationMetrics()
        ledger.record_exchange((1, 2, 3), (1, 2, 3), 8, skip_self=True)
        assert ledger._peer_memo
        restored = pickle.loads(pickle.dumps(ledger))
        assert restored._peer_memo == {}
        assert "_peer_memo" not in ledger.__getstate__()
        assert restored.snapshot() == ledger.snapshot()
        restored.record_exchange((1, 2, 3), (1, 2, 3), 8, skip_self=True)
        ledger.record_exchange((1, 2, 3), (1, 2, 3), 8, skip_self=True)
        assert restored.snapshot() == ledger.snapshot()
