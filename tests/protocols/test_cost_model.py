"""Consistency tests: analytic charges dominate measured concrete costs.

DESIGN.md commits to this invariant: the hybrid-model functionality
charges used by pi_ba must be *upper bounds* on the concrete
message-passing realizations implemented in this repo, so benchmark
numbers can only over-charge the paper's protocol.
"""

import pytest

from repro.net.adversary import random_corruption
from repro.params import ProtocolParameters
from repro.protocols import cost_model
from repro.protocols.balanced_ba import run_balanced_ba
from repro.protocols.coin_toss import run_coin_toss
from repro.protocols.phase_king import run_phase_king
from repro.srds.base_sigs import HashRegistryBase
from repro.srds.snark_based import SnarkSRDS
from repro.utils.randomness import Randomness


class TestChargeShapes:
    def test_ae_establish_polylog(self):
        params = ProtocolParameters()
        small = cost_model.ae_comm_establish(64, params)
        large = cost_model.ae_comm_establish(4096, params)
        # Polylog growth: far less than linear scaling in n.
        assert large.bits_per_party < 64 * small.bits_per_party
        assert large.bits_per_party > small.bits_per_party

    def test_send_down_scales_with_payload(self):
        params = ProtocolParameters()
        small = cost_model.ae_comm_send_down(256, params, payload_bits=100)
        large = cost_model.ae_comm_send_down(256, params, payload_bits=1000)
        assert large.bits_per_party == 10 * small.bits_per_party

    def test_committee_ba_rounds(self):
        charge = cost_model.committee_ba(30)
        f = (30 - 1) // 3
        assert charge.rounds == 3 * (f + 1)

    def test_aggregate_sig_linear_in_input(self):
        a = cost_model.committee_aggregate_sig(20, input_bits=1000)
        b = cost_model.committee_aggregate_sig(20, input_bits=2000)
        assert b.bits_per_party > a.bits_per_party


class TestChargesDominateConcrete:
    def test_phase_king_within_charge(self):
        committee = 10
        outputs, metrics = run_phase_king({i: i % 2 for i in range(committee)})
        charge = cost_model.committee_ba(committee)
        assert metrics.max_bits_per_party <= charge.bits_per_party

    def test_coin_toss_within_charge(self):
        committee = 7
        outputs, metrics = run_coin_toss(range(committee), Randomness(5))
        charge = cost_model.committee_coin_toss(committee)
        assert metrics.max_bits_per_party <= charge.bits_per_party


class TestPerPartyBudgetHolds:
    """``pi_ba_per_party_budget`` is a ceiling where it is claimed to be
    one: hash-base SnarkSRDS pi_ba at n <= 64.  (At n = 128 the measured
    maximum still reads ~1.2 x the formula; ROADMAP keeps the rebuild of
    the ceiling open.)"""

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("seed", [7, 2021, 424242])
    def test_measured_maximum_is_below_the_ceiling(self, n, seed):
        params = ProtocolParameters()
        rng = Randomness(seed)
        plan = random_corruption(n, params.max_corruptions(n), rng.fork("c"))
        scheme = SnarkSRDS(base_scheme=HashRegistryBase())
        result = run_balanced_ba(
            {party: party % 2 for party in range(n)}, plan, scheme, params,
            rng.fork("run"),
        )
        assert result.agreement and result.validity
        pp = scheme.setup(2, rng.fork("probe"))
        _, signing_key = scheme.keygen(pp, rng.fork("probe-key"))
        base_signature_bytes = scheme.sign(
            pp, 0, signing_key, b"probe"
        ).size_bytes()
        budget = cost_model.pi_ba_per_party_budget(
            n, params, result.certificate_bytes, base_signature_bytes
        )
        assert result.metrics.max_bits_per_party < budget
