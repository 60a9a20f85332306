"""Cross-module integration tests: whole-stack scenarios.

Each test wires several subsystems together in a configuration no unit
test covers: alternative OTS inside the full BA, the election-driven
tree under the functionality layer, broadcast over the OWF SRDS, and
end-to-end determinism of the whole pipeline.
"""

import pytest

from repro.aetree.kssv import build_tree_via_elections
from repro.functionalities.ae_comm import AlmostEverywhereComm
from repro.net.adversary import random_corruption
from repro.net.metrics import CommunicationMetrics
from repro.params import ProtocolParameters
from repro.protocols.balanced_ba import (
    certified_propagation,
    run_balanced_ba,
)
from repro.protocols.broadcast import BroadcastService
from repro.srds.base_sigs import HashRegistryBase, SchnorrBase
from repro.srds.ots import WinternitzOts
from repro.srds.owf import OwfSRDS
from repro.srds.snark_based import SnarkSRDS
from repro.utils.randomness import Randomness

N = 64
PARAMS = ProtocolParameters()


def _plan(seed=1):
    return random_corruption(
        N, PARAMS.max_corruptions(N), Randomness(seed).fork("c")
    )


class TestFullStackVariants:
    def test_ba_with_winternitz_owf_srds(self):
        """pi_ba over the OWF SRDS with W-OTS base signatures."""
        plan = _plan()
        scheme = OwfSRDS(ots=WinternitzOts(message_bits=64, w=4))
        result = run_balanced_ba(
            {i: 1 for i in range(N)}, plan, scheme, PARAMS,
            Randomness(2).fork("r"),
        )
        assert result.agreement and result.validity

    def test_winternitz_certificates_smaller_in_protocol(self):
        """The W-OTS optimization shows up in the protocol's certificate."""
        plan = _plan()
        lamport_result = run_balanced_ba(
            {i: 1 for i in range(N)}, plan,
            OwfSRDS(message_bits=64), PARAMS, Randomness(3).fork("a"),
        )
        wots_result = run_balanced_ba(
            {i: 1 for i in range(N)}, plan,
            OwfSRDS(ots=WinternitzOts(message_bits=64, w=4)),
            PARAMS, Randomness(3).fork("b"),
        )
        assert wots_result.agreement
        assert (
            wots_result.certificate_bytes * 2
            < lamport_result.certificate_bytes
        )

    def test_ba_with_schnorr_base_signatures(self):
        """The SNARK SRDS over real Schnorr inside the full protocol.

        Small n keeps the pure-Python EC cost manageable; the
        verification memoization makes it feasible at all.
        """
        small_n = 24
        params = PARAMS
        plan = random_corruption(
            small_n, params.max_corruptions(small_n),
            Randomness(4).fork("c"),
        )
        result = run_balanced_ba(
            {i: i % 2 for i in range(small_n)}, plan,
            SnarkSRDS(base_scheme=SchnorrBase()), params,
            Randomness(4).fork("r"),
        )
        assert result.agreement

    def test_ba_over_election_built_tree(self):
        """pi_ba running on the KSSV election-driven tree."""
        plan = _plan(5)
        rng = Randomness(5)
        metrics = CommunicationMetrics()
        tree = build_tree_via_elections(N, PARAMS, plan, rng.fork("t"))
        ae = AlmostEverywhereComm(
            N, PARAMS, plan, metrics, rng.fork("ae"), tree=tree
        )
        scheme = SnarkSRDS(base_scheme=HashRegistryBase())
        pp = scheme.setup(tree.num_virtual, rng.fork("srds"))
        verification_keys, signing_keys = {}, {}
        for virtual_id in range(tree.num_virtual):
            vk, sk = scheme.keygen(pp, rng.fork(f"k{virtual_id}"))
            verification_keys[virtual_id] = vk
            signing_keys[virtual_id] = sk
        outputs, certificate_bytes = certified_propagation(
            ae, scheme, pp, verification_keys, signing_keys, y=1,
            seed=rng.fork("coin").random_bytes(32),
        )
        honest_outputs = {outputs[p] for p in plan.honest}
        assert honest_outputs == {1}
        assert 0 < certificate_bytes < 1024

    def test_broadcast_service_with_owf_srds(self):
        """Corollary 1.2(1) over the trusted-PKI construction."""
        plan = _plan(6)
        service = BroadcastService(
            N, plan, OwfSRDS(message_bits=32), PARAMS,
            Randomness(6).fork("svc"),
        )
        service.setup()
        outcome = service.broadcast(plan.honest[0], 1)
        assert outcome.agreement and outcome.consistent_with_sender


class TestDeterminism:
    def test_whole_pipeline_reproducible(self):
        plan = _plan(7)

        def run():
            return run_balanced_ba(
                {i: i % 2 for i in range(N)}, plan,
                SnarkSRDS(base_scheme=HashRegistryBase()), PARAMS,
                Randomness(7).fork("r"),
            )

        first, second = run(), run()
        assert first.outputs == second.outputs
        assert (
            first.metrics.max_bits_per_party
            == second.metrics.max_bits_per_party
        )
        assert first.certificate_bytes == second.certificate_bytes


class TestMpcOverElectionTree:
    def test_mpc_runs_on_default_stack(self):
        from repro.mpc.scalable_mpc import run_scalable_mpc

        plan = _plan(8)
        result = run_scalable_mpc(
            {i: bytes([i % 7]) for i in range(N)},
            lambda plains: max(plains),
            1,
            plan,
            PARAMS,
            Randomness(8).fork("r"),
        )
        assert result.all_honest_correct
        assert result.expected_output == bytes([6])
