"""Tests for pi_ba (Fig. 3) — agreement, validity, adversaries, accounting."""

import dataclasses
import sys
from types import SimpleNamespace

import pytest

from repro.aetree.analysis import is_good_node
from repro.crypto import ec
from repro.crypto.prf import SubsetPRF
from repro.errors import ProtocolError
from repro.net.adversary import random_corruption, targeted_corruption
from repro.net.metrics import CommunicationMetrics
from repro.params import ProtocolParameters
from repro.protocols.balanced_ba import (
    AdversaryBehavior,
    aggregate_node,
    decide,
    encode_pair,
    range_check_passes,
    run_balanced_ba,
    signing_messages,
)
from repro.srds.base_sigs import HashRegistryBase
from repro.srds.owf import OwfSRDS
from repro.srds.registered import RegisteredSRDS
from repro.srds.snark_based import SnarkBaseSignature, SnarkSRDS
from repro.utils import serialization
from repro.utils.randomness import Randomness
from tests.protocols.step_context import build_context, leaf_mail, node_output

N = 64


def _snark_scheme():
    return SnarkSRDS(base_scheme=HashRegistryBase())


def _run(inputs=None, byzantine_count=None, scheme=None, seed=7,
         adversary=None, params=None):
    params = params if params is not None else ProtocolParameters()
    rng = Randomness(seed)
    t = (
        byzantine_count
        if byzantine_count is not None
        else params.max_corruptions(N)
    )
    plan = random_corruption(N, t, rng.fork("corrupt"))
    inputs = inputs if inputs is not None else {i: 1 for i in range(N)}
    scheme = scheme if scheme is not None else _snark_scheme()
    return run_balanced_ba(inputs, plan, scheme, params, rng.fork("run"),
                           adversary=adversary), plan


class TestHonestExecution:
    def test_unanimous_one(self):
        result, _ = _run({i: 1 for i in range(N)})
        assert result.agreement and result.validity
        assert result.agreed_value == 1

    def test_unanimous_zero(self):
        result, _ = _run({i: 0 for i in range(N)})
        assert result.agreement and result.validity
        assert result.agreed_value == 0

    def test_split_inputs_agree(self):
        result, _ = _run({i: i % 2 for i in range(N)})
        assert result.agreement
        assert result.agreed_value in (0, 1)

    def test_no_corruption(self):
        result, _ = _run(byzantine_count=0)
        assert result.agreement and result.validity

    def test_owf_scheme(self):
        result, _ = _run(scheme=OwfSRDS(message_bits=32))
        assert result.agreement and result.validity

    def test_certificate_succinct_for_snark(self):
        result, _ = _run()
        assert 0 < result.certificate_bytes < 1024

    def test_all_honest_parties_output(self):
        result, plan = _run()
        for party in plan.honest:
            assert result.outputs[party] is not None


class TestAdversarialExecution:
    def test_equivocating_signers(self):
        adversary = AdversaryBehavior(
            sign_message=lambda party, virtual, honest: b"wrong-message"
        )
        result, _ = _run(adversary=adversary)
        assert result.agreement and result.validity

    def test_corrupt_sign_honest_message_is_harmless(self):
        adversary = AdversaryBehavior(
            sign_message=lambda party, virtual, honest: honest
        )
        result, _ = _run(adversary=adversary)
        assert result.agreement and result.validity

    def test_boost_injection_rejected(self):
        injected = []

        def boost_messages():
            # Corrupt parties shower party 3 with uncertified claims of
            # the flipped value.
            rng = Randomness(1)
            return [
                (0, 3, 0, rng.random_bytes(32), None)
                for _ in range(20)
            ]

        adversary = AdversaryBehavior(boost_messages=boost_messages)
        result, _ = _run({i: 1 for i in range(N)}, adversary=adversary)
        assert result.agreement and result.agreed_value == 1

    def test_ba_choice_on_split_inputs(self):
        adversary = AdversaryBehavior(ba_choice=1)
        result, _ = _run({i: i % 2 for i in range(N)}, adversary=adversary,
                         seed=9)
        assert result.agreement


class TestGoodPathIsOnlyLikely:
    @pytest.mark.xfail(
        strict=True,
        reason=(
            "liveness rests on the tree's good-path property (f_ae-comm "
            "leaves few parties isolated), which holds only with high "
            "probability, and nothing resamples a tree that breaks it "
            "(ROADMAP item 2 redraws the committees)"
        ),
    )
    def test_n64_keeps_liveness_at_seed_1007_op_28(self):
        """The ``piba-snarkhash-n64`` benchmark op that loses liveness
        under a legal corruption: 10 of 64 parties corrupt, 35 isolated
        before the boost, a 142-byte certificate, and every output
        ``None``.  A fix for the bad tree turns this into an XPASS,
        which strict mode fails, so its mark must go with it."""
        params = ProtocolParameters()
        rng = Randomness(1007).fork("piba-snarkhash-n64").fork("op-28")
        plan = random_corruption(
            64, params.max_corruptions(64), rng.fork("corruption")
        )
        result = run_balanced_ba(
            {i: i % 2 for i in range(64)}, plan, _snark_scheme(), params,
            rng.fork("run"),
        )
        assert [party for party in plan.honest
                if result.outputs[party] is None] == []
        assert result.agreement


class TestStep5cDropsForeignAggregates:
    """Fig. 3 step 5c at an internal node: an aggregate that fits in no
    child's virtual range is dropped, whatever type the scheme's
    Aggregate1 hands it back as (``RegisteredSRDS`` wraps it)."""

    SIZE = 16
    SEED = 2021

    def _parent_outputs(self, scheme):
        """The last level-2 node's f_aggr-sig output when its first child
        hands it nothing, and when that child hands it the first leaf's
        (valid) aggregate, whose range lies under another parent; the
        other children hand up their honest aggregates."""
        context, signing_keys = build_context(self.SIZE, self.SEED, scheme)
        tree = context.tree
        parent = tree.level_nodes(2)[-1]
        donor = tree.level_nodes(1)[0]
        assert donor.node_id not in parent.children
        assert is_good_node(parent, context.plan.corrupted)
        foreign = node_output(
            context, donor, leaf_mail(context, signing_keys, donor)
        )
        assert foreign is not None
        assert foreign.max_index < parent.virtual_range[0]
        siblings = []
        for child_id in parent.children[1:]:
            child = tree.nodes[child_id]
            siblings.append(node_output(
                context, child, leaf_mail(context, signing_keys, child)
            ))
        assert all(output is not None for output in siblings)
        return [
            node_output(context, parent, handed + siblings)
            for handed in ([], [foreign])
        ]

    @pytest.mark.parametrize(
        "make_scheme",
        [RegisteredSRDS, lambda: OwfSRDS(message_bits=32), _snark_scheme],
        ids=["registered", "owf", "snark-hash"],
    )
    def test_aggregate_outside_every_childs_range_is_dropped(
        self, make_scheme
    ):
        without, with_foreign = self._parent_outputs(make_scheme())
        assert without is not None
        assert with_foreign.encode() == without.encode()


class TestModelValidation:
    def test_oversized_corruption_rejected(self):
        params = ProtocolParameters()
        rng = Randomness(1)
        plan = targeted_corruption(N, list(range(N // 3 + 1)))
        with pytest.raises(ProtocolError):
            run_balanced_ba(
                {i: 1 for i in range(N)}, plan, _snark_scheme(), params, rng
            )

    def test_plan_size_mismatch_rejected(self):
        params = ProtocolParameters()
        plan = targeted_corruption(N + 1, [0])
        with pytest.raises(ProtocolError):
            run_balanced_ba(
                {i: 1 for i in range(N)}, plan, _snark_scheme(), params,
                Randomness(1),
            )


class TestStepFunctions:
    """Fig. 3's steps on one node's or one party's inbox, with no run."""

    SIZE = 16
    SEED = 2021

    @pytest.fixture(scope="class")
    def setting(self):
        return build_context(self.SIZE, self.SEED, _snark_scheme())

    def test_forged_or_mutated_base_signature_never_reaches_f_aggr_sig(
        self, setting
    ):
        context, signing_keys = setting
        leaf = next(
            leaf for leaf in context.tree.leaves
            if is_good_node(leaf, context.plan.corrupted)
        )
        mail = leaf_mail(context, signing_keys, leaf)
        honest = mail[0]
        mutated = SnarkBaseSignature(
            index=honest.index,
            signature_bytes=honest.signature_bytes[:-1]
            + bytes([honest.signature_bytes[-1] ^ 1]),
        )
        forged = context.scheme.sign(
            context.pp, mail[1].index, signing_keys[mail[1].index],
            b"forged",
        )
        _, filtered, _ = aggregate_node(
            context, leaf, [mutated, forged] + mail[2:]
        )
        submitted = [item.base for item in filtered if hasattr(item, "base")]
        assert [base.index for base in submitted] == [
            signature.index for signature in mail[2:]
        ]
        assert mutated not in submitted and forged not in submitted

    def test_range_check_is_one_childs_range(self, setting):
        context, _ = setting
        parent = context.tree.level_nodes(2)[-1]
        first, second = (
            context.tree.nodes[child_id].virtual_range
            for child_id in parent.children[:2]
        )

        def spanning(lo, hi):
            return SimpleNamespace(min_index=lo, max_index=hi - 1)

        assert range_check_passes(context, parent, spanning(*first))
        assert range_check_passes(context, parent, spanning(*second))
        assert not range_check_passes(
            context, parent, spanning(first[0], second[1])
        )
        assert not range_check_passes(
            context, parent, spanning(0, parent.virtual_range[0])
        )

    def test_isolated_honest_party_signs_nothing(self, setting):
        context, _ = setting
        party = context.plan.honest[0]
        virtuals = context.tree.virtuals_of_party(party)
        assert virtuals
        assert signing_messages(context, party, None) == []
        assert signing_messages(context, party, (1, b"s")) == [
            (virtual_id, context.pair_message) for virtual_id in virtuals
        ]

    def test_decide_rejects_a_sender_whose_prf_set_misses_it(self, setting):
        context, _ = setting

        class AcceptsEveryCertificate:
            def verify(self, pp, verification_keys, message, certificate):
                return True

        context = dataclasses.replace(
            context, scheme=AcceptsEveryCertificate()
        )
        seed, party = b"\x07" * 32, 0
        prf = SubsetPRF(seed, self.SIZE, context.params.fanout(self.SIZE))
        outside = next(
            sender for sender in range(self.SIZE)
            if not prf.contains(sender, party)
        )
        inside = next(
            sender for sender in range(self.SIZE)
            if prf.contains(sender, party)
        )
        certificate = object()
        assert decide(context, party, [(outside, 1, seed, certificate)]) is None
        assert decide(context, party, [(inside, 1, seed, certificate)]) == 1
        assert decide(context, party, [
            (outside, 0, seed, certificate), (inside, 1, seed, certificate),
        ]) == 1


class TestCommunicationAccounting:
    def test_balanced_imbalance(self):
        result, _ = _run()
        assert result.metrics.imbalance < 5.0

    def test_rounds_polylog(self):
        result, _ = _run()
        assert result.metrics.rounds > 0

    def test_metrics_cover_all_parties(self):
        result, _ = _run()
        assert result.metrics.num_parties >= N

    def test_supreme_committee_recorded(self):
        result, _ = _run()
        assert result.supreme_committee_size > 0

    def test_num_virtual_consistent(self):
        result, _ = _run()
        assert result.num_virtual % N == 0


class TestWorkCounters:
    """Call counts, not seconds: they repeat exactly, so encode-once,
    charge-once-per-fan-out and the inversion-free group law cannot
    silently rot."""

    @staticmethod
    def _counted_run(n, scheme, functions):
        """One split-input run at ``Randomness(2021)``; returns the result
        and how often each of ``functions`` was entered."""
        params = ProtocolParameters()
        rng = Randomness(2021)
        plan = random_corruption(
            n, params.max_corruptions(n), rng.fork("corruption")
        )
        calls = {function.__code__: 0 for function in functions}

        def count(frame, event, arg):
            if event == "call" and frame.f_code in calls:
                calls[frame.f_code] += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            result = run_balanced_ba(
                {i: i % 2 for i in range(n)}, plan, scheme, params,
                rng.fork("run"),
            )
        finally:
            sys.setprofile(previous)
        return result, list(calls.values())

    def test_one_n16_run_stays_within_its_pinned_call_counts(self):
        result, (encode_uint_calls, ledger_body_calls) = self._counted_run(
            16, _snark_scheme(),
            [serialization.encode_uint, CommunicationMetrics.record_exchange],
        )
        assert result.agreement
        assert result.metrics.max_bits_per_party == 3_254_032
        # Re-encoding per hop and charging per recipient made these
        # 70 272 and 4 790; the run makes 1 737 and 40, pinned here
        # with 10 % headroom.
        assert encode_uint_calls <= 1_911
        assert ledger_body_calls <= 44

    def test_one_n8_schnorr_run_inverts_once_per_public_point(self):
        ec._generator_table()  # its inversions are paid once per process
        result, counts = self._counted_run(
            8, SnarkSRDS(),
            [ec._inverse, ec.multi_scalar_mult,
             ec._add, ec._add_affine, ec._double],
        )
        inversions, multiplications, *group_operations = counts
        assert result.agreement
        assert result.metrics.max_bits_per_party == 965_168
        # Every public group operation is one multi_scalar_mult and pays
        # at most two inversions: one makes its odd-multiple tables
        # affine, one its result.  The affine law inverted once per
        # addition: 65 107 times in this run, over 170 scalar
        # multiplications.
        assert inversions <= 2 * multiplications
        assert multiplications <= 93
        # GLV halves every doubling chain and the signed 7-bit G table
        # walks two 128-bit halves in 38 mixed additions; measured
        # 555 _add + 6 028 _add_affine + 467 _double.  The Jacobian wNAF
        # engine with its 4-bit G table took 3 127 + 5 561 + 851 = 9 539.
        assert sum(group_operations) <= 7_050


class TestEncodePair:
    def test_injective(self):
        assert encode_pair(0, b"seed") != encode_pair(1, b"seed")
        assert encode_pair(0, b"a") != encode_pair(0, b"b")
