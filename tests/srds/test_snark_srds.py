"""Tests for the CRH + SNARK + bare-PKI SRDS construction (Thm 2.8)."""

import dataclasses
import gc
import weakref

import pytest

from repro.aetree.analysis import is_good_node
from repro.crypto.hashing import hash_chain
from repro.crypto.merkle import MerkleMultiProof
from repro.crypto.snark import forge_random_proof
from repro.errors import SignatureError
from repro.srds.base_sigs import HashRegistryBase, SchnorrBase
from repro.srds.pcd import encode_statement
from repro.srds.registered import RegisteredSRDS
from repro.srds.snark_based import (
    _CHAIN_DOMAIN,
    CertifiedBaseSignature,
    SnarkAggregateSignature,
    SnarkBaseSignature,
    SnarkSRDS,
    _leaf_circuit,
    decode_aggregate,
    vk_merkle_tree,
)
from repro.utils.randomness import Randomness
from repro.utils.serialization import encode_sequence
from tests.protocols.step_context import build_context, leaf_mail, node_output

N = 120


@pytest.fixture(scope="module")
def deployment():
    rng = Randomness(88)
    scheme = SnarkSRDS(base_scheme=HashRegistryBase())
    pp = scheme.setup(N, rng.fork("setup"))
    verification_keys = {}
    signing_keys = {}
    for index in range(N):
        vk, sk = scheme.keygen(pp, rng.fork(f"kg-{index}"))
        verification_keys[index] = vk
        signing_keys[index] = sk
    return scheme, pp, verification_keys, signing_keys


def _sign_range(deployment, message, indices):
    scheme, pp, _, sks = deployment
    return [scheme.sign(pp, i, sks[i], message) for i in indices]


class TestLeafAggregation:
    def test_leaf_flow(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"leaf"
        signatures = _sign_range(deployment, message, range(40))
        aggregate = scheme.aggregate(pp, vks, message, signatures)
        assert isinstance(aggregate, SnarkAggregateSignature)
        assert aggregate.count == 40
        assert (aggregate.lo, aggregate.hi) == (0, 39)

    def test_duplicate_base_not_double_counted(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"dup"
        signatures = _sign_range(deployment, message, range(10))
        aggregate = scheme.aggregate(
            pp, vks, message, signatures + signatures
        )
        assert aggregate.count == 10

    def test_invalid_base_filtered(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"filter"
        signatures = _sign_range(deployment, message, range(10))
        bogus = SnarkBaseSignature(index=5, signature_bytes=b"junk")
        aggregate = scheme.aggregate(pp, vks, message, signatures + [bogus])
        assert aggregate.count == 10

    def test_out_of_universe_index_filtered(self, deployment):
        scheme, pp, vks, sks = deployment
        good = scheme.sign(pp, 0, sks[0], b"m")
        shifted = SnarkBaseSignature(
            index=N + 1, signature_bytes=good.signature_bytes
        )
        assert scheme.aggregate(pp, vks, b"m", [shifted]) is None

    def test_empty_returns_none(self, deployment):
        scheme, pp, vks, _ = deployment
        assert scheme.aggregate(pp, vks, b"m", []) is None


class TestRecursiveAggregation:
    def test_internal_combination(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"internal"
        left = scheme.aggregate(
            pp, vks, message, _sign_range(deployment, message, range(0, 50))
        )
        right = scheme.aggregate(
            pp, vks, message, _sign_range(deployment, message, range(50, 100))
        )
        combined = scheme.aggregate(pp, vks, message, [left, right])
        assert combined.count == 100
        assert (combined.lo, combined.hi) == (0, 99)
        assert scheme.verify(pp, vks, message, combined) == (
            combined.count >= pp.acceptance_threshold
        )

    def test_overlapping_aggregates_filtered(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"overlap"
        a = scheme.aggregate(
            pp, vks, message, _sign_range(deployment, message, range(0, 30))
        )
        b = scheme.aggregate(
            pp, vks, message, _sign_range(deployment, message, range(20, 50))
        )
        combined = scheme.aggregate(pp, vks, message, [a, b])
        # Greedy disjoint filter keeps the larger; counts never double.
        assert combined.count == 30

    def test_same_aggregate_twice_not_doubled(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"replay"
        aggregate = scheme.aggregate(
            pp, vks, message, _sign_range(deployment, message, range(0, 30))
        )
        combined = scheme.aggregate(pp, vks, message, [aggregate, aggregate])
        assert combined.count == 30

    def test_mixed_bases_and_aggregates(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"mixed"
        aggregate = scheme.aggregate(
            pp, vks, message, _sign_range(deployment, message, range(0, 30))
        )
        loose = _sign_range(deployment, message, range(60, 70))
        combined = scheme.aggregate(pp, vks, message, [aggregate] + loose)
        assert combined.count == 40

    def test_base_inside_aggregate_range_dropped(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"contained"
        aggregate = scheme.aggregate(
            pp, vks, message, _sign_range(deployment, message, range(0, 30))
        )
        inside = _sign_range(deployment, message, [10])
        combined = scheme.aggregate(pp, vks, message, [aggregate] + inside)
        assert combined.count == 30


class TestVerification:
    def test_majority_accepts(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"majority"
        aggregate = scheme.aggregate(
            pp, vks, message, _sign_range(deployment, message, range(N))
        )
        assert scheme.verify(pp, vks, message, aggregate)

    def test_minority_rejected(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"minority"
        aggregate = scheme.aggregate(
            pp, vks, message, _sign_range(deployment, message, range(N // 3))
        )
        assert not scheme.verify(pp, vks, message, aggregate)

    def test_wrong_message_rejected(self, deployment):
        scheme, pp, vks, _ = deployment
        aggregate = scheme.aggregate(
            pp, vks, b"m1", _sign_range(deployment, b"m1", range(N))
        )
        assert not scheme.verify(pp, vks, b"m2", aggregate)

    def test_base_signature_never_verifies_alone(self, deployment):
        scheme, pp, vks, sks = deployment
        base = scheme.sign(pp, 0, sks[0], b"m")
        assert not scheme.verify(pp, vks, b"m", base)

    def test_forged_count_rejected(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"forge-count"
        aggregate = scheme.aggregate(
            pp, vks, message, _sign_range(deployment, message, range(10))
        )
        inflated = SnarkAggregateSignature(
            count=N,
            lo=aggregate.lo,
            hi=aggregate.hi,
            digest=aggregate.digest,
            vk_root=aggregate.vk_root,
            message_tag=aggregate.message_tag,
            proof=aggregate.proof,
        )
        assert not scheme.verify(pp, vks, message, inflated)

    def test_random_proof_rejected(self, deployment):
        scheme, pp, vks, _ = deployment
        rng = Randomness(3)
        tree = vk_merkle_tree(vks, pp.num_parties)
        from repro.crypto.hashing import hash_domain

        forged = SnarkAggregateSignature(
            count=N,
            lo=0,
            hi=N - 1,
            digest=rng.random_bytes(32),
            vk_root=tree.root,
            message_tag=hash_domain("srds/message-tag", b"target"),
            proof=forge_random_proof("srds/internal-sum", rng),
        )
        assert not scheme.verify(pp, vks, b"target", forged)

    def test_stale_vk_root_rejected(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"stale-root"
        aggregate = scheme.aggregate(
            pp, vks, message, _sign_range(deployment, message, range(N))
        )
        # Replace one key (bare-PKI move): old aggregates must die.
        mutated = dict(vks)
        mutated[0] = b"replaced-key"
        assert not scheme.verify(pp, mutated, message, aggregate)


class TestEncoding:
    def test_aggregate_roundtrip(self, deployment):
        scheme, pp, vks, _ = deployment
        message = b"roundtrip"
        aggregate = scheme.aggregate(
            pp, vks, message, _sign_range(deployment, message, range(N))
        )
        decoded = decode_aggregate(aggregate.encode())
        assert scheme.verify(pp, vks, message, decoded)

    def test_aggregate_size_constant_in_contributors(self, deployment):
        scheme, pp, vks, _ = deployment
        small = scheme.aggregate(
            pp, vks, b"s", _sign_range(deployment, b"s", range(5))
        )
        large = scheme.aggregate(
            pp, vks, b"s", _sign_range(deployment, b"s", range(N))
        )
        assert small.size_bytes() == large.size_bytes()

    def test_metadata(self):
        scheme = SnarkSRDS()
        description = scheme.describe()
        assert description["setup"] == "bare-pki+crs"
        assert "snark" in description["assumptions"]


class TestWithSchnorr:
    def test_real_schnorr_base_scheme(self):
        rng = Randomness(11)
        scheme = SnarkSRDS(base_scheme=SchnorrBase())
        n = 12
        pp = scheme.setup(n, rng.fork("s"))
        vks, sks = {}, {}
        for i in range(n):
            vks[i], sks[i] = scheme.keygen(pp, rng.fork(f"k{i}"))
        message = b"real-crypto"
        signatures = [scheme.sign(pp, i, sks[i], message) for i in range(n)]
        aggregate = scheme.aggregate(pp, vks, message, signatures)
        assert aggregate.count == n
        assert scheme.verify(pp, vks, message, aggregate)
        assert not scheme.verify(pp, vks, b"other", aggregate)

    def test_forged_base_before_valid_one_keeps_the_valid_one(self):
        """Batching verifies a node's base signatures together, but the
        first *valid* signature per index, in arrival order, still wins."""
        rng = Randomness(12)
        scheme = SnarkSRDS(base_scheme=SchnorrBase())
        n = 6
        pp = scheme.setup(n, rng.fork("s"))
        vks, sks = {}, {}
        for i in range(n):
            vks[i], sks[i] = scheme.keygen(pp, rng.fork(f"k{i}"))
        message = b"dedupe-order"
        good = [scheme.sign(pp, i, sks[i], message) for i in range(n)]
        flipped = good[3].signature_bytes[:-1] + bytes(
            [good[3].signature_bytes[-1] ^ 1]
        )
        forged = SnarkBaseSignature(index=3, signature_bytes=flipped)
        stale = scheme.sign(pp, 4, sks[4], b"another message")
        filtered = scheme.aggregate1(
            pp, vks, message,
            [good[0], forged, good[1], stale, good[3], good[4], forged, good[3]],
        )
        *certified, opening = filtered
        assert [item.base for item in certified] == [
            good[0], good[1], good[3], good[4]
        ]
        assert opening.indices == (0, 1, 3, 4)
        aggregate = scheme.aggregate(
            pp, vks, message, [forged, stale] + good
        )
        assert aggregate.count == n
        assert scheme.verify(pp, vks, message, aggregate)


class TestKeptVerdicts:
    """A kept verdict answers only for its own bytes: once a valid base
    signature at an index is settled, a mutated or forged signature at
    that index is still refused by Aggregate1 and by the leaf circuit."""

    @pytest.mark.parametrize(
        "base", [HashRegistryBase, SchnorrBase], ids=["hash", "schnorr"]
    )
    def test_mutated_and_forged_after_the_valid_one(self, base):
        rng = Randomness(13)
        scheme = SnarkSRDS(base_scheme=base())
        n = 6
        pp = scheme.setup(n, rng.fork("s"))
        vks, sks = {}, {}
        for i in range(n):
            vks[i], sks[i] = scheme.keygen(pp, rng.fork(f"k{i}"))
        message = b"kept-verdicts"
        good = [scheme.sign(pp, i, sks[i], message) for i in range(n)]
        *certified, opening = scheme.aggregate1(pp, vks, message, good)
        assert len(scheme.base_scheme._verdicts) == n

        def witness(entries):
            return encode_sequence(
                [opening.encode()] + [c.encode() for c in entries]
            )

        assert _leaf_circuit(
            message, witness(certified), scheme.base_scheme, n
        ) is not None
        signature = good[2].signature_bytes
        _, own_secret = scheme.base_scheme.keygen(rng.fork("own"))
        for bad_bytes in (
            signature[:5] + bytes([signature[5] ^ 0x01]) + signature[6:],
            signature[:-1] + bytes([signature[-1] ^ 0x80]),
            scheme.base_scheme.sign(own_secret, message),
        ):
            bad = SnarkBaseSignature(index=2, signature_bytes=bad_bytes)
            *admitted, _ = scheme.aggregate1(
                pp, vks, message, [bad, good[0]]
            )
            assert [c.base for c in admitted] == [good[0]]
            tampered = list(certified)
            tampered[2] = CertifiedBaseSignature(
                base=bad, verification_key=vks[2]
            )
            assert _leaf_circuit(
                message, witness(tampered), scheme.base_scheme, n
            ) is None


    @pytest.mark.parametrize(
        "make",
        [lambda: SnarkSRDS(base_scheme=HashRegistryBase()), RegisteredSRDS],
        ids=["snark", "registered"],
    )
    def test_a_dropped_setup_frees_its_scratch_without_the_collector(
        self, make
    ):
        """Each scheme's internal circuit holds its SNARK system weakly, so
        no cycle keeps a finished run's system, keys and verdicts until a
        full collection."""
        scheme = make()
        pp = scheme.setup(8, Randomness(14))
        vk, sk = scheme.keygen(pp, Randomness(15))
        signature = scheme.sign(pp, 0, sk, b"m")
        assert scheme.aggregate1(pp, {0: vk}, b"m", [signature])
        kept = [weakref.ref(scheme), weakref.ref(pp.extra["snark"])]
        if isinstance(scheme, SnarkSRDS):
            kept.append(weakref.ref(scheme.base_scheme))
        gc.disable()
        try:
            del scheme, pp
            assert [ref() for ref in kept] == [None] * len(kept)
        finally:
            gc.enable()


class TestLeafRelation:
    """One rejection per clause of the leaf circuit.  Every case tampers
    one thing in a witness/statement pair the circuit outputs."""

    MESSAGE = b"leaf-relation"
    INDICES = (40, 41, 43, 44, 47)

    @pytest.fixture()
    def accepted(self, deployment):
        """``(certified, opening)`` as Aggregate1 emits them."""
        scheme, pp, vks, _ = deployment
        signatures = _sign_range(deployment, self.MESSAGE, self.INDICES)
        *certified, opening = scheme.aggregate1(
            pp, vks, self.MESSAGE, signatures
        )
        assert isinstance(opening, MerkleMultiProof)
        assert opening.indices == self.INDICES
        return certified, opening

    def _holds(self, deployment, certified, opening, **statement_fields):
        """Whether the leaf circuit outputs, from this witness, the
        statement an honest prover would derive from it (fields
        overridable)."""
        scheme, pp, vks, _ = deployment
        fields = dict(
            count=len(certified),
            lo=certified[0].base.index,
            hi=certified[-1].base.index,
            digest=hash_chain(
                _CHAIN_DOMAIN,
                (c.base.contribution_digest() for c in certified),
            ),
            vk_root=vk_merkle_tree(vks, pp.num_parties).root,
        )
        fields.update(statement_fields)
        statement = encode_statement(self.MESSAGE, *fields.values())
        witness = encode_sequence(
            [opening.encode()] + [c.encode() for c in certified]
        )
        return _leaf_circuit(
            self.MESSAGE, witness, scheme.base_scheme, pp.num_parties
        ) == statement

    def test_the_honest_witness_is_accepted(self, deployment, accepted):
        assert self._holds(deployment, *accepted)

    def test_wrong_key_at_an_index(self, deployment, accepted):
        # A key the signer really holds, but not the one committed at 41.
        scheme, pp, vks, sks = deployment
        certified, opening = accepted
        own_key, own_secret = scheme.keygen(pp, Randomness(5))
        certified[1] = CertifiedBaseSignature(
            base=SnarkBaseSignature(
                index=41,
                signature_bytes=scheme.base_scheme.sign(
                    own_secret, self.MESSAGE
                ),
            ),
            verification_key=own_key,
        )
        assert not self._holds(deployment, certified, opening)

    def test_index_outside_the_statements_range(self, deployment, accepted):
        certified, opening = accepted
        assert not self._holds(deployment, certified, opening, lo=41)
        assert not self._holds(deployment, certified, opening, hi=46)

    def test_duplicate_index(self, deployment, accepted):
        certified, opening = accepted
        doubled = certified[:2] + certified[1:]
        assert not self._holds(deployment, doubled, opening)
        # ... also under an opening that lists the index twice.
        assert not self._holds(
            deployment, doubled,
            dataclasses.replace(
                opening, indices=tuple(c.base.index for c in doubled)
            ),
        )

    def test_unsorted_indices(self, deployment, accepted):
        certified, opening = accepted
        swapped = [certified[1], certified[0]] + certified[2:]
        assert not self._holds(
            deployment, swapped, opening,
            lo=certified[0].base.index,
        )

    def test_wrong_root(self, deployment, accepted):
        scheme, pp, vks, _ = deployment
        certified, opening = accepted
        moved = dict(vks)
        moved[0] = b"another board"
        assert not self._holds(
            deployment, certified, opening,
            vk_root=vk_merkle_tree(moved, pp.num_parties).root,
        )
        flipped = bytes([opening.siblings[0][0] ^ 1]) + opening.siblings[0][1:]
        assert not self._holds(
            deployment, certified,
            dataclasses.replace(
                opening, siblings=(flipped,) + opening.siblings[1:]
            ),
        )

    def test_bad_base_signature(self, deployment, accepted):
        certified, opening = accepted
        signature = certified[2].base.signature_bytes
        certified[2] = dataclasses.replace(
            certified[2],
            base=SnarkBaseSignature(
                index=certified[2].base.index,
                signature_bytes=signature[:-1] + bytes([signature[-1] ^ 1]),
            ),
        )
        assert not self._holds(deployment, certified, opening)

    def test_chain_digest_mismatch(self, deployment, accepted):
        certified, opening = accepted
        assert not self._holds(
            deployment, certified, opening, digest=bytes(32)
        )

    def test_count_mismatch(self, deployment, accepted):
        certified, opening = accepted
        assert not self._holds(deployment, certified, opening, count=4)

    def test_openings_index_set_is_not_the_batchs(self, deployment, accepted):
        scheme, pp, vks, _ = deployment
        certified, opening = accepted
        tree = vk_merkle_tree(vks, pp.num_parties)
        # A valid opening of a superset, of a subset, and of other leaves.
        for indices in ((40, 41, 42, 43, 44, 47), (40, 41, 43, 44), (1, 2)):
            assert not self._holds(
                deployment, certified, tree.prove_many(indices)
            )
        # ... and the right opening over one signature too few.
        assert not self._holds(deployment, certified[:-1], opening)

    def test_opening_of_another_width(self, deployment, accepted):
        certified, opening = accepted
        assert not self._holds(
            deployment, certified,
            dataclasses.replace(opening, leaf_count=opening.leaf_count + 1),
        )

    def test_aggregate2_refuses_bases_without_their_opening(
        self, deployment, accepted
    ):
        scheme, pp, _, _ = deployment
        certified, opening = accepted
        for hand_built in (
            certified,
            certified[:-1] + [opening],
            certified + certified[:1] + [opening],
        ):
            with pytest.raises(SignatureError, match="opening"):
                scheme.aggregate2(pp, self.MESSAGE, hand_built)
        # An opening on its own is nothing to aggregate.
        assert scheme.aggregate2(pp, self.MESSAGE, [opening]) is None
        assert scheme.aggregate2(
            pp, self.MESSAGE, certified + [opening]
        ).count == len(certified)


class TestRangeCheckBeforeAggregate1:
    """pi_ba step 5c: a base signature outside a leaf's virtual range is
    dropped on its index *before* Aggregate1, so the opening Aggregate1
    emits covers exactly what enters f_aggr-sig."""

    N = 16
    SEED = 2021

    class _SpyScheme(SnarkSRDS):
        def __init__(self):
            super().__init__(base_scheme=HashRegistryBase())
            self.aggregate1_inputs = []

        def aggregate1(self, pp, verification_keys, message, signatures):
            self.aggregate1_inputs.append(list(signatures))
            return super().aggregate1(
                pp, verification_keys, message, signatures
            )

    def test_out_of_range_signature_never_reaches_aggregate1(self):
        """The first leaf receives its honest mail plus a valid signature
        of the first virtual id of the *next* leaf."""
        scheme = self._SpyScheme()
        context, signing_keys = build_context(self.N, self.SEED, scheme)
        leaf = context.tree.leaves[0]
        assert is_good_node(leaf, context.plan.corrupted)
        mail = leaf_mail(context, signing_keys, leaf)
        outside = leaf.virtual_range[1]
        foreign = scheme.sign(
            context.pp, outside, signing_keys[outside], context.pair_message
        )
        clean = node_output(context, leaf, mail)
        injected = node_output(context, leaf, mail + [foreign])
        assert all(
            foreign is not signature
            for signatures in scheme.aggregate1_inputs
            for signature in signatures
        )
        assert clean is not None
        assert injected.encode() == clean.encode()
