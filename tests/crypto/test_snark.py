"""Tests for the simulated SNARK / PCD system."""

import pytest

from repro.crypto.snark import PROOF_BYTES, Proof, SnarkSystem, forge_random_proof
from repro.errors import ProofError
from repro.utils.randomness import Randomness
from repro.utils.serialization import encode_uint


@pytest.fixture
def system():
    sys_ = SnarkSystem(b"crs-seed")
    sys_.register_relation(
        "len3", lambda statement, witness: len(witness) == 3
    )
    return sys_


class TestProveVerify:
    def test_valid_proof(self, system):
        proof = system.prove("len3", b"stmt", b"abc")
        assert system.verify("len3", b"stmt", proof)

    def test_wrong_statement_rejected(self, system):
        proof = system.prove("len3", b"stmt", b"abc")
        assert not system.verify("len3", b"other", proof)

    def test_bad_witness_refused(self, system):
        with pytest.raises(ProofError):
            system.prove("len3", b"stmt", b"toolong")

    def test_unknown_relation_prove_rejected(self, system):
        with pytest.raises(ProofError):
            system.prove("nope", b"stmt", b"abc")

    def test_unknown_relation_verify_false(self, system):
        proof = system.prove("len3", b"stmt", b"abc")
        assert not system.verify("nope", b"stmt", proof)

    def test_proof_constant_size(self, system):
        system.register_relation("any", lambda s, w: True)
        small = system.prove("any", b"s", b"")
        large = system.prove("any", b"s2", b"w" * 100_000)
        assert small.size_bytes() == large.size_bytes() == PROOF_BYTES

    def test_cross_relation_rejected(self, system):
        system.register_relation("len3b", lambda s, w: len(w) == 3)
        proof = system.prove("len3", b"stmt", b"abc")
        assert not system.verify("len3b", b"stmt", proof)

    def test_forged_random_proof_rejected(self, system):
        rng = Randomness(1)
        for _ in range(20):
            forged = forge_random_proof("len3", rng)
            assert not system.verify("len3", b"stmt", forged)

    def test_different_crs_incompatible(self):
        a = SnarkSystem(b"crs-a")
        b = SnarkSystem(b"crs-b")
        a.register_relation("r", lambda s, w: True)
        b.register_relation("r", lambda s, w: True)
        proof = a.prove("r", b"stmt", b"")
        assert not b.verify("r", b"stmt", proof)


class TestRegistration:
    def test_duplicate_registration_rejected(self, system):
        with pytest.raises(ProofError):
            system.register_relation("len3", lambda s, w: True)

    def test_has_relation(self, system):
        assert system.has_relation("len3")
        assert not system.has_relation("absent")


class TestRecursion:
    def test_recursive_composition(self):
        """A relation that verifies an inner proof — the PCD pattern."""
        system = SnarkSystem(b"crs")
        system.register_relation("base", lambda s, w: w == b"secret")

        def outer(statement: bytes, witness: bytes) -> bool:
            return system.verify(
                "base", statement, Proof(relation_name="base", tag=witness)
            )

        system.register_relation("outer", outer)
        inner = system.prove("base", b"stmt", b"secret")
        outer_proof = system.prove("outer", b"stmt", inner.tag)
        assert system.verify("outer", b"stmt", outer_proof)

    def test_recursive_rejects_bad_inner(self):
        system = SnarkSystem(b"crs")
        system.register_relation("base", lambda s, w: w == b"secret")

        def outer(statement: bytes, witness: bytes) -> bool:
            return system.verify(
                "base", statement, Proof(relation_name="base", tag=witness)
            )

        system.register_relation("outer", outer)
        with pytest.raises(ProofError):
            system.prove("outer", b"stmt", bytes(32))


def _count_circuit(public: bytes, witness: bytes):
    """Outputs ``public`` followed by the witness length; rejects an
    empty witness."""
    if not witness:
        return None
    return public + encode_uint(len(witness))


class TestCircuits:
    @pytest.fixture
    def system(self):
        system = SnarkSystem(b"crs-seed")
        system.register_circuit("count", _count_circuit)
        return system

    def test_prove_output_returns_the_circuits_statement(self, system):
        statement, proof = system.prove_output("count", b"p", b"abc")
        assert statement == _count_circuit(b"p", b"abc")
        assert system.verify("count", statement, proof)

    def test_a_rejected_witness_raises(self, system):
        with pytest.raises(ProofError):
            system.prove_output("count", b"p", b"")

    def test_a_statement_the_circuit_did_not_output_never_verifies(
        self, system
    ):
        statement, proof = system.prove_output("count", b"p", b"abc")
        for other in (b"p", _count_circuit(b"p", b"abcd"), statement + b"\0"):
            assert not system.verify("count", other, proof)
        # prove() certifies only what the circuit outputs from it.
        with pytest.raises(ProofError):
            system.prove("count", b"p", b"abc")

    def test_a_relation_is_the_circuit_that_outputs_its_statement(self):
        system = SnarkSystem(b"crs-seed")
        system.register_relation("len3", lambda s, w: len(w) == 3)
        statement, proof = system.prove_output("len3", b"stmt", b"abc")
        assert statement == b"stmt"
        assert proof == system.prove("len3", b"stmt", b"abc")
        with pytest.raises(ProofError):
            system.prove("len3", b"false", b"ab")
