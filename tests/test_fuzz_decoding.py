"""Fuzz tests: every wire decoder survives arbitrary bytes.

Adversaries control message payloads, so every decode path must either
return a well-typed object or raise a *library* exception — never an
unhandled crash — and every verifier must return ``False`` (not raise)
on garbage inputs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.utils.randomness import Randomness
from tests.strategies import bit_flips, garbage

LIBRARY_ERRORS = (ReproError, ValueError)

# Example counts and deadlines come from the active Hypothesis profile
# (``ci`` by default; see tests/conftest.py).
_fuzz = settings()


#: Arbitrary pickled values a worker could put in a done: scalars of
#: every near-miss type (bools, floats, negative ints, bytes) nested in
#: lists, tuples and dicts.
_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-3, 9), st.floats(-1, 9),
        st.text(max_size=3), st.binary(max_size=3),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.tuples(inner, inner, inner, inner),
        st.dictionaries(st.integers(0, 3), inner, max_size=3),
    ),
    max_leaves=12,
)

#: Charge digests, mostly near-valid ``(sender, bits, phase,
#: recipients)`` runs so the checks past the shape are reached too.
_digests = st.one_of(
    _values,
    st.lists(
        st.one_of(
            _values,
            st.tuples(
                st.one_of(st.integers(-1, 4), _values),
                st.one_of(st.integers(-1, 64), _values),
                st.one_of(st.sampled_from(["", "kssv"]), _values),
                st.one_of(
                    st.lists(
                        st.one_of(st.integers(-1, 4), _values), max_size=5
                    ),
                    _values,
                ),
            ),
        ),
        max_size=4,
    ),
)


def _done_body(round_index):
    from repro.cluster.wire import DONE, Message
    from repro.net.trains import _LENGTH

    return Message(DONE, {"round": round_index}).encode()[_LENGTH.size:]


class TestSerializationDecoders:
    @_fuzz
    @given(data=garbage)
    def test_decode_uint(self, data):
        from repro.utils.serialization import decode_uint

        try:
            value, pos = decode_uint(data)
            assert value >= 0 and pos <= len(data)
        except LIBRARY_ERRORS:
            pass

    @_fuzz
    @given(data=garbage)
    def test_decode_bytes(self, data):
        from repro.utils.serialization import decode_bytes

        try:
            blob, pos = decode_bytes(data)
            assert pos <= len(data)
        except LIBRARY_ERRORS:
            pass

    @_fuzz
    @given(data=garbage)
    def test_decode_sequence(self, data):
        from repro.utils.serialization import decode_sequence

        try:
            items, pos = decode_sequence(data)
            assert pos <= len(data)
        except LIBRARY_ERRORS:
            pass


class TestClusterDecoders:
    @_fuzz
    @given(data=garbage)
    def test_mesh_chunk(self, data):
        from repro.cluster.meshwire import decode_chunk

        try:
            chunk = decode_chunk(data)
            assert chunk.num_chunks >= 1
            assert chunk.chunk_index < chunk.num_chunks
            assert data[6] in (0, 1) and chunk.halted is bool(data[6])
        except LIBRARY_ERRORS:
            pass

    @_fuzz
    @given(flag=st.integers(min_value=0, max_value=255),
           body=st.binary(max_size=48))
    def test_mesh_v3_halted_byte(self, flag, body):
        """A well-formed v3 train header with any halted byte: 0 and 1
        decode to the flag, every other value is refused."""
        from repro.cluster.meshwire import decode_chunk, split_train

        record = bytearray(split_train(0, 1, 3, body, chunk_bytes=16)[0])
        record[6] = flag
        try:
            chunk = decode_chunk(bytes(record))
        except LIBRARY_ERRORS:
            assert flag > 1
            return
        assert flag <= 1 and chunk.halted is bool(flag)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("dst_worker", 0, "from worker 0 to itself"),
            ("num_chunks", 0, "claims zero chunks"),
            ("chunk_index", 2, "chunk index 2 out of range"),
        ],
        ids=["to-itself", "zero-chunks", "index-past-count"],
    )
    def test_out_of_range_chunk_header_fields(self, field, value, match):
        """Forged coordinates on a well-formed chunk 0 of 2: each is
        refused by its own check, not by a later one by accident."""
        from repro.cluster.meshwire import _CHUNK, decode_chunk, split_train
        from repro.errors import SerializationError

        record = split_train(0, 1, 3, b"body", chunk_bytes=2)[0]
        header = dict(zip(
            ("magic", "version", "kind", "halted", "src_worker",
             "dst_worker", "round_index", "chunk_index", "num_chunks",
             "payload_len"),
            _CHUNK.unpack_from(record),
        ))
        header[field] = value
        forged = _CHUNK.pack(*header.values()) + record[_CHUNK.size:]
        with pytest.raises(SerializationError, match=match):
            decode_chunk(forged)

    @_fuzz
    @given(data=garbage)
    def test_mesh_train_body(self, data):
        from repro.net.trains import decode_train_body

        try:
            frames = decode_train_body(data)
            assert all(frame.bits() >= 0 for frame in frames)
        except LIBRARY_ERRORS:
            pass

    @_fuzz
    @given(data=garbage)
    def test_control_message(self, data):
        from repro.cluster.wire import Message

        try:
            message = Message.decode(data)
            assert message.kind
        except LIBRARY_ERRORS:
            pass

    @_fuzz
    @given(data=st.integers(min_value=0, max_value=1 << 40).flatmap(
        lambda round_index: bit_flips(_done_body(round_index))
    ))
    def test_done_message_bit_flips(self, data):
        from repro.cluster.wire import KINDS, Message

        try:
            message = Message.decode(data)
            assert message.kind in KINDS
        except LIBRARY_ERRORS:
            pass

    @_fuzz
    @given(digest=_digests)
    def test_done_digest_runs(self, digest):
        """A worker's charge digest is pickled data it fully controls:
        any rows either charge as valid runs of its own parties or raise
        ``ClusterError`` with nothing charged — never another error."""
        from repro.cluster.job import replay_job
        from repro.cluster.supervisor import ClusterConfig, ClusterSupervisor
        from repro.cluster.wire import DONE, Message
        from repro.errors import ClusterError
        from repro.runtime.replay import ReplayScript

        # n=4 over two workers: worker 0 owns parties 0 and 1.
        supervisor = ClusterSupervisor(
            replay_job(ReplayScript(segments=[]), 4),
            ClusterConfig(num_workers=2),
        )
        done = Message(
            DONE, {"round": 0},
            blob=Message.pack_payload({"digest": digest}),
        )
        try:
            supervisor._process_done(0, done)
        except ClusterError:
            assert supervisor.metrics.party_ids == []
            assert supervisor.metrics.current_round_bits == 0
            return
        senders = {
            party for party in supervisor.metrics.party_ids
            if supervisor.metrics.tally_of(party).messages_sent
        }
        assert senders <= {0, 1}


class TestTrainDecoders:
    """The one frame wire format and the TCP records that carry it."""

    #: Two phases, the -1 sentinel, a charge that is no byte multiple,
    #: an empty payload and a repeated (sender, recipient) pair.
    TRAIN = (
        ("vote", 17, b"ab"), ("κ/graded-consensus", -1, b"xyz"),
        ("vote", 0, b""), ("", 4099, b"q" * 9),
    )

    def _train(self):
        from repro.net.party import Frame

        return [
            Frame(2, 5, payload, sent_round=3, deliver_round=4 + k,
                  charge_bits=bits, seq=k, phase=phase)
            for k, (phase, bits, payload) in enumerate(self.TRAIN)
        ]

    def test_round_trip_and_every_truncation(self):
        from repro.errors import MALFORMED_INPUT_ERRORS
        from repro.net.trains import decode_train_body, encode_train_body

        body = encode_train_body(self._train())
        assert decode_train_body(body) == self._train()
        assert decode_train_body(encode_train_body([])) == []
        for cut in range(len(body)):
            with pytest.raises(MALFORMED_INPUT_ERRORS):
                decode_train_body(body[:cut])
        with pytest.raises(MALFORMED_INPUT_ERRORS):
            decode_train_body(body + b"\x00")

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("deliver_round", 3, "delivery round 3 on or before"),
            ("deliver_round", 0, "delivery round 0 on or before"),
            ("charge_bits", -2, "below the -1"),
            ("phase_id", 9, "phase id 9"),
        ],
    )
    def test_out_of_range_header_fields(self, field, value, match):
        from repro.errors import SerializationError
        from repro.net.party import Frame
        from repro.net.trains import _FRAME, decode_train_body, encode_train_body

        body = encode_train_body([Frame(2, 5, b"ab", sent_round=3,
                                        deliver_round=4, phase="vote")])
        offset = len(body) - 2 - _FRAME.size
        header = dict(zip(
            ("sender", "recipient", "sent_round", "deliver_round",
             "charge_bits", "seq", "phase_id", "payload_len"),
            _FRAME.unpack_from(body, offset),
        ))
        header[field] = value
        forged = body[:offset] + _FRAME.pack(*header.values()) + body[-2:]
        with pytest.raises(SerializationError, match=match):
            decode_train_body(forged)

    def test_phase_label_past_the_body_end(self):
        from repro.errors import SerializationError
        from repro.net.party import Frame
        from repro.net.trains import _U16, decode_train_body, encode_train_body

        body = encode_train_body([Frame(2, 5, b"ab", sent_round=3,
                                        deliver_round=4, phase="vote")])
        # The one phase label claims to run past the end of the body.
        forged = body[:4] + _U16.pack(len(body)) + body[6:]
        with pytest.raises(SerializationError,
                           match="truncated train phase table at offset 6"):
            decode_train_body(forged)

    @_fuzz
    @given(data=garbage)
    def test_tcp_record_splitter(self, data):
        from repro.runtime.transport import _split_records

        buffer = bytearray(data)
        try:
            records = _split_records(buffer)
        except LIBRARY_ERRORS:
            return
        # Whatever came off the front is accounted for, byte for byte.
        consumed = sum(9 + len(body) for _, _, body in records)
        assert consumed + len(buffer) == len(data)

    @_fuzz
    @given(data=garbage)
    def test_tcp_train(self, data):
        from repro.runtime.transport import _open_train

        try:
            frames = _open_train(1, 0, data)
        except LIBRARY_ERRORS:
            return
        assert all((f.sender, f.recipient) == (0, 1) for f in frames)


class TestCryptoDecoders:
    @_fuzz
    @given(data=garbage)
    def test_ec_point(self, data):
        from repro.crypto import ec

        try:
            point = ec.decode_point(data)
            assert ec.is_on_curve(point)
        except LIBRARY_ERRORS:
            pass

    @_fuzz
    @given(data=garbage)
    def test_schnorr_signature(self, data):
        from repro.crypto import schnorr

        try:
            schnorr.SchnorrSignature.decode(data)
        except LIBRARY_ERRORS:
            pass

    @_fuzz
    @given(data=garbage)
    def test_lamport_decoders(self, data):
        from repro.crypto import lamport

        try:
            lamport.decode_signature(data, 16)
        except LIBRARY_ERRORS:
            pass
        try:
            lamport.decode_verification_key(data, 16)
        except LIBRARY_ERRORS:
            pass

    @_fuzz
    @given(data=garbage)
    def test_winternitz_decoders(self, data):
        from repro.crypto import winternitz

        try:
            winternitz.decode_signature(data, 32, 4)
        except LIBRARY_ERRORS:
            pass

    @_fuzz
    @given(data=garbage)
    def test_merkle_multiproof(self, data):
        from repro.crypto.merkle import MerkleMultiProof, root_from_multiproof

        try:
            proof, end = MerkleMultiProof.decode(data)
        except LIBRARY_ERRORS:
            return
        assert end <= len(data) and proof.encode() == data[:end]
        # Whatever decodes is safe to walk: a root or a named error.
        try:
            root_from_multiproof([b"leaf"] * len(proof.indices), proof)
        except LIBRARY_ERRORS:
            pass

    @pytest.mark.parametrize("count", [1 << 20, 1 << 62, (1 << 119) - 1])
    def test_merkle_multiproof_attacker_chosen_counts(self, count):
        """A count the bytes cannot hold is refused before anything is
        built from it; a width nothing could have is walked level by
        level, never materialised."""
        from repro.crypto.merkle import MerkleMultiProof, root_from_multiproof
        from repro.errors import CryptoError
        from repro.utils.serialization import encode_uint

        width, one, none = encode_uint(8), encode_uint(1), encode_uint(0)
        huge = encode_uint(count)
        for hostile in (
            width + huge + one * 40,               # index count
            width + one + one + huge + one * 40,   # sibling count
        ):
            with pytest.raises(CryptoError):
                MerkleMultiProof.decode(hostile)
        proof, _ = MerkleMultiProof.decode(huge + one + none + none)
        assert proof.leaf_count == count
        with pytest.raises(CryptoError):
            root_from_multiproof([b"leaf"], proof)


class TestSrdsDecoders:
    @_fuzz
    @given(data=garbage)
    def test_owf_signature(self, data):
        from repro.srds.owf import decode_signature

        try:
            decoded = decode_signature(data)
            assert decoded.encode()  # decodable implies re-encodable
        except LIBRARY_ERRORS:
            pass

    @_fuzz
    @given(data=garbage)
    def test_snark_aggregate(self, data):
        from repro.srds.snark_based import decode_aggregate

        try:
            decode_aggregate(data)
        except LIBRARY_ERRORS:
            pass

    @_fuzz
    @given(data=garbage)
    def test_registered_aggregate(self, data):
        # Same convention as the SNARK scheme's decoder: raise, never
        # return ``None``.
        from repro.srds.registered import decode_aggregate

        try:
            assert decode_aggregate(data).encode()
        except LIBRARY_ERRORS:
            pass

    @_fuzz
    @given(data=garbage)
    def test_counting_statement(self, data):
        from repro.srds.pcd import decode_statement, encode_statement

        try:
            fields = decode_statement(data)
        except LIBRARY_ERRORS:
            return
        assert decode_statement(encode_statement(*fields)) == fields

    @_fuzz
    @given(data=garbage)
    def test_dolev_strong_chain(self, data):
        from repro.protocols.dolev_strong import SignatureChain

        try:
            SignatureChain.decode(data)
        except LIBRARY_ERRORS:
            pass


@pytest.fixture(scope="module")
def snark_deployment():
    from repro.srds.base_sigs import HashRegistryBase
    from repro.srds.snark_based import SnarkSRDS

    rng = Randomness(202)
    scheme = SnarkSRDS(base_scheme=HashRegistryBase())
    pp = scheme.setup(30, rng.fork("s"))
    vks = {}
    for i in range(30):
        vks[i], _ = scheme.keygen(pp, rng.fork(f"k{i}"))
    return scheme, pp, vks


@pytest.fixture(scope="module")
def leaf_witness():
    """``(message, statement, witness, circuit)``: the SNARK-SRDS leaf
    circuit outputs ``statement`` from ``(message, witness)``."""
    from repro.crypto.hashing import hash_chain
    from repro.srds.base_sigs import HashRegistryBase
    from repro.srds.pcd import encode_statement
    from repro.srds.snark_based import (
        _CHAIN_DOMAIN,
        SnarkSRDS,
        _leaf_circuit,
        vk_merkle_tree,
    )
    from repro.utils.serialization import encode_sequence

    rng = Randomness(203)
    scheme = SnarkSRDS(base_scheme=HashRegistryBase())
    n = 30
    pp = scheme.setup(n, rng.fork("s"))
    vks, sks = {}, {}
    for i in range(n):
        vks[i], sks[i] = scheme.keygen(pp, rng.fork(f"k{i}"))
    message = b"fuzzed-leaf"
    *certified, opening = scheme.aggregate1(
        pp, vks, message,
        [scheme.sign(pp, i, sks[i], message) for i in range(9, 15)],
    )
    statement = encode_statement(
        message, len(certified), 9, 14,
        hash_chain(
            _CHAIN_DOMAIN, (c.base.contribution_digest() for c in certified)
        ),
        vk_merkle_tree(vks, n).root,
    )
    witness = encode_sequence(
        [opening.encode()] + [c.encode() for c in certified]
    )

    def circuit(public, candidate_witness):
        return _leaf_circuit(
            public, candidate_witness, scheme.base_scheme, n
        )

    assert circuit(message, witness) == statement
    return message, statement, witness, circuit


class TestVerifiersNeverRaise:
    @_fuzz
    @given(data=garbage)
    def test_leaf_relation_garbage_witness(self, leaf_witness, data):
        message, statement, witness, circuit = leaf_witness
        assert circuit(message, data) is None
        assert circuit(data, witness) == (
            statement if data == message else None
        )

    @_fuzz
    @given(
        position=st.integers(min_value=0, max_value=10_000),
        byte=st.integers(min_value=0, max_value=255),
        cut=st.booleans(),
    )
    def test_leaf_relation_mutated_witness(
        self, leaf_witness, position, byte, cut
    ):
        """One overwritten byte (a count, a length, an index, a digest)
        or a truncation: a verdict, never an exception or a hang."""
        message, statement, witness, circuit = leaf_witness
        position %= len(witness)
        if cut:
            assert circuit(message, witness[:position]) is None
            return
        mutated = witness[:position] + bytes([byte]) + witness[position + 1:]
        assert (circuit(message, mutated) == statement) is (
            mutated == witness
        )

    @_fuzz
    @given(data=garbage)
    def test_snark_verify_garbage_aggregate(self, snark_deployment, data):
        from repro.srds.snark_based import decode_aggregate

        scheme, pp, vks = snark_deployment
        try:
            aggregate = decode_aggregate(data)
        except LIBRARY_ERRORS:
            return
        assert scheme.verify(pp, vks, b"msg", aggregate) in (True, False)

    @_fuzz
    @given(binding=garbage, witness=garbage)
    def test_internal_relation_garbage(
        self, snark_deployment, binding, witness
    ):
        from repro.srds.pcd import internal_circuit

        scheme, pp, _ = snark_deployment
        assert internal_circuit(
            pp.extra["snark"], scheme.certificate, binding, witness
        ) is None

    @_fuzz
    @given(data=garbage)
    def test_base_scheme_verify_garbage(self, data):
        from repro.srds.base_sigs import SchnorrBase

        scheme = SchnorrBase()
        assert scheme.verify(data, b"msg", data) is False

    @_fuzz
    @given(data=garbage)
    def test_owf_aggregate1_garbage_base(self, data):
        """Garbage OTS bytes inside a base signature are filtered, not
        fatal."""
        from repro.srds.owf import OwfBaseSignature, OwfSRDS

        scheme = OwfSRDS(message_bits=16, sortition_factor=1)
        pp = scheme.setup(16, Randomness(1))
        vks = {}
        for i in range(16):
            vks[i], _ = scheme.keygen(pp, Randomness(i + 2))
        bogus = OwfBaseSignature(index=3, ots_signature=data)
        assert scheme.aggregate1(pp, vks, b"m", [bogus]) == []
