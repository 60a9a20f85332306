"""The encode-once memo on frozen SRDS wire values is unobservable.

``repro.utils.serialization.encode_once`` keeps a value's canonical bytes
on the instance after the first ``encode()``.  Nothing but the speed of
the second call may tell: not the bytes, not ``==``/``hash``/``repr``,
not ``dataclasses.replace``, not a pickle, and never another value's
encoding.  Plus the ``pcd.board_binding`` regressions (a cache that
*was* observable), over both schemes that derive something from the
bulletin board.
"""

import copy
import dataclasses
import gc
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.merkle import MerkleMultiProof, MerkleProof
from repro.crypto.snark import Proof
from repro.net.adversary import random_corruption
from repro.params import ProtocolParameters
from repro.pki.registry import PKIMode
from repro.protocols.balanced_ba import run_balanced_ba
from repro.srds import adversaries as adv
from repro.srds import owf, pcd, registered, snark_based
from repro.srds.base_sigs import HashRegistryBase, SchnorrBase
from repro.srds.experiments import (
    run_forgery_experiment,
    run_robustness_experiment,
)
from repro.srds.owf import OwfAggregateSignature, OwfBaseSignature, OwfSRDS
from repro.srds.registered import (
    FilteredItem,
    RegisteredAggregateSignature,
    RegisteredBaseSignature,
    RegisteredSRDS,
)
from repro.srds.snark_based import (
    CertifiedBaseSignature,
    SnarkAggregateSignature,
    SnarkBaseSignature,
    SnarkSRDS,
    vk_merkle_tree,
)
from repro.utils.randomness import Randomness

# -- one strategy per value type ------------------------------------------------

_uints = st.integers(min_value=0, max_value=2**40)
_blobs = st.binary(max_size=40)
_digests = st.binary(min_size=32, max_size=32)
_proofs = st.builds(
    Proof, relation_name=st.sampled_from(["leaf", "internal"]), tag=_digests
)
_merkle_proofs = st.builds(
    MerkleProof,
    leaf_index=_uints,
    siblings=st.lists(st.tuples(_digests, st.booleans()), max_size=6).map(tuple),
)
_merkle_multiproofs = st.builds(
    MerkleMultiProof,
    leaf_count=_uints,
    indices=st.lists(_uints, max_size=6).map(tuple),
    siblings=st.lists(_digests, max_size=6).map(tuple),
)
_snark_bases = st.builds(
    SnarkBaseSignature, index=_uints, signature_bytes=_blobs
)
_certified = st.builds(
    CertifiedBaseSignature, base=_snark_bases, verification_key=_blobs
)
_snark_aggregates = st.builds(
    SnarkAggregateSignature,
    count=_uints, lo=_uints, hi=_uints,
    digest=_digests, vk_root=_digests, message_tag=_digests, proof=_proofs,
)
_owf_bases = st.builds(OwfBaseSignature, index=_uints, ots_signature=_blobs)
_owf_aggregates = st.builds(
    OwfAggregateSignature,
    contributions=st.lists(_owf_bases, max_size=4).map(tuple),
)
_registered_bases = st.builds(
    RegisteredBaseSignature, index=_uints, tag=_digests
)
_registered_aggregates = st.builds(
    RegisteredAggregateSignature,
    combined_tag=_digests, count=_uints, lo=_uints, hi=_uints,
    message_digest=_digests, board_digest=_digests, proof=_proofs,
)
_filtered_items = st.builds(
    FilteredItem,
    kind=st.sampled_from(["base", "agg"]),
    payload=st.one_of(_registered_bases, _registered_aggregates),
    message=_blobs,
    board_digest=_digests,
)

_VALUES = st.one_of(
    _merkle_proofs, _merkle_multiproofs, _snark_bases, _certified, _snark_aggregates,
    _owf_bases, _owf_aggregates, _registered_bases, _registered_aggregates,
    _filtered_items,
)


def _never_encoded(value):
    """An equal value none of whose parts has been encoded yet
    (``deepcopy`` goes through ``__getstate__`` at every level)."""
    return copy.deepcopy(value)


class TestTheMemoIsUnobservable:
    @given(_VALUES)
    def test_second_encode_is_the_first_and_equals_a_fresh_encoding(
        self, value
    ):
        fresh = _never_encoded(value)
        first = value.encode()
        assert value.encode() is first
        assert fresh.encode() == first
        if hasattr(value, "size_bytes"):
            assert value.size_bytes() == len(first)

    @given(_VALUES)
    def test_eq_hash_repr_and_pickle_do_not_see_it(self, value):
        fresh = _never_encoded(value)
        before = (repr(value), hash(value), pickle.dumps(value))
        value.encode()
        assert (repr(value), hash(value), pickle.dumps(value)) == before
        assert value == fresh and hash(value) == hash(fresh)
        assert pickle.dumps(value) == pickle.dumps(fresh)
        restored = pickle.loads(pickle.dumps(value))
        assert restored == value
        assert vars(restored) == {
            field.name: getattr(value, field.name)
            for field in dataclasses.fields(value)
        }
        assert restored.encode() == value.encode()

    @given(_VALUES, st.data())
    def test_replace_re_encodes(self, value, data):
        value.encode()
        field = data.draw(st.sampled_from(dataclasses.fields(value)))
        unchanged = dataclasses.replace(value)
        assert vars(unchanged) == vars(_never_encoded(value))  # not carried
        assert unchanged.encode() == value.encode()
        if field.type in ("int", int):
            changed = dataclasses.replace(
                value, **{field.name: getattr(value, field.name) + 1}
            )
        elif field.type in ("bytes", bytes):
            changed = dataclasses.replace(
                value, **{field.name: getattr(value, field.name) + b"\x01"}
            )
        else:
            return
        assert changed != value
        assert changed.encode() == _never_encoded(changed).encode()
        if not isinstance(value, FilteredItem):  # encodes its payload only
            assert changed.encode() != value.encode()

    @given(_snark_aggregates)
    def test_snark_aggregate_round_trips(self, aggregate):
        decoded = snark_based.decode_aggregate(aggregate.encode())
        assert decoded.encode() == aggregate.encode()

    @given(_registered_aggregates)
    def test_registered_aggregate_round_trips(self, aggregate):
        decoded = registered.decode_aggregate(aggregate.encode())
        assert decoded.encode() == aggregate.encode()

    @given(st.one_of(_owf_bases, _owf_aggregates.filter(lambda a: a.contributions)))
    def test_owf_signature_round_trips(self, signature):
        decoded = owf.decode_signature(signature.encode())
        assert decoded.encode() == signature.encode()

    @given(_merkle_proofs, _blobs)
    def test_merkle_proof_round_trips_at_any_offset(self, proof, prefix):
        decoded, end = MerkleProof.decode(prefix + proof.encode(), len(prefix))
        assert decoded == proof
        assert end == len(prefix) + proof.size_bytes()


# -- real schemes: what Sign / Aggregate hand out ---------------------------------

_SCHEMES = [
    ("snark-hash", lambda: SnarkSRDS(HashRegistryBase())),
    ("snark-schnorr", lambda: SnarkSRDS(SchnorrBase())),
    ("owf", lambda: OwfSRDS(message_bits=32)),
    ("registered", RegisteredSRDS),
]


def _deployment(factory, n):
    rng = Randomness(99)
    scheme = factory()
    pp = scheme.setup(n, rng.fork("setup"))
    vks, sks = {}, {}
    for index in range(n):
        vks[index], sks[index] = scheme.keygen(pp, rng.fork(f"kg-{index}"))
    return scheme, pp, vks, sks


@pytest.mark.parametrize("name,factory", _SCHEMES)
def test_scheme_outputs_encode_their_own_fields(name, factory):
    n = 6 if name == "snark-schnorr" else 48
    scheme, pp, vks, sks = _deployment(factory, n)
    message = b"memo-message"
    signatures = [
        signature
        for index in range(n)
        for signature in [scheme.sign(pp, index, sks[index], message)]
        if signature is not None
    ]
    half = len(signatures) // 2
    filtered = scheme.aggregate1(pp, vks, message, signatures[:half])
    left = scheme.aggregate2(pp, message, filtered)
    rest = scheme.aggregate1(pp, vks, message, signatures[half:])
    right = scheme.aggregate2(pp, message, rest)
    top_filtered = scheme.aggregate1(
        pp, vks, message, [s for s in (left, right) if s is not None]
    )
    top = scheme.aggregate2(pp, message, top_filtered)
    produced = signatures + filtered + rest + top_filtered + [
        s for s in (left, right, top) if s is not None
    ]
    assert produced
    for value in produced:
        first = value.encode()
        assert value.encode() is first
        assert _never_encoded(value).encode() == first
    # The provers and the verifier read the memoised bytes; the result
    # still verifies exactly when enough parties signed.
    assert scheme.verify(pp, vks, message, top) == (
        len(signatures) >= pp.acceptance_threshold
    )


# -- adversary-built signatures ----------------------------------------------------


def _spy(adversary_cls, methods, produced):
    """A subclass recording every signature ``methods`` hand back."""

    def collect(result):
        if isinstance(result, dict):
            produced.extend(result.values())
        elif isinstance(result, tuple):
            produced.append(result[0])
        else:
            produced.append(result)

    def wrap(name):
        def method(self, *args, **kwargs):
            result = getattr(super(spy, self), name)(*args, **kwargs)
            collect(result)
            return result
        return method

    spy = type(
        "Spy" + adversary_cls.__name__, (adversary_cls,),
        {name: wrap(name) for name in methods},
    )
    return spy()


_ADVERSARY_SCHEMES = [
    (lambda: OwfSRDS(message_bits=32), PKIMode.TRUSTED),
    (lambda: SnarkSRDS(HashRegistryBase()), PKIMode.BARE),
]


@pytest.mark.parametrize("factory,mode", _ADVERSARY_SCHEMES)
@pytest.mark.parametrize("adversary_cls", [
    adv.DecoyRobustnessAdversary,
    adv.GarbageRobustnessAdversary,
    adv.ReplayRobustnessAdversary,
    adv.CoalitionForgeryAdversary,
    adv.ReplayForgeryAdversary,
    adv.RandomProofForgeryAdversary,
])
def test_adversary_signatures_never_inherit_a_victims_bytes(
    adversary_cls, factory, mode
):
    produced = []
    if issubclass(adversary_cls, adv.ForgeryAdversary):
        run_forgery_experiment(
            factory(), 64, 8, mode, _spy(adversary_cls, ["forge"], produced),
            rng=Randomness(5),
        )
    else:
        run_robustness_experiment(
            factory(), 64, 8, mode,
            _spy(
                adversary_cls, ["corrupt_signatures", "bad_node_output"],
                produced,
            ),
            rng=Randomness(5),
        )
    built = [signature for signature in produced if signature is not None]
    for signature in built:
        assert signature.encode() == _never_encoded(signature).encode()


# -- the bulletin-board cache -------------------------------------------------------


def _snark_binding(n):
    """``(scheme, pp, build, value)``: the vk Merkle tree, read by root."""
    scheme = SnarkSRDS(HashRegistryBase())
    return (
        scheme, scheme.setup(n, Randomness(1)),
        lambda keys: vk_merkle_tree(keys, n), lambda tree: tree.root,
    )


def _registered_binding(n):
    """``(scheme, pp, build, value)``: the registered board digest."""
    scheme = RegisteredSRDS()
    return (
        scheme, scheme.setup(n, Randomness(1)),
        scheme._fingerprint_board, lambda digest: digest,
    )


def _refuse_snapshot(cached, verification_keys):
    raise AssertionError("a counting board took the snapshot compare")


def _set(board):
    board[3] = b"evil"


def _delete(board):
    del board[3]


def _merge(board):
    board |= {3: b"evil"}


#: Every in-place write a dict has, as one mutation of a 12-key board.
_WRITES = {
    "setitem": _set,
    "delitem": _delete,
    "update": lambda board: board.update({3: b"evil"}),
    "pop": lambda board: board.pop(3),
    "popitem": lambda board: board.popitem(),
    "setdefault": lambda board: board.setdefault(12, b"new"),
    "clear": lambda board: board.clear(),
    "ior": _merge,
}


@pytest.mark.parametrize(
    "binding", [_snark_binding, _registered_binding],
    ids=["snark", "registered"],
)
class TestBoardBindingCache:
    N = 12

    def _keys(self, label):
        return {
            index: Randomness(7).fork(f"{label}-{index}").random_bytes(32)
            for index in range(self.N)
        }

    def test_a_new_board_at_a_recycled_address_is_not_served_the_old_value(
        self, binding
    ):
        _, pp, build, value = binding(self.N)
        for attempt in range(20):
            board = self._keys(f"a{attempt}")
            assert value(pcd.board_binding(pp, board, build)) == (
                value(build(board))
            )
            del board
            gc.collect()
            other = self._keys(f"b{attempt}")  # same size, often same id()
            assert value(pcd.board_binding(pp, other, build)) == (
                value(build(other))
            )
            del other

    def test_an_in_place_key_replacement_is_a_miss(self, binding):
        _, pp, build, value = binding(self.N)
        board = self._keys("c")
        before = pcd.board_binding(pp, board, build)
        assert pcd.board_binding(pp, board, build) is before
        board[3] = b"evil"
        after = pcd.board_binding(pp, board, build)
        assert value(after) == value(build(board))
        assert value(after) != value(before)

    def test_an_unchanged_board_is_a_hit(self, binding):
        _, pp, build, _ = binding(self.N)
        board = self._keys("d")
        assert pcd.board_binding(pp, board, build) is (
            pcd.board_binding(pp, dict(board), build)
        )

    @pytest.mark.parametrize("write", list(_WRITES.values()), ids=list(_WRITES))
    def test_any_write_to_a_counting_board_is_a_miss(
        self, binding, write, monkeypatch
    ):
        """The same counting board at the same count hits without the
        snapshot compare; after any write the next lookup rebuilds."""
        monkeypatch.setattr(pcd, "_snapshot_hit", _refuse_snapshot)
        _, pp, build, value = binding(self.N)
        builds = []

        def counted(keys):
            builds.append(len(keys))
            return build(keys)

        board = pcd.CountingBoard(self._keys("e"))
        first = pcd.board_binding(pp, board, counted)
        assert pcd.board_binding(pp, board, counted) is first
        assert len(builds) == 1
        write(board)
        after = pcd.board_binding(pp, board, counted)
        assert len(builds) == 2
        assert value(after) == value(build(board))
        assert pcd.board_binding(pp, board, counted) is after

    def test_a_counting_board_written_after_caching_misses_through_a_copy(
        self, binding
    ):
        _, pp, build, value = binding(self.N)
        board = pcd.CountingBoard(self._keys("f"))
        before = pcd.board_binding(pp, board, build)
        board[3] = b"evil"
        after = pcd.board_binding(pp, dict(board), build)
        assert value(after) == value(build(board))
        assert value(after) != value(before)

    def test_verify_sees_a_key_replaced_in_place(self, binding):
        """A certificate formed on board B does not verify once ``B[0]``
        is replaced — whether the verifier is handed the mutated dict
        itself or an equal copy of it."""
        scheme, pp, _, _ = binding(self.N)
        rng = Randomness(11)
        board, secrets = {}, {}
        for index in range(self.N):
            board[index], secrets[index] = scheme.keygen(
                pp, rng.fork(f"k{index}")
            )
        message = b"stale-board"
        aggregate = scheme.aggregate(
            pp, board, message,
            [
                scheme.sign(pp, index, secrets[index], message)
                for index in range(self.N)
            ],
        )
        assert scheme.verify(pp, board, message, aggregate)
        board[0], _ = scheme.keygen(pp, rng.fork("replacement"))
        assert scheme.verify(pp, board, message, aggregate) is False
        assert scheme.verify(pp, dict(board), message, aggregate) is False


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_counting_board_pickles_with_its_contents(protocol):
    board = pcd.CountingBoard(
        {index: bytes([index]) * 32 for index in range(5)}
    )
    board[2] = b"replaced"
    restored = pickle.loads(pickle.dumps(board, protocol))
    assert type(restored) is pcd.CountingBoard
    assert dict(restored) == dict(board)
    writes = restored.writes
    restored[9] = b"added"
    assert restored.writes == writes + 1
    assert dict(copy.deepcopy(board)) == dict(board)


@pytest.mark.parametrize(
    "scheme", [lambda: SnarkSRDS(HashRegistryBase()), RegisteredSRDS],
    ids=["snark-hash", "registered"],
)
def test_a_pi_ba_run_builds_its_board_binding_once(scheme, monkeypatch):
    """pi_ba's board is the counting board its setup returned: one
    build per run, and no lookup reads the board."""
    real = pcd.board_binding
    builds = []

    def counting(pp, verification_keys, build):
        def counted(keys):
            builds.append(len(keys))
            return build(keys)

        return real(pp, verification_keys, counted)

    monkeypatch.setattr(pcd, "board_binding", counting)
    monkeypatch.setattr(pcd, "_snapshot_hit", _refuse_snapshot)
    n, params, rng = 32, ProtocolParameters(), Randomness(7)
    plan = random_corruption(n, params.max_corruptions(n), rng.fork("c"))
    result = run_balanced_ba(
        {party: party % 2 for party in range(n)}, plan, scheme(), params,
        rng.fork("r"),
    )
    assert result.agreement
    assert len(builds) == 1
