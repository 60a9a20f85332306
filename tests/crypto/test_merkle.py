"""Tests for Merkle trees."""

import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from repro.crypto.merkle import (
    MerkleMultiProof,
    MerkleProof,
    MerkleTree,
    merkle_root,
    root_from_multiproof,
    root_from_proof,
    verify_inclusion,
)
from repro.errors import MALFORMED_INPUT_ERRORS, CryptoError


class TestBasics:
    def test_single_leaf(self):
        tree = MerkleTree([b"only"])
        proof = tree.prove(0)
        assert verify_inclusion(tree.root, b"only", proof)

    def test_empty_tree_has_root(self):
        assert len(MerkleTree([]).root) == 32

    def test_out_of_range_proof_rejected(self):
        tree = MerkleTree([b"a", b"b"])
        with pytest.raises(CryptoError):
            tree.prove(2)

    def test_merkle_root_helper(self):
        assert merkle_root([b"a", b"b"]) == MerkleTree([b"a", b"b"]).root

    def test_root_differs_on_leaf_change(self):
        assert merkle_root([b"a", b"b"]) != merkle_root([b"a", b"c"])

    def test_root_order_sensitive(self):
        assert merkle_root([b"a", b"b"]) != merkle_root([b"b", b"a"])

    def test_promotion_padding_not_duplication(self):
        # A 3-leaf tree must differ from the 4-leaf tree that duplicates
        # the last leaf (the Bitcoin-mutation pitfall).
        assert merkle_root([b"a", b"b", b"c"]) != merkle_root(
            [b"a", b"b", b"c", b"c"]
        )


class TestProofs:
    @given(st.lists(st.binary(min_size=1, max_size=16), min_size=1,
                    max_size=33))
    def test_all_leaves_provable(self, leaves):
        tree = MerkleTree(leaves)
        for index, leaf in enumerate(leaves):
            proof = tree.prove(index)
            assert verify_inclusion(tree.root, leaf, proof)

    def test_wrong_leaf_rejected(self):
        tree = MerkleTree([b"a", b"b", b"c"])
        proof = tree.prove(1)
        assert not verify_inclusion(tree.root, b"x", proof)

    def test_wrong_index_proof_rejected(self):
        tree = MerkleTree([b"a", b"b", b"c", b"d"])
        assert not verify_inclusion(tree.root, b"a", tree.prove(1))

    def test_tampered_sibling_rejected(self):
        tree = MerkleTree([b"a", b"b", b"c", b"d"])
        proof = tree.prove(0)
        tampered = MerkleProof(
            leaf_index=0,
            siblings=tuple(
                (bytes(32), right) for _, right in proof.siblings
            ),
        )
        assert not verify_inclusion(tree.root, b"a", tampered)

    def test_root_from_proof_consistency(self):
        tree = MerkleTree([b"a", b"b", b"c", b"d", b"e"])
        proof = tree.prove(4)
        assert root_from_proof(b"e", proof) == tree.root

    def test_proof_size_logarithmic(self):
        tree = MerkleTree([bytes([i]) for i in range(256)])
        proof = tree.prove(100)
        assert len(proof.siblings) == 8  # log2(256)

    def test_proof_size_bytes_positive(self):
        tree = MerkleTree([b"a", b"b"])
        assert tree.prove(0).size_bytes() > 0


# -- batch openings ----------------------------------------------------------------

WIDTHS = range(1, 71)  # odd widths exercise the promotion rule


def _leaves(width):
    return [b"leaf-%d-of-%d" % (index, width) for index in range(width)]


def _index_sets(width):
    """Singletons, contiguous runs, random subsets and the full set."""
    rng = random.Random(width)
    sets = {(0,), (width - 1,), (rng.randrange(width),), tuple(range(width))}
    for _ in range(3):
        lo = rng.randrange(width)
        sets.add(tuple(range(lo, rng.randint(lo, width - 1) + 1)))
        sets.add(tuple(sorted(rng.sample(range(width), rng.randint(1, width)))))
    return sorted(sets)


def _accepts(root, leaves, proof):
    """The verdict of a batch opening: malformed is rejected, not raised."""
    try:
        return root_from_multiproof(leaves, proof) == root
    except CryptoError:
        return False


def _is_run(indices):
    return list(indices) == list(range(indices[0], indices[-1] + 1))


class TestMultiProof:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_root_equals_the_trees_and_verdict_equals_single_paths(
        self, width
    ):
        leaves = _leaves(width)
        tree = MerkleTree(leaves)
        for indices in _index_sets(width):
            proof = tree.prove_many(indices)
            opened = [leaves[index] for index in indices]
            assert root_from_multiproof(opened, proof) == tree.root
            # One swapped leaf: the batch verdict is the conjunction of
            # the single-path verdicts, true and false.
            swapped = list(opened)
            swapped[len(swapped) // 2] = b"not the leaf"
            for candidate in (opened, swapped):
                singles = all(
                    verify_inclusion(tree.root, leaf, tree.prove(index))
                    for index, leaf in zip(indices, candidate)
                )
                assert _accepts(tree.root, candidate, proof) == singles

    @pytest.mark.parametrize("width", WIDTHS)
    def test_roundtrip_and_size(self, width):
        tree = MerkleTree(_leaves(width))
        depth = len(tree.prove(0).siblings) if width > 1 else 0
        for indices in _index_sets(width):
            proof = tree.prove_many(indices)
            encoded = proof.encode()
            assert MerkleMultiProof.decode(encoded) == (proof, len(encoded))
            assert proof.size_bytes() == len(encoded)
            paths = [tree.prove(index) for index in indices]
            path_siblings = sum(len(path.siblings) for path in paths)
            path_bytes = sum(path.size_bytes() for path in paths)
            assert len(proof.siblings) <= path_siblings
            if len(indices) == 1 and path_siblings <= 1:
                # A lone leaf one step below the root (or the root
                # itself): the header (width, two counts) is all there is
                # to weigh, and it costs at most two bytes more.
                assert proof.size_bytes() <= path_bytes + 2
            else:
                assert proof.size_bytes() <= path_bytes
            if _is_run(indices):
                assert len(proof.siblings) <= 2 * depth

    @pytest.mark.parametrize("width", WIDTHS)
    def test_any_one_tamper_is_rejected(self, width):
        leaves = _leaves(width)
        tree = MerkleTree(leaves)
        for indices in _index_sets(width):
            proof = tree.prove_many(indices)
            opened = [leaves[index] for index in indices]
            tampered = []
            for position, digest in enumerate(proof.siblings):
                flipped = bytes([digest[0] ^ 1]) + digest[1:]
                tampered.append(proof.siblings[:position] + (flipped,)
                                + proof.siblings[position + 1:])
            tampered.append(proof.siblings + (bytes(32),))
            if proof.siblings:
                tampered.append(proof.siblings[:-1])
            for siblings in tampered:
                assert not _accepts(
                    tree.root, opened,
                    dataclasses.replace(proof, siblings=siblings),
                )
            # A shifted, repeated or disordered index set.
            shifted = tuple(index + 1 for index in indices)
            for moved in (
                shifted,
                indices + indices[-1:],
                tuple(reversed(indices)) if len(indices) > 1 else (width,),
            ):
                moved_leaves = opened + opened[-1:] * (len(moved) - len(opened))
                assert not _accepts(
                    tree.root, moved_leaves,
                    dataclasses.replace(proof, indices=moved),
                )
            # A leaf too many or too few.
            assert not _accepts(tree.root, opened + opened[-1:], proof)
            assert not _accepts(tree.root, opened[:-1], proof)
            # A width that cannot hold the indices, or whose tree is
            # deeper than the opening's: the shape no longer matches.
            for leaf_count in (indices[-1], 0, 2 * width, 4 * width + 1):
                assert not _accepts(
                    tree.root, opened,
                    dataclasses.replace(proof, leaf_count=leaf_count),
                )

    def test_a_run_of_25_in_1600_shares_almost_every_node(self):
        # The shape pi_ba opens at n=64: ~25 contiguous virtual ids.
        tree = MerkleTree([b"%d" % index for index in range(1600)])
        indices = range(800, 825)
        proof = tree.prove_many(indices)
        paths = [tree.prove(index) for index in indices]
        assert len(proof.siblings) <= 12
        assert sum(len(path.siblings) for path in paths) >= 250
        assert 8 * proof.size_bytes() < sum(p.size_bytes() for p in paths)

    def test_prover_refuses_what_the_verifier_would(self):
        tree = MerkleTree(_leaves(5))
        for indices in ((), (1, 1), (2, 1), (5,), (-1,)):
            with pytest.raises(CryptoError):
                tree.prove_many(indices)

    @given(st.binary(max_size=200))
    def test_decode_of_arbitrary_bytes_raises_only_named_errors(self, data):
        try:
            proof, end = MerkleMultiProof.decode(data)
        except MALFORMED_INPUT_ERRORS:
            return
        assert proof.encode() == data[:end]
        assert proof.indices and list(proof.indices) == sorted(
            set(proof.indices)
        )
        assert proof.indices[-1] < proof.leaf_count
