"""Tests for the almost-everywhere communication tree."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.aetree.tree import CommTree, build_tree
from repro.errors import TreeError
from repro.net.adversary import random_corruption
from repro.params import ProtocolParameters
from repro.utils.randomness import Randomness


@pytest.fixture
def tree(params, rng):
    return build_tree(128, params, rng)


class TestStructure:
    def test_leaf_ranges_tile_virtual_ids(self, tree):
        covered = 0
        for leaf in tree.leaves:
            lo, hi = leaf.virtual_range
            assert lo == covered
            covered = hi
        assert covered == tree.num_virtual

    def test_num_virtual(self, tree):
        assert tree.num_virtual == tree.n * tree.z

    def test_each_party_owns_z_virtuals(self, tree):
        for party in range(tree.n):
            assert len(tree.virtuals_of_party(party)) == tree.z

    def test_owner_inverse_mapping(self, tree):
        for party in range(0, tree.n, 17):
            for virtual_id in tree.virtuals_of_party(party):
                assert tree.owner_of_virtual(virtual_id) == party

    def test_leaf_of_virtual(self, tree):
        for virtual_id in range(0, tree.num_virtual, 97):
            leaf = tree.leaf_of_virtual(virtual_id)
            lo, hi = leaf.virtual_range
            assert lo <= virtual_id < hi

    def test_leaf_of_virtual_out_of_range(self, tree):
        with pytest.raises(TreeError):
            tree.leaf_of_virtual(tree.num_virtual)

    def test_root_is_top(self, tree):
        assert tree.root.parent_id is None
        assert tree.root.level == tree.height

    def test_paths_reach_root(self, tree):
        for leaf in tree.leaves:
            path = tree.path_to_root(leaf.node_id)
            assert path[0] is leaf
            assert path[-1].node_id == tree.root_id
            levels = [node.level for node in path]
            assert levels == sorted(levels)

    def test_parent_child_links(self, tree):
        for node in tree.nodes.values():
            for child_id in node.children:
                assert tree.nodes[child_id].parent_id == node.node_id

    def test_leaves_of_party(self, tree):
        leaves = tree.leaves_of_party(0)
        assert len(leaves) == tree.z
        for leaf in leaves:
            assert 0 in leaf.committee

    def test_supreme_committee_size(self, tree, params):
        assert len(tree.supreme_committee) == params.committee_size(tree.n)

    def test_committees_of_party(self, tree):
        member = tree.supreme_committee[0]
        committees = tree.committees_of_party(member)
        assert any(node.node_id == tree.root_id for node in committees)

    def test_level_nodes_ordered(self, tree):
        for level in range(1, tree.height + 1):
            nodes = tree.level_nodes(level)
            ranges = [node.virtual_range for node in nodes]
            assert ranges == sorted(ranges)


def _leaf_by_scan(tree, virtual_id):
    """The lookup as a linear scan over every node (the oracle)."""
    for node in tree.nodes.values():
        lo, hi = node.virtual_range
        if node.is_leaf and lo <= virtual_id < hi:
            return node
    return None


class TestLevelIndex:
    """``leaves`` / ``level_nodes`` / ``leaf_of_virtual`` are served from
    a per-level index built once; they must answer as a scan would."""

    @given(
        st.sampled_from([4, 5, 8, 16, 33, 64]),
        st.sampled_from([1, 3, 5, 20]),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_leaf_of_virtual_equals_the_linear_scan(self, n, leaf_factor, seed):
        # leaf_factor=20 at n=4 is the forced-two-leaves case.
        params = dataclasses.replace(
            ProtocolParameters(), leaf_factor=leaf_factor
        )
        tree = build_tree(n, params, Randomness(seed))
        for virtual_id in range(tree.num_virtual):
            assert tree.leaf_of_virtual(virtual_id) is _leaf_by_scan(
                tree, virtual_id
            )
        for outside in (-1, tree.num_virtual, tree.num_virtual + 7):
            with pytest.raises(TreeError):
                tree.leaf_of_virtual(outside)

    def test_level_queries_equal_the_scan(self, tree):
        for level in range(0, tree.height + 2):
            scanned = sorted(
                (node for node in tree.nodes.values() if node.level == level),
                key=lambda node: node.virtual_range[0],
            )
            assert tree.level_nodes(level) == scanned
        assert tree.leaves == tree.level_nodes(1)

    def test_a_gap_between_leaves_is_not_covered(self, tree):
        leaf = tree.leaves[3]
        lo, hi = leaf.virtual_range
        leaf.virtual_range = (lo, hi - 1)
        fresh = CommTree(
            tree.n, tree.z, tree.z_star, tree.virtual_owner, tree.nodes,
            tree.root_id,
        )
        with pytest.raises(TreeError, match="no leaf covers"):
            fresh.leaf_of_virtual(hi - 1)
        assert fresh.leaf_of_virtual(hi - 2) is leaf

    def test_queries_return_fresh_lists(self, tree):
        leaves = tree.leaves
        leaves.clear()
        assert len(tree.leaves) > 0 and tree.leaves is not tree.leaves
        level = tree.level_nodes(2)
        level.reverse()
        assert tree.level_nodes(2) == level[::-1]

    def test_a_committee_assigned_after_the_first_query_is_visible(self, tree):
        # build_tree_via_elections reads the levels, then re-elects
        # node.committee in place.
        node = tree.level_nodes(2)[0]
        leaf = tree.leaves[0]
        node.committee = (1, 2, 3)
        leaf.committee = (4, 5)
        assert tree.level_nodes(2)[0].committee == (1, 2, 3)
        assert tree.leaves[0].committee == (4, 5)
        assert tree.leaf_of_virtual(0).committee == (4, 5)


class TestConstruction:
    def test_too_few_parties_rejected(self, params, rng):
        with pytest.raises(TreeError):
            build_tree(3, params, rng)

    def test_deterministic_given_seed(self, params):
        from repro.utils.randomness import Randomness

        a = build_tree(64, params, Randomness(9))
        b = build_tree(64, params, Randomness(9))
        assert a.virtual_owner == b.virtual_owner
        assert a.root.committee == b.root.committee

    def test_honest_root_hint_produces_good_root(self, params):
        from repro.utils.randomness import Randomness

        rng = Randomness(5)
        n = 128
        plan = random_corruption(n, params.max_corruptions(n), rng.fork("c"))
        tree = build_tree(n, params, rng.fork("t"), honest_root_hint=plan.honest)
        corrupt = sum(
            1 for member in tree.supreme_committee if plan.is_corrupt(member)
        )
        assert 3 * corrupt < len(tree.supreme_committee)

    def test_impossible_root_hint_raises(self, params, rng):
        # Honest set too small to ever form a 2/3-honest committee.
        with pytest.raises(TreeError):
            build_tree(64, params, rng, honest_root_hint=[0])

    @pytest.mark.parametrize("n", [16, 64, 200, 512])
    def test_various_sizes(self, n, params, rng):
        tree = build_tree(n, params, rng.fork(f"n{n}"))
        assert tree.n == n
        assert tree.height >= 2
        assert len(tree.leaves) >= 2
