"""Tests for tree goodness and good-path analysis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aetree.analysis import (
    analyze,
    good_nodes,
    good_path_fraction,
    good_path_leaves,
    is_good_node,
    isolated_parties,
    validate_against_plan,
    validate_structure,
    well_connected_parties,
)
from repro.aetree.tree import build_tree
from repro.errors import TreeError
from repro.net.adversary import CorruptionPlan, random_corruption, targeted_corruption
from repro.params import ProtocolParameters
from repro.utils.randomness import Randomness


@pytest.fixture
def setup(params, rng):
    n = 128
    plan = random_corruption(n, params.max_corruptions(n), rng.fork("c"))
    tree = build_tree(n, params, rng.fork("t"), honest_root_hint=plan.honest)
    return tree, plan


class TestGoodness:
    def test_no_corruption_everything_good(self, params, rng):
        tree = build_tree(64, params, rng)
        plan = targeted_corruption(64, [])
        report = analyze(tree, plan)
        assert report.good_node_fraction == 1.0
        assert report.good_path_leaf_fraction == 1.0
        assert report.well_connected_fraction == 1.0

    def test_full_committee_corruption_bad(self, setup):
        tree, _ = setup
        leaf = tree.leaves[0]
        plan = targeted_corruption(tree.n, list(leaf.committee))
        assert not is_good_node(leaf, plan.corrupted)

    def test_third_boundary_is_bad(self, setup):
        tree, _ = setup
        leaf = tree.leaves[0]
        committee = list(leaf.committee)
        third = (len(committee) + 2) // 3
        plan = targeted_corruption(tree.n, committee[:third])
        assert not is_good_node(leaf, plan.corrupted)

    def test_below_third_is_good(self, setup):
        tree, _ = setup
        leaf = tree.leaves[0]
        committee = list(leaf.committee)
        below = max(0, (len(committee) - 1) // 3 - 1)
        plan = targeted_corruption(tree.n, committee[:below])
        assert is_good_node(leaf, plan.corrupted)

    def test_random_corruption_mostly_good(self, setup):
        tree, plan = setup
        report = analyze(tree, plan)
        assert report.good_path_leaf_fraction > 0.8
        assert report.root_is_good


class TestPaths:
    def test_good_path_requires_all_good(self, setup):
        tree, plan = setup
        good = good_nodes(tree, plan)
        for leaf in good_path_leaves(tree, plan):
            for node in tree.path_to_root(leaf.node_id):
                assert node.node_id in good

    def test_fraction_consistent(self, setup):
        tree, plan = setup
        fraction = good_path_fraction(tree, plan)
        assert fraction == len(good_path_leaves(tree, plan)) / len(tree.leaves)

    def test_corrupt_root_kills_all_paths(self, setup):
        tree, _ = setup
        plan = targeted_corruption(tree.n, list(tree.supreme_committee))
        assert good_path_fraction(tree, plan) == 0.0


class TestConnectivity:
    def test_isolated_complement(self, setup):
        tree, plan = setup
        connected = well_connected_parties(tree, plan)
        isolated = isolated_parties(tree, plan)
        assert connected | isolated == set(range(tree.n))
        assert not connected & isolated

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=160),
        corrupt_share=st.floats(min_value=0.0, max_value=0.6),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_isolated_equals_the_per_party_leaf_definition(
        self, n, corrupt_share, seed
    ):
        """D by Def. 3.4 read literally: for every (party, assigned leaf)
        pair, walk the leaf's path to the root."""
        rng = Randomness(seed)
        params = ProtocolParameters()
        tree = build_tree(n, params, rng.fork("t"))
        plan = random_corruption(
            n, int(corrupt_share * n), rng.fork("c")
        )
        expected = set()
        for party in range(n):
            leaves = tree.leaves_of_party(party)
            good = sum(
                1 for leaf in leaves
                if all(
                    is_good_node(node, plan.corrupted)
                    for node in tree.path_to_root(leaf.node_id)
                )
            )
            if not 2 * good > len(leaves):
                expected.add(party)
        assert isolated_parties(tree, plan) == expected

    def test_mostly_connected_under_random_corruption(self, setup):
        tree, plan = setup
        assert len(well_connected_parties(tree, plan)) >= 0.9 * tree.n


class TestValidation:
    def test_honest_tree_validates(self, setup, params):
        tree, plan = setup
        validate_structure(tree, params)
        report = validate_against_plan(tree, params, plan)
        assert report.root_is_good

    def test_corrupt_root_fails_validation(self, setup, params):
        tree, _ = setup
        plan = targeted_corruption(tree.n, list(tree.supreme_committee))
        with pytest.raises(TreeError):
            validate_against_plan(tree, params, plan)

    def test_tampered_links_fail_validation(self, setup, params):
        tree, _ = setup
        # Break a parent pointer.
        leaf = tree.leaves[0]
        original = leaf.parent_id
        leaf.parent_id = tree.root_id if original != tree.root_id else None
        try:
            with pytest.raises(TreeError):
                validate_structure(tree, params)
        finally:
            leaf.parent_id = original

    def test_report_fields(self, setup):
        tree, plan = setup
        report = analyze(tree, plan)
        assert report.n == tree.n
        assert report.num_leaves == len(tree.leaves)
        assert report.height == tree.height
        assert 0 <= report.good_node_fraction <= 1
