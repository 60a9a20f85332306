"""Goodness and good-path analysis of communication trees.

Implements the predicates of Definition 2.3:

* a node is *good* if fewer than a third of its assigned parties are
  corrupt (property 3);
* a leaf has a *good path* if every node on its path to the root is good
  (property 4 requires all but a 3/log n fraction of leaves to have one);
* a party is *well-connected* (Def. 3.4 / the observation of [13]) if a
  majority of the leaves it is assigned to have good paths.

These functions power both the runtime checks inside the BA protocol's
functionality layer and the E6 benchmark (good-path fraction vs n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Set

from repro.aetree.tree import CommTree, TreeNode
from repro.errors import TreeError
from repro.net.adversary import CorruptionPlan
from repro.params import ProtocolParameters, ceil_log2


def is_good_node(node: TreeNode, corrupted: FrozenSet[int]) -> bool:
    """Property 3 of Def. 2.3: strictly less than 1/3 of the committee
    (for leaves: of the assigned party set) is corrupt."""
    if not node.committee:
        raise TreeError(f"node {node.node_id} has an empty committee")
    corrupt_count = sum(1 for party in node.committee if party in corrupted)
    return 3 * corrupt_count < len(node.committee)


def good_nodes(tree: CommTree, plan: CorruptionPlan) -> Set[int]:
    """Ids of all good nodes under a corruption plan."""
    return {
        node.node_id
        for node in tree.nodes.values()
        if is_good_node(node, plan.corrupted)
    }


def leaf_has_good_path(tree: CommTree, leaf: TreeNode,
                       good: Set[int]) -> bool:
    """Whether every node from this leaf to the root is good."""
    return all(node.node_id in good for node in tree.path_to_root(leaf.node_id))


def good_path_leaves(tree: CommTree, plan: CorruptionPlan) -> List[TreeNode]:
    """Leaves whose entire path to the root is good."""
    good = good_nodes(tree, plan)
    return [
        leaf for leaf in tree.leaves if leaf_has_good_path(tree, leaf, good)
    ]


def good_path_fraction(tree: CommTree, plan: CorruptionPlan) -> float:
    """Fraction of leaves with a good path (property 4 of Def. 2.3)."""
    leaves = tree.leaves
    return len(good_path_leaves(tree, plan)) / len(leaves)


def well_connected_parties(tree: CommTree, plan: CorruptionPlan) -> Set[int]:
    """Parties for whom a *majority* of assigned leaves have good paths.

    By the observation from [13] quoted in §3.1, a 1 - o(1) fraction of
    parties are well-connected whenever property 4 holds.  These are the
    parties guaranteed to receive the supreme committee's messages through
    f_ae-comm; the complement is the isolated set D.
    """
    # Each leaf's path is walked once, not once per party assigned to it.
    good_leaves = {leaf.node_id for leaf in good_path_leaves(tree, plan)}
    connected: Set[int] = set()
    for party in range(tree.n):
        leaves = tree.leaves_of_party(party)
        if not leaves:
            continue
        good_count = sum(1 for leaf in leaves if leaf.node_id in good_leaves)
        if 2 * good_count > len(leaves):
            connected.add(party)
    return connected


def isolated_parties(tree: CommTree, plan: CorruptionPlan) -> Set[int]:
    """The set D of parties f_ae-comm cannot reach."""
    return set(range(tree.n)) - well_connected_parties(tree, plan)


@dataclass(frozen=True)
class TreeReport:
    """Structural summary of one tree under one corruption plan."""

    n: int
    num_virtual: int
    num_leaves: int
    height: int
    max_arity: int
    committee_size_root: int
    good_node_fraction: float
    good_path_leaf_fraction: float
    well_connected_fraction: float
    root_is_good: bool


def analyze(tree: CommTree, plan: CorruptionPlan) -> TreeReport:
    """Compute the full structural report used by tests and E6."""
    good = good_nodes(tree, plan)
    leaves = tree.leaves
    good_leaves = [
        leaf for leaf in leaves if leaf_has_good_path(tree, leaf, good)
    ]
    connected = well_connected_parties(tree, plan)
    max_arity = max(
        (len(node.children) for node in tree.nodes.values() if node.children),
        default=0,
    )
    return TreeReport(
        n=tree.n,
        num_virtual=tree.num_virtual,
        num_leaves=len(leaves),
        height=tree.height,
        max_arity=max_arity,
        committee_size_root=len(tree.supreme_committee),
        good_node_fraction=len(good) / len(tree.nodes),
        good_path_leaf_fraction=len(good_leaves) / len(leaves),
        well_connected_fraction=len(connected) / tree.n,
        root_is_good=tree.root_id in good,
    )


def validate_structure(tree: CommTree, params: ProtocolParameters) -> None:
    """Check the structural properties of Def. 2.3 / Def. 3.4.

    Raises :class:`TreeError` on the first violation.  Used both on
    freshly built trees and on adversary-supplied trees in the robustness
    experiment (Fig. 1, step B.1).
    """
    log_n = ceil_log2(tree.n)
    # Property 1 (scaled): height O(log n / log log n) — we bound by the
    # loose but safe 2 + log(#leaves)/log(arity).
    arity = params.tree_arity(tree.n)
    num_leaves = len(tree.leaves)
    import math

    height_bound = 2 + math.ceil(math.log(max(2, num_leaves), arity)) + 1
    if tree.height > height_bound:
        raise TreeError(
            f"height {tree.height} exceeds bound {height_bound}"
        )
    # Arity: each internal node above level 2 has at most `arity` children.
    for node in tree.nodes.values():
        if node.children and len(node.children) > arity:
            raise TreeError(
                f"node {node.node_id} has arity {len(node.children)} > {arity}"
            )
    # Properties 5-7 (scaled): leaf ranges tile [0, n*z) without overlap.
    covered = 0
    for leaf in tree.leaves:
        lo, hi = leaf.virtual_range
        if lo != covered:
            raise TreeError("leaf virtual ranges are not contiguous/ordered")
        if hi <= lo:
            raise TreeError("empty leaf virtual range")
        covered = hi
    if covered != tree.num_virtual:
        raise TreeError("leaf ranges do not cover all virtual ids")
    # Def. 3.4 property 2 (scaled): every party owns the same number z of
    # virtual ids.
    for party in range(tree.n):
        if len(tree.virtuals_of_party(party)) != tree.z:
            raise TreeError(f"party {party} does not own exactly z virtual ids")
    # Internal committees are non-empty and within the party universe.
    for node in tree.nodes.values():
        if not node.committee:
            raise TreeError(f"node {node.node_id} has an empty committee")
        if any(not 0 <= p < tree.n for p in node.committee):
            raise TreeError(f"node {node.node_id} committee out of range")
    # Parent/child links are consistent.
    for node in tree.nodes.values():
        for child_id in node.children:
            if tree.nodes[child_id].parent_id != node.node_id:
                raise TreeError("inconsistent parent/child link")
    # Child ranges are contiguous within the parent (planarity).
    for node in tree.nodes.values():
        if not node.children:
            continue
        expected = node.virtual_range[0]
        for child_id in node.children:
            lo, hi = tree.nodes[child_id].virtual_range
            if lo != expected:
                raise TreeError("child ranges are not planar-contiguous")
            expected = hi
        if expected != node.virtual_range[1]:
            raise TreeError("parent range does not equal union of children")


def validate_against_plan(
    tree: CommTree, params: ProtocolParameters, plan: CorruptionPlan
) -> TreeReport:
    """Full validation: structure plus the goodness properties 3-4.

    Property 4's fraction bound is the scaled ``3 / log n``; at small n
    this is loose enough that honestly built trees pass comfortably.
    """
    validate_structure(tree, params)
    report = analyze(tree, plan)
    if not report.root_is_good:
        raise TreeError("root committee is not 2/3-honest")
    allowed_bad_fraction = min(1.0, 3 / ceil_log2(tree.n))
    if 1 - report.good_path_leaf_fraction > allowed_bad_fraction:
        raise TreeError(
            f"bad-path leaf fraction {1 - report.good_path_leaf_fraction:.3f} "
            f"exceeds 3/log n = {allowed_bad_fraction:.3f}"
        )
    return report
