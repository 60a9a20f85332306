"""The (n, I)-party almost-everywhere communication tree.

This is the combinatorial object of Definition 2.3, extended with
repeated parties / virtual identities per Definition 3.4 and the idmap of
Fig. 3's setup:

* level 0 holds ``n * z`` *virtual identities* — each real party owns
  ``z`` of them;
* level 1 holds the leaf nodes; leaf ``k`` is assigned the parties owning
  the contiguous virtual-id range ``[k * z_star, (k+1) * z_star)`` (the
  planar, increasing-order property the robustness experiment requires);
* levels 2..height hold internal nodes of arity ``Theta(log n)``, each
  assigned a committee of ``Theta(log n)``-scaled size (the paper's
  ``log^3 n``);
* the root node's committee is the *supreme committee*.

The tree is a passive data structure; goodness/path analysis lives in
:mod:`repro.aetree.analysis`, and the interactive functionality wrapping
it (f_ae-comm) in :mod:`repro.functionalities.ae_comm`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import TreeError
from repro.params import ProtocolParameters, ceil_log2
from repro.utils.randomness import Randomness

ROOT_LEVEL_MIN = 2


@dataclass
class TreeNode:
    """One node of the communication tree (levels >= 1)."""

    node_id: int
    level: int
    parent_id: Optional[int]
    children: Tuple[int, ...]
    committee: Tuple[int, ...]
    virtual_range: Tuple[int, int]  # [lo, hi) of covered virtual ids

    @property
    def is_leaf(self) -> bool:
        """Whether this node sits at level 1."""
        return self.level == 1


class CommTree:
    """An immutable almost-everywhere communication tree instance."""

    def __init__(
        self,
        n: int,
        z: int,
        z_star: int,
        virtual_owner: Sequence[int],
        nodes: Dict[int, TreeNode],
        root_id: int,
    ) -> None:
        self.n = n
        self.z = z
        self.z_star = z_star
        self.virtual_owner: Tuple[int, ...] = tuple(virtual_owner)
        self.nodes = nodes
        self.root_id = root_id
        self._party_virtuals: Dict[int, List[int]] = {}
        for virtual_id, owner in enumerate(self.virtual_owner):
            self._party_virtuals.setdefault(owner, []).append(virtual_id)

    @cached_property
    def _levels(self) -> Dict[int, List[TreeNode]]:
        """Nodes per level, ordered by virtual-id range; built on first use.

        The shape (levels, ranges) never changes after construction; the
        nodes are held by reference, so a committee assigned later (the
        elections re-elect ``node.committee``) is seen through the index.
        """
        levels: Dict[int, List[TreeNode]] = {}
        for node in self.nodes.values():
            levels.setdefault(node.level, []).append(node)
        for nodes in levels.values():
            nodes.sort(key=lambda node: node.virtual_range[0])
        return levels

    @cached_property
    def _leaf_starts(self) -> List[int]:
        """Where each leaf's range starts, in ``leaves`` order."""
        return [node.virtual_range[0] for node in self._levels.get(1, [])]

    # -- structural queries ---------------------------------------------------

    @property
    def num_virtual(self) -> int:
        """Total number of virtual identities (n * z)."""
        return len(self.virtual_owner)

    @property
    def root(self) -> TreeNode:
        """The root node (its committee is the supreme committee)."""
        return self.nodes[self.root_id]

    @property
    def supreme_committee(self) -> Tuple[int, ...]:
        """Party ids assigned to the root."""
        return self.root.committee

    @property
    def height(self) -> int:
        """The level of the root (leaves are level 1)."""
        return self.root.level

    @property
    def leaves(self) -> List[TreeNode]:
        """All leaf nodes, ordered by virtual-id range."""
        return list(self._levels.get(1, []))

    def level_nodes(self, level: int) -> List[TreeNode]:
        """All nodes at one level, ordered by virtual-id range."""
        return list(self._levels.get(level, []))

    def owner_of_virtual(self, virtual_id: int) -> int:
        """The real party owning a virtual identity (inverse idmap)."""
        return self.virtual_owner[virtual_id]

    def virtuals_of_party(self, party_id: int) -> List[int]:
        """The z virtual identities of one party (the idmap of Fig. 3)."""
        return list(self._party_virtuals.get(party_id, []))

    def leaf_of_virtual(self, virtual_id: int) -> TreeNode:
        """The leaf whose range contains a virtual id."""
        if not 0 <= virtual_id < self.num_virtual:
            raise TreeError(f"virtual id {virtual_id} out of range")
        position = bisect_right(self._leaf_starts, virtual_id) - 1
        if position >= 0:
            node = self._levels[1][position]
            lo, hi = node.virtual_range
            if lo <= virtual_id < hi:
                return node
        raise TreeError(f"no leaf covers virtual id {virtual_id}")

    def leaves_of_party(self, party_id: int) -> List[TreeNode]:
        """The leaf nodes a party is assigned to (one per virtual id)."""
        return [
            self.leaf_of_virtual(virtual_id)
            for virtual_id in self.virtuals_of_party(party_id)
        ]

    def path_to_root(self, node_id: int) -> List[TreeNode]:
        """The node sequence from a node up to (and including) the root."""
        path: List[TreeNode] = []
        current: Optional[int] = node_id
        while current is not None:
            node = self.nodes[current]
            path.append(node)
            current = node.parent_id
        if path[-1].node_id != self.root_id:
            raise TreeError("path did not reach the root")
        return path

    def committees_of_party(self, party_id: int) -> List[TreeNode]:
        """All nodes (any level >= 2) whose committee includes the party."""
        return [
            node
            for node in self.nodes.values()
            if node.level >= 2 and party_id in node.committee
        ]


def build_tree(
    n: int,
    params: ProtocolParameters,
    rng: Randomness,
    honest_root_hint: Optional[Sequence[int]] = None,
) -> CommTree:
    """Construct a valid tree, simulating the KSSV'06 protocol's output.

    The real King et al. protocol builds this object interactively with
    polylog per-party communication and guarantees with high probability
    that the root committee is 2/3-honest.  Simulating the functionality,
    we sample committees with the given seeded randomness; if
    ``honest_root_hint`` (the honest party set) is provided, the root
    committee is resampled until 2/3-honest — modeling the whp guarantee
    rather than re-proving it (the interactive realization's *costs* are
    charged by f_ae-comm, see :mod:`repro.functionalities.ae_comm`).
    """
    if n < 4:
        raise TreeError(f"tree needs at least 4 parties, got {n}")
    z = params.virtual_factor * ceil_log2(n)
    z_star = params.leaf_committee_size(n)
    arity = params.tree_arity(n)
    committee_size = min(n, params.committee_size(n))

    # Level 0: each party owns z virtual identities; ownership is a seeded
    # random permutation of the multiset {0..n-1} x z, giving each leaf a
    # near-uniform mix of parties.
    slots = [party for party in range(n) for _ in range(z)]
    rng.shuffle(slots)
    num_virtual = n * z

    # Level 1: leaves cover contiguous virtual-id ranges of width z_star.
    leaf_ranges: List[Tuple[int, int]] = []
    start = 0
    while start < num_virtual:
        end = min(num_virtual, start + z_star)
        leaf_ranges.append((start, end))
        start = end
    if len(leaf_ranges) == 1:
        # Degenerate tiny-n case: force at least two leaves so the tree
        # has an internal level.
        lo, hi = leaf_ranges[0]
        mid = (lo + hi) // 2
        leaf_ranges = [(lo, mid), (mid, hi)]

    nodes: Dict[int, TreeNode] = {}
    next_id = 0
    current_level_ids: List[int] = []
    for lo, hi in leaf_ranges:
        committee = tuple(sorted({slots[v] for v in range(lo, hi)}))
        nodes[next_id] = TreeNode(
            node_id=next_id,
            level=1,
            parent_id=None,
            children=(),
            committee=committee,
            virtual_range=(lo, hi),
        )
        current_level_ids.append(next_id)
        next_id += 1

    # Levels 2..: group `arity` children per parent until one node remains.
    level = 2
    while len(current_level_ids) > 1 or level == 2:
        parent_ids: List[int] = []
        for chunk_start in range(0, len(current_level_ids), arity):
            child_ids = current_level_ids[chunk_start: chunk_start + arity]
            lo = nodes[child_ids[0]].virtual_range[0]
            hi = nodes[child_ids[-1]].virtual_range[1]
            committee = tuple(sorted(rng.sample(range(n), committee_size)))
            parent = TreeNode(
                node_id=next_id,
                level=level,
                parent_id=None,
                children=tuple(child_ids),
                committee=committee,
                virtual_range=(lo, hi),
            )
            nodes[next_id] = parent
            for child_id in child_ids:
                nodes[child_id].parent_id = next_id
            parent_ids.append(next_id)
            next_id += 1
        current_level_ids = parent_ids
        if len(current_level_ids) == 1:
            break
        level += 1

    root_id = current_level_ids[0]

    tree = CommTree(
        n=n,
        z=z,
        z_star=z_star,
        virtual_owner=slots,
        nodes=nodes,
        root_id=root_id,
    )

    if honest_root_hint is not None:
        _ensure_good_root(tree, set(honest_root_hint), committee_size, n, rng)
    return tree


def _ensure_good_root(
    tree: CommTree,
    honest: set,
    committee_size: int,
    n: int,
    rng: Randomness,
    max_attempts: int = 1000,
) -> None:
    """Resample the root committee until it is 2/3-honest.

    Models KSSV's whp guarantee (see :func:`build_tree`); a failure after
    ``max_attempts`` indicates the honest set itself is below 2/3 of n,
    which violates the model, so it is loud.
    """
    root = tree.nodes[tree.root_id]
    for _ in range(max_attempts):
        corrupt_count = sum(
            1 for party in root.committee if party not in honest
        )
        if 3 * corrupt_count < len(root.committee):
            return
        root.committee = tuple(sorted(rng.sample(range(n), committee_size)))
    raise TreeError(
        "could not find a 2/3-honest root committee; is the corruption "
        "budget below n/3?"
    )
