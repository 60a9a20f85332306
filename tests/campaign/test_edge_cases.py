"""Adversary edge cases on the experiment seams.

Three boundary conditions the campaign's plan-injection seam makes
reachable:

* a robustness run whose corrupted set covers *every* owner of one leaf
  committee (the whole leaf is adversarial);
* forgery adversaries facing an empty arsenal (no corruptions, empty
  coalition) — they must abstain, not crash;
* a fault plan crashing every party in the same round — the runtime
  must fail loudly, never return a silent partial answer.
"""

import pytest

from repro.errors import ExperimentError, ReproError
from repro.net.adversary import targeted_corruption
from repro.params import ProtocolParameters
from repro.pki.registry import PKIMode
from repro.srds.adversaries import (
    CoalitionForgeryAdversary,
    DroppingRobustnessAdversary,
    ReplayForgeryAdversary,
)
from repro.srds.experiments import (
    ExperimentSetup,
    run_forgery_experiment,
    run_robustness_experiment,
)
from repro.srds.snark_based import SnarkSRDS
from repro.utils.randomness import Randomness

FAST = ProtocolParameters(
    security_bits=64,
    committee_factor=3,
    leaf_factor=3,
    virtual_factor=1,
    tree_arity_factor=1,
    corruption_ratio=1 / 8,
    fanout_factor=2,
)


def _fully_corrupt_leaf_plan(n, t, params, rng, max_iterations=8):
    """Fixpoint search for a plan corrupting every owner of one leaf.

    The experiment builds its tree with ``honest_root_hint=plan.honest``
    (`Randomness.fork` is pure, so probing with the same rng path sees
    the same tree).  Corrupting owners can change which tree is sampled,
    so iterate: probe the tree the candidate plan induces, re-target the
    smallest leaf, repeat until the plan reproduces itself.
    """
    from repro.aetree.tree import build_tree

    plan = targeted_corruption(n, (), budget=t)
    for _ in range(max_iterations):
        tree = build_tree(
            n, params, rng.fork("tree"), honest_root_hint=plan.honest
        )
        owners_per_leaf = [
            sorted({
                tree.owner_of_virtual(v)
                for v in range(*leaf.virtual_range)
            })
            for leaf in tree.leaves
        ]
        owners = min(owners_per_leaf, key=len)
        if len(owners) > t:
            pytest.skip(
                f"smallest leaf has {len(owners)} owners > budget {t}"
            )
        candidate = targeted_corruption(n, owners, budget=t)
        if candidate.corrupted == plan.corrupted:
            return plan, tree, owners
        plan = candidate
    pytest.skip("leaf-targeting plan did not reach a fixpoint")


class TestFullyCorruptLeafCommittee:
    @pytest.mark.campaign
    def test_robustness_survives_total_leaf_loss(self):
        # n is chosen so one whole leaf's owner set fits within the
        # *concrete* tolerance max_corruptions(n) — at smaller n the
        # leaf's owners alone exceed it and robustness fails for the
        # uninteresting over-threshold reason.
        n = 64
        t = FAST.max_corruptions(n)
        rng = Randomness(7).fork("edge")
        plan, tree, owners = _fully_corrupt_leaf_plan(n, t, FAST, rng)
        # The edge case is real: one leaf's virtual ids are all corrupt.
        corrupt_virtual = {
            v
            for v in range(tree.num_virtual)
            if plan.is_corrupt(tree.owner_of_virtual(v))
        }
        assert any(
            set(range(*leaf.virtual_range)) <= corrupt_virtual
            for leaf in tree.leaves
        )
        verdict = run_robustness_experiment(
            SnarkSRDS(),
            n,
            t,
            PKIMode.TRUSTED,
            DroppingRobustnessAdversary(),
            params=FAST,
            rng=rng,
            plan=plan,
        )
        assert verdict, (
            "dropping one whole leaf committee must not break robustness"
        )

    def test_plan_injection_validates_n(self):
        plan = targeted_corruption(8, (0,), budget=1)
        with pytest.raises(ExperimentError):
            run_robustness_experiment(
                SnarkSRDS(),
                16,
                2,
                PKIMode.TRUSTED,
                DroppingRobustnessAdversary(),
                params=FAST,
                rng=Randomness(1),
                plan=plan,
            )

    def test_plan_injection_validates_budget(self):
        plan = targeted_corruption(16, (0, 1, 2), budget=3)
        with pytest.raises(ExperimentError):
            run_robustness_experiment(
                SnarkSRDS(),
                16,
                2,  # experiment budget below the plan's corruption count
                PKIMode.TRUSTED,
                DroppingRobustnessAdversary(),
                params=FAST,
                rng=Randomness(1),
                plan=plan,
            )


def _empty_setup():
    """A setup with no corruptions at all — fields the forgers touch on
    the abstain path are real, the rest unused."""
    return ExperimentSetup(
        pp=None,
        verification_keys={},
        signing_keys={},
        plan=targeted_corruption(4, (), budget=0),
        corrupt_virtual=set(),
        tree=None,
    )


class TestForgeryWithEmptyArsenal:
    @pytest.mark.parametrize(
        "adversary_cls", [CoalitionForgeryAdversary, ReplayForgeryAdversary]
    )
    def test_forge_abstains_without_signers(self, adversary_cls):
        adversary = adversary_cls()
        forged, message = adversary.forge(
            _empty_setup(), SnarkSRDS(), b"m", {}, Randomness(0)
        )
        assert forged is None
        assert message == adversary.target_message

    def test_experiment_with_zero_corruptions(self):
        # End-to-end: an empty pinned plan leaves the coalition forger
        # only the sub-threshold set S — unforgeability must hold.
        verdict = run_forgery_experiment(
            SnarkSRDS(),
            16,
            1,
            PKIMode.TRUSTED,
            CoalitionForgeryAdversary(),
            params=FAST,
            rng=Randomness(9).fork("forge"),
            plan=targeted_corruption(16, (), budget=1),
        )
        assert verdict is False


class TestCrashEveryoneFaultPlan:
    def test_phase_king_fails_loudly(self):
        from repro.protocols.phase_king import build_phase_king
        from repro.runtime.faults import crash_everyone
        from repro.runtime.placements import LOCAL

        inputs = {i: i % 2 for i in range(8)}
        with pytest.raises(ReproError):
            LOCAL.run(
                *build_phase_king(inputs, []),
                fault_plan=crash_everyone(range(8), round_index=1),
            )

    def test_builder_covers_every_party(self):
        from repro.runtime.faults import crash_everyone

        plan = crash_everyone(range(12), round_index=3)
        assert set(plan.crashes) == set(range(12))
        assert set(plan.crashes.values()) == {3}
