"""Concrete adversaries for the SRDS security experiments.

Robustness attackers try to make the root aggregate *fail* verification
(Fig. 1); forgery attackers try to make a signature on a *different*
message verify (Fig. 2).  Each class documents the attack idea and which
defense of the construction it probes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.crypto.snark import forge_random_proof
from repro.srds.base import SRDSSignature
from repro.srds.experiments import (
    ExperimentSetup,
    ForgeryAdversary,
    RobustnessAdversary,
)
from repro.utils.randomness import Randomness


class DroppingRobustnessAdversary(RobustnessAdversary):
    """Bad nodes drop their entire subtree; corrupt parties stay silent.

    The canonical robustness stressor: verification must still pass on
    the honest good-path contributions alone.
    """


class DecoyRobustnessAdversary(RobustnessAdversary):
    """Bad-path honest parties are told to sign a single common decoy.

    Probes whether a coordinated off-message block (up to the bad-path
    fraction) can starve the real message below threshold.
    """

    def choose_messages(
        self, setup: ExperimentSetup, rng: Randomness
    ) -> Tuple[bytes, Dict[int, bytes]]:
        return b"robustness-target", {}  # decoys default per party

    def corrupt_signatures(
        self,
        setup: ExperimentSetup,
        scheme,
        message: bytes,
        honest_signatures: Dict[int, SRDSSignature],
        rng: Randomness,
    ) -> Dict[int, SRDSSignature]:
        # Corrupt parties all sign a common competing message.
        competing = b"competing-message"
        signatures = {}
        for virtual_id in setup.corrupt_virtual:
            signature = scheme.sign(
                setup.pp, virtual_id, setup.signing_keys[virtual_id],
                competing,
            )
            if signature is not None:
                signatures[virtual_id] = signature
        return signatures


class GarbageRobustnessAdversary(RobustnessAdversary):
    """Bad nodes emit a syntactically valid but bogus aggregate; corrupt
    parties emit random byte noise as 'signatures'.

    Probes Aggregate1's filtering: junk must be dropped, not poison the
    honest aggregation above.
    """

    def corrupt_signatures(
        self,
        setup: ExperimentSetup,
        scheme,
        message: bytes,
        honest_signatures: Dict[int, SRDSSignature],
        rng: Randomness,
    ) -> Dict[int, SRDSSignature]:
        # Sign the *wrong* message with the real key: structurally valid,
        # semantically useless for m.
        signatures = {}
        for virtual_id in setup.corrupt_virtual:
            signature = scheme.sign(
                setup.pp, virtual_id, setup.signing_keys[virtual_id],
                b"garbage:" + message,
            )
            if signature is not None:
                signatures[virtual_id] = signature
        return signatures

    def bad_node_output(
        self,
        setup: ExperimentSetup,
        scheme,
        node,
        child_signatures: List[SRDSSignature],
        message: bytes,
        rng: Randomness,
    ) -> Optional[SRDSSignature]:
        # Re-emit one child unchanged (a lazy man-in-the-middle): the
        # parent must cope with a partial view.
        return child_signatures[0] if child_signatures else None


class ReplayRobustnessAdversary(RobustnessAdversary):
    """Bad nodes replay one child's aggregate *twice* upward.

    Probes the anti-double-counting defenses (index dedup for the OWF
    scheme, disjoint-range checks for the SNARK scheme): the duplicate
    must not inflate the count, but robustness must also survive.
    """

    def bad_node_output(
        self,
        setup: ExperimentSetup,
        scheme,
        node,
        child_signatures: List[SRDSSignature],
        message: bytes,
        rng: Randomness,
    ) -> Optional[SRDSSignature]:
        if not child_signatures:
            return None
        duplicated = list(child_signatures) + [child_signatures[0]]
        return scheme.aggregate(
            setup.pp, setup.verification_keys, message, duplicated
        )


class CoalitionForgeryAdversary(ForgeryAdversary):
    """The strongest generic forger: aim all available signatures at m'.

    Chooses S as large as the |S ∪ I| < n/3 budget allows, has everyone
    in S sign the same target m', adds the corrupt parties' signatures on
    m', aggregates — and loses exactly because a sub-n/3 coalition sits
    below the acceptance threshold.  This is the threshold-tightness
    attack; a variant with an *illegal* majority coalition (used in
    tests) succeeds, showing the experiment has teeth.
    """

    target_message = b"forged-target"

    def choose_targets(
        self, setup: ExperimentSetup, rng: Randomness
    ) -> Tuple[Set[int], bytes, Dict[int, bytes]]:
        num_virtual = setup.tree.num_virtual
        budget = max(0, (num_virtual - 1) // 3 - len(setup.corrupt_virtual))
        honest_virtual = [
            v for v in range(num_virtual) if v not in setup.corrupt_virtual
        ]
        chosen = set(honest_virtual[:budget])
        side_messages = {v: self.target_message for v in chosen}
        return chosen, b"legitimate-message", side_messages

    def forge(
        self,
        setup: ExperimentSetup,
        scheme,
        message: bytes,
        honest_signatures: Dict[int, SRDSSignature],
        rng: Randomness,
    ) -> Tuple[Optional[SRDSSignature], bytes]:
        arsenal: List[SRDSSignature] = []
        for virtual_id, signature in honest_signatures.items():
            arsenal.append(signature)
        for virtual_id in setup.corrupt_virtual:
            signature = scheme.sign(
                setup.pp, virtual_id, setup.signing_keys[virtual_id],
                self.target_message,
            )
            if signature is not None:
                arsenal.append(signature)
        if not arsenal:
            # Nothing to aggregate (e.g. no corruptions and an empty S):
            # the adversary abstains rather than feeding the scheme an
            # empty list it never promises to handle.
            return None, self.target_message
        forged = scheme.aggregate(
            setup.pp, setup.verification_keys, self.target_message, arsenal
        )
        return forged, self.target_message


class ReplayForgeryAdversary(ForgeryAdversary):
    """Tries to double-count its own coalition's signatures.

    Aggregates the coalition once, then aggregates the aggregate with
    itself (and with the loose base signatures again) hoping the count
    doubles past the threshold.  Defeated by index-dedup / disjoint-range
    checks — the ablation benchmark E7 shows this attack *succeeding*
    when those checks are disabled.
    """

    target_message = b"replayed-target"

    def choose_targets(
        self, setup: ExperimentSetup, rng: Randomness
    ) -> Tuple[Set[int], bytes, Dict[int, bytes]]:
        num_virtual = setup.tree.num_virtual
        budget = max(0, (num_virtual - 1) // 3 - len(setup.corrupt_virtual))
        honest_virtual = [
            v for v in range(num_virtual) if v not in setup.corrupt_virtual
        ]
        chosen = set(honest_virtual[:budget])
        return chosen, b"legitimate-message", {
            v: self.target_message for v in chosen
        }

    def forge(
        self,
        setup: ExperimentSetup,
        scheme,
        message: bytes,
        honest_signatures: Dict[int, SRDSSignature],
        rng: Randomness,
    ) -> Tuple[Optional[SRDSSignature], bytes]:
        coalition = list(honest_signatures.values())
        for virtual_id in setup.corrupt_virtual:
            signature = scheme.sign(
                setup.pp, virtual_id, setup.signing_keys[virtual_id],
                self.target_message,
            )
            if signature is not None:
                coalition.append(signature)
        if not coalition:
            # Empty coalition (no corruptions, empty S): abstain.
            return None, self.target_message
        once = scheme.aggregate(
            setup.pp, setup.verification_keys, self.target_message, coalition
        )
        if once is None:
            return None, self.target_message
        # Feed the aggregate back in together with the originals, twice.
        doubled = scheme.aggregate(
            setup.pp,
            setup.verification_keys,
            self.target_message,
            [once, once] + coalition,
        )
        return doubled, self.target_message


class RandomProofForgeryAdversary(ForgeryAdversary):
    """Emits a random proof tag for an inflated statement (SNARK scheme).

    Probes the argument system's soundness directly: succeeds only with
    probability 2^-256.  For the OWF scheme this adversary effectively
    plays random Lamport preimages and fails for the same reason.
    """

    target_message = b"random-proof-target"

    def choose_targets(
        self, setup: ExperimentSetup, rng: Randomness
    ) -> Tuple[Set[int], bytes, Dict[int, bytes]]:
        return set(), b"legitimate-message", {}

    def forge(
        self,
        setup: ExperimentSetup,
        scheme,
        message: bytes,
        honest_signatures: Dict[int, SRDSSignature],
        rng: Randomness,
    ) -> Tuple[Optional[SRDSSignature], bytes]:
        from repro.srds.snark_based import (
            SnarkAggregateSignature,
            SnarkSRDS,
            _vk_tree,
        )
        from repro.crypto.hashing import hash_domain

        if not isinstance(scheme, SnarkSRDS):
            return None, self.target_message
        tree = _vk_tree(setup.pp, setup.verification_keys)
        forged = SnarkAggregateSignature(
            count=setup.pp.num_parties,  # claim everyone signed
            lo=0,
            hi=setup.pp.num_parties - 1,
            digest=rng.random_bytes(32),
            vk_root=tree.root,
            message_tag=hash_domain("srds/message-tag", self.target_message),
            proof=forge_random_proof("srds/internal-sum", rng),
        )
        return forged, self.target_message
