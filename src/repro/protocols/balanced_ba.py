"""pi_ba — Byzantine agreement with balanced polylog communication (Fig. 3).

The headline protocol of the paper: boost almost-everywhere agreement to
full agreement using an SRDS scheme, with every party communicating
polylog(n) * poly(kappa) bits.

Execution model.  The protocol is stated in the (f_ae-comm, f_ba, f_ct,
f_aggr-sig)-hybrid model; this implementation follows that statement
literally.  All *protocol* messages — base-signature sends (step 4),
within-committee set broadcasts (step 5b), child-to-parent aggregate
sends (step 5d), and the final one-round boost (steps 7-8) — are charged
at their exact encoded sizes, party by party, to the shared metrics
ledger.  The four functionalities are evaluated functionally with their
realization costs charged per :mod:`repro.protocols.cost_model`; their
concrete message-passing realizations (phase-king, VSS coin toss) live in
sibling modules and a consistency test pins the analytic charges above
the measured concrete costs.

Adversary.  Corruption is static (fixed by a :class:`CorruptionPlan`
chosen after the public setup, per the paper's model).  Corrupt behaviour
is injected through :class:`AdversaryBehavior` hooks at every point where
the paper gives the adversary a move: choice of corrupt signing messages,
outputs of bad tree nodes, and extra messages in the final boost round.

Structure.  Steps 4-8 are functions of one party or one tree node, its
inbox and a frozen :class:`StepContext`; each returns its result and the
:data:`Exchange` s it sends.  :func:`certified_propagation` (steps 3-8)
and :func:`run_balanced_ba` (steps 1-8) are the loop: the only code
that charges the ledger and invokes a functionality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.aetree.analysis import is_good_node
from repro.aetree.tree import CommTree, TreeNode
from repro.crypto.prf import SubsetPRF
from repro.errors import ProtocolError
from repro.functionalities.ae_comm import AlmostEverywhereComm
from repro.net.adversary import CorruptionPlan
from repro.net.metrics import CommunicationMetrics, MetricsSnapshot
from repro.obs.spans import span
from repro.params import ProtocolParameters
from repro.protocols import cost_model
from repro.protocols.aggregate_mpc import run_aggregate_sig
from repro.protocols.coin_toss import ideal_f_ct
from repro.protocols.phase_king import ideal_f_ba
from repro.srds.base import SRDSScheme, SRDSSignature
from repro.srds.pcd import CountingBoard
from repro.utils.randomness import Randomness
from repro.utils.serialization import canonical_tuple, encode_uint


@dataclass
class AdversaryBehavior:
    """Hooks for corrupt-party behaviour inside pi_ba.

    Every hook has a conservative default (do nothing / drop), which is
    the worst case for *robustness*; attack-specific tests override them.

    Attributes:
        sign_message: given (party_id, virtual_id, honest_pair_message),
            return the message the corrupt party signs, or ``None`` to
            stay silent.
        bad_node_output: given (node, message, adversary_view_signatures),
            return the aggregate the adversary emits for a bad node, or
            ``None`` to drop the subtree.
        boost_messages: extra ``(sender, recipient, y, seed, signature)``
            tuples injected in the final round.
        ba_choice: the value f_ba lets the adversary pick when honest
            inputs are split.
    """

    sign_message: Optional[Callable[[int, int, bytes], Optional[bytes]]] = None
    bad_node_output: Optional[
        Callable[[TreeNode, bytes, List[SRDSSignature]], Optional[SRDSSignature]]
    ] = None
    boost_messages: Optional[
        Callable[[], List[Tuple[int, int, int, bytes, Optional[SRDSSignature]]]]
    ] = None
    ba_choice: int = 0


@dataclass(frozen=True)
class BAResult:
    """Outcome of one pi_ba execution."""

    outputs: Dict[int, Optional[int]]
    agreed_value: Optional[int]
    agreement: bool
    validity: bool
    metrics: MetricsSnapshot
    certificate_bytes: int
    num_virtual: int
    isolated_before_boost: int
    supreme_committee_size: int


def encode_pair(y: int, seed: bytes) -> bytes:
    """The signed message (y, s) of Fig. 3, canonically encoded."""
    return canonical_tuple(encode_uint(y), seed)


@dataclass(frozen=True)
class SRDSSetupMaterial:
    """The pre-protocol SRDS setup of one pi_ba execution.

    Everything Fig. 3's setup phase produces before the first protocol
    message: the scheme's public parameters and the per-virtual-identity
    key pairs.  Producing this material charges *nothing* to the
    communication ledger (setup is the trusted/amortized phase the paper
    excludes from the per-party budget), so a cached copy can replace a
    fresh computation without perturbing any bit tally — which is
    exactly how the :mod:`repro.serve` gateway amortizes keygen across
    repeated invocations per Corollary 1.2.

    ``rng_seed`` records the seed of the :class:`Randomness` the
    material was derived from; consumers use it to refuse material that
    would diverge from a fresh computation.
    """

    rng_seed: int
    num_virtual: int
    public_parameters: object
    verification_keys: Dict[int, bytes]
    signing_keys: Dict[int, object]


#: Signature of the pluggable setup source consumed by
#: :func:`run_balanced_ba`: ``(scheme, num_virtual, rng) -> material``.
SetupProvider = Callable[[SRDSScheme, int, Randomness], SRDSSetupMaterial]


def compute_srds_setup(
    scheme: SRDSScheme, num_virtual: int, rng: Randomness
) -> SRDSSetupMaterial:
    """Run SRDS ``Setup`` + per-virtual-id ``KeyGen`` (the default provider).

    Forks are label-derived (stateless), so the material is a pure
    function of ``(scheme, num_virtual, rng.seed)``: precomputing it —
    or caching it across executions — yields byte-identical keys to
    computing it in line.  The board is a
    :class:`~repro.srds.pcd.CountingBoard`, so every lookup of what the
    scheme derives from it is O(1) while nobody writes to it.
    """
    pp = scheme.setup(num_virtual, rng.fork("srds-setup"))
    verification_keys: Dict[int, bytes] = {}
    signing_keys: Dict[int, object] = {}
    for virtual_id in range(num_virtual):
        vk, sk = scheme.keygen(pp, rng.fork(f"kg-{virtual_id}"))
        verification_keys[virtual_id] = vk
        signing_keys[virtual_id] = sk
    return SRDSSetupMaterial(
        rng_seed=rng.seed,
        num_virtual=num_virtual,
        public_parameters=pp,
        verification_keys=CountingBoard(verification_keys),
        signing_keys=signing_keys,
    )


#: One wire exchange a step sends, ``(senders, recipients, bits,
#: skip_self)``: every sender sends ``bits`` to every recipient (to every
#: *other* one when ``skip_self``), charged by the loop as one
#: :meth:`~repro.net.metrics.CommunicationMetrics.record_exchange`.
Exchange = Tuple[Sequence[int], Sequence[int], int, bool]

#: One step-7 message as its recipient holds it: ``(sender, y, seed,
#: certificate)``.
BoostMessage = Tuple[int, int, bytes, SRDSSignature]


@dataclass(frozen=True)
class StepContext:
    """What every step of one Fig. 3 execution reads and none writes.

    ``pair_message`` is the encoded (y, s) of step 2.  ``delivery_rng``
    is the delivery-order seam: the synchronous model promises that
    messages sent in round r arrive by round r + 1, but promises *no
    order within the round*.  When a seeded source is supplied (the
    runtime's FaultPlan reordering injector forks one), every inbox a
    step consumes is presented in a permuted order; honest outputs must
    be invariant (tests/runtime pins this).
    """

    n: int
    plan: CorruptionPlan
    scheme: SRDSScheme
    params: ProtocolParameters
    tree: CommTree
    pp: object
    verification_keys: Dict[int, bytes]
    pair_message: bytes
    adversary: AdversaryBehavior = field(default_factory=AdversaryBehavior)
    delivery_rng: Optional[Randomness] = None


def _delivered_order(context: StepContext, items: List, label: str) -> List:
    """Within-round delivery order of one inbox (identity unless a
    delivery_rng is installed)."""
    if context.delivery_rng is None or len(items) < 2:
        return list(items)
    permuted = list(items)
    context.delivery_rng.fork(label).shuffle(permuted)
    return permuted


# -- Fig. 3 steps 4-8, one node or one party at a time --------------------------


def signing_messages(
    context: StepContext,
    party: int,
    delivered: Optional[Tuple[int, bytes]],
) -> List[Tuple[int, bytes]]:
    """Step 4 at one party: the (virtual_id, message) pairs it signs.

    ``delivered`` is the (y, s) step 3's f_ae-comm handed the party, or
    ``None`` if it is isolated.  Each signature goes to the leaf
    committee of its virtual id; those sends are charged leaf by leaf
    once every party has signed, so this step returns no exchange.
    """
    tree_virtuals = context.tree.virtuals_of_party(party)
    if context.plan.is_corrupt(party):
        sign_message = context.adversary.sign_message
        if sign_message is None:
            return []
        chosen: List[Tuple[int, bytes]] = []
        for virtual_id in tree_virtuals:
            message = sign_message(party, virtual_id, context.pair_message)
            if message is not None:
                chosen.append((virtual_id, message))
        return chosen
    if delivered is None:
        # Isolated honest party: never received (y, s), signs nothing.
        return []
    return [
        (virtual_id, context.pair_message) for virtual_id in tree_virtuals
    ]


def node_inbox(
    context: StepContext,
    node: TreeNode,
    leaf_mail: Dict[int, List[Tuple[int, SRDSSignature]]],
    node_outputs: Dict[int, Optional[SRDSSignature]],
) -> Tuple[List[SRDSSignature], List[Exchange]]:
    """S_sig^{i,l,1}: what every member of this node receives, in
    sending order — one multiset for the whole committee; only the
    within-round delivery order can differ between members.

    A leaf receives its step-4 mail; an inner node its children's
    outputs, each sent by step 5d: every member of the child sends
    sigma_v to every member of the parent (itself included, if it sits
    in both) — one exchange per child that has an output.
    """
    if node.is_leaf:
        return [signature for _, signature in leaf_mail[node.node_id]], []
    received: List[SRDSSignature] = []
    exchanges: List[Exchange] = []
    for child_id in node.children:
        child_output = node_outputs.get(child_id)
        if child_output is None:
            continue
        child = context.tree.nodes[child_id]
        exchanges.append((
            child.committee, node.committee,
            8 * len(child_output.encode()), False,
        ))
        received.extend([child_output] * len(child.committee))
    return received, exchanges


def aggregate_node(
    context: StepContext,
    node: TreeNode,
    received: List[SRDSSignature],
) -> Tuple[List[SRDSSignature], Optional[List], List[Exchange]]:
    """Steps 5a-5c at one node: ``(union, filtered, exchanges)``.

    ``union`` is the set the members hold after step 5b's re-broadcast
    (the one exchange); ``filtered`` is what the honest members submit
    to f_aggr-sig after the step-5c range checks and Aggregate1, or
    ``None`` at a bad node, whose output the adversary picks from
    ``union``.
    """
    plan = context.plan
    members = node.committee
    honest_members = [m for m in members if not plan.is_corrupt(m)]

    # Step 5b: within-committee broadcast of received sets (charged
    # at actual encoded sizes); honest members end with the union.
    # S_sig^{i,l,1} is a *set*: duplicates received from multiple
    # senders are collapsed before re-broadcasting.  Every member
    # holds the same multiset, so the set is keyed and weighed once,
    # in the delivery order of the first honest member — the order
    # the union of the honest members' sets comes out in.
    kind = "leaf" if node.is_leaf else "node"
    first = (honest_members or members)[0]
    unique: Dict[bytes, SRDSSignature] = {}
    for signature in _delivered_order(
        context, received, f"{kind}/{node.node_id}/{first}"
    ):
        unique.setdefault(signature.encode(), signature)
    set_bits = 8 * sum(len(encoding) for encoding in unique)
    exchanges: List[Exchange] = [(members, members, set_bits, True)]
    union = list(unique.values()) if honest_members else []
    if not is_good_node(node, plan.corrupted):
        return union, None, exchanges

    # Step 5c: Fig. 3 range checks + Aggregate1 (identical for every
    # honest member since the union is common; computed once).  A
    # base signature's check reads its index only, so it is applied
    # first — it commutes with Aggregate1's per-index verify and
    # dedup — and whatever a scheme's Aggregate1 attaches to its
    # surviving base signatures covers exactly those that enter
    # f_aggr-sig.  Of Aggregate1's output, every item that states an
    # index range (an aggregate, whatever type the scheme wraps it
    # in) is checked; what states none is a base signature already
    # checked, or material that belongs to those.
    in_range = [
        signature
        for signature in union
        if not signature.is_base
        or range_check_passes(context, node, signature)
    ]
    filtered = [
        item
        for item in context.scheme.aggregate1(
            context.pp, context.verification_keys, context.pair_message,
            in_range,
        )
        if not hasattr(item, "min_index")
        or range_check_passes(context, node, item)
    ]
    return union, filtered, exchanges


def range_check_passes(
    context: StepContext, node: TreeNode, signature
) -> bool:
    """The step-5c index-range check of anything that states its
    ``min_index``/``max_index``: at a leaf, one index inside the leaf's
    range; at an inner node, a range inside one child's."""
    lo_bound, hi_bound = node.virtual_range
    if node.is_leaf:
        return (
            signature.min_index == signature.max_index
            and lo_bound <= signature.min_index < hi_bound
        )
    for child_id in node.children:
        child_lo, child_hi = context.tree.nodes[child_id].virtual_range
        if (
            child_lo <= signature.min_index
            and signature.max_index < child_hi
        ):
            return True
    return False


def boost_round(
    context: StepContext,
    party: int,
    certified: Tuple[int, bytes, Optional[SRDSSignature]],
) -> Tuple[Optional[BoostMessage], List[Exchange]]:
    """Step 7 at one party: an honest party holding a certificate sends
    ``(y, s, sigma_root)`` to F_s(i).  Returns the message and the one
    exchange that carries it to its recipients, or ``(None, [])``;
    corrupt parties' sends are the adversary's ``boost_messages``."""
    if context.plan.is_corrupt(party):
        return None, []
    y, seed, certificate = certified
    if certificate is None:
        return None, []
    n = context.n
    recipients = SubsetPRF(seed, n, context.params.fanout(n)).subset(party)
    payload_bits = 8 * (
        len(encode_pair(y, seed)) + len(certificate.encode())
    )
    return (
        (party, y, seed, certificate),
        [((party,), recipients, payload_bits, False)],
    )


def decide(
    context: StepContext, party: int, inbox: List[BoostMessage]
) -> Optional[int]:
    """Step 8 at party i: output the first y sent by a party j with
    i in F_s(j) whose certificate verifies on (y, s); else ``None``."""
    n = context.n
    for sender, y, seed, certificate in _delivered_order(
        context, inbox, f"boost/{party}"
    ):
        prf = SubsetPRF(seed, n, context.params.fanout(n))
        if not prf.contains(sender, party):
            continue
        message = encode_pair(y, seed)
        if context.scheme.verify(
            context.pp, context.verification_keys, message, certificate
        ):
            return y
    return None


# -- the loop -------------------------------------------------------------------


def certified_propagation(
    ae: AlmostEverywhereComm,
    scheme: SRDSScheme,
    pp,
    verification_keys: Dict[int, bytes],
    signing_keys: Dict[int, object],
    y: int,
    seed: bytes,
    adversary: Optional[AdversaryBehavior] = None,
    delivery_rng: Optional[Randomness] = None,
) -> Tuple[Dict[int, Optional[int]], int]:
    """Steps 3-8 of Fig. 3 for an already-agreed (y, seed).

    Runs over an established f_ae-comm (its tree, corruption plan,
    params and ledger), so the broadcast corollary (Corollary 1.2(1))
    reuses it over a long-lived tree and key set.  Walks the steps
    above node by node and party by party; it alone charges what they
    send and invokes f_ae-comm and f_aggr-sig.  Returns ``(per-party
    outputs, certificate size in bytes)``.
    """
    tree, plan, metrics = ae.tree, ae.plan, ae.metrics
    pair_message = encode_pair(y, seed)
    context = StepContext(
        n=ae.n, plan=plan, scheme=scheme, params=ae.params, tree=tree,
        pp=pp, verification_keys=verification_keys,
        pair_message=pair_message,
        adversary=adversary if adversary is not None else AdversaryBehavior(),
        delivery_rng=delivery_rng,
    )

    def send(exchanges: List[Exchange]) -> None:
        for senders, recipients, bits, skip_self in exchanges:
            metrics.record_exchange(
                senders, recipients, bits, skip_self=skip_self
            )

    # Step 3: propagate (y, s) via f_ae-comm.
    with span("ae-send-down"):
        deliveries = ae.send_down(8 * len(pair_message), (y, seed))

    # Step 4: every party signs for each virtual identity and sends
    # the signature to its leaf committee.
    leaves = tree.leaves
    # What each leaf committee receives: (sender, signature) in
    # sending order, the same for every member.
    leaf_mail: Dict[int, List[Tuple[int, SRDSSignature]]] = {
        leaf.node_id: [] for leaf in leaves
    }
    with span("base-sign"):
        for party in range(context.n):
            for virtual_id, message in signing_messages(
                context, party, deliveries.get(party)
            ):
                signature = scheme.sign(
                    pp, virtual_id, signing_keys[virtual_id], message
                )
                if signature is None:
                    continue
                leaf = tree.leaf_of_virtual(virtual_id)
                leaf_mail[leaf.node_id].append((party, signature))
        # Charged leaf by leaf in tree order — a party's virtual ids
        # ascend, so each sender's sends stay in virtual-id order —
        # one exchange per run of senders with equal signature size.
        for leaf in leaves:
            for bits, run in groupby(
                leaf_mail[leaf.node_id],
                key=lambda sent: 8 * len(sent[1].encode()),
            ):
                metrics.record_exchange(
                    [sender for sender, _ in run], leaf.committee, bits
                )

    # Step 5: recursive aggregation up the tree; f_aggr-sig makes a good
    # node's output from its honest members' common filtered set.
    node_outputs: Dict[int, Optional[SRDSSignature]] = {}
    for level in range(1, tree.height + 1):
        with span("srds-aggregate", level=level):
            for node in tree.level_nodes(level):
                received, exchanges = node_inbox(
                    context, node, leaf_mail, node_outputs
                )
                send(exchanges)
                union, filtered, exchanges = aggregate_node(
                    context, node, received
                )
                send(exchanges)
                if filtered is not None:
                    submission = (pair_message, filtered)
                    output = run_aggregate_sig(
                        scheme, pp, node.committee,
                        {
                            member: submission
                            for member in node.committee
                            if not plan.is_corrupt(member)
                        },
                        metrics,
                    )
                elif context.adversary.bad_node_output is not None:
                    output = context.adversary.bad_node_output(
                        node, pair_message, union
                    )
                else:
                    output = None
                node_outputs[node.node_id] = output
    certificate = node_outputs.get(tree.root_id)

    # Step 6: supreme committee sends (y, s, sigma_root) down.
    certificate_bytes = (
        len(certificate.encode()) if certificate is not None else 0
    )
    payload_bits = 8 * (len(pair_message) + certificate_bytes)
    with span("certified-send-down"):
        certified = ae.send_down(payload_bits, (y, seed, certificate))

    # Steps 7-8: the one-round boost.
    with span("prf-boost"):
        inboxes: Dict[int, List[BoostMessage]] = {
            party: [] for party in range(context.n)
        }
        for party, triple in certified.items():
            message, exchanges = boost_round(context, party, triple)
            send(exchanges)
            for _, recipients, _, _ in exchanges:
                for recipient in recipients:
                    inboxes[recipient].append(message)
        if context.adversary.boost_messages is not None:
            for sender, recipient, y_, seed_, signature in (
                context.adversary.boost_messages()
            ):
                bits = 8 * (
                    len(encode_pair(y_, seed_))
                    + (len(signature.encode()) if signature else 0)
                )
                metrics.record_message(sender, recipient, bits)
                if signature is not None:
                    inboxes[recipient].append(
                        (sender, y_, seed_, signature)
                    )
        outputs = {
            party: decide(context, party, inboxes[party])
            for party in range(context.n)
        }
    return outputs, certificate_bytes


def run_balanced_ba(
    inputs: Dict[int, int],
    plan: CorruptionPlan,
    scheme: SRDSScheme,
    params: ProtocolParameters,
    rng: Randomness,
    adversary: Optional[AdversaryBehavior] = None,
    delivery_rng: Optional[Randomness] = None,
    metrics: Optional[CommunicationMetrics] = None,
    setup_provider: Optional[SetupProvider] = None,
) -> BAResult:
    """Execute Fig. 3 end to end and evaluate agreement/validity.

    Pass a live ``metrics`` ledger to read the phase-labeled breakdown
    (``metrics.phase_breakdown()``) after the run; the returned
    ``BAResult.metrics`` only carries the aggregate snapshot.
    ``setup_provider`` substitutes a cached/amortized SRDS setup source
    (see :class:`SRDSSetupMaterial`); the default provider forks the
    same labels, so outputs and tallies are independent of the choice.
    """
    n = len(inputs)
    if plan.n != n:
        raise ProtocolError("corruption plan size mismatch")
    if plan.t * 3 >= n:
        raise ProtocolError("corruption budget must be below n/3")
    if adversary is None:
        adversary = AdversaryBehavior()
    if metrics is None:
        metrics = CommunicationMetrics()
    if setup_provider is None:
        setup_provider = compute_srds_setup
    with span("pi-ba", n=n, t=plan.t):
        # Setup (pre-protocol): SRDS public parameters and per-virtual-id
        # keys.  Each party owns z virtual identities; in the bare-PKI
        # model the adversary could replace corrupt keys here — hooks
        # for that live in the SRDS experiments; for BA runs corrupt
        # parties keep honestly formed keys (key replacement only
        # weakens them).
        with span("kssv-ae-establish"):
            ae = AlmostEverywhereComm(n, params, plan, metrics, rng)
        tree = ae.tree
        with span("srds-setup"):
            material = setup_provider(scheme, tree.num_virtual, rng)
            if (
                material.num_virtual != tree.num_virtual
                or material.rng_seed != rng.seed
            ):
                raise ProtocolError(
                    "setup material mismatch: provider returned keys for "
                    f"(num_virtual={material.num_virtual}, "
                    f"seed={material.rng_seed}), run needs "
                    f"(num_virtual={tree.num_virtual}, seed={rng.seed})"
                )

        # Step 2: the supreme committee runs f_ba on its inputs and f_ct.
        committee = list(tree.supreme_committee)
        with span("committee-ba", committee_size=len(committee)):
            y = ideal_f_ba(
                {i: inputs[i] for i in committee},
                sum(1 for i in committee if plan.is_corrupt(i)),
                adversary_choice=adversary.ba_choice,
            )
            charge = cost_model.committee_ba(len(committee))
            metrics.charge_functionality(
                committee, charge.bits_per_party, charge.peers_per_party,
                charge.rounds,
            )
        with span("committee-coin-toss", committee_size=len(committee)):
            seed = ideal_f_ct(rng.fork("coin"))
            charge = cost_model.committee_coin_toss(len(committee))
            metrics.charge_functionality(
                committee, charge.bits_per_party, charge.peers_per_party,
                charge.rounds,
            )

        # Steps 3-8: certified propagation and the one-round boost.
        outputs, certificate_bytes = certified_propagation(
            ae, scheme, material.public_parameters,
            material.verification_keys, material.signing_keys, y, seed,
            adversary, delivery_rng,
        )

        honest = [party for party in range(n) if not plan.is_corrupt(party)]
        decided = [
            outputs[party] for party in honest if outputs[party] is not None
        ]
        agreement = len(decided) == len(honest) and len(set(decided)) == 1
        honest_inputs = {inputs[party] for party in honest}
        validity = True
        if len(honest_inputs) == 1:
            (unanimous,) = honest_inputs
            validity = bool(agreement and decided[0] == unanimous)
        return BAResult(
            outputs=outputs,
            agreed_value=decided[0] if decided else None,
            agreement=agreement,
            validity=validity,
            metrics=metrics.snapshot(),
            certificate_bytes=certificate_bytes,
            num_virtual=tree.num_virtual,
            isolated_before_boost=len(ae.isolated),
            supreme_committee_size=len(committee),
        )
