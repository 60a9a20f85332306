"""One seeded Fig. 3 execution's step context, built without running it.

The step functions of :mod:`repro.protocols.balanced_ba` read a
:class:`~repro.protocols.balanced_ba.StepContext`: the f_ae-comm tree,
the SRDS setup and the agreed (y, s).  These helpers build it from the
same seed derivation the tests' full runs use, so one node's inbox can
be handed to one step and its output read back.
"""

from repro.functionalities.ae_comm import AlmostEverywhereComm
from repro.net.adversary import random_corruption
from repro.net.metrics import CommunicationMetrics
from repro.params import ProtocolParameters
from repro.protocols.aggregate_mpc import run_aggregate_sig
from repro.protocols.balanced_ba import (
    StepContext,
    aggregate_node,
    compute_srds_setup,
    encode_pair,
)
from repro.utils.randomness import Randomness


def build_context(n: int, seed: int, scheme):
    """``(context, signing_keys)`` of the run ``Randomness(seed)`` drives
    (corruption from its ``"c"`` fork, the protocol from ``"run"``),
    agreed on y = 1."""
    params = ProtocolParameters()
    rng = Randomness(seed)
    plan = random_corruption(n, params.max_corruptions(n), rng.fork("c"))
    run_rng = rng.fork("run")
    ae = AlmostEverywhereComm(n, params, plan, CommunicationMetrics(), run_rng)
    material = compute_srds_setup(scheme, ae.tree.num_virtual, run_rng)
    context = StepContext(
        n=n, plan=plan, scheme=scheme, params=params, tree=ae.tree,
        pp=material.public_parameters,
        verification_keys=material.verification_keys,
        pair_message=encode_pair(1, run_rng.fork("coin").random_bytes(32)),
    )
    return context, material.signing_keys


def leaf_mail(context: StepContext, signing_keys, leaf):
    """An honest signature on (y, s) for every virtual id of the leaf."""
    return [
        context.scheme.sign(
            context.pp, virtual_id, signing_keys[virtual_id],
            context.pair_message,
        )
        for virtual_id in range(*leaf.virtual_range)
    ]


def node_output(context: StepContext, node, received):
    """Steps 5a-5c at a good node and f_aggr-sig on its honest members'
    filtered set, charged to a throwaway ledger."""
    _, filtered, _ = aggregate_node(context, node, received)
    assert filtered is not None, "bad node: the adversary picks its output"
    honest = [m for m in node.committee if not context.plan.is_corrupt(m)]
    return run_aggregate_sig(
        context.scheme, context.pp, node.committee,
        {member: (context.pair_message, filtered) for member in honest},
        CommunicationMetrics(),
    )
