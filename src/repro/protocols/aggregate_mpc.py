"""The signature-aggregation functionality f_aggr-sig (§3.1).

An n'-party functionality run by the committee of one tree node: every
member submits its message and its filtered signature set; the
functionality keeps only the signatures submitted by a *majority* of the
members (so a corrupt member cannot smuggle in a signature most honest
members never saw, nor suppress one they all did), aggregates them with
``Aggregate2``, and hands the result to everyone.

The paper realizes this with the constant-round Damgård–Ishai MPC over a
polylog committee; here the functionality is evaluated directly and the
DI realization's communication is charged through the cost model — see
DESIGN.md's substitution table.  Security-wise only the functionality's
I/O behaviour matters to pi_ba, and an honest-majority committee's MPC
output *is* the functionality output.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.metrics import CommunicationMetrics
from repro.protocols import cost_model
from repro.srds.base import PublicParameters, SRDSScheme, SRDSSignature


def run_aggregate_sig(
    scheme: SRDSScheme,
    pp: PublicParameters,
    members: Sequence[int],
    submissions: Dict[int, Tuple[bytes, Sequence[object]]],
    metrics: CommunicationMetrics,
) -> Optional[SRDSSignature]:
    """Evaluate f_aggr-sig for one node committee.

    ``submissions`` maps member id to ``(message, filtered_set)``, where
    the filtered set is the member's output of Aggregate1 + the Fig. 3
    range checks.  Members absent from the map submitted nothing (crashed
    or corrupt-silent).

    Returns the aggregated signature (or ``None`` when nothing survives
    the majority filter), charging each member the Damgård–Ishai cost.
    """
    member_list = list(members)
    majority = len(member_list) // 2 + 1

    # Majority message: the committee aggregates *on* the message most
    # members submitted (honest members of a good node agree on it).
    message_counts = Counter(
        message for message, _ in submissions.values()
    )
    if not message_counts:
        return None
    message = message_counts.most_common(1)[0][0]

    # Majority filter on individual contributions, keyed by wire encoding
    # (every item a scheme's Aggregate1 outputs exposes .encode()).
    # The honest members of a good node submit one shared Aggregate1
    # output (the same list object), so each distinct list is walked
    # once and counts for as many members as submitted it.
    submitted: Dict[int, Sequence[object]] = {}
    submitters: Counter = Counter()
    for member_message, filtered in submissions.values():
        if member_message == message:
            submitted[id(filtered)] = filtered
            submitters[id(filtered)] += 1
    support: Counter = Counter()
    by_encoding: Dict[bytes, object] = {}
    for key, filtered in submitted.items():
        seen_here = set()
        for item in filtered:
            encoding = item.encode()
            if encoding in seen_here:
                continue
            seen_here.add(encoding)
            support[encoding] += submitters[key]
            by_encoding.setdefault(encoding, item)
    surviving = [
        by_encoding[encoding]
        for encoding, count in sorted(support.items())
        if count >= majority
    ]

    input_bits = 8 * sum(len(enc) for enc in support)
    charge = cost_model.committee_aggregate_sig(
        len(member_list), input_bits=min(input_bits, 1 << 20)
    )
    metrics.charge_functionality(
        member_list,
        bits_per_party=charge.bits_per_party,
        peers_per_party=charge.peers_per_party,
        rounds=charge.rounds,
    )

    if not surviving:
        return None
    return scheme.aggregate2(pp, message, surviving)
