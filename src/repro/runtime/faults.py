"""Seeded fault injection for the runtime — the scheduling adversary.

The synchronous simulator gives the adversary no scheduling power at
all: every envelope arrives exactly one round later, in sorted-sender
order.  A real network adversary controls far more — it can crash nodes,
delay individual links, reorder deliveries within a round, duplicate
messages, and partition the network.  :class:`FaultPlan` models all of
that *reproducibly*: every random decision is drawn from a fork of a
seeded :class:`~repro.utils.randomness.Randomness`, keyed by the
(round, sender, recipient, sequence) coordinates of the affected message
— so the same plan produces the same schedule regardless of how the
event loop happens to interleave party tasks.

Composability with the corruption model: a
:class:`~repro.net.adversary.CorruptionPlan` says *which parties the
adversary controls*; a :class:`FaultPlan` says *what the network does*.
The helpers at the bottom derive fault plans from corruption plans
(e.g. crash every corrupted party at a random round), matching the
paper's remark that crash faults are the weakest point on the Byzantine
spectrum.

Semantics (a :class:`FaultPlan` is the delivery policy of
:class:`~repro.net.rounds.RoundCore`, which applies all of it —
transports stay honest; the predicates are pure functions of the plan
and the message coordinates.  Nothing counts the faults that fired: a
fault shows up as trace events — ``crash``, ``drop`` — and in the
ledger, which never charges a dropped frame):

* **crash(party, round)** — the party takes no step at any round >= the
  crash round; messages already in flight still arrive.
* **delay** — a link delay of ``d`` moves a message's delivery from
  round ``r + 1`` to round ``r + 1 + d``.  Delayed messages are still
  charged at send time (the bits crossed the wire).
* **partition** — messages between the two groups during the partition
  window are silently dropped before they reach the transport (the link
  is down; nothing is charged).
* **duplication** — the recipient sees the frame twice in one inbox.
  Applied at the delivery layer after metrics charging: the duplicate is
  the network's artifact, not a second paid send.
* **reorder** — the within-round inbox permutation is randomized instead
  of the simulator's canonical (sender, seq) order.  Honest protocol
  logic must tolerate this (the paper's model promises delivery within
  the round, never an order).
* **latency** — a pluggable :class:`~repro.net.latency.LatencyModel`
  adds seeded per-message extra rounds on top of the deterministic link
  delays (the asynchronous scheduler shares the same models).
* **join (churn)** — the party is *absent* until its join round: it
  takes no step, and messages that would be delivered to it before it
  joins are dropped before the transport (nobody is listening; nothing
  is charged).  Combined with crashes this models mid-protocol
  join/leave churn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, TypeVar

from repro.errors import ConfigurationError
from repro.net.adversary import CorruptionPlan
from repro.net.latency import LatencyModel
from repro.utils.randomness import Randomness

T = TypeVar("T")


@dataclass(frozen=True)
class LinkDelay:
    """Delay all ``sender → recipient`` messages by ``rounds`` extra rounds
    while ``first_round <= sent_round <= last_round`` (``None`` = forever)."""

    sender: int
    recipient: int
    rounds: int
    first_round: int = 0
    last_round: Optional[int] = None

    def applies(self, sent_round: int, sender: int, recipient: int) -> bool:
        if (sender, recipient) != (self.sender, self.recipient):
            return False
        if sent_round < self.first_round:
            return False
        return self.last_round is None or sent_round <= self.last_round


@dataclass(frozen=True)
class Partition:
    """Sever all links between ``group_a`` and ``group_b`` for sends in
    rounds ``[first_round, last_round]`` (both directions)."""

    group_a: FrozenSet[int]
    group_b: FrozenSet[int]
    first_round: int
    last_round: int

    def blocks(self, sent_round: int, sender: int, recipient: int) -> bool:
        if not self.first_round <= sent_round <= self.last_round:
            return False
        return (sender in self.group_a and recipient in self.group_b) or (
            sender in self.group_b and recipient in self.group_a
        )


@dataclass
class FaultPlan:
    """A reproducible schedule of network faults for one execution.

    The default instance fires no fault: a run under it is the run with
    no policy at all, frame for frame.

    Attributes:
        crashes: party id → first round at which the party stops stepping.
        joins: party id → first round at which the party is *present*
            (churn: absent parties take no step and receive nothing).
        delays: deterministic per-link delays.
        partitions: link-severing windows.
        reorder: randomize within-round inbox order (needs ``rng``).
        duplicate_probability: per-delivery chance of the recipient
            seeing the frame twice (needs ``rng`` if > 0).
        latency: optional :class:`~repro.net.latency.LatencyModel`
            adding seeded per-message extra rounds (needs ``rng`` if the
            model draws).
        rng: the seeded source driving all probabilistic choices.  Forked
            per decision point, so the schedule is independent of event
            loop interleaving.
    """

    crashes: Dict[int, int] = field(default_factory=dict)
    joins: Dict[int, int] = field(default_factory=dict)
    delays: List[LinkDelay] = field(default_factory=list)
    partitions: List[Partition] = field(default_factory=list)
    reorder: bool = False
    duplicate_probability: float = 0.0
    latency: Optional[LatencyModel] = None
    rng: Optional[Randomness] = None

    def __post_init__(self) -> None:
        needs_rng = (
            self.reorder
            or self.duplicate_probability > 0
            or (self.latency is not None and self.latency.needs_rng)
        )
        if needs_rng and self.rng is None:
            raise ConfigurationError(
                "this FaultPlan draws random choices; pass a seeded rng"
            )
        if not 0.0 <= self.duplicate_probability <= 1.0:
            raise ConfigurationError("duplicate_probability outside [0, 1]")
        for party, round_index in self.crashes.items():
            if round_index < 0:
                raise ConfigurationError(
                    f"crash round for party {party} must be >= 0"
                )
        for party, round_index in self.joins.items():
            if round_index < 0:
                raise ConfigurationError(
                    f"join round for party {party} must be >= 0"
                )

    # -- the delivery-policy predicates (pure) --------------------------------

    def is_crashed(self, party_id: int, round_index: int) -> bool:
        """Whether the party has crashed by the given round."""
        crash_round = self.crashes.get(party_id)
        return crash_round is not None and round_index >= crash_round

    def is_absent(self, party_id: int, round_index: int) -> bool:
        """Whether the party has not yet joined (churn)."""
        join_round = self.joins.get(party_id)
        return join_round is not None and round_index < join_round

    def drops(self, sent_round: int, sender: int, recipient: int) -> bool:
        """Whether the link is severed for this send."""
        return any(
            p.blocks(sent_round, sender, recipient) for p in self.partitions
        )

    def delay_of(
        self, sent_round: int, sender: int, recipient: int, seq: int
    ) -> int:
        """Extra delivery rounds for one message (link delays + latency)."""
        delay = sum(
            d.rounds
            for d in self.delays
            if d.applies(sent_round, sender, recipient)
        )
        if self.latency is not None:
            delay += self.latency.extra_rounds(
                self.rng, sent_round, sender, recipient, seq
            )
        return delay

    def duplicates(
        self, sent_round: int, sender: int, recipient: int, seq: int
    ) -> bool:
        """Whether this delivery is duplicated at the recipient."""
        if self.duplicate_probability <= 0:
            return False
        coin = self._fork(f"dup/{sent_round}/{sender}/{recipient}/{seq}")
        return coin.bernoulli(self.duplicate_probability)

    def inbox_order(
        self, round_index: int, recipient: int, inbox: List[T]
    ) -> List[T]:
        """Permute one inbox (identity unless ``reorder`` is set)."""
        if not self.reorder or len(inbox) < 2:
            return inbox
        permuted = list(inbox)
        self._fork(f"reorder/{round_index}/{recipient}").shuffle(permuted)
        return permuted

    def _fork(self, label: str) -> Randomness:
        assert self.rng is not None
        return self.rng.fork(label)

    @property
    def max_extra_rounds(self) -> int:
        """Upper bound on added delivery latency (for run caps)."""
        deterministic = sum(d.rounds for d in self.delays)
        latency_part = self.latency.bound if self.latency is not None else 0
        return deterministic + latency_part


# -- builders composing with the corruption model ---------------------------


def crash_corrupted(
    plan: CorruptionPlan,
    rng: Randomness,
    max_round: int,
    first_round: int = 0,
) -> FaultPlan:
    """Crash every corrupted party at an independent uniform round in
    ``[first_round, max_round]`` — the crash-fault projection of a
    Byzantine corruption plan."""
    if max_round < first_round:
        raise ConfigurationError("max_round must be >= first_round")
    crashes = {
        party: rng.fork(f"crash/{party}").random_int_range(
            first_round, max_round
        )
        for party in sorted(plan.corrupted)
    }
    return FaultPlan(crashes=crashes)


def adversarial_schedule(
    rng: Randomness,
    reorder: bool = True,
    duplicate_probability: float = 0.05,
) -> FaultPlan:
    """A generic hostile-but-fair scheduler: reordering plus light
    duplication, all seeded."""
    return FaultPlan(
        reorder=reorder,
        duplicate_probability=duplicate_probability,
        rng=rng,
    )


def crash_everyone(
    party_ids: Iterable[int], round_index: int
) -> FaultPlan:
    """Crash *every* party at one round — the total-failure schedule.

    This deliberately exceeds any corruption model: a protocol driven
    under it must either satisfy its invariants vacuously (no honest
    outputs) or fail loudly (a :class:`~repro.errors.NetworkError`
    timeout), never report a silent wrong answer.  The campaign's
    model-breaking schedules and the fault edge-case tests use it.
    """
    if round_index < 0:
        raise ConfigurationError("crash round must be >= 0")
    return FaultPlan(crashes={p: round_index for p in party_ids})


def churn_schedule(
    joiners: Dict[int, int],
    leavers: Optional[Dict[int, int]] = None,
) -> FaultPlan:
    """Mid-protocol join/leave churn as a fault plan.

    ``joiners`` maps party id → join round (absent before it);
    ``leavers`` maps party id → leave round (modeled as a crash: the
    party stops stepping, in-flight messages still land).  A party in
    both maps joins late *and* leaves — its join must precede its leave.
    """
    leavers = leavers or {}
    for party, join_round in joiners.items():
        leave_round = leavers.get(party)
        if leave_round is not None and leave_round <= join_round:
            raise ConfigurationError(
                f"party {party} would leave (round {leave_round}) before "
                f"joining (round {join_round})"
            )
    return FaultPlan(crashes=dict(leavers), joins=dict(joiners))


def partition_halves(
    party_ids: Iterable[int], first_round: int, last_round: int
) -> FaultPlan:
    """Split the party set into two halves and sever the cut for the
    given send-round window."""
    ids = sorted(party_ids)
    mid = len(ids) // 2
    return FaultPlan(
        partitions=[
            Partition(
                group_a=frozenset(ids[:mid]),
                group_b=frozenset(ids[mid:]),
                first_round=first_round,
                last_round=last_round,
            )
        ]
    )
