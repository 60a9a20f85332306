"""The asynchronous network model: an adversarially-scheduled event loop.

Everything else in the repo recovers the paper's §1 synchronous model
(the round barrier of :func:`~repro.runtime.synchronizer.run_parties`).
:class:`AsyncScheduler` is the *other* model: there are no rounds and
no delivery promise — the only guarantee is eventual delivery, and the
**order** of deliveries belongs to the adversary.

Two scheduling policies:

* ``"latency"`` — every message is timestamped ``send_time +
  delivery_delay`` by a pluggable
  :class:`~repro.net.latency.LatencyModel` (fixed / uniform / lognormal
  / partition-heal — the same models :class:`~repro.runtime.faults.
  FaultPlan` consumes) and delivered in timestamp order.  This is the
  "benign but jittery network" family.
* ``"adversarial"`` — the scheduler *is* the adversary: at every step a
  seeded draw picks the next delivery from a window of the oldest
  pending messages.  A patience bound forces the oldest message out
  after it has been skipped long enough, which keeps the schedule
  formally asynchronous (eventual delivery) while letting the adversary
  starve any particular link for a long time.

Determinism contract, same as the fault plan's: every choice is drawn
from forks of one seeded :class:`~repro.utils.randomness.Randomness`
keyed by the delivery counter, and parties consume exactly one message
at a time (the scheduler calls ``on_message`` itself, one delivery
after another — there is no consumer task to race), so a run is a pure
function of ``(parties, seed, policy, latency model, fault plan)`` and
the recorded delivery trace replays exactly.

The :class:`~repro.net.party.AsyncParty` machines execute inside
:meth:`AsyncScheduler.run` with no round synchronizer anywhere.  Wire
traffic is charged to :class:`~repro.net.metrics.CommunicationMetrics` at send
time under the envelope's phase with flow kind ``"async"``, so
``max_bits_per_party`` and flow ledgers are directly comparable to the
synchronous backends' BENCH records.

Fault-plan integration maps virtual time ``t`` to round ``⌊t⌋``:
crashes silence a party's deliveries from the crash round on; churn
``joins`` defer a party's :meth:`~repro.net.party.AsyncParty.start`
until its join round (messages delivered *before* it joins are lost —
nobody is listening); partitions drop cross-cut sends; duplication
re-enqueues a second (uncharged) copy of a delivery.

The adaptive-adversary seam: :meth:`AsyncScheduler.corrupt` flips a
party to adversary-controlled *mid-run* (its future output is
suppressed — worst-case silence), and ``wire_observer`` lets a
strategy watch every send before choosing whom to corrupt.  Budgets
are enforced by :class:`repro.asynchrony.adaptive.AdaptiveCorruption`,
not here.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError, NetworkError
from repro.net.latency import FixedLatency, LatencyModel
from repro.net.metrics import CommunicationMetrics
from repro.net.party import AsyncParty, Envelope
from repro.obs.spans import current_phase
from repro.runtime.faults import FaultPlan
from repro.utils.randomness import Randomness

#: Scheduling policies :class:`AsyncScheduler` accepts.
POLICIES = ("latency", "adversarial")

#: Phase charged for envelopes that carry no phase of their own.
DEFAULT_PHASE = "async-wire"


class Delivery(NamedTuple):
    """One in-flight message awaiting the scheduler's pleasure."""

    seq: int
    born: int  # delivery counter when enqueued (patience bookkeeping)
    send_time: float
    deliver_time: float
    envelope: Envelope


@dataclass
class AsyncResult:
    """Outcome of one asynchronous execution."""

    outputs: Dict[int, object]
    metrics: CommunicationMetrics
    deliveries: int
    virtual_time: float
    #: ``(delivery_counter, sender, recipient, seq)`` per delivery — the
    #: replay witness: two runs with equal traces delivered identically.
    trace: List[Tuple[int, int, int, int]] = field(default_factory=list)


class AsyncScheduler:
    """Drives :class:`AsyncParty` machines under adversarial scheduling."""

    def __init__(
        self,
        parties: Sequence[AsyncParty],
        *,
        policy: str = "latency",
        latency: Optional[LatencyModel] = None,
        rng: Optional[Randomness] = None,
        metrics: Optional[CommunicationMetrics] = None,
        fault_plan: Optional[FaultPlan] = None,
        wire_observer: Optional[Callable[[float, Envelope], None]] = None,
        max_deliveries: Optional[int] = None,
        patience: Optional[int] = None,
    ) -> None:
        self.parties: Dict[int, AsyncParty] = {}
        for party in parties:
            if party.party_id in self.parties:
                raise ConfigurationError(
                    f"duplicate party id {party.party_id}"
                )
            self.parties[party.party_id] = party
        n = len(self.parties)
        if n == 0:
            raise ConfigurationError("no parties to schedule")
        if policy not in POLICIES:
            raise ConfigurationError(
                f"unknown policy {policy!r}; expected one of {POLICIES}"
            )
        self.policy = policy
        self.latency = latency if latency is not None else FixedLatency(0)
        self.rng = rng
        if policy == "adversarial" and rng is None:
            raise ConfigurationError(
                "the adversarial policy draws its schedule; pass a seeded rng"
            )
        if self.latency.needs_rng and rng is None:
            raise ConfigurationError(
                f"latency model {self.latency.name!r} draws; pass a seeded rng"
            )
        self.metrics = metrics if metrics is not None else CommunicationMetrics()
        self.faults = fault_plan if fault_plan is not None else FaultPlan()
        self._wire_observer = wire_observer
        self._max_deliveries = (
            max_deliveries if max_deliveries is not None else 20_000 * n
        )
        self._patience = patience if patience is not None else 16 * n
        self._window = max(1, 3 * n)
        self._pending: Dict[int, Delivery] = {}  # seq → delivery, FIFO order
        self._heap: List[Tuple[float, int]] = []
        self._next_seq = 0
        self._now = 0.0
        self._rounds_closed = 0
        self.deliveries = 0
        self.trace: List[Tuple[int, int, int, int]] = []
        self._corrupted: Set[int] = set()
        self._excused: Set[int] = set()
        self._unstarted: Dict[int, int] = {
            pid: self.faults.joins.get(pid, 0) for pid in self.parties
        }

    # -- adaptive seam -------------------------------------------------------

    def corrupt(self, party_id: int) -> None:
        """Hand a party to the adversary mid-run (worst case: silence).

        Budget enforcement lives in :class:`repro.asynchrony.adaptive.
        AdaptiveCorruption` — the scheduler just flips the switch.
        """
        if party_id not in self.parties:
            raise ConfigurationError(f"unknown party id {party_id}")
        self._corrupted.add(party_id)

    def excuse(self, party_id: int) -> None:
        """Exempt a party from the completion requirement *without*
        silencing it — for Byzantine behaviors that must keep talking
        (equivocators) yet will never decide."""
        if party_id not in self.parties:
            raise ConfigurationError(f"unknown party id {party_id}")
        self._excused.add(party_id)

    @property
    def corrupted(self) -> Set[int]:
        """Parties currently under adversary control (a copy)."""
        return set(self._corrupted)

    # -- send path -----------------------------------------------------------

    def _emit(self, sender: int, envelopes: Sequence[Envelope]) -> None:
        """Charge and enqueue one party's outgoing envelopes."""
        for envelope in envelopes:
            if sender in self._corrupted:
                return  # the adversary silenced this party mid-step
            if envelope.recipient not in self.parties:
                raise NetworkError(
                    f"party {sender} sent to unknown party "
                    f"{envelope.recipient}"
                )
            sent_round = int(self._now)
            if self.faults.drops(sent_round, sender, envelope.recipient):
                continue  # partition: the link is down; nothing charged
            self.metrics.record_message(
                sender, envelope.recipient, envelope.size_bits(),
                phase=envelope.phase
                or current_phase()
                or DEFAULT_PHASE,
                kind="async",
            )
            if self._wire_observer is not None:
                self._wire_observer(self._now, envelope)
            self._enqueue(sent_round, sender, envelope)
            if self.faults.duplicates(
                sent_round, sender, envelope.recipient, self._next_seq - 1
            ):
                # The duplicate is the network's artifact: a second
                # pending copy, never a second charge.
                self._enqueue(sent_round, sender, envelope)

    def _enqueue(
        self, sent_round: int, sender: int, envelope: Envelope
    ) -> None:
        seq = self._next_seq
        self._next_seq = seq + 1
        deliver_time = self._now + self.latency.delivery_delay(
            self.rng, sent_round, sender, envelope.recipient, seq
        )
        delivery = Delivery(
            seq=seq,
            born=self.deliveries,
            send_time=self._now,
            deliver_time=deliver_time,
            envelope=envelope,
        )
        self._pending[seq] = delivery
        heapq.heappush(self._heap, (deliver_time, seq))

    # -- schedule ------------------------------------------------------------

    def _pick_next(self) -> Delivery:
        """The adversary's move: choose which pending message lands next."""
        if self.policy == "latency":
            while True:
                _, seq = heapq.heappop(self._heap)
                delivery = self._pending.pop(seq, None)
                if delivery is not None:
                    return delivery
        assert self.rng is not None
        oldest = next(iter(self._pending.values()))
        if self.deliveries - oldest.born >= self._patience:
            # Eventual delivery: the oldest message has been starved
            # long enough; the model forces it through.
            chosen = oldest
        else:
            window = list(islice(self._pending.values(), self._window))
            pick = self.rng.fork(f"sched/pick/{self.deliveries}")
            chosen = window[pick.random_int(len(window))]
        del self._pending[chosen.seq]
        return chosen

    def _advance_time(self, delivery: Delivery) -> None:
        if self.policy == "latency":
            self._now = max(self._now, delivery.deliver_time)
        else:
            # Adversarial schedules have no timestamps; one "round" of
            # virtual time elapses per n deliveries, purely so that
            # fault-plan round coordinates (crash/join/partition) and
            # the metrics round ledger keep meaning.
            self._now += 1.0 / len(self.parties)
        while self._rounds_closed < int(self._now):
            self.metrics.end_round()
            self._rounds_closed += 1

    def _fire_due_starts(self) -> None:
        due = sorted(
            pid
            for pid, join_round in self._unstarted.items()
            if join_round <= self._now
        )
        for pid in due:
            del self._unstarted[pid]
            if pid in self._corrupted:
                continue
            self._emit(pid, self.parties[pid].start())

    def _all_required_decided(self) -> bool:
        """Every party the model still owes a decision has decided.

        Corrupted parties, parties that joined after time 0, and
        parties already crashed are excused (the invariant layer judges
        what they *did* output); everyone else must decide or the run
        fails loudly.
        """
        round_now = int(self._now)
        for pid, party in self.parties.items():
            if pid in self._corrupted or pid in self._excused:
                continue
            if self.faults.joins.get(pid, 0) > 0:
                continue
            if self.faults.is_crashed(pid, round_now):
                continue
            if not party.decided:
                return False
        return True

    # -- run -----------------------------------------------------------------

    def run(self) -> AsyncResult:
        """Execute until every required party decided (or fail loudly)."""
        self._fire_due_starts()
        while self._pending and not self._all_required_decided():
            if self.deliveries >= self._max_deliveries:
                raise NetworkError(
                    f"no decision after {self.deliveries} deliveries "
                    f"(cap {self._max_deliveries})"
                )
            delivery = self._pick_next()
            self._advance_time(delivery)
            self._fire_due_starts()
            envelope = delivery.envelope
            recipient = envelope.recipient
            round_now = int(self._now)
            if (
                recipient in self._corrupted
                or self.faults.is_crashed(recipient, round_now)
                or self.faults.is_absent(recipient, round_now)
            ):
                continue  # nobody (honest) is listening
            self.deliveries += 1
            self.trace.append(
                (self.deliveries, envelope.sender, recipient, delivery.seq)
            )
            self._emit(
                recipient, self.parties[recipient].on_message(envelope)
            )
        if not self._all_required_decided():
            undecided = sorted(
                pid
                for pid, party in self.parties.items()
                if not party.decided
                and pid not in self._corrupted
                and pid not in self._excused
            )
            raise NetworkError(
                "asynchronous execution stalled with no pending "
                f"messages; undecided parties: {undecided}"
            )
        return AsyncResult(
            outputs={
                pid: party.output
                for pid, party in self.parties.items()
                if party.decided
            },
            metrics=self.metrics,
            deliveries=self.deliveries,
            virtual_time=self._now,
            trace=self.trace,
        )
