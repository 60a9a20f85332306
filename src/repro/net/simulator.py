"""The synchronous, authenticated, point-to-point network simulator.

The in-process placement of :class:`~repro.net.rounds.RoundCore` (which
holds the model and the determinism contract): frames emitted in one
round wait in a plain list until they are due — the next round, or
later when the delivery ``policy`` delayed them — and every one of them
is charged to a :class:`CommunicationMetrics` ledger in the round it was
sent.  A per-party message *budget* can be imposed, turning a "every
party sends at most b messages" hypothesis into a mechanical check.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.net.metrics import CommunicationMetrics
from repro.net.party import Frame, Party
from repro.net.rounds import LockstepDelivery, RoundCore


class SynchronousNetwork:
    """Drives a set of parties through synchronous rounds."""

    def __init__(
        self,
        parties: Sequence[Party],
        metrics: Optional[CommunicationMetrics] = None,
        message_budget_per_party: Optional[int] = None,
        policy: Optional[LockstepDelivery] = None,
        trace=None,
    ) -> None:
        self.core = RoundCore(
            parties,
            policy=policy,
            trace=trace,
            message_budget_per_party=message_budget_per_party,
        )
        self.parties: Dict[int, Party] = self.core.parties
        self.metrics = metrics if metrics is not None else CommunicationMetrics()
        self._pending: List[Frame] = []

    @property
    def round_index(self) -> int:
        return self.core.round_index

    def run_round(self) -> None:
        """Execute one synchronous round for all non-halted parties."""
        round_index = self.core.round_index
        due = [f for f in self._pending if f.deliver_round <= round_index]
        held = [f for f in self._pending if f.deliver_round > round_index]
        emitted = self.core.step_round(round_index, due)
        self.metrics.record_frames(emitted)
        self.metrics.end_round()
        self._pending = held + emitted

    def run(
        self, max_rounds: int = 10_000, until: Optional[Iterable[int]] = None
    ) -> None:
        """Run rounds until the ``until`` parties (default: all) halt, or
        the safety cap trips."""
        for _ in self.core.rounds(until, max_rounds):
            self.run_round()

    def run_until(self, party_ids: Iterable[int], max_rounds: int = 10_000) -> None:
        """Run until the listed parties have all halted."""
        self.run(max_rounds, party_ids)

    def outputs(self) -> Dict[int, object]:
        """Map of party id to its recorded output (halted parties only)."""
        return self.core.outputs()
