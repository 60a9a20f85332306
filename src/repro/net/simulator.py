"""The synchronous, authenticated, point-to-point network simulator.

The in-process placement of :class:`~repro.net.rounds.RoundCore` (which
holds the model and the determinism contract): frames emitted in one
round wait in a plain list until the next, and every one of them is
charged to a :class:`CommunicationMetrics` ledger in the round it was
sent.  A per-party message *budget* can be imposed, turning a "every
party sends at most b messages" hypothesis into a mechanical check.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.net.metrics import CommunicationMetrics
from repro.net.party import Frame, Party
from repro.net.rounds import RoundCore


class SynchronousNetwork:
    """Drives a set of parties through synchronous rounds."""

    def __init__(
        self,
        parties: Sequence[Party],
        metrics: Optional[CommunicationMetrics] = None,
        message_budget_per_party: Optional[int] = None,
    ) -> None:
        self.core = RoundCore(
            parties, message_budget_per_party=message_budget_per_party
        )
        self.parties: Dict[int, Party] = self.core.parties
        self.metrics = metrics if metrics is not None else CommunicationMetrics()
        self._pending: List[Frame] = []

    @property
    def round_index(self) -> int:
        return self.core.round_index

    def run_round(self) -> None:
        """Execute one synchronous round for all non-halted parties."""
        # The fault-free policy never delays, so everything pending is due.
        self._pending = self.core.step_round(
            self.core.round_index, self._pending
        )
        self.metrics.record_frames(self._pending)
        self.metrics.end_round()

    def run(self, max_rounds: int = 10_000) -> None:
        """Run rounds until all parties halt (or the safety cap trips)."""
        for _ in self.core.rounds(max_rounds=max_rounds):
            self.run_round()

    def run_until(self, party_ids: Iterable[int], max_rounds: int = 10_000) -> None:
        """Run until the listed parties have all halted."""
        for _ in self.core.rounds(party_ids, max_rounds):
            self.run_round()

    def outputs(self) -> Dict[int, object]:
        """Map of party id to its recorded output (halted parties only)."""
        return self.core.outputs()
