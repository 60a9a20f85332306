"""Round synchronization: the paper's synchronous model over async transports.

The transport placement of :class:`~repro.net.rounds.RoundCore` (which
holds the model, the determinism contract and every frame until it is
due).  Each round the synchronizer steps the core, ships what the
parties emitted through the :class:`Transport` — in the core's order,
so per-sender emission order survives on the wire — and waits for the
*round barrier*: the transport has flushed every in-flight frame.  Only
then are the landed frames handed back to the core.

A :class:`~repro.runtime.faults.FaultPlan` is the core's delivery
policy: it perturbs delivery *inside* the model's remaining freedom
(plus explicitly modeled crash/partition/delay faults); all its choices
are seeded, so a faulty schedule is as reproducible as a clean one.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Iterable, Optional, Sequence, Union

from repro.errors import NetworkError
from repro.net.metrics import CommunicationMetrics
from repro.net.party import Party
from repro.net.rounds import RoundCore, RuntimeResult
from repro.runtime.faults import FaultPlan
from repro.runtime.trace import TraceRecorder
from repro.runtime.transport import Transport, make_transport


class RoundSynchronizer:
    """Drives :class:`Party` state machines over a :class:`Transport`
    in lockstep rounds, applying an optional fault plan at delivery."""

    def __init__(
        self,
        parties: Sequence[Party],
        transport: Transport,
        fault_plan: Optional[FaultPlan] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.core = RoundCore(parties, policy=fault_plan, trace=trace)
        self.parties: Dict[int, Party] = self.core.parties
        if set(self.parties) != set(transport.party_ids):
            raise NetworkError(
                "transport party registry does not match the party set"
            )
        self.transport = transport
        self.metrics: CommunicationMetrics = transport.metrics

    @property
    def round_index(self) -> int:
        return self.core.round_index

    async def run(
        self, until: Optional[Iterable[int]] = None, max_rounds: int = 10_000
    ) -> None:
        """Run until the ``until`` parties have all halted (default:
        every party has halted or crashed permanently)."""
        for _ in self.core.rounds(until, max_rounds):
            await self.step_round()

    async def step_round(self) -> None:
        """Execute one synchronous round: step all, ship, barrier, hold."""
        await self.transport.ship(self.core.step_round(self.core.round_index))
        # The barrier: nothing sent this round is visible until every
        # in-flight frame has reached its destination buffer.
        await self.transport.flush()
        for party_id in self.parties:
            self.core.hold(self.transport.collect(party_id))
        self.metrics.end_round()

    def outputs(self) -> Dict[int, object]:
        """Map of party id to output, halted parties only (simulator API)."""
        return self.core.outputs()


def run_parties(
    parties: Sequence[Party],
    *,
    transport: Union[str, Transport] = "local",
    metrics: Optional[CommunicationMetrics] = None,
    fault_plan: Optional[FaultPlan] = None,
    trace: Optional[TraceRecorder] = None,
    until: Optional[Iterable[int]] = None,
    max_rounds: int = 10_000,
) -> RuntimeResult:
    """Synchronous facade: run party machines over the async runtime.

    ``transport`` is either a :class:`Transport` instance or a factory
    kind (``"local"`` / ``"tcp"``).  ``until`` lists the party ids whose
    halting ends the run (default: everyone, as in
    :func:`~repro.net.rounds.run_in_process`).  Returns a :class:`RuntimeResult`
    whose ``metrics`` is the live ledger (call ``.snapshot()`` for
    tables).
    """
    return asyncio.run(
        run_parties_async(
            parties,
            transport=transport,
            metrics=metrics,
            fault_plan=fault_plan,
            trace=trace,
            until=until,
            max_rounds=max_rounds,
        )
    )


async def run_parties_async(
    parties: Sequence[Party],
    *,
    transport: Union[str, Transport] = "local",
    metrics: Optional[CommunicationMetrics] = None,
    fault_plan: Optional[FaultPlan] = None,
    trace: Optional[TraceRecorder] = None,
    until: Optional[Iterable[int]] = None,
    max_rounds: int = 10_000,
) -> RuntimeResult:
    """Async core of :func:`run_parties` (use inside an event loop)."""
    party_ids = [party.party_id for party in parties]
    if isinstance(transport, str):
        transport_obj = make_transport(transport, party_ids, metrics)
    else:
        transport_obj = transport
    try:
        await transport_obj.start()
        synchronizer = RoundSynchronizer(
            parties,
            transport_obj,
            fault_plan=fault_plan,
            trace=trace,
        )
        await synchronizer.run(until, max_rounds)
        return RuntimeResult(
            outputs=synchronizer.outputs(),
            metrics=transport_obj.metrics,
            rounds=synchronizer.round_index,
            trace=trace,
        )
    finally:
        await transport_obj.stop()
