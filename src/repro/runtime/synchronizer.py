"""Round synchronization: the paper's synchronous model over async transports.

The transport placement of :class:`~repro.net.rounds.RoundCore` (which
holds the model, the determinism contract and every frame until it is
due).  Each round :func:`run_parties` steps the core, ships what the
parties emitted through the :class:`~repro.runtime.transport.Transport`
— in the core's order, so per-sender emission order survives on the
wire — and waits for the *round barrier*: the transport has flushed
every in-flight frame.  Only then are the landed frames handed back to
the core.

A :class:`~repro.runtime.faults.FaultPlan` is the core's delivery
policy: it perturbs delivery *inside* the model's remaining freedom
(plus explicitly modeled crash/partition/delay faults); all its choices
are seeded, so a faulty schedule is as reproducible as a clean one.
"""

from __future__ import annotations

import asyncio
from typing import Iterable, Optional, Sequence, Union

from repro.errors import NetworkError
from repro.net.metrics import CommunicationMetrics
from repro.net.party import Party
from repro.net.rounds import RoundCore, RuntimeResult
from repro.runtime.faults import FaultPlan
from repro.runtime.trace import TraceRecorder
from repro.runtime.transport import AsyncLocalTransport, TcpTransport, Transport


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
    """Run party machines in lockstep rounds over an asyncio transport.

    ``transport`` is either a :class:`Transport` instance or a kind
    (``"local"`` / ``"tcp"``) built over ``metrics``.  ``until`` lists
    the party ids whose halting ends the run (default: everyone, as in
    :func:`~repro.net.rounds.run_in_process`).  Returns a
    :class:`RuntimeResult` whose ``metrics`` is the live ledger (call
    ``.snapshot()`` for tables).  The transport is stopped however the
    run ends.
    """
    party_ids = [party.party_id for party in parties]
    if transport == "local":
        transport = AsyncLocalTransport(party_ids, metrics)
    elif transport == "tcp":
        transport = TcpTransport(party_ids, metrics)
    elif isinstance(transport, str):
        raise NetworkError(f"unknown transport kind {transport!r}")

    async def run(transport: Transport) -> RuntimeResult:
        try:
            await transport.start()
            core = RoundCore(parties, policy=fault_plan, trace=trace)
            if set(core.parties) != set(transport.party_ids):
                raise NetworkError(
                    "transport party registry does not match the party set"
                )
            for round_index in core.rounds(until, max_rounds):
                await transport.ship(core.step_round(round_index))
                # The barrier: nothing sent this round is visible until
                # every in-flight frame has reached its destination buffer.
                await transport.flush()
                for party_id in core.parties:
                    core.hold(transport.collect(party_id))
                transport.metrics.end_round()
            return RuntimeResult(
                outputs=core.outputs(),
                metrics=transport.metrics,
                rounds=core.round_index,
                trace=trace,
            )
        finally:
            await transport.stop()

    return asyncio.run(run(transport))
