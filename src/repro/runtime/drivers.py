"""High-level runtime drivers mirroring the synchronous convenience
drivers, plus the π_ba wire-replay driver.

Each ``run_*_runtime`` function is the event-driven twin of an existing
synchronous driver (`run_phase_king`, `run_gradecast`, `run_balanced_ba`)
with the same inputs and the same outputs on a fault-free plan — the
differential tests in ``tests/runtime/`` hold the pairs equal — and
three extra knobs: the transport substrate (``"local"`` asyncio queues
or ``"tcp"`` loopback sockets), a seeded
:class:`~repro.runtime.faults.FaultPlan`, and an optional
:class:`~repro.runtime.trace.TraceRecorder`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.net.adversary import CorruptionPlan
from repro.net.metrics import CommunicationMetrics
from repro.params import ProtocolParameters
from repro.runtime.faults import FaultPlan
from repro.runtime.replay import (
    RecordingLedger,
    apply_func_ops,
    build_replay_parties,
)
from repro.runtime.synchronizer import run_parties
from repro.runtime.trace import TraceRecorder
from repro.runtime.transport import Transport
from repro.srds.base import SRDSScheme
from repro.utils.randomness import Randomness


def _extra_rounds(fault_plan: Optional[FaultPlan]) -> int:
    """Headroom a fault plan's delays add to a driver's round cap."""
    return 0 if fault_plan is None else fault_plan.max_extra_rounds + 1


def run_phase_king_runtime(
    inputs: Dict[int, int],
    byzantine: Sequence[int] = (),
    *,
    transport: Union[str, Transport] = "local",
    fault_plan: Optional[FaultPlan] = None,
    trace: Optional[TraceRecorder] = None,
    metrics: Optional[CommunicationMetrics] = None,
    enforce_budget: bool = True,
) -> Tuple[Dict[int, int], CommunicationMetrics]:
    """Phase-king BA over the async runtime (twin of `run_phase_king`);
    ``enforce_budget`` is :func:`build_phase_king`'s."""
    from repro.protocols.phase_king import build_phase_king

    parties, honest, max_rounds = build_phase_king(
        inputs, byzantine, enforce_budget
    )
    result = run_parties(
        parties,
        transport=transport,
        metrics=metrics,
        fault_plan=fault_plan,
        trace=trace,
        until=honest,
        max_rounds=max_rounds * (1 + _extra_rounds(fault_plan)),
    )
    outputs = {member: result.outputs[member] for member in honest}
    return outputs, result.metrics


def run_gradecast_runtime(
    members: Sequence[int],
    sender: int,
    value: int,
    byzantine: Sequence[int] = (),
    equivocating_sender: bool = False,
    *,
    transport: Union[str, Transport] = "local",
    fault_plan: Optional[FaultPlan] = None,
    trace: Optional[TraceRecorder] = None,
) -> Tuple[Dict[int, Tuple[int, int]], CommunicationMetrics]:
    """Gradecast over the async runtime (twin of `run_gradecast`)."""
    from repro.protocols.gradecast import build_gradecast

    parties, honest, max_rounds = build_gradecast(
        members, sender, value, byzantine, equivocating_sender
    )
    result = run_parties(
        parties,
        transport=transport,
        fault_plan=fault_plan,
        trace=trace,
        until=honest,
        max_rounds=max_rounds * (1 + _extra_rounds(fault_plan)),
    )
    outputs = {member: result.outputs[member] for member in honest}
    return outputs, result.metrics


def run_balanced_ba_runtime(
    inputs: Dict[int, int],
    plan: CorruptionPlan,
    scheme: SRDSScheme,
    params: ProtocolParameters,
    rng: Randomness,
    adversary=None,
    *,
    transport: Union[str, Transport] = "local",
    fault_plan: Optional[FaultPlan] = None,
    trace: Optional[TraceRecorder] = None,
    metrics: Optional[CommunicationMetrics] = None,
):
    """π_ba with its wire traffic shipped over a runtime transport.

    Phase 1 executes Fig. 3 exactly as :func:`run_balanced_ba` does,
    against a :class:`RecordingLedger` (so outputs, certificate, and the
    reference snapshot are untouched).  Phase 2 replays the recorded
    wire traffic as :class:`ReplayParty` machines over the requested
    transport, with the hybrid-model charges applied verbatim, charging
    a fresh ledger at the transport layer (or the caller's ``metrics``,
    so a flow ledger / registry can observe the wire traffic).

    If the fault plan requests within-round reordering, the protocol is
    additionally executed with a permuted delivery order at every point
    where Fig. 3 consumes an inbox (the ``delivery_rng`` seam), so the
    honest logic itself — not just the replay — is exercised under the
    scheduling adversary.

    Returns ``(ba_result, runtime_result)`` where ``ba_result.metrics``
    is the snapshot of the *transport-charged* ledger.
    """
    from repro.protocols.balanced_ba import BalancedBA

    delivery_rng = None
    if fault_plan is not None and fault_plan.reorder:
        assert fault_plan.rng is not None
        delivery_rng = fault_plan.rng.fork("balanced-ba-delivery")

    recorder = RecordingLedger()
    protocol = BalancedBA(
        inputs, plan, scheme, params, rng, adversary,
        metrics=recorder, delivery_rng=delivery_rng,
    )
    reference = protocol.run()
    script = recorder.script()

    n = len(inputs)
    runtime_metrics = metrics if metrics is not None else (
        CommunicationMetrics()
    )
    parties = build_replay_parties(script, n)
    runtime_result = run_parties(
        parties,
        transport=transport,
        metrics=runtime_metrics,
        fault_plan=fault_plan,
        trace=trace,
        max_rounds=(script.num_rounds + 2) * (1 + _extra_rounds(fault_plan)),
    )
    apply_func_ops(script, runtime_metrics)
    ba_result = dataclasses.replace(
        reference, metrics=runtime_metrics.snapshot()
    )
    return ba_result, runtime_result
