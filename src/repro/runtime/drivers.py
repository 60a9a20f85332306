"""The π_ba wire-replay driver over the asyncio runtime.

Lockstep protocols need no driver here: a ``build_*`` builder's return
value runs on any row of :mod:`repro.runtime.placements`
(``LOCAL.run(*build_phase_king(inputs, byzantine), fault_plan=...)``).
π_ba is metered in the hybrid model rather than built from parties, so
it reaches a transport by record-then-replay:
:func:`record_balanced_ba_script` runs Fig. 3 against a recording
ledger, and :func:`run_balanced_ba_runtime` hands that script to
:func:`~repro.runtime.replay.replay_balanced_ba` on the ``local`` or
``tcp`` row.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.net.adversary import CorruptionPlan
from repro.net.metrics import CommunicationMetrics
from repro.params import ProtocolParameters
from repro.runtime.faults import FaultPlan
from repro.runtime.placements import PLACEMENTS
from repro.runtime.replay import RecordingLedger, replay_balanced_ba
from repro.runtime.trace import TraceRecorder
from repro.srds.base import SRDSScheme
from repro.utils.randomness import Randomness


def record_balanced_ba_script(
    inputs: Dict[int, int],
    plan: CorruptionPlan,
    scheme: SRDSScheme,
    params: ProtocolParameters,
    rng: Randomness,
    adversary=None,
    delivery_rng: Optional[Randomness] = None,
):
    """Phase 1 of the replay recipe: run Fig. 3 against a recording
    ledger; returns ``(reference_result, replay_script)``."""
    from repro.protocols.balanced_ba import BalancedBA

    recorder = RecordingLedger()
    protocol = BalancedBA(
        inputs, plan, scheme, params, rng, adversary,
        metrics=recorder, delivery_rng=delivery_rng,
    )
    reference = protocol.run()
    return reference, recorder.script()


def run_balanced_ba_runtime(
    inputs: Dict[int, int],
    plan: CorruptionPlan,
    scheme: SRDSScheme,
    params: ProtocolParameters,
    rng: Randomness,
    adversary=None,
    *,
    transport: str = "local",
    fault_plan: Optional[FaultPlan] = None,
    trace: Optional[TraceRecorder] = None,
    metrics: Optional[CommunicationMetrics] = None,
):
    """π_ba with its wire traffic shipped over a runtime transport.

    Phase 1 executes Fig. 3 exactly as :func:`run_balanced_ba` does,
    against a :class:`RecordingLedger` (so outputs, certificate, and the
    reference snapshot are untouched).  Phase 2 replays the recorded
    wire traffic as :class:`ReplayParty` machines on the placement row
    named ``transport``, with the hybrid-model charges applied verbatim,
    charging a fresh ledger at the transport layer (or the caller's
    ``metrics``, so an attached flow ledger can observe the wire
    traffic).

    If the fault plan requests within-round reordering, the protocol is
    additionally executed with a permuted delivery order at every point
    where Fig. 3 consumes an inbox (the ``delivery_rng`` seam), so the
    honest logic itself — not just the replay — is exercised under the
    scheduling adversary.

    Returns ``(ba_result, runtime_result)`` where ``ba_result.metrics``
    is the snapshot of the *transport-charged* ledger.
    """
    delivery_rng = None
    if fault_plan is not None and fault_plan.reorder:
        assert fault_plan.rng is not None
        delivery_rng = fault_plan.rng.fork("balanced-ba-delivery")
    reference, script = record_balanced_ba_script(
        inputs, plan, scheme, params, rng, adversary, delivery_rng
    )
    return replay_balanced_ba(
        reference, script, PLACEMENTS[transport],
        metrics=metrics, trace=trace, fault_plan=fault_plan,
    )
