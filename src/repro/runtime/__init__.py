"""Event-driven asyncio execution layer with fault injection and tracing.

The runtime runs the repo's existing :class:`~repro.net.party.Party`
state machines — unchanged — over an asyncio event loop:

* :mod:`repro.runtime.transport` — the :class:`Transport` abstraction:
  in-process :class:`AsyncLocalTransport` and loopback-socket
  :class:`TcpTransport`, both charging the shared metrics ledger;
* :mod:`repro.runtime.synchronizer` — :class:`RoundSynchronizer`, the
  transport placement of :class:`repro.net.rounds.RoundCore`: the round
  barrier that recovers the paper's synchronous model (§1), and the
  :func:`run_parties` facade;
* :mod:`repro.runtime.faults` — seeded, reproducible crash / delay /
  reorder / duplication / partition injection (:class:`FaultPlan`);
* :mod:`repro.runtime.trace` — per-party JSONL execution traces;
* :mod:`repro.runtime.replay` — wire replay of metered (hybrid-model)
  executions such as π_ba;
* :mod:`repro.runtime.placements` — the placement table: ``in-process``,
  ``local``, ``tcp`` and ``mesh(k)``, each taking parties;
* :mod:`repro.runtime.drivers` — π_ba's record-then-replay driver.

See ``docs/runtime.md`` for the architecture and the differential
guarantees tying the runtime to :class:`SynchronousNetwork`.

Re-exports resolve lazily (PEP 562): cluster workers import
:mod:`repro.runtime.trace` on every process spawn and must not pay for
the protocol drivers in :mod:`repro.runtime.drivers`.
"""

from typing import TYPE_CHECKING, List

#: Lazily re-exported name -> defining module.
_EXPORTS = {
    "run_balanced_ba_runtime": "repro.runtime.drivers",
    "IN_PROCESS": "repro.runtime.placements",
    "LOCAL": "repro.runtime.placements",
    "PLACEMENTS": "repro.runtime.placements",
    "Placement": "repro.runtime.placements",
    "TCP": "repro.runtime.placements",
    "mesh": "repro.runtime.placements",
    "FaultPlan": "repro.runtime.faults",
    "LinkDelay": "repro.runtime.faults",
    "Partition": "repro.runtime.faults",
    "adversarial_schedule": "repro.runtime.faults",
    "churn_schedule": "repro.runtime.faults",
    "crash_corrupted": "repro.runtime.faults",
    "crash_everyone": "repro.runtime.faults",
    "partition_halves": "repro.runtime.faults",
    "RecordingLedger": "repro.runtime.replay",
    "ReplayParty": "repro.runtime.replay",
    "ReplayScript": "repro.runtime.replay",
    "replay_balanced_ba": "repro.runtime.replay",
    "replay_over_simulator": "repro.runtime.replay",
    "tallies_equal": "repro.runtime.replay",
    "RoundSynchronizer": "repro.runtime.synchronizer",
    "RuntimeResult": "repro.runtime.synchronizer",
    "run_parties": "repro.runtime.synchronizer",
    "run_parties_async": "repro.runtime.synchronizer",
    "TraceRecorder": "repro.runtime.trace",
    "load_jsonl": "repro.runtime.trace",
    "wall_clock_recorder": "repro.runtime.trace",
    "AsyncLocalTransport": "repro.runtime.transport",
    "Frame": "repro.net.party",
    "TcpTransport": "repro.runtime.transport",
    "Transport": "repro.runtime.transport",
    "make_transport": "repro.runtime.transport",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # static importers see the eager names
    from repro.net.party import Frame
    from repro.runtime.drivers import run_balanced_ba_runtime
    from repro.runtime.faults import (
        FaultPlan,
        LinkDelay,
        Partition,
        adversarial_schedule,
        churn_schedule,
        crash_corrupted,
        crash_everyone,
        partition_halves,
    )
    from repro.runtime.placements import (
        IN_PROCESS,
        LOCAL,
        PLACEMENTS,
        TCP,
        Placement,
        mesh,
    )
    from repro.runtime.replay import (
        RecordingLedger,
        ReplayParty,
        ReplayScript,
        replay_balanced_ba,
        replay_over_simulator,
        tallies_equal,
    )
    from repro.runtime.synchronizer import (
        RoundSynchronizer,
        RuntimeResult,
        run_parties,
        run_parties_async,
    )
    from repro.runtime.trace import TraceRecorder, load_jsonl, wall_clock_recorder
    from repro.runtime.transport import (
        AsyncLocalTransport,
        TcpTransport,
        Transport,
        make_transport,
    )


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
