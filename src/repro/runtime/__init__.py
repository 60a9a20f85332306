"""Event-driven asyncio execution layer with fault injection and tracing.

The runtime runs the repo's existing :class:`~repro.net.party.Party`
state machines — unchanged — over an asyncio event loop:

* :mod:`repro.runtime.transport` — the :class:`Transport` abstraction:
  in-process :class:`AsyncLocalTransport` and loopback-socket
  :class:`TcpTransport`, both charging the shared metrics ledger;
* :mod:`repro.runtime.synchronizer` — :func:`run_parties`, the
  transport placement of :class:`repro.net.rounds.RoundCore` (which
  holds every frame until it is due): the round barrier that recovers
  the paper's synchronous model (§1);
* :mod:`repro.runtime.faults` — seeded, reproducible crash / delay /
  reorder / duplication / partition injection (:class:`FaultPlan`);
* :mod:`repro.runtime.trace` — per-party JSONL execution traces;
* :mod:`repro.runtime.replay` — wire replay of metered (hybrid-model)
  executions, and :func:`~repro.runtime.replay.replay_balanced_ba`, the
  one π_ba driver for every placement;
* :mod:`repro.runtime.placements` — the placement table: ``in-process``
  (:func:`repro.net.rounds.run_in_process`), ``local``, ``tcp`` and
  ``mesh(k)``, each taking parties.

See ``docs/runtime.md`` for the architecture and the differential
guarantees tying the runtime to the in-process row.  As in
:mod:`repro.cluster`, the package itself re-exports nothing: import
from the defining module.
"""

