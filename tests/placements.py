"""Test-only companions of the placement table.

The rows themselves — ``in-process``, ``local``, ``tcp``, ``mesh(k)`` —
live in :mod:`repro.runtime.placements`; the contract suite in
``tests/net/test_simulator.py`` is written against a
:class:`~repro.runtime.placements.Placement` and instantiated once per
row, so a contract case is stated once and held on every placement.
What is test-only stays here:

* :func:`drive_shard` / ``SHARD_ENGINE`` — one
  :class:`~repro.cluster.engine.ShardEngine` holding every party (the
  cluster worker minus the mesh: it hands the emitted frames back to
  the engine and charges a ledger), with the barrier hook the save →
  load → resume tests interrupt at;
* :func:`run_honest` — a row applied to a ``build_*`` builder's return
  value, narrowed to the honest outputs;
* :func:`recorded_pi_ba` and :func:`phase_views` for the replay-parity
  suites: a replay on any placement must report the recording ledger's
  phase breakdown, not just its tallies.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Optional

from repro.cluster.engine import ShardEngine
from repro.errors import ClusterError
from repro.net.adversary import random_corruption
from repro.net.metrics import CommunicationMetrics
from repro.net.rounds import RuntimeResult
from repro.params import ProtocolParameters
from repro.protocols.balanced_ba import run_balanced_ba
from repro.runtime.placements import Placement
from repro.runtime.replay import RecordingLedger
from repro.srds.base_sigs import HashRegistryBase
from repro.srds.owf import OwfSRDS
from repro.srds.snark_based import SnarkSRDS
from repro.utils.randomness import Randomness


def drive_shard(
    engine: ShardEngine,
    metrics: CommunicationMetrics,
    until: Optional[Iterable[int]] = None,
    max_rounds: int = 10_000,
    on_barrier: Optional[Callable[[ShardEngine], None]] = None,
) -> RuntimeResult:
    """Run an engine holding the whole party set to termination.

    The shared termination loop decides when to stop; each round the
    emitted frames are charged (a frame is charged in the round it was
    sent, before that round's ``end_round``, tagged ``frame`` like every
    transport charge) and handed back to the engine, which holds them
    until due.  ``on_barrier(engine)`` runs after every round.
    """
    for round_index in engine.core.rounds(until, max_rounds):
        emitted = engine.step_round(round_index)
        metrics.record_frames(emitted, kind="frame")
        engine.hold(emitted)
        metrics.end_round()
        if on_barrier is not None:
            on_barrier(engine)
    return RuntimeResult(
        outputs=engine.outputs(),
        metrics=metrics,
        rounds=engine.next_round,
        trace=engine.trace,
    )


def _shard_engine(
    parties, until=None, max_rounds=10_000, *, metrics=None, trace=None,
    fault_plan=None,
) -> RuntimeResult:
    engine = ShardEngine(parties, trace=trace)
    # A cluster never hands its engines a policy; the core under one
    # honours a fault plan like any other core.
    engine.core.policy = fault_plan
    return drive_shard(
        engine,
        metrics if metrics is not None else CommunicationMetrics(),
        until=until,
        max_rounds=max_rounds,
    )


SHARD_ENGINE = Placement("shard-engine", ClusterError, _shard_engine)


def run_honest(placement: Placement, built, **kwargs):
    """``placement.run(*built)`` for a builder's ``(parties, honest_ids,
    max_rounds)``; returns ``(honest_outputs, result)``."""
    parties, honest, max_rounds = built
    result = placement.run(parties, honest, max_rounds, **kwargs)
    return {member: result.outputs[member] for member in honest}, result


@lru_cache(maxsize=None)
def recorded_pi_ba(n: int, scheme_name: str) -> RecordingLedger:
    """The ledger of one live π_ba run (seed 7, the setting behind
    ``tests/runtime/test_seed_stability.py``'s pins); ``.script()`` is
    what the replay suites replay."""
    scheme = (
        SnarkSRDS(base_scheme=HashRegistryBase())
        if scheme_name == "snark" else OwfSRDS(message_bits=64)
    )
    params = ProtocolParameters()
    rng = Randomness(7)
    plan = random_corruption(n, params.max_corruptions(n), rng.fork("corrupt"))
    ledger = RecordingLedger()
    run_balanced_ba(
        {i: i % 2 for i in range(n)}, plan, scheme, params, rng.fork("run"),
        metrics=ledger,
    )
    return ledger


def phase_views(metrics: CommunicationMetrics, party_ids: Iterable[int]):
    """The ledger's phase-labeled views: the per-phase aggregate and
    every party's ``bits_by_phase``."""
    return (
        metrics.phase_breakdown(),
        {party: metrics.bits_by_phase(party) for party in party_ids},
    )
