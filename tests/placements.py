"""The four placements of the one round core, behind one call shape.

``repro.net.rounds.RoundCore`` is stepped by three executors; the
contract suite in ``tests/net/test_simulator.py`` is written against a
:class:`Placement` and instantiated once per row here, so a contract
case is stated once and held on every placement:

* ``IN_PROCESS`` — :class:`~repro.net.simulator.SynchronousNetwork`;
* ``LOCAL`` / ``TCP`` — :func:`~repro.runtime.synchronizer.run_parties`
  over the asyncio transports;
* ``SHARD_ENGINE`` — one :class:`~repro.cluster.engine.ShardEngine`
  holding every party, driven by :func:`drive_shard` (the cluster worker
  minus the mesh: it keeps the in-flight frames and charges a ledger).

:func:`recorded_pi_ba` and :func:`phase_views` serve the replay-parity
suites: a replay on any placement must report the recording ledger's
phase breakdown, not just its tallies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable, List, Optional, Type

from repro.cluster.engine import ShardEngine
from repro.errors import ClusterError, NetworkError, ReproError
from repro.net.adversary import random_corruption
from repro.net.metrics import CommunicationMetrics
from repro.net.party import Frame
from repro.net.simulator import SynchronousNetwork
from repro.params import ProtocolParameters
from repro.protocols.balanced_ba import BalancedBA
from repro.runtime.replay import RecordingLedger
from repro.runtime.synchronizer import RuntimeResult, run_parties
from repro.srds.base_sigs import HashRegistryBase
from repro.srds.owf import OwfSRDS
from repro.srds.snark_based import SnarkSRDS
from repro.utils.randomness import Randomness


@dataclass(frozen=True)
class Placement:
    """``run(parties, until=, max_rounds=, metrics=, trace=,
    message_budget_per_party=)`` returns a :class:`RuntimeResult`;
    misuse raises ``error``."""

    name: str
    error: Type[ReproError]
    run: Callable[..., RuntimeResult]


def drive_shard(
    engine: ShardEngine,
    metrics: CommunicationMetrics,
    pending: Iterable[Frame] = (),
    until: Optional[Iterable[int]] = None,
    max_rounds: int = 10_000,
    on_barrier: Optional[Callable[[ShardEngine, List[Frame]], None]] = None,
) -> RuntimeResult:
    """Run an engine holding the whole party set to termination.

    The shared termination loop decides when to stop; each round the
    due frames go in, the emitted frames are charged (a frame is charged
    in the round it was sent, before that round's ``end_round``, tagged
    ``frame`` like every transport charge) and held until due.
    ``on_barrier(engine, in_flight)`` runs after every round.
    """
    in_flight = list(pending)
    for round_index in engine.core.rounds(until, max_rounds):
        due = [f for f in in_flight if f.deliver_round <= round_index]
        in_flight = [f for f in in_flight if f.deliver_round > round_index]
        for frame in engine.step_round(round_index, due):
            metrics.record_message(
                frame.sender, frame.recipient, frame.bits(),
                phase=frame.phase, kind="frame",
            )
            in_flight.append(frame)
        metrics.end_round()
        if on_barrier is not None:
            on_barrier(engine, in_flight)
    return RuntimeResult(
        outputs=engine.outputs(),
        metrics=metrics,
        rounds=engine.next_round,
        trace=engine.trace,
    )


def _in_process(
    parties, *, until=None, max_rounds=10_000, metrics=None, trace=None,
    message_budget_per_party=None,
) -> RuntimeResult:
    assert trace is None, "SynchronousNetwork records no trace"
    network = SynchronousNetwork(
        parties, metrics=metrics,
        message_budget_per_party=message_budget_per_party,
    )
    if until is None:
        network.run(max_rounds=max_rounds)
    else:
        network.run_until(until, max_rounds=max_rounds)
    return RuntimeResult(
        outputs=network.outputs(),
        metrics=network.metrics,
        rounds=network.round_index,
        trace=None,
    )


def _shard_engine(
    parties, *, until=None, max_rounds=10_000, metrics=None, trace=None,
    message_budget_per_party=None,
) -> RuntimeResult:
    assert message_budget_per_party is None, "ShardEngine takes no budget"
    return drive_shard(
        ShardEngine(parties, trace=trace),
        metrics if metrics is not None else CommunicationMetrics(),
        until=until,
        max_rounds=max_rounds,
    )


IN_PROCESS = Placement("in-process", NetworkError, _in_process)
LOCAL = Placement("local", NetworkError, partial(run_parties, transport="local"))
TCP = Placement("tcp", NetworkError, partial(run_parties, transport="tcp"))
SHARD_ENGINE = Placement("shard-engine", ClusterError, _shard_engine)


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
    BalancedBA(
        {i: i % 2 for i in range(n)}, plan, scheme, params, rng.fork("run"),
        metrics=ledger,
    ).run()
    return ledger


def phase_views(metrics: CommunicationMetrics, party_ids: Iterable[int]):
    """The ledger's phase-labeled views: the per-phase aggregate and
    every party's ``bits_by_phase``."""
    return (
        metrics.phase_breakdown(),
        {party: metrics.bits_by_phase(party) for party in party_ids},
    )
