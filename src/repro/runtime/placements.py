"""The four placements of the one round core, behind one call shape.

:class:`~repro.net.rounds.RoundCore` is stepped by three executors; a
:class:`Placement` row is one of them taking *parties*:

===============  ====================================================
``in-process``   :class:`~repro.net.simulator.SynchronousNetwork`
``local``        :func:`~repro.runtime.synchronizer.run_parties` over
                 in-process asyncio queues
``tcp``          the same over loopback TCP sockets
``mesh(k)``      :class:`~repro.cluster.supervisor.ClusterSupervisor`
                 over ``k`` worker processes, one
                 :class:`~repro.cluster.engine.ShardEngine` each
===============  ====================================================

Every row is ``run(parties, until=None, max_rounds=10_000, *,
metrics=None, trace=None, fault_plan=None) -> RuntimeResult``, so a
protocol that
is a ``build_*() -> (parties, honest_ids, max_rounds)`` builder reaches
all four with ``ROW.run(*build_*(...))``.  Every row records a trace
only when given a ``trace=`` recorder; without one the result's
``trace`` is ``None`` (the mesh's workers then record nothing at all).
``max_rounds`` is the
builder's fault-free cap; a row stretches it by the headroom the fault
plan's delays need.  A row that cannot honour a keyword (the mesh has
no delivery policy) raises its ``error`` class rather than ignoring it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Type

from repro.errors import ClusterError, NetworkError, ReproError
from repro.net.simulator import SynchronousNetwork
from repro.runtime.faults import FaultPlan
from repro.runtime.synchronizer import RuntimeResult, run_parties


@dataclass(frozen=True)
class Placement:
    """One executor of the round core; misuse raises ``error``."""

    name: str
    error: Type[ReproError]
    run: Callable[..., RuntimeResult]


def _round_cap(max_rounds: int, fault_plan: Optional[FaultPlan]) -> int:
    if fault_plan is None:
        return max_rounds
    return max_rounds * (2 + fault_plan.max_extra_rounds)


def _in_process(
    parties, until=None, max_rounds=10_000, *, metrics=None, trace=None,
    fault_plan=None,
) -> RuntimeResult:
    network = SynchronousNetwork(
        parties, metrics, policy=fault_plan, trace=trace
    )
    network.run(_round_cap(max_rounds, fault_plan), until)
    return RuntimeResult(
        outputs=network.outputs(),
        metrics=network.metrics,
        rounds=network.round_index,
        trace=trace,
    )


def _over_transport(kind: str) -> Callable[..., RuntimeResult]:
    def run(
        parties, until=None, max_rounds=10_000, *, metrics=None, trace=None,
        fault_plan=None,
    ) -> RuntimeResult:
        return run_parties(
            parties,
            transport=kind,
            metrics=metrics,
            fault_plan=fault_plan,
            trace=trace,
            until=until,
            max_rounds=_round_cap(max_rounds, fault_plan),
        )

    return run


IN_PROCESS = Placement("in-process", NetworkError, _in_process)
LOCAL = Placement("local", NetworkError, _over_transport("local"))
TCP = Placement("tcp", NetworkError, _over_transport("tcp"))

#: The single-process rows by name (``mesh(k)`` is parameterised).
PLACEMENTS: Dict[str, Placement] = {
    row.name: row for row in (IN_PROCESS, LOCAL, TCP)
}


def mesh(
    num_workers: int = 2,
    *,
    name: str = "mesh",
    checkpoint_interval: int = 8,
    config=None,
    run_dir: Optional[Path] = None,
    resume: bool = False,
) -> Placement:
    """The cluster row: ``k`` worker processes joined by the mesh.

    ``name`` / ``checkpoint_interval`` become the job's; ``config``
    (a :class:`~repro.cluster.supervisor.ClusterConfig`, whose
    ``num_workers`` wins over the argument), ``run_dir`` and ``resume``
    are the supervisor's.  The result is a
    :class:`~repro.cluster.supervisor.ClusterResult`.
    """

    def run(
        parties, until=None, max_rounds=10_000, *, metrics=None, trace=None,
        fault_plan=None,
    ) -> RuntimeResult:
        from repro.cluster.job import ClusterJob
        from repro.cluster.supervisor import ClusterConfig, ClusterSupervisor

        if fault_plan is not None:
            raise ClusterError(
                "the mesh has no delivery policy: fault_plan needs a "
                "single-process placement"
            )
        parties = list(parties)
        job = ClusterJob(
            name=name,
            n=len(parties),
            parties=parties,
            until=None if until is None else tuple(until),
            max_rounds=max_rounds,
            checkpoint_interval=checkpoint_interval,
        )
        supervisor = ClusterSupervisor(
            job,
            config if config is not None
            else ClusterConfig(num_workers=num_workers),
            run_dir=run_dir,
            metrics=metrics,
            trace=trace,
        )
        return supervisor.run(resume=resume)

    label = config.num_workers if config is not None else num_workers
    return Placement(f"mesh({label})", ClusterError, run)
