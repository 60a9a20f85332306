"""Serializable job descriptions for cluster runs.

A :class:`ClusterJob` tells a worker how to rebuild its shard of the
party set from scratch: a ``"module:function"`` builder reference plus
picklable keyword arguments.  Every worker calls the builder for the
*full* party set and keeps only its shard — builders are deterministic
(any randomness is seeded through their arguments), so all workers and
the supervisor agree on the party objects without shipping them.

Builders live at importable module scope (the job crosses a process
boundary inside the JOB control message), return one
:class:`~repro.net.party.Party` per id in ``range(n)``, and take ``n``
as their first argument.  Two stock builders cover the repo's
workloads:

* :func:`phase_king_parties` — the Berman–Garay–Perry committee BA as
  real message-passing machines;
* :func:`replay_script_parties` — π_ba's recorded wire traffic as
  :class:`~repro.runtime.replay.ReplayParty` machines (the cluster's
  headline workload: the script is recorded once from the hybrid-model
  execution and shipped inside the job).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ClusterError
from repro.net.party import Party


@dataclass
class ClusterJob:
    """Everything a worker needs to (re)build and run its shard."""

    name: str
    n: int
    builder: str
    args: Dict[str, Any] = field(default_factory=dict)
    #: Party ids whose halting ends the run (``None`` = all parties).
    until: Optional[Tuple[int, ...]] = None
    max_rounds: int = 10_000
    #: Rounds between durable checkpoints (0 disables).
    checkpoint_interval: int = 8

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ClusterError(f"job needs n > 0, got {self.n}")
        if ":" not in self.builder:
            raise ClusterError(
                f"builder reference {self.builder!r} is not 'module:function'"
            )
        if self.checkpoint_interval < 0:
            raise ClusterError("checkpoint interval cannot be negative")

    def build_parties(self) -> List[Party]:
        """Invoke the builder and validate the full party set."""
        builder = resolve_builder(self.builder)
        parties = list(builder(self.n, **self.args))
        ids = sorted(party.party_id for party in parties)
        if ids != list(range(self.n)):
            raise ClusterError(
                f"builder {self.builder!r} produced party ids {ids[:5]}..., "
                f"want exactly range({self.n})"
            )
        return parties

    def target_ids(self) -> List[int]:
        """The party ids whose halting completes the run."""
        if self.until is None:
            return list(range(self.n))
        return sorted(self.until)


def resolve_builder(reference: str) -> Callable[..., Sequence[Party]]:
    """Import a ``"module:function"`` party-builder reference."""
    module_name, _, func_name = reference.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ClusterError(
            f"cannot import builder module {module_name!r}: {exc}"
        ) from exc
    builder = getattr(module, func_name, None)
    if not callable(builder):
        raise ClusterError(
            f"builder {reference!r} does not name a callable"
        )
    return builder


def split_shards(n: int, num_workers: int) -> List[List[int]]:
    """Partition ``range(n)`` into ``num_workers`` contiguous shards.

    Sizes differ by at most one (the first ``n % k`` shards get the
    extra party).  Contiguity keeps checkpoint files and traces easy to
    eyeball; nothing in the protocol depends on the assignment.
    """
    if num_workers <= 0:
        raise ClusterError(f"need at least one worker, got {num_workers}")
    if num_workers > n:
        raise ClusterError(
            f"{num_workers} workers for {n} parties leaves empty shards"
        )
    base, extra = divmod(n, num_workers)
    shards: List[List[int]] = []
    start = 0
    for index in range(num_workers):
        size = base + (1 if index < extra else 0)
        shards.append(list(range(start, start + size)))
        start += size
    return shards


# -- stock builders ------------------------------------------------------------


def phase_king_parties(
    n: int,
    inputs: Dict[int, int],
    byzantine: Sequence[int] = (),
) -> List[Party]:
    """The phase-king committee BA
    (:func:`repro.protocols.phase_king.build_phase_king`'s party set;
    :meth:`ClusterJob.build_parties` checks it covers ``range(n)``)."""
    from repro.protocols.phase_king import build_phase_king

    return build_phase_king(inputs, byzantine)[0]


def gradecast_parties(
    n: int,
    sender: int,
    value: int,
    byzantine: Sequence[int] = (),
) -> List[Party]:
    """The four-round gradecast primitive over ``range(n)``
    (:func:`repro.protocols.gradecast.build_gradecast`'s party set)."""
    from repro.protocols.gradecast import build_gradecast

    return build_gradecast(range(n), sender, value, byzantine)[0]


def replay_script_parties(n: int, script) -> List[Party]:
    """π_ba's recorded wire schedule as replay machines.

    ``script`` is a :class:`~repro.runtime.replay.ReplayScript` (picklable,
    shipped inside the job); hybrid-model charges are *not* replayed by
    the parties — the driver applies them to the final ledger via
    :func:`~repro.runtime.replay.apply_func_ops`, exactly as
    :func:`~repro.runtime.drivers.run_balanced_ba_runtime` does.
    """
    from repro.runtime.replay import build_replay_parties

    return list(build_replay_parties(script, n))


def phase_king_job(
    inputs: Dict[int, int],
    byzantine: Sequence[int] = (),
    *,
    name: str = "phase-king",
    checkpoint_interval: int = 8,
) -> ClusterJob:
    """Convenience constructor for a phase-king cluster job."""
    from repro.protocols.phase_king import build_phase_king

    _, honest, max_rounds = build_phase_king(inputs, byzantine)
    return ClusterJob(
        name=name,
        n=len(inputs),
        builder="repro.cluster.job:phase_king_parties",
        args={"inputs": dict(inputs), "byzantine": tuple(byzantine)},
        until=tuple(honest),
        max_rounds=max_rounds,
        checkpoint_interval=checkpoint_interval,
    )


def gradecast_job(
    n: int,
    sender: int,
    value: int,
    byzantine: Sequence[int] = (),
    *,
    name: str = "gradecast",
    checkpoint_interval: int = 8,
) -> ClusterJob:
    """Convenience constructor for a gradecast cluster job."""
    from repro.protocols.gradecast import build_gradecast

    _, honest, max_rounds = build_gradecast(range(n), sender, value, byzantine)
    return ClusterJob(
        name=name,
        n=n,
        builder="repro.cluster.job:gradecast_parties",
        args={
            "sender": sender,
            "value": value,
            "byzantine": tuple(byzantine),
        },
        until=tuple(honest),
        max_rounds=max_rounds,
        checkpoint_interval=checkpoint_interval,
    )


def replay_job(
    script,
    n: int,
    *,
    name: str = "pi-ba-replay",
    checkpoint_interval: int = 8,
) -> ClusterJob:
    """Convenience constructor for a π_ba wire-replay cluster job."""
    return ClusterJob(
        name=name,
        n=n,
        builder="repro.cluster.job:replay_script_parties",
        args={"script": script},
        until=None,
        max_rounds=script.num_rounds + 2,
        checkpoint_interval=checkpoint_interval,
    )
