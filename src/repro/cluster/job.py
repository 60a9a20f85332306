"""Job descriptions for cluster runs: a job *is* its parties.

A :class:`ClusterJob` holds the full party set of one run — straight
from a ``build_*`` builder's return value — plus the termination rule.
Only the supervisor ever holds one: worker ``w`` is shipped
:meth:`ClusterJob.shard_checkpoint` of its shard, the round-0
:class:`~repro.cluster.checkpoint.ClusterCheckpoint` in its canonical
encoding, inside the JOB control message, and restores it exactly as it
would restore a checkpoint file after a crash.  Parties are pickled into
every checkpoint already and the JOB blob comes from the same trusted
supervisor that writes those, so shipping parties adds no trust; party
classes must live at importable module scope, as checkpoints have always
required.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.cluster.checkpoint import ClusterCheckpoint
from repro.cluster.engine import ShardEngine
from repro.errors import ClusterError
from repro.net.party import Party


@dataclass
class ClusterJob:
    """The parties of one run and when it is over."""

    name: str
    n: int
    #: One party per id in ``range(n)``.
    parties: Sequence[Party]
    #: Party ids whose halting ends the run (``None`` = all parties).
    until: Optional[Tuple[int, ...]] = None
    max_rounds: int = 10_000
    #: Rounds between durable checkpoints (0 disables).
    checkpoint_interval: int = 8

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ClusterError(f"job needs n > 0, got {self.n}")
        if self.checkpoint_interval < 0:
            raise ClusterError("checkpoint interval cannot be negative")
        ids = sorted(party.party_id for party in self.parties)
        unknown = sorted(p for p in self.until or () if p not in ids)
        if unknown:
            raise ClusterError(
                f"unknown target party id(s) {unknown}; known ids are {ids}"
            )
        if ids != list(range(self.n)):
            raise ClusterError(
                f"job {self.name!r} holds party ids {ids[:5]}..., "
                f"want exactly range({self.n})"
            )

    def target_ids(self) -> List[int]:
        """The party ids whose halting completes the run."""
        if self.until is None:
            return list(range(self.n))
        return sorted(self.until)

    def shard_checkpoint(self, shard: Iterable[int]) -> ClusterCheckpoint:
        """The round-0 checkpoint of the parties in ``shard``."""
        members = set(shard)
        return ShardEngine(
            [p for p in self.parties if p.party_id in members]
        ).snapshot()


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


def replay_job(
    script,
    n: int,
    *,
    name: str = "pi-ba-replay",
    checkpoint_interval: int = 8,
) -> ClusterJob:
    """π_ba's recorded wire schedule as a job of
    :class:`~repro.runtime.replay.ReplayParty` machines (hybrid charges
    are not replayed by parties: the caller applies
    :func:`~repro.runtime.replay.apply_func_ops` to the final ledger)."""
    from repro.runtime.replay import build_replay_parties

    return ClusterJob(
        name=name,
        n=n,
        parties=build_replay_parties(script, n),
        max_rounds=script.num_rounds + 2,
        checkpoint_interval=checkpoint_interval,
    )
