"""Named fault schedules composing with the runtime's FaultPlan.

A :class:`Schedule` turns (n, corruption plan, rng) into a
:class:`~repro.runtime.faults.FaultPlan` — or ``None`` for the
fault-free baseline.  ``model_breaking`` schedules deliberately exceed
the paper's synchronous model (a mid-protocol partition, crashing every
party): a protocol driven under them may fail its invariants or time
out, but it must do so *loudly* — the campaign records such outcomes as
expected failures and flags any silent wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import ConfigurationError
from repro.net.adversary import CorruptionPlan
from repro.net.latency import (
    LogNormalLatency,
    RandomDelayLatency,
    UniformLatency,
)
from repro.runtime.faults import (
    FaultPlan,
    adversarial_schedule,
    churn_schedule,
    crash_corrupted,
    crash_everyone,
    partition_halves,
)
from repro.utils.randomness import Randomness


@dataclass(frozen=True)
class Schedule:
    """One named network-fault schedule.

    Every placement honours the :class:`FaultPlan` a schedule builds.
    An in-process π_ba run has no network: under ``reorder`` its steps
    consume each inbox in a seeded permuted order instead (the
    ``delivery_rng`` of
    :func:`~repro.protocols.balanced_ba.run_balanced_ba`).

    Attributes:
        name: stable identifier (appears in repro specs).
        description: one-line summary.
        build: ``(n, plan, rng) -> Optional[FaultPlan]``.
        model_breaking: exceeds the paper's model — invariant
            violations / loud failures are expected, silence is not.
    """

    name: str
    description: str
    build: Callable[[int, CorruptionPlan, Randomness], Optional[FaultPlan]]
    model_breaking: bool = False


def _none(n: int, plan: CorruptionPlan, rng: Randomness) -> Optional[FaultPlan]:
    return None


def _kill_worker(
    n: int, plan: CorruptionPlan, rng: Randomness
) -> Optional[FaultPlan]:
    """No network-level faults: the SIGKILL is a *process* fault.

    The cluster runner reads this schedule's name and arms the
    supervisor's kill plan (SIGKILL one worker after a mid-protocol
    round barrier); the wire-level fault plan stays empty because the
    parties themselves never misbehave — the substrate does.
    """
    return None


def _reorder(n: int, plan: CorruptionPlan, rng: Randomness) -> FaultPlan:
    return adversarial_schedule(
        rng.fork("sched"), reorder=True, duplicate_probability=0.0
    )


def _duplicate(n: int, plan: CorruptionPlan, rng: Randomness) -> FaultPlan:
    return adversarial_schedule(
        rng.fork("sched"), reorder=False, duplicate_probability=0.1
    )


def _reorder_dup(n: int, plan: CorruptionPlan, rng: Randomness) -> FaultPlan:
    return adversarial_schedule(
        rng.fork("sched"), reorder=True, duplicate_probability=0.1
    )


def _random_delay(n: int, plan: CorruptionPlan, rng: Randomness) -> FaultPlan:
    """Reorder plus a 15% chance of a 1..2-round delay per message.

    The delivery pattern under the ``sched`` fork is pinned by a golden
    in ``tests/net/test_latency.py``: historical repro lines naming
    this schedule must keep replaying draw-identically.
    """
    return FaultPlan(
        reorder=True,
        latency=RandomDelayLatency(probability=0.15, max_rounds=2),
        rng=rng.fork("sched"),
    )


def _latency_uniform(
    n: int, plan: CorruptionPlan, rng: Randomness
) -> FaultPlan:
    return FaultPlan(
        latency=UniformLatency(low=0, high=2), rng=rng.fork("sched")
    )


def _latency_lognormal(
    n: int, plan: CorruptionPlan, rng: Randomness
) -> FaultPlan:
    return FaultPlan(latency=LogNormalLatency(), rng=rng.fork("sched"))


def _adversarial_order(
    n: int, plan: CorruptionPlan, rng: Randomness
) -> Optional[FaultPlan]:
    """No wire-level faults: the *scheduler* is the adversary.

    The asynchronous runner reads this schedule's name and switches the
    :class:`~repro.asynchrony.scheduler.AsyncScheduler` to its
    worst-case "adversary picks the next delivery" policy (same
    by-name seam as ``kill-worker``); the fault plan stays empty.
    """
    return None


def _churn_parties(
    n: int, plan: CorruptionPlan, rng: Randomness, label: str
) -> List[int]:
    """A seeded honest subset sized to the *remaining* fault budget.

    Churn spends the same ``f = (n-1)//3`` tolerance the Byzantine
    corruptions draw from: a leaver is a crash fault, a late joiner is
    absent for the early rounds, and either way the protocol only owes
    graceful degradation while the combined count stays within ``f``.
    """
    f = max(0, (n - 1) // 3)
    budget = f - len(plan.corrupted)
    if budget <= 0:
        return []
    honest = [p for p in range(n) if p not in plan.corrupted]
    return sorted(rng.fork(label).sample(honest, min(budget, len(honest))))


def _churn_join(
    n: int, plan: CorruptionPlan, rng: Randomness
) -> Optional[FaultPlan]:
    parties = _churn_parties(n, plan, rng, "join")
    if not parties:
        return None  # budget exhausted; degenerates to the baseline
    return churn_schedule({p: 2 for p in parties})


def _churn_leave(
    n: int, plan: CorruptionPlan, rng: Randomness
) -> Optional[FaultPlan]:
    parties = _churn_parties(n, plan, rng, "leave")
    if not parties:
        return None  # budget exhausted; degenerates to the baseline
    return churn_schedule({}, {p: 3 for p in parties})


def _churn_collapse(
    n: int, plan: CorruptionPlan, rng: Randomness
) -> FaultPlan:
    # Half the parties leave at round 1 — the survivors cannot reach
    # the 2f+1 quorum, so the run must stall loudly.
    return crash_everyone(range((n + 1) // 2), round_index=1)


def _crash_corrupted(
    n: int, plan: CorruptionPlan, rng: Randomness
) -> Optional[FaultPlan]:
    if not plan.corrupted:
        return None  # nothing to crash; degenerates to the baseline
    return crash_corrupted(plan, rng.fork("sched"), max_round=6)


def _partition_early(
    n: int, plan: CorruptionPlan, rng: Randomness
) -> FaultPlan:
    return partition_halves(range(n), first_round=1, last_round=2)


def _crash_everyone(
    n: int, plan: CorruptionPlan, rng: Randomness
) -> FaultPlan:
    return crash_everyone(range(n), round_index=1)


_DEFAULT: List[Schedule] = [
    Schedule("none", "fault-free synchronous baseline", _none),
    Schedule(
        "reorder",
        "randomized within-round delivery order",
        _reorder,
    ),
    Schedule(
        "duplicate",
        "10% of deliveries seen twice",
        _duplicate,
    ),
    Schedule(
        "reorder-dup",
        "reordering plus 10% duplication",
        _reorder_dup,
    ),
    Schedule(
        "random-delay",
        "MODEL-BREAKING: 15% of messages arrive 1-2 rounds late — "
        "delivery beyond the promised round exceeds the synchronous model",
        _random_delay,
        model_breaking=True,
    ),
    Schedule(
        "crash-corrupted",
        "crash every corrupted party at a random round <= 6",
        _crash_corrupted,
    ),
    Schedule(
        "partition-early",
        "MODEL-BREAKING: sever the two halves during rounds 1-2",
        _partition_early,
        model_breaking=True,
    ),
    Schedule(
        "crash-everyone",
        "MODEL-BREAKING: crash every party at round 1",
        _crash_everyone,
        model_breaking=True,
    ),
    Schedule(
        "kill-worker",
        "SIGKILL one cluster worker mid-round; the supervisor must "
        "restart it from its durable checkpoint (cluster backend only)",
        _kill_worker,
    ),
    Schedule(
        "latency-uniform",
        "asynchronous delivery with uniform per-message latency",
        _latency_uniform,
    ),
    Schedule(
        "latency-lognormal",
        "asynchronous delivery with heavy-tailed (lognormal) latency",
        _latency_lognormal,
    ),
    Schedule(
        "adversarial-order",
        "the scheduler itself is the adversary: a seeded draw picks "
        "each next delivery from the oldest-pending window "
        "(asynchronous configs only)",
        _adversarial_order,
    ),
    Schedule(
        "churn-join",
        "budget-bounded churn: up to f - |corrupted| honest parties "
        "join late (absent before round 2)",
        _churn_join,
    ),
    Schedule(
        "churn-leave",
        "budget-bounded churn: up to f - |corrupted| honest parties "
        "leave (crash) at round 3",
        _churn_leave,
    ),
    Schedule(
        "churn-collapse",
        "MODEL-BREAKING: half the parties leave at round 1 — below "
        "the 2f+1 quorum, the stall must be loud",
        _churn_collapse,
        model_breaking=True,
    ),
]


def default_schedules() -> List[Schedule]:
    """The built-in schedules, in deterministic order."""
    return list(_DEFAULT)


def schedule_by_name(name: str) -> Schedule:
    for schedule in _DEFAULT:
        if schedule.name == name:
            return schedule
    raise ConfigurationError(f"unknown schedule {name!r}")
