"""Seeded delivery-latency models — the shared delivery-model seam.

Two execution models consume the same latency abstraction:

* the synchronous runtime's :class:`~repro.runtime.faults.FaultPlan`
  asks :meth:`LatencyModel.extra_rounds` how many rounds *beyond* the
  model's promised next-round delivery a message is late (0 keeps the
  paper's §1 synchrony; anything positive is model-breaking there);
* the asynchronous scheduler (:mod:`repro.asynchrony.scheduler`) asks
  :meth:`LatencyModel.delivery_delay` for the message's virtual transit
  time, where 1.0 is one nominal round-trip unit and there is no
  delivery promise at all.

Determinism contract (same as :class:`~repro.runtime.faults.FaultPlan`):
every draw forks the caller's seeded rng with a label keyed by the
message coordinates ``(sent_round, sender, recipient, seq)``, so the
schedule depends only on the seed and the message set — never on event
loop interleaving — and a replay with the same seed is exact.

:class:`RandomDelayLatency` is the campaign's ``random-delay``
schedule.  Its draw sequence — a ``delay/<coords>`` fork, a bernoulli,
then a 1..max range draw — is pinned by a SHA-256 golden in
``tests/net/test_latency.py`` so every historical ``campaign/1`` repro
line keeps replaying draw-identically.
"""

from __future__ import annotations

import abc
from typing import FrozenSet, Optional, Sequence

from repro.errors import ConfigurationError
from repro.utils.randomness import Randomness


class LatencyModel(abc.ABC):
    """Per-message delivery-latency distribution, seeded and replayable.

    Subclasses draw from ``rng.fork(<coordinate-keyed label>)`` only;
    they hold no mutable state, so one instance can serve many runs.
    """

    #: Stable identifier (appears in campaign schedule names and BENCH
    #: records).
    name: str = "latency"

    #: Whether the model draws randomness (FaultPlan requires an rng
    #: exactly when this is True).
    needs_rng: bool = True

    @abc.abstractmethod
    def extra_rounds(
        self,
        rng: Optional[Randomness],
        sent_round: int,
        sender: int,
        recipient: int,
        seq: int,
    ) -> int:
        """Extra delivery rounds beyond the synchronous ``r + 1``."""

    def delivery_delay(
        self,
        rng: Optional[Randomness],
        sent_round: int,
        sender: int,
        recipient: int,
        seq: int,
    ) -> float:
        """Virtual transit time for the asynchronous scheduler.

        Default: one nominal unit plus the integral extra rounds — so a
        model defined for the synchronous seam is immediately usable
        asynchronously.  Models with naturally continuous delays
        override this.
        """
        return 1.0 + float(
            self.extra_rounds(rng, sent_round, sender, recipient, seq)
        )

    @property
    @abc.abstractmethod
    def bound(self) -> int:
        """Upper bound on :meth:`extra_rounds` (for run-length caps)."""


class FixedLatency(LatencyModel):
    """Every message is exactly ``rounds`` rounds late (0 = synchrony)."""

    name = "fixed"
    needs_rng = False

    def __init__(self, rounds: int = 0) -> None:
        if rounds < 0:
            raise ConfigurationError("fixed latency cannot be negative")
        self.rounds = rounds

    def extra_rounds(self, rng, sent_round, sender, recipient, seq) -> int:
        return self.rounds

    @property
    def bound(self) -> int:
        return self.rounds


class UniformLatency(LatencyModel):
    """Uniform extra delay in ``[low, high]`` rounds per message."""

    name = "uniform"

    def __init__(self, low: int = 0, high: int = 2) -> None:
        if not 0 <= low <= high:
            raise ConfigurationError(
                f"uniform latency needs 0 <= low <= high, got [{low}, {high}]"
            )
        self.low = low
        self.high = high

    def _coin(self, rng, sent_round, sender, recipient, seq) -> Randomness:
        if rng is None:
            raise ConfigurationError("UniformLatency draws; pass a seeded rng")
        return rng.fork(
            f"latency/uniform/{sent_round}/{sender}/{recipient}/{seq}"
        )

    def extra_rounds(self, rng, sent_round, sender, recipient, seq) -> int:
        coin = self._coin(rng, sent_round, sender, recipient, seq)
        return coin.random_int_range(self.low, self.high)

    def delivery_delay(self, rng, sent_round, sender, recipient, seq) -> float:
        coin = self._coin(rng, sent_round, sender, recipient, seq)
        return 1.0 + coin.uniform(float(self.low), float(self.high))

    @property
    def bound(self) -> int:
        return self.high


class LogNormalLatency(LatencyModel):
    """Heavy-tailed extra delay: ``min(cap, exp(N(mu, sigma)) - 1)``.

    The subtraction centers the mode near zero extra delay (the bulk of
    messages arrive on time; the tail straggles), and ``cap`` keeps the
    synchronous run-length bound finite.
    """

    name = "lognormal"

    def __init__(
        self, mu: float = 0.0, sigma: float = 0.6, cap: int = 3
    ) -> None:
        if sigma < 0:
            raise ConfigurationError("lognormal sigma cannot be negative")
        if cap < 0:
            raise ConfigurationError("lognormal cap cannot be negative")
        self.mu = mu
        self.sigma = sigma
        self.cap = cap

    def _draw(self, rng, sent_round, sender, recipient, seq) -> float:
        if rng is None:
            raise ConfigurationError(
                "LogNormalLatency draws; pass a seeded rng"
            )
        coin = rng.fork(
            f"latency/lognormal/{sent_round}/{sender}/{recipient}/{seq}"
        )
        return max(0.0, coin.lognormal(self.mu, self.sigma) - 1.0)

    def extra_rounds(self, rng, sent_round, sender, recipient, seq) -> int:
        return min(self.cap, int(self._draw(
            rng, sent_round, sender, recipient, seq
        )))

    def delivery_delay(self, rng, sent_round, sender, recipient, seq) -> float:
        return 1.0 + min(
            float(self.cap),
            self._draw(rng, sent_round, sender, recipient, seq),
        )

    @property
    def bound(self) -> int:
        return self.cap


class PartitionHealLatency(LatencyModel):
    """Cross-partition messages are held until the heal round.

    Messages inside either group flow normally; messages crossing the
    cut before ``heal_round`` are delayed so they arrive exactly when
    the partition heals (contrast :class:`~repro.runtime.faults.
    Partition`, which *drops* cross-cut traffic — here the link is slow,
    not down, so the bits are still charged and eventually delivered).
    """

    name = "partition-heal"
    needs_rng = False

    def __init__(
        self,
        group_a: FrozenSet[int],
        group_b: FrozenSet[int],
        heal_round: int,
    ) -> None:
        if heal_round < 0:
            raise ConfigurationError("heal round must be >= 0")
        if group_a & group_b:
            raise ConfigurationError("partition groups must be disjoint")
        self.group_a = frozenset(group_a)
        self.group_b = frozenset(group_b)
        self.heal_round = heal_round

    def _crosses(self, sender: int, recipient: int) -> bool:
        return (sender in self.group_a and recipient in self.group_b) or (
            sender in self.group_b and recipient in self.group_a
        )

    def extra_rounds(self, rng, sent_round, sender, recipient, seq) -> int:
        if not self._crosses(sender, recipient):
            return 0
        # Delivery would be at sent_round + 1; hold it to heal_round.
        return max(0, self.heal_round - (sent_round + 1))

    def delivery_delay(self, rng, sent_round, sender, recipient, seq) -> float:
        return 1.0 + float(
            self.extra_rounds(rng, sent_round, sender, recipient, seq)
        )

    @property
    def bound(self) -> int:
        return self.heal_round


class RandomDelayLatency(LatencyModel):
    """With chance ``probability``, a uniform 1..``max_rounds`` delay.

    The fork label and the bernoulli-then-range draw order are part of
    the replay contract (historical campaign repro lines depend on
    them); ``tests/net/test_latency.py`` pins them with a golden.
    """

    name = "random-delay"

    def __init__(self, probability: float, max_rounds: int) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError("probability outside [0, 1]")
        if probability > 0 and max_rounds < 1:
            raise ConfigurationError("random delays need max_rounds >= 1")
        self.probability = probability
        self.max_rounds = max_rounds

    def extra_rounds(self, rng, sent_round, sender, recipient, seq) -> int:
        if self.probability <= 0:
            return 0
        if rng is None:
            raise ConfigurationError(
                "RandomDelayLatency draws; pass a seeded rng"
            )
        coin = rng.fork(f"delay/{sent_round}/{sender}/{recipient}/{seq}")
        if coin.bernoulli(self.probability):
            return coin.random_int_range(1, self.max_rounds)
        return 0

    @property
    def bound(self) -> int:
        return self.max_rounds if self.probability > 0 else 0


def halves_partition_heal(
    party_ids: Sequence[int], heal_round: int
) -> PartitionHealLatency:
    """Split the party set into two halves healing at ``heal_round``."""
    ids = sorted(party_ids)
    mid = len(ids) // 2
    return PartitionHealLatency(
        group_a=frozenset(ids[:mid]),
        group_b=frozenset(ids[mid:]),
        heal_round=heal_round,
    )


def latency_model_by_name(name: str, n: int) -> LatencyModel:
    """Construct a named model with the repo's default parameters.

    ``n`` sizes the party-set-dependent models (partition-heal).  The
    names are the ones campaign schedules and the CLI expose.
    """
    if name == "fixed":
        return FixedLatency(rounds=0)
    if name == "uniform":
        return UniformLatency(low=0, high=2)
    if name == "lognormal":
        return LogNormalLatency(mu=0.0, sigma=0.6, cap=3)
    if name == "partition-heal":
        return halves_partition_heal(range(n), heal_round=3)
    if name == "random-delay":
        return RandomDelayLatency(probability=0.15, max_rounds=2)
    raise ConfigurationError(f"unknown latency model {name!r}")


#: Names :func:`latency_model_by_name` accepts, in presentation order.
LATENCY_MODEL_NAMES = (
    "fixed", "uniform", "lognormal", "partition-heal", "random-delay",
)
