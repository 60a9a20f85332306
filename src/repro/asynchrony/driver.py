"""One-call ABA executions over the asynchronous scheduler.

:func:`run_aba` assembles the whole stack — parties, common coin,
latency model / adversarial schedule, static Byzantine behaviors,
churn fault plans, and the adaptive-corruption seam — and returns a
result whose ``metrics`` ledger is the same
:class:`~repro.net.metrics.CommunicationMetrics` the synchronous
backends charge, so ``max_bits_per_party`` lands in BENCH records
comparable to π_ba's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import ConfigurationError
from repro.net.latency import LatencyModel, latency_model_by_name
from repro.net.metrics import CommunicationMetrics
from repro.net.party import AsyncParty, Envelope
from repro.protocols.aba import (
    ABAParty,
    CommonCoin,
    EquivocatingABAParty,
    SilentABAParty,
)
from repro.asynchrony.adaptive import (
    AdaptiveCorruption,
    AdaptiveStrategy,
    adaptive_strategy_by_name,
)
from repro.asynchrony.scheduler import AsyncResult, AsyncScheduler
from repro.runtime.faults import FaultPlan
from repro.utils.randomness import Randomness

#: Static Byzantine behaviors :func:`run_aba` can install.
BYZANTINE_BEHAVIORS = ("silent", "equivocate")


@dataclass
class ABARunResult:
    """Outcome of one asynchronous binary-agreement execution."""

    outputs: Dict[int, int]
    rounds: int
    metrics: CommunicationMetrics
    deliveries: int
    virtual_time: float
    #: Final corrupted set — static corruptions plus adaptive spends.
    corrupted: List[int]
    #: Inputs the honest parties actually ran with (for validity checks).
    inputs: Dict[int, int]
    trace: List[Tuple[int, int, int, int]] = field(default_factory=list)

    @property
    def agreed_value(self) -> Optional[int]:
        """The single decided value, or ``None`` on disagreement."""
        decided = set(self.outputs.values())
        return decided.pop() if len(decided) == 1 else None


def run_aba(
    n: int,
    *,
    seed: int = 0,
    inputs: Optional[Dict[int, int]] = None,
    policy: str = "latency",
    latency: Union[str, LatencyModel, None] = None,
    fault_plan: Optional[FaultPlan] = None,
    corrupted: Optional[Set[int]] = None,
    byzantine: str = "silent",
    adaptive: Union[str, AdaptiveStrategy, None] = None,
    adaptive_budget: Optional[int] = None,
    metrics: Optional[CommunicationMetrics] = None,
    coin_committee: Optional[Sequence[int]] = None,
    max_deliveries: Optional[int] = None,
) -> ABARunResult:
    """Run MMR14 ABA for ``n`` parties under the asynchronous model.

    Args:
        n: party count (ids ``0..n-1``).
        seed: drives *everything* — coin session, latency draws, and the
            adversarial schedule — through disjoint forks, so one seed
            reproduces the run exactly.
        inputs: party → input bit; defaults to the split ``i % 2``.
        policy: ``"latency"`` or ``"adversarial"`` (see
            :class:`~repro.asynchrony.scheduler.AsyncScheduler`).
        latency: a :class:`~repro.net.latency.LatencyModel` or one of
            the names :func:`~repro.net.latency.latency_model_by_name`
            accepts; ``None`` means fixed next-step delivery.
        fault_plan: crash/churn/partition plan (round = ⌊virtual time⌋).
        corrupted: statically corrupted ids, realized as ``byzantine``
            behavior (``"silent"`` or ``"equivocate"``).
        adaptive: an adaptive strategy (instance or registry name); its
            corruptions are budgeted by ``adaptive_budget`` (default:
            ``f`` minus the static corruptions) and enforced at
            corruption time.
        metrics: an existing ledger to charge (default: a fresh one).
        coin_committee: parties charged for each coin invocation
            (default: everyone — ABA's coin is not committee-sampled).
        max_deliveries: scheduler delivery cap before loud failure.
    """
    if n < 1:
        raise ConfigurationError("need at least one party")
    if byzantine not in BYZANTINE_BEHAVIORS:
        raise ConfigurationError(
            f"unknown byzantine behavior {byzantine!r}; "
            f"expected one of {BYZANTINE_BEHAVIORS}"
        )
    party_ids = list(range(n))
    f = (n - 1) // 3
    static_corrupt = set(corrupted or ())
    unknown = static_corrupt - set(party_ids)
    if unknown:
        raise ConfigurationError(f"corrupted ids out of range: {sorted(unknown)}")
    root = Randomness(seed).fork("aba-run")
    ledger = metrics if metrics is not None else CommunicationMetrics()
    model: Optional[LatencyModel]
    if isinstance(latency, str):
        model = latency_model_by_name(latency, n)
    else:
        model = latency

    coin = CommonCoin(
        root.fork("coin"),
        metrics=ledger,
        committee=list(coin_committee) if coin_committee is not None else party_ids,
    )
    if inputs is None:
        inputs = {pid: pid % 2 for pid in party_ids}
    honest_inputs = {
        pid: bit for pid, bit in inputs.items() if pid not in static_corrupt
    }
    parties: List[AsyncParty] = []
    for pid in party_ids:
        if pid in static_corrupt:
            if byzantine == "equivocate":
                parties.append(EquivocatingABAParty(pid, party_ids))
            else:
                parties.append(SilentABAParty(pid))
        else:
            parties.append(ABAParty(pid, party_ids, inputs[pid], coin))

    strategy: Optional[AdaptiveStrategy] = None
    if adaptive is not None:
        strategy = (
            adaptive_strategy_by_name(adaptive)
            if isinstance(adaptive, str)
            else adaptive
        )
        budget = (
            adaptive_budget
            if adaptive_budget is not None
            else max(0, f - len(static_corrupt))
        )
        adaptive_ledger = AdaptiveCorruption(n, budget)
        strategy.bind(adaptive_ledger)
        coin.subscribe(strategy.observe_coin)

    def wire_observer(now: float, envelope: Envelope) -> None:
        if strategy is not None:
            strategy.observe_wire(now, envelope)

    scheduler = AsyncScheduler(
        parties,
        policy=policy,
        latency=model,
        rng=root.fork("sched"),
        metrics=ledger,
        fault_plan=fault_plan,
        wire_observer=wire_observer if strategy is not None else None,
        max_deliveries=max_deliveries,
    )
    for pid in static_corrupt:
        if byzantine == "silent":
            scheduler.corrupt(pid)
        else:
            # Equivocators must keep talking, but will never decide —
            # excuse them from the completion requirement.
            scheduler.excuse(pid)
    if strategy is not None:
        assert strategy.ledger is not None
        strategy.ledger.on_corrupt(scheduler.corrupt)

    result: AsyncResult = scheduler.run()

    final_corrupted = sorted(
        static_corrupt
        | (set(strategy.ledger.corrupted) if strategy is not None else set())
    )
    honest_rounds = [
        party.round
        for party in parties
        if isinstance(party, ABAParty)
        and party.party_id not in scheduler.corrupted
    ]
    return ABARunResult(
        outputs={
            pid: value
            for pid, value in result.outputs.items()
            if pid not in final_corrupted
        },
        rounds=max(honest_rounds, default=0),
        metrics=result.metrics,
        deliveries=result.deliveries,
        virtual_time=result.virtual_time,
        corrupted=final_corrupted,
        inputs=honest_inputs,
        trace=result.trace,
    )
