"""Execute campaign cells and whole sweeps.

:func:`execute_spec` is the single execution path — the sweep, the
``replay`` command, and the minimizer all go through it, so a repro
spec re-runs *exactly* the cell that produced it: the per-cell
randomness is ``Randomness(seed).fork("campaign/<config>/<strategy>/
<schedule>/<n>")`` and the resolved spec pins the corrupted set and
crash schedule explicitly.

Outcome semantics: a cell whose strategy is a planted over-threshold
attack (``expect_violation``) or whose schedule is ``model_breaking``
is *expected* to fail — violations and loud errors
(:class:`~repro.errors.ReproError`) there are recorded but don't fail
the sweep.  Anywhere else, a violation or error is an **unexpected**
failure: the sweep prints the repro spec and exits non-zero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace as dc_replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.catalog import (
    KIND_ABA,
    KIND_DOLEV_STRONG,
    KIND_GRADECAST,
    KIND_PHASE_KING,
    KIND_PI_BA,
    KIND_SRDS_FORGE,
    KIND_SRDS_ROBUST,
    Strategy,
    StrategyCatalog,
    default_catalog,
)
from repro.campaign.invariants import (
    Violation,
    check_aba_invariants,
    check_ba_invariants,
    check_broadcast_invariants,
    check_gradecast_invariants,
    check_srds_robustness,
    check_srds_unforgeability,
)
from repro.campaign.matrix import (
    ProtocolConfig,
    config_by_name,
    enumerate_cells,
)
from repro.campaign.schedules import Schedule, schedule_by_name
from repro.campaign.spec import CampaignSpec, format_spec
from repro.errors import ConfigurationError, ReproError
from repro.net.adversary import CorruptionPlan, targeted_corruption
from repro.params import ProtocolParameters
from repro.pki.registry import PKIMode
from repro.runtime.faults import FaultPlan
from repro.srds import scheme_by_name
from repro.utils.randomness import Randomness


@dataclass
class RunOutcome:
    """One executed cell: resolved spec, verdicts, and bookkeeping."""

    spec: CampaignSpec
    violations: List[Violation] = field(default_factory=list)
    error: Optional[str] = None
    error_type: Optional[str] = None
    expected_failure: bool = False
    wall_time: float = 0.0
    measured_bits: Optional[int] = None
    budget_bits: Optional[int] = None

    @property
    def failed(self) -> bool:
        return bool(self.violations) or self.error is not None

    @property
    def unexpected(self) -> bool:
        """Failed where the paper's guarantees should have held."""
        return self.failed and not self.expected_failure

    @property
    def signature(self) -> Tuple[str, ...]:
        """Stable failure fingerprint the minimizer preserves."""
        if self.error_type is not None:
            return ("error:" + self.error_type,)
        return tuple(sorted({v.name for v in self.violations}))


_BASE_SIG_CACHE: Dict[Tuple[str, int], int] = {}


def _base_signature_bytes(config: ProtocolConfig) -> int:
    """Probe (and cache) the scheme's base signature wire size."""
    key = (config.scheme or "", config.n)
    if key not in _BASE_SIG_CACHE:
        scheme = scheme_by_name(config.scheme)
        rng = Randomness(0).fork("campaign/base-sig-probe")
        pp = scheme.setup(config.n, rng.fork("setup"))
        _, sk = scheme.keygen(pp, rng.fork("keygen"))
        signature = scheme.sign(pp, 0, sk, b"campaign-probe")
        _BASE_SIG_CACHE[key] = signature.size_bytes()
    return _BASE_SIG_CACHE[key]


def _inputs_for(config: ProtocolConfig) -> Dict[int, int]:
    if config.unanimous_inputs:
        return {i: 1 for i in range(config.n)}
    return {i: i % 2 for i in range(config.n)}


def _build_fault_plan(
    spec: CampaignSpec,
    schedule: Schedule,
    plan: CorruptionPlan,
    rng: Randomness,
) -> Optional[FaultPlan]:
    """Schedule-derived fault plan, with the spec's pinned crashes
    (from minimization) overriding the derived crash schedule."""
    fault_plan = schedule.build(spec.n, plan, rng)
    if spec.crashes is None:
        return fault_plan
    if fault_plan is None:
        return FaultPlan(crashes=dict(spec.crashes)) if spec.crashes else None
    return dc_replace(fault_plan, crashes=dict(spec.crashes))


def execute_spec(
    spec: CampaignSpec,
    catalog: Optional[StrategyCatalog] = None,
    matrix=None,
) -> RunOutcome:
    """Run one cell and check its invariants.  Deterministic in ``spec``."""
    catalog = catalog if catalog is not None else default_catalog()
    config = config_by_name(spec.config, matrix)
    strategy = catalog.get(spec.strategy)
    schedule = schedule_by_name(spec.schedule)
    if not strategy.applies_to(config.kind):
        raise ConfigurationError(
            f"strategy {strategy.name!r} does not apply to "
            f"config {config.name!r} (kind {config.kind})"
        )
    if not config.allows_schedule(schedule.name):
        raise ConfigurationError(
            f"schedule {schedule.name!r} not applicable to "
            f"config {config.name!r}"
        )
    params = ProtocolParameters()
    rng = Randomness(spec.seed).fork(
        f"campaign/{spec.config}/{spec.strategy}/{spec.schedule}/{spec.n}"
    )
    expected = strategy.expect_violation or schedule.model_breaking

    # Resolve the corrupted set (explicit spec pin wins).
    if config.kind in (KIND_GRADECAST, KIND_DOLEV_STRONG) and (
        strategy.equivocating_sender
    ):
        # The canonical broadcast equivocation attack: the sender (party
        # 0) is the corrupt party.
        explicit = spec.corrupt if spec.corrupt is not None else (0,)
        plan = targeted_corruption(
            config.n, explicit, budget=max(1, (config.n - 1) // 3)
        )
    else:
        plan = strategy.resolve_plan(
            config.n, params, rng.fork("plan"), explicit=spec.corrupt
        )

    fault_plan = _build_fault_plan(
        spec, schedule, plan, rng.fork("faults")
    )
    resolved = spec.with_corrupt(tuple(sorted(plan.corrupted)))
    if fault_plan is not None and fault_plan.crashes:
        resolved = resolved.with_crashes(fault_plan.crashes)
    outcome = RunOutcome(spec=resolved, expected_failure=expected)

    start = time.perf_counter()
    try:
        if config.kind == KIND_PI_BA:
            _run_pi_ba(
                outcome, config, strategy, schedule, plan, params, rng
            )
        elif config.kind == KIND_PHASE_KING:
            _run_phase_king(outcome, config, strategy, plan, fault_plan)
        elif config.kind == KIND_GRADECAST:
            _run_gradecast(outcome, config, strategy, plan, fault_plan)
        elif config.kind == KIND_DOLEV_STRONG:
            _run_dolev_strong(outcome, config, strategy, plan, rng)
        elif config.kind == KIND_ABA:
            _run_aba(
                outcome, config, strategy, schedule, plan, fault_plan, rng
            )
        elif config.kind == KIND_SRDS_ROBUST:
            _run_srds(outcome, config, strategy, plan, params, rng, forge=False)
        elif config.kind == KIND_SRDS_FORGE:
            _run_srds(outcome, config, strategy, plan, params, rng, forge=True)
        else:
            raise ConfigurationError(f"unknown config kind {config.kind!r}")
    except ReproError as exc:
        # A *loud* failure: the protocol refused to produce an answer.
        outcome.error = str(exc)
        outcome.error_type = type(exc).__name__
    outcome.wall_time = time.perf_counter() - start
    return outcome


# -- per-kind execution ------------------------------------------------------


def _run_pi_ba(
    outcome: RunOutcome,
    config: ProtocolConfig,
    strategy: Strategy,
    schedule: Schedule,
    plan: CorruptionPlan,
    params: ProtocolParameters,
    rng: Randomness,
) -> None:
    from repro.protocols.balanced_ba import run_balanced_ba
    from repro.protocols.cost_model import pi_ba_per_party_budget

    scheme = scheme_by_name(config.scheme)
    inputs = _inputs_for(config)
    adversary = None
    if strategy.make_adversary is not None:
        adversary = strategy.make_adversary(
            plan, config.n, rng.fork("adversary")
        )
    if config.backend == "cluster":
        result = _run_pi_ba_cluster_backend(
            schedule, inputs, plan, scheme, params, rng, adversary
        )
    else:
        delivery_rng = (
            rng.fork("delivery") if schedule.name == "reorder" else None
        )
        result = run_balanced_ba(
            inputs,
            plan,
            scheme,
            params,
            rng.fork("protocol"),
            adversary,
            delivery_rng=delivery_rng,
        )
    outcome.measured_bits = result.metrics.max_bits_per_party
    outcome.budget_bits = pi_ba_per_party_budget(
        config.n,
        params,
        max(result.certificate_bytes, 1),
        _base_signature_bytes(config),
    )
    outcome.violations = check_ba_invariants(
        inputs,
        result.outputs,
        plan.honest,
        measured_bits=outcome.measured_bits,
        budget_bits=outcome.budget_bits,
    )


def _run_pi_ba_cluster_backend(
    schedule: Schedule,
    inputs: Dict[int, int],
    plan: CorruptionPlan,
    scheme,
    params: ProtocolParameters,
    rng: Randomness,
    adversary,
):
    """π_ba over the multi-process cluster substrate.

    The ``kill-worker`` schedule arms the job's SIGKILL plan (worker 1
    kills itself mid-round 3); recovery must replay
    from the durable checkpoint and still satisfy every BA invariant
    and the bits budget — silent divergence here would surface as an
    unexpected campaign failure.
    """
    from repro.cluster.supervisor import ClusterConfig
    from repro.runtime.placements import mesh
    from repro.runtime.replay import replay_balanced_ba

    kill_plan = {3: 1} if schedule.name == "kill-worker" else {}
    row = mesh(
        name="pi-ba-replay",
        checkpoint_interval=2,
        config=ClusterConfig(num_workers=2, kill_plan=kill_plan),
    )
    result, _ = replay_balanced_ba(
        row, inputs, plan, scheme, params, rng.fork("protocol"), adversary
    )
    return result


def _run_aba(
    outcome: RunOutcome,
    config: ProtocolConfig,
    strategy: Strategy,
    schedule: Schedule,
    plan: CorruptionPlan,
    fault_plan: Optional[FaultPlan],
    rng: Randomness,
) -> None:
    """MMR14 ABA over the asynchronous scheduler.

    The schedule selects the delivery model: ``adversarial-order``
    switches the scheduler to its worst-case delivery-order policy (a
    by-name seam, like ``kill-worker``); the ``latency-*`` schedules
    carry their :class:`~repro.net.latency.LatencyModel` inside the
    fault plan built above; the churn schedules carry joins/crashes.
    Churn spends the same ``f`` tolerance as corruption, so an adaptive
    strategy's budget is whatever the static plan and the churn set
    left over — the combined adversary never exceeds the model.
    """
    from repro.asynchrony.driver import run_aba
    from repro.protocols.cost_model import aba_per_party_budget

    inputs = _inputs_for(config)
    crashes = dict(fault_plan.crashes) if fault_plan is not None else {}
    joins = dict(fault_plan.joins) if fault_plan is not None else {}
    f = max(0, (config.n - 1) // 3)
    churned = (set(crashes) | set(joins)) - plan.corrupted
    result = run_aba(
        config.n,
        seed=rng.fork("aba-seed").random_int(2**63),
        inputs=inputs,
        policy=(
            "adversarial" if schedule.name == "adversarial-order"
            else "latency"
        ),
        latency=fault_plan.latency if fault_plan is not None else None,
        fault_plan=fault_plan,
        corrupted=set(plan.corrupted),
        byzantine=(
            "equivocate" if strategy.equivocating_sender else "silent"
        ),
        adaptive=strategy.adaptive,
        adaptive_budget=max(0, f - len(plan.corrupted) - len(churned)),
    )
    honest = [p for p in range(config.n) if p not in result.corrupted]
    outcome.measured_bits = result.metrics.max_bits_per_party
    outcome.budget_bits = aba_per_party_budget(config.n, result.rounds)
    outcome.violations = check_aba_invariants(
        result.inputs,
        result.outputs,
        honest,
        departed=[p for p in honest if p in crashes],
        joined_late=[p for p in honest if p in joins],
        measured_bits=outcome.measured_bits,
        budget_bits=outcome.budget_bits,
    )


def _run_phase_king(
    outcome: RunOutcome,
    config: ProtocolConfig,
    strategy: Strategy,
    plan: CorruptionPlan,
    fault_plan: Optional[FaultPlan],
) -> None:
    from repro.protocols.phase_king import build_phase_king
    from repro.runtime.placements import IN_PROCESS

    inputs = _inputs_for(config)
    parties, honest, max_rounds = build_phase_king(
        inputs, sorted(plan.corrupted), not strategy.expect_violation
    )
    result = IN_PROCESS.run(
        parties, honest, max_rounds, fault_plan=fault_plan
    )
    outcome.measured_bits = result.metrics.max_bits_per_party
    outcome.violations = check_ba_invariants(
        inputs, result.outputs, plan.honest
    )


def _run_gradecast(
    outcome: RunOutcome,
    config: ProtocolConfig,
    strategy: Strategy,
    plan: CorruptionPlan,
    fault_plan: Optional[FaultPlan],
) -> None:
    from repro.protocols.gradecast import build_gradecast
    from repro.runtime.placements import IN_PROCESS

    sender = 0
    value = 1
    equivocating = strategy.equivocating_sender and plan.is_corrupt(sender)
    byzantine = sorted(plan.corrupted - {sender} if equivocating
                       else plan.corrupted)
    parties, honest, max_rounds = build_gradecast(
        range(config.n), sender, value, byzantine, equivocating
    )
    result = IN_PROCESS.run(
        parties, honest, max_rounds, fault_plan=fault_plan
    )
    outputs = {member: result.outputs[member] for member in honest}
    outcome.measured_bits = result.metrics.max_bits_per_party
    sender_honest = not plan.is_corrupt(sender)
    outcome.violations = check_gradecast_invariants(
        outputs, sender_honest, value
    )


def _run_dolev_strong(
    outcome: RunOutcome,
    config: ProtocolConfig,
    strategy: Strategy,
    plan: CorruptionPlan,
    rng: Randomness,
) -> None:
    from repro.protocols.dolev_strong import run_dolev_strong

    sender = 0
    value = 1
    equivocating = strategy.equivocating_sender and plan.is_corrupt(sender)
    byzantine = sorted(plan.corrupted - {sender})
    outputs, metrics = run_dolev_strong(
        list(range(config.n)),
        sender,
        value,
        rng.fork("protocol"),
        equivocating_sender=equivocating,
        byzantine=byzantine,
    )
    outcome.measured_bits = metrics.max_bits_per_party
    sender_honest = not plan.is_corrupt(sender)
    outcome.violations = check_broadcast_invariants(
        outputs, sender_honest, value
    )


def _run_srds(
    outcome: RunOutcome,
    config: ProtocolConfig,
    strategy: Strategy,
    plan: CorruptionPlan,
    params: ProtocolParameters,
    rng: Randomness,
    forge: bool,
) -> None:
    from repro.srds.experiments import (
        run_forgery_experiment,
        run_robustness_experiment,
    )

    scheme = scheme_by_name(config.scheme)
    if strategy.srds_adversary is None:
        raise ConfigurationError(
            f"strategy {strategy.name!r} has no SRDS adversary"
        )
    adversary = strategy.srds_adversary()
    t = max(1, params.max_corruptions(config.n))
    context = f"{strategy.name} on {config.name}"
    if forge:
        verdict = run_forgery_experiment(
            scheme,
            config.n,
            t,
            PKIMode.TRUSTED,
            adversary,
            params=params,
            rng=rng.fork("experiment"),
            plan=plan,
        )
        outcome.violations = check_srds_unforgeability(verdict, context)
    else:
        verdict = run_robustness_experiment(
            scheme,
            config.n,
            t,
            PKIMode.TRUSTED,
            adversary,
            params=params,
            rng=rng.fork("experiment"),
            plan=plan,
        )
        outcome.violations = check_srds_robustness(verdict, context)


# -- the sweep ---------------------------------------------------------------


@dataclass
class CampaignSummary:
    """One sweep's aggregate result."""

    outcomes: List[RunOutcome]
    seed: int
    budget: int
    bench_path: Optional[str] = None

    @property
    def passed(self) -> int:
        return sum(1 for o in self.outcomes if not o.failed)

    @property
    def expected_failures(self) -> int:
        return sum(
            1 for o in self.outcomes if o.failed and o.expected_failure
        )

    @property
    def unexpected_failures(self) -> List[RunOutcome]:
        return [o for o in self.outcomes if o.unexpected]

    @property
    def ok(self) -> bool:
        return not self.unexpected_failures


def run_campaign(
    budget: int,
    seed: int,
    *,
    include_planted: bool = False,
    results_dir: Optional[str] = None,
    catalog: Optional[StrategyCatalog] = None,
    matrix=None,
    emit=None,
    only: Optional[Sequence[str]] = None,
) -> CampaignSummary:
    """Sweep the first ``budget`` cells of the matrix.

    ``only`` restricts the sweep to the named protocol configs (each
    name validated against the matrix, so a typo is loud rather than an
    empty sweep).  Writes ``BENCH_campaign.json`` under ``results_dir``
    when given.  ``emit`` is an optional line sink (the CLI passes
    ``print``).
    """
    if budget < 1:
        raise ConfigurationError("campaign budget must be >= 1")
    catalog = catalog if catalog is not None else default_catalog()
    cells = enumerate_cells(
        seed, matrix=matrix, catalog=catalog, include_planted=include_planted
    )
    if only is not None:
        for name in only:
            config_by_name(name, matrix)  # loud on unknown names
        wanted = set(only)
        cells = [cell for cell in cells if cell.config.name in wanted]
    cells = cells[:budget]
    say = emit if emit is not None else (lambda line: None)
    outcomes: List[RunOutcome] = []
    for index, cell in enumerate(cells):
        outcome = execute_spec(cell.spec, catalog=catalog, matrix=matrix)
        outcomes.append(outcome)
        status = "ok"
        if outcome.failed:
            status = (
                "EXPECTED-FAIL" if outcome.expected_failure else "FAIL"
            )
        say(
            f"[{index + 1:3d}/{len(cells)}] {status:13s} "
            f"{format_spec(outcome.spec)}  ({outcome.wall_time:.2f}s)"
        )
        if outcome.failed:
            for violation in outcome.violations:
                say(f"      violation {violation.name}: {violation.detail}")
            if outcome.error is not None:
                say(f"      loud {outcome.error_type}: {outcome.error}")
            say(f"      repro: {format_spec(outcome.spec)}")
    summary = CampaignSummary(outcomes=outcomes, seed=seed, budget=budget)
    if results_dir is not None:
        summary.bench_path = str(_write_bench(summary, results_dir))
    return summary


def _write_bench(summary: CampaignSummary, results_dir: str):
    from repro.obs.bench import bench_payload, write_bench_json

    extra = {
        "seed": summary.seed,
        "budget": summary.budget,
        "cells": len(summary.outcomes),
        "passed": summary.passed,
        "expected_failures": summary.expected_failures,
        "unexpected_failures": len(summary.unexpected_failures),
        "specs": [format_spec(o.spec) for o in summary.outcomes],
        "failing_specs": [
            format_spec(o.spec) for o in summary.outcomes if o.failed
        ],
        "signatures": {
            format_spec(o.spec): list(o.signature)
            for o in summary.outcomes
            if o.failed
        },
    }
    return write_bench_json(results_dir, bench_payload("campaign", extra=extra))
