"""The protocol matrix: which configurations a campaign sweeps.

A :class:`ProtocolConfig` names one concrete protocol instantiation —
π_ba with a specific SRDS scheme, the phase-king committee BA (split or
unanimous inputs), gradecast, the Dolev-Strong baseline, the
asynchronous MMR14 ABA, or one of the SRDS security experiments —
together with the party count and the fault schedules that are
meaningful for it (the in-process π_ba execution exposes only the
reordering seam; the runtime placements take the full
crash/delay/partition repertoire; the SRDS experiments and Dolev-Strong
are synchronous one-shots; the ABA configs take the asynchronous
latency / adversarial-order / churn set).

:func:`enumerate_cells` produces the deterministic cell order the
sweep consumes: round-robin across configs so a bounded ``--budget``
prefix still touches the whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.campaign.catalog import (
    KIND_ABA,
    KIND_DOLEV_STRONG,
    KIND_GRADECAST,
    KIND_PHASE_KING,
    KIND_PI_BA,
    KIND_SRDS_FORGE,
    KIND_SRDS_ROBUST,
    StrategyCatalog,
    default_catalog,
)
from repro.campaign.spec import CampaignSpec
from repro.errors import ConfigurationError

# Schedule sets by execution substrate.
_SYNC_ONLY = ("none",)
_IN_PROCESS = ("none", "reorder")
_RUNTIME_FULL = (
    "none",
    "reorder",
    "duplicate",
    "reorder-dup",
    "random-delay",
    "crash-corrupted",
    "partition-early",
    "crash-everyone",
)
# Asynchronous (AsyncScheduler) configs: latency models, the
# worst-case delivery-order adversary, and churn join/leave/collapse.
_ASYNC_FULL = (
    "none",
    "latency-uniform",
    "latency-lognormal",
    "adversarial-order",
    "churn-join",
    "churn-leave",
    "churn-collapse",
)


@dataclass(frozen=True)
class ProtocolConfig:
    """One protocol instantiation the campaign can drive.

    ``kind`` selects the execution path in the runner and which catalog
    strategies apply; ``scheme`` picks the SRDS construction where
    relevant; ``unanimous_inputs`` makes validity (not just agreement)
    the live guarantee; ``backend`` selects the execution substrate —
    ``"inproc"`` (the default single-process path) or ``"cluster"``
    (wire replay sharded across worker OS processes, where the
    ``kill-worker`` schedule arms the supervisor's SIGKILL plan).
    """

    name: str
    kind: str
    n: int
    scheme: Optional[str] = None  # "snark" | "owf"
    unanimous_inputs: bool = False
    schedules: Tuple[str, ...] = _SYNC_ONLY
    backend: str = "inproc"  # "inproc" | "cluster"

    def allows_schedule(self, schedule_name: str) -> bool:
        return schedule_name in self.schedules


_DEFAULT: List[ProtocolConfig] = [
    ProtocolConfig(
        name="pi_ba-snark",
        kind=KIND_PI_BA,
        n=16,
        scheme="snark",
        schedules=_IN_PROCESS,
    ),
    ProtocolConfig(
        name="phase_king",
        kind=KIND_PHASE_KING,
        n=16,
        schedules=_RUNTIME_FULL,
    ),
    ProtocolConfig(
        name="gradecast",
        kind=KIND_GRADECAST,
        n=16,
        schedules=_RUNTIME_FULL,
    ),
    ProtocolConfig(
        name="dolev_strong",
        kind=KIND_DOLEV_STRONG,
        n=8,
        schedules=_SYNC_ONLY,
    ),
    ProtocolConfig(
        name="srds-robust-snark",
        kind=KIND_SRDS_ROBUST,
        n=16,
        scheme="snark",
    ),
    ProtocolConfig(
        name="srds-forge-snark",
        kind=KIND_SRDS_FORGE,
        n=16,
        scheme="snark",
    ),
    ProtocolConfig(
        name="pi_ba-owf",
        kind=KIND_PI_BA,
        n=16,
        scheme="owf",
        schedules=_IN_PROCESS,
    ),
    ProtocolConfig(
        name="phase_king-unanimous",
        kind=KIND_PHASE_KING,
        n=16,
        unanimous_inputs=True,
        schedules=_RUNTIME_FULL,
    ),
    ProtocolConfig(
        name="srds-robust-owf",
        kind=KIND_SRDS_ROBUST,
        n=16,
        scheme="owf",
    ),
    ProtocolConfig(
        name="srds-forge-owf",
        kind=KIND_SRDS_FORGE,
        n=16,
        scheme="owf",
    ),
    ProtocolConfig(
        name="pi_ba-snark-cluster",
        kind=KIND_PI_BA,
        n=16,
        scheme="snark",
        schedules=("none", "kill-worker"),
        backend="cluster",
    ),
    ProtocolConfig(
        name="aba",
        kind=KIND_ABA,
        n=16,
        schedules=_ASYNC_FULL,
    ),
    ProtocolConfig(
        name="aba-unanimous",
        kind=KIND_ABA,
        n=16,
        unanimous_inputs=True,
        schedules=_ASYNC_FULL,
    ),
]


def default_matrix() -> List[ProtocolConfig]:
    """The built-in configs, in deterministic sweep order."""
    return list(_DEFAULT)


def config_by_name(
    name: str, matrix: Optional[List[ProtocolConfig]] = None
) -> ProtocolConfig:
    for config in matrix if matrix is not None else _DEFAULT:
        if config.name == name:
            return config
    raise ConfigurationError(f"unknown protocol config {name!r}")


@dataclass(frozen=True)
class CampaignCell:
    """One (config, strategy, schedule) point with its unresolved spec."""

    config: ProtocolConfig
    strategy_name: str
    schedule_name: str
    spec: CampaignSpec


def enumerate_cells(
    seed: int,
    matrix: Optional[List[ProtocolConfig]] = None,
    catalog: Optional[StrategyCatalog] = None,
    include_planted: bool = False,
) -> List[CampaignCell]:
    """All cells of the matrix in deterministic round-robin order.

    Per config, the cells run strategy-major over the config's schedule
    list; configs are interleaved so a ``--budget N`` prefix samples the
    whole matrix.  ``include_planted`` adds the ``expect_violation``
    strategies (the over-threshold plants) to the sweep.
    """
    matrix = matrix if matrix is not None else default_matrix()
    catalog = catalog if catalog is not None else default_catalog()
    per_config: List[List[CampaignCell]] = []
    for config in matrix:
        cells: List[CampaignCell] = []
        for strategy in catalog.for_kind(config.kind):
            if strategy.expect_violation and not include_planted:
                continue
            for schedule_name in config.schedules:
                spec = CampaignSpec(
                    config=config.name,
                    strategy=strategy.name,
                    schedule=schedule_name,
                    n=config.n,
                    seed=seed,
                )
                cells.append(
                    CampaignCell(
                        config=config,
                        strategy_name=strategy.name,
                        schedule_name=schedule_name,
                        spec=spec,
                    )
                )
        per_config.append(cells)
    # Round-robin interleave.
    interleaved: List[CampaignCell] = []
    index = 0
    while any(index < len(cells) for cells in per_config):
        for cells in per_config:
            if index < len(cells):
                interleaved.append(cells[index])
        index += 1
    return interleaved
