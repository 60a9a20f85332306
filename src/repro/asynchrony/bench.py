"""BENCH_aba.json: asynchronous ABA vs synchronous π_ba, same cells.

The point of the record is the paper's headline contrast made concrete:
MMR14 ABA is the classic *O(n)-bits-per-party-per-round* asynchronous
baseline, π_ba is the paper's polylog(n)-bits synchronous protocol.
Running both on identical ``(n, seed)`` cells and reading
``max_bits_per_party`` off the same
:class:`~repro.net.metrics.CommunicationMetrics` ledger shows the gap
(and its growth in ``n``) without any modeling slack in between.

The ABA half also doubles as the subsystem's round-count gate: every
cell asserts the observed decision round stays within
:data:`MAX_EXPECTED_ROUNDS` — twice the MMR14 expected-round bound —
under every latency model *and* the adversarial-order scheduler.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

from repro.errors import ProtocolError
from repro.asynchrony.driver import run_aba
from repro.obs.bench import bench_payload, write_bench_json

#: Latency models every bench cell sweeps (plus the adversarial policy).
BENCH_LATENCY_MODELS = ("fixed", "uniform", "lognormal", "partition-heal")

#: MMR14 decides each round w.p. ≥ 1/2 ⇒ expected ≤ ~4 rounds; the gate
#: allows twice that before calling the run a regression.
MAX_EXPECTED_ROUNDS = 8


def _aba_cell(n: int, seed: int, mode: str) -> Dict[str, Any]:
    if mode == "adversarial":
        result = run_aba(n, seed=seed, policy="adversarial")
    else:
        result = run_aba(n, seed=seed, latency=mode)
    if result.rounds > MAX_EXPECTED_ROUNDS:
        raise ProtocolError(
            f"ABA n={n} seed={seed} mode={mode} took {result.rounds} "
            f"rounds (gate: {MAX_EXPECTED_ROUNDS} = 2x the MMR14 bound)"
        )
    agreed = result.agreed_value
    if agreed is None:
        raise ProtocolError(
            f"ABA n={n} seed={seed} mode={mode} violated agreement"
        )
    return {
        "mode": mode,
        "n": n,
        "seed": seed,
        "rounds": result.rounds,
        "deliveries": result.deliveries,
        "agreed_value": agreed,
        "max_bits_per_party": result.metrics.max_bits_per_party,
        "total_bits": result.metrics.total_bits,
    }


def _pi_ba_cell(n: int, seed: int, scheme_name: str) -> Dict[str, Any]:
    from repro.net.metrics import CommunicationMetrics
    from repro.params import ProtocolParameters
    from repro.net.adversary import CorruptionPlan
    from repro.protocols.balanced_ba import run_balanced_ba
    from repro.srds import scheme_by_name
    from repro.utils.randomness import Randomness

    metrics = CommunicationMetrics()
    result = run_balanced_ba(
        {i: i % 2 for i in range(n)},
        CorruptionPlan(corrupted=frozenset(), n=n),
        scheme_by_name(scheme_name),
        ProtocolParameters(),
        Randomness(seed).fork("bench/pi-ba"),
        metrics=metrics,
    )
    return {
        "n": n,
        "seed": seed,
        "scheme": scheme_name,
        "agreement": result.agreement,
        "max_bits_per_party": result.metrics.max_bits_per_party,
        "total_bits": result.metrics.total_bits,
    }


def run_aba_bench(
    party_counts: Sequence[int] = (16, 64),
    seed: int = 2025,
    scheme_name: str = "snark",
    results_dir: Optional[Union[str, Path]] = None,
) -> Dict[str, Any]:
    """Sweep ABA (all models + adversarial) and π_ba per cell.

    Returns the assembled BENCH payload; also writes
    ``BENCH_aba.json`` when ``results_dir`` is given.
    """
    cells = []
    comparison = []
    for n in party_counts:
        aba_fixed: Optional[Dict[str, Any]] = None
        for mode in (*BENCH_LATENCY_MODELS, "adversarial"):
            cell = _aba_cell(n, seed, mode)
            cells.append(cell)
            if mode == "fixed":
                aba_fixed = cell
        pi_ba = _pi_ba_cell(n, seed, scheme_name)
        assert aba_fixed is not None
        comparison.append(
            {
                "n": n,
                "seed": seed,
                "aba_max_bits_per_party": aba_fixed["max_bits_per_party"],
                "pi_ba_max_bits_per_party": pi_ba["max_bits_per_party"],
                "ratio_aba_over_pi_ba": (
                    aba_fixed["max_bits_per_party"]
                    / max(1, pi_ba["max_bits_per_party"])
                ),
                "pi_ba": pi_ba,
            }
        )
    payload = bench_payload(
        "aba",
        extra={
            "description": (
                "MMR14 asynchronous ABA vs synchronous pi_ba, "
                "max_bits_per_party on identical (n, seed) cells"
            ),
            "max_expected_rounds": MAX_EXPECTED_ROUNDS,
            "aba_cells": cells,
            "comparison": comparison,
        },
    )
    if results_dir is not None:
        write_bench_json(results_dir, payload)
    return payload
