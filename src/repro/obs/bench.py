"""Structured benchmark records: ``benchmarks/results/BENCH_<name>.json``.

The text records under ``benchmarks/results/`` are written for humans;
these JSON records make the cost trajectory machine-readable across
changes.  Schema (version 2)::

    {
      "schema": "repro-bench/2",
      "name": "fig3_protocol",
      "snapshot": { ... MetricsSnapshot fields ... },
      "phase_breakdown": {
        "<phase>": {"total_bits": int, "max_bits_per_party": int,
                     "messages": int, "parties": int}
      },
      "extra": { ... free-form experiment knobs ... }
    }

``snapshot`` is :func:`dataclasses.asdict` of a
:class:`~repro.net.metrics.MetricsSnapshot`; ``phase_breakdown`` comes
from :meth:`~repro.net.metrics.CommunicationMetrics.phase_breakdown`.
Keys are sorted on disk so diffs between commits stay minimal.  A
record holds no wall clock: every field is a pure function of the
command line that wrote it, so a committed record is a golden that
``obs diff`` compares exactly (wall time is measured by
``benchmarks/layers``).  Version 1 also carried wall clocks;
:func:`load_bench_json` refuses such a record by its schema name.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.obs.jsonl import load_record

SCHEMA = "repro-bench/2"


def _as_plain(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    return value


def bench_payload(
    name: str,
    *,
    snapshot: Any = None,
    phase_breakdown: Optional[Dict[str, Any]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble one schema-conforming record (plain dicts only)."""
    breakdown = {}
    for phase, stats in (phase_breakdown or {}).items():
        breakdown[phase] = _as_plain(stats)
    payload: Dict[str, Any] = {
        "schema": SCHEMA,
        "name": name,
        "snapshot": _as_plain(snapshot) if snapshot is not None else None,
        "phase_breakdown": breakdown,
        "extra": dict(extra or {}),
    }
    return payload


def write_bench_json(
    results_dir: Union[str, Path], payload: Dict[str, Any]
) -> Path:
    """Persist one record as ``BENCH_<name>.json``; returns the path."""
    if payload.get("schema") != SCHEMA:
        raise ValueError(f"payload schema must be {SCHEMA!r}")
    name = payload["name"]
    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"BENCH_{name}.json"
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    return path


def load_bench_json(path: Union[str, Path]) -> Dict[str, Any]:
    """Read one record back, checking the schema marker."""
    return load_record(path, SCHEMA)
