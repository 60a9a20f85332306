"""The bench regression gate: ``obs diff`` against committed baselines.

Every benchmark in this repo writes a ``repro-bench/2`` record
(:mod:`repro.obs.bench`).  A record holds no wall clock, so every field
of it is a deterministic function of the command line that wrote it,
and the committed copies under ``benchmarks/results/`` are goldens.
The gate compares a fresh record to its golden exactly and over the
whole record: every differing leaf, every key present on one side only
and every list whose length changed is a *hard failure*, named by its
JSON path (``extra.comparison[0].aba_max_bits_per_party: 800600 !=
1601200``).  Wall time is measured by ``benchmarks/layers``, not here.

:func:`diff_bench` compares two loaded payloads, :func:`diff_dirs`
pairs ``BENCH_*.json`` files across two directories, and
``python -m repro obs diff`` turns the result into an exit status:
nonzero iff any hard failure anywhere.  The only warning left is dir
mode's "no baseline" / "no fresh copy" for a whole file.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.obs.bench import load_bench_json


@dataclass
class BenchDiff:
    """The verdict of comparing one fresh record to its baseline."""

    name: str
    hard_failures: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.hard_failures

    def to_wire(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "ok": self.ok,
            "hard_failures": list(self.hard_failures),
            "warnings": list(self.warnings),
        }


def _child(path: str, key: str) -> str:
    if re.fullmatch(r"[\w-]+", key):
        return f"{path}.{key}" if path else key
    return f"{path}[{json.dumps(key)}]"


def diff_values(baseline: Any, fresh: Any, path: str = "") -> List[str]:
    """Every difference between two JSON values, named by JSON path."""
    if isinstance(baseline, dict) and isinstance(fresh, dict):
        failures: List[str] = []
        for key in sorted(set(baseline) | set(fresh)):
            where = _child(path, key)
            if key not in fresh:
                failures.append(f"{where}: only in baseline")
            elif key not in baseline:
                failures.append(f"{where}: only in fresh")
            else:
                failures.extend(diff_values(baseline[key], fresh[key], where))
        return failures
    if isinstance(baseline, list) and isinstance(fresh, list):
        failures = []
        if len(baseline) != len(fresh):
            failures.append(
                f"{path}: length {len(baseline)} != {len(fresh)}"
            )
        for index, (old, new) in enumerate(zip(baseline, fresh)):
            failures.extend(diff_values(old, new, f"{path}[{index}]"))
        return failures
    if type(baseline) is not type(fresh) or baseline != fresh:
        shown = [json.dumps(value, sort_keys=True) for value in (baseline, fresh)]
        return [f"{path}: {shown[0]} != {shown[1]}"]
    return []


def diff_bench(baseline: Dict[str, Any], fresh: Dict[str, Any]) -> BenchDiff:
    """Compare one fresh record against its baseline, field by field."""
    name = str(fresh.get("name") or baseline.get("name") or "?")
    return BenchDiff(name=name, hard_failures=diff_values(baseline, fresh))


def diff_files(
    baseline_path: Union[str, Path], fresh_path: Union[str, Path]
) -> BenchDiff:
    """Compare two on-disk records; one that does not load fails."""
    try:
        return diff_bench(
            load_bench_json(baseline_path), load_bench_json(fresh_path)
        )
    except ConfigurationError as exc:
        name = Path(fresh_path).stem.removeprefix("BENCH_")
        return BenchDiff(name=name, hard_failures=[str(exc)])


def pair_bench_files(
    baseline_dir: Union[str, Path], fresh_dir: Union[str, Path]
) -> List[Tuple[str, Optional[Path], Optional[Path]]]:
    """Match ``BENCH_*.json`` files by name across two directories."""
    baseline_dir, fresh_dir = Path(baseline_dir), Path(fresh_dir)
    names: Dict[str, List[Optional[Path]]] = {}
    for index, directory in enumerate((baseline_dir, fresh_dir)):
        if not directory.is_dir():
            continue
        for path in sorted(directory.glob("BENCH_*.json")):
            slot = names.setdefault(path.stem[len("BENCH_"):], [None, None])
            slot[index] = path
    return [
        (name, pair[0], pair[1]) for name, pair in sorted(names.items())
    ]


def diff_dirs(
    baseline_dir: Union[str, Path], fresh_dir: Union[str, Path]
) -> List[BenchDiff]:
    """Gate every fresh record in a directory against its baseline.

    A fresh record with no committed baseline (or vice versa) is a
    warning-only entry — new benchmarks must not fail the gate, and a
    retired one is visible without blocking.
    """
    results: List[BenchDiff] = []
    for name, baseline_path, fresh_path in pair_bench_files(
        baseline_dir, fresh_dir
    ):
        if baseline_path is None or fresh_path is None:
            side = "baseline" if baseline_path is None else "fresh copy"
            results.append(BenchDiff(
                name=name, warnings=[f"no {side} for BENCH_{name}.json"]
            ))
            continue
        results.append(diff_files(baseline_path, fresh_path))
    return results


def render_diffs(results: List[BenchDiff]) -> str:
    """Human-readable multi-line summary of a gate run."""
    lines: List[str] = []
    for result in results:
        verdict = "ok" if result.ok else "FAIL"
        lines.append(f"{result.name}: {verdict}")
        for failure in result.hard_failures:
            lines.append(f"  HARD {failure}")
        for warning in result.warnings:
            lines.append(f"  warn {warning}")
    if not results:
        lines.append("no benchmark records to compare")
    return "\n".join(lines)


def diffs_to_json(results: List[BenchDiff]) -> str:
    """The machine-readable gate verdict (one JSON document)."""
    return json.dumps(
        {
            "ok": all(result.ok for result in results),
            "results": [result.to_wire() for result in results],
        },
        sort_keys=True,
        indent=2,
    ) + "\n"
