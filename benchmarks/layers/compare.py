"""``compare A B``: is run B a regression against run A?

Each side is one run file or a directory of run files (several runs of
the same code).  Per workload × end-to-end metric this prints both
medians, their ratio (base: A) and a verdict against the bound fixed in
``BENCHMARK.json``:

* ``regressed`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — a side's run-to-run spread is wider than the bound
  and the runs overlap, so neither "unchanged" nor "worse" can be said;
* ``ok`` — otherwise.

``max_bits_per_party`` is exact under a fixed seed, so same-seed sides
are held to bound 0; ``failed_share`` may never rise.  The exit status
is non-zero on any ``regressed`` and on a higher ``failed_share``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Tuple

from benchmarks.layers import SCHEMA
from benchmarks.layers.spec import FAILED_SHARE

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(path: str) -> List[Dict[str, Any]]:
    """The run documents at ``path`` (a file, or every ``*.json`` in a
    directory that carries this benchmark's schema tag)."""
    target = Path(path)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    runs = []
    for file in files:
        document = json.loads(file.read_text())
        if document.get("schema") == SCHEMA and "workloads" in document:
            runs.append(document)
    if not runs:
        raise SystemExit(f"compare: no {SCHEMA} run file at {path}")
    return runs


def bounds() -> Dict[str, Tuple[str, float]]:
    """metric → (better, bound) from ``BENCHMARK.json``."""
    contract = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in contract["end_to_end"]}


def spread(values: List[float]) -> float:
    """Run-to-run spread as a share of the median: the interquartile
    distance with four or more runs, the range with fewer."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if len(values) >= 4:
        low, _, high = statistics.quantiles(values, n=4)
    else:
        low, high = min(values), max(values)
    return (high - low) / abs(middle) if middle else 0.0


def verdict(
    a: List[float], b: List[float], better: str, bound: float
) -> Tuple[str, float]:
    """(``ok`` | ``regressed`` | ``unresolved``, B's median ÷ A's)."""
    base, new = statistics.median(a), statistics.median(b)
    ratio = new / base if base else float("inf") if new else 1.0
    noisy = max(spread(a), spread(b)) > bound
    if better == "higher":  # judge everything as "lower is better"
        a, b, base, new = [-x for x in a], [-x for x in b], -base, -new
    worse_by = (new - base) / abs(base) if base else new
    if noisy:
        if max(b) < min(a):
            return "ok", ratio  # every run of B reads better than every run of A
        if not (min(b) > max(a) and worse_by > bound):
            return "unresolved", ratio
    return ("regressed" if worse_by > bound else "ok"), ratio


def _values(runs: List[Dict[str, Any]], workload: str, metric: str) -> List[float]:
    out = []
    for run in runs:
        entry = run["workloads"].get(workload, {})
        if metric == FAILED_SHARE:
            if FAILED_SHARE in entry:
                out.append(entry[FAILED_SHARE])
        elif metric in entry.get("end_to_end", {}):
            out.append(entry["end_to_end"][metric]["value"])
    return out


def main(path_a: str, path_b: str) -> int:
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    limits = bounds()
    same_seed = {r["seed"] for r in runs_a} == {r["seed"] for r in runs_b}
    workloads = [
        name for name in runs_a[0]["workloads"]
        if any(name in run["workloads"] for run in runs_b)
    ]
    status = 0
    print(f"A = {path_a} ({len(runs_a)} run(s))   B = {path_b} ({len(runs_b)} run(s))")
    print(
        f"{'workload':<20} {'metric':<20} {'median A':>13} {'median B':>13} "
        f"{'B/A':>7} {'bound':>6}  verdict"
    )
    for workload in workloads:
        for metric, (better, bound) in limits.items():
            a = _values(runs_a, workload, metric)
            b = _values(runs_b, workload, metric)
            if not a or not b:
                continue
            if metric == "max_bits_per_party" and same_seed:
                bound = 0.0
            word, ratio = verdict(a, b, better, bound)
            status |= word == "regressed"
            print(
                f"{workload:<20} {metric:<20} {statistics.median(a):>13.6g} "
                f"{statistics.median(b):>13.6g} {ratio:>7.3f} {bound:>6.2f}  {word}"
            )
        a = _values(runs_a, workload, FAILED_SHARE)
        b = _values(runs_b, workload, FAILED_SHARE)
        if a and b:
            higher = max(b) > max(a)
            status |= higher
            print(
                f"{workload:<20} {FAILED_SHARE:<20} {max(a):>13.6g} {max(b):>13.6g} "
                f"{'':>7} {0:>6.2f}  {'regressed' if higher else 'ok'}"
            )
    return int(status)
