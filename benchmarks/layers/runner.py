"""Run one workload: set-up, the untraced pass, the traced pass, results.

One process runs one workload (``peak_rss_mb`` and ``setup_s`` are
per-process quantities); running every workload spawns one child per
workload and merges their result files.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from benchmarks.layers import IMPORT_T0, SCHEMA
from benchmarks.layers.calib import (
    CALIB_REF_S,
    Host,
    median,
    normalise,
    percentile,
    tail_percentile,
)
from benchmarks.layers.cells import run_cells
from benchmarks.layers.spec import FAILED_SHARE
from benchmarks.layers.trace import (
    HARNESS,
    PHASES,
    NullTracer,
    Tracer,
    layer_shares,
)
from benchmarks.layers.workloads import (
    WORKLOAD_DEADLINE_S,
    WORKLOADS,
    ExecSweep,
    LoopResult,
    run_step,
)

HERE = Path(__file__).resolve().parent
RESULTS_DIR = HERE / "results"
#: Scratch space for port files and cluster run dirs — inside the
#: checkout, because the benchmark may write nowhere else.
WORK_ROOT = HERE / ".work"

#: Set-up is measured once more in a child process and ``setup_s`` is the
#: median of the two — unless the run has already taken this many times
#: ``--seconds`` (a slow host), because the driver caps the total time.
SETUP_CHILD_CUTOFF = 1.2


# -- set-up ---------------------------------------------------------------------------


def _workdir(name: str) -> Path:
    path = WORK_ROOT / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def prepare(
    name: str, seed: int, smoke: bool, host: Host, workdir: Path
) -> Tuple[Any, Dict[str, float]]:
    """Set the workload up and time it from process start.

    Set-up is everything before the first timed op: imports, key and
    script generation, gateway boot and one untimed warm-up op.  Kernel
    runs and input selection that fall inside the window are subtracted
    from it, and it is scaled by the median of those kernel runs (the
    window's own two and the warm-up op's brackets).
    """
    first = len(host.kernel_samples)
    host.kernel()
    workload = WORKLOADS[name](seed, workdir, smoke)
    try:
        workload.setup(host)
        started = time.perf_counter()
        workload.choose_inputs()
        choosing = time.perf_counter() - started
        warm = LoopResult()
        run_step(workload, 0, host, NullTracer(), warm, time.monotonic() + 60.0)
        if warm.failures:
            raise RuntimeError(f"warm-up op failed: {warm.failures[0]}")
        raw = (
            (time.perf_counter() - IMPORT_T0)
            - choosing
            - sum(host.kernel_samples[first:])
        )
        host.kernel()
    except BaseException:
        workload.close(host)
        raise
    scale = median(host.kernel_samples[first:])
    return workload, {"value": normalise(raw, scale, scale), "raw": raw}


def setup_only(name: str, seed: int, smoke: bool) -> Dict[str, float]:
    """What a ``--setup-only`` child does: set up, report, tear down."""
    host = Host()
    workdir = _workdir(name)
    try:
        workload, setup = prepare(name, seed, smoke, host, workdir)
        workload.close(host)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return setup


def _setup_in_child(name: str, seed: int, smoke: bool) -> Dict[str, float]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--setup-only",
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=120.0, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- the two passes --------------------------------------------------------------------


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def _metric(value: float, unit: str, raw: Optional[float] = None) -> Dict[str, Any]:
    entry: Dict[str, Any] = {"value": value, "unit": unit}
    if raw is not None:
        entry["raw"] = raw
    return entry


def closed_loop(workload: Any, host: Host, seconds: float) -> LoopResult:
    """The untraced closed loop; every end-to-end metric comes from here."""
    loop = LoopResult()
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    tracer = NullTracer()
    for k in range(workload.steps(seconds)):
        run_step(workload, k, host, tracer, loop, deadline)
    # The gateway's RSS and CPU are only credited once it is reaped.
    workload.close(host)
    if not loop.latencies:
        raise RuntimeError(
            f"no op of {workload.name} completed: {loop.failures[:3]}"
        )
    return loop


def end_to_end_entry(
    workload: Any,
    loop: LoopResult,
    peak_rss_mb: float,
    setups: List[Dict[str, float]],
) -> Dict[str, Any]:
    """The end-to-end metrics of one finished loop and its set-ups."""
    done = len(loop.latencies)
    pct = tail_percentile(done)
    metrics = {
        "setup_s": _metric(
            median([s["value"] for s in setups]), "s",
            median([s["raw"] for s in setups]),
        ),
        "op_s": _metric(median(loop.latencies), "s", median(loop.raw_latencies)),
        "op_tail_s": _metric(
            percentile(loop.latencies, pct), "s",
            percentile(loop.raw_latencies, pct),
        ),
        "ops_per_s": _metric(done / loop.wall_s, "1/s", done / loop.raw_wall_s),
        "cpu_s_per_op": _metric(loop.cpu_s / done, "s"),
        "max_bits_per_party": _metric(loop.max_bits, "bits"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    return {
        "clients": workload.clients,
        "attempted": loop.attempted,
        "failed": loop.failed,
        FAILED_SHARE: loop.failed / loop.attempted,
        "over_budget_ops": loop.over_budget,
        "tail_percentile": pct,
        "setup_samples": [s["value"] for s in setups],
        "end_to_end": metrics,
        "op_samples_s": loop.latencies,
        "failures": loop.failures[:5],
    }


def phase_metrics(samples: List[Tuple[float, float, Any]]) -> Dict[str, Tuple[float, str]]:
    """Median per-phase seconds over ``(factor, op raw seconds, SpanLog)``
    samples, and the share of the op no phase covers."""
    per_phase: Dict[str, List[float]] = {phase: [] for phase in PHASES}
    uncovered: List[float] = []
    for factor, op_raw_s, log in samples:
        covered = 0.0
        for phase in PHASES:
            wall = log.wall_of(phase) or 0.0
            per_phase[phase].append(wall * factor)
            covered += wall
        uncovered.append(1.0 - covered / op_raw_s)
    out = {
        f"protocols.phase.{phase}_s": (median(values), "s")
        for phase, values in per_phase.items()
    }
    out["protocols.phase.unattributed_share"] = (median(uncovered), "ratio")
    return out


def traced_pass(
    workload: Any, host: Host, seed: int, workdir: Path
) -> Dict[str, Any]:
    """Plain/traced op pairs on identical inputs, then the isolated cells."""
    tracer = Tracer()
    plain, traced = LoopResult(), LoopResult()
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    pairs = 2 if workload.smoke else workload.trace_pairs
    for k in range(pairs):
        # Whichever of a pair runs second finds the first's leases cached,
        # so the order alternates and neither side collects all the misses.
        for into in (plain, traced) if k % 2 == 0 else (traced, plain):
            run_step(
                workload, k, host, tracer if into is traced else NullTracer(),
                into, deadline,
            )
    failures = plain.failures + traced.failures
    if not (plain.latencies and traced.latencies):
        raise RuntimeError(f"traced pass of {workload.name} failed: {failures[:3]}")
    ledger = dict(phase_metrics(workload.probe_phases(host)))
    # Frees the gateway before the cells boot their own; the sweep holds
    # no process and keeps its script.
    workload.close(host)
    is_sweep = isinstance(workload, ExecSweep)
    ledger.update(
        run_cells(
            host, seed, workdir, workload.smoke,
            sweep=workload if is_sweep else None,
            legs=plain.legs if is_sweep else None,
        )
    )
    shares = layer_shares(tracer.spans)
    ledger["obs.trace_overhead_share"] = (
        median(traced.latencies) / median(plain.latencies) - 1.0, "ratio",
    )
    ledger["obs.attributed_share"] = (1.0 - shares.get(HARNESS, 0.0), "ratio")
    ledger["host.calib_ms"] = (host.calib_ms(), "ms")
    ledger["host.calib_spread"] = (host.calib_spread(), "ratio")
    ledger["host.nproc"] = (float(os.cpu_count() or 1), "count")
    return {
        "per_layer": {
            name: _metric(value, unit) for name, (value, unit) in ledger.items()
        },
        "layer_share": shares,
        "trace_ops": len(traced.latencies),
        "trace_failures": failures[:5],
        "spans": tracer.to_json(),
    }


# -- one workload, start to finish ---------------------------------------------------------


def run_workload(
    name: str, seed: int, seconds: float, trace: str, smoke: bool
) -> Dict[str, Any]:
    """Run one workload in this process; returns its result entry.

    ``trace`` is ``"0"`` (untraced pass: end-to-end metrics), ``"1"``
    (traced pass: per-layer metrics) or ``"both"``.
    """
    host = Host()
    workdir = _workdir(name)
    entry: Dict[str, Any] = {"seconds": seconds, "smoke": smoke}
    workload = None
    try:
        workload, own = prepare(name, seed, smoke, host, workdir)
        if trace in ("0", "both"):
            loop = closed_loop(workload, host, seconds)
            peak_rss_mb = _peak_rss_mb()  # before the set-up child adds its own
            setups = [own]
            if time.perf_counter() - IMPORT_T0 < SETUP_CHILD_CUTOFF * seconds:
                setups.append(_setup_in_child(name, seed, smoke))
            entry.update(end_to_end_entry(workload, loop, peak_rss_mb, setups))
        if trace in ("1", "both"):
            if trace == "both":
                workload, _ = prepare(name, seed, smoke, host, workdir)
            entry.update(traced_pass(workload, host, seed, workdir))
    finally:
        if workload is not None:
            workload.close(host)
        shutil.rmtree(workdir, ignore_errors=True)
    entry["host"] = {
        "calib_ms": host.calib_ms(),
        "calib_spread": host.calib_spread(),
        "calib_ref_s": CALIB_REF_S,
        "kernel_runs": len(host.kernel_samples),
    }
    return entry


def result_line(entry: Dict[str, Any], trace: str) -> Dict[str, Any]:
    """The driver's one-line JSON result for a single-workload run."""
    block = entry["per_layer"] if trace == "1" else entry["end_to_end"]
    if trace == "1":
        attempted, failed = entry["trace_ops"], len(entry["trace_failures"])
        attempted += failed
    else:
        attempted, failed = entry["attempted"], entry["failed"]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in block.items()
        },
    }


def print_metrics(name: str, entry: Dict[str, Any]) -> None:
    """Every metric by name with its unit (stdout, human-readable)."""
    print(f"== {name}")
    if "end_to_end" in entry:
        print(
            f"   ops attempted={entry['attempted']} failed={entry['failed']} "
            f"failed_share={entry[FAILED_SHARE]:.4f} "
            f"over_budget={entry['over_budget_ops']} clients={entry['clients']} "
            f"tail=p{entry['tail_percentile']}"
        )
        for metric, m in entry["end_to_end"].items():
            raw = f"   (raw {m['raw']:.6g})" if "raw" in m else ""
            print(f"   {metric:<40} {m['value']:>14.6g} {m['unit']}{raw}")
    for metric, m in entry.get("per_layer", {}).items():
        print(f"   {metric:<40} {m['value']:>14.6g} {m['unit']}")
    for line in entry.get("failures", []) + entry.get("trace_failures", []):
        print(f"   FAILED {line}")


def write_results(seed: int, entries: Dict[str, Dict[str, Any]]) -> Path:
    """Merge entries into ``results/run-<seed>.json``; spans go to
    ``results/trace-<workload>-<seed>.json``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"run-{seed}.json"
    document: Dict[str, Any] = {"schema": SCHEMA, "seed": seed, "workloads": {}}
    if path.exists():
        try:
            previous = json.loads(path.read_text())
        except ValueError:
            previous = {}
        if previous.get("schema") == SCHEMA and previous.get("seed") == seed:
            document = previous
    for name, entry in entries.items():
        entry = dict(entry)
        spans = entry.pop("spans", None)
        if spans is not None:
            trace_path = RESULTS_DIR / f"trace-{name}-{seed}.json"
            trace_path.write_text(
                json.dumps(
                    {"schema": SCHEMA, "workload": name, "seed": seed,
                     "layer_share": entry["layer_share"], "spans": spans}
                )
            )
        document["workloads"].setdefault(name, {}).update(entry)
    path.write_text(json.dumps(document, indent=1, sort_keys=True))
    return path
