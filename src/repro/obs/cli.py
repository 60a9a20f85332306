"""``python -m repro obs`` — the observability operator interface.

Subcommands (``obs`` alone is ``obs report``)::

    obs report [path] [n] [--out DIR]
        With no path, run pi_ba fresh (default n=16) under both SRDS
        constructions with phase spans recording, print the per-phase
        and per-party tables, and verify that every party's phase sums
        equal its ``bits_total`` (exit 0 iff they all match); with a
        ``BENCH_*.json`` path, render that record; with a trace
        directory, summarize its per-party JSONL streams.  ``--out``
        additionally writes BENCH records / Perfetto timelines there.
    obs timeline <trace-dir> <out.json>
        Convert a trace directory into Chrome trace-event JSON.
    obs top <FLOW_*.json> [--k N] [--spill]
        The hottest cells of a wire-level flow report; ``--spill`` also
        counts the evicted cells in the report's spill JSONL.
    obs flows <FLOW_*.json> [--by phase|kind|party]
        The flow report's aggregate views.
    obs diff <baseline> <fresh> [--json]
        The bench regression gate (file vs file, or directory vs
        directory): every field of a record is compared exactly, and
        any difference is named by its JSON path (exit 1 on drift).
    obs profile [n] [--phases a,b] [--memory] [--top K]
        Run pi_ba fresh under a cProfile-per-span collector and print
        the hottest functions of each selected phase.
    obs merge <spans-dir> <out.json> [--wall]
        Merge a span directory (supervisor + worker + session tracks)
        into a single Perfetto timeline.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import List, Optional

from repro.analysis.cli import pi_ba_demo_cell
from repro.analysis.tables import format_bits


def _fresh_report(n: int, out_dir: Optional[Path]) -> int:
    """Run pi_ba under both SRDS schemes with span recording and verify
    the phase attribution invariant; optionally persist BENCH + timeline."""
    from repro.analysis.report import (
        render_party_phase_table,
        render_phase_breakdown,
    )
    from repro.net.metrics import CommunicationMetrics
    from repro.obs.bench import bench_payload, write_bench_json
    from repro.obs.spans import SpanLog, recording, span
    from repro.obs.timeline import export_chrome_trace
    from repro.protocols.balanced_ba import run_balanced_ba

    params, rng, plan, inputs, schemes = pi_ba_demo_cell(n)
    print(f"obs report: pi_ba n={n}, t={plan.t}, split inputs")
    all_ok = True
    for label, scheme in schemes:
        log = SpanLog()
        metrics = CommunicationMetrics()
        started = time.perf_counter()
        with recording(log):
            with span("obs-report", scheme=label):
                result = run_balanced_ba(
                    inputs, plan, scheme, params, rng.fork(label),
                    metrics=metrics,
                )
        elapsed = time.perf_counter() - started
        print(f"\n== {label} "
              f"(agree={result.agreement}, wall={elapsed:.2f}s) ==")
        print(render_phase_breakdown(metrics.phase_breakdown()))
        print()
        print(render_party_phase_table(metrics))
        parties = sorted(metrics.party_ids)
        sums = [sum(metrics.bits_by_phase(p).values()) for p in parties]
        totals = [metrics.tally_of(p).bits_total for p in parties]
        ok = (
            sums == totals
            and max(sums, default=0) == metrics.max_bits_per_party
        )
        all_ok = all_ok and ok
        print(
            f"invariant sum(bits_by_phase) == bits_total per party: "
            f"{'ok' if ok else 'VIOLATED'} "
            f"(max/party={format_bits(metrics.max_bits_per_party)})"
        )
        if out_dir is not None:
            slug = label.replace("-", "_")
            bench_path = write_bench_json(out_dir, bench_payload(
                f"obs_report_{slug}",
                snapshot=metrics.snapshot(),
                phase_breakdown=metrics.phase_breakdown(),
                extra={"n": n, "t": plan.t, "scheme": label,
                       "agreement": result.agreement},
            ))
            timeline_path = export_chrome_trace(
                out_dir / f"timeline_{slug}.json", trace=None, spans=log,
            )
            print(f"wrote {bench_path} and {timeline_path}")
    return 0 if all_ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    n, target = 16, None
    for arg in args.args:
        if arg.isdigit():
            n = int(arg)
        else:
            target = Path(arg)
    if target is None:
        return _fresh_report(n, args.out)

    if target.is_dir():
        from repro.obs.timeline import export_chrome_trace, load_trace_dir
        from repro.runtime.trace import summarize

        events = load_trace_dir(target)
        if not events:
            print(f"no party-*.jsonl files under {target}")
            return 2
        print(f"trace dir {target}: {len(events)} parties")
        for party in sorted(events):
            counts = summarize(events[party])
            parts = " ".join(
                f"{kind}={count}" for kind, count in sorted(counts.items())
            )
            print(f"  party-{party}: {len(events[party])} events ({parts})")
        if args.out is not None:
            path = export_chrome_trace(args.out / "timeline.json", trace=events)
            print(f"timeline -> {path}")
        return 0

    if target.suffix == ".json":
        from repro.analysis.report import render_bench_record
        from repro.obs.bench import load_bench_json

        print(render_bench_record(load_bench_json(target)))
        return 0

    print(f"don't know how to report on {target}")
    return 2


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.obs.timeline import export_chrome_trace, load_trace_dir

    events = load_trace_dir(args.trace_dir)
    path = export_chrome_trace(args.out, trace=events)
    print(f"timeline ({sum(len(e) for e in events.values()):,} events, "
          f"{len(events)} parties) -> {path}")
    return 0


def _party_label(pid: int) -> str:
    """Human name for a flow-ledger endpoint id (pseudo ids included)."""
    from repro.cluster.supervisor import WORKER_PSEUDO_BASE
    from repro.obs.flow import FUNCTIONALITY, INFRA

    if pid == FUNCTIONALITY:
        return "F*"
    if pid == INFRA:
        return "infra"
    if pid <= WORKER_PSEUDO_BASE:
        return f"worker-{WORKER_PSEUDO_BASE - pid}"
    return str(pid)


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.flow import load_flow_json, load_spill

    payload = load_flow_json(args.report)
    print(
        f"flow report {payload['name']}: "
        f"{format_bits(payload['total_bits'])} data "
        f"(+{format_bits(payload['control_bits'])} control), "
        f"coverage={payload['coverage']:.1%}, "
        f"cells={payload['live_cells']} live "
        f"/ {payload['evicted_cells']} evicted"
    )
    cells = list(payload.get("top_cells", []))
    if args.spill and payload.get("spill_path"):
        spill_file = Path(payload["spill_path"])
        if spill_file.exists():
            cells.extend(c.to_wire() for c in load_spill(spill_file))
            cells.sort(key=lambda c: (-c["bits"], c["round"], c["phase"]))
        else:
            print(f"  (spill file {spill_file} missing; live cells only)")
    print(f"{'bits':>14}  {'frames':>7}  {'rnd':>4}  "
          f"{'edge':<22}  {'kind':<10} phase")
    for cell in cells[:args.k]:
        edge = f"{_party_label(cell['src'])}->{_party_label(cell['dst'])}"
        print(
            f"{cell['bits']:>14,}  {cell['frames']:>7,}  "
            f"{cell['round']:>4}  {edge:<22}  "
            f"{cell['kind']:<10} {cell['phase']}"
        )
    return 0


def _cmd_flows(args: argparse.Namespace) -> int:
    from repro.obs.flow import load_flow_json

    payload = load_flow_json(args.report)
    total = payload["total_bits"]
    if args.by in (None, "phase"):
        print("bits by phase:")
        for phase, bits in sorted(
            payload["by_phase"].items(), key=lambda kv: (-kv[1], kv[0])
        ):
            share = bits / total if total else 0.0
            print(f"  {format_bits(bits):>12}  {share:>6.1%}  {phase}")
    if args.by in (None, "kind"):
        print("bits by wire kind:")
        for kind, bits in sorted(
            payload["by_kind"].items(), key=lambda kv: (-kv[1], kv[0])
        ):
            print(f"  {format_bits(bits):>12}  {kind}")
    if args.by in (None, "party"):
        per_party = payload["per_party_bits"]
        print(f"per-party (exact; {len(per_party)} parties):")
        rows = sorted(
            per_party.items(), key=lambda kv: (-kv[1]["total"], int(kv[0]))
        )
        for pid, sides in rows[:10]:
            print(
                f"  party {_party_label(int(pid)):>6}: "
                f"sent={format_bits(sides['sent'])} "
                f"recv={format_bits(sides['received'])}"
            )
        if len(rows) > 10:
            print(f"  ... and {len(rows) - 10} more")
    if payload.get("parity_with_metrics") is not None:
        print(f"parity with CommunicationMetrics: "
              f"{payload['parity_with_metrics']}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.obs.regression import (
        diff_dirs,
        diff_files,
        diffs_to_json,
        render_diffs,
    )

    baseline, fresh = args.baseline, args.fresh
    if baseline.is_dir() and fresh.is_dir():
        results = diff_dirs(baseline, fresh)
    elif baseline.is_file() and fresh.is_file():
        results = [diff_files(baseline, fresh)]
    else:
        print(f"need two files or two directories, got "
              f"{baseline} and {fresh}")
        return 2
    if args.json:
        print(diffs_to_json(results), end="")
    else:
        print(render_diffs(results))
    return 0 if all(result.ok for result in results) else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.net.metrics import CommunicationMetrics
    from repro.obs.profile import PhaseProfiler
    from repro.obs.spans import recording
    from repro.protocols.balanced_ba import run_balanced_ba

    phases = (
        {p for p in args.phases.split(",") if p}
        if args.phases is not None else None
    )
    params, rng, plan, inputs, schemes = pi_ba_demo_cell(args.n)
    watched = "all spans" if phases is None else ",".join(sorted(phases))
    print(f"obs profile: pi_ba n={args.n} t={plan.t} snark-srds "
          f"(profiling {watched}, memory={args.memory})")
    profiler = PhaseProfiler(phases=phases, memory=args.memory)
    metrics = CommunicationMetrics()
    try:
        with recording(profiler):  # type: ignore[arg-type]
            result = run_balanced_ba(
                inputs, plan, schemes[0][1], params, rng.fork("profile"),
                metrics=metrics,
            )
    finally:
        profiler.stop()
    print(f"agree={result.agreement} "
          f"max/party={format_bits(metrics.max_bits_per_party)}\n")
    print(profiler.render(args.top))
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from repro.obs.merge import export_merged_trace, load_span_dir
    from repro.obs.timeline import validate_trace_events

    trace_id, tracks = load_span_dir(args.spans_dir)
    path = export_merged_trace(
        args.out, tracks, trace_id,
        deterministic=False if args.wall else None,
    )
    document = json.loads(path.read_text(encoding="utf-8"))
    validate_trace_events(document["traceEvents"])
    spans = sum(len(records) for records in tracks.values())
    print(f"merged timeline: {len(tracks)} tracks "
          f"({', '.join(sorted(tracks))}), {spans} spans, "
          f"trace={trace_id or '(none)'} -> {path}")
    return 0


def cmd_obs(argv: List[str]) -> int:
    from repro.obs.profile import TOP_FUNCTIONS

    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description="phase attribution, flow reports, timelines, "
                    "profiles and the bench regression gate",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    report = sub.add_parser("report", help="phase tables + invariant check")
    report.add_argument("args", nargs="*", metavar="path | n")
    report.add_argument("--out", type=Path, default=None, metavar="DIR")
    report.set_defaults(func=_cmd_report)

    timeline = sub.add_parser("timeline", help="trace dir -> Perfetto JSON")
    timeline.add_argument("trace_dir", type=Path)
    timeline.add_argument("out", type=Path)
    timeline.set_defaults(func=_cmd_timeline)

    top = sub.add_parser("top", help="hottest cells of a flow report")
    top.add_argument("report", type=Path)
    top.add_argument("--k", type=int, default=20)
    top.add_argument("--spill", action="store_true")
    top.set_defaults(func=_cmd_top)

    flows = sub.add_parser("flows", help="aggregate views of a flow report")
    flows.add_argument("report", type=Path)
    flows.add_argument("--by", choices=("phase", "kind", "party"),
                       default=None)
    flows.set_defaults(func=_cmd_flows)

    diff = sub.add_parser("diff", help="bench regression gate")
    diff.add_argument("baseline", type=Path)
    diff.add_argument("fresh", type=Path)
    diff.add_argument("--json", action="store_true")
    diff.set_defaults(func=_cmd_diff)

    profile = sub.add_parser("profile", help="phase-scoped cProfile")
    profile.add_argument("n", nargs="?", type=int, default=16)
    profile.add_argument("--phases", default=None, metavar="a,b")
    profile.add_argument("--memory", action="store_true")
    profile.add_argument("--top", type=int, default=TOP_FUNCTIONS)
    profile.set_defaults(func=_cmd_profile)

    merge = sub.add_parser("merge", help="span dir -> merged timeline")
    merge.add_argument("spans_dir", type=Path)
    merge.add_argument("out", type=Path)
    merge.add_argument("--wall", action="store_true")
    merge.set_defaults(func=_cmd_merge)

    args = parser.parse_args(argv or ["report"])
    return args.func(args)
