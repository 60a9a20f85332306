"""``python -m repro cluster`` — the cluster operator interface.

Subcommands::

    cluster run [--workload {pi-ba,phase-king}] [--n N] [--workers K]
                [--scheme {snark,owf}] [--seed S] [--run-dir DIR]
                [--checkpoint-interval I] [--kill ROUND:WORKER ...]
                [--metrics-out FILE] [--flow-out FILE] [--flow-cells N]
                [--spans-dir DIR] [--timeline-out FILE]
        Execute a workload sharded across K worker processes; print the
        agreement/parity summary and the run directory (checkpoints,
        worker logs, supervisor state).  ``--flow-out`` enables the
        wire-level flow ledger and writes its ``repro-flow/1`` report
        (exit 1 on a metrics-parity failure); ``--spans-dir`` /
        ``--timeline-out`` export the cross-process span tracks and the
        merged Perfetto timeline.

    cluster resume --run-dir DIR [same workload flags as run]
        Pick a crashed or interrupted run back up from its last durable
        barrier.  The workload flags must match the original run: the
        supervisor validates the job's name and size against the saved
        state, and the workers restore their parties from the barrier's
        checkpoint files.

    cluster status --run-dir DIR
        Describe a run directory: saved supervisor state, worker
        checkpoint inventory, halted parties.

    cluster bench [--n N] [--workers 1,2,4] [--scheme {snark,owf}]
                  [--seed S] [--results-dir DIR] [--bench-name NAME]
        The ``BENCH_cluster.json`` record: pi_ba replay at each worker
        count with differential parity against ``run_parties`` (no wall
        clock: ``benchmarks/layers`` times the mesh).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.errors import ClusterError


def _parse_kill_plan(items: List[str]) -> Dict[int, int]:
    """``ROUND:WORKER`` pairs → the job's SIGKILL schedule."""
    plan: Dict[int, int] = {}
    for item in items:
        round_str, _, worker_str = item.partition(":")
        try:
            plan[int(round_str)] = int(worker_str)
        except ValueError:
            raise ClusterError(
                f"--kill wants ROUND:WORKER, got {item!r}"
            ) from None
    return plan


def _workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", choices=("pi-ba", "phase-king"),
                        default="pi-ba")
    parser.add_argument("--n", type=int, default=16)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--scheme", choices=("snark", "owf"),
                        default="snark")
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--checkpoint-interval", type=int, default=8)
    parser.add_argument("--run-dir", type=Path, default=None)
    parser.add_argument(
        "--kill", action="append", default=[], metavar="ROUND:WORKER",
        help="worker WORKER SIGKILLs itself mid-round ROUND "
             "(repeatable; exercises checkpoint recovery)",
    )
    parser.add_argument(
        "--trace-dir", type=Path, default=None,
        help="trace the run and dump the merged per-party JSONL trace "
             "here (feed it to 'python -m repro obs timeline' for a "
             "Perfetto view); without it no worker records a trace",
    )
    parser.add_argument(
        "--metrics-out", type=Path, default=None,
        help="flush a Prometheus text snapshot here on exit "
             "(atomic; carries the flow summary as a comment line)",
    )
    parser.add_argument(
        "--flow-out", type=Path, default=None,
        help="write the wire-level repro-flow/1 report here "
             "(enables the flow ledger)",
    )
    parser.add_argument(
        "--flow-cells", type=int, default=0,
        help="flow-ledger cell capacity (0 = default when enabled)",
    )
    parser.add_argument(
        "--spans-dir", type=Path, default=None,
        help="dump supervisor + worker span tracks here (feed it to "
             "'python -m repro obs merge' for the merged timeline)",
    )
    parser.add_argument(
        "--timeline-out", type=Path, default=None,
        help="write the merged supervisor+worker Perfetto timeline here",
    )


def _dump_traces(result, trace_dir: Optional[Path]) -> None:
    """Write the merged per-party JSONL trace for timeline export."""
    if trace_dir is None:
        return
    trace_dir.mkdir(parents=True, exist_ok=True)
    result.trace.dump_dir(trace_dir)
    print(f"traces: {trace_dir}")


def _dump_observability(args: argparse.Namespace, result, flow,
                        registry) -> int:
    """Write the run's flow / metrics / span artifacts; 0 unless the
    flow ledger failed bit-exact parity with the metrics ledger."""
    from repro.obs.flush import finish_artifacts
    from repro.obs.merge import (
        cluster_tracks,
        dump_span_dir,
        export_merged_trace,
    )

    status = 0
    payload = finish_artifacts(
        flow, registry, args.flow_out, args.metrics_out,
        metrics=result.metrics,
        extra={
            "n": args.n,
            "workload": args.workload,
            "scheme": args.scheme,
            "seed": args.seed,
            "workers": args.workers,
            "rounds": result.rounds,
            "trace_id": result.trace_id,
        },
    )
    if payload is not None:
        if payload["parity_problems"]:
            status = 1
            print(f"flow parity FAILED: {payload['parity_problems'][:3]}")
        print(
            f"flow: {args.flow_out} coverage={payload['coverage']} "
            f"parity={payload['parity_with_metrics']}"
        )
    if args.metrics_out is not None and registry is not None:
        print(f"metrics: {args.metrics_out}")
    if args.spans_dir is not None or args.timeline_out is not None:
        tracks = cluster_tracks(result)
        if args.spans_dir is not None:
            dump_span_dir(args.spans_dir, result.trace_id, tracks)
            print(f"spans: {args.spans_dir}")
        if args.timeline_out is not None:
            export_merged_trace(
                args.timeline_out, tracks, result.trace_id
            )
            print(f"timeline: {args.timeline_out}")
    return status


def _run_workload(args: argparse.Namespace, resume: bool) -> int:
    from repro.analysis.tables import format_bits
    from repro.cluster.drivers import run_balanced_ba_cluster
    from repro.cluster.supervisor import ClusterConfig, read_state
    from repro.net.adversary import random_corruption
    from repro.params import ProtocolParameters
    from repro.runtime.placements import mesh
    from repro.runtime.trace import TraceRecorder
    from repro.srds import scheme_by_name
    from repro.utils.randomness import Randomness

    if resume and args.run_dir is None:
        print("cluster resume needs --run-dir")
        return 2
    # A run traces only when asked to; a resumed one traces iff the
    # saved run did, so --trace-dir cannot add a trace mid-run.
    trace = None
    if args.trace_dir is not None and not resume:
        trace = TraceRecorder()
    elif args.trace_dir is not None:
        state = read_state(args.run_dir)
        if state is not None and state["trace_events"] is None:
            print(
                f"--trace-dir: {args.run_dir} holds an untraced run; a "
                "resumed run traces only if it was traced from round 0"
            )
            return 2
    registry = None
    if args.metrics_out is not None:
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
    flow = None
    if args.flow_out is not None or args.flow_cells > 0:
        from repro.obs.flush import open_flow

        if args.flow_out is None:
            print("--flow-cells needs --flow-out")
            return 2
        flow = open_flow(args.flow_out, registry, args.flow_cells)
    config = ClusterConfig(
        num_workers=args.workers,
        kill_plan=_parse_kill_plan(args.kill),
        registry=registry,
        flow=flow,
    )
    inputs = {i: i % 2 for i in range(args.n)}
    cluster = dict(
        checkpoint_interval=args.checkpoint_interval,
        config=config,
        run_dir=args.run_dir,
        resume=resume,
    )
    if args.workload == "phase-king":
        from repro.protocols.phase_king import build_phase_king

        byzantine = (args.n - 1,) if args.n >= 4 else ()
        parties, honest, max_rounds = build_phase_king(inputs, byzantine)
        result = mesh(name="phase-king", **cluster).run(
            parties, honest, max_rounds, trace=trace
        )
        agree = len({result.outputs[member] for member in honest}) == 1
        label = f"phase-king n={args.n} workers={args.workers}"
    else:
        params = ProtocolParameters()
        rng = Randomness(args.seed)
        plan = random_corruption(
            args.n, params.max_corruptions(args.n), rng.fork("corruption")
        )
        ba_result, result = run_balanced_ba_cluster(
            inputs, plan, scheme_by_name(args.scheme), params,
            rng.fork("protocol"), trace=trace, **cluster,
        )
        agree = ba_result.agreement
        label = (
            f"pi_ba n={args.n} t={plan.t} scheme={args.scheme} "
            f"workers={args.workers}"
        )
    _dump_traces(result, args.trace_dir)
    obs_status = _dump_observability(args, result, flow, registry)
    print(
        f"{label} agree={agree} rounds={result.rounds} "
        f"restarts={result.restarts} "
        f"max/party={format_bits(result.metrics.max_bits_per_party)}"
    )
    print(f"run dir: {result.run_dir}")
    return 0 if agree and obs_status == 0 else 1


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.cluster.supervisor import describe_run

    status = describe_run(args.run_dir)
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0 if status.get("has_state") else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.cluster.drivers import run_cluster_bench

    worker_counts = tuple(
        int(item) for item in args.workers.split(",") if item
    )
    payload = run_cluster_bench(
        n=args.n,
        worker_counts=worker_counts,
        scheme_name=args.scheme,
        seed=args.seed,
        checkpoint_interval=args.checkpoint_interval,
        results_dir=args.results_dir,
        bench_name=args.bench_name,
    )
    extra = payload["extra"]
    print(
        f"cluster bench: n={extra['n']} scheme={extra['scheme']} "
        f"replay_rounds={extra['replay_rounds']}"
    )
    ok = True
    for workers, checks in sorted(
        extra["parity"].items(), key=lambda kv: int(kv[0])
    ):
        verdict = all(checks.values())
        ok = ok and verdict
        print(
            f"  parity @ {workers} workers: "
            f"{'ok' if verdict else 'MISMATCH ' + str(checks)}"
        )
    if args.results_dir is not None:
        print(f"  BENCH_{args.bench_name}.json -> {args.results_dir}")
    return 0 if ok else 1


def cmd_cluster(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro cluster",
        description="sharded multi-process party execution",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run_parser = sub.add_parser("run", help="run a workload on the cluster")
    _workload_args(run_parser)

    resume_parser = sub.add_parser(
        "resume", help="resume a run from its last durable barrier"
    )
    _workload_args(resume_parser)

    status_parser = sub.add_parser("status", help="describe a run directory")
    status_parser.add_argument("--run-dir", type=Path, required=True)

    bench_parser = sub.add_parser(
        "bench", help="1-vs-k-worker parity benchmark"
    )
    bench_parser.add_argument("--n", type=int, default=64)
    bench_parser.add_argument("--workers", default="1,2,4",
                              help="comma-separated worker counts")
    bench_parser.add_argument("--scheme", choices=("snark", "owf"),
                              default="snark")
    bench_parser.add_argument("--seed", type=int, default=2021)
    bench_parser.add_argument("--checkpoint-interval", type=int, default=8)
    bench_parser.add_argument("--results-dir", type=Path, default=None)
    bench_parser.add_argument(
        "--bench-name", default="cluster",
        help="payload name: results land in BENCH_<name>.json "
             "(CI uses 'cluster_ci' for its scaled-down cell)",
    )

    args = parser.parse_args(argv)
    if args.subcommand == "run":
        return _run_workload(args, resume=False)
    if args.subcommand == "resume":
        return _run_workload(args, resume=True)
    if args.subcommand == "status":
        return _cmd_status(args)
    if args.subcommand == "bench":
        return _cmd_bench(args)
    parser.print_help()
    return 2
