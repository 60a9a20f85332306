"""``python -m repro cluster`` — the cluster operator interface.

Subcommands::

    cluster run [--workload {pi-ba,phase-king}] [--n N] [--workers K]
                [--scheme {snark,owf}] [--seed S] [--run-dir DIR]
                [--resume] [--checkpoint-interval I]
                [--kill ROUND:WORKER ...] [--flow-out FILE]
                [--trace-dir DIR]
        Execute a workload sharded across K worker processes; print the
        agreement/parity summary and the run directory (checkpoints,
        worker logs, supervisor state).  ``--flow-out`` enables the
        wire-level flow ledger and writes its ``repro-flow/1`` report
        (exit 1 on a metrics-parity failure); ``--trace-dir`` traces the
        run and dumps its per-party trace, which ``obs timeline`` turns
        into one Perfetto view of every party across the workers.
        ``--resume`` picks a crashed or interrupted run in ``--run-dir``
        back up from its last durable barrier.  The workload flags must
        match the original run: the supervisor validates the job's name
        and size against the saved state, and the workers restore their
        parties from the barrier's checkpoint files.

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


def _run_args(parser: argparse.ArgumentParser) -> None:
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
        "--resume", action="store_true",
        help="resume the run in --run-dir from its last durable barrier",
    )
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
        "--flow-out", type=Path, default=None,
        help="write the wire-level repro-flow/1 report here "
             "(enables the flow ledger)",
    )


def _dump_traces(result, trace_dir: Optional[Path]) -> None:
    """Write the merged per-party JSONL trace for timeline export."""
    if trace_dir is None:
        return
    trace_dir.mkdir(parents=True, exist_ok=True)
    result.trace.dump_dir(trace_dir)
    print(f"traces: {trace_dir}")


def _dump_observability(args: argparse.Namespace, result, flow) -> int:
    """Write the run's flow report; 0 unless the flow ledger failed
    bit-exact parity with the metrics ledger."""
    from repro.obs.flush import finish_artifacts

    status = 0
    payload = finish_artifacts(
        flow, args.flow_out,
        metrics=result.metrics,
        extra={
            "n": args.n,
            "workload": args.workload,
            "scheme": args.scheme,
            "seed": args.seed,
            "workers": args.workers,
            "rounds": result.rounds,
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
    return status


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_bits
    from repro.cluster.supervisor import ClusterConfig, read_state
    from repro.net.adversary import random_corruption
    from repro.params import ProtocolParameters
    from repro.runtime.placements import mesh
    from repro.runtime.replay import replay_balanced_ba
    from repro.runtime.trace import TraceRecorder
    from repro.srds import scheme_by_name
    from repro.utils.randomness import Randomness

    resume = args.resume
    if resume and args.run_dir is None:
        print("cluster run --resume needs --run-dir")
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
    flow = None
    if args.flow_out is not None:
        from repro.obs.flush import open_flow

        flow = open_flow(args.flow_out)
    config = ClusterConfig(
        num_workers=args.workers,
        kill_plan=_parse_kill_plan(args.kill),
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
        ba_result, result = replay_balanced_ba(
            mesh(name="pi-ba-replay", **cluster),
            inputs, plan, scheme_by_name(args.scheme), params,
            rng.fork("protocol"), trace=trace,
        )
        agree = ba_result.agreement
        label = (
            f"pi_ba n={args.n} t={plan.t} scheme={args.scheme} "
            f"workers={args.workers}"
        )
    _dump_traces(result, args.trace_dir)
    obs_status = _dump_observability(args, result, flow)
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

    run_parser = sub.add_parser(
        "run", help="run (or --resume) a workload on the cluster"
    )
    _run_args(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    status_parser = sub.add_parser("status", help="describe a run directory")
    status_parser.add_argument("--run-dir", type=Path, required=True)
    status_parser.set_defaults(func=_cmd_status)

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
    bench_parser.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    return args.func(args)
