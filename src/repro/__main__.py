"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``ba [n]`` — run pi_ba with both SRDS constructions; print agreement,
  certificate size, and per-party communication.
* ``attacks`` — the Thm 1.3 (CRS) and Thm 1.4 (OWF) attacks, summarized.
* ``tree [n]`` — build an almost-everywhere tree under random corruption
  and print its Def. 2.3 guarantees.
* ``runtime [n] [tcp] [trace-dir]`` — run protocols over the
  event-driven asyncio runtime: phase-king under a seeded fault plan
  (reordering, duplication, a crash), then the pi_ba differential
  parity check (hybrid-model reference vs wire replay over the
  transport).  Pass ``tcp`` to use loopback TCP sockets instead of
  in-process queues; pass a directory to dump per-party JSONL traces.
  ``--flow-out FILE`` attaches the wire-level flow ledger to the pi_ba
  replay and writes its ``repro-flow/1`` report; ``--metrics-out FILE``
  flushes the Prometheus snapshot (flow summary comment included)
  through the same atomic helper the cluster and gateway CLIs use.
* ``report [path]`` — assemble the benchmark records from
  ``benchmarks/results/`` into one measured-experiment report (stdout,
  or written to ``path``).
* ``obs report [path] [n] [--out dir]`` — observability: with no
  ``path``, run pi_ba fresh (default n=16) under both SRDS
  constructions with phase spans recording, print the per-phase and
  per-party communication tables, and verify that every party's phase
  sums equal its ``bits_total`` (exit 0 iff they all match); with a
  ``BENCH_*.json`` path, render that record; with a trace directory,
  summarize its per-party JSONL streams.  ``--out dir`` additionally
  writes ``BENCH_*.json`` records and Perfetto timeline JSON there.
* ``obs timeline <trace-dir> <out.json>`` — convert a runtime trace
  directory into Chrome trace-event JSON (loads in ui.perfetto.dev).
* ``obs top <FLOW_*.json> [--k N] [--spill]`` — the hottest cells of a
  wire-level flow report (who sent how many bits to whom, in which
  round/phase, over which wire); ``--spill`` also counts the evicted
  cells in the report's spill JSONL.
* ``obs flows <FLOW_*.json> [--by phase|kind|party]`` — the flow
  report's aggregate views: bits per protocol phase, per wire kind,
  and per party (sent/received, exact even under cell eviction).
* ``obs diff <baseline> <fresh> [--wall-tolerance F] [--json]`` — the
  bench regression gate: compare fresh ``BENCH_*.json`` records (file
  vs file, or directory vs directory) against committed baselines.
  Bit counts and structural counts are gated exactly (any drift is a
  hard failure, nonzero exit); wall clocks only warn.
* ``obs profile [n] [--phases a,b] [--memory] [--top K]`` — opt-in
  phase-scoped profiling: run pi_ba fresh under a cProfile-per-span
  collector (plus tracemalloc peaks with ``--memory``) and print the
  hottest functions of each selected phase.
* ``obs merge <spans-dir> <out.json> [--wall]`` — merge a span
  directory (supervisor + worker + session tracks; the cluster CLI's
  ``--spans-dir`` writes one) into a single Perfetto timeline, every
  track labeled with the run's shared trace id.
* ``lint {check,baseline,explain,rules}`` — protocol-aware static
  analysis: determinism (seeded randomness, injected clocks),
  bits-accounting (no byte path bypasses ``CommunicationMetrics``),
  async-safety, exception hygiene, and wire-codec rules with a
  ratcheted committed baseline (``lint check`` fails only on *new*
  violations; ``lint explain DET001`` documents a rule).
* ``cluster {run,resume,status,bench}`` — sharded multi-process party
  execution: shard the party set across worker OS processes with
  durable checkpoints and crash-restart recovery (``run --kill 3:1``
  SIGKILLs worker 1 mid-round to exercise resume), describe a run
  directory (``status``), pick an interrupted run back up (``resume``),
  or record the 1-vs-k-worker scaling benchmark with differential
  parity against the single-process runtime (``bench``).
* ``serve {run,client,bench}`` — the agreement-as-a-service gateway:
  a long-running asyncio server multiplexing concurrent BA sessions
  with admission control and explicit backpressure, amortized SRDS
  setup across sessions (Corollary 1.2), a newline-delimited JSON
  client protocol plus ``GET /metrics`` Prometheus scraping on the
  same port, and graceful SIGTERM drain.  ``serve bench`` records the
  pipelined repeated-BA throughput (``BENCH_gateway.json``) with
  bit-tally parity against a one-shot run.
* ``aba [n] [--seed S] [--policy latency|adversarial] [--latency NAME]
  [--adaptive NAME] [--bench DIR]`` — the asynchronous baseline: run
  MMR14 common-coin binary agreement over the adversarially-scheduled
  asyncio model (no round synchronizer), print the decision, round
  count, and per-party bits; ``--latency`` picks a delivery model
  (fixed/uniform/lognormal/partition-heal/random-delay), ``--policy
  adversarial`` hands delivery *order* to a seeded adversary,
  ``--adaptive`` arms a mid-run corruption strategy
  (adaptive-coin/adaptive-first-aux).  ``--bench DIR`` instead sweeps
  all models and both n in {16, 64} against π_ba on identical cells and
  writes ``BENCH_aba.json``.
* ``campaign {run,replay,minimize,list}`` — adversarial conformance
  campaigns: sweep Byzantine strategies x fault schedules x protocol
  configs with invariant checking (``run --budget 25 --seed 0``),
  re-execute a failing run from its single-line repro spec
  (``replay``), shrink it to a minimal failing instance
  (``minimize``), or show the matrix (``list``).

Longer, annotated versions of these demos live in ``examples/``.
"""

from __future__ import annotations

import sys

from repro.analysis.tables import format_bits
from repro.net.adversary import random_corruption
from repro.params import ProtocolParameters
from repro.utils.randomness import Randomness


def _cmd_ba(n: int) -> int:
    from repro.protocols.balanced_ba import run_balanced_ba
    from repro.srds.base_sigs import HashRegistryBase
    from repro.srds.owf import OwfSRDS
    from repro.srds.snark_based import SnarkSRDS

    params = ProtocolParameters()
    rng = Randomness(2021)
    plan = random_corruption(n, params.max_corruptions(n), rng.fork("c"))
    inputs = {i: i % 2 for i in range(n)}
    print(f"pi_ba: n={n}, t={plan.t}, split inputs")
    for label, scheme in (
        ("snark-srds", SnarkSRDS(base_scheme=HashRegistryBase())),
        ("owf-srds", OwfSRDS(message_bits=64)),
    ):
        result = run_balanced_ba(inputs, plan, scheme, params,
                                 rng.fork(label))
        print(
            f"  {label:<11} agree={result.agreement} y={result.agreed_value} "
            f"cert={result.certificate_bytes:,}B "
            f"max/party={format_bits(result.metrics.max_bits_per_party)} "
            f"imbalance={result.metrics.imbalance:.2f}"
        )
    return 0


def _cmd_runtime(n: int, kind: str, trace_dir=None,
                 metrics_out=None, flow_out=None) -> int:
    from repro.net.metrics import CommunicationMetrics
    from repro.protocols.balanced_ba import run_balanced_ba
    from repro.protocols.phase_king import run_phase_king
    from repro.runtime import (
        FaultPlan,
        TraceRecorder,
        run_balanced_ba_runtime,
        run_phase_king_runtime,
    )
    from repro.runtime.trace import summarize
    from repro.srds.base_sigs import HashRegistryBase
    from repro.srds.snark_based import SnarkSRDS

    flow = None
    registry = None
    if metrics_out is not None or flow_out is not None:
        from repro.obs.flow import FlowLedger
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        spill = (
            flow_out.with_name(flow_out.name + ".spill.jsonl")
            if flow_out is not None else None
        )
        flow = FlowLedger(spill_path=spill, registry=registry)

    params = ProtocolParameters()
    rng = Randomness(2021)
    print(f"runtime: n={n}, transport={kind}")

    # 1. Phase-king over the event-driven runtime, hostile schedule.
    inputs = {i: i % 2 for i in range(n)}
    byzantine = sorted(rng.fork("byz").sample(range(n), max(1, (n - 1) // 3)))
    faults = FaultPlan(
        crashes={byzantine[0]: 2},
        reorder=True,
        duplicate_probability=0.05,
        rng=rng.fork("faults"),
    )
    trace = TraceRecorder()
    outputs, metrics = run_phase_king_runtime(
        inputs, byzantine, transport=kind, fault_plan=faults, trace=trace
    )
    reference, _ = run_phase_king(inputs, byzantine)
    decided = set(outputs.values())
    print(
        f"  phase-king  honest={len(outputs)} byz={len(byzantine)} "
        f"(1 crashed@r2) agree={len(decided) == 1} "
        f"matches-sync={outputs == reference} "
        f"max/party={format_bits(metrics.max_bits_per_party)}"
    )
    counts = summarize(
        event for p in trace.party_ids for event in trace.events_of(p)
    )
    print(
        f"  trace       events={trace.count():,} "
        f"(send={counts.get('send', 0):,} recv={counts.get('recv', 0):,} "
        f"barriers={counts.get('round-barrier', 0):,}) "
        f"max-queue-depth={trace.max_queue_depth()}"
    )
    if trace_dir is not None:
        paths = trace.dump_dir(trace_dir)
        print(f"  trace       {len(paths)} JSONL files -> {trace_dir}")

    # 2. pi_ba: hybrid-model reference vs wire replay over the transport.
    plan_rng = Randomness(7)
    from repro.net.adversary import random_corruption

    plan = random_corruption(n, params.max_corruptions(n), plan_rng.fork("c"))
    scheme = SnarkSRDS(base_scheme=HashRegistryBase())
    ref = run_balanced_ba(inputs, plan, scheme, params, Randomness(99))
    runtime_metrics = CommunicationMetrics()
    runtime_metrics.attach_flow(flow)
    res, replay = run_balanced_ba_runtime(
        inputs, plan, scheme, params, Randomness(99), transport=kind,
        metrics=runtime_metrics,
    )
    parity = (
        res.outputs == ref.outputs
        and res.metrics.max_bits_per_party == ref.metrics.max_bits_per_party
        and res.metrics.total_bits == ref.metrics.total_bits
    )
    print(
        f"  pi_ba       t={plan.t} wire-replay rounds={replay.rounds} "
        f"agree={res.agreement} parity-with-hybrid={parity} "
        f"max/party={format_bits(res.metrics.max_bits_per_party)}"
    )

    if flow is not None:
        import json as json_mod

        from repro.obs.flush import flush_metrics_file, write_atomic_text

        flow_problems = flow.verify_against(runtime_metrics)
        print(f"  flow        coverage={flow.coverage():.1%} "
              f"parity={not flow_problems}")
        for problem in flow_problems:
            print(f"    {problem}")
        if flow_out is not None:
            name = flow_out.stem
            if name.startswith("FLOW_"):
                name = name[len("FLOW_"):]
            payload = flow.report(
                name, metrics=runtime_metrics,
                extra={"n": n, "transport": kind, "workload": "pi-ba"},
            )
            write_atomic_text(
                flow_out,
                json_mod.dumps(payload, sort_keys=True, indent=2) + "\n",
            )
            print(f"  flow        report -> {flow_out}")
        if metrics_out is not None:
            flush_metrics_file(metrics_out, registry, flow=flow)
            print(f"  metrics     snapshot -> {metrics_out}")
        flow.close()
        if flow_problems:
            return 1
    return 0 if parity else 1


def _cmd_aba(args) -> int:
    import pathlib

    from repro.asynchrony.adaptive import ADAPTIVE_STRATEGIES
    from repro.asynchrony.bench import MAX_EXPECTED_ROUNDS, run_aba_bench
    from repro.asynchrony.driver import run_aba
    from repro.net.latency import LATENCY_MODEL_NAMES

    n = 16
    seed = 2025
    policy = "latency"
    latency = None
    adaptive = None
    bench_dir = None
    rest = list(args)
    while rest:
        arg = rest.pop(0)
        if arg == "--seed":
            if not rest or not rest[0].lstrip("-").isdigit():
                print("--seed needs an integer")
                return 2
            seed = int(rest.pop(0))
        elif arg == "--policy":
            if not rest or rest[0] not in ("latency", "adversarial"):
                print("--policy needs one of: latency, adversarial")
                return 2
            policy = rest.pop(0)
        elif arg == "--latency":
            if not rest or rest[0] not in LATENCY_MODEL_NAMES:
                print(f"--latency needs one of: "
                      f"{', '.join(LATENCY_MODEL_NAMES)}")
                return 2
            latency = rest.pop(0)
        elif arg == "--adaptive":
            if not rest or rest[0] not in ADAPTIVE_STRATEGIES:
                print(f"--adaptive needs one of: "
                      f"{', '.join(sorted(ADAPTIVE_STRATEGIES))}")
                return 2
            adaptive = rest.pop(0)
        elif arg == "--bench":
            if not rest:
                print("--bench needs a results directory")
                return 2
            bench_dir = pathlib.Path(rest.pop(0))
        elif arg.isdigit():
            n = int(arg)
        else:
            print("usage: aba [n] [--seed S] "
                  "[--policy latency|adversarial] [--latency NAME] "
                  "[--adaptive NAME] [--bench DIR]")
            return 2

    if bench_dir is not None:
        payload = run_aba_bench(results_dir=bench_dir)
        print(f"BENCH_aba.json -> {bench_dir} "
              f"(round gate: <= {MAX_EXPECTED_ROUNDS})")
        for row in payload["extra"]["comparison"]:
            print(
                f"  n={row['n']:<3} "
                f"aba={format_bits(row['aba_max_bits_per_party'])}/party "
                f"pi_ba={format_bits(row['pi_ba_max_bits_per_party'])}/party "
                f"ratio={row['ratio_aba_over_pi_ba']:.2f}"
            )
        return 0

    result = run_aba(
        n, seed=seed, policy=policy, latency=latency, adaptive=adaptive
    )
    model = latency or ("(adversary picks order)"
                        if policy == "adversarial" else "fixed")
    print(f"aba: n={n} seed={seed} policy={policy} latency={model}"
          + (f" adaptive={adaptive}" if adaptive else ""))
    agreed = result.agreed_value
    print(
        f"  decided={agreed} rounds={result.rounds} "
        f"deliveries={result.deliveries:,} "
        f"corrupted={result.corrupted or '[]'} "
        f"max/party={format_bits(result.metrics.max_bits_per_party)}"
    )
    return 0 if agreed is not None else 1


def _cmd_attacks() -> int:
    from repro.lowerbounds.crs_attack import attack_success_rate as crs_rate
    from repro.lowerbounds.owf_attack import attack_success_rate as owf_rate

    rng = Randomness(1)
    crs = crs_rate(200, 30, 10, 40, rng.fork("crs"))
    pki = crs_rate(200, 30, 10, 40, rng.fork("pki"), with_pki=True)
    print(f"Thm 1.3  CRS-only single-round boost: victim errs {crs:.0%}")
    print(f"         with PKI/SRDS certificates:  victim errs {pki:.0%}")
    weak = owf_rate(80, 12, 6, secret_bits=8, effort_bits=12, trials=15,
                    rng=rng.fork("w"))
    strong = owf_rate(80, 12, 6, secret_bits=40, effort_bits=12, trials=15,
                      rng=rng.fork("s"))
    print(f"Thm 1.4  invertible (8-bit) PKI keys: victim errs {weak:.0%}")
    print(f"         one-way (40-bit) PKI keys:   victim errs {strong:.0%}")
    return 0


def _cmd_tree(n: int) -> int:
    from repro.aetree import analyze, build_tree

    params = ProtocolParameters()
    rng = Randomness(7)
    plan = random_corruption(n, params.max_corruptions(n), rng.fork("c"))
    tree = build_tree(n, params, rng.fork("t"), honest_root_hint=plan.honest)
    report = analyze(tree, plan)
    print(f"(n, I)-tree for n={n}, t={plan.t}:")
    print(f"  leaves={report.num_leaves} height={report.height} "
          f"z={tree.z} z*={tree.z_star}")
    print(f"  good-path leaves: {report.good_path_leaf_fraction:.1%}")
    print(f"  well-connected parties: {report.well_connected_fraction:.1%}")
    print(f"  supreme committee 2/3-honest: {report.root_is_good}")
    return 0


def _obs_fresh_report(n: int, out_dir=None) -> int:
    """Run pi_ba under both SRDS schemes with span recording and verify
    the phase attribution invariant; optionally persist BENCH + timeline."""
    import time as time_mod

    from repro.analysis.report import (
        render_party_phase_table,
        render_phase_breakdown,
    )
    from repro.obs.bench import bench_payload, write_bench_json
    from repro.obs.spans import SpanLog, recording, span
    from repro.net.metrics import CommunicationMetrics
    from repro.obs.timeline import export_chrome_trace
    from repro.protocols.balanced_ba import run_balanced_ba
    from repro.srds.base_sigs import HashRegistryBase
    from repro.srds.owf import OwfSRDS
    from repro.srds.snark_based import SnarkSRDS

    params = ProtocolParameters()
    rng = Randomness(2021)
    plan = random_corruption(n, params.max_corruptions(n), rng.fork("c"))
    inputs = {i: i % 2 for i in range(n)}
    print(f"obs report: pi_ba n={n}, t={plan.t}, split inputs")
    all_ok = True
    for label, scheme in (
        ("snark-srds", SnarkSRDS(base_scheme=HashRegistryBase())),
        ("owf-srds", OwfSRDS(message_bits=64)),
    ):
        log = SpanLog()
        metrics = CommunicationMetrics()
        started = time_mod.perf_counter()
        with recording(log):
            with span("obs-report", scheme=label):
                result = run_balanced_ba(
                    inputs, plan, scheme, params, rng.fork(label),
                    metrics=metrics,
                )
        elapsed = time_mod.perf_counter() - started
        print(f"\n== {label} "
              f"(agree={result.agreement}, wall={elapsed:.2f}s) ==")
        print(render_phase_breakdown(metrics.phase_breakdown()))
        print()
        print(render_party_phase_table(metrics))
        sums = [
            sum(metrics.bits_by_phase(p).values())
            for p in sorted(metrics.party_ids)
        ]
        totals = [
            metrics.tally_of(p).bits_total
            for p in sorted(metrics.party_ids)
        ]
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
            payload = bench_payload(
                f"obs_report_{label.replace('-', '_')}",
                snapshot=metrics.snapshot(),
                phase_breakdown=metrics.phase_breakdown(),
                wall_times={"pi_ba": elapsed},
                extra={"n": n, "t": plan.t, "scheme": label,
                       "agreement": result.agreement},
            )
            bench_path = write_bench_json(out_dir, payload)
            timeline_path = export_chrome_trace(
                out_dir / f"timeline_{label.replace('-', '_')}.json",
                trace=None,
                spans=log,
            )
            print(f"wrote {bench_path} and {timeline_path}")
    return 0 if all_ok else 1


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


def _obs_top(rest) -> int:
    import pathlib

    from repro.obs.flow import load_flow_json, load_spill

    k = 20
    spill = False
    target = None
    rest = list(rest)
    while rest:
        arg = rest.pop(0)
        if arg == "--k":
            if not rest or not rest[0].isdigit():
                print("--k needs a count")
                return 2
            k = int(rest.pop(0))
        elif arg == "--spill":
            spill = True
        else:
            target = pathlib.Path(arg)
    if target is None:
        print("usage: obs top <FLOW_*.json> [--k N] [--spill]")
        return 2
    payload = load_flow_json(target)
    print(
        f"flow report {payload['name']}: "
        f"{format_bits(payload['total_bits'])} data "
        f"(+{format_bits(payload['control_bits'])} control), "
        f"coverage={payload['coverage']:.1%}, "
        f"cells={payload['live_cells']} live "
        f"/ {payload['evicted_cells']} evicted"
    )
    cells = list(payload.get("top_cells", []))
    if spill and payload.get("spill_path"):
        spill_file = pathlib.Path(payload["spill_path"])
        if spill_file.exists():
            cells.extend(c.to_wire() for c in load_spill(spill_file))
            cells.sort(key=lambda c: (-c["bits"], c["round"], c["phase"]))
        else:
            print(f"  (spill file {spill_file} missing; live cells only)")
    print(f"{'bits':>14}  {'frames':>7}  {'rnd':>4}  "
          f"{'edge':<22}  {'kind':<10} phase")
    for cell in cells[:k]:
        edge = f"{_party_label(cell['src'])}->{_party_label(cell['dst'])}"
        print(
            f"{cell['bits']:>14,}  {cell['frames']:>7,}  "
            f"{cell['round']:>4}  {edge:<22}  "
            f"{cell['kind']:<10} {cell['phase']}"
        )
    return 0


def _obs_flows(rest) -> int:
    import pathlib

    from repro.obs.flow import load_flow_json

    by = None
    target = None
    rest = list(rest)
    while rest:
        arg = rest.pop(0)
        if arg == "--by":
            if not rest or rest[0] not in ("phase", "kind", "party"):
                print("--by needs one of: phase, kind, party")
                return 2
            by = rest.pop(0)
        else:
            target = pathlib.Path(arg)
    if target is None:
        print("usage: obs flows <FLOW_*.json> [--by phase|kind|party]")
        return 2
    payload = load_flow_json(target)
    total = payload["total_bits"]
    if by in (None, "phase"):
        print("bits by phase:")
        for phase, bits in sorted(
            payload["by_phase"].items(), key=lambda kv: (-kv[1], kv[0])
        ):
            share = bits / total if total else 0.0
            print(f"  {format_bits(bits):>12}  {share:>6.1%}  {phase}")
    if by in (None, "kind"):
        print("bits by wire kind:")
        for kind, bits in sorted(
            payload["by_kind"].items(), key=lambda kv: (-kv[1], kv[0])
        ):
            print(f"  {format_bits(bits):>12}  {kind}")
    if by in (None, "party"):
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


def _obs_diff(rest) -> int:
    import pathlib

    from repro.obs.regression import (
        WALL_TOLERANCE,
        diff_dirs,
        diff_files,
        diffs_to_json,
        render_diffs,
    )

    tolerance = WALL_TOLERANCE
    as_json = False
    paths = []
    rest = list(rest)
    while rest:
        arg = rest.pop(0)
        if arg == "--wall-tolerance":
            if not rest:
                print("--wall-tolerance needs a fraction")
                return 2
            tolerance = float(rest.pop(0))
        elif arg == "--json":
            as_json = True
        else:
            paths.append(pathlib.Path(arg))
    if len(paths) != 2:
        print("usage: obs diff <baseline> <fresh> "
              "[--wall-tolerance F] [--json]")
        return 2
    baseline, fresh = paths
    if baseline.is_dir() and fresh.is_dir():
        results = diff_dirs(baseline, fresh, wall_tolerance=tolerance)
    elif baseline.is_file() and fresh.is_file():
        results = [diff_files(baseline, fresh, wall_tolerance=tolerance)]
    else:
        print(f"need two files or two directories, got "
              f"{baseline} and {fresh}")
        return 2
    if as_json:
        print(diffs_to_json(results), end="")
    else:
        print(render_diffs(results))
    return 0 if all(result.ok for result in results) else 1


def _obs_profile(rest) -> int:
    from repro.net.metrics import CommunicationMetrics
    from repro.obs.profile import TOP_FUNCTIONS, PhaseProfiler
    from repro.obs.spans import recording
    from repro.protocols.balanced_ba import run_balanced_ba
    from repro.srds.base_sigs import HashRegistryBase
    from repro.srds.snark_based import SnarkSRDS

    n = 16
    phases = None
    memory = False
    top = TOP_FUNCTIONS
    rest = list(rest)
    while rest:
        arg = rest.pop(0)
        if arg == "--phases":
            if not rest:
                print("--phases needs a comma-separated list")
                return 2
            phases = {p for p in rest.pop(0).split(",") if p}
        elif arg == "--memory":
            memory = True
        elif arg == "--top":
            if not rest or not rest[0].isdigit():
                print("--top needs a count")
                return 2
            top = int(rest.pop(0))
        elif arg.isdigit():
            n = int(arg)
        else:
            print("usage: obs profile [n] [--phases a,b] "
                  "[--memory] [--top K]")
            return 2
    params = ProtocolParameters()
    rng = Randomness(2021)
    plan = random_corruption(n, params.max_corruptions(n), rng.fork("c"))
    inputs = {i: i % 2 for i in range(n)}
    watched = "all spans" if phases is None else ",".join(sorted(phases))
    print(f"obs profile: pi_ba n={n} t={plan.t} snark-srds "
          f"(profiling {watched}, memory={memory})")
    profiler = PhaseProfiler(phases=phases, memory=memory)
    metrics = CommunicationMetrics()
    try:
        with recording(profiler):  # type: ignore[arg-type]
            result = run_balanced_ba(
                inputs, plan, SnarkSRDS(base_scheme=HashRegistryBase()),
                params, rng.fork("profile"), metrics=metrics,
            )
    finally:
        profiler.stop()
    print(f"agree={result.agreement} "
          f"max/party={format_bits(metrics.max_bits_per_party)}\n")
    print(profiler.render(top))
    return 0


def _obs_merge(rest) -> int:
    import pathlib

    from repro.obs.merge import export_merged_trace, load_span_dir
    from repro.obs.timeline import validate_trace_events

    wall = "--wall" in rest
    paths = [arg for arg in rest if arg != "--wall"]
    if len(paths) != 2:
        print("usage: obs merge <spans-dir> <out.json> [--wall]")
        return 2
    trace_id, tracks = load_span_dir(pathlib.Path(paths[0]))
    path = export_merged_trace(
        pathlib.Path(paths[1]), tracks, trace_id,
        deterministic=False if wall else None,
    )
    import json as json_mod

    document = json_mod.loads(path.read_text(encoding="utf-8"))
    validate_trace_events(document["traceEvents"])
    spans = sum(len(records) for records in tracks.values())
    print(f"merged timeline: {len(tracks)} tracks "
          f"({', '.join(sorted(tracks))}), {spans} spans, "
          f"trace={trace_id or '(none)'} -> {path}")
    return 0


def _cmd_obs(args) -> int:
    import pathlib

    if not args:
        args = ["report"]
    sub, *rest = args
    if sub == "top":
        return _obs_top(rest)
    if sub == "flows":
        return _obs_flows(rest)
    if sub == "diff":
        return _obs_diff(rest)
    if sub == "profile":
        return _obs_profile(rest)
    if sub == "merge":
        return _obs_merge(rest)
    if sub == "timeline":
        from repro.obs.timeline import export_chrome_trace, load_trace_dir

        if len(rest) != 2:
            print("usage: obs timeline <trace-dir> <out.json>")
            return 2
        events = load_trace_dir(pathlib.Path(rest[0]))
        path = export_chrome_trace(pathlib.Path(rest[1]), trace=events)
        print(f"timeline ({sum(len(e) for e in events.values()):,} events, "
              f"{len(events)} parties) -> {path}")
        return 0
    if sub != "report":
        print("usage: obs {report,timeline,top,flows,diff,profile,merge}")
        return 2

    out_dir = None
    n = 16
    target = None
    rest = list(rest)
    while rest:
        arg = rest.pop(0)
        if arg == "--out":
            if not rest:
                print("--out needs a directory")
                return 2
            out_dir = pathlib.Path(rest.pop(0))
        elif arg.isdigit():
            n = int(arg)
        else:
            target = pathlib.Path(arg)

    if target is None:
        return _obs_fresh_report(n, out_dir)

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
        if out_dir is not None:
            path = export_chrome_trace(out_dir / "timeline.json", trace=events)
            print(f"timeline -> {path}")
        return 0

    if target.suffix == ".json":
        from repro.analysis.report import render_bench_record
        from repro.obs.bench import load_bench_json

        print(render_bench_record(load_bench_json(target)))
        return 0

    print(f"don't know how to report on {target}")
    return 2


def main(argv) -> int:
    if not argv:
        print(__doc__)
        return 2
    command, *args = argv
    if command == "ba":
        return _cmd_ba(int(args[0]) if args else 64)
    if command == "aba":
        return _cmd_aba(args)
    if command == "attacks":
        return _cmd_attacks()
    if command == "tree":
        return _cmd_tree(int(args[0]) if args else 256)
    if command == "runtime":
        import pathlib

        n = 16
        kind = "local"
        trace_dir = None
        metrics_out = None
        flow_out = None
        rest = list(args)
        while rest:
            arg = rest.pop(0)
            if arg in ("local", "tcp"):
                kind = arg
            elif arg.isdigit():
                n = int(arg)
            elif arg == "--metrics-out":
                if not rest:
                    print("--metrics-out needs a file")
                    return 2
                metrics_out = pathlib.Path(rest.pop(0))
            elif arg == "--flow-out":
                if not rest:
                    print("--flow-out needs a file")
                    return 2
                flow_out = pathlib.Path(rest.pop(0))
            else:
                trace_dir = arg
        return _cmd_runtime(n, kind, trace_dir, metrics_out, flow_out)
    if command == "report":
        import pathlib

        from repro.analysis.report import assemble_report, write_report

        if args:
            write_report(pathlib.Path(args[0]))
            print(f"report written to {args[0]}")
        else:
            print(assemble_report())
        return 0
    if command == "obs":
        return _cmd_obs(args)
    if command == "serve":
        from repro.serve.cli import cmd_serve

        return cmd_serve(args)
    if command == "campaign":
        from repro.campaign.cli import cmd_campaign

        return cmd_campaign(args)
    if command == "cluster":
        from repro.cluster.cli import cmd_cluster

        return cmd_cluster(args)
    if command == "lint":
        from repro.lint.cli import cmd_lint

        return cmd_lint(args)
    print(__doc__)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
