"""``python -m repro serve`` — the gateway operator interface.

Subcommands::

    serve run [--host H] [--port P] [--max-sessions K]
              [--retry-after S] [--drain-deadline S] [--cache-entries N]
              [--metrics-out FILE] [--port-file FILE]
              [--flow-cells N] [--flow-out FILE]
        Run the agreement-as-a-service gateway until SIGTERM/SIGINT (or
        a client ``shutdown`` op), then drain gracefully and exit 0.
        ``--port 0`` (default) binds an OS-assigned port; ``--port-file``
        publishes whatever port was bound for scripts to discover.
        ``--flow-out`` enables the wire-level flow ledger and writes its
        ``repro-flow/1`` report on shutdown; ``--metrics-out`` flushes
        atomically and carries the flow summary as a comment line.

    serve client <op> --port P [--host H] [op-specific flags]
        One-shot NDJSON client.  Ops: ping, submit (--n --scheme --seed
        --repeat --inputs, add --wait to also await the result), await
        (--session, --timeout), status [--session], cancel (--session),
        metrics, shutdown.  Prints the gateway's JSON response; exit 0
        iff the response has ``ok: true``.

    serve bench [--n N] [--scheme {snark,snark-hash,owf}] [--seed S]
                [--repeat R] [--sessions K] [--results-dir DIR]
        The ``BENCH_gateway.json`` record: boot an in-process gateway,
        drive K concurrent same-key sessions of R pipelined decisions
        each over real loopback TCP, and record what they decided.
        Exit 0 iff (a) every session's value and per-party bit tallies
        match a one-shot reference run of the same spec, (b) every
        decision is within budget and (c) in every session, every
        decision after the first was a setup-lease hit — the one SRDS
        setup+keygen is paid once per session at most, the operational
        shape of Corollary 1.2's amortization.  The record holds no
        wall clock: ``benchmarks/layers`` times leases and sessions.
"""

from __future__ import annotations

import argparse
import asyncio
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import GatewayError, ReproError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="agreement-as-a-service gateway",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run = sub.add_parser("run", help="run the gateway server")
    run.add_argument("--host", default="127.0.0.1")
    run.add_argument("--port", type=int, default=0)
    run.add_argument("--max-sessions", type=int, default=2)
    run.add_argument("--retry-after", type=float, default=0.5)
    run.add_argument("--drain-deadline", type=float, default=30.0)
    run.add_argument("--cache-entries", type=int, default=8)
    run.add_argument("--metrics-out", type=Path, default=None)
    run.add_argument("--port-file", type=Path, default=None)
    run.add_argument(
        "--flow-cells", type=int, default=0,
        help="enable the wire-level flow ledger with this cell capacity",
    )
    run.add_argument(
        "--flow-out", type=Path, default=None,
        help="write the final repro-flow/1 report here on shutdown "
             "(implies the flow ledger)",
    )

    client = sub.add_parser("client", help="one-shot NDJSON client")
    client.add_argument(
        "op",
        choices=("ping", "submit", "await", "status", "cancel",
                 "metrics", "shutdown"),
    )
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, required=True)
    client.add_argument("--session", default=None)
    client.add_argument("--timeout", type=float, default=None)
    client.add_argument("--n", type=int, default=16)
    client.add_argument(
        "--scheme", choices=("snark", "snark-hash", "owf"), default="owf"
    )
    client.add_argument("--seed", type=int, default=2021)
    client.add_argument("--repeat", type=int, default=1)
    client.add_argument(
        "--inputs", choices=("split", "zero", "one"), default="split"
    )
    client.add_argument(
        "--wait", action="store_true",
        help="after submit, block until the session finishes",
    )

    bench = sub.add_parser("bench", help="record BENCH_gateway.json")
    bench.add_argument("--n", type=int, default=16)
    bench.add_argument(
        "--scheme", choices=("snark", "snark-hash", "owf"), default="owf"
    )
    bench.add_argument("--seed", type=int, default=2021)
    bench.add_argument("--repeat", type=int, default=4)
    bench.add_argument("--sessions", type=int, default=2)
    bench.add_argument(
        "--results-dir", type=Path, default=Path("benchmarks/results")
    )
    return parser


# -- serve run ---------------------------------------------------------------


def _cmd_run(ns: argparse.Namespace) -> int:
    from repro.serve.server import GatewayConfig, run_gateway

    config = GatewayConfig(
        host=ns.host,
        port=ns.port,
        max_sessions=ns.max_sessions,
        retry_after=ns.retry_after,
        drain_deadline=ns.drain_deadline,
        cache_entries=ns.cache_entries,
        metrics_out=ns.metrics_out,
        port_file=ns.port_file,
        flow_cells=ns.flow_cells,
        flow_out=ns.flow_out,
    )
    return asyncio.run(run_gateway(config))


# -- serve client ------------------------------------------------------------


def _cmd_client(ns: argparse.Namespace) -> int:
    from repro.serve.client import GatewayClient

    with GatewayClient(ns.host, ns.port) as client:
        if ns.op == "ping":
            response = client.ping()
        elif ns.op == "submit":
            response = client.submit_with_retry(
                n=ns.n, scheme=ns.scheme, seed=ns.seed,
                repeat=ns.repeat, inputs=ns.inputs,
            )
            if ns.wait and response.get("ok"):
                response = client.await_result(
                    str(response["session"]), ns.timeout
                )
        elif ns.op == "await":
            if ns.session is None:
                raise GatewayError("await needs --session")
            response = client.await_result(ns.session, ns.timeout)
        elif ns.op == "status":
            response = client.status(ns.session)
        elif ns.op == "cancel":
            if ns.session is None:
                raise GatewayError("cancel needs --session")
            response = client.cancel(ns.session)
        elif ns.op == "metrics":
            print(client.metrics_text(), end="")
            return 0
        else:
            response = client.shutdown()
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("ok") else 1


# -- serve bench -------------------------------------------------------------


def _session_fields(ns: argparse.Namespace) -> Dict[str, Any]:
    return {
        "n": ns.n, "scheme": ns.scheme, "seed": ns.seed,
        "repeat": ns.repeat, "inputs": "split",
    }


async def _drive_bench(ns: argparse.Namespace) -> List[Dict[str, Any]]:
    """Boot an in-process gateway and run K concurrent TCP sessions."""
    from repro.serve.client import run_session
    from repro.serve.server import GatewayConfig, GatewayServer

    config = GatewayConfig(
        port=0, max_sessions=ns.sessions, drain_deadline=60.0
    )
    server = GatewayServer(config)
    port = await server.start()
    fields = _session_fields(ns)
    clients = [
        asyncio.to_thread(
            run_session, "127.0.0.1", port, await_timeout=None, **fields
        )
        for _ in range(ns.sessions)
    ]
    responses = list(await asyncio.gather(*clients))
    await server.aclose()
    return responses


def _cmd_bench(ns: argparse.Namespace) -> int:
    from repro.obs.bench import bench_payload, write_bench_json
    from repro.serve.sessions import SessionSpec, one_shot_reference

    if ns.repeat < 2:
        print("bench needs --repeat >= 2 (amortization shows from decision 2)")
        return 2
    print(
        f"gateway bench: n={ns.n} scheme={ns.scheme} seed={ns.seed} "
        f"sessions={ns.sessions} repeat={ns.repeat}"
    )
    responses = asyncio.run(_drive_bench(ns))
    failures = [r for r in responses if not r.get("ok")]
    if failures:
        print(f"FAIL: {len(failures)} sessions did not complete: "
              f"{failures[0].get('error')}")
        return 1

    spec = SessionSpec(**_session_fields(ns))
    reference = one_shot_reference(spec)
    results = [r["result"] for r in responses]
    parity = all(
        r["value"] == reference["value"]
        and r["per_party_bits"] == reference["per_party_bits"]
        for r in results
    )
    within_budget = all(r["within_budget"] for r in results)

    # Amortized: in every session, every decision after the first was
    # a lease hit (the session's own counts, so which lane a session
    # lands on does not matter).
    amortized = all(
        r["setup_cache"]["hits"] >= r["decisions"] - 1 for r in results
    )
    decisions = sum(r["decisions"] for r in results)

    print(f"  decisions={decisions} parity-with-one-shot={parity} "
          f"within-budget={within_budget} amortized={amortized}")

    payload = bench_payload(
        "gateway",
        extra={
            "spec": spec.to_wire(),
            "sessions": ns.sessions,
            "decisions": decisions,
            "parity_with_one_shot": parity,
            "within_budget": within_budget,
            "amortized": amortized,
            "budget_bits": reference["budget_bits"],
            "max_bits_per_party": reference["max_bits_per_party"],
            "per_party_bits": reference["per_party_bits"],
            "certificate_bytes": reference["certificate_bytes"],
        },
    )
    path = write_bench_json(ns.results_dir, payload)
    print(f"  wrote {path}")
    ok = parity and within_budget and amortized
    if not ok:
        print("FAIL: bench acceptance (parity, budget AND amortization) not met")
    return 0 if ok else 1


def cmd_serve(argv: Optional[List[str]] = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        if ns.subcommand == "run":
            return _cmd_run(ns)
        if ns.subcommand == "client":
            return _cmd_client(ns)
        return _cmd_bench(ns)
    except ReproError as exc:
        print(f"error: {exc}")
        return 1
