"""Gateway flow ledger + trace propagation through the session manager.

Tier-1: everything runs in-process (no sockets, CI-sized n).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.obs.flow import FlowLedger, load_flow_json
from repro.obs.spans import SpanLog
from repro.serve.exposition import metrics_text
from repro.serve.server import GatewayConfig, GatewayServer
from repro.serve.sessions import (
    SessionManager,
    SessionSpec,
    one_shot_reference,
    run_decision,
)
from repro.serve.setup_cache import SetupCache

SMALL = dict(n=6, scheme="snark-hash", seed=11)

#: Every family a gateway's ``/metrics`` holds, flow ledger or not.
GATEWAY_FAMILIES = {
    "repro_gateway_decisions_total",
    "repro_gateway_lane_cpu_seconds_total",
    "repro_gateway_lane_restarts_total",
    "repro_gateway_session_seconds",
    "repro_gateway_sessions_active",
    "repro_gateway_sessions_admitted_total",
    "repro_gateway_sessions_rejected_total",
    "repro_gateway_setup_cache_hits_total",
    "repro_gateway_setup_cache_misses_total",
}


class TestRunDecisionFlow:
    def test_flow_does_not_change_the_decision(self):
        spec = SessionSpec(**SMALL)
        cache = SetupCache()
        lease = cache.lease(spec.scheme, spec.n, spec.seed)
        flow = FlowLedger()
        observed = run_decision(spec, lease, flow=flow)
        reference = one_shot_reference(spec)
        assert observed["value"] == reference["value"]
        assert observed["per_party_bits"] == reference["per_party_bits"]
        # The ledger saw exactly the decision's traffic, fully phased,
        # stamped with the gateway's wire kind.
        totals = flow.party_bits()
        for party, bits in reference["per_party_bits"].items():
            assert totals[int(party)]["total"] == bits
        assert flow.coverage() == 1.0
        assert set(flow.by_kind()) == {"session"}

    def test_span_log_collects_protocol_phases(self):
        spec = SessionSpec(**SMALL)
        cache = SetupCache()
        lease = cache.lease(spec.scheme, spec.n, spec.seed)
        span_log = SpanLog()
        run_decision(spec, lease, span_log=span_log)
        assert "srds-aggregate" in span_log.names
        assert all(r.closed for r in span_log.records)


class TestManagerIntegration:
    def test_trace_echo_and_flow_status(self):
        async def scenario():
            flow = FlowLedger()
            manager = SessionManager(max_sessions=1, flow=flow)
            submitted = manager.submit({**SMALL, "trace": "client-t1"})
            assert submitted["ok"]
            assert submitted["trace"] == "client-t1"
            done = await manager.await_result(submitted["session"])
            assert done["ok"] and done["state"] == "done"
            # Gateway-minted fallback is deterministic in counter + spec.
            minted = manager.submit(dict(SMALL))
            assert minted["trace"] == f"gateway-s2-pi-ba-n{SMALL['n']}"
            await manager.await_result(minted["session"])
            status = manager.status()
            assert status["flow"]["data_bits"] == flow.data_bits > 0
            assert status["flow"]["coverage"] == 1.0
            manager.close()

        asyncio.run(scenario())

    def test_two_decisions_accumulate_in_one_ledger(self):
        async def scenario():
            flow = FlowLedger()
            manager = SessionManager(max_sessions=1, flow=flow)
            first = manager.submit(dict(SMALL))
            await manager.await_result(first["session"])
            once = flow.data_bits
            second = manager.submit(dict(SMALL))
            await manager.await_result(second["session"])
            assert flow.data_bits == 2 * once
            manager.close()

        asyncio.run(scenario())


class TestGatewayMetrics:
    """Prometheus is the gateway's live endpoint and nothing else: the
    flow ledger feeds no series, and the ``--metrics-out`` snapshot is
    the status exposition verbatim (no flow-summary comment)."""

    @pytest.mark.parametrize("with_flow", [False, True])
    def test_snapshot_is_the_gateway_families_alone(self, with_flow, tmp_path):
        flow_out = tmp_path / "FLOW_gw.json" if with_flow else None
        metrics_out = tmp_path / "gw.prom"

        async def scenario():
            server = GatewayServer(GatewayConfig(
                max_sessions=1, flow_out=flow_out, metrics_out=metrics_out,
            ))
            try:
                submitted = server.manager.submit(dict(SMALL))
                done = await server.manager.await_result(submitted["session"])
                assert done["ok"] and done["state"] == "done"
            finally:
                server.manager.close()
            server.flush_metrics()
            return server

        server = asyncio.run(scenario())
        rendered = metrics_text(server.manager.status())
        families = {
            line.split()[2] for line in rendered.splitlines()
            if line.startswith("# TYPE ")
        }
        assert families == GATEWAY_FAMILIES
        assert "repro_flow_" not in rendered
        assert "repro_gateway_decisions_total 1" in rendered
        assert metrics_out.read_text() == rendered
        assert (server.flow is not None) is with_flow
        if with_flow:
            assert load_flow_json(flow_out)["total_bits"] > 0
