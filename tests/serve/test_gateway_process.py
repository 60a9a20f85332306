"""Live gateway runs: real sockets, concurrent clients, SIGTERM drain.

Marked ``gateway`` (excluded from tier-1): these boot actual servers —
in-process for the TCP end-to-end tests, a real subprocess for the
signal-handling test — and drive them over loopback TCP.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve.client import GatewayClient, run_session
from repro.serve.exposition import metrics_text
from repro.serve.server import GatewayConfig, GatewayServer
from repro.serve.sessions import SessionSpec, one_shot_reference

pytestmark = pytest.mark.gateway

SMALL = dict(n=6, scheme="snark-hash", seed=11)


def _http_get(port: int, target: str) -> tuple:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(
            f"GET {target} HTTP/1.1\r\nHost: x\r\n\r\n".encode("ascii")
        )
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, body.decode("utf-8")


class TestGatewayOverTcp:
    def test_concurrent_clients_share_setup_and_match_reference(self):
        async def scenario():
            server = GatewayServer(GatewayConfig(port=0, max_sessions=2))
            port = await server.start()
            fields = {**SMALL, "repeat": 2}
            responses = await asyncio.gather(*[
                asyncio.to_thread(
                    run_session, "127.0.0.1", port, **fields
                )
                for _ in range(3)  # 3 clients > 2 lanes: one must retry
            ])
            status, scrape = await asyncio.to_thread(
                _http_get, port, "/metrics"
            )
            cache = server.manager.cache_stats()
            # Once the concurrent burst is over, a same-key session
            # finds a lane that holds the key.
            sequential = await asyncio.to_thread(
                run_session, "127.0.0.1", port, **fields
            )
            await server.aclose()
            return responses, status, scrape, cache, sequential

        responses, status, scrape, cache, sequential = asyncio.run(scenario())
        assert all(r["ok"] for r in responses + [sequential]), responses
        reference = one_shot_reference(SessionSpec(**SMALL))
        for response in responses + [sequential]:
            result = response["result"]
            assert result["value"] == reference["value"]
            assert result["per_party_bits"] == reference["per_party_bits"]
            assert result["within_budget"]
        # At most one keygen per lane (each lane caches its own setup),
        # and every decision either paid it or reused it.
        assert 1 <= cache["misses"] <= 2
        assert cache["hits"] + cache["misses"] == 6  # 3 sessions x 2
        assert sequential["result"]["setup_cache"] == {"hits": 2, "misses": 0}
        # The HTTP half of the port speaks Prometheus.
        assert status == 200
        assert "repro_gateway_sessions_admitted_total 3" in scrape
        assert (
            f"repro_gateway_setup_cache_hits_total {cache['hits']}" in scrape
        )

    def test_backpressure_is_observable_then_drains(self):
        async def scenario():
            server = GatewayServer(
                GatewayConfig(port=0, max_sessions=1, retry_after=0.05)
            )
            port = await server.start()

            def slow_then_retry():
                with GatewayClient("127.0.0.1", port) as client:
                    first = client.submit(**SMALL, repeat=3)
                    assert first["ok"]
                    # The lane is held: an immediate second submit must
                    # be rejected with the structured backpressure reply.
                    rejected = client.submit(**SMALL)
                    assert not rejected["ok"]
                    assert rejected["code"] == "busy"
                    assert rejected["retry_after"] > 0
                    # Honoring retry_after eventually succeeds.
                    retried = client.submit_with_retry(
                        max_attempts=100, **SMALL
                    )
                    assert retried["ok"], retried
                    done = client.await_result(str(retried["session"]))
                    assert done["ok"]
                    return client.await_result(str(first["session"]))

            first_done = await asyncio.to_thread(slow_then_retry)
            scrape = metrics_text(server.manager.status())
            await server.aclose()
            return first_done, scrape

        first_done, scrape = asyncio.run(scenario())
        assert first_done["ok"] and first_done["state"] == "done"
        assert 'repro_gateway_sessions_rejected_total{code="busy"}' in scrape

    def test_get_op_and_snapshot_serve_the_same_bytes(self, tmp_path):
        metrics_out = tmp_path / "gw.prom"

        async def scenario():
            server = GatewayServer(GatewayConfig(
                port=0, max_sessions=1, metrics_out=metrics_out,
            ))
            port = await server.start()
            reply = await asyncio.to_thread(
                run_session, "127.0.0.1", port, **SMALL
            )
            assert reply["ok"], reply
            status, scraped = await asyncio.to_thread(
                _http_get, port, "/metrics"
            )

            def op():
                with GatewayClient("127.0.0.1", port) as client:
                    return client.metrics_text()

            answered = await asyncio.to_thread(op)
            await server.aclose()
            return status, scraped, answered

        status, scraped, answered = asyncio.run(scenario())
        assert status == 200
        assert "repro_gateway_decisions_total 1" in scraped
        assert scraped == answered == metrics_out.read_text()

    def test_malformed_lines_get_structured_rejects(self):
        async def scenario():
            server = GatewayServer(GatewayConfig(port=0))
            port = await server.start()

            def probe():
                with socket.create_connection(
                    ("127.0.0.1", port), timeout=10
                ) as sock:
                    reader = sock.makefile("rb")
                    replies = []
                    for line in (b"{not json}\n", b'{"op": "rm -rf"}\n',
                                 b'{"op": "ping"}\n'):
                        sock.sendall(line)
                        replies.append(json.loads(reader.readline()))
                    return replies

            replies = await asyncio.to_thread(probe)
            await server.aclose()
            return replies

        bad_json, bad_op, ping = asyncio.run(scenario())
        assert bad_json["code"] == "bad-request"
        assert bad_op["code"] == "bad-request"
        assert ping["ok"] and ping["protocol"] == "repro-gateway/1"

    def test_shutdown_op_stops_admission_then_exits(self):
        async def scenario():
            server = GatewayServer(GatewayConfig(port=0))
            port = await server.start()

            def drive():
                with GatewayClient("127.0.0.1", port) as client:
                    assert client.shutdown()["state"] == "draining"
            await asyncio.to_thread(drive)
            status = await asyncio.wait_for(
                server.serve_until_stopped(), timeout=30
            )
            return status

        assert asyncio.run(scenario()) == 0


class TestSigtermDrain:
    def test_sigterm_drains_flushes_metrics_and_exits_zero(self, tmp_path):
        port_file = tmp_path / "port"
        metrics_out = tmp_path / "metrics.prom"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "run",
             "--port-file", str(port_file),
             "--metrics-out", str(metrics_out),
             "--max-sessions", "2", "--drain-deadline", "20"],
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=Path(__file__).resolve().parents[2],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            deadline = time.time() + 30
            while time.time() < deadline and not (
                port_file.exists() and port_file.read_text().strip()
            ):
                assert process.poll() is None, process.stdout.read()
                time.sleep(0.1)
            port = int(port_file.read_text())

            with GatewayClient("127.0.0.1", port) as client:
                submitted = client.submit(**SMALL, repeat=50)
                assert submitted["ok"], submitted
                # SIGTERM lands while the session is mid-pipeline: the
                # gateway must drain it (finish or cooperatively cancel)
                # rather than dropping it on the floor.
                process.send_signal(signal.SIGTERM)
                # The already-open connection keeps working during drain.
                final = client.await_result(
                    str(submitted["session"]), timeout=60
                )
                assert final["ok"], final
                assert final["state"] in ("done", "cancelled")
                assert final["decisions_completed"] >= 1

            out, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()

        assert process.returncode == 0, out
        assert "drained and stopped" in out
        flushed = metrics_out.read_text()
        assert "repro_gateway_sessions_admitted_total 1" in flushed
        assert "repro_gateway_decisions_total" in flushed
