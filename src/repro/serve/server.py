"""The agreement-as-a-service gateway server.

One asyncio TCP server multiplexes everything on a single port:

* newline-delimited JSON control connections (:mod:`repro.serve.wire`)
  for submit/await/status/cancel — many concurrent clients, each served
  by a lightweight coroutine while the CPU-bound protocol executions
  run in the :class:`~repro.serve.sessions.SessionManager`'s forked
  lane processes;
* plain ``GET /metrics`` HTTP requests, answered with the Prometheus
  text exposition of the manager's ``status()``
  (:func:`~repro.serve.exposition.metrics_text`, which the ``metrics``
  op and ``--metrics-out`` also serve) — the server sniffs the first
  line of each connection, so ops tooling needs no JSON shim.

Shutdown is graceful by construction: ``SIGTERM``/``SIGINT`` (or the
``shutdown`` op) stop admission first, drain in-flight sessions against
a deadline (escalating to cooperative cancel), flush a final metrics
snapshot to ``--metrics-out``, then release the port and let the
process exit 0.
"""

from __future__ import annotations

import asyncio
import os
import signal
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from repro.errors import GatewayError
from repro.net.bind import bound_port, start_asyncio_server
from repro.obs.flow import FlowLedger
from repro.obs.flush import finish_artifacts, open_flow, write_atomic_text
from repro.serve import wire
from repro.serve.exposition import metrics_text
from repro.serve.sessions import SessionManager
from repro.serve.setup_cache import SetupCache

#: Extra bind retries (jittered) before falling back to an OS port.
_BIND_RETRY_DELAYS = (0.05, 0.1, 0.2)


@dataclass(frozen=True)
class GatewayConfig:
    """Operator-facing knobs of one gateway process."""

    host: str = "127.0.0.1"
    port: int = 0
    max_sessions: int = 2
    retry_after: float = 0.5
    drain_deadline: float = 30.0
    cache_entries: int = 8
    metrics_out: Optional[Path] = None
    port_file: Optional[Path] = None
    #: Where to write the final ``repro-flow/1`` report; setting it
    #: enables wire-level flow accounting.
    flow_out: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise GatewayError("max_sessions must be at least 1")
        if self.drain_deadline <= 0:
            raise GatewayError("drain_deadline must be positive")


def _http_response(status: str, body: str) -> bytes:
    payload = body.encode("utf-8")
    head = (
        f"HTTP/1.1 {status}\r\n"
        "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + payload


class GatewayServer:
    """Lifecycle owner: listener, session manager, shutdown sequence."""

    def __init__(
        self,
        config: GatewayConfig,
        manager: Optional[SessionManager] = None,
    ) -> None:
        self.config = config
        self.flow: Optional[FlowLedger] = None
        if manager is None and config.flow_out is not None:
            self.flow = open_flow(config.flow_out)
        self.manager = manager if manager is not None else SessionManager(
            max_sessions=config.max_sessions,
            retry_after=config.retry_after,
            cache=SetupCache(max_entries=config.cache_entries),
            flow=self.flow,
        )
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopped = asyncio.Event()
        self._shutting_down = False
        self._shutdown_task: Optional["asyncio.Task[None]"] = None
        self._drained_clean: Optional[bool] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> int:
        """Bind, install signal handlers, and begin accepting clients."""
        if self._server is not None:
            raise GatewayError("gateway already started")
        self._server, _busy = await start_asyncio_server(
            self._on_connection,
            self.config.host,
            self.config.port,
            _BIND_RETRY_DELAYS,
        )
        self.port = bound_port(self._server)
        if self.config.port_file is not None:
            self.config.port_file.write_text(f"{self.port}\n")
        self._install_signal_handlers()
        return self.port

    def _install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, self.begin_shutdown, signal.Signals(signum).name
                )
            except (NotImplementedError, RuntimeError):
                # Platform without loop signal support (or a nested
                # loop): shutdown stays reachable via the wire op.
                pass

    def begin_shutdown(self, reason: str = "request") -> None:
        """Idempotent entry into the graceful-shutdown sequence."""
        if self._shutting_down:
            return
        self._shutting_down = True
        self.manager.stop_admitting()
        self._shutdown_task = asyncio.get_running_loop().create_task(
            self._finish_shutdown(reason)
        )

    async def _finish_shutdown(self, reason: str) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._drained_clean = await self.manager.drain(
            self.config.drain_deadline
        )
        self.manager.close()
        self.flush_metrics()
        # One scheduling grace so connection handlers woken by the last
        # sessions' completion flush their response lines before the
        # loop (and its transports) is torn down.
        await asyncio.sleep(0.05)
        self._stopped.set()

    def flush_metrics(self) -> None:
        """Flush the final flow report and metrics snapshot atomically."""
        finish_artifacts(self.flow, self.config.flow_out)
        if self.config.metrics_out is not None:
            write_atomic_text(
                self.config.metrics_out, metrics_text(self.manager.status())
            )

    async def serve_until_stopped(self) -> int:
        """Block until shutdown completes; the process exit status."""
        await self._stopped.wait()
        return 0 if self._drained_clean else 1

    async def aclose(self) -> None:
        """Test convenience: force the full shutdown sequence now."""
        self.begin_shutdown("aclose")
        await self._stopped.wait()

    # -- connection handling ------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            line = await reader.readline()
            if line.startswith(b"GET "):
                await self._serve_http(line, writer)
                return
            while line:
                response = await self._handle_line(line)
                writer.write(wire.encode_line(response))
                await writer.drain()
                line = await reader.readline()
        except (
            ConnectionResetError, BrokenPipeError, asyncio.TimeoutError
        ):
            pass
        except ValueError:
            # StreamReader limit overrun: the line could not even be
            # buffered.  Best-effort reject, then drop the connection.
            try:
                writer.write(wire.encode_line(wire.reject(
                    "bad-request", "request line exceeds stream limit"
                )))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_http(
        self, request_line: bytes, writer: asyncio.StreamWriter
    ) -> None:
        """Answer one HTTP request (scrapers speak GET /metrics)."""
        parts = request_line.decode("ascii", "replace").split()
        target = parts[1] if len(parts) > 1 else ""
        if target in ("/metrics", "/metrics/"):
            body = metrics_text(self.manager.status())
            writer.write(_http_response("200 OK", body))
        else:
            writer.write(_http_response("404 Not Found", "not found\n"))
        await writer.drain()

    async def _handle_line(self, line: bytes) -> Dict[str, Any]:
        """Dispatch one decoded NDJSON request to its handler."""
        try:
            request = wire.decode_request(line.rstrip(b"\r\n"))
        except GatewayError as exc:
            return wire.reject("bad-request", str(exc))
        op = request["op"]
        if op == "ping":
            return wire.ok(
                protocol=wire.PROTOCOL, port=self.port, pid=os.getpid(),
                shutting_down=self._shutting_down,
            )
        if op == "submit":
            return self.manager.submit(request)
        if op == "await":
            return await self.manager.await_result(
                request["session"], request.get("timeout")
            )
        if op == "status":
            return self.manager.status(request.get("session"))
        if op == "cancel":
            return self.manager.cancel(request["session"])
        if op == "metrics":
            return wire.ok(metrics=metrics_text(self.manager.status()))
        if op == "shutdown":
            self.begin_shutdown("shutdown op")
            return wire.ok(state="draining")
        return wire.reject("bad-request", f"unhandled op {op!r}")


async def run_gateway(config: GatewayConfig) -> int:
    """Start one gateway and serve until graceful shutdown; exit status."""
    server = GatewayServer(config)
    port = await server.start()
    print(
        f"repro gateway listening on {config.host}:{port} "
        f"(max_sessions={config.max_sessions}, pid={os.getpid()})",
        flush=True,
    )
    status = await server.serve_until_stopped()
    print(f"repro gateway drained and stopped (status={status})", flush=True)
    return status
