"""repro.serve: the agreement-as-a-service gateway.

A long-running asyncio gateway (``python -m repro serve run``) that
multiplexes concurrent BA sessions behind one TCP port: admission
control with explicit backpressure, amortized SRDS setup via a
cross-session :class:`SetupCache` (Corollary 1.2 made operational),
pipelined repeated-BA throughput, and a live Prometheus metrics
surface.  See ``docs/gateway.md`` for the architecture and the wire
protocol, and :mod:`repro.serve.cli` for the operator commands.
"""

from repro.serve.client import GatewayClient, run_session
from repro.serve.server import GatewayConfig, GatewayServer, run_gateway
from repro.serve.sessions import (
    SessionManager,
    SessionRecord,
    SessionSpec,
    make_inputs,
    one_shot_reference,
    run_decision,
)
from repro.serve.setup_cache import SetupCache, SetupLease

__all__ = [
    "GatewayClient",
    "GatewayConfig",
    "GatewayServer",
    "SessionManager",
    "SessionRecord",
    "SessionSpec",
    "SetupCache",
    "SetupLease",
    "make_inputs",
    "one_shot_reference",
    "run_decision",
    "run_gateway",
    "run_session",
]
