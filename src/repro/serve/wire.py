"""The gateway's newline-delimited JSON client protocol.

One request per line, one response per line, UTF-8, ``\\n``-terminated.
Requests are JSON objects with an ``op`` field; responses always carry
``ok`` (bool) and, on failure, ``code`` + ``error`` (and ``retry_after``
seconds when the correct client reaction is to back off and retry —
the gateway's explicit backpressure signal).

Operations (see ``docs/gateway.md`` for the full field tables):

=========  ==============================================================
op         meaning
=========  ==============================================================
ping       liveness probe; echoes the gateway's identity and port
submit     admit one BA session (fields of :class:`SessionSpec`)
await      block until a session finishes (``session``, ``timeout``)
status     gateway-wide summary, or one session with ``session``
cancel     request cooperative cancellation of a session
metrics    Prometheus text exposition as a JSON string field
shutdown   begin graceful shutdown (loopback operator convenience)
=========  ==============================================================

The same TCP port also answers plain ``GET /metrics`` HTTP requests
with the Prometheus text format, so standard scrapers need no JSON
shim; the server sniffs the first bytes of each connection.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any, Dict, Optional

from repro.errors import GatewayError

#: Protocol identifier echoed by ``ping`` and embedded in artifacts.
PROTOCOL = "repro-gateway/1"

#: Hard per-line ceiling: requests are tiny control messages; anything
#: larger is a framing error or abuse, not a legitimate session spec.
MAX_LINE_BYTES = 1 << 20

#: The closed set of request operations.
OPS = ("ping", "submit", "await", "status", "cancel", "metrics", "shutdown")

#: Reject codes a client can receive in an ``ok: false`` response.
#: ``busy`` and ``timeout`` carry ``retry_after``; the rest are terminal.
REJECT_CODES = (
    "busy", "shutting-down", "timeout", "bad-request", "unknown-session",
    "failed",
)


def encode_line(payload: Dict[str, Any]) -> bytes:
    """One wire line: compact JSON + newline."""
    return json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"


def _refuse_constant(token: str) -> Any:
    raise GatewayError(f"non-standard JSON constant {token}")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise GatewayError(f"number {token} overflows a float")
    return value


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into a JSON object (dict).

    Raises :class:`~repro.errors.GatewayError` on oversized, non-JSON
    (``NaN``, ``±Infinity``, a float past the largest such as ``1e400``
    and an int longer than ``int()`` converts: no number field may be
    one), or non-object lines — the caller turns that into a
    ``bad-request`` response rather than tearing the connection down.
    """
    if len(line) > MAX_LINE_BYTES:
        raise GatewayError(
            f"line exceeds {MAX_LINE_BYTES} bytes ({len(line)})"
        )
    try:
        payload = json.loads(
            line.decode("utf-8"),
            parse_constant=_refuse_constant,
            parse_float=_finite_float,
        )
    except ValueError as exc:
        raise GatewayError(f"malformed request line: {exc}") from exc
    if not isinstance(payload, dict):
        raise GatewayError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def decode_request(line: bytes) -> Dict[str, Any]:
    """Decode and structurally validate one client request line."""
    payload = decode_line(line)
    op = payload.get("op")
    if not isinstance(op, str) or op not in OPS:
        raise GatewayError(f"unknown op {op!r} (expected one of {OPS})")
    session = payload.get("session")
    if session is not None and not isinstance(session, str):
        raise GatewayError("'session' must be a string")
    if op in ("await", "cancel") and session is None:
        raise GatewayError(f"op {op!r} requires a 'session' field")
    timeout = payload.get("timeout")
    # asyncio cannot add an int past the largest float to its clock.
    if timeout is not None and (
        not isinstance(timeout, (int, float)) or isinstance(timeout, bool)
        or not 0 <= timeout <= sys.float_info.max
    ):
        raise GatewayError("'timeout' must be a non-negative number within float range")
    return payload


def ok(**fields: Any) -> Dict[str, Any]:
    """A success response."""
    response: Dict[str, Any] = {"ok": True}
    response.update(fields)
    return response


def reject(
    code: str, error: str, retry_after: Optional[float] = None
) -> Dict[str, Any]:
    """A structured failure response.

    ``retry_after`` (seconds) is the backpressure hint: present exactly
    when retrying the same request later can succeed.
    """
    if code not in REJECT_CODES:
        raise GatewayError(f"unknown reject code {code!r}")
    response: Dict[str, Any] = {"ok": False, "code": code, "error": error}
    if retry_after is not None:
        response["retry_after"] = round(float(retry_after), 3)
    return response
