"""The gateway's ``/metrics``: Prometheus text rendered from ``status``.

The gateway keeps its live counters once, as plain numbers in the
``totals`` record of :meth:`SessionManager.status
<repro.serve.sessions.SessionManager.status>`, beside the lease hits and
misses of its ``setup_cache`` stats.  :func:`metrics_text` renders one
such payload in the Prometheus text format v0.0.4 (which ``promtool
check metrics`` accepts); ``GET /metrics``, the ``metrics`` op and
``serve run --metrics-out`` all call it on one ``status()`` payload, so
the three cannot disagree.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

#: Upper bounds (seconds) of the session-seconds histogram, log-spaced.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _value(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def metrics_text(status: Dict[str, Any]) -> str:
    """The exposition of one gateway-wide ``status()`` payload."""
    totals = status["totals"]
    cache = status["setup_cache"]
    seconds = totals["session_seconds"]
    histogram = [
        (f'_bucket{{le="{_value(bound)}"}}', count)
        for bound, count in zip(DEFAULT_BUCKETS, seconds["buckets"])
    ]
    histogram += [
        ('_bucket{le="+Inf"}', seconds["count"]),
        ("_sum", seconds["sum"]),
        ("_count", seconds["count"]),
    ]
    families: Dict[str, Tuple[str, str, List[Tuple[str, float]]]] = {
        "repro_gateway_decisions_total": (
            "counter", "Completed BA decisions across all sessions",
            [("", totals["decisions"])],
        ),
        "repro_gateway_lane_cpu_seconds_total": (
            "counter", "CPU seconds lane processes spent running sessions",
            [("", totals["lane_cpu_s"])],
        ),
        "repro_gateway_lane_restarts_total": (
            "counter", "Lane processes re-forked after one died",
            [("", totals["lane_restarts"])],
        ),
        "repro_gateway_session_seconds": (
            "histogram", "Wall-clock duration of one completed session",
            histogram,
        ),
        "repro_gateway_sessions_active": (
            "gauge", "Sessions currently holding a concurrency lane",
            [("", status["active"])],
        ),
        "repro_gateway_sessions_admitted_total": (
            "counter", "Sessions accepted past admission control",
            [("", totals["admitted"])],
        ),
        "repro_gateway_sessions_rejected_total": (
            "counter", "Sessions rejected with backpressure",
            [
                (f'{{code="{code}"}}', count)
                for code, count in sorted(totals["rejected"].items())
            ],
        ),
        "repro_gateway_setup_cache_hits_total": (
            "counter", "Sessions that reused cached SRDS setup/PKI material",
            [("", cache["hits"])],
        ),
        "repro_gateway_setup_cache_misses_total": (
            "counter", "Sessions that had to run SRDS setup + keygen",
            [("", cache["misses"])],
        ),
    }
    lines: List[str] = []
    for name in sorted(families):
        kind, help_text, samples = families[name]
        lines += [f"# HELP {name} {help_text}", f"# TYPE {name} {kind}"]
        lines += [f"{name}{series} {_value(value)}" for series, value in samples]
    return "\n".join(lines) + "\n"
