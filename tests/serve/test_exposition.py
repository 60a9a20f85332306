"""The gateway's ``/metrics``: one renderer over ``status()``.

``metrics_fresh.prom`` and ``metrics_final.prom`` are the exposition the
gateway served when a Prometheus registry kept a second copy of its
counters, captured from :func:`_scripted` at its two ends.  Rendered
from ``status()`` now, every one of their lines comes out unchanged;
the only additions are the zero-valued samples of families the registry
left empty on a fresh gateway (:data:`FRESH_EXTRA`).
"""

from __future__ import annotations

import asyncio
import json
import os
import re
from pathlib import Path

import pytest

from repro.serve import lanes
from repro.serve.exposition import DEFAULT_BUCKETS, metrics_text
from repro.serve.server import GatewayConfig, GatewayServer
from repro.serve.sessions import SessionManager, run_decision
from repro.serve.setup_cache import SetupCache

GOLDEN = Path(__file__).parent
A = dict(n=6, scheme="snark-hash", seed=11)
B = dict(n=8, scheme="snark-hash", seed=12)

#: A fresh gateway's samples that the registry did not emit.
FRESH_EXTRA = [
    "repro_gateway_decisions_total 0",
    "repro_gateway_lane_cpu_seconds_total 0",
    "repro_gateway_lane_restarts_total 0",
    *(
        f'repro_gateway_session_seconds_bucket{{le="{bound:g}"}} 0'
        for bound in DEFAULT_BUCKETS
    ),
    'repro_gateway_session_seconds_bucket{le="+Inf"} 0',
    "repro_gateway_session_seconds_sum 0",
    "repro_gateway_session_seconds_count 0",
    "repro_gateway_sessions_active 0",
    "repro_gateway_sessions_admitted_total 0",
    "repro_gateway_setup_cache_hits_total 0",
    "repro_gateway_setup_cache_misses_total 0",
]


class _Clock:
    """A lane's clock: each wall reading advances 0.3 s, each CPU
    reading 0.1 s, so session walls and CPU are fixed by the script."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0

    def monotonic(self) -> float:
        return 0.0

    def perf_counter(self) -> float:
        self.wall += 0.3
        return self.wall

    def process_time(self) -> float:
        self.cpu += 0.1
        return self.cpu


def _decide(spec, lease):
    """The real decision, except that ``inputs="one"`` kills its lane."""
    if spec.inputs == "one":
        os._exit(3)
    return run_decision(spec, lease)


async def _scripted():
    """Admits, a ``busy`` and a ``shutting-down`` reject, a lane
    restart, cache hits and misses; ``status()`` at both ends."""
    manager = SessionManager(max_sessions=2, decision_runner=_decide)
    statuses = [manager.status()]
    try:
        first = [manager.submit(dict(A, repeat=2)), manager.submit(dict(B))]
        assert manager.submit(dict(A))["code"] == "busy"
        for reply in first:
            assert (await manager.await_result(reply["session"], 30))["ok"]
        again = manager.submit(dict(A, repeat=3))
        assert (await manager.await_result(again["session"], 30))["ok"]
        crash = manager.submit(dict(A, inputs="one"))
        died = await manager.await_result(crash["session"], 30)
        assert died["code"] == "failed", died
        last = [manager.submit(dict(A)), manager.submit(dict(B, repeat=2))]
        for reply in last:
            assert (await manager.await_result(reply["session"], 30))["ok"]
        manager.stop_admitting()
        assert manager.submit(dict(A))["code"] == "shutting-down"
        statuses.append(manager.status())
    finally:
        manager.close()
    return statuses


@pytest.fixture(scope="module")
def statuses():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lanes, "time", _Clock())
        return asyncio.run(_scripted())


def _samples(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


class TestGolden:
    def test_final_exposition_is_unchanged(self, statuses):
        golden = (GOLDEN / "metrics_final.prom").read_text()
        assert metrics_text(statuses[1]) == golden

    def test_fresh_exposition_adds_only_zero_samples(self, statuses):
        golden = (GOLDEN / "metrics_fresh.prom").read_text().splitlines()
        lines = metrics_text(statuses[0]).splitlines()
        assert [line for line in lines if line not in FRESH_EXTRA] == golden
        assert _samples(metrics_text(statuses[0])) == FRESH_EXTRA

    def test_status_survives_the_wire(self, statuses):
        # The status op ships the payload as JSON; a client renders the
        # same exposition from what it received.
        for status in statuses:
            wired = json.loads(json.dumps(status))
            assert metrics_text(wired) == metrics_text(status)

    def test_a_status_is_a_snapshot(self, statuses):
        # Taken before the script ran, the fresh payload still reads
        # zero everywhere, nested records included.
        fresh = statuses[0]["totals"]
        assert fresh["admitted"] == 0 and not fresh["rejected"]
        assert fresh["session_seconds"] == {
            "buckets": [0] * len(DEFAULT_BUCKETS), "sum": 0.0, "count": 0,
        }

    def test_totals_are_the_scripted_counts(self, statuses):
        totals = statuses[1]["totals"]
        assert totals["admitted"] == 6
        assert totals["rejected"] == {"busy": 1, "shutting-down": 1}
        assert totals["decisions"] == 9
        assert totals["lane_restarts"] == 1
        assert totals["session_seconds"]["count"] == 5
        assert statuses[1]["setup_cache"]["hits"] == 6
        assert statuses[1]["setup_cache"]["misses"] == 3


class TestExpositionFormat:
    """What a scraper relies on, checked on the scripted gateway at
    both ends."""

    @pytest.fixture(params=["fresh", "final"])
    def status(self, request, statuses):
        return statuses[["fresh", "final"].index(request.param)]

    @pytest.fixture
    def text(self, status):
        return metrics_text(status)

    def test_every_sample_is_a_series_and_a_float(self, text):
        for line in _samples(text):
            series, value = line.rsplit(" ", 1)
            assert re.fullmatch(r'[a-z_]+(\{[a-z]+="[^"]*"\})?', series)
            float(value)

    def test_help_and_type_precede_their_samples_and_families_sort(
        self, text
    ):
        families, current = [], None
        for line in text.splitlines():
            if line.startswith("# HELP "):
                current = line.split()[2]
                families.append(current)
            elif line.startswith("# TYPE "):
                assert line.split()[2] == current
            else:
                assert current is not None and line.startswith(current)
        assert families == sorted(families) and len(families) == 9
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative(self, text):
        prefix = "repro_gateway_session_seconds"
        samples = dict(line.rsplit(" ", 1) for line in _samples(text))
        buckets = [
            int(value) for series, value in samples.items()
            if series.startswith(prefix + "_bucket")
        ]
        assert buckets == sorted(buckets)
        assert len(buckets) == len(DEFAULT_BUCKETS) + 1
        assert samples[f'{prefix}_bucket{{le="+Inf"}}'] == (
            samples[f"{prefix}_count"]
        )

    def test_every_sample_is_its_status_field(self, status, text):
        totals, cache = status["totals"], status["setup_cache"]
        seconds = totals["session_seconds"]
        histogram = "repro_gateway_session_seconds"
        expected = {
            "repro_gateway_decisions_total": totals["decisions"],
            "repro_gateway_lane_cpu_seconds_total": totals["lane_cpu_s"],
            "repro_gateway_lane_restarts_total": totals["lane_restarts"],
            "repro_gateway_sessions_active": status["active"],
            "repro_gateway_sessions_admitted_total": totals["admitted"],
            "repro_gateway_setup_cache_hits_total": cache["hits"],
            "repro_gateway_setup_cache_misses_total": cache["misses"],
            f"{histogram}_sum": seconds["sum"],
            f"{histogram}_count": seconds["count"],
            f'{histogram}_bucket{{le="+Inf"}}': seconds["count"],
        }
        for bound, count in zip(DEFAULT_BUCKETS, seconds["buckets"]):
            expected[f'{histogram}_bucket{{le="{bound:g}"}}'] = count
        for code, count in totals["rejected"].items():
            expected[
                f'repro_gateway_sessions_rejected_total{{code="{code}"}}'
            ] = count
        samples = dict(line.rsplit(" ", 1) for line in _samples(text))
        assert {name: float(value) for name, value in samples.items()} == (
            expected
        )


class TestNoRegistry:
    def test_no_constructor_takes_a_registry(self):
        for build in (
            SessionManager,
            SetupCache,
            lambda **kw: GatewayServer(GatewayConfig(), **kw),
        ):
            with pytest.raises(TypeError):
                build(registry=object())
