"""Session lanes: one forked process per concurrent session.

Tier-1 cases drive an in-process :class:`SessionManager` (no sockets,
no signals): concurrency across lanes, key routing, and the flow ledger
and span log the lanes feed.  The cases that SIGKILL a lane or a whole
gateway carry the ``gateway`` marker.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs.flow import FlowLedger
from repro.serve.client import GatewayClient
from repro.serve.exposition import metrics_text
from repro.serve.sessions import (
    SessionManager,
    SessionSpec,
    one_shot_reference,
    run_decision,
)
from repro.serve.setup_cache import SetupCache

SMALL = dict(n=6, scheme="snark-hash", seed=11)
OTHER = dict(n=8, scheme="snark-hash", seed=12)

_RESULT = {
    "value": 0, "agreement": True, "validity": True,
    "certificate_bytes": 1, "per_party_bits": {"0": 1},
    "max_bits_per_party": 1, "total_bits": 1, "budget_bits": 2,
    "within_budget": True, "num_virtual": 1,
}


def _stub_cache():
    return SetupCache(scheme_factory=lambda label: None)


async def _run(manager, fields):
    submitted = manager.submit(fields)
    assert submitted["ok"], submitted
    return await manager.await_result(submitted["session"], timeout=30)


def _sockets(pid):
    """How many sockets a process holds, once its count stops falling
    (a lane sheds what it inherited just after the fork)."""
    fd_dir = f"/proc/{pid}/fd"
    deadline, count = time.monotonic() + 5.0, None
    while count != 1 and time.monotonic() < deadline:
        links = []
        for fd in os.listdir(fd_dir):
            try:
                links.append(os.readlink(f"{fd_dir}/{fd}"))
            except FileNotFoundError:
                continue  # closed while we listed
        count = sum(link.startswith("socket:") for link in links)
        time.sleep(0.01)
    return count


class TestLanesRunInParallel:
    def test_two_keys_decide_on_two_lanes_at_once(self):
        # Each stub decision waits at a two-party barrier: it can only
        # pass if the other session is deciding at the same time.
        barrier = multiprocessing.Barrier(2, timeout=10)

        def meet(spec, lease):
            started = time.monotonic()
            barrier.wait()
            return {**_RESULT, "started": started, "ended": time.monotonic()}

        async def scenario():
            manager = SessionManager(
                max_sessions=2, decision_runner=meet, cache=_stub_cache()
            )
            try:
                return await asyncio.gather(
                    _run(manager, dict(SMALL)), _run(manager, dict(OTHER))
                )
            finally:
                manager.close()

        first, second = (r["result"] for r in asyncio.run(scenario()))
        assert {first["wall"]["lane"], second["wall"]["lane"]} == {0, 1}
        assert max(first["started"], second["started"]) < min(
            first["ended"], second["ended"]
        )
        for result in (first, second):
            wall = result["wall"]
            assert wall["queue_s"] >= 0 and wall["cpu_s"] >= 0
            assert wall["session_s"] == pytest.approx(
                wall["queue_s"] + wall["compute_s"], abs=1e-5
            )


class TestRouting:
    def test_a_session_goes_to_the_lane_that_holds_its_key(self):
        async def scenario():
            manager = SessionManager(max_sessions=2)
            try:
                results = [
                    (await _run(manager, dict(fields)))["result"]
                    for fields in (SMALL, OTHER, SMALL, OTHER, SMALL)
                ]
                return (
                    results, manager.cache_stats(),
                    metrics_text(manager.status()),
                )
            finally:
                manager.close()

        results, stats, scrape = asyncio.run(scenario())
        lanes = [result["wall"]["lane"] for result in results]
        caches = [result["setup_cache"] for result in results]
        # SMALL takes lane 0; OTHER the least recently used lane 1; from
        # then on each key returns to its lane and only hits.
        assert lanes == [0, 1, 0, 1, 0]
        assert caches == [{"hits": 0, "misses": 1}] * 2 + [
            {"hits": 1, "misses": 0}
        ] * 3
        assert stats == {
            "hits": 3, "misses": 2, "entries": 2, "max_entries": 16,
        }
        assert "repro_gateway_setup_cache_misses_total 2" in scrape
        for fields, result in zip((SMALL, OTHER), results):
            reference = one_shot_reference(SessionSpec(**fields))
            assert result["value"] == reference["value"]
            assert result["per_party_bits"] == reference["per_party_bits"]

    def test_lane_cpu_is_counted(self):
        async def scenario():
            manager = SessionManager(max_sessions=1)
            try:
                result = (await _run(manager, dict(SMALL)))["result"]
            finally:
                manager.close()
            return result, manager.status()["totals"]["lane_cpu_s"]

        result, lane_cpu = asyncio.run(scenario())
        assert lane_cpu == pytest.approx(result["wall"]["cpu_s"], abs=1e-5)
        assert lane_cpu > 0


class TestLanesFeedTheGatewayLedger:
    def test_flow_equals_the_decisions_summed(self):
        specs = [SessionSpec(**SMALL, repeat=2), SessionSpec(**OTHER)]

        async def scenario():
            flow = FlowLedger()
            manager = SessionManager(max_sessions=2, flow=flow)
            try:
                await asyncio.gather(
                    *(_run(manager, spec.to_wire()) for spec in specs)
                )
            finally:
                manager.close()
            return flow

        flow = asyncio.run(scenario())
        cache = SetupCache()
        references = []
        for spec in specs:
            lease = cache.lease(spec.scheme, spec.n, spec.seed)
            for _ in range(spec.repeat):
                ledger = FlowLedger()
                run_decision(spec, lease, flow=ledger)
                references.append(ledger)
        assert flow.data_bits == sum(r.data_bits for r in references)
        summed = {}
        for ledger in references:
            for party, sides in ledger.party_bits().items():
                into = summed.setdefault(party, dict.fromkeys(sides, 0))
                for side, bits in sides.items():
                    into[side] += bits
        assert flow.party_bits() == summed
        assert flow.coverage() == 1.0
        assert set(flow.by_kind()) == {"session"}


# -- lanes and processes that die (gateway marker) ----------------------------


def _gone(pid):
    """Exited: no such process, or a zombie nobody has reaped yet."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.gateway
class TestLaneFailure:
    def test_a_killed_lane_fails_its_session_and_is_reforked(self):
        started = multiprocessing.Event()

        def hang_on_n8(spec, lease):
            # Killed in a plain sleep: a process killed while it waits on
            # a shared multiprocessing condition would wedge its notifier.
            if spec.n == 8:
                started.set()
                time.sleep(60)
            return dict(_RESULT)

        async def scenario():
            manager = SessionManager(
                max_sessions=1, decision_runner=hang_on_n8,
                cache=_stub_cache(),
            )
            try:
                submitted = manager.submit({"n": 8})
                # Polled, not waited on in a thread: the successor is
                # forked from this process, which must have no thread.
                deadline = time.monotonic() + 5
                while not started.is_set():
                    assert time.monotonic() < deadline, "the lane never ran"
                    await asyncio.sleep(0.01)
                (lane,) = manager.status()["lanes"]
                os.kill(lane["pid"], signal.SIGKILL)
                failed = await manager.await_result(
                    submitted["session"], timeout=30
                )
                (successor,) = manager.status()["lanes"]
                # Forked while the loop's sockets and the dead lane's
                # successor pipe exist, it holds only its own socket.
                sockets = _sockets(successor["pid"])
                served = await _run(manager, {"n": 9})
                return failed, lane, successor, sockets, served, \
                    metrics_text(manager.status())
            finally:
                manager.close()

        failed, lane, successor, sockets, served, scrape = asyncio.run(
            scenario()
        )
        assert failed["code"] == "failed"
        assert failed["error"] == "lane 0 killed by SIGKILL"
        assert successor["pid"] != lane["pid"]
        assert sockets == 1
        assert served["ok"] and served["state"] == "done"
        assert served["result"]["wall"]["lane"] == 0
        assert "repro_gateway_lane_restarts_total 1" in scrape

    def test_a_killed_gateway_leaves_no_lane_behind(self, tmp_path):
        port_file = tmp_path / "port"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "run",
             "--port-file", str(port_file), "--max-sessions", "2"],
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=Path(__file__).resolve().parents[2],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 30
            while not (port_file.exists() and port_file.read_text().strip()):
                assert process.poll() is None, "gateway exited at boot"
                assert time.monotonic() < deadline, "gateway never bound"
                time.sleep(0.05)
            with GatewayClient("127.0.0.1", int(port_file.read_text())) as client:
                lanes = client.status()["lanes"]
            assert len(lanes) == 2
            process.kill()
            process.wait()
            pids = [lane["pid"] for lane in lanes]
            deadline = time.monotonic() + 2.0
            while not all(_gone(pid) for pid in pids):
                assert time.monotonic() < deadline, "an orphaned lane lingers"
                time.sleep(0.02)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
