"""Host normalisation: the frozen calibration kernel and sample maths.

The bench host's speed drifts by ±20 % between back-to-back runs of the
same code (noisy neighbours, not our scheduler), so raw seconds cannot
be gated.  Every timed region is therefore bracketed by a fixed ~20 ms
kernel run before and after it, and reported as

    normalised seconds = raw seconds × CALIB_REF_S / mean(before, after)

The kernel mixes the three things the protocol code spends its time on —
chained SHA-256 over small inputs with periodic ``bytes.join``, dict
read-modify-write, and 255-bit modular multiplication — so a host that
is slow at hashing but fast at bignums does not skew one workload.

**The kernel and CALIB_REF_S are frozen.**  Changing either rescales
every reported duration and invalidates every committed result; a host
that runs the kernel in other than ~20 ms is exactly what the ratio
corrects for.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from statistics import median
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

#: Reference kernel time: durations are reported as if the kernel took
#: exactly this long on the measuring host.
CALIB_REF_S = 0.020

_P25519 = 2**255 - 19

#: A kernel run that ended at most this long ago still describes the
#: host "now", so back-to-back regions share it instead of re-running.
_REUSE_WINDOW_S = 0.002


def kernel() -> float:
    """Run the frozen calibration kernel once; returns its wall seconds."""
    started = time.perf_counter()
    digest = b"\x00" * 32
    parts: List[bytes] = []
    for i in range(12_000):
        digest = hashlib.sha256(digest + i.to_bytes(4, "big")).digest()
        parts.append(digest)
        if len(parts) == 64:
            digest = hashlib.sha256(b"".join(parts)).digest()
            parts = []
    table = dict.fromkeys(range(1024), 0)
    for i in range(36_000):
        key = i & 1023
        table[key] = table[key] + i
    x = 3
    for i in range(12_000):
        x = (x * x + i) % _P25519
    return time.perf_counter() - started


def normalise(raw_s: float, before_s: float, after_s: float) -> float:
    """Host-normalised seconds for a region bracketed by two kernel runs."""
    return raw_s * CALIB_REF_S / ((before_s + after_s) / 2.0)


@dataclass(frozen=True)
class Timed:
    """One bracketed region: raw clocks plus the bracket that scales them."""

    raw_s: float
    cpu_raw_s: float
    before_s: float
    after_s: float

    @property
    def factor(self) -> float:
        return normalise(1.0, self.before_s, self.after_s)

    @property
    def s(self) -> float:
        """Normalised wall seconds."""
        return self.raw_s * self.factor

    @property
    def cpu_s(self) -> float:
        """Normalised CPU seconds (self + children + watched pids)."""
        return self.cpu_raw_s * self.factor


def _pid_cpu_s(pid: int) -> float:
    """utime+stime of a live process, from ``/proc/<pid>/stat``."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
    except OSError:
        return 0.0
    # Fields after the parenthesised comm; utime/stime are 14/15 overall.
    fields = stat[stat.rindex(b")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Host:
    """Brackets timed regions with the kernel and keeps every kernel sample.

    ``watch_pid`` adds a long-lived child (the gateway server) to the CPU
    clock: ``os.times`` only credits children once they have been reaped.
    """

    def __init__(self) -> None:
        self.kernel_samples: List[float] = []
        self._watched: List[int] = []
        self._last: Optional[Tuple[float, float]] = None  # (ended_at, value)

    def watch_pid(self, pid: int) -> None:
        self._watched.append(pid)

    def unwatch_pid(self, pid: int) -> None:
        self._watched.remove(pid)

    def cpu_now(self) -> float:
        times = os.times()
        total = (
            times.user + times.system
            + times.children_user + times.children_system
        )
        return total + sum(_pid_cpu_s(pid) for pid in self._watched)

    def kernel(self, reuse: bool = False) -> float:
        """One kernel sample; ``reuse`` accepts one that just ended."""
        if (
            reuse
            and self._last is not None
            and time.perf_counter() - self._last[0] <= _REUSE_WINDOW_S
        ):
            return self._last[1]
        value = kernel()
        self.kernel_samples.append(value)
        self._last = (time.perf_counter(), value)
        return value

    def timed(
        self, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Tuple[Timed, Any]:
        """Run ``fn`` between two kernel runs; kernel time is excluded."""
        before = self.kernel(reuse=True)
        cpu_started = self.cpu_now()
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            raw = time.perf_counter() - started
            cpu_raw = self.cpu_now() - cpu_started
            after = self.kernel()
        return Timed(raw, cpu_raw, before, after), result

    def calib_ms(self) -> float:
        return median(self.kernel_samples) * 1e3

    def calib_spread(self) -> float:
        """p90 ÷ p10 of this run's kernel samples."""
        return percentile(self.kernel_samples, 90) / percentile(
            self.kernel_samples, 10
        )


# -- sample statistics ---------------------------------------------------------

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def _rank(count: int, pct: int) -> int:
    """Nearest-rank index (1-based) of the ``pct`` percentile."""
    return max(1, math.ceil(pct * count / 100.0))


def percentile(values: Sequence[float], pct: int) -> float:
    """Nearest-rank percentile (a reported tail is a latency some op
    actually had); p50 is ``statistics.median``, so the two always agree."""
    if pct == 50:
        return median(values)
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


def tail_percentile(count: int) -> int:
    """Highest of p50/p75/p90/p95/p99 with ≥ 10 samples beyond it.

    Fewer than 20 samples support no percentile by that rule; p50 is
    reported (smoke sizes only) so the metric is never absent.
    """
    for pct in TAIL_PERCENTILES:
        if count - _rank(count, pct) >= MIN_BEYOND:
            return pct
    return 50
