"""A small metrics registry with Prometheus text exposition.

The gateway (``repro.serve``) feeds this registry with its live
operational metrics — admissions, rejections, decisions, session
latency, lane CPU — and serves it on ``GET /metrics``; nothing else
does.  A batch run answers from its ledger, flow cells and trace
instead.  No third-party client library is used (the repo has zero
runtime dependencies); the exposition format follows the Prometheus
text format v0.0.4, which ``promtool check metrics`` accepts.

Instruments:

* :class:`Counter` — monotonically increasing totals
  (``repro_gateway_decisions_total``);
* :class:`Gauge` — set-to-current values
  (``repro_gateway_sessions_active``);
* :class:`Histogram` — bucketed observations with ``_bucket``/``_sum``/
  ``_count`` series (``repro_gateway_session_seconds``).

All instruments support labels::

    registry = MetricsRegistry()
    rejected = registry.counter(
        "repro_gateway_sessions_rejected_total", "Sessions refused",
        ("code",),
    )
    rejected.inc(code="busy")
    print(registry.render())
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency-shaped buckets (seconds), log-spaced.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelValues = Tuple[str, ...]


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Instrument:
    """Shared name/label plumbing for all instrument types."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ConfigurationError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ConfigurationError(f"invalid label name {label!r}")
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(label_names)

    def _key(self, labels: Dict[str, object]) -> LabelValues:
        if set(labels) != set(self.label_names):
            raise ConfigurationError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def _series(self, suffix: str, values: LabelValues,
                extra: Sequence[Tuple[str, str]] = ()) -> str:
        pairs = [
            f'{name}="{_escape_label_value(value)}"'
            for name, value in zip(self.label_names, values)
        ]
        pairs.extend(f'{name}="{value}"' for name, value in extra)
        label_part = "{" + ",".join(pairs) + "}" if pairs else ""
        return f"{self.name}{suffix}{label_part}"

    def header(self) -> List[str]:
        help_text = self.help_text.replace("\\", "\\\\").replace("\n", "\\n")
        return [
            f"# HELP {self.name} {help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]

    def render(self) -> List[str]:  # pragma: no cover - abstract
        raise NotImplementedError


class Counter(_Instrument):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, label_names)
        self._values: Dict[LabelValues, float] = {}

    def inc(self, amount: float = 1, **labels: object) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up")
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: object) -> float:
        return self._values.get(self._key(labels), 0)

    def render(self) -> List[str]:
        lines = self.header()
        for key in sorted(self._values):
            lines.append(
                f"{self._series('', key)} {_format_value(self._values[key])}"
            )
        return lines


class Gauge(_Instrument):
    """A value that can go up and down (or be set outright)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, label_names)
        self._values: Dict[LabelValues, float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._values[self._key(labels)] = value

    def value(self, **labels: object) -> float:
        return self._values.get(self._key(labels), 0)

    def render(self) -> List[str]:
        lines = self.header()
        for key in sorted(self._values):
            lines.append(
                f"{self._series('', key)} {_format_value(self._values[key])}"
            )
        return lines


class Histogram(_Instrument):
    """Bucketed observations with cumulative ``le`` buckets."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help_text, label_names)
        bucket_list = sorted(set(float(b) for b in buckets))
        if not bucket_list:
            raise ConfigurationError("histogram needs at least one bucket")
        self.buckets = tuple(bucket_list)
        self._counts: Dict[LabelValues, List[int]] = {}
        self._sums: Dict[LabelValues, float] = {}
        self._totals: Dict[LabelValues, int] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        counts = self._counts.setdefault(key, [0] * len(self.buckets))
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                counts[index] += 1
        self._sums[key] = self._sums.get(key, 0.0) + value
        self._totals[key] = self._totals.get(key, 0) + 1

    def count(self, **labels: object) -> int:
        return self._totals.get(self._key(labels), 0)

    def sum(self, **labels: object) -> float:
        return self._sums.get(self._key(labels), 0.0)

    def render(self) -> List[str]:
        lines = self.header()
        for key in sorted(self._totals):
            counts = self._counts[key]
            for bound, count in zip(self.buckets, counts):
                lines.append(
                    f"{self._series('_bucket', key, (('le', _format_value(bound)),))} "
                    f"{count}"
                )
            lines.append(
                f"{self._series('_bucket', key, (('le', '+Inf'),))} "
                f"{self._totals[key]}"
            )
            lines.append(
                f"{self._series('_sum', key)} {_format_value(self._sums[key])}"
            )
            lines.append(f"{self._series('_count', key)} {self._totals[key]}")
        return lines


class MetricsRegistry:
    """Holds instruments and renders them in Prometheus text format.

    ``counter``/``gauge``/``histogram`` are idempotent: asking for an
    existing name returns the existing instrument (mismatched type or
    labels raise), so independent gateway components can share series.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}

    def _get_or_create(self, cls, name: str, help_text: str,
                       label_names: Sequence[str], **kwargs):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls) or (
                existing.label_names != tuple(label_names)
            ):
                raise ConfigurationError(
                    f"metric {name!r} already registered with a different "
                    f"type or label set"
                )
            return existing
        instrument = cls(name, help_text, label_names, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help_text: str = "",
                label_names: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help_text, label_names)

    def gauge(self, name: str, help_text: str = "",
              label_names: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, label_names)

    def histogram(self, name: str, help_text: str = "",
                  label_names: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, label_names, buckets=buckets
        )

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def render(self) -> str:
        """The full registry in Prometheus text exposition format."""
        lines: List[str] = []
        for name in sorted(self._instruments):
            lines.extend(self._instruments[name].render())
        return "\n".join(lines) + ("\n" if lines else "")
