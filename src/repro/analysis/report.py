"""Text renderers for per-phase cost tables and ``BENCH_*.json`` records.

``python -m repro ba`` prints a fresh run's phase and party tables with
:func:`render_phase_breakdown` / :func:`render_party_phase_table`;
``python -m repro obs report BENCH_x.json`` prints a committed record
with :func:`render_bench_record`.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.analysis.tables import format_bits


def _field(entry: Any, name: str, default: Any = 0) -> Any:
    """Read ``name`` from a PhaseBreakdown dataclass or a plain mapping
    (the BENCH JSON round trip turns dataclasses into dicts)."""
    if isinstance(entry, Mapping):
        return entry.get(name, default)
    return getattr(entry, name, default)


def render_phase_breakdown(breakdown: Mapping[str, Any]) -> str:
    """Per-phase communication table (§3.1 decomposition of pi_ba).

    ``breakdown`` maps phase label → :class:`~repro.net.metrics.
    PhaseBreakdown` (or its dict form from a BENCH record).  Phases are
    sorted by total bits, heaviest first, so the dominant cost — the
    paper's SRDS tree aggregation — tops the table.
    """
    rows = sorted(
        breakdown.items(),
        key=lambda item: (-int(_field(item[1], "total_bits")), item[0]),
    )
    width = max([len("phase")] + [len(name) for name, _ in rows])
    lines = [
        f"{'phase':<{width}}  {'total':>10}  {'max/party':>10}  "
        f"{'parties':>7}  {'messages':>9}"
    ]
    lines.append("-" * len(lines[0]))
    for name, entry in rows:
        lines.append(
            f"{name:<{width}}  "
            f"{format_bits(_field(entry, 'total_bits')):>10}  "
            f"{format_bits(_field(entry, 'max_bits_per_party')):>10}  "
            f"{_field(entry, 'parties'):>7}  "
            f"{_field(entry, 'messages'):>9,}"
        )
    return "\n".join(lines)


def render_party_phase_table(metrics: Any, limit: int = 32) -> str:
    """Per-party attribution check: phase sums vs the total ledger.

    For every party, the sum of its per-phase bits must equal its
    ``bits_total`` — the invariant ``python -m repro ba`` verifies.  ``metrics`` is a live :class:`~repro.net.metrics.
    CommunicationMetrics`.
    """
    lines = [
        f"{'party':>5}  {'bits_total':>12}  {'phase-sum':>12}  match"
    ]
    lines.append("-" * len(lines[0]))
    party_ids = sorted(metrics.party_ids)
    shown = party_ids[:limit]
    for party_id in shown:
        total = metrics.tally_of(party_id).bits_total
        phase_sum = sum(metrics.bits_by_phase(party_id).values())
        flag = "ok" if phase_sum == total else "MISMATCH"
        lines.append(
            f"{party_id:>5}  {total:>12,}  {phase_sum:>12,}  {flag}"
        )
    if len(party_ids) > limit:
        lines.append(f"... ({len(party_ids) - limit} more parties elided)")
    return "\n".join(lines)


def render_bench_record(payload: Mapping[str, Any]) -> str:
    """Render one ``BENCH_<name>.json`` record as text."""
    lines = [f"bench record: {payload.get('name', '?')}"]
    snapshot: Dict[str, Any] = dict(payload.get("snapshot") or {})
    if snapshot:
        lines.append("snapshot:")
        for key in sorted(snapshot):
            value = snapshot[key]
            if isinstance(value, int) and key.endswith(
                ("bits", "bits_per_party", "total_bits")
            ):
                value = f"{value:,} ({format_bits(value)})"
            lines.append(f"  {key}: {value}")
    breakdown = payload.get("phase_breakdown") or {}
    if breakdown:
        lines.append("phase breakdown:")
        lines.extend(
            "  " + line for line in render_phase_breakdown(breakdown).splitlines()
        )
    extra = payload.get("extra") or {}
    if extra:
        lines.append("extra:")
        for key in sorted(extra):
            lines.append(f"  {key}: {extra[key]}")
    return "\n".join(lines)
