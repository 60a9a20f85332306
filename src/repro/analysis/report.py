"""Assemble the benchmark result records into one experiment report.

``pytest benchmarks/ --benchmark-only`` drops one text record per
experiment under ``benchmarks/results/``; this module stitches them into
a single document (the measured companion to EXPERIMENTS.md) so a
downstream user can regenerate and read everything in one place:

    python -m repro report [output-path]
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.analysis.tables import format_bits

# Display order and titles for the known experiment records.
_SECTIONS: List[Tuple[str, str]] = [
    ("table1", "T1 — Table 1: max communication per party"),
    ("fig1_robustness", "F1 — Figure 1: robustness experiment"),
    ("fig2_forgery", "F2 — Figure 2: forgery experiment"),
    ("fig3_protocol", "F3 — Figure 3: pi_ba end to end"),
    ("scaling_per_party", "E1 — balanced per-party communication"),
    ("lb_crs", "E2 — Thm 1.3: CRS-model lower bound"),
    ("lb_owf", "E3 — Thm 1.4: OWF necessity"),
    ("broadcast_amortized", "E4 — Corollary 1.2(1): broadcast"),
    ("srds_micro_sizes", "E5a — SRDS aggregate sizes"),
    ("srds_micro_filter", "E5b — Aggregate1 output size"),
    ("aetree", "E6 — tree combinatorics"),
    ("ablation_ranges", "E7 — range-check ablation"),
    ("ablation_sortition", "E8 — sortition-factor sweep"),
    ("mpc_corollary", "E9 — Corollary 1.2(2): MPC"),
    ("snarg_connection", "E10 — SNARG connection"),
    ("ablation_ots", "E11 — OTS choice ablation"),
    ("ablation_oblivious", "E12 — oblivious-keygen ablation"),
]


def default_results_dir() -> pathlib.Path:
    """Where the benchmark harness writes its records."""
    return (
        pathlib.Path(__file__).resolve().parents[3]
        / "benchmarks" / "results"
    )


def assemble_report(results_dir: Optional[pathlib.Path] = None) -> str:
    """Concatenate all known records (missing ones are flagged)."""
    results_dir = (
        results_dir if results_dir is not None else default_results_dir()
    )
    lines: List[str] = [
        "Measured experiment report",
        "=" * 70,
        f"source: {results_dir}",
        "regenerate with: pytest benchmarks/ --benchmark-only",
        "",
    ]
    for name, title in _SECTIONS:
        lines.append(title)
        lines.append("-" * len(title))
        path = results_dir / f"{name}.txt"
        if path.exists():
            lines.append(path.read_text(encoding="utf-8").rstrip())
        else:
            lines.append(
                "(no record — run the benchmark suite to produce it)"
            )
        lines.append("")
    # Any extra records not in the known list still get included.
    known = {name for name, _ in _SECTIONS}
    if results_dir.exists():
        for path in sorted(results_dir.glob("*.txt")):
            if path.stem not in known:
                lines.append(f"extra record: {path.stem}")
                lines.append("-" * (14 + len(path.stem)))
                lines.append(path.read_text(encoding="utf-8").rstrip())
                lines.append("")
    # Observability records (python -m repro obs report / bench fixture).
    if results_dir.exists() and sorted(results_dir.glob("BENCH_*.json")):
        title = "OBS — observability bench records (BENCH_*.json)"
        lines.append(title)
        lines.append("-" * len(title))
        lines.append(assemble_bench_records(results_dir))
        lines.append("")
    return "\n".join(lines)


def write_report(output_path: pathlib.Path,
                 results_dir: Optional[pathlib.Path] = None) -> None:
    """Assemble and persist the report."""
    output_path.write_text(assemble_report(results_dir), encoding="utf-8")


# -- observability renderers (python -m repro obs report) --------------------


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
    ``bits_total`` — the invariant ``python -m repro obs report``
    verifies.  ``metrics`` is a live :class:`~repro.net.metrics.
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


def assemble_bench_records(
    results_dir: Optional[pathlib.Path] = None,
) -> str:
    """Concatenate every ``BENCH_*.json`` record under the results dir."""
    from repro.obs.bench import load_bench_json

    results_dir = (
        results_dir if results_dir is not None else default_results_dir()
    )
    paths = sorted(results_dir.glob("BENCH_*.json")) if results_dir.exists() else []
    if not paths:
        return "(no BENCH_*.json records — run the benchmark suite)"
    sections = []
    for path in paths:
        sections.append(render_bench_record(load_bench_json(path)))
    return "\n\n".join(sections)
