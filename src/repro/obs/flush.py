"""Atomic artifact flushing — the one ``--metrics-out`` / ``--flow-out``
implementation.

Three CLI surfaces flush a Prometheus text snapshot on exit (``serve
run``, ``cluster run``/``bench``, ``runtime``).  They historically each
did a bare ``write_text``, which can leave a half-written file when the
process dies mid-flush — exactly the moment a post-mortem needs the
file.  This module is the single shared path: render the registry,
append the flow-ledger summary (when one is attached) as Prometheus
comment lines, and publish the file atomically (tmp + fsync +
``os.replace``), so a scraper or CI artifact collector never observes a
torn snapshot.

The same three surfaces attach a wire-level flow ledger for
``--flow-out``; :func:`open_flow` and :func:`finish_artifacts` are the
two ends of that: the ledger whose evicted cells spill beside the
report, and the ``repro-flow/1`` report (parity-checked against the
run's metrics ledger when there is one) published with the snapshot.

The flow summary rides along as ``# repro-flow {...}`` comment lines —
legal in the text exposition format (scrapers ignore comments), and
greppable by humans and the CI artifact checks without a second file.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

from repro.obs.flow import FlowLedger
from repro.obs.jsonl import dump_line

#: Prefix of the flow-summary comment line appended to flushed snapshots.
FLOW_COMMENT_PREFIX = "# repro-flow "


def write_atomic_text(path: Path, text: str) -> Path:
    """Durably publish ``text`` at ``path`` (tmp + fsync + replace)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(path.name + ".tmp")
    with temp.open("w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    return path


def render_snapshot(registry: Any, flow: Optional[Any] = None) -> str:
    """The flushable snapshot body: exposition text + flow comment."""
    body: str = registry.render()
    if flow is not None:
        if body and not body.endswith("\n"):
            body += "\n"
        body += FLOW_COMMENT_PREFIX + dump_line(flow.summary())
    return body


def flush_metrics_file(
    path: Path, registry: Any, flow: Optional[Any] = None
) -> Path:
    """Atomically write one metrics snapshot (plus flow summary)."""
    return write_atomic_text(path, render_snapshot(registry, flow))


def open_flow(
    flow_out: Optional[Path], registry: Any, max_cells: int = 0
) -> FlowLedger:
    """The ledger a run with ``--flow-out`` (or a cell budget) records
    into; evicted cells spill to ``<flow_out>.spill.jsonl``."""
    return FlowLedger(
        max_cells=max_cells or 65536,
        spill_path=(
            flow_out.with_name(flow_out.name + ".spill.jsonl")
            if flow_out is not None else None
        ),
        registry=registry,
    )


def finish_artifacts(
    flow: Optional[FlowLedger],
    registry: Any,
    flow_out: Optional[Path] = None,
    metrics_out: Optional[Path] = None,
    metrics: Optional[Any] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Optional[Dict[str, Any]]:
    """Publish a run's flow report and metrics snapshot; close the ledger.

    The report is named after ``flow_out`` (``FLOW_<name>.json``) and
    carries bit-exact parity against ``metrics`` when given.  Returns
    the report payload — ``None`` without a ledger — written or not.
    """
    payload = None
    if flow is not None:
        name = flow_out.stem if flow_out is not None else ""
        if name.startswith("FLOW_"):
            name = name[len("FLOW_"):]
        payload = flow.report(name, metrics=metrics, extra=extra)
        if flow_out is not None:
            write_atomic_text(
                flow_out, json.dumps(payload, sort_keys=True, indent=2) + "\n"
            )
    if metrics_out is not None and registry is not None:
        flush_metrics_file(metrics_out, registry, flow=flow)
    if flow is not None:
        flow.close()
    return payload


def read_flow_summary(path: Path) -> Optional[Any]:
    """Parse the flow summary back out of a flushed snapshot file."""
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith(FLOW_COMMENT_PREFIX):
            return json.loads(line[len(FLOW_COMMENT_PREFIX):])
    return None
