"""Atomic artifact flushing — the one ``--flow-out`` / ``--metrics-out``
write path.

A run's artifacts are read exactly when something went wrong, so a bare
``write_text`` that leaves a half-written file when the process dies
mid-flush fails at the worst moment.  :func:`write_atomic_text` is the
single shared path (tmp + fsync + ``os.replace``): a reader or CI
artifact collector never observes a torn file.

Two CLI surfaces (``serve run`` and ``cluster run``) attach a
wire-level flow ledger for ``--flow-out``; :func:`open_flow` and
:func:`finish_artifacts` are the two ends of that: the ledger whose
evicted cells spill beside the report, and the ``repro-flow/1`` report
(parity-checked against the run's metrics ledger when there is one).

The gateway publishes its ``serve run --metrics-out`` snapshot with
:func:`write_atomic_text` too.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

from repro.obs.flow import FlowLedger


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


def open_flow(flow_out: Path) -> FlowLedger:
    """The ledger a run with ``--flow-out`` records into, at the default
    capacity; evicted cells spill to ``<flow_out>.spill.jsonl``."""
    return FlowLedger(
        spill_path=flow_out.with_name(flow_out.name + ".spill.jsonl")
    )


def finish_artifacts(
    flow: Optional[FlowLedger],
    flow_out: Optional[Path] = None,
    metrics: Optional[Any] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Optional[Dict[str, Any]]:
    """Publish a run's flow report and close the ledger.

    The report is named after ``flow_out`` (``FLOW_<name>.json``) and
    carries bit-exact parity against ``metrics`` when given.  Returns
    the report payload — ``None`` without a ledger — written or not.
    """
    if flow is None:
        return None
    name = flow_out.stem if flow_out is not None else ""
    if name.startswith("FLOW_"):
        name = name[len("FLOW_"):]
    payload = flow.report(name, metrics=metrics, extra=extra)
    if flow_out is not None:
        write_atomic_text(
            flow_out, json.dumps(payload, sort_keys=True, indent=2) + "\n"
        )
    flow.close()
    return payload
