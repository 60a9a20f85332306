"""``report run.json``: the one-page "where the time goes" table.

Rows are workloads, columns are ``src/repro`` layers, cells are each
layer's *self time* as a share of traced op time (from the traced pass;
``benchmark`` is the harness's own share).  Markdown on stdout, ready to
paste into ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

from benchmarks.layers import SCHEMA


def render(document: Dict[str, Any]) -> str:
    traced = {
        name: entry for name, entry in document["workloads"].items()
        if entry.get("layer_share")
    }
    if not traced:
        raise SystemExit("report: the run file has no traced pass (run with --trace)")
    layers: List[str] = sorted(
        {layer for entry in traced.values() for layer in entry["layer_share"]}
    )
    lines = [
        f"Where the time goes — seed {document['seed']}, layer self time as a "
        "share of traced op time (host-normalised; `op_s` from the untraced pass).",
        "",
        "| workload | op_s | " + " | ".join(layers) + " |",
        "|---|---:|" + "---:|" * len(layers),
    ]
    for name, entry in traced.items():
        op_s = entry.get("end_to_end", {}).get("op_s", {}).get("value")
        cells = [
            f"{100 * entry['layer_share'][layer]:.1f}%"
            if layer in entry["layer_share"] else "–"
            for layer in layers
        ]
        lines.append(
            f"| `{name}` | {'–' if op_s is None else f'{op_s:.3f} s'} | "
            + " | ".join(cells) + " |"
        )
    return "\n".join(lines)


def main(run_file: str) -> int:
    document = json.loads(Path(run_file).read_text())
    if document.get("schema") != SCHEMA:
        raise SystemExit(f"report: {run_file} is not a {SCHEMA} run file")
    print(render(document))
    return 0
