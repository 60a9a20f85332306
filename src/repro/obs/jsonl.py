"""JSON lines — the one line writer and the one reader — and the one
reader of a schema-marked JSON record.

Traces, span directories and flow spills are JSONL: one object per line,
keys sorted, compact separators, so equal data is equal bytes.  A writer
killed mid-line (a SIGKILLed ``FlowLedger`` spill) leaves a truncated last line; :func:`load_jsonl` names the file
and the line instead of surfacing a bare ``JSONDecodeError``.
:func:`load_record` reads a whole ``BENCH_*`` / ``FLOW_*`` document and
turns a missing file, bad JSON or a foreign schema into one
:class:`~repro.errors.ConfigurationError` naming the file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.errors import ConfigurationError


def dump_line(row: Any) -> str:
    """One canonical JSONL line (sorted keys, compact, newline-ended)."""
    return json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"


def load_record(path: Union[str, Path], schema: str) -> Dict[str, Any]:
    """Read one JSON document whose ``schema`` field must be ``schema``."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"{path}: cannot read a {schema} record "
                                 f"({exc})") from None
    found = payload.get("schema") if isinstance(payload, dict) else None
    if found != schema:
        raise ConfigurationError(
            f"{path}: not a {schema} record (schema={found!r})"
        )
    return payload


def load_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse a JSONL file into its rows; blank lines are skipped."""
    rows = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{path}:{number}: not a JSON line ({exc.msg}); "
                    f"a writer killed mid-line leaves one behind"
                ) from exc
    return rows
