"""Wire-level flow ledger — per-(round, phase, src, dst, kind) traffic.

:class:`~repro.net.metrics.CommunicationMetrics` answers *how much* each
party communicated; it cannot answer *where the bits went*.  The
ROADMAP's headline perf findings (``srds-aggregate`` alone moving 1.7 Gb
of 1.97 Gb at n=64, cluster DONE bodies past 256 MiB) were dug out of
one-off bench archaeology precisely because no layer kept a traffic
matrix.  :class:`FlowLedger` closes that gap: every charge that enters
the metrics ledger is *refined* into a cell keyed by

    ``(round, phase, src, dst, kind)``

where ``round`` is the open round index at charge time, ``phase`` and
``kind`` are the charge's label (:func:`repro.obs.spans.charge_label` —
the same phase ``bits_by_phase`` files the charge under; ``kind`` names
the wire that carried it: ``"wire"``, ``"frame"``, ``"hybrid"``,
``"ctl:<message-kind>"``, ...) and ``src``/``dst`` are party ids
(pseudo-party :data:`FUNCTIONALITY` stands in for hybrid-model charges).

The ledger is a **refinement, not a second source of truth**: per-party
``sent``/``received`` side counters are kept exactly (O(n) memory,
never evicted) and :meth:`FlowLedger.verify_against` checks them
bit-for-bit against the metrics tallies.  Cells themselves are bounded:
when more than ``max_cells`` are live, the coldest (fewest-bits) cells
are evicted — appended to a spill JSONL if a path was given, and always
folded into the per-phase/per-kind aggregates — so n=64+ runs stay
cheap while the hot cells (the ones a flow report shows) stay exact.

Control-plane traffic (cluster supervisor<->worker control messages,
``kind="ctl:*"``) is metered in the same ledger but kept out of the
data-plane totals, coverage, and parity checks: those bytes never enter
``CommunicationMetrics`` and the paper's budget does not charge them.

Like the rest of :mod:`repro.obs`, this module imports only the standard
library plus :mod:`repro.errors` — :mod:`repro.net.metrics` imports
*us*, never the other way around.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Tuple

from repro.errors import ConfigurationError
from repro.obs.jsonl import dump_line, load_jsonl, load_record
from repro.obs.spans import UNATTRIBUTED

#: Pseudo party id standing in for a hybrid-model functionality (the
#: "other side" of a ``charge_functionality`` — there is no real peer).
FUNCTIONALITY = -1

#: Pseudo party id standing in for an infrastructure endpoint (the
#: cluster supervisor / gateway process itself) on control-plane cells.
INFRA = -2

#: Schema tag of the JSON flow report (and each spill JSONL line).
FLOW_SCHEMA = "repro-flow/1"

#: ``(round, phase, src, dst, kind)``
FlowKey = Tuple[int, str, int, int, str]


@dataclass(frozen=True)
class FlowCell:
    """One materialized traffic-matrix cell (a report row)."""

    round: int
    phase: str
    src: int
    dst: int
    kind: str
    bits: int
    frames: int

    def to_wire(self) -> Dict[str, Any]:
        return {
            "round": self.round, "phase": self.phase, "src": self.src,
            "dst": self.dst, "kind": self.kind, "bits": self.bits,
            "frames": self.frames,
        }


def _is_control(kind: str) -> bool:
    return kind.startswith("ctl:")


class FlowLedger:
    """Bounded traffic matrix with exact per-party side counters.

    ``charge()`` is the single write path; transports and
    :class:`~repro.net.metrics.CommunicationMetrics` (via
    ``attach_flow``) call it on every wire transfer.  Everything else is
    read-side: ``top()``, ``by_phase()``, ``report()``,
    ``verify_against()``.
    """

    def __init__(
        self,
        max_cells: int = 65536,
        spill_path: Optional[Path] = None,
    ) -> None:
        if max_cells < 16:
            raise ConfigurationError("flow ledger needs max_cells >= 16")
        self.max_cells = max_cells
        self.spill_path = spill_path
        self._spill_file: Optional[TextIO] = None
        # cells[key] = [bits, frames]; aggregates below never evict.
        self._cells: Dict[FlowKey, List[int]] = {}
        self._by_phase: Dict[str, int] = {}
        self._by_kind: Dict[str, int] = {}
        self._party_sent: Dict[int, int] = {}
        self._party_received: Dict[int, int] = {}
        self._data_bits = 0
        self._data_frames = 0
        self._data_unattributed_bits = 0
        self._control_bits = 0
        self._control_frames = 0
        self.evicted_cells = 0
        self.evicted_bits = 0

    # -- write side ----------------------------------------------------------

    def charge(self, round_index: int, phase: str, src: int, dst: int,
               bits: int, kind: str = "wire", frames: int = 1) -> None:
        """Charge ``bits`` of traffic to one (round, phase, edge, kind) cell."""
        if bits < 0:
            raise ConfigurationError("flow charge cannot be negative")
        phase = phase or UNATTRIBUTED
        key = (round_index, phase, src, dst, kind)
        cell = self._cells.get(key)
        if cell is None:
            self._cells[key] = [bits, frames]
            if len(self._cells) > self.max_cells:
                self._evict()
        else:
            cell[0] += bits
            cell[1] += frames
        self._by_phase[phase] = self._by_phase.get(phase, 0) + bits
        self._by_kind[kind] = self._by_kind.get(kind, 0) + bits
        if _is_control(kind):
            self._control_bits += bits
            self._control_frames += frames
        else:
            self._data_bits += bits
            self._data_frames += frames
            if phase == UNATTRIBUTED:
                self._data_unattributed_bits += bits
            if src >= 0:
                self._party_sent[src] = self._party_sent.get(src, 0) + bits
            if dst >= 0:
                self._party_received[dst] = (
                    self._party_received.get(dst, 0) + bits
                )

    def _evict(self) -> None:
        """Spill the coldest cells so the matrix stays under ``max_cells``.

        Evicts a batch (an eighth of capacity) so eviction is amortized;
        order is (bits, key) so two identical runs evict identically.
        Evicted cells are already folded into every aggregate — only the
        per-cell resolution moves to the spill JSONL (if configured).
        """
        target = self.max_cells - max(1, self.max_cells // 8)
        victims = sorted(
            self._cells.items(), key=lambda item: (item[1][0], item[0])
        )[: len(self._cells) - target]
        writer = self._spill_writer()
        for key, (bits, frames) in victims:
            del self._cells[key]
            self.evicted_cells += 1
            self.evicted_bits += bits
            if writer is not None:
                writer.write(dump_line(
                    FlowCell(*key, bits=bits, frames=frames).to_wire()
                ))
        if writer is not None:
            writer.flush()

    def _spill_writer(self) -> Optional[TextIO]:
        if self.spill_path is None:
            return None
        if self._spill_file is None:
            self.spill_path.parent.mkdir(parents=True, exist_ok=True)
            self._spill_file = self.spill_path.open("a", encoding="utf-8")
        return self._spill_file

    def close(self) -> None:
        """Flush and close the spill file (idempotent)."""
        if self._spill_file is not None:
            self._spill_file.close()
            self._spill_file = None

    # -- read side -----------------------------------------------------------

    def cells(self) -> List[FlowCell]:
        """All live cells, deterministically ordered (hottest first)."""
        return [
            FlowCell(*key, bits=bits, frames=frames)
            for key, (bits, frames) in sorted(
                self._cells.items(),
                key=lambda item: (-item[1][0], item[0]),
            )
        ]

    def top(self, k: int = 20) -> List[FlowCell]:
        """The ``k`` hottest live cells by bits."""
        return self.cells()[:k]

    def by_phase(self) -> Dict[str, int]:
        """Total bits per phase (includes evicted cells; never lossy)."""
        return dict(self._by_phase)

    def by_kind(self) -> Dict[str, int]:
        """Total bits per wire kind (includes evicted cells)."""
        return dict(self._by_kind)

    def party_bits(self) -> Dict[int, Dict[str, int]]:
        """Exact per-party data-plane side counters (never evicted)."""
        out: Dict[int, Dict[str, int]] = {}
        for pid in sorted(set(self._party_sent) | set(self._party_received)):
            sent = self._party_sent.get(pid, 0)
            received = self._party_received.get(pid, 0)
            out[pid] = {
                "sent": sent, "received": received, "total": sent + received
            }
        return out

    @property
    def data_bits(self) -> int:
        """Total data-plane bits charged (each charge counted once)."""
        return self._data_bits

    @property
    def control_bits(self) -> int:
        """Total control-plane (``ctl:*``) bits metered."""
        return self._control_bits

    def coverage(self) -> float:
        """Fraction of data-plane bits attributed to a real phase.

        ``1.0`` means every charged bit landed in a cell whose phase is
        not :data:`~repro.obs.spans.UNATTRIBUTED`; the acceptance gate
        for committed flow reports is ``>= 0.95``.
        """
        if self._data_bits == 0:
            return 1.0
        return (
            self._data_bits - self._data_unattributed_bits
        ) / self._data_bits

    def verify_against(self, metrics: Any) -> List[str]:
        """Bit-exact parity check against a ``CommunicationMetrics``.

        Returns human-readable mismatch descriptions (empty == parity):
        for every party in either ledger, flow ``sent``/``received``
        must equal the tally's ``bits_sent``/``bits_received`` exactly.
        """
        problems: List[str] = []
        party_ids = sorted(
            set(metrics.party_ids)
            | set(self._party_sent) | set(self._party_received)
        )
        for pid in party_ids:
            tally = metrics.tally_of(pid)
            sent = self._party_sent.get(pid, 0)
            received = self._party_received.get(pid, 0)
            if sent != tally.bits_sent:
                problems.append(
                    f"party {pid}: flow sent {sent} != tally {tally.bits_sent}"
                )
            if received != tally.bits_received:
                problems.append(
                    f"party {pid}: flow received {received} "
                    f"!= tally {tally.bits_received}"
                )
        return problems

    # -- reports -------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """The small summary (the gateway's ``status`` op returns it)."""
        return {
            "data_bits": self._data_bits,
            "data_frames": self._data_frames,
            "control_bits": self._control_bits,
            "control_frames": self._control_frames,
            "coverage": round(self.coverage(), 6),
            "live_cells": len(self._cells),
            "evicted_cells": self.evicted_cells,
            "by_phase": dict(sorted(self._by_phase.items())),
            "by_kind": dict(sorted(self._by_kind.items())),
        }

    def report(
        self,
        name: str,
        top: int = 50,
        metrics: Optional[Any] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """The full committable flow report (``FLOW_<name>.json`` body)."""
        payload: Dict[str, Any] = {
            "schema": FLOW_SCHEMA,
            "name": name,
            "total_bits": self._data_bits,
            "total_frames": self._data_frames,
            "control_bits": self._control_bits,
            "control_frames": self._control_frames,
            "coverage": round(self.coverage(), 6),
            "by_phase": dict(sorted(self._by_phase.items())),
            "by_kind": dict(sorted(self._by_kind.items())),
            "per_party_bits": {
                str(pid): sides for pid, sides in self.party_bits().items()
            },
            "top_cells": [cell.to_wire() for cell in self.top(top)],
            "live_cells": len(self._cells),
            "evicted_cells": self.evicted_cells,
            "evicted_bits": self.evicted_bits,
            "spill_path": (
                str(self.spill_path) if self.spill_path is not None else None
            ),
        }
        if metrics is not None:
            problems = self.verify_against(metrics)
            payload["parity_with_metrics"] = not problems
            payload["parity_problems"] = problems
        if extra:
            payload.update(extra)
        return payload


def write_flow_json(results_dir: Path, payload: Dict[str, Any]) -> Path:
    """Write ``FLOW_<name>.json`` (sorted keys, trailing newline)."""
    if payload.get("schema") != FLOW_SCHEMA:
        raise ConfigurationError("flow payload missing repro-flow/1 schema")
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"FLOW_{payload['name']}.json"
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    return path


def load_flow_json(path: Path) -> Dict[str, Any]:
    """Load and schema-check one flow report."""
    return load_record(path, FLOW_SCHEMA)


def load_spill(path: Path) -> List[FlowCell]:
    """Read back evicted cells from a spill JSONL file."""
    return [
        FlowCell(
            round=row["round"], phase=row["phase"], src=row["src"],
            dst=row["dst"], kind=row["kind"], bits=row["bits"],
            frames=row["frames"],
        )
        for row in load_jsonl(path)
    ]
