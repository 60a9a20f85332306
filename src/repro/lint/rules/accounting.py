"""Bits-accounting rules: ACC001 (raw sends) and OBS001 (unspanned charges).

The paper's Thm 3.1 ceiling — Õ(1) bits per party, concretely
``cost_model.pi_ba_per_party_budget`` — is *measured*, not assumed.
The measurement is only as good as its coverage: every wire transfer
must be charged to :class:`~repro.net.metrics.CommunicationMetrics`
(ACC001), and in instrumented protocols every charge must land inside
a ``repro.obs`` phase span so the §3.1 per-phase cost envelopes stay
attributable (OBS001).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.lint.config import LintConfig
from repro.lint.model import ModuleUnit, Rule, RuleMeta, Severity, Violation

#: Attribute names that move bytes without touching the metrics ledger.
_RAW_SEND_ATTRS: Set[str] = {
    "sendall", "sendto", "send_bytes", "put_nowait", "write_eof",
}

#: Receiver names whose ``.send(...)`` / ``.put(...)`` / ``.write(...)``
#: indicate a transport-layer object leaking into protocol code.  The
#: sanctioned seam is ``Party.send`` (an Envelope the simulator charges)
#: or an explicit ``metrics.record_message`` / ``record_multicast`` /
#: ``record_exchange`` / ``charge_functionality``.
_TRANSPORT_RECEIVERS: Set[str] = {
    "sock", "socket", "writer", "stream", "queue", "conn", "connection",
    "transport", "channel", "pipe",
}

_TRANSPORT_VERBS: Set[str] = {"send", "put", "write", "send_nowait"}

#: Constructors that open an uncharged byte path.
_RAW_CONSTRUCTORS: Set[str] = {
    "socket.socket", "asyncio.Queue", "asyncio.open_connection",
    "asyncio.start_server", "multiprocessing.Queue", "queue.Queue",
    "os.pipe",
}

#: The methods that constitute the charge seam (``record_frames`` is
#: not watched: every frame it charges carries its own label).
_CHARGE_METHODS: Set[str] = {
    "record_message", "record_multicast", "record_exchange",
    "charge_functionality",
}


def _receiver_name(node: ast.expr) -> str:
    """Best-effort name of the object a method is called on."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):  # self.transport -> "transport"
        return node.attr
    return ""


class RawSendRule(Rule):
    """ACC001 — protocol code must not bypass the charge seam."""

    meta = RuleMeta(
        rule_id="ACC001",
        name="uncharged-byte-path",
        severity=Severity.ERROR,
        summary=(
            "raw transport/socket/queue send in protocol code, bypassing "
            "the CommunicationMetrics charge seam"
        ),
        rationale=(
            "max_bits_per_party is the paper's headline metric; the "
            "campaign invariants compare it against the polylog budget "
            "from cost_model.pi_ba_per_party_budget.  A byte that leaves "
            "a party without a record_message/record_multicast/"
            "record_exchange/charge_functionality charge is invisible to the ledger, so the Õ(1)-bits claim "
            "would silently stop being checked.  Protocol code sends via "
            "Party.send (the simulator charges the Envelope) or charges "
            "the hybrid-model cost explicitly."
        ),
        fix_hint=(
            "route through Party.send / the runtime transport adapter, or "
            "charge metrics.record_message(...) alongside the transfer"
        ),
    )

    def check(
        self, module: ModuleUnit, config: LintConfig
    ) -> Iterator[Violation]:
        if not config.in_scope(module.rel, config.acc001_scopes):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = module.resolve(node.func)
            if dotted in _RAW_CONSTRUCTORS:
                yield self.violation(
                    module, node,
                    f"`{dotted}` opens a byte path outside the metrics "
                    "ledger",
                )
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            attr = node.func.attr
            if attr in _RAW_SEND_ATTRS:
                yield self.violation(
                    module, node,
                    f"raw `.{attr}(...)` bypasses the CommunicationMetrics "
                    "charge seam",
                )
            elif (
                attr in _TRANSPORT_VERBS
                and _receiver_name(node.func.value).lower()
                in _TRANSPORT_RECEIVERS
            ):
                receiver = _receiver_name(node.func.value)
                yield self.violation(
                    module, node,
                    f"`{receiver}.{attr}(...)` looks like an uncharged "
                    "transport-layer send in protocol code",
                )


class UnspannedChargeRule(Rule):
    """OBS001 — charges in instrumented protocols need a phase span.

    A charge is compliant when it passes the label it carries
    (``phase=...`` — a frame's, a digest row's, a recorded op's), when
    it is lexically inside a ``with span(...)`` block, or when its
    enclosing function is *span-covered*: every in-module call site of
    that function sits at a compliant position (computed as an
    increasing fixpoint, so private helpers invoked from spanned blocks
    are covered transitively).
    """

    meta = RuleMeta(
        rule_id="OBS001",
        name="unspanned-metrics-charge",
        severity=Severity.ERROR,
        summary=(
            "record_message/record_multicast/record_exchange/"
            "charge_functionality outside any obs phase span in an "
            "instrumented protocol"
        ),
        rationale=(
            "PR 2 attributes every ledger charge to the innermost active "
            "span, recovering the paper's §3.1 phase-by-phase cost "
            "envelopes (kssv-ae, committee BA/coin, srds-aggregate, "
            "prf-boost).  A charge outside all spans lands in "
            "`(unattributed)`, eroding the per-phase golden tests and "
            "the phase-breakdown reports."
        ),
        fix_hint=(
            "wrap the charging step in `with span(\"<phase>\")`, or call "
            "the helper only from spanned contexts"
        ),
    )

    def check(
        self, module: ModuleUnit, config: LintConfig
    ) -> Iterator[Violation]:
        if not config.in_scope(module.rel, config.obs001_instrumented):
            return
        analysis = _SpanAnalysis(module)
        for call, function in analysis.charge_sites:
            if any(keyword.arg == "phase" for keyword in call.keywords):
                continue
            if analysis.in_span(call):
                continue
            if function is not None and function in analysis.covered:
                continue
            method = (
                call.func.attr
                if isinstance(call.func, ast.Attribute) else "charge"
            )
            yield self.violation(
                module, call,
                f"`{method}` charge outside any `with span(...)` phase",
            )


class _SpanAnalysis:
    """Per-module lexical span coverage with a call-graph fixpoint."""

    def __init__(self, module: ModuleUnit) -> None:
        self.module = module
        #: (start, end) line ranges of `with span(...)` bodies.
        self.span_ranges: List[Tuple[int, int]] = []
        #: charge call -> enclosing function name (or None at module level).
        self.charge_sites: List[Tuple[ast.Call, "str | None"]] = []
        #: function name -> list of (call site node, enclosing function).
        self.call_sites: Dict[str, List[Tuple[ast.Call, "str | None"]]] = {}
        self.functions: Set[str] = set()
        self._collect()
        self.covered = self._fixpoint()

    @staticmethod
    def _is_span_call(node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Name):
            return func.id == "span"
        if isinstance(func, ast.Attribute):
            return func.attr == "span"
        return False

    @staticmethod
    def _called_name(node: ast.Call) -> "str | None":
        if isinstance(node.func, ast.Name):
            return node.func.id
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
        return None

    def _collect(self) -> None:
        module = self.module

        def visit(node: ast.AST, function: "str | None") -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    self.functions.add(child.name)
                    visit(child, child.name)
                    continue
                if isinstance(child, (ast.With, ast.AsyncWith)) and any(
                    self._is_span_call(item.context_expr)
                    for item in child.items
                ):
                    end = getattr(child, "end_lineno", child.lineno)
                    self.span_ranges.append(
                        (child.lineno, end or child.lineno)
                    )
                if isinstance(child, ast.Call):
                    name = self._called_name(child)
                    if name is not None:
                        if isinstance(child.func, ast.Attribute) and (
                            child.func.attr in _CHARGE_METHODS
                        ):
                            self.charge_sites.append((child, function))
                        self.call_sites.setdefault(name, []).append(
                            (child, function)
                        )
                visit(child, function)

        visit(module.tree, None)

    def in_span(self, node: ast.AST) -> bool:
        line = getattr(node, "lineno", 0)
        return any(start <= line <= end for start, end in self.span_ranges)

    def _fixpoint(self) -> Set[str]:
        covered: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for name in self.functions:
                if name in covered:
                    continue
                sites = self.call_sites.get(name, [])
                if not sites:
                    continue  # never called in-module: not coverable
                if all(
                    self.in_span(call)
                    or (caller is not None and caller in covered)
                    for call, caller in sites
                ):
                    covered.add(name)
                    changed = True
        return covered
