"""TRU001 — trust-boundary taint from wire decoders to protocol logic.

In the Byzantine model every byte read off a socket is
adversary-controlled, so the linter draws an explicit trust boundary
around the decoder surfaces (``cluster/wire.py``, ``cluster/
meshwire.py``, ``serve/wire.py``, the ``net/trains.py`` frame codec,
and ``pickle.loads`` in cluster/serve/runtime scopes) and enforces two
disciplines over the :class:`~repro.lint.xmod.project.ProjectUnit`:

**(a) Decoder field strictness.**  Inside a decoder function, every
``struct``-unpacked field that escapes into the return value must be
*individually* guarded — appear in an ``if``/``while``/``assert`` test
whose body raises a malformed-input exception, or be passed to a local
raising helper.  This is what makes the gate bite when a single
validation line is deleted: the field it covered becomes unguarded even
though the decoder as a whole still validates plenty.

**(b) Interprocedural taint.**  A call returning wire-derived data (a
decoder call, ``pickle.loads``, or any function whose summary says its
return carries such data — computed by a cross-module fixpoint to
:data:`DEPTH` call levels) taints its result; attribute access,
iteration, and method calls propagate the taint.  Tainted values must
not reach a sink — a call into ``protocols/``/``srds/`` or a
ledger-charging method (:data:`SINK_METHODS`) — unless narrowed first
by a sanitizer call (name contains
``validate``/``narrow``/``sanitize``), killed by a raising guard on the
value, or produced by a strict decoder invoked under ``try/except``
over a malformed-input exception (the "guarded construction" pattern:
the decoder's own raises are the validation).

The analysis is flow-ordered but not path-sensitive, and taint dies at
attribute *stores* (``self.x = tainted`` does not taint later
``self.x`` reads) — both are documented trade-offs that keep findings
local and actionable.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set, Tuple

from repro.lint.config import in_scope
from repro.lint.model import ModuleUnit, ProjectRule, RuleMeta, Severity, Violation
from repro.lint.xmod.project import (
    CallNode,
    FunctionFacts,
    ModuleFacts,
    ProjectUnit,
)

#: Modules whose ``decode_*``/``*.decode`` functions ingest
#: adversary-controlled bytes.  Their returns are taint sources, and
#: inside them every struct-unpacked field that escapes into the return
#: value must be individually guarded.
DECODER_MODULES: Tuple[str, ...] = (
    "cluster/wire.py", "cluster/meshwire.py", "serve/wire.py",
    "net/trains.py",
)

#: Scopes where ``pickle.loads`` results also count as taint sources
#: (checkpoint/control-plane payloads cross trust domains).
PICKLE_SCOPES: Tuple[str, ...] = ("cluster/", "serve/", "runtime/")

#: Taint *sinks*: protocol and SRDS logic must never consume
#: wire-derived data that was not narrowed first.
SINK_SCOPES: Tuple[str, ...] = ("protocols/", "srds/")

#: Ledger-charging method names that are sinks wherever they are called
#: (the accounting the paper's bit bounds rest on).
SINK_METHODS: Tuple[str, ...] = (
    "record_message", "record_multicast", "record_exchange",
    "record_frames", "charge_functionality",
)

#: Name fragments that mark a call as a sanitizer — its result is
#: considered narrowed/validated.
SANITIZER_MARKERS: Tuple[str, ...] = ("validate", "narrow", "sanitize")

#: Exception names whose raise-guards and try/except handlers count as
#: malformed-input validation.
GUARD_EXCEPTIONS: Set[str] = {
    "SerializationError", "ClusterError", "GatewayError",
    "NetworkError", "ReproError", "ConfigurationError",
    "ValueError", "TypeError", "KeyError", "AssertionError",
}

#: How many direct-call levels taint is tracked through.
DEPTH = 3


class TrustBoundaryRule(ProjectRule):
    """Wire-decoded values must be validated before protocol use."""

    meta = RuleMeta(
        rule_id="TRU001",
        name="unvalidated-wire-data",
        severity=Severity.ERROR,
        summary=(
            "wire-decoded values must pass a malformed-input guard or "
            "sanitizer before reaching protocol/SRDS logic or the "
            "bit-accounting ledger"
        ),
        rationale=(
            "Boyle-Cohen-Goel's bounds assume parties act on validated "
            "messages; an adaptive adversary's cheapest attack is a "
            "decoded field (round index, worker id, charge count) that "
            "reaches protocol or ledger code unchecked. Decoders must "
            "guard each escaping field, and wire-derived values must be "
            "narrowed before crossing into protocols/, srds/, or "
            "CommunicationMetrics charging."
        ),
        fix_hint=(
            "guard the field with a raising check (SerializationError/"
            "ClusterError/GatewayError/...), pass the value through a "
            "validate*/narrow* helper, or decode under try/except over "
            "malformed-input errors"
        ),
    )

    # -- policy helpers ------------------------------------------------------

    @staticmethod
    def _decoder_modules(project: ProjectUnit) -> Set[str]:
        return {
            name for name, facts in project.facts.items()
            if in_scope(facts.rel, DECODER_MODULES)
        }

    @staticmethod
    def _is_decoder_function(function: FunctionFacts) -> bool:
        name = function.name
        return name.startswith("decode") or name == "decode"

    def _is_source(
        self,
        project: ProjectUnit,
        decoder_modules: Set[str],
        modfacts: ModuleFacts,
        resolved: Optional[str],
        call: CallNode,
    ) -> bool:
        if call.callee == "pickle.loads" and in_scope(
            modfacts.rel, PICKLE_SCOPES
        ):
            return True
        tail = call.callee.rsplit(".", 1)[-1]
        if resolved is not None:
            owner = project.functions.get(resolved)
            if owner is not None and owner[0] in decoder_modules:
                if owner[1].name.startswith("decode"):
                    return True
            return False
        # Unresolved decode_* calls on decoder modules still count when
        # the raw callee's module prefix is a decoder module.
        head = call.callee.rsplit(".", 1)[0] if "." in call.callee else ""
        return tail.startswith("decode") and head in decoder_modules

    @staticmethod
    def _is_sanitizer(callee: str) -> bool:
        tail = callee.rsplit(".", 1)[-1].lower()
        return any(marker in tail for marker in SANITIZER_MARKERS)

    def _is_sink(
        self,
        project: ProjectUnit,
        call: CallNode,
        resolved: Optional[str],
    ) -> Optional[str]:
        """A human-readable sink label, or ``None``."""
        tail = call.callee.rsplit(".", 1)[-1]
        if tail in SINK_METHODS:
            return f"ledger call {tail}()"
        if resolved is not None:
            owner = project.functions.get(resolved)
            if owner is not None:
                rel = project.facts[owner[0]].rel
                if in_scope(rel, SINK_SCOPES):
                    return f"{resolved} ({rel})"
        return None

    # -- (a) decoder field strictness ---------------------------------------

    @staticmethod
    def _guarded_names(function: FunctionFacts) -> Set[str]:
        guarded = TrustBoundaryRule._guard_killed_names(function)
        # Fields handed to a raising local helper (the `need(length)`
        # pattern) or to a module-level checker that raises.
        raising_helpers = {
            name for name, raised in function.nested_raises.items()
            if set(raised) & GUARD_EXCEPTIONS
        }
        for call in function.calls:
            helper = call.callee.rsplit(".", 1)[-1]
            if helper in raising_helpers or call.callee in raising_helpers:
                for root in call.arg_roots:
                    if root is not None:
                        guarded.add(root)
        return guarded

    def _escape_lines(self, function: FunctionFacts) -> Dict[str, int]:
        """Name -> line where its value first escapes into the return.

        Reporting at the *escape site* (the constructor kwarg line, in
        practice) gives every field its own pragma-able line, so
        suppressing one contextually-validated field cannot mask a
        regression on a neighbouring field of the same unpack.
        """
        escaping: Dict[str, int] = {}

        def note(name: Optional[str], line: int) -> None:
            if name is None:
                return
            if name not in escaping or line < escaping[name]:
                escaping[name] = line

        return_origins: Set[str] = set()
        for ret in function.returns:
            return_origins.update(ret.origins)
        # Grow backwards through the call DAG: a call feeding the return
        # exposes its own argument roots, at the argument's own line
        # (one kwarg per line in the repo's constructors).
        calls_by_id = {call.id: call for call in function.calls}
        frontier = [
            origin for origin in return_origins if origin in calls_by_id
        ]
        seen: Set[str] = set(frontier)
        while frontier:
            call = calls_by_id[frontier.pop()]
            for index, root in enumerate(call.arg_roots):
                line = (
                    call.arg_lines[index]
                    if index < len(call.arg_lines) else call.line
                )
                note(root, line)
            for key, root in call.kw_roots.items():
                note(root, call.kw_lines.get(key, call.line))
            feeds: Set[str] = set(call.receiver_origins)
            for origins in call.arg_origins:
                feeds.update(origins)
            for origins in call.kw_origins.values():
                feeds.update(origins)
            for origin in feeds:
                if origin in calls_by_id and origin not in seen:
                    seen.add(origin)
                    frontier.append(origin)
        # Names returned directly (or via expressions the DAG did not
        # cover) anchor at the return line — but a call-argument line,
        # when one exists, is the more pragma-able anchor, so it wins.
        for ret in function.returns:
            for root in ret.roots:
                if root not in escaping:
                    escaping[root] = ret.line
        return escaping

    def _check_decoder_fields(
        self,
        project: ProjectUnit,
        modules: Dict[str, ModuleUnit],
        decoder_modules: Set[str],
    ) -> Iterator[Violation]:
        for modname in sorted(decoder_modules):
            modfacts = project.facts[modname]
            for function in modfacts.functions:
                if not self._is_decoder_function(function):
                    continue
                if not function.unpacks:
                    continue
                guarded = self._guarded_names(function)
                escaping = self._escape_lines(function)
                for unpack in function.unpacks:
                    for field in unpack.fields:
                        if field.startswith("_") or field in guarded:
                            continue
                        if field not in escaping:
                            continue
                        yield self.project_violation(
                            modules, modfacts.rel, escaping[field],
                            message=(
                                f"decoder {function.qualname}() lets "
                                f"the field {field!r} unpacked at line "
                                f"{unpack.line} escape into its return "
                                "value without a malformed-input guard"
                            ),
                        )

    # -- (b) interprocedural taint ------------------------------------------

    def _taint_summaries(
        self,
        project: ProjectUnit,
        decoder_modules: Set[str],
    ) -> Set[str]:
        """Qualified names of functions whose return carries wire taint.

        Fixpoint to :data:`DEPTH` rounds: each round may propagate
        taint one call level further.  Decoder functions themselves are
        *not* summarized as tainted — calling them is the source event,
        and call sites under a malformed-input ``try`` are exempt.
        """
        tainted_returns: Set[str] = set()
        for _ in range(DEPTH):
            changed = False
            for qualified, (modname, function) in project.functions.items():
                if qualified in tainted_returns:
                    continue
                if modname in decoder_modules and \
                        self._is_decoder_function(function):
                    continue
                tainted_ids = self._tainted_call_ids(
                    project, decoder_modules, tainted_returns,
                    modname, function,
                )
                for ret in function.returns:
                    if tainted_ids & set(ret.origins):
                        tainted_returns.add(qualified)
                        changed = True
                        break
            if not changed:
                break
        return tainted_returns

    def _tainted_call_ids(
        self,
        project: ProjectUnit,
        decoder_modules: Set[str],
        tainted_returns: Set[str],
        modname: str,
        function: FunctionFacts,
    ) -> Set[str]:
        modfacts = project.facts[modname]
        guarded_names = self._guard_killed_names(function)

        tainted: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for call in function.calls:
                if call.id in tainted:
                    continue
                if self._is_sanitizer(call.callee):
                    continue
                resolved = project.resolve_call(modname, function, call)
                if self._is_source(
                    project, decoder_modules, modfacts, resolved, call,
                ):
                    # Guarded construction: a strict decoder invoked
                    # under try/except over malformed-input errors is
                    # the sanctioned ingress pattern.
                    if not set(call.try_handlers) & GUARD_EXCEPTIONS:
                        tainted.add(call.id)
                        changed = True
                    continue
                if resolved is not None and resolved in tainted_returns:
                    if not set(call.try_handlers) & GUARD_EXCEPTIONS:
                        tainted.add(call.id)
                        changed = True
                    continue
                if self._tainted_feeds(call, tainted, guarded_names):
                    tainted.add(call.id)
                    changed = True
        return tainted

    @staticmethod
    def _guard_killed_names(function: FunctionFacts) -> Set[str]:
        """Names a raising guard validated — kills taint *by name* at
        use sites, so guarding ``recipients`` does not launder the
        ``rows`` it was derived from."""
        return {
            guard.name
            for guard in function.guards
            if set(guard.raised) & GUARD_EXCEPTIONS
        }

    @staticmethod
    def _tainted_feeds(call: CallNode, tainted: Set[str],
                       guarded_names: Set[str]) -> bool:
        """Does tainted data reach this call through an unguarded name?"""
        if call.receiver_root not in guarded_names and (
            set(call.receiver_origins) & tainted
        ):
            return True
        for root, origins in zip(call.arg_roots, call.arg_origins):
            if root in guarded_names:
                continue
            if set(origins) & tainted:
                return True
        for key, origins in call.kw_origins.items():
            if call.kw_roots.get(key) in guarded_names:
                continue
            if set(origins) & tainted:
                return True
        return False

    def _check_sinks(
        self,
        project: ProjectUnit,
        modules: Dict[str, ModuleUnit],
        decoder_modules: Set[str],
    ) -> Iterator[Violation]:
        tainted_returns = self._taint_summaries(project, decoder_modules)
        for qualified in sorted(project.functions):
            modname, function = project.functions[qualified]
            modfacts = project.facts[modname]
            # Sink-scope modules consuming their own data is fine; the
            # boundary is crossed by *callers* outside those scopes.
            if in_scope(modfacts.rel, SINK_SCOPES):
                continue
            tainted = self._tainted_call_ids(
                project, decoder_modules, tainted_returns, modname, function,
            )
            if not tainted:
                continue
            guarded_names = self._guard_killed_names(function)
            calls_by_id = {call.id: call for call in function.calls}
            for call in function.calls:
                resolved = project.resolve_call(modname, function, call)
                sink = self._is_sink(project, call, resolved)
                if sink is None:
                    continue
                hot: Set[str] = set()
                for root, origins in zip(call.arg_roots, call.arg_origins):
                    if root in guarded_names:
                        continue
                    hot.update(set(origins) & tainted)
                for key, origins in call.kw_origins.items():
                    if call.kw_roots.get(key) in guarded_names:
                        continue
                    hot.update(set(origins) & tainted)
                if not hot:
                    continue
                source_lines = sorted(
                    calls_by_id[origin].line
                    for origin in hot if origin in calls_by_id
                )
                origin_note = (
                    f" (wire data ingested at line "
                    f"{', '.join(str(line) for line in source_lines)})"
                    if source_lines else ""
                )
                yield self.project_violation(
                    modules, modfacts.rel, call.line,
                    message=(
                        f"{function.qualname}() passes unvalidated wire-"
                        f"derived data into {sink}{origin_note}"
                    ),
                )

    # -- entry point ---------------------------------------------------------

    def check_project(
        self,
        project: ProjectUnit,
        modules: Dict[str, ModuleUnit],
    ) -> Iterator[Violation]:
        decoder_modules = self._decoder_modules(project)
        yield from self._check_decoder_fields(
            project, modules, decoder_modules,
        )
        yield from self._check_sinks(project, modules, decoder_modules)
