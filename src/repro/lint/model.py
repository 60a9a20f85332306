"""Core data model of the protocol-aware linter.

The linter exists because the paper's headline claim is *quantitative*:
Thm 3.1 promises Õ(1) bits per party, and the repo proves it by
measurement — every byte must flow through the
:class:`~repro.net.metrics.CommunicationMetrics` charge seam, every
random draw must come from a seeded :class:`~repro.utils.randomness.Randomness`,
and every protocol step must be replayable tick-for-tick.  A single
``time.time()`` or module-level ``random.random()`` silently breaks
record-and-replay (PR 1), phase attribution (PR 2), and the campaign
invariant checks (PR 3) without failing a single test.  These are *repo
invariants*, not style preferences — so they are machine-checked here
instead of review-enforced.

This module defines the vocabulary shared by the engine, rules and
reporters: :class:`Severity`, :class:`RuleMeta`,
:class:`Violation`, :class:`ModuleUnit` (one parsed source file), and
the :class:`Rule` base class.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.lint.pragmas import PragmaIndex

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.lint.config import LintConfig
    from repro.lint.xmod.project import ProjectUnit


class Severity(enum.Enum):
    """How a finding affects the exit code.

    ``ERROR`` findings fail ``lint check`` (unless pragma-allowed);
    ``WARNING`` findings are reported but never fail the run (used for
    advisory diagnostics such as unused pragmas).
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class RuleMeta:
    """Static description of one rule (also what ``lint explain`` prints).

    ``rationale`` ties the rule back to the paper/repo invariant it
    guards; ``fix_hint`` is the generic remediation (violations may
    carry a more specific one).
    """

    rule_id: str
    name: str
    severity: Severity
    summary: str
    rationale: str
    fix_hint: str


@dataclass(frozen=True)
class Violation:
    """One finding: rule id, severity, span, message, and fix hint.

    ``symbol`` is the dotted name of the innermost enclosing
    class/function (or ``"<module>"``), and ``snippet`` is the stripped
    source line — what a report reader needs to find the site after
    the line numbers have moved.
    """

    rule_id: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    fix_hint: str = ""
    symbol: str = "<module>"
    snippet: str = ""

    def format(self) -> str:
        """One-line human rendering (``path:line:col RULE message``)."""
        location = f"{self.path}:{self.line}:{self.col}"
        text = f"{location}: {self.rule_id} [{self.severity}] {self.message}"
        if self.fix_hint:
            text += f"\n    hint: {self.fix_hint}"
        return text


@dataclass
class ModuleUnit:
    """One parsed Python source file, as seen by every rule.

    Rules receive the raw source (for snippets), the split lines, the
    parsed AST, the pragma index, and lazily-built shared analyses: the
    import map (dotted-name resolution for aliased imports) and the
    enclosing-symbol table.
    """

    path: Path
    rel: str
    source: str
    lines: List[str]
    tree: ast.Module
    pragmas: PragmaIndex
    _import_map: Optional[Dict[str, str]] = field(default=None, repr=False)
    _symbol_spans: Optional[List[Tuple[int, int, str]]] = field(
        default=None, repr=False
    )

    # -- shared analyses ----------------------------------------------------

    @property
    def import_map(self) -> Dict[str, str]:
        """Local name -> dotted origin, from every import in the file.

        ``import time as time_mod`` maps ``time_mod -> time``;
        ``from datetime import datetime`` maps
        ``datetime -> datetime.datetime``.  Function-level imports are
        included (protocol modules import lazily for startup cost).
        """
        if self._import_map is None:
            mapping: Dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        local = alias.asname or alias.name.split(".")[0]
                        origin = alias.name if alias.asname else local
                        mapping[local] = origin
                elif isinstance(node, ast.ImportFrom):
                    if node.module is None or node.level:
                        continue  # relative imports never hit stdlib seams
                    for alias in node.names:
                        local = alias.asname or alias.name
                        mapping[local] = f"{node.module}.{alias.name}"
            self._import_map = mapping
        return self._import_map

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain to its dotted origin, or None.

        ``time_mod.perf_counter`` (after ``import time as time_mod``)
        resolves to ``"time.perf_counter"``.  This is a lexical
        resolution: rebinding a module object to another name defeats
        it, which is acceptable for an advisory repo linter.
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        origin = self.import_map.get(current.id)
        if origin is None:
            return None
        parts.append(origin)
        return ".".join(reversed(parts))

    def symbol_at(self, line: int) -> str:
        """Dotted name of the innermost def/class containing ``line``."""
        if self._symbol_spans is None:
            spans: List[Tuple[int, int, str]] = []

            def visit(node: ast.AST, prefix: str) -> None:
                for child in ast.iter_child_nodes(node):
                    if isinstance(
                        child,
                        (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                    ):
                        qualname = (
                            f"{prefix}.{child.name}" if prefix else child.name
                        )
                        end = getattr(child, "end_lineno", child.lineno)
                        spans.append((child.lineno, end or child.lineno,
                                      qualname))
                        visit(child, qualname)
                    else:
                        visit(child, prefix)

            visit(self.tree, "")
            self._symbol_spans = spans
        best: Optional[Tuple[int, int, str]] = None
        for start, end, qualname in self._symbol_spans:
            if start <= line <= end:
                if best is None or (end - start) <= (best[1] - best[0]):
                    best = (start, end, qualname)
        return best[2] if best is not None else "<module>"

    def snippet_at(self, line: int) -> str:
        """The stripped source line (1-based), '' when out of range."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`meta` and implement :meth:`check`.  Rules are
    stateless: one instance is reused across every module of a run.
    """

    meta: RuleMeta

    def check(
        self, module: ModuleUnit, config: "LintConfig"
    ) -> Iterator[Violation]:
        """Yield violations found in ``module``."""
        raise NotImplementedError

    # -- helpers shared by concrete rules -----------------------------------

    def violation(
        self,
        module: ModuleUnit,
        node: ast.AST,
        message: str,
        fix_hint: Optional[str] = None,
    ) -> Violation:
        """Build a :class:`Violation` for ``node`` in ``module``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Violation(
            rule_id=self.meta.rule_id,
            severity=self.meta.severity,
            path=module.rel,
            line=line,
            col=col,
            message=message,
            fix_hint=fix_hint if fix_hint is not None else self.meta.fix_hint,
            symbol=module.symbol_at(line),
            snippet=module.snippet_at(line),
        )


class ProjectRule(Rule):
    """Base class for cross-module (interprocedural) rules.

    The engine collects every :class:`ModuleUnit` first, builds one
    :class:`repro.lint.xmod.project.ProjectUnit`, and calls
    :meth:`check_project` once per rule.  Violations still carry a
    per-file ``path``/``line`` so pragma suppression works unchanged.
    """

    def check(
        self, module: ModuleUnit, config: "LintConfig"
    ) -> Iterator[Violation]:
        """Project rules do not run per-module."""
        return iter(())

    def check_project(
        self, project: "ProjectUnit", modules: Dict[str, ModuleUnit],
        config: "LintConfig",
    ) -> Iterator[Violation]:
        """Yield violations found across ``project``.

        ``modules`` maps relative path -> loaded :class:`ModuleUnit`
        (for symbol/snippet rendering via :meth:`project_violation`).
        """
        raise NotImplementedError

    def project_violation(
        self,
        modules: Dict[str, ModuleUnit],
        rel: str,
        line: int,
        message: str,
        fix_hint: Optional[str] = None,
        col: int = 0,
    ) -> Violation:
        """Build a :class:`Violation` at ``rel:line``."""
        module = modules.get(rel)
        return Violation(
            rule_id=self.meta.rule_id,
            severity=self.meta.severity,
            path=rel,
            line=line,
            col=col,
            message=message,
            fix_hint=fix_hint if fix_hint is not None else self.meta.fix_hint,
            symbol=module.symbol_at(line) if module else "<module>",
            snippet=module.snippet_at(line) if module else "",
        )
