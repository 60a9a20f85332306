"""Core data model of the protocol-aware linter.

The linter keeps only rules whose defects the tier-1 suite cannot see:
the goldens already pin every charged bit, every trace fingerprint and
every seeded draw, but not a decoder that accepts one field too many, a
task handle dropped on the floor, a container mutated outside its lock,
or a broad ``except`` that turns a bug into "reject adversarial input".
``docs/static_analysis.md`` records the seeded-mutation study that
decided which rules stay.

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
    parsed AST, the pragma index, and the lazily-built
    enclosing-symbol table.
    """

    path: Path
    rel: str
    source: str
    lines: List[str]
    tree: ast.Module
    pragmas: PragmaIndex
    _symbol_spans: Optional[List[Tuple[int, int, str]]] = field(
        default=None, repr=False
    )

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

    def check(self, module: ModuleUnit) -> Iterator[Violation]:
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

    def check(self, module: ModuleUnit) -> Iterator[Violation]:
        """Project rules do not run per-module."""
        return iter(())

    def check_project(
        self, project: "ProjectUnit", modules: Dict[str, ModuleUnit],
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
