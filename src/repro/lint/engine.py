"""The lint engine: file discovery, parsing, rule execution, suppression.

One :func:`run_lint` call produces a :class:`LintResult` holding

* ``violations`` — active findings (after pragma suppression),
* ``suppressed`` — findings silenced by an in-source pragma (kept for
  the JSON report: suppressions are auditable, not invisible),
* ``meta_violations`` — findings *about the lint annotations
  themselves*: malformed pragmas (LNT000), unused pragmas (LNT001),
  unparseable files (LNT002).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from repro.lint.config import LintConfig
from repro.lint.model import ModuleUnit, ProjectRule, Rule, Severity, Violation
from repro.lint.pragmas import Pragma, parse_pragmas
from repro.lint.rules import ALL_RULES, select_rules

#: Meta-rule ids (engine-emitted; not in the rule registry).
MALFORMED_PRAGMA = "LNT000"
UNUSED_PRAGMA = "LNT001"
PARSE_ERROR = "LNT002"


@dataclass
class LintResult:
    """Everything one engine run learned."""

    violations: List[Violation] = field(default_factory=list)
    suppressed: List[Tuple[Violation, Pragma]] = field(default_factory=list)
    meta_violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0

    @property
    def errors(self) -> List[Violation]:
        return [v for v in self.violations if v.severity is Severity.ERROR]


def iter_source_files(config: LintConfig) -> Iterator[Path]:
    """Yield the Python files selected by ``config``, sorted."""
    seen = set()
    for entry in config.paths:
        target = (config.root / entry).resolve()
        if target.is_file() and target.suffix == ".py":
            if target not in seen:
                seen.add(target)
                yield target
            continue
        if not target.is_dir():
            continue
        for path in sorted(target.rglob("*.py")):
            if any(part in config.exclude_dirs for part in path.parts):
                continue
            if path not in seen:
                seen.add(path)
                yield path


def load_module(path: Path, config: LintConfig) -> "ModuleUnit | Violation":
    """Parse one file into a :class:`ModuleUnit` (or a PARSE_ERROR)."""
    rel = _relative(path, config.root)
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError) as exc:
        return Violation(
            rule_id=PARSE_ERROR,
            severity=Severity.ERROR,
            path=rel,
            line=getattr(exc, "lineno", 1) or 1,
            col=0,
            message=f"cannot parse file: {exc}",
            fix_hint="fix the syntax error (nothing else was checked)",
        )
    lines = source.splitlines()
    return ModuleUnit(
        path=path,
        rel=rel,
        source=source,
        lines=lines,
        tree=tree,
        pragmas=parse_pragmas(source),
    )


def _relative(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def run_lint(
    config: LintConfig,
    rules: Optional[Tuple[Rule, ...]] = None,
) -> LintResult:
    """Run ``rules`` (default: config-selected) over the configured tree.

    Per-file rules run module by module; :class:`ProjectRule` subclasses
    run once against the assembled cross-module
    :class:`~repro.lint.xmod.project.ProjectUnit`.  Pragma hygiene
    runs last so a pragma that suppresses only a project-level finding
    is correctly counted as used.
    """
    if rules is None:
        rules = select_rules(config.rules) if config.rules else ALL_RULES
    active_ids = {rule.meta.rule_id for rule in rules}
    file_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    result = LintResult()
    modules: List[ModuleUnit] = []
    for path in iter_source_files(config):
        loaded = load_module(path, config)
        if isinstance(loaded, Violation):
            result.meta_violations.append(loaded)
            continue
        result.files_checked += 1
        modules.append(loaded)

    def record(module: ModuleUnit, violation: Violation) -> None:
        pragma = module.pragmas.suppression_for(
            violation.rule_id, violation.line
        )
        if pragma is not None:
            result.suppressed.append((violation, pragma))
        else:
            result.violations.append(violation)

    for module in modules:
        for rule in file_rules:
            for violation in rule.check(module):
                record(module, violation)

    if project_rules:
        from repro.lint.xmod.project import ProjectUnit

        project = ProjectUnit.from_modules(modules)
        by_rel = {module.rel: module for module in modules}
        for rule in project_rules:
            for violation in rule.check_project(project, by_rel):
                module_for = by_rel.get(violation.path)
                if module_for is not None:
                    record(module_for, violation)
                else:
                    result.violations.append(violation)

    for module in modules:
        # Pragma hygiene: malformed pragmas are errors, unused ones
        # warnings (a suppression must never outlive its violation).
        for problem in module.pragmas.problems:
            result.meta_violations.append(Violation(
                rule_id=MALFORMED_PRAGMA,
                severity=Severity.ERROR,
                path=module.rel,
                line=problem.line,
                col=0,
                message=problem.message,
                fix_hint="`# lint: allow[RULE001] reason=why this is "
                "protocol-correct`",
                symbol=module.symbol_at(problem.line),
                snippet=module.snippet_at(problem.line),
            ))
        for pragma in module.pragmas.unused():
            if not set(pragma.rule_ids) <= active_ids:
                # A partial run must not flag pragmas for rules it never
                # executed.
                continue
            result.meta_violations.append(Violation(
                rule_id=UNUSED_PRAGMA,
                severity=Severity.WARNING,
                path=module.rel,
                line=pragma.line,
                col=0,
                message=(
                    f"pragma allows [{', '.join(pragma.rule_ids)}] but "
                    "suppressed nothing — remove it"
                ),
                fix_hint="delete the stale `# lint: allow[...]` comment",
                symbol=module.symbol_at(pragma.line),
                snippet=module.snippet_at(pragma.line),
            ))
    result.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    result.meta_violations.sort(
        key=lambda v: (v.path, v.line, v.col, v.rule_id)
    )
    return result
