"""``python -m repro lint`` — the operator interface of the linter.

Subcommands::

    lint check [paths...] [--format text|json] [--output FILE]
               [--rules IDS] [--root DIR]
        Run every rule over src/ (or the given paths).  Exit 0 when no
        violation is left standing (a finding is fixed, or carries a
        ``# lint: allow[RULE] reason=...`` pragma); exit 1 on
        violations or annotation errors; exit 2 on usage errors.

    lint explain RULE001
        Print a rule's rationale (why the invariant matters to the
        paper's claims) and its generic fix.

    lint rules
        List every registered rule with severity and summary.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List

from repro.errors import ConfigurationError
from repro.lint.config import LintConfig, default_config
from repro.lint.engine import run_lint
from repro.lint.model import Severity
from repro.lint.report import render_json, render_text
from repro.lint.rules import ALL_RULES, get_rule, rule_ids


def _build_config(args: argparse.Namespace) -> LintConfig:
    base = default_config(
        Path(args.root).resolve() if args.root else None
    )
    paths = tuple(args.paths) if args.paths else base.paths
    rules = tuple(
        token.strip()
        for token in (args.rules or "").split(",")
        if token.strip()
    )
    unknown = [r for r in rules if get_rule(r) is None]
    if unknown:
        raise ConfigurationError(
            f"unknown rule id(s): {', '.join(unknown)} "
            f"(known: {', '.join(rule_ids())})"
        )
    return LintConfig(root=base.root, paths=paths, rules=rules)


def _cmd_check(args: argparse.Namespace) -> int:
    config = _build_config(args)
    result = run_lint(config)
    meta_errors = [
        v for v in result.meta_violations if v.severity is Severity.ERROR
    ]
    exit_code = 1 if (result.violations or meta_errors) else 0
    if args.format == "json":
        rendered = render_json(result, exit_code)
    else:
        rendered = render_text(result)
    if args.output:
        Path(args.output).write_text(rendered, encoding="utf-8")
        print(f"lint report -> {args.output} (exit {exit_code})")
    else:
        print(rendered, end="")
    return exit_code


def _cmd_explain(args: argparse.Namespace) -> int:
    rule = get_rule(args.rule_id)
    if rule is None:
        print(f"unknown rule {args.rule_id!r}; known rules: "
              f"{', '.join(rule_ids())}")
        return 2
    meta = rule.meta
    print(f"{meta.rule_id} ({meta.name}) — severity {meta.severity}")
    print(f"\n  {meta.summary}\n")
    print("why it matters here:")
    print(f"  {meta.rationale}\n")
    print("how to fix:")
    print(f"  {meta.fix_hint}")
    print(
        "\nsuppress one site:  # lint: allow["
        f"{meta.rule_id}] reason=<why this deviation is correct>"
    )
    return 0


def _cmd_rules() -> int:
    for rule in ALL_RULES:
        meta = rule.meta
        print(f"{meta.rule_id}  {str(meta.severity):<7} "
              f"{meta.name:<28} {meta.summary}")
    print("\nLNT000  error   malformed-pragma             "
          "lint pragma without a reason= or with bad rule ids")
    print("LNT001  warning unused-pragma                "
          "pragma that suppressed nothing this run")
    print("LNT002  error   parse-error                  "
          "file could not be parsed; nothing was checked")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="protocol-aware static analysis for the repro tree",
    )
    sub = parser.add_subparsers(dest="subcommand")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("paths", nargs="*",
                       help="files/directories relative to the root "
                            "(default: src)")
        p.add_argument("--root", default=None,
                       help="repo root (default: auto-detect via "
                            "pyproject.toml)")
        p.add_argument("--rules", default="",
                       help="comma-separated rule ids (default: all)")

    check = sub.add_parser("check", help="run the rules; exit 1 on findings")
    add_common(check)
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument("--output", default=None,
                       help="write the report here instead of stdout")

    explain = sub.add_parser("explain", help="document one rule")
    explain.add_argument("rule_id")

    sub.add_parser("rules", help="list registered rules")
    return parser


def cmd_lint(argv: List[str]) -> int:
    """Entry point used by ``python -m repro lint ...``."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    if args.subcommand is None:
        parser.print_help()
        return 2
    try:
        if args.subcommand == "check":
            return _cmd_check(args)
        if args.subcommand == "explain":
            return _cmd_explain(args)
        if args.subcommand == "rules":
            return _cmd_rules()
    except ConfigurationError as exc:
        print(f"lint: {exc}")
        return 2
    parser.print_help()
    return 2
