"""Lint run configuration: the root, the paths, and the rule subset.

Rule scopes are not configuration: each rule reads its own as module
constants of **path substrings**, matched against the forward-slash
relative path of each file (relative to the configured root).  That
keeps the scopes usable both on the real tree
(``src/repro/runtime/transport.py`` matches scope ``runtime/``) and on
test fixture trees that mirror the layout
(``fixtures/runtime/asy001_bad.py`` matches too).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple


@dataclass(frozen=True)
class LintConfig:
    """Everything a lint run needs besides the rule set."""

    #: Directory all relative paths are reported against.
    root: Path = field(default_factory=Path.cwd)

    #: Path prefixes/fragments to lint (relative to root).
    paths: Tuple[str, ...] = ("src",)

    #: Directory names that are never descended into.
    exclude_dirs: Tuple[str, ...] = ("__pycache__", ".git", ".hypothesis")

    #: Rule ids to run; empty tuple means "all registered rules".
    rules: Tuple[str, ...] = ()


def in_scope(rel: str, scopes: Tuple[str, ...]) -> bool:
    """Whether ``rel`` (posix relative path) matches any scope."""
    return any(scope in rel for scope in scopes)


def default_config(root: Optional[Path] = None) -> LintConfig:
    """The repo configuration, rooted at ``root`` (default: auto-detect).

    Auto-detection walks up from the current directory looking for
    ``pyproject.toml`` so ``python -m repro lint`` works from any
    subdirectory of a checkout.
    """
    if root is None:
        candidate = Path.cwd()
        for parent in (candidate, *candidate.parents):
            if (parent / "pyproject.toml").exists():
                candidate = parent
                break
        root = candidate
    return LintConfig(root=root)
