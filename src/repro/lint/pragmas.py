"""In-source suppression pragmas.

Grammar (one comment, same line as the violation or the line directly
above it)::

    # lint: allow[EXC001] reason=adversarial blob rejection per Fig. 3
    # lint: allow[TRU001,EXC001] reason=validated by the consumer
    # lint: file-allow[EXC001] reason=this whole module parses attacker bytes

``reason=`` is **mandatory**: a suppression without a recorded
justification is itself reported (rule ``LNT000``), because the whole
point of the pragma channel is that every deliberate deviation from a
rule's invariant carries its argument in-line.  Unused
pragmas are reported as warnings (``LNT001``) so suppressions cannot
outlive the code they excused.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

_PRAGMA_RE = re.compile(
    r"#\s*lint:\s*(?P<kind>allow|file-allow)\s*"
    r"\[(?P<rules>[^\]]*)\]\s*"
    r"(?:reason=(?P<reason>.*))?$"
)

_RULE_ID_RE = re.compile(r"^[A-Z]{3}\d{3}$")


@dataclass
class Pragma:
    """One parsed ``# lint:`` comment."""

    line: int
    kind: str  # "allow" | "file-allow"
    rule_ids: Tuple[str, ...]
    reason: str
    used: bool = field(default=False, compare=False)

    def allows(self, rule_id: str) -> bool:
        return rule_id in self.rule_ids


@dataclass
class PragmaProblem:
    """A malformed pragma (missing reason / bad rule id)."""

    line: int
    message: str


class PragmaIndex:
    """All pragmas of one file, queryable by (rule, line)."""

    def __init__(self, pragmas: List[Pragma],
                 problems: List[PragmaProblem]) -> None:
        self.pragmas = pragmas
        self.problems = problems
        self._by_line: Dict[int, List[Pragma]] = {}
        self._file_level: List[Pragma] = []
        for pragma in pragmas:
            if pragma.kind == "file-allow":
                self._file_level.append(pragma)
            else:
                self._by_line.setdefault(pragma.line, []).append(pragma)

    def suppression_for(self, rule_id: str, line: int) -> Optional[Pragma]:
        """The pragma covering ``rule_id`` at ``line``, if any.

        A line pragma covers its own line and the line directly below
        it (so a pragma-only comment line can sit above a long
        statement).  File pragmas cover everything.
        """
        for candidate_line in (line, line - 1):
            for pragma in self._by_line.get(candidate_line, ()):
                if pragma.allows(rule_id):
                    pragma.used = True
                    return pragma
        for pragma in self._file_level:
            if pragma.allows(rule_id):
                pragma.used = True
                return pragma
        return None

    def unused(self) -> List[Pragma]:
        """Pragmas that suppressed nothing in this run."""
        return [p for p in self.pragmas if not p.used]


def _comment_tokens(source: str) -> List[Tuple[int, str]]:
    """(line, comment text) for every real COMMENT token.

    Tokenizing (rather than scanning lines) is what keeps pragma
    *documentation* — ``# lint:`` examples inside docstrings, including
    the ones in this very module — from being parsed as live pragmas.
    """
    comments: List[Tuple[int, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # The engine reports unparseable files separately (LNT002);
        # partial comment lists from a truncated tokenize stream are
        # still useful, so keep whatever was gathered.
        pass
    return comments


def parse_pragmas(source: str) -> PragmaIndex:
    """Extract ``# lint:`` pragmas from real comments in ``source``."""
    pragmas: List[Pragma] = []
    problems: List[PragmaProblem] = []
    for index, comment in _comment_tokens(source):
        marker = comment.find("# lint:")
        if marker < 0:
            marker = comment.find("#lint:")
        if marker < 0:
            continue
        match = _PRAGMA_RE.match(comment[marker:].strip())
        if match is None:
            problems.append(PragmaProblem(
                index,
                "malformed lint pragma (want "
                "`# lint: allow[RULE001] reason=...`)",
            ))
            continue
        rule_ids = tuple(
            token.strip() for token in match.group("rules").split(",")
            if token.strip()
        )
        if not rule_ids:
            problems.append(PragmaProblem(
                index, "lint pragma lists no rule ids"))
            continue
        bad = [r for r in rule_ids if not _RULE_ID_RE.match(r)]
        if bad:
            problems.append(PragmaProblem(
                index,
                f"lint pragma names malformed rule id(s): {', '.join(bad)}",
            ))
            continue
        reason = (match.group("reason") or "").strip()
        if not reason:
            problems.append(PragmaProblem(
                index,
                "lint pragma is missing its mandatory reason= justification",
            ))
            continue
        pragmas.append(Pragma(
            line=index,
            kind=match.group("kind"),
            rule_ids=rule_ids,
            reason=reason,
        ))
    return PragmaIndex(pragmas, problems)
