"""Inline suppression comments: ``# repro: ignore[RULE] -- reason``.

A finding is suppressed when the physical line it is anchored to carries a
suppression comment naming the finding's rule id.  Every suppression MUST
give a reason after ``--`` — a suppression without one is itself reported
(:data:`MISSING_REASON_ID`), so intentional exceptions stay documented at
the site where they live.

Several rules may share one comment: ``# repro: ignore[REP301,REP404] --
reason``.  Rule ids that do not exist in the registry are reported as
:data:`UNKNOWN_RULE_ID` findings rather than silently tolerated, so typos
cannot disable nothing while looking like they disabled something.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass

#: Matches one suppression comment anywhere in a physical line.
_SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*ignore\[(?P<rules>[^\]]*)\](?:\s*--\s*(?P<reason>.*\S))?"
)


@dataclass(frozen=True, slots=True)
class Suppression:
    """One parsed suppression comment."""

    line: int
    rule_ids: tuple[str, ...]
    reason: str | None

    @property
    def has_reason(self) -> bool:
        """True when the mandatory ``-- reason`` clause is present."""
        return bool(self.reason)

    def covers(self, rule_id: str) -> bool:
        """True when this comment names the given rule id."""
        return rule_id in self.rule_ids


def _iter_comments(source: str) -> list[tuple[int, str]]:
    """``(line, text)`` for every comment token in the source.

    Tokenizing (rather than regex over raw lines) keeps suppression text
    inside docstrings and string literals inert.  Files the tokenizer
    rejects fall back to a whole-line scan so suppressions still survive
    in files that do not parse — the analyzer reports the syntax error
    itself.
    """
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return list(enumerate(source.splitlines(), start=1))
    return [
        (token.start[0], token.string)
        for token in tokens
        if token.type == tokenize.COMMENT
    ]


def parse_suppressions(source: str) -> dict[int, Suppression]:
    """Extract every suppression comment, keyed by 1-based line number.

    Only genuine comment tokens count — the suppression syntax appearing
    inside a docstring or string literal (as it does in this package's own
    documentation) is not a suppression.

    >>> sups = parse_suppressions("x = 1  # repro: ignore[REP402] -- demo\\n")
    >>> sups[1].rule_ids, sups[1].reason
    (('REP402',), 'demo')
    """
    suppressions: dict[int, Suppression] = {}
    for lineno, text in _iter_comments(source):
        match = _SUPPRESSION_RE.search(text)
        if match is None:
            continue
        rule_ids = tuple(
            part.strip().upper()
            for part in match.group("rules").split(",")
            if part.strip()
        )
        suppressions[lineno] = Suppression(
            line=lineno, rule_ids=rule_ids, reason=match.group("reason")
        )
    return suppressions
