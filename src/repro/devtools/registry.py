"""The rule registry: one place that knows every rule in the catalog.

Rules are small classes deriving from :class:`Rule`; decorating them with
:func:`register` adds an instance to the global registry that the analyzer
and the CLI consult.  Ids are unique and stable — they are what suppression
comments and ``--select``/``--ignore`` refer to, so renaming an id is a
breaking change to every annotated source line.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.devtools.context import ModuleContext
from repro.devtools.findings import Finding, Severity

if TYPE_CHECKING:
    from repro.devtools.project import ProjectContext


class Rule(ABC):
    """One static-analysis rule.

    Subclasses define the class attributes and implement :meth:`check`,
    yielding a :class:`~repro.devtools.findings.Finding` per violation.
    ``rationale`` states which library/paper invariant the rule guards; it
    is surfaced by ``--list-rules`` and in ``docs/devtools.md``.
    """

    #: Stable id used in reports and suppression comments (e.g. "REP402").
    id: str = ""
    #: Short kebab-case name (e.g. "lambda-task").
    name: str = ""
    #: Default severity of this rule's findings.
    severity: Severity = Severity.ERROR
    #: Which invariant the rule protects, in one or two sentences.
    rationale: str = ""

    @abstractmethod
    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield every violation found in one module."""

    def finding(
        self, ctx: ModuleContext, line: int, col: int, message: str
    ) -> Finding:
        """Build a finding of this rule at a location in ``ctx``."""
        return Finding(
            path=ctx.path,
            line=line,
            col=col,
            rule_id=self.id,
            message=message,
            severity=self.severity,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.id!r}, name={self.name!r})"


class ProjectRule(Rule):
    """A rule that needs the whole program, not one module.

    Project rules live in the same registry (stable ids, suppressions,
    ``--select``/``--ignore``, docs) but run only under ``ppm lint
    --project``, where a :class:`~repro.devtools.project.ProjectContext`
    carries the cross-module call graph and inferred effect sets.  In
    per-module mode they are inert: :meth:`check` yields nothing.
    """

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Project rules produce no per-module findings."""
        return iter(())

    @abstractmethod
    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        """Yield every violation found across the whole project."""

    def project_finding(
        self, path: str, line: int, col: int, message: str
    ) -> Finding:
        """Build a finding of this rule at an explicit location."""
        return Finding(
            path=path,
            line=line,
            col=col,
            rule_id=self.id,
            message=message,
            severity=self.severity,
        )


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one instance of the rule to the registry."""
    rule = cls()
    if not rule.id or not rule.name:
        raise ValueError(f"rule {cls.__name__} must define id and name")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by id.

    Importing :mod:`repro.devtools.rules` populates the registry; this
    function triggers that import so callers never see an empty catalog.
    """
    import repro.devtools.rules  # noqa: F401  (import populates registry)

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def project_rules() -> list[ProjectRule]:
    """Every registered whole-program rule, sorted by id."""
    return [rule for rule in all_rules() if isinstance(rule, ProjectRule)]


def get_rule(rule_id: str) -> Rule | None:
    """Look up one rule by id (after ensuring the catalog is loaded)."""
    all_rules()
    return _REGISTRY.get(rule_id)


def known_rule_ids() -> frozenset[str]:
    """The ids suppression comments are allowed to reference."""
    from repro.devtools.analyzer import META_RULE_IDS

    all_rules()
    return frozenset(_REGISTRY) | META_RULE_IDS
