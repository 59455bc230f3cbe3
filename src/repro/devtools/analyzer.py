"""Run the rule catalog over files and fold in suppression handling.

This is the importable API used by the CLI, by ``ppm lint``, and directly
by the test suite:

* :func:`analyze_source` — lint one source string (fixture tests);
* :func:`analyze_file` / :func:`analyze_paths` — lint files and trees;
* :data:`META_RULE_IDS` — findings the analyzer itself produces.

Suppression semantics: a finding is dropped only when the physical line it
is anchored to carries ``# repro: ignore[<RULE>] -- <reason>`` naming the
finding's rule.  A suppression without a reason suppresses **nothing** and
is reported as ``REP002``; naming an unknown rule id is reported as
``REP001``.  Files that fail to parse yield a single ``REP000`` finding.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.devtools.context import ModuleContext, module_name_of
from repro.devtools.findings import Finding, Severity
from repro.devtools.registry import Rule, all_rules, known_rule_ids
from repro.devtools.suppressions import Suppression, parse_suppressions

#: Findings produced by the analyzer itself rather than a catalog rule:
#: REP000 syntax error, REP001 unknown suppressed id, REP002 suppression
#: without a reason, REP003 unused suppression (project mode only),
#: REP004 malformed effect annotation (project mode only).
META_RULE_IDS = frozenset({"REP000", "REP001", "REP002", "REP003", "REP004"})

#: Directories never descended into when expanding path arguments.
_SKIPPED_DIRS = frozenset(
    {".git", ".mypy_cache", ".pytest_cache", ".ruff_cache", "__pycache__",
     ".venv", "venv", ".tox", "build", "dist"}
)


def _normalized_ids(raw: Iterable[str]) -> set[str]:
    return {rule_id.strip().upper() for rule_id in raw if rule_id.strip()}


def select_rules(
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Rule]:
    """The catalog filtered by ``--select``/``--ignore`` id lists.

    Meta rule ids (:data:`META_RULE_IDS`) are accepted in both lists —
    they select no catalog rule here, but :func:`selected_meta_ids`
    applies the same lists to the analyzer's own findings, so ``--ignore
    REP002`` genuinely silences the missing-reason meta finding.  Ids
    that exist in neither the catalog nor the meta set raise
    ``ValueError`` — a silently-ignored typo would disable nothing while
    appearing to.
    """
    catalog = all_rules()
    known = {rule.id for rule in catalog} | META_RULE_IDS
    chosen = catalog
    if select is not None:
        wanted = _normalized_ids(select)
        unknown = wanted - known
        if unknown:
            raise ValueError(f"unknown rule ids in --select: {sorted(unknown)}")
        chosen = [rule for rule in chosen if rule.id in wanted]
    if ignore is not None:
        dropped = _normalized_ids(ignore)
        unknown = dropped - known
        if unknown:
            raise ValueError(f"unknown rule ids in --ignore: {sorted(unknown)}")
        chosen = [rule for rule in chosen if rule.id not in dropped]
    return chosen


def selected_meta_ids(
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> frozenset[str]:
    """The meta findings active under the same ``--select``/``--ignore``."""
    active = set(META_RULE_IDS)
    if select is not None:
        active &= _normalized_ids(select)
    if ignore is not None:
        active -= _normalized_ids(ignore)
    return frozenset(active)


@dataclass(slots=True)
class SourceAnalysis:
    """One module's lint result plus the state project mode builds on.

    ``used_suppression_lines`` records which suppression comments
    actually hid a finding — project mode extends it while filtering
    whole-program findings, then reports the remainder as REP003.
    """

    findings: list[Finding]
    suppressions: dict[int, Suppression]
    used_suppression_lines: set[int] = field(default_factory=set)
    #: ``None`` when the file did not parse (a REP000 finding is present).
    ctx: ModuleContext | None = None

    def suppressed(self, finding: Finding) -> bool:
        """Whether a finding is hidden by a line suppression (and mark it
        used if so)."""
        suppression = self.suppressions.get(finding.line)
        if (
            suppression is not None
            and suppression.has_reason
            and suppression.covers(finding.rule_id)
        ):
            self.used_suppression_lines.add(suppression.line)
            return True
        return False


def analyze_source_detailed(
    source: str,
    path: str = "<string>",
    module: str | None = None,
    rules: Sequence[Rule] | None = None,
    meta_ids: frozenset[str] = META_RULE_IDS,
) -> SourceAnalysis:
    """Lint one source string; the workhorse behind every entry point.

    ``module`` places the snippet at a dotted location so scoped rules
    fire (e.g. ``module="repro.tree.node"``); fixture tests rely on
    this.  ``meta_ids`` filters the analyzer's own findings so
    ``--select``/``--ignore`` apply to them like any catalog rule.
    """
    suppressions = parse_suppressions(source)
    findings: list[Finding] = []
    known = known_rule_ids()
    for suppression in suppressions.values():
        if not suppression.has_reason and "REP002" in meta_ids:
            findings.append(
                Finding(
                    path=path,
                    line=suppression.line,
                    col=0,
                    rule_id="REP002",
                    message=(
                        "suppression without a reason; write "
                        "'# repro: ignore[RULE] -- why this is intentional'"
                    ),
                    severity=Severity.ERROR,
                )
            )
        for rule_id in suppression.rule_ids:
            if rule_id not in known and "REP001" in meta_ids:
                findings.append(
                    Finding(
                        path=path,
                        line=suppression.line,
                        col=0,
                        rule_id="REP001",
                        message=f"suppression names unknown rule id {rule_id!r}",
                        severity=Severity.ERROR,
                    )
                )
    analysis = SourceAnalysis(findings=findings, suppressions=suppressions)
    try:
        ctx = ModuleContext.from_source(source, path=path, module=module)
    except SyntaxError as error:
        if "REP000" in meta_ids:
            findings.append(
                Finding(
                    path=path,
                    line=error.lineno or 1,
                    col=(error.offset or 1) - 1,
                    rule_id="REP000",
                    message=f"file does not parse: {error.msg}",
                    severity=Severity.ERROR,
                )
            )
        findings.sort()
        return analysis
    analysis.ctx = ctx
    for rule in all_rules() if rules is None else rules:
        for finding in rule.check(ctx):
            if not analysis.suppressed(finding):
                findings.append(finding)
    findings.sort()
    return analysis


def analyze_source(
    source: str,
    path: str = "<string>",
    module: str | None = None,
    rules: Sequence[Rule] | None = None,
    meta_ids: frozenset[str] = META_RULE_IDS,
) -> list[Finding]:
    """Lint one source string and return its sorted findings."""
    return analyze_source_detailed(
        source, path=path, module=module, rules=rules, meta_ids=meta_ids
    ).findings


def analyze_file(
    path: str | Path,
    rules: Sequence[Rule] | None = None,
    meta_ids: frozenset[str] = META_RULE_IDS,
) -> list[Finding]:
    """Lint one file on disk."""
    target = Path(path)
    return analyze_source(
        target.read_text(encoding="utf-8"),
        path=str(target),
        module=module_name_of(target),
        rules=rules,
        meta_ids=meta_ids,
    )


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files and directories into a deduplicated ``.py`` file list."""
    seen: set[Path] = set()
    ordered: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(
                candidate
                for candidate in path.rglob("*.py")
                if not (_SKIPPED_DIRS & set(candidate.parts))
            )
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                ordered.append(candidate)
    return ordered


def analyze_paths(
    paths: Iterable[str | Path],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Finding]:
    """Lint files and directory trees with an optional rule filter."""
    rules = select_rules(select=select, ignore=ignore)
    meta_ids = selected_meta_ids(select=select, ignore=ignore)
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(analyze_file(path, rules=rules, meta_ids=meta_ids))
    return sorted(findings)
