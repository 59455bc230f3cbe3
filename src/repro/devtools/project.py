"""Whole-program analysis: one parse pass, a call graph, effect inference.

Per-module linting (:func:`~repro.devtools.analyzer.analyze_paths`) sees
one file at a time, so any invariant that lives on a *call chain* — "no
coroutine under ``repro.serve`` ever reaches blocking I/O", "no counting
path ever draws unseeded randomness" — is invisible to it the moment the offending call
moves one helper away.  Project mode closes that gap:

1. every file is parsed **once** into a :class:`ModuleContext`, and the
   ordinary per-module rules run over it exactly as in file mode;
2. the contexts are indexed into a conservative
   :class:`~repro.devtools.callgraph.CallGraph`;
3. :class:`~repro.devtools.effects.EffectInference` labels every function
   with its transitive effect set (honouring trusted
   ``# repro: effect[...] -- reason`` boundary annotations);
4. the whole-program rules (:class:`~repro.devtools.registry.ProjectRule`
   subclasses — REP311, REP811, REP901, REP1001) run over the resulting
   :class:`ProjectContext`;
5. the analyzer's project-only meta findings are added: ``REP003`` for a
   suppression comment that hid nothing in the whole run, ``REP004`` for
   a malformed effect annotation.

Suppressions apply to project findings exactly as to module findings —
the physical line the finding anchors to may carry
``# repro: ignore[RULE] -- reason``.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path
from dataclasses import dataclass

from repro.devtools.analyzer import (
    SourceAnalysis,
    analyze_source_detailed,
    iter_python_files,
    select_rules,
    selected_meta_ids,
)
from repro.devtools.callgraph import CallGraph
from repro.devtools.context import ModuleContext, module_name_of
from repro.devtools.effects import (
    EFFECT_NAMES,
    EffectAnnotation,
    EffectInference,
    parse_effect_annotations,
)
from repro.devtools.findings import Finding, Severity
from repro.devtools.registry import ProjectRule, Rule


@dataclass(slots=True)
class ProjectContext:
    """Everything a whole-program rule may inspect.

    ``graph`` carries every function with its resolved call edges;
    ``inference`` answers effect queries (:meth:`effects_of`,
    :meth:`origin_of`, :meth:`chain`); ``files`` maps each analyzed path
    to its per-module :class:`SourceAnalysis` (suppressions included).
    """

    graph: CallGraph
    inference: EffectInference
    files: dict[str, SourceAnalysis]

    def context_for(self, module: str) -> ModuleContext | None:
        """The parsed context of one dotted module, if it was analyzed."""
        info = self.graph.modules.get(module)
        return info.ctx if info is not None else None


def build_project(
    paths: Iterable[str | Path],
    rules: list[Rule] | None = None,
    meta_ids: frozenset[str] | None = None,
) -> tuple[ProjectContext, list[Finding]]:
    """Parse every file once; run module rules; build graph + inference.

    Returns the project context and the per-module findings (catalog
    rules plus REP000/REP001/REP002/REP004).  Used directly by tests
    that want the graph without running the project rules.
    """
    if rules is None:
        rules = select_rules()
    if meta_ids is None:
        meta_ids = selected_meta_ids()
    module_rules = [
        rule for rule in rules if not isinstance(rule, ProjectRule)
    ]
    findings: list[Finding] = []
    files: dict[str, SourceAnalysis] = {}
    annotations: dict[str, dict[int, EffectAnnotation]] = {}
    contexts: list[ModuleContext] = []
    for path in iter_python_files(paths):
        source = path.read_text(encoding="utf-8")
        analysis = analyze_source_detailed(
            source,
            path=str(path),
            module=module_name_of(path),
            rules=module_rules,
            meta_ids=meta_ids,
        )
        files[str(path)] = analysis
        findings.extend(analysis.findings)
        if analysis.ctx is None:
            continue
        contexts.append(analysis.ctx)
        notes = parse_effect_annotations(source)
        if not notes:
            continue
        annotations[analysis.ctx.module] = notes
        if "REP004" in meta_ids:
            findings.extend(
                _malformed_annotation(str(path), note)
                for note in notes.values()
                if not note.trusted
            )
    graph = CallGraph.build(contexts)
    inference = EffectInference(graph, annotations)
    return ProjectContext(graph=graph, inference=inference, files=files), findings


def analyze_project(
    paths: Iterable[str | Path],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Finding]:
    """Whole-program lint: module rules + project rules + meta findings."""
    rules = select_rules(select=select, ignore=ignore)
    meta_ids = selected_meta_ids(select=select, ignore=ignore)
    project, findings = build_project(paths, rules=rules, meta_ids=meta_ids)
    for rule in rules:
        if not isinstance(rule, ProjectRule):
            continue
        for finding in rule.check_project(project):
            analysis = project.files.get(finding.path)
            if analysis is not None and analysis.suppressed(finding):
                continue
            findings.append(finding)
    if "REP003" in meta_ids:
        active_catalog = {rule.id for rule in rules}
        findings.extend(_unused_suppressions(project.files, active_catalog))
    return sorted(findings)


def _malformed_annotation(path: str, note: EffectAnnotation) -> Finding:
    problems: list[str] = []
    if note.unknown:
        known = ", ".join(sorted(EFFECT_NAMES.values()))
        problems.append(
            f"unknown effect name(s) {', '.join(note.unknown)} "
            f"(known: {known}, or 'pure')"
        )
    if not note.reason:
        problems.append(
            "missing reason; write "
            "'# repro: effect[...] -- why this boundary is verified'"
        )
    return Finding(
        path=path,
        line=note.line,
        col=0,
        rule_id="REP004",
        message=(
            "malformed effect annotation is not trusted: "
            + "; ".join(problems)
        ),
        severity=Severity.ERROR,
    )


def _unused_suppressions(
    files: dict[str, SourceAnalysis], active_catalog: set[str]
) -> list[Finding]:
    """REP003 for suppressions that hid nothing across the whole run.

    Conservative: a suppression is reported only when every rule it
    names is a catalog rule that actually ran — under ``--select`` a
    dormant suppression may simply be waiting for its rule.
    """
    findings: list[Finding] = []
    for analysis in files.values():
        if analysis.ctx is None:
            continue  # rules never ran; nothing can be called unused
        for suppression in analysis.suppressions.values():
            if not suppression.has_reason:
                continue  # already REP002
            if suppression.line in analysis.used_suppression_lines:
                continue
            if not suppression.rule_ids:
                continue
            if not all(
                rule_id in active_catalog for rule_id in suppression.rule_ids
            ):
                continue
            ids = ", ".join(suppression.rule_ids)
            findings.append(
                Finding(
                    path=analysis.ctx.path,
                    line=suppression.line,
                    col=0,
                    rule_id="REP003",
                    message=(
                        f"suppression of {ids} hides no finding; the "
                        "violation it excused is gone — delete the comment"
                    ),
                    severity=Severity.WARNING,
                )
            )
    return findings
