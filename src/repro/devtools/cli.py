"""Command-line front end: ``python -m repro.devtools`` / ``ppm lint``.

Exit codes: 0 — clean (warnings allowed unless ``--strict``); 1 — at least
one error-severity finding (or any finding under ``--strict``); 2 — usage
error (unknown rule id, unreadable path, invalid baseline).

``--project`` switches from per-module to whole-program analysis
(call graph + effect inference + REP311/REP811/REP901/REP1001).  ``--baseline
FILE`` turns on the ratchet: findings recorded in the committed baseline
are reported as accepted and do not affect the exit code, so CI fails
only on findings *new* relative to the baseline.  ``--write-baseline
FILE`` records the current findings as the new baseline and exits 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.devtools.analyzer import analyze_paths
from repro.devtools.baseline import (
    Baseline,
    BaselineError,
    load_baseline,
    write_baseline,
)
from repro.devtools.findings import Finding, Severity
from repro.devtools.registry import all_rules


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools",
        description=(
            "Domain-aware static analysis for the partial periodic "
            "pattern mining library (rule catalog: docs/devtools.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["."],
        help="files or directories to lint (default: current directory)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="IDS",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as errors for the exit code",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--project",
        action="store_true",
        help=(
            "whole-program analysis: build the call graph, infer "
            "transitive effects, and run the interprocedural rules "
            "(REP311, REP811, REP901, REP1001)"
        ),
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help=(
            "findings ratchet: fail only on findings not recorded in "
            "this committed baseline file"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="record the current findings as the accepted baseline and exit",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _print_catalog() -> None:
    for rule in all_rules():
        print(f"{rule.id} {rule.name} [{rule.severity}]")
        print(f"    {rule.rationale}")


def _split_ids(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [part for part in raw.split(",") if part.strip()]


def _findings_json(findings: list[Finding], baselined: set[int]) -> str:
    """The stable machine-readable report consumed by CI and the ratchet.

    Every row carries the finding fields plus ``baselined`` — whether
    the committed baseline accepts it (always ``false`` without
    ``--baseline``).
    """
    rows = []
    for index, finding in enumerate(findings):
        row = finding.to_dict()
        row["baselined"] = index in baselined
        rows.append(row)
    return json.dumps(rows, indent=2)


def run(
    paths: Sequence[str],
    select: str | None = None,
    ignore: str | None = None,
    strict: bool = False,
    output_format: str = "text",
    project: bool = False,
    baseline: str | None = None,
    write_baseline_to: str | None = None,
) -> int:
    """Lint paths and print findings; returns the process exit code."""
    missing = [path for path in paths if not Path(path).exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        if project:
            from repro.devtools.project import analyze_project

            findings = analyze_project(
                paths, select=_split_ids(select), ignore=_split_ids(ignore)
            )
        else:
            findings = analyze_paths(
                paths, select=_split_ids(select), ignore=_split_ids(ignore)
            )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if write_baseline_to is not None:
        write_baseline(write_baseline_to, findings)
        print(
            f"recorded {len(findings)} finding(s) in {write_baseline_to}; "
            "edit the file to add a reason per entry"
        )
        return 0
    accepted = Baseline()
    if baseline is not None:
        try:
            accepted = load_baseline(baseline)
        except BaselineError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    new, known = accepted.partition(findings)
    baselined_indexes = {
        index for index, finding in enumerate(findings) if finding in accepted
    }
    if output_format == "json":
        print(_findings_json(findings, baselined_indexes))
    else:
        for finding in new:
            print(finding.format())
        _print_summary(new, len(known))
    errors = sum(1 for finding in new if finding.severity >= Severity.ERROR)
    if errors or (strict and new):
        return 1
    return 0


def _print_summary(new: list[Finding], baselined: int) -> None:
    errors = sum(1 for finding in new if finding.severity >= Severity.ERROR)
    warnings = len(new) - errors
    suffix = f" ({baselined} baselined)" if baselined else ""
    if new:
        print(f"{errors} error(s), {warnings} warning(s){suffix}")
    else:
        print(f"all clean{suffix}")


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro.devtools``."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _print_catalog()
        return 0
    return run(
        args.paths,
        select=args.select,
        ignore=args.ignore,
        strict=args.strict,
        output_format=args.format,
        project=args.project,
        baseline=args.baseline,
        write_baseline_to=args.write_baseline,
    )
