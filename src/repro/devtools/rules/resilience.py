"""Resilience rules (REP6xx): no blocking sleeps, no unbounded retries.

Library code never needs to pause: a blocking ``time.sleep`` in the
package is latency no caller can see or cancel — it stalls a serve
worker thread past the request deadline (:mod:`repro.serve.deadline`
cannot preempt it) or a stream feed mid-window (REP601).  Similarly, a
``while True`` loop that swallows exceptions and never exits is an
unbounded retry: under a persistent fault it spins forever instead of
failing loudly after a bounded number of attempts (REP602).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.context import ModuleContext, dotted_name
from repro.devtools.findings import Finding, Severity
from repro.devtools.registry import Rule, register

class _TimeImports:
    """Aliases under which stdlib ``time`` (and its ``sleep``) are bound."""

    def __init__(self, tree: ast.Module):
        self.modules: set[str] = set()
        self.sleeps: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        self.modules.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == "sleep":
                        self.sleeps.add(alias.asname or "sleep")


@register
class StraySleepRule(Rule):
    """REP601: a blocking ``time.sleep`` in package code."""

    id = "REP601"
    name = "stray-sleep"
    severity = Severity.ERROR
    rationale = (
        "A blocking sleep in library code is latency no caller can see "
        "or cancel: it holds a serve worker thread past the request "
        "deadline and stalls a stream feed mid-window.  Wait on the "
        "event that ends the pause (a condition, a queue, or "
        "asyncio.sleep inside a coroutine) instead."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_package("repro"):
            return
        imports = _TimeImports(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            path = dotted_name(node.func)
            if path is None:
                continue
            parts = path.split(".")
            stray = (
                len(parts) == 2
                and parts[0] in imports.modules
                and parts[1] == "sleep"
            ) or (len(parts) == 1 and parts[0] in imports.sleeps)
            if stray:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"blocking {path}() in package code; no deadline can "
                    "preempt it — wait on the event that ends the pause",
                )


def _loop_escapes(loop: ast.While) -> bool:
    """True when a ``while`` body can leave the loop (break/return/raise
    outside any handler, ignoring nested function definitions)."""
    stack: list[ast.AST] = list(loop.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Break, ast.Return)):
            return True
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.While, ast.For)
        ):
            # Nested scopes and loops consume their own break/return.
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


def _swallows_exceptions(loop: ast.While) -> bool:
    """True when the loop body contains a try/except whose handlers keep
    the loop spinning (no break/return/bare raise inside the handler)."""
    for node in ast.walk(loop):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not isinstance(node, ast.Try) or not node.handlers:
            continue
        for handler in node.handlers:
            escapes = any(
                isinstance(inner, (ast.Break, ast.Return, ast.Raise))
                for child in handler.body
                for inner in ast.walk(child)
            )
            if not escapes:
                return True
    return False


@register
class UnboundedRetryLoopRule(Rule):
    """REP602: a ``while True`` retry loop with no exit and swallowed
    exceptions."""

    id = "REP602"
    name = "unbounded-retry-loop"
    severity = Severity.ERROR
    rationale = (
        "A while-True loop that catches exceptions without ever breaking, "
        "returning, or re-raising retries forever: under a persistent "
        "fault it spins forever instead of failing loudly after a "
        "bounded number of attempts.  Bound the loop on an attempt "
        "counter or re-raise from the handler."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_package("repro"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.While):
                continue
            test = node.test
            if not (isinstance(test, ast.Constant) and test.value is True):
                continue
            if _loop_escapes(node):
                continue
            if _swallows_exceptions(node):
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    "unbounded while-True retry loop: exceptions are "
                    "swallowed and nothing exits the loop; bound it with an "
                    "attempt counter",
                )
