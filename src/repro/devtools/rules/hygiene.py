"""API hygiene rules (REP4xx).

Hygiene here is not style: each rule guards a way the package's public
surface or hot paths can silently rot — ``__all__`` drifting from what a
module actually exports, mutable defaults aliasing state across calls,
exception handlers swallowing the package's typed error contract, and
hot-path value classes paying dict-per-instance costs the tree benchmarks
assume away.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.context import (
    MUTABLE_FACTORIES,
    ModuleContext,
    dotted_name,
    iter_assigned_names,
)
from repro.devtools.findings import Finding, Severity
from repro.devtools.registry import Rule, register

#: Base classes exempting a class from the ``__slots__`` requirement.
_SLOTS_EXEMPT_BASES = frozenset(
    {
        "ABC",
        "BaseException",
        "Enum",
        "Exception",
        "Flag",
        "IntEnum",
        "IntFlag",
        "NamedTuple",
        "Protocol",
        "StrEnum",
        "TypedDict",
    }
)


def _module_bindings(ctx: ModuleContext) -> dict[str, int]:
    """Names bound at module level, mapped to the line binding them."""
    bindings: dict[str, int] = {}
    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bindings.setdefault(node.name, node.lineno)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in iter_assigned_names(target):
                    bindings.setdefault(name.id, node.lineno)
        elif isinstance(node, ast.AnnAssign):
            for name in iter_assigned_names(node.target):
                bindings.setdefault(name.id, node.lineno)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                bindings.setdefault(bound, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "*":
                    continue
                bindings.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, (ast.If, ast.Try)):
            # Conditionally-bound names (TYPE_CHECKING blocks, fallback
            # imports) still count as module bindings.
            for inner in ast.walk(node):
                if isinstance(inner, ast.ImportFrom):
                    for alias in inner.names:
                        if alias.name != "*":
                            bindings.setdefault(
                                alias.asname or alias.name, inner.lineno
                            )
                elif isinstance(inner, ast.Import):
                    for alias in inner.names:
                        bound = alias.asname or alias.name.split(".")[0]
                        bindings.setdefault(bound, inner.lineno)
    return bindings


def _public_names(ctx: ModuleContext) -> dict[str, int]:
    """Module-level names that belong in ``__all__`` if one is declared.

    Classes, functions, and constants defined here always count; imported
    names count only in package ``__init__`` modules, whose whole purpose
    is re-export.
    """
    public: dict[str, int] = {}
    for node in ctx.tree.body:
        names: list[tuple[str, int]] = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [(node.name, node.lineno)]
        elif isinstance(node, ast.Assign):
            names = [
                (name.id, node.lineno)
                for target in node.targets
                for name in iter_assigned_names(target)
            ]
        elif isinstance(node, ast.AnnAssign):
            names = [
                (name.id, node.lineno)
                for name in iter_assigned_names(node.target)
            ]
        elif ctx.is_package_init and isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            names = [
                (alias.asname or alias.name, node.lineno)
                for alias in node.names
                if alias.name != "*"
            ]
        for name, lineno in names:
            if not name.startswith("_"):
                public.setdefault(name, lineno)
    return public


def _all_declaration(ctx: ModuleContext) -> tuple[ast.Assign, list[str]] | None:
    """The module's literal ``__all__`` assignment, if statically readable."""
    for node in ctx.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            continue
        if not isinstance(node.value, (ast.List, ast.Tuple)):
            return None
        entries: list[str] = []
        for element in node.value.elts:
            if not (
                isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            ):
                return None
            entries.append(element.value)
        return node, entries
    return None


@register
class AllDriftRule(Rule):
    """REP401: ``__all__`` out of sync with the module's public names."""

    id = "REP401"
    name = "all-drift"
    severity = Severity.ERROR
    rationale = (
        "__all__ is the package's published API contract: a stale entry "
        "breaks 'from repro import *' and re-export type checking, and an "
        "unlisted public name ships an accidental API that no deprecation "
        "policy covers."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        declaration = _all_declaration(ctx)
        if declaration is None:
            return
        node, entries = declaration
        bindings = _module_bindings(ctx)
        for entry in entries:
            if entry not in bindings:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"__all__ lists {entry!r} but the module never binds it",
                )
        listed = set(entries)
        for name, lineno in sorted(_public_names(ctx).items()):
            if name not in listed and name != "__all__":
                yield self.finding(
                    ctx,
                    lineno,
                    0,
                    f"public name {name!r} is not listed in __all__; add it "
                    "or rename it with a leading underscore",
                )


@register
class MutableDefaultRule(Rule):
    """REP402: mutable default argument values."""

    id = "REP402"
    name = "mutable-default"
    severity = Severity.ERROR
    rationale = (
        "A mutable default is evaluated once and shared by every call — "
        "in a package whose miners are re-entered per query, that is "
        "cross-call (and cross-test) state leakage.  Default to None and "
        "construct inside the function."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                default
                for default in node.args.kw_defaults
                if default is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx,
                        default.lineno,
                        default.col_offset,
                        f"mutable default argument in {node.name}(); use "
                        "None and build the value inside the function",
                    )

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        if isinstance(node, ast.Call):
            callee = dotted_name(node.func)
            if callee is not None:
                return callee.split(".")[-1] in MUTABLE_FACTORIES
        return False


@register
class BareExceptRule(Rule):
    """REP403: bare ``except:`` clauses."""

    id = "REP403"
    name = "bare-except"
    severity = Severity.ERROR
    rationale = (
        "bare except catches SystemExit/KeyboardInterrupt and hides "
        "worker-thread crashes the service is designed to surface; "
        "catch the narrowest type, or Exception with an explicit "
        "suppression and reason."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    "bare 'except:'; name the exception types (the package "
                    "raises typed ReproError subclasses)",
                )


@register
class OverbroadExceptRule(Rule):
    """REP404: ``except Exception``/``BaseException`` handlers."""

    id = "REP404"
    name = "overbroad-except"
    severity = Severity.ERROR
    rationale = (
        "The package's error contract is typed (ReproError and "
        "subclasses); except Exception swallows genuine bugs such as a "
        "non-associative merge raising TypeError.  Where broad capture IS "
        "the contract (the serve connection loop's last-resort 500), the "
        "site must say so via a suppression with a reason."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            exc_types = (
                node.type.elts
                if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            for exc_type in exc_types:
                name = dotted_name(exc_type)
                if name is None:
                    continue
                terminal = name.split(".")[-1]
                if terminal in ("Exception", "BaseException"):
                    yield self.finding(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        f"overbroad 'except {terminal}'; catch specific "
                        "types, or document the broad capture with a "
                        "suppression reason",
                    )


@register
class MissingSlotsRule(Rule):
    """REP405: hot-path classes in core/tree without ``__slots__``."""

    id = "REP405"
    name = "missing-slots"
    severity = Severity.WARNING
    rationale = (
        "core/ and tree/ classes are instantiated per pattern and per "
        "tree node — the structures the paper's space analysis (Section "
        "4.1) bounds.  A per-instance __dict__ multiplies that footprint "
        "and slows attribute access on the counting hot path; __slots__ "
        "(or @dataclass(slots=True)) keeps the bound honest."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not (ctx.in_package("repro.core") or ctx.in_package("repro.tree")):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and not self._is_exempt(node):
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"class {node.name} in a hot-path package defines no "
                    "__slots__; add __slots__ or @dataclass(slots=True)",
                )

    @staticmethod
    def _is_exempt(node: ast.ClassDef) -> bool:
        if node.name.endswith(("Error", "Exception", "Warning")):
            return True
        for base in node.bases:
            name = dotted_name(base)
            if name is not None:
                terminal = name.split(".")[-1]
                if (
                    terminal in _SLOTS_EXEMPT_BASES
                    or terminal.endswith(("Error", "Exception", "Warning"))
                ):
                    return True
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call):
                callee = dotted_name(decorator.func)
                if callee is not None and callee.split(".")[-1] == "dataclass":
                    for keyword in decorator.keywords:
                        if (
                            keyword.arg == "slots"
                            and isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is True
                        ):
                            return True
        for statement in node.body:
            targets: list[ast.expr] = []
            if isinstance(statement, ast.Assign):
                targets = statement.targets
            elif isinstance(statement, ast.AnnAssign):
                targets = [statement.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        return False
