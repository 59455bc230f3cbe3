"""Pattern/tree immutability rules (REP2xx).

The max-subpattern tree's counts are exact only because ``Pattern``
behaves as an immutable letter set (paper Sections 3.2 and 4): hashes are
cached at construction, letter sets are shared freely between results and
caches, trees index nodes by frozen missing-letter sets.  One in-place
mutation outside the owning modules silently corrupts every structure
holding the object — no exception, just wrong counts.

These rules protect a fixed catalog of internals by attribute name.  The
check is name-based (static analysis cannot prove the object's type), so a
same-named attribute on an unrelated class in a non-owning module is a
false positive by construction — suppress it with
``# repro: ignore[REP201] -- <why the object is not a Pattern/tree node>``
or rename the attribute.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.context import MUTATING_CALLS, ModuleContext
from repro.devtools.findings import Finding, Severity
from repro.devtools.registry import Rule, register

#: Protected internals: attribute name -> modules allowed to write it.
PROTECTED_ATTRS: dict[str, frozenset[str]] = {
    # Pattern internals (repro.core.pattern).
    "_positions": frozenset({"repro.core.pattern"}),
    # The vocabulary owns a same-named letter store; interning appends to
    # it by design, so the encoding module is an owner too.
    "_letters": frozenset(
        {
            "repro.core.pattern",
            "repro.tree.max_subpattern_tree",
            "repro.encoding.vocabulary",
        }
    ),
    "_hash": frozenset({"repro.core.pattern"}),
    # MaxSubpatternNode fields: owned by the node module and the tree that
    # drives insertion/merging.
    "missing": frozenset({"repro.tree.node"}),
    "missing_mask": frozenset({"repro.tree.node"}),
    "count": frozenset({"repro.tree.node", "repro.tree.max_subpattern_tree"}),
    "parent": frozenset({"repro.tree.node"}),
    "children": frozenset({"repro.tree.node"}),
    # MaxSubpatternTree internals.
    "_index": frozenset({"repro.tree.max_subpattern_tree"}),
    "_root": frozenset({"repro.tree.max_subpattern_tree"}),
    "_total_hits": frozenset({"repro.tree.max_subpattern_tree"}),
    "_max_pattern": frozenset({"repro.tree.max_subpattern_tree"}),
}


def _is_protected_here(ctx: ModuleContext, attr: str) -> bool:
    owners = PROTECTED_ATTRS.get(attr)
    return owners is not None and ctx.module not in owners


@register
class PatternMutationRule(Rule):
    """REP201: assignment to Pattern/tree internals outside their modules."""

    id = "REP201"
    name = "pattern-mutation"
    severity = Severity.ERROR
    rationale = (
        "Pattern objects are hashable value objects with cached hashes, "
        "and tree nodes are owned by their tree; rebinding their fields "
        "outside repro.core.pattern / repro.tree breaks set/dict "
        "membership and the count-union merge without raising."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            for target in targets:
                if isinstance(target, ast.Attribute) and _is_protected_here(
                    ctx, target.attr
                ):
                    verb = "deleted" if isinstance(node, ast.Delete) else "assigned"
                    yield self.finding(
                        ctx,
                        target.lineno,
                        target.col_offset,
                        f"protected attribute {target.attr!r} {verb} outside "
                        "its defining module; Pattern and tree-node "
                        "internals are immutable elsewhere",
                    )


@register
class PatternInplaceCallRule(Rule):
    """REP202: in-place mutation of protected internals outside owners."""

    id = "REP202"
    name = "pattern-inplace-call"
    severity = Severity.ERROR
    rationale = (
        "Mutating a protected collection in place (node.children.clear(), "
        "tree._index[k] = n, pattern._positions[...] = ...) bypasses the "
        "tree's index bookkeeping and the pattern's cached hash — the "
        "merge stays silent and the counts go wrong."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                receiver = node.func.value
                if (
                    node.func.attr in MUTATING_CALLS
                    and isinstance(receiver, ast.Attribute)
                    and _is_protected_here(ctx, receiver.attr)
                ):
                    yield self.finding(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        f"in-place {node.func.attr}() on protected attribute "
                        f"{receiver.attr!r} outside its defining module",
                    )
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Attribute)
                        and _is_protected_here(ctx, target.value.attr)
                    ):
                        yield self.finding(
                            ctx,
                            target.lineno,
                            target.col_offset,
                            f"item assignment into protected attribute "
                            f"{target.value.attr!r} outside its defining "
                            "module",
                        )
