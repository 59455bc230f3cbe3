"""Per-module analysis context handed to every rule.

Bundles the parsed AST with the information rules keep needing: the dotted
module name (so rules can scope themselves to ``repro.tree`` or exempt a
defining module), the raw source, and small AST utilities shared across the
rule catalog.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

#: Callables whose results are mutable collections.  Shared by the
#: mutable-default rule (REP402) and the effect engine's mutates-global
#: detection, so both agree on what "mutable" means.
MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "Counter", "OrderedDict",
     "defaultdict", "deque"}
)

#: Methods that mutate a collection in place (shared-state writes);
#: shared by the immutability rules and the effect engine.
MUTATING_CALLS = frozenset(
    {
        "add",
        "append",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)


def module_name_of(path: Path) -> str:
    """Derive the dotted module name of a file from ``__init__.py`` markers.

    Walks up while parent directories are packages, so
    ``src/repro/core/pattern.py`` maps to ``repro.core.pattern`` regardless
    of the current working directory.  Files outside any package map to
    their bare stem.
    """
    resolved = path.resolve()
    parts = [resolved.stem] if resolved.stem != "__init__" else []
    parent = resolved.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        if parent.parent == parent:
            break
        parent = parent.parent
    return ".".join(parts) if parts else resolved.stem


@dataclass(slots=True)
class ModuleContext:
    """Everything a rule may inspect about one module."""

    path: str
    module: str
    source: str
    tree: ast.Module
    #: True when the file is a package ``__init__.py``.
    is_package_init: bool = False
    _parents: dict[int, ast.AST] = field(default_factory=dict)

    @classmethod
    def from_source(
        cls,
        source: str,
        path: str = "<string>",
        module: str | None = None,
    ) -> "ModuleContext":
        """Parse source into a context; raises ``SyntaxError`` on bad input.

        ``module`` overrides the derived dotted name — fixture tests use it
        to place a snippet "inside" a scoped package such as
        ``repro.tree``.
        """
        tree = ast.parse(source, filename=path)
        if module is None:
            module = module_name_of(Path(path)) if path != "<string>" else ""
        return cls(
            path=path,
            module=module,
            source=source,
            tree=tree,
            is_package_init=Path(path).name == "__init__.py",
        )

    def in_package(self, prefix: str) -> bool:
        """True when the module is ``prefix`` or lives below it."""
        return self.module == prefix or self.module.startswith(prefix + ".")


def dotted_name(node: ast.AST) -> str | None:
    """The dotted form of a ``Name``/``Attribute`` chain, else ``None``.

    ``np.random.default_rng`` resolves to ``"np.random.default_rng"``; any
    non-name link (a call, a subscript) makes the chain unresolvable.
    """
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def call_keyword(call: ast.Call, name: str) -> ast.expr | None:
    """The value of keyword argument ``name`` of a call, if given."""
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def iter_assigned_names(target: ast.expr) -> list[ast.Name]:
    """All plain ``Name`` targets inside an assignment target expression."""
    if isinstance(target, ast.Name):
        return [target]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: list[ast.Name] = []
        for element in target.elts:
            names.extend(iter_assigned_names(element))
        return names
    if isinstance(target, ast.Starred):
        return iter_assigned_names(target.value)
    return []


def module_level_mutables(tree: ast.Module) -> set[str]:
    """Module-level names bound to statically-mutable values.

    A name counts when its module-level assignment is a literal
    collection, a comprehension, or a call to one of the
    :data:`MUTABLE_FACTORIES` — the values a function could mutate in
    place as hidden shared state.
    """
    names: set[str] = set()
    for node in tree.body:
        value: ast.expr | None = None
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        if value is None:
            continue
        mutable = isinstance(
            value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                    ast.DictComp, ast.SetComp)
        )
        if isinstance(value, ast.Call):
            callee = dotted_name(value.func)
            if callee is not None:
                mutable = callee.split(".")[-1] in MUTABLE_FACTORIES
        if not mutable:
            continue
        for target in targets:
            for name in iter_assigned_names(target):
                names.add(name.id)
    return names


def local_bound_names(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str]:
    """Every name bound inside a function: parameters, assignment targets,
    loop/with/comprehension targets, and nested definitions."""
    names = {arg.arg for arg in func.args.posonlyargs}
    names.update(arg.arg for arg in func.args.args)
    names.update(arg.arg for arg in func.args.kwonlyargs)
    if func.args.vararg is not None:
        names.add(func.args.vararg.arg)
    if func.args.kwarg is not None:
        names.add(func.args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node is not func:
                names.add(node.name)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                for name in iter_assigned_names(target):
                    names.add(name.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for name in iter_assigned_names(node.target):
                names.add(name.id)
        elif isinstance(node, ast.comprehension):
            for name in iter_assigned_names(node.target):
                names.add(name.id)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    for name in iter_assigned_names(item.optional_vars):
                        names.add(name.id)
        elif isinstance(node, ast.ExceptHandler) and node.name is not None:
            names.add(node.name)
    return names
