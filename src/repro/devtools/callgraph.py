"""A conservative whole-program call graph over the project's modules.

The graph is built from one parse pass: every module is visited once,
every ``def``/``async def`` (module-level, method, or nested) becomes a
:class:`FunctionNode`, and call expressions are resolved through the
machinery Python itself would use statically — import aliases, module
attribute access, ``self``/``cls`` method dispatch (including bases and
``self.<attr>`` instance attributes whose class is statically known), and
``functools.partial`` wrappers.

Resolution is *conservative* in the classic static-analysis sense: an
edge is added only when the callee can be named with confidence, and
call expressions that cannot be resolved to a project function are
surfaced as :attr:`FunctionNode.external_calls` with their fully-expanded
dotted name so the effect engine (:mod:`repro.devtools.effects`) can
classify known library sinks (``time.sleep``, ``open``,
``multiprocessing.Process``, ...).

Keys are ``"<module>:<qualname>"`` — e.g.
``"repro.serve.app:MiningApp._mine"`` — stable across runs and usable in
human-readable effect chains.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field

from repro.devtools.context import (
    ModuleContext,
    dotted_name,
    local_bound_names,
)

#: Names resolvable without any binding (used for closure detection).
_BUILTIN_NAMES = frozenset(dir(builtins))


@dataclass(slots=True)
class CallSite:
    """One resolved call edge: caller -> callee at a source line."""

    callee: str
    line: int


@dataclass(slots=True)
class ExternalCall:
    """A call that did not resolve to a project function.

    ``dotted`` is the fully-expanded dotted name (import aliases
    resolved), e.g. ``time.sleep`` for ``clock.sleep(...)`` under
    ``import time as clock``; for attribute calls on unresolvable
    receivers it is the best-effort chain (``path.read_text``).
    ``attr`` is the final attribute for method-name classification.
    """

    dotted: str
    attr: str | None
    line: int


@dataclass(slots=True)
class FunctionNode:
    """One function in the project: identity, AST, and outgoing calls."""

    key: str
    module: str
    qualname: str
    name: str
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    is_async: bool
    class_name: str | None = None
    #: True when defined inside another function (never picklable by ref).
    is_nested: bool = False
    #: Free variables: loaded names bound neither locally, at module
    #: level, nor as builtins.  Non-empty on a nested function means a
    #: genuine closure capture.
    free_names: frozenset[str] = frozenset()
    calls: list[CallSite] = field(default_factory=list)
    external_calls: list[ExternalCall] = field(default_factory=list)
    #: Context-manager expressions (``with <dotted>:``) for lock detection.
    with_names: list[tuple[str, int]] = field(default_factory=list)
    #: Nested function definitions visible by bare name from this body.
    local_defs: dict[str, str] = field(default_factory=dict)

    @property
    def display(self) -> str:
        """Short human form used in effect chains."""
        return f"{self.module}:{self.qualname}"


@dataclass(slots=True)
class ClassInfo:
    """Statically-known shape of one class: methods, bases, attr types."""

    fqname: str
    methods: dict[str, str] = field(default_factory=dict)
    #: Fully-expanded dotted base-class names, declaration order.
    bases: list[str] = field(default_factory=list)
    #: ``self.<attr>`` -> fully-qualified project class name, learned from
    #: ``self.attr = SomeClass(...)`` assignments and annotated class-body
    #: fields.
    attr_types: dict[str, str] = field(default_factory=dict)


class ModuleImports:
    """The import-alias table of one module.

    Maps each locally-bound first segment to the dotted target it stands
    for, so any local dotted chain expands to its canonical global name.
    """

    def __init__(self, tree: ast.Module):
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        self.aliases[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        self.aliases[head] = head
            elif isinstance(node, ast.ImportFrom) and node.module is not None:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.aliases[bound] = f"{node.module}.{alias.name}"

    def expand(self, dotted: str) -> str:
        """The canonical dotted name of a local dotted chain."""
        head, _, rest = dotted.partition(".")
        target = self.aliases.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target


@dataclass(slots=True)
class ModuleInfo:
    """Everything the graph knows about one parsed module."""

    ctx: ModuleContext
    imports: ModuleImports
    #: Module-level function/alias name -> function key.
    functions: dict[str, str] = field(default_factory=dict)
    #: Simple class name -> fully-qualified class name.
    classes: dict[str, str] = field(default_factory=dict)
    #: Names bound at module level (for closure detection).
    bindings: set[str] = field(default_factory=set)


class CallGraph:
    """The project-wide function index and resolved call edges."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionNode] = {}
        self.modules: dict[str, ModuleInfo] = {}
        self.classes: dict[str, ClassInfo] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, contexts: list[ModuleContext]) -> "CallGraph":
        """Index every module, learn instance-attribute types, then
        resolve every call site — three passes, so ``self.attr.method()``
        resolves regardless of module visit order."""
        graph = cls()
        for ctx in contexts:
            graph._index_module(ctx)
        for ctx in contexts:
            graph._learn_attr_types(graph.modules[ctx.module])
        for ctx in contexts:
            graph._resolve_module(ctx)
        return graph

    def _index_module(self, ctx: ModuleContext) -> None:
        info = ModuleInfo(ctx=ctx, imports=ModuleImports(ctx.tree))
        self.modules[ctx.module] = info
        info.bindings.update(info.imports.aliases)
        self._index_body(ctx, info, ctx.tree.body, prefix="", class_info=None,
                         enclosing=None)
        for node in ctx.tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
                # Module-level alias: ``run = _run`` re-exports a function.
                target_key = info.functions.get(node.value.id)
                if target_key is not None:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            info.functions.setdefault(target.id, target_key)
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        info.bindings.add(target.id)

    def _index_body(
        self,
        ctx: ModuleContext,
        info: ModuleInfo,
        body: list[ast.stmt],
        prefix: str,
        class_info: ClassInfo | None,
        enclosing: FunctionNode | None,
    ) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(ctx, info, node, prefix, class_info,
                                     enclosing)
            elif isinstance(node, ast.ClassDef):
                self._index_class(ctx, info, node, prefix, enclosing)
            elif isinstance(node, (ast.If, ast.Try)) and enclosing is None:
                # Conditional module-level definitions (TYPE_CHECKING,
                # version fallbacks) still define project functions.
                for sub in ast.iter_child_nodes(node):
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._index_function(ctx, info, sub, prefix,
                                             class_info, enclosing)
                    elif isinstance(sub, ast.ClassDef):
                        self._index_class(ctx, info, sub, prefix, enclosing)

    def _index_function(
        self,
        ctx: ModuleContext,
        info: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        prefix: str,
        class_info: ClassInfo | None,
        enclosing: FunctionNode | None,
    ) -> None:
        qualname = f"{prefix}{node.name}"
        key = f"{ctx.module}:{qualname}"
        fn = FunctionNode(
            key=key,
            module=ctx.module,
            qualname=qualname,
            name=node.name,
            path=ctx.path,
            node=node,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            class_name=class_info.fqname if class_info is not None else None,
            is_nested=enclosing is not None,
        )
        self.functions[key] = fn
        if class_info is not None:
            class_info.methods.setdefault(node.name, key)
        elif enclosing is not None:
            enclosing.local_defs.setdefault(node.name, key)
        else:
            info.functions.setdefault(node.name, key)
            info.bindings.add(node.name)
        self._index_body(ctx, info, node.body, prefix=f"{qualname}.",
                         class_info=None, enclosing=fn)

    def _index_class(
        self,
        ctx: ModuleContext,
        info: ModuleInfo,
        node: ast.ClassDef,
        prefix: str,
        enclosing: FunctionNode | None,
    ) -> None:
        fqname = f"{ctx.module}.{prefix}{node.name}"
        class_info = ClassInfo(fqname=fqname)
        self.classes[fqname] = class_info
        for base in node.bases:
            base_dotted = dotted_name(base)
            if base_dotted is not None:
                class_info.bases.append(info.imports.expand(base_dotted))
        if enclosing is None:
            info.classes.setdefault(node.name, fqname)
            info.bindings.add(node.name)
        for statement in node.body:
            if isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                attr_class = self._annotation_class(info, statement.annotation)
                if attr_class is not None:
                    class_info.attr_types.setdefault(
                        statement.target.id, attr_class
                    )
        self._index_body(ctx, info, node.body, prefix=f"{prefix}{node.name}.",
                         class_info=class_info, enclosing=enclosing)

    def _annotation_class(
        self, info: ModuleInfo, annotation: ast.expr
    ) -> str | None:
        """The project class an annotation names, if statically simple."""
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            head = annotation.value.strip().split("[")[0].split("|")[0].strip()
            return self._class_fqname(info, head)
        target = dotted_name(annotation)
        if target is None:
            return None
        return self._class_fqname(info, target)

    def _class_fqname(self, info: ModuleInfo, dotted: str) -> str | None:
        if dotted in info.classes:
            return info.classes[dotted]
        expanded = info.imports.expand(dotted)
        return expanded if expanded in self.classes else None

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------

    def _resolve_module(self, ctx: ModuleContext) -> None:
        info = self.modules[ctx.module]
        for fn in self.functions.values():
            if fn.module != ctx.module:
                continue
            self._resolve_function(info, fn)

    def _learn_attr_types(self, info: ModuleInfo) -> None:
        """Record ``self.attr = SomeClass(...)`` instance-attribute types."""
        for fn in self.functions.values():
            if fn.module != info.ctx.module or fn.class_name is None:
                continue
            class_info = self.classes.get(fn.class_name)
            if class_info is None:
                continue
            for node in self._own_body_walk(fn.node):
                if not isinstance(node, ast.Assign):
                    continue
                if not isinstance(node.value, ast.Call):
                    continue
                callee = dotted_name(node.value.func)
                if callee is None:
                    continue
                attr_class = self._class_fqname(info, callee)
                if attr_class is None:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        class_info.attr_types.setdefault(
                            target.attr, attr_class
                        )

    @staticmethod
    def _own_body_walk(
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> list[ast.AST]:
        """Walk a function body without descending into nested defs.

        Nested functions and lambdas are their own graph nodes; their
        bodies execute only when called, so their statements must not be
        attributed to the enclosing function.
        """
        found: list[ast.AST] = []
        stack: list[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            found.append(node)
            stack.extend(ast.iter_child_nodes(node))
        return found

    def _resolve_function(self, info: ModuleInfo, fn: FunctionNode) -> None:
        seen_edges: set[str] = set()
        for node in self._own_body_walk(fn.node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Call):
                        expr = expr.func
                    with_dotted = dotted_name(expr)
                    if with_dotted is not None:
                        fn.with_names.append((with_dotted, node.lineno))
            if not isinstance(node, ast.Call):
                continue
            self._resolve_call(info, fn, node, seen_edges)
        fn.free_names = self._free_names(info, fn)

    def _resolve_call(
        self,
        info: ModuleInfo,
        fn: FunctionNode,
        call: ast.Call,
        seen_edges: set[str],
    ) -> None:
        target = self._resolve_callable(info, fn, call.func)
        if target is not None:
            if target not in seen_edges:
                seen_edges.add(target)
                fn.calls.append(CallSite(callee=target, line=call.lineno))
            return
        dotted = dotted_name(call.func)
        if dotted is None:
            if isinstance(call.func, ast.Attribute):
                fn.external_calls.append(
                    ExternalCall(dotted="", attr=call.func.attr,
                                 line=call.lineno)
                )
            return
        expanded = info.imports.expand(dotted)
        # functools.partial(f, ...) wraps f: follow the reference.
        if expanded in ("functools.partial", "partial") and call.args:
            inner = self._resolve_callable(info, fn, call.args[0])
            if inner is not None and inner not in seen_edges:
                seen_edges.add(inner)
                fn.calls.append(CallSite(callee=inner, line=call.lineno))
                return
        attr = call.func.attr if isinstance(call.func, ast.Attribute) else None
        fn.external_calls.append(
            ExternalCall(dotted=expanded, attr=attr, line=call.lineno)
        )

    def _resolve_callable(
        self,
        info: ModuleInfo,
        fn: FunctionNode,
        expr: ast.expr,
    ) -> str | None:
        """Resolve a callable expression to a project function key."""
        if isinstance(expr, ast.Name):
            if expr.id in fn.local_defs:
                return fn.local_defs[expr.id]
            if expr.id in info.functions:
                return info.functions[expr.id]
            class_fq = self._class_fqname(info, expr.id)
            if class_fq is not None:
                return self.resolve_method(class_fq, "__init__")
            expanded = info.imports.expand(expr.id)
            return self.resolve_dotted(expanded)
        if isinstance(expr, ast.Attribute):
            dotted = dotted_name(expr)
            if dotted is None:
                return None
            parts = dotted.split(".")
            if parts[0] in ("self", "cls") and fn.class_name is not None:
                if len(parts) == 2:
                    return self.resolve_method(fn.class_name, parts[1])
                if len(parts) == 3:
                    class_info = self.classes.get(fn.class_name)
                    if class_info is not None:
                        attr_class = self._attr_type(fn.class_name, parts[1])
                        if attr_class is not None:
                            return self.resolve_method(attr_class, parts[2])
                return None
            expanded = info.imports.expand(dotted)
            return self.resolve_dotted(expanded)
        return None

    def _attr_type(self, class_fqname: str, attr: str) -> str | None:
        """The class of ``self.<attr>``, searching the base-class chain."""
        seen: set[str] = set()
        stack = [class_fqname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            class_info = self.classes.get(current)
            if class_info is None:
                continue
            if attr in class_info.attr_types:
                return class_info.attr_types[attr]
            stack.extend(class_info.bases)
        return None

    def resolve_method(self, class_fqname: str, name: str) -> str | None:
        """Resolve a method by name through the static MRO approximation."""
        seen: set[str] = set()
        stack = [class_fqname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            class_info = self.classes.get(current)
            if class_info is None:
                continue
            if name in class_info.methods:
                return class_info.methods[name]
            stack.extend(class_info.bases)
        return None

    def resolve_dotted(self, dotted: str) -> str | None:
        """Resolve a canonical dotted name to a project function key.

        Tries the longest module prefix: ``repro.serve.registry.
        SeriesRegistry.load`` splits at the deepest known module and the
        remainder resolves as a module-level function, a class
        constructor, or a class method.
        """
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            info = self.modules.get(module)
            if info is None:
                continue
            rest = parts[split:]
            if len(rest) == 1:
                if rest[0] in info.functions:
                    return info.functions[rest[0]]
                class_fq = info.classes.get(rest[0])
                if class_fq is not None:
                    return self.resolve_method(class_fq, "__init__")
                return None
            class_fq = info.classes.get(rest[0])
            if class_fq is not None and len(rest) == 2:
                return self.resolve_method(class_fq, rest[1])
            return None
        return None

    def _free_names(self, info: ModuleInfo, fn: FunctionNode) -> frozenset[str]:
        """Loaded names with no local, module, or builtin binding."""
        if not fn.is_nested:
            return frozenset()
        bound = local_bound_names(fn.node)
        free: set[str] = set()
        for node in self._own_body_walk(fn.node):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id not in bound
                and node.id not in info.bindings
                and node.id not in _BUILTIN_NAMES
            ):
                free.add(node.id)
        return frozenset(free)
