"""Phase 1 of the whole-program pass: the cross-module project index.

:class:`ProjectIndex` is built once per lint invocation from every
:class:`~tools.wfalint.core.FileContext` the runner parsed (each module
is parsed exactly once — the index reuses the per-file trees).  It
gives the W009+ rule family the cross-module facts the per-file pass
cannot see:

* **module naming** — ``src/repro/serve/server.py`` →
  ``repro.serve.server`` (``src/`` stripped, ``__init__`` collapsed);
* **import graph** — per-module map of local names to fully-qualified
  targets, including relative ``from ..align.packing import …`` forms;
* **symbol tables** — every function/method/class under its qualified
  name, with parameter lists (the timeout-propagation rule's raw
  material) and class-level attribute *types* resolved from
  annotations and ``self.attr = Cls(...)`` assignments;
* **call graph** — best-effort resolution of every call site to
  fully-qualified targets: direct names, dotted imports
  (``time.sleep``), ``self.method()``, attribute calls through typed
  attributes (``self.batcher.submit`` → ``MicroBatcher.submit``), and
  locals typed by constructor calls or annotated parameters;
* **async reachability** — the set of functions transitively callable
  from any ``async def`` (BFS over resolved call edges).

Resolution is deliberately conservative: anything the index cannot
resolve is recorded with an empty target tuple, and rules treat
unresolved calls as out of scope — a whole-program linter must prefer
false negatives to noise.  ``--graph`` dumps the index as JSON for
debugging and as a CI artifact.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .core import FileContext

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "ProjectIndex",
    "module_name_for",
]

#: Leading path components stripped before dotting a relpath into a
#: module name (the src-layout prefix).
_STRIP_PREFIXES = ("src",)


def module_name_for(relpath: str) -> str:
    """Dotted module name for a POSIX relpath (best effort).

    ``src/repro/serve/server.py`` → ``repro.serve.server``;
    ``tools/wfalint/__init__.py`` → ``tools.wfalint``.
    """
    parts = list(Path(relpath).parts)
    if parts and parts[0] in _STRIP_PREFIXES:
        parts = parts[1:]
    if not parts:
        return ""
    last = parts[-1]
    if last.endswith(".py"):
        last = last[: -len(".py")]
    if last == "__init__":
        parts = parts[:-1]
    else:
        parts[-1] = last
    return ".".join(parts)


@dataclass
class CallSite:
    """One ``ast.Call`` with its best-effort resolution."""

    node: ast.Call
    #: Dotted source text of the callee (``self.batcher.submit``);
    #: unflattenable heads render as ``(…)``.
    raw: str
    #: Fully-qualified resolved targets (empty when unresolved).  A
    #: call of a class resolves to the class qualname itself.
    targets: tuple[str, ...]
    #: Qualname of the enclosing function ("" at module level).
    caller: str


@dataclass
class FunctionInfo:
    """One function or method under its fully-qualified name."""

    qualname: str
    module: str
    ctx: FileContext
    node: ast.FunctionDef | ast.AsyncFunctionDef
    is_async: bool
    class_name: str | None
    #: Positional + keyword-only parameter names, in order
    #: (``self``/``cls`` included for methods — callers account for it).
    params: tuple[str, ...]
    has_kwargs: bool
    calls: list[CallSite] = field(default_factory=list)

    @property
    def is_method(self) -> bool:
        return self.class_name is not None


@dataclass
class ClassInfo:
    """One class: its methods, attribute types, and init surface."""

    qualname: str
    module: str
    ctx: FileContext
    node: ast.ClassDef
    methods: set[str] = field(default_factory=set)
    #: ``self.attr`` → fully-qualified class name, from annotations
    #: (``batcher: MicroBatcher | None``) and ``self.x = Cls(...)``.
    attr_types: dict[str, str] = field(default_factory=dict)
    #: Class-level annotated names (dataclass fields — the constructor
    #: surface of config objects like ``EngineConfig``).
    field_names: set[str] = field(default_factory=set)


@dataclass
class ModuleInfo:
    """One parsed module and its name-resolution tables."""

    module: str
    ctx: FileContext
    #: Local name → fully-qualified target for every import.
    imports: dict[str, str] = field(default_factory=dict)
    #: Module-level defs/classes (name → qualname).
    globals: dict[str, str] = field(default_factory=dict)
    toplevel_calls: list[CallSite] = field(default_factory=list)


@dataclass
class ProjectIndex:
    """The phase-1 whole-program index (see module docstring)."""

    root: Path
    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, contexts: list[FileContext], root: Path) -> "ProjectIndex":
        """Index every parsed file (each tree is walked exactly once)."""
        index = cls(root=root)
        builders = []
        for ctx in contexts:
            module = module_name_for(ctx.relpath)
            if not module or module in index.modules:
                # Duplicate module names (two trees shipping the same
                # relpath) keep the first; later files still get their
                # per-file rules, just no index entry.
                if module in index.modules:
                    continue
            builder = _ModuleBuilder(module, ctx)
            index.modules[module] = builder.info
            builders.append(builder)
        for builder in builders:
            builder.collect_symbols(index)
        for builder in builders:
            builder.resolve_calls(index)
        return index

    # -- queries -------------------------------------------------------

    @property
    def async_functions(self) -> set[str]:
        """Qualnames of every ``async def`` in the index."""
        return {q for q, f in self.functions.items() if f.is_async}

    def iter_calls(self) -> Iterator[CallSite]:
        """Every call site in the project."""
        for func in self.functions.values():
            yield from func.calls
        for mod in self.modules.values():
            yield from mod.toplevel_calls

    def callers_of(self, qualname: str) -> list[CallSite]:
        """Call sites resolving to ``qualname``."""
        return [c for c in self.iter_calls() if qualname in c.targets]

    def reachable_from(self, roots: set[str]) -> set[str]:
        """Functions transitively reachable from ``roots`` (roots
        included) over resolved project-internal call edges."""
        seen = set()
        frontier = [q for q in roots if q in self.functions]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            for call in self.functions[current].calls:
                for target in call.targets:
                    callee = self._as_function(target)
                    if callee is not None and callee not in seen:
                        frontier.append(callee)
        return seen

    def _as_function(self, qualname: str) -> str | None:
        """Map a resolved target to a function qualname (a class call
        becomes its ``__init__`` when the class defines one)."""
        if qualname in self.functions:
            return qualname
        if qualname in self.classes:
            init = f"{qualname}.__init__"
            if init in self.functions:
                return init
        return None

    # -- artifact ------------------------------------------------------

    def graph_dump(self) -> dict:
        """JSON-friendly dump of the index (the ``--graph`` artifact)."""
        return {
            "modules": {
                name: {
                    "path": info.ctx.relpath,
                    "imports": dict(sorted(info.imports.items())),
                }
                for name, info in sorted(self.modules.items())
            },
            "functions": {
                q: {
                    "async": f.is_async,
                    "params": list(f.params),
                    "calls": [
                        {"raw": c.raw, "targets": list(c.targets),
                         "line": c.node.lineno}
                        for c in f.calls
                    ],
                }
                for q, f in sorted(self.functions.items())
            },
            "classes": {
                q: {
                    "methods": sorted(c.methods),
                    "attr_types": dict(sorted(c.attr_types.items())),
                    "fields": sorted(c.field_names),
                }
                for q, c in sorted(self.classes.items())
            },
            "async_reachable": sorted(
                self.reachable_from(self.async_functions)
            ),
        }


# -- per-module builder ------------------------------------------------


def flatten_dotted(node: ast.expr) -> str:
    """Dotted source text of a name/attribute chain (``a.b.c``).

    Non-name heads (calls, subscripts) render as ``(…)`` so the raw
    text stays informative: ``Path(x).write_text`` → ``(…).write_text``.
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{flatten_dotted(node.value)}.{node.attr}"
    return "(…)"


def annotation_names(node: ast.expr | None) -> list[str]:
    """Candidate class names inside an annotation, unions unwrapped.

    ``MicroBatcher | None`` → ``["MicroBatcher"]``; string annotations
    are parsed; ``Optional[X]``/``list[X]`` yield their arguments'
    names too (a typed container still names the element class).
    """
    if node is None:
        return []
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return []
    out: list[str] = []
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.BinOp) and isinstance(current.op, ast.BitOr):
            stack += [current.left, current.right]
        elif isinstance(current, ast.Subscript):
            stack.append(current.slice)
            # Optional[X] / list[X]: the subscripted head is a typing
            # construct, not the attribute's class — only descend.
        elif isinstance(current, ast.Tuple):
            stack += list(current.elts)
        elif isinstance(current, (ast.Name, ast.Attribute)):
            dotted = flatten_dotted(current)
            if dotted not in ("None", "(…)"):
                out.append(dotted)
        elif isinstance(current, ast.Constant) and current.value is None:
            pass
    return out


class _ModuleBuilder:
    """Two-pass builder: symbols first, then call resolution."""

    def __init__(self, module: str, ctx: FileContext) -> None:
        self.info = ModuleInfo(module=module, ctx=ctx)
        self.ctx = ctx
        self.module = module

    # pass 1: imports, module globals, functions, classes ---------------

    def collect_symbols(self, index: ProjectIndex) -> None:
        mod = self.info
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else local
                    mod.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(node)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    mod.imports[local] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )
        for node in self.ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                mod.globals[node.name] = f"{self.module}.{node.name}"
            elif isinstance(node, ast.ClassDef):
                mod.globals[node.name] = f"{self.module}.{node.name}"
        self._collect_defs(index, self.ctx.tree.body, class_info=None)

    def _import_base(self, node: ast.ImportFrom) -> str:
        if not node.level:
            return node.module or ""
        # Relative import: drop `level` trailing components from this
        # module's dotted name (the module itself counts as one).
        parts = self.module.split(".")
        base_parts = parts[: -node.level] if node.level <= len(parts) else []
        base = ".".join(base_parts)
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
        return base

    def _collect_defs(
        self,
        index: ProjectIndex,
        body: list[ast.stmt],
        class_info: ClassInfo | None,
    ) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function(index, node, class_info)
            elif isinstance(node, ast.ClassDef):
                qual = (
                    f"{class_info.qualname}.{node.name}"
                    if class_info
                    else f"{self.module}.{node.name}"
                )
                info = ClassInfo(
                    qualname=qual,
                    module=self.module,
                    ctx=self.ctx,
                    node=node,
                )
                index.classes[qual] = info
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(
                        stmt.target, ast.Name
                    ):
                        info.field_names.add(stmt.target.id)
                self._collect_defs(index, node.body, class_info=info)

    def _collect_function(
        self,
        index: ProjectIndex,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_info: ClassInfo | None,
    ) -> None:
        if class_info is not None:
            qual = f"{class_info.qualname}.{node.name}"
            class_info.methods.add(node.name)
        else:
            qual = f"{self.module}.{node.name}"
            # Nested functions get their own entries keyed by the
            # enclosing def when walked below; module-level here.
        args = node.args
        params = tuple(
            a.arg
            for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
        )
        index.functions[qual] = FunctionInfo(
            qualname=qual,
            module=self.module,
            ctx=self.ctx,
            node=node,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            class_name=class_info.qualname if class_info else None,
            params=params,
            has_kwargs=args.kwarg is not None,
        )
        if class_info is not None:
            self._collect_attr_types(class_info, node)
        # Nested defs inside this function (closures like `respond`):
        for stmt in ast.walk(node):
            if stmt is node:
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested_qual = f"{qual}.<locals>.{stmt.name}"
                if nested_qual in index.functions:
                    continue
                nargs = stmt.args
                index.functions[nested_qual] = FunctionInfo(
                    qualname=nested_qual,
                    module=self.module,
                    ctx=self.ctx,
                    node=stmt,
                    is_async=isinstance(stmt, ast.AsyncFunctionDef),
                    class_name=None,
                    params=tuple(
                        a.arg
                        for a in [
                            *nargs.posonlyargs,
                            *nargs.args,
                            *nargs.kwonlyargs,
                        ]
                    ),
                    has_kwargs=nargs.kwarg is not None,
                )

    def _collect_attr_types(
        self,
        class_info: ClassInfo,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> None:
        """Record ``self.attr`` types from annotations / constructors."""
        for stmt in ast.walk(method):
            target: ast.expr | None = None
            value: ast.expr | None = None
            annotation: ast.expr | None = None
            if isinstance(stmt, ast.AnnAssign):
                target, value, annotation = stmt.target, stmt.value, stmt.annotation
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            if (
                not isinstance(target, ast.Attribute)
                or not isinstance(target.value, ast.Name)
                or target.value.id != "self"
            ):
                continue
            attr = target.attr
            if annotation is not None:
                names = annotation_names(annotation)
                if names:
                    class_info.attr_types.setdefault(attr, names[0])
            if (
                isinstance(value, ast.Call)
                and attr not in class_info.attr_types
            ):
                dotted = flatten_dotted(value.func)
                if dotted != "(…)":
                    class_info.attr_types.setdefault(attr, dotted)

    # pass 2: call resolution -------------------------------------------

    def resolve_calls(self, index: ProjectIndex) -> None:
        resolver = _Resolver(index, self.info)
        # Map every statement to its enclosing function qualname.
        for qual, func in list(index.functions.items()):
            if func.module != self.module:
                continue
            local_types = resolver.local_types(func)
            nested_ids: set[int] = set()
            for stmt in ast.walk(func.node):
                if (
                    isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt is not func.node
                ):
                    nested_ids.update(id(n) for n in ast.walk(stmt))
            for node in ast.walk(func.node):
                if not isinstance(node, ast.Call):
                    continue
                if id(node) in nested_ids:
                    continue  # belongs to the nested function's entry
                func.calls.append(
                    resolver.resolve(node, func, local_types, caller=qual)
                )
        # Module-level calls (outside any def).
        in_defs = [
            n
            for n in ast.walk(self.ctx.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        covered = set()
        for d in in_defs:
            for n in ast.walk(d):
                covered.add(id(n))
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.Call) and id(node) not in covered:
                self.info.toplevel_calls.append(
                    resolver.resolve(node, None, {}, caller="")
                )


class _Resolver:
    """Resolve call expressions to fully-qualified names."""

    def __init__(self, index: ProjectIndex, mod: ModuleInfo) -> None:
        self.index = index
        self.mod = mod

    def _resolve_name(self, name: str) -> str | None:
        """A bare name in this module's namespace → FQ name."""
        if name in self.mod.globals:
            return self.mod.globals[name]
        if name in self.mod.imports:
            return self.mod.imports[name]
        return None

    def _resolve_class_name(self, dotted: str) -> str | None:
        """A (possibly dotted) type name → a class qualname we index."""
        head, _, rest = dotted.partition(".")
        base = self._resolve_name(head)
        candidate = f"{base}.{rest}" if base and rest else (base or dotted)
        if candidate in self.index.classes:
            return candidate
        if dotted in self.index.classes:
            return dotted
        # Suffix match: an annotation names the class without its
        # module path and the import table missed it.
        matches = [
            q
            for q in self.index.classes
            if q.rsplit(".", 1)[-1] == dotted.rsplit(".", 1)[-1]
        ]
        return matches[0] if len(matches) == 1 else None

    def local_types(self, func: FunctionInfo) -> dict[str, str]:
        """Local name → class qualname, from annotations + constructor
        assignments + known constructor-function return types."""
        types: dict[str, str] = {}
        args = func.node.args
        for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            for name in annotation_names(a.annotation):
                resolved = self._resolve_class_name(name)
                if resolved:
                    types[a.arg] = resolved
                    break
        for stmt in ast.walk(func.node):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
                if isinstance(target, ast.Name):
                    for name in annotation_names(stmt.annotation):
                        resolved = self._resolve_class_name(name)
                        if resolved:
                            types[target.id] = resolved
                            break
            if not isinstance(target, ast.Name):
                continue
            for candidate in self._value_candidates(value):
                typed = self._value_type(candidate)
                if typed:
                    types[target.id] = typed
                    break
        return types

    def _value_candidates(self, value: ast.expr | None) -> list[ast.expr]:
        if value is None:
            return []
        if isinstance(value, ast.BoolOp):
            return list(value.values)
        if isinstance(value, ast.Await):
            return [value.value]
        return [value]

    def _value_type(self, value: ast.expr) -> str | None:
        """The class an expression evaluates to, when statically clear."""
        if not isinstance(value, ast.Call):
            return None
        dotted = flatten_dotted(value.func)
        if dotted == "(…)":
            return None
        resolved = self._resolve_dotted(dotted, None, {})
        if not resolved:
            return None
        target = resolved[0]
        if target in self.index.classes:
            return target
        func = self.index.functions.get(target)
        if func is not None and func.node.returns is not None:
            for name in annotation_names(func.node.returns):
                cls = self._resolve_class_name(name)
                if cls:
                    return cls
        return None

    def _resolve_dotted(
        self,
        dotted: str,
        func: FunctionInfo | None,
        local_types: dict[str, str],
    ) -> tuple[str, ...]:
        parts = dotted.split(".")
        head, rest = parts[0], parts[1:]
        if head == "(…)":
            return ()
        if head == "self" and func is not None and func.class_name:
            cls = self.index.classes.get(func.class_name)
            if cls is None or not rest:
                return ()
            if len(rest) == 1:
                name = rest[0]
                if name in cls.methods:
                    return (f"{cls.qualname}.{name}",)
                return ()
            # self.attr.method — type the attribute, then the method.
            attr, chain = rest[0], rest[1:]
            attr_type = cls.attr_types.get(attr)
            if attr_type is None:
                return ()
            owner = self._resolve_class_name(attr_type)
            if owner is None or len(chain) != 1:
                return ()
            return (f"{owner}.{chain[0]}",)
        # A typed local (param annotation or constructor assignment).
        if head in local_types and rest:
            owner = local_types[head]
            if len(rest) == 1:
                return (f"{owner}.{rest[0]}",)
            return ()
        base = self._resolve_name(head)
        if base is None:
            return ()
        full = ".".join([base, *rest])
        return (full,)

    def resolve(
        self,
        node: ast.Call,
        func: FunctionInfo | None,
        local_types: dict[str, str],
        caller: str,
    ) -> CallSite:
        raw = flatten_dotted(node.func)
        targets = self._resolve_dotted(raw, func, local_types)
        return CallSite(node=node, raw=raw, targets=targets, caller=caller)
