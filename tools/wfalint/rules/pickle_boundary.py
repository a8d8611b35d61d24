"""W005 — nothing unpicklable crosses the multiprocessing boundary.

The engine ships three kinds of objects to worker processes: the
:class:`~repro.engine.EngineConfig` (inside each chunk payload), the
chunk's ``PairItem`` work items, and the backend class (re-instantiated
per worker).  Everything stored on them must survive
``pickle.dumps`` — a lambda, a locally-defined function, or an open
file handle stored on instance state raises ``PicklingError`` only at
dispatch time, on the parallel path, which unit tests with
``workers=1`` never exercise.  This rule moves that failure to lint
time.

``dataclasses.field(default_factory=lambda: ...)`` is *allowed*: the
factory runs in-process and only its (picklable) result lands on the
instance.  ``field(default=lambda ...)`` and ``attr = lambda`` class
defaults are flagged — there the lambda itself becomes instance state.

The rule also keeps live buffer objects — ``SharedMemory`` handles,
``memoryview`` exports, raw ``ndarray`` views — off a boundary class
and out of a chunk-protocol type alias (a module-level alias named
``*Payload`` or ``*Item``).  Sequences cross the boundary as plain
strings inside the pickled chunk.  Shipping a buffer instead either
dies in ``pickle.dumps`` or — worse — pins process-local state the
worker cannot see, while ``workers=1`` tests stay green.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import FileContext, Finding, Rule, register

#: Class names whose instances cross the multiprocessing boundary, plus
#: name suffixes for the backend hierarchy (``*Backend`` classes are
#: pickled by class reference but their instances are rebuilt from
#: ``EngineConfig`` state in the worker).
_BOUNDARY_CLASSES = {
    "EngineConfig",
    "PairItem",
    "PairOutcome",
    "BatchReport",
    "SequencePair",
}
_BOUNDARY_SUFFIXES = ("Backend",)

#: Type names that denote live process-local buffers.  None of these may
#: appear on a boundary class or in a chunk-protocol type alias — chunks
#: carry plain values that pickle by value.
_BUFFER_NAMES = {
    "SharedMemory",
    "memoryview",
    "ndarray",
    "NDArray",
    "mmap",
}

#: Module-level type aliases with these suffixes define the chunk
#: protocol (what ``pickle.dumps`` actually serialises per dispatch).
_PROTOCOL_ALIAS_SUFFIXES = ("Payload", "Item")


def _is_boundary_class(name: str) -> bool:
    return name in _BOUNDARY_CLASSES or name.endswith(_BOUNDARY_SUFFIXES)


def _banned_buffer_name(expr: ast.expr) -> str | None:
    """First live-buffer type name appearing anywhere in ``expr``."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and node.id in _BUFFER_NAMES:
            return node.id
        if isinstance(node, ast.Attribute) and node.attr in _BUFFER_NAMES:
            return node.attr
    return None


def _local_def_names(func: ast.AST) -> set[str]:
    """Names of functions defined directly inside ``func``'s body."""
    names: set[str] = set()
    for stmt in getattr(func, "body", []):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(stmt.name)
    return names


def _unpicklable_reason(
    value: ast.expr, local_defs: set[str]
) -> str | None:
    """Why ``value`` would not survive pickling, or ``None`` if it would."""
    if isinstance(value, ast.Lambda):
        return "a lambda"
    if isinstance(value, ast.Name) and value.id in local_defs:
        return f"the nested function `{value.id}`"
    if isinstance(value, ast.Call):
        func = value.func
        func_name = None
        if isinstance(func, ast.Name):
            func_name = func.id
        elif isinstance(func, ast.Attribute):
            func_name = func.attr
        if func_name == "open":
            return "an open file handle"
        if func_name in _BUFFER_NAMES:
            return f"a live `{func_name}` buffer"
    return None


@register
class PickleBoundaryRule(Rule):
    """W005 — boundary objects hold only picklable state."""

    id = "W005"
    name = "unpicklable-boundary-state"
    severity = "error"
    description = (
        "Lambdas, nested functions, open handles and live buffers "
        "(SharedMemory / memoryview / ndarray) must not be stored on "
        "EngineConfig / PairItem / chunk payloads / backend classes — "
        "they die in `pickle.dumps` at dispatch time (or silently copy), "
        "only on the parallel path.  Ship plain values (strings, ints, "
        "tuples of them) instead of buffers."
    )
    invariant = (
        "Everything the engine ships to a worker round-trips through "
        "pickle (the chunk protocol) and carries no live buffers; "
        "failures must be impossible, not merely rare."
    )
    path_fragments = ("repro/engine/", "repro/align/", "repro/workloads/")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._check_protocol_aliases(ctx)
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            if not _is_boundary_class(cls.name):
                continue
            yield from self._check_class_body(ctx, cls)
            for method in cls.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from self._check_method(ctx, cls, method)

    def _check_protocol_aliases(self, ctx: FileContext) -> Iterator[Finding]:
        """Module-level ``*Payload`` / ``*Item`` aliases stay buffer-free."""
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                target, value = stmt.target, stmt.value
            else:
                continue
            if not isinstance(target, ast.Name):
                continue
            if not target.id.endswith(_PROTOCOL_ALIAS_SUFFIXES):
                continue
            banned = _banned_buffer_name(value)
            if banned is not None:
                yield self.finding(
                    ctx,
                    stmt,
                    f"chunk-protocol alias `{target.id}` references the "
                    f"live buffer type `{banned}`; ship plain values "
                    "(strings, ints) that pickle by value",
                )

    def _check_class_body(
        self, ctx: FileContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        """Dataclass-style field annotations and defaults in the body."""
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign):
                target = stmt.target
                attr = target.id if isinstance(target, ast.Name) else "?"
                banned = _banned_buffer_name(stmt.annotation)
                if banned is not None:
                    yield self.finding(
                        ctx,
                        stmt,
                        f"`{cls.name}.{attr}` is annotated with the live "
                        f"buffer type `{banned}`; boundary classes carry "
                        "plain picklable values, not buffers",
                    )
                if stmt.value is None:
                    continue
                yield from self._check_default(ctx, cls, attr, stmt.value)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    yield from self._check_default(
                        ctx, cls, target.id, stmt.value
                    )

    def _check_default(
        self, ctx: FileContext, cls: ast.ClassDef, attr: str, value: ast.expr
    ) -> Iterator[Finding]:
        # field(default=<unpicklable>) — but default_factory is fine.
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "field"
        ):
            for kw in value.keywords:
                if kw.arg == "default":
                    reason = _unpicklable_reason(kw.value, set())
                    if reason is not None:
                        yield self.finding(
                            ctx,
                            kw.value,
                            f"`{cls.name}.{attr}` defaults to {reason}; it "
                            "becomes instance state and cannot cross the "
                            "multiprocessing boundary",
                        )
            return
        reason = _unpicklable_reason(value, set())
        if reason is not None:
            yield self.finding(
                ctx,
                value,
                f"`{cls.name}.{attr}` defaults to {reason}; it becomes "
                "instance state and cannot cross the multiprocessing "
                "boundary",
            )

    def _check_method(
        self,
        ctx: FileContext,
        cls: ast.ClassDef,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        """``self.attr = <unpicklable>`` anywhere in a method body."""
        local_defs = _local_def_names(method)
        for node in ast.walk(method):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            value = node.value
            if value is None:
                continue
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                reason = _unpicklable_reason(value, local_defs)
                if reason is not None:
                    yield self.finding(
                        ctx,
                        node,
                        f"`self.{target.attr} = ...` in "
                        f"`{cls.name}.{method.name}` stores {reason}; "
                        f"`{cls.name}` instances cross the "
                        "multiprocessing boundary and must stay picklable",
                    )
