"""W012 — code and docs artifacts describe the same observability surface.

``docs/observability.md`` promises operators a *closed* vocabulary and
a complete trace-event catalogue; ``src/repro/obs/vocabulary.py`` is
the machine-readable half of the metric promise.  W006 already pins
call sites to the vocabulary module — this rule closes the remaining
gaps *across artifacts*, whole-program:

* every ``METRIC_NAMES`` entry appears in the docs' metric tables and
  every documented metric appears in ``METRIC_NAMES`` (bidirectional —
  a metric documented but never declared is as misleading as one
  declared but never documented);
* every ``Tracer`` span name emitted anywhere in the project
  (``complete``/``span``/``cycle_span`` call sites, resolved through
  the call graph — literals, f-strings as wildcards, loop bindings and
  literal arguments threaded through helper parameters like
  ``StageProfiler.stage``) matches a row of the docs' event catalogue, and every
  catalogued event is actually emitted somewhere;
* span begin/end discipline: a function that captures a span clock
  (``start = tracer.now_us()``) must either emit a span itself or pass
  the captured value onward — a dangling clock capture is a span that
  was begun and never completed.

The docs-facing checks only run when ``docs/observability.md`` exists
under the lint root (a source distribution may ship without docs).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator

from ..core import Finding, ProjectRule, register
from ..project import CallSite, FunctionInfo, ProjectIndex
from .metrics_vocab import _LiteralBindings, _fstring_pattern, load_vocabulary

#: Tracer methods whose first argument is a span name.
_SPAN_METHODS = {"complete", "span", "cycle_span"}

#: Docs catalogue rows satisfied by ``name_thread`` metadata emission.
_META_EVENTS = {"process_name", "thread_name"}

_DOCS_RELPATH = Path("docs") / "observability.md"

_BACKTICK_RE = re.compile(r"`([^`]+)`")


def _doc_table_cells(
    lines: list[str], header: str
) -> list[tuple[int, str]]:
    """``(lineno, token)`` for every backticked token in the first cell
    of every table whose header row's first cell is ``header``."""
    out: list[tuple[int, str]] = []
    in_table = False
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped.startswith("|"):
            in_table = False
            continue
        cells = [c.strip() for c in stripped.strip("|").split("|")]
        if not cells:
            continue
        if cells[0] == header:
            in_table = True
            continue
        if set(cells[0]) <= {"-", " ", ":"}:
            continue  # separator row
        if in_table:
            for token in _BACKTICK_RE.findall(cells[0]):
                out.append((lineno, token))
    return out


def _is_tracer_target(call: CallSite, methods: set[str]) -> bool:
    attr = call.raw.rsplit(".", 1)[-1]
    if attr not in methods:
        return False
    if any(
        t.rsplit(".", 2)[-2:-1] == ["Tracer"] for t in call.targets
    ):
        return True
    receiver = call.raw.rsplit(".", 1)[0]
    return receiver in ("tracer", "tr") or receiver.endswith(".tracer")


@register
class ArtifactConsistencyRule(ProjectRule):
    """W012 — vocabulary, docs tables and span emissions agree."""

    id = "W012"
    name = "artifact-consistency"
    severity = "error"
    description = (
        "The metric vocabulary, the docs/observability.md tables and "
        "the Tracer span names actually emitted have drifted apart — a "
        "declared metric missing its docs row, a documented event "
        "nothing emits, or a span clock captured and never completed."
    )
    invariant = (
        "docs/observability.md is the operator contract: its metric "
        "tables equal repro.obs.vocabulary.METRIC_NAMES exactly, its "
        "event catalogue equals the set of spans the code emits, and "
        "every span begun is completed (docs/observability.md)."
    )
    # Findings anchor in repro modules *and* the docs file itself.
    path_fragments = ("repro/", "docs/")

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        yield from self._check_span_discipline(index)
        docs_path = index.root / _DOCS_RELPATH
        if not docs_path.is_file():
            return
        doc_lines = docs_path.read_text(encoding="utf-8").splitlines()
        docs_rel = _DOCS_RELPATH.as_posix()
        yield from self._check_metrics(index, doc_lines, docs_rel)
        yield from self._check_spans(index, doc_lines, docs_rel)

    # -- metrics -------------------------------------------------------

    def _check_metrics(
        self, index: ProjectIndex, doc_lines: list[str], docs_rel: str
    ) -> Iterator[Finding]:
        vocab = load_vocabulary(index.root)
        if vocab is None:
            return
        metric_names, _ = vocab
        rows = _doc_table_cells(doc_lines, "Metric")
        documented = {token for _, token in rows}
        doc_line_of = {token: lineno for lineno, token in rows}
        vocab_mod = index.modules.get("repro.obs.vocabulary")
        for name in sorted(metric_names - documented):
            line, source = 1, ""
            if vocab_mod is not None:
                for node in ast.walk(vocab_mod.ctx.tree):
                    if (
                        isinstance(node, ast.Constant)
                        and node.value == name
                    ):
                        line = node.lineno
                        source = vocab_mod.ctx.source_line(line)
                        break
                path = vocab_mod.ctx.relpath
            else:
                path = docs_rel
            yield self.project_finding(
                path,
                line,
                0,
                f"metric `{name}` is declared in METRIC_NAMES but has "
                "no row in the docs/observability.md metric tables",
                source,
            )
        for name in sorted(documented - metric_names):
            lineno = doc_line_of[name]
            yield self.project_finding(
                docs_rel,
                lineno,
                0,
                f"metric `{name}` is documented in observability.md "
                "but missing from repro.obs.vocabulary.METRIC_NAMES",
                doc_lines[lineno - 1].strip(),
            )

    # -- spans ---------------------------------------------------------

    def _emitted_spans(
        self, index: ProjectIndex
    ) -> tuple[
        list[tuple[str, FunctionInfo, CallSite]],
        list[tuple[str, FunctionInfo, CallSite]],
        bool,
    ]:
        """``(literals, patterns, name_thread_seen)`` across the project."""
        literals: list[tuple[str, FunctionInfo, CallSite]] = []
        patterns: list[tuple[str, FunctionInfo, CallSite]] = []
        name_thread_seen = False
        bindings_cache: dict[str, _LiteralBindings] = {}
        for func in index.functions.values():
            for call in func.calls:
                if _is_tracer_target(call, {"name_thread"}):
                    name_thread_seen = True
                    continue
                if not _is_tracer_target(call, _SPAN_METHODS):
                    continue
                name_arg = self._name_arg(call.node)
                if name_arg is None:
                    continue
                for kind, value in self._resolve_name_arg(
                    index, func, call, name_arg, bindings_cache
                ):
                    (literals if kind == "literal" else patterns).append(
                        (value, func, call)
                    )
        return literals, patterns, name_thread_seen

    @staticmethod
    def _name_arg(node: ast.Call) -> ast.expr | None:
        if node.args:
            return node.args[0]
        for kw in node.keywords:
            if kw.arg == "name":
                return kw.value
        return None

    def _resolve_name_arg(
        self,
        index: ProjectIndex,
        func: FunctionInfo,
        call: CallSite,
        name_arg: ast.expr,
        bindings_cache: dict[str, _LiteralBindings],
    ) -> list[tuple[str, str]]:
        """``("literal"|"pattern", value)`` candidates for a name arg."""
        if isinstance(name_arg, ast.Constant) and isinstance(
            name_arg.value, str
        ):
            return [("literal", name_arg.value)]
        if isinstance(name_arg, ast.JoinedStr):
            pattern = _fstring_pattern(name_arg)
            return [("pattern", pattern)] if pattern else []
        if isinstance(name_arg, ast.Name):
            path = func.ctx.relpath
            if path not in bindings_cache:
                bindings = _LiteralBindings()
                bindings.visit(func.ctx.tree)
                bindings_cache[path] = bindings
            bindings = bindings_cache[path]
            values = bindings.values.get(name_arg.id)
            if values and name_arg.id not in bindings.tainted:
                return [("literal", v) for v in sorted(values)]
            if name_arg.id in func.params:
                return [
                    ("literal", v)
                    for v in sorted(
                        self._literals_through_param(
                            index, func, name_arg.id
                        )
                    )
                ]
        return []

    @staticmethod
    def _literals_through_param(
        index: ProjectIndex, func: FunctionInfo, param: str
    ) -> set[str]:
        """Literal values callers pass for ``param`` of ``func`` — the
        helper-function span-name pattern (``prof.stage("resolve")``)."""
        idx = func.params.index(param)
        out: set[str] = set()
        for call in index.callers_of(func.qualname):
            node = call.node
            offset = 1 if func.is_method and "." in call.raw else 0
            pos = idx - offset
            candidate: ast.expr | None = None
            if 0 <= pos < len(node.args):
                candidate = node.args[pos]
            for kw in node.keywords:
                if kw.arg == param:
                    candidate = kw.value
            if isinstance(candidate, ast.Constant) and isinstance(
                candidate.value, str
            ):
                out.add(candidate.value)
        return out

    def _check_spans(
        self, index: ProjectIndex, doc_lines: list[str], docs_rel: str
    ) -> Iterator[Finding]:
        rows = _doc_table_cells(doc_lines, "Event name")
        if not rows:
            return
        doc_names = {token for _, token in rows}
        literals, patterns, name_thread_seen = self._emitted_spans(index)

        for value, func, call in literals:
            if value not in doc_names:
                yield self.finding(
                    func.ctx,
                    call.node,
                    f"trace span `{value}` is emitted but missing from "
                    "the docs/observability.md event catalogue",
                )
        for pattern, func, call in patterns:
            if not any(re.fullmatch(pattern, d) for d in doc_names):
                yield self.finding(
                    func.ctx,
                    call.node,
                    "dynamic trace span name matches no row of the "
                    "docs/observability.md event catalogue",
                )

        emitted_literals = {v for v, _, _ in literals}
        emitted_patterns = [p for p, _, _ in patterns]
        for lineno, name in rows:
            if name in _META_EVENTS:
                if name_thread_seen:
                    continue
            elif name in emitted_literals or any(
                re.fullmatch(p, name) for p in emitted_patterns
            ):
                continue
            yield self.project_finding(
                docs_rel,
                lineno,
                0,
                f"documented trace event `{name}` is never emitted by "
                "any Tracer call site",
                doc_lines[lineno - 1].strip(),
            )

    # -- begin/end discipline -----------------------------------------

    def _check_span_discipline(
        self, index: ProjectIndex
    ) -> Iterator[Finding]:
        for func in index.functions.values():
            if not self.applies(func.ctx.relpath):
                continue
            clock_calls = {
                id(c.node)
                for c in func.calls
                if _is_tracer_target(c, {"now_us"})
            }
            if not clock_calls:
                continue
            emits = any(
                _is_tracer_target(c, _SPAN_METHODS) for c in func.calls
            )
            for node in ast.walk(func.node):
                if not isinstance(node, ast.Assign):
                    continue
                captured = [
                    t.id
                    for t in node.targets
                    if isinstance(t, ast.Name)
                ]
                if not captured or not any(
                    isinstance(sub, ast.Call) and id(sub) in clock_calls
                    for sub in ast.walk(node.value)
                ):
                    continue
                name = captured[0]
                if emits or self._used_as_argument(func.node, name):
                    continue
                yield self.finding(
                    func.ctx,
                    node,
                    f"span clock `{name} = tracer.now_us()` captured "
                    "but this function neither emits a span nor passes "
                    "the clock onward — a span begun is never completed",
                )

    @staticmethod
    def _used_as_argument(func_node: ast.AST, name: str) -> bool:
        for node in ast.walk(func_node):
            if isinstance(node, ast.Call):
                for arg in [
                    *node.args,
                    *[kw.value for kw in node.keywords],
                ]:
                    for sub in ast.walk(arg):
                        if isinstance(sub, ast.Name) and sub.id == name:
                            return True
            elif isinstance(node, ast.Return) and node.value is not None:
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Name) and sub.id == name:
                        return True
        return False
