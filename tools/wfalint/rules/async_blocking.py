"""W009/W014 — event-loop hygiene for the asyncio serving layer.

The serve layer (PR 8) multiplexes every client connection onto one
event loop; a single blocking call anywhere in code the loop runs
stalls *every* connection's deadline accounting at once.  The engine is
explicitly blocking (``align_batch`` joins a multiprocessing pool) and
the blessed pattern is ``loop.run_in_executor(None, engine.align_batch,
pairs)`` — the callable is *passed*, never called, on the loop.

* **W009** (``blocking-call-in-async``) walks every call transitively
  reachable from an ``async def`` in the serve layer (or the CLI's
  serve session) over the phase-1 call graph and flags resolved
  known-blocking callees: ``time.sleep``, synchronous socket/process
  primitives, file I/O (``open``, ``Path.write_text`` and friends), and
  the engine's own blocking entry points.  Calls wrapped in
  ``run_in_executor`` are exempt automatically — there the blocking
  function is an *argument*, not a call, so it never appears as a call
  edge.

* **W014** (``dropped-task-reference``) flags ``create_task`` whose
  result is discarded (an expression statement, or a lambda body such
  as a signal-handler callback).  The event loop keeps only weak
  references to tasks; a fire-and-forget task can be garbage-collected
  mid-flight and silently never run to completion (the asyncio docs'
  own warning).  Keep a reference and discard it in a done callback.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import Finding, FileContext, ProjectRule, Rule, register
from ..project import CallSite, ProjectIndex

#: Fully-qualified callees that block the calling thread.
_BLOCKING_QUALIFIED = {
    "time.sleep",
    "socket.create_connection",
    "socket.socket",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "os.system",
    "os.waitpid",
    "requests.get",
    "requests.post",
    "urllib.request.urlopen",
}

#: Blocking builtins called by bare name.
_BLOCKING_BUILTINS = {"open", "input"}

#: Attribute names that are blocking file I/O on any plausible receiver
#: (``Path.write_text(...)`` — the receiver is usually a call result the
#: resolver cannot type, so the attribute name is the signal).
_BLOCKING_ATTRS = {
    "write_text",
    "read_text",
    "write_bytes",
    "read_bytes",
}

#: Suffixes of resolved project-internal callees that block (the
#: engine's pool-joining entry points).
_BLOCKING_PROJECT_SUFFIXES = (
    "BatchAlignmentEngine.align_batch",
    "BatchAlignmentEngine.close",
    ".align_pairs",
)

#: Async functions anchored in these path fragments seed reachability.
_ASYNC_ROOT_FRAGMENTS = ("repro/serve/", "repro/cli.py")


def _blocking_reason(call: CallSite) -> str | None:
    """Why this call site blocks, or ``None`` if it does not."""
    for target in call.targets:
        if target in _BLOCKING_QUALIFIED:
            return f"`{target}` blocks the calling thread"
        for suffix in _BLOCKING_PROJECT_SUFFIXES:
            if target.endswith(suffix):
                return (
                    f"`{target}` joins the worker pool synchronously"
                )
    if call.raw in _BLOCKING_QUALIFIED:
        return f"`{call.raw}` blocks the calling thread"
    if call.raw in _BLOCKING_BUILTINS:
        return f"`{call.raw}()` is synchronous file I/O"
    attr = call.raw.rsplit(".", 1)[-1]
    if "." in call.raw and attr in _BLOCKING_ATTRS:
        return f"`.{attr}()` is synchronous file I/O"
    return None


@register
class BlockingCallInAsyncRule(ProjectRule):
    """W009 — no blocking calls reachable from the event loop."""

    id = "W009"
    name = "blocking-call-in-async"
    severity = "error"
    description = (
        "A call transitively reachable from an `async def` in the serve "
        "layer resolves to a known-blocking callee (`time.sleep`, file/"
        "socket I/O, the engine's pool-joining entry points) without an "
        "intervening `run_in_executor` — it stalls every connection on "
        "the loop."
    )
    invariant = (
        "The event loop never blocks: engine calls and file I/O on the "
        "serving path go through `loop.run_in_executor` "
        "(docs/serving.md)."
    )
    path_fragments = ("repro/",)

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        roots = {
            qual
            for qual, func in index.functions.items()
            if func.is_async
            and any(
                frag in func.ctx.relpath for frag in _ASYNC_ROOT_FRAGMENTS
            )
        }
        if not roots:
            return
        reachable = index.reachable_from(roots)
        for qual in sorted(reachable):
            func = index.functions[qual]
            for call in func.calls:
                reason = _blocking_reason(call)
                if reason is None:
                    continue
                via = (
                    "" if func.is_async
                    else " (reachable from the event loop)"
                )
                yield self.finding(
                    func.ctx,
                    call.node,
                    f"blocking call in async context{via}: {reason}; "
                    "dispatch it via `loop.run_in_executor(...)`",
                )


@register
class DroppedTaskReferenceRule(Rule):
    """W014 — ``create_task`` results must be kept alive."""

    id = "W014"
    name = "dropped-task-reference"
    severity = "error"
    description = (
        "`create_task(...)` whose result is discarded (bare expression "
        "statement or lambda body) — the loop holds only a weak "
        "reference, so the task can be garbage-collected mid-flight and "
        "never finish."
    )
    invariant = (
        "Every spawned task is owned: stored in a live container or "
        "attribute, with `add_done_callback` pruning (the "
        "`_handle_connection` pattern in repro.serve.server)."
    )
    path_fragments = ("repro/",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            call = self._dropped_create_task(node)
            if call is not None:
                yield self.finding(
                    ctx,
                    call,
                    "task reference discarded: assign the "
                    "`create_task(...)` result to a kept reference "
                    "(set/attribute) and prune it in a done callback",
                )

    @staticmethod
    def _is_create_task(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "create_task"
        )

    def _dropped_create_task(self, node: ast.AST) -> ast.Call | None:
        if isinstance(node, ast.Expr) and self._is_create_task(node.value):
            return node.value  # bare statement: nothing holds the task
        if isinstance(node, ast.Lambda) and self._is_create_task(node.body):
            return node.body  # e.g. a signal-handler callback
        return None
