#!/usr/bin/env python3
"""Documentation gates: markdown links, paper-map paths, docstring coverage.

Three checks, all dependency-free (CI's ``docs`` job runs them):

* **Link check** — every relative link or image in the repository's
  markdown (README.md, DESIGN.md, CHANGES.md, ROADMAP.md, docs/**)
  must point at a file that exists.  External ``http(s)`` links and
  pure ``#fragment`` links are skipped (CI must not depend on the
  network).
* **Paper-map paths** — every backticked code path in
  ``docs/paper-map.md`` (a token with a ``/`` or a ``.py`` suffix, such
  as ``wfasic/aligner.py`` or ``soc/``) must exist under ``src/repro/``
  or at the repository root, so the paper cross-reference cannot go
  stale when a module moves or is deleted.
* **Docstring coverage** — the public API of the packages listed in
  ``COVERED_MODULES`` (the observability layer, the batch engine and
  the batched kernels) must be fully documented: module docstrings,
  public classes, public functions, and public methods of public
  classes.  Names starting with ``_`` and inherited members are out of
  scope.

Run from the repository root:

    PYTHONPATH=src python tools/check_docs.py

Exits non-zero listing every broken link, stale path and undocumented
symbol.
"""

from __future__ import annotations

import importlib
import inspect
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown files / trees whose relative links must resolve.
MARKDOWN_ROOTS = (
    "README.md",
    "DESIGN.md",
    "CHANGES.md",
    "ROADMAP.md",
    "PAPER.md",
    "docs",
)

#: Packages/modules whose public API must be fully documented.
COVERED_MODULES = (
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.trace",
    "repro.obs.manifest",
    "repro.obs.schema",
    "repro.obs.publish",
    "repro.obs.vocabulary",
    "repro.engine",
    "repro.engine.engine",
    "repro.engine.backends",
    "repro.engine.cache",
    "repro.engine.validation",
    "repro.align.wfa_batched",
    "repro.align.profile",
    "repro.wfasic.aligner",
    "repro.fleet",
    "repro.fleet.chip",
    "repro.fleet.scheduler",
    "repro.fleet.planner",
    "repro.fleet.dse",
    "repro.fleet.report",
    "repro.fleet.handbook",
)

#: The paper cross-reference whose code paths must exist.
PAPER_MAP = "docs/paper-map.md"

#: Backticked tokens without spaces; paths among them have a ``/`` or
#: a ``.py`` suffix.
_CODE_RE = re.compile(r"`([^`\s]+)`")

#: ``[text](target)`` and ``![alt](target)`` — good enough for our docs
#: (no reference-style links in this repository).
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")


def _markdown_files() -> list[Path]:
    files: list[Path] = []
    for root in MARKDOWN_ROOTS:
        path = REPO_ROOT / root
        if path.is_dir():
            files.extend(sorted(path.rglob("*.md")))
        elif path.exists():
            files.append(path)
    return files


def check_links() -> list[str]:
    """Broken relative links, as ``file: target`` strings."""
    problems: list[str] = []
    for md in _markdown_files():
        text = md.read_text()
        # Fenced code blocks routinely show link-like syntax; skip them.
        text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            resolved = (md.parent / relative).resolve()
            if not resolved.exists():
                problems.append(
                    f"{md.relative_to(REPO_ROOT)}: broken link -> {target}"
                )
    return problems


def check_paper_map() -> list[str]:
    """Backticked code paths of the paper map that exist nowhere."""
    problems: list[str] = []
    for token in _CODE_RE.findall((REPO_ROOT / PAPER_MAP).read_text()):
        if "/" not in token and not token.endswith(".py"):
            continue
        if not any((root / token).exists() for root in (REPO_ROOT / "src" / "repro", REPO_ROOT)):
            problems.append(f"{PAPER_MAP}: no such code path -> {token}")
    return problems


def _is_local(obj, module) -> bool:
    return getattr(obj, "__module__", None) == module.__name__


def _public_names(module) -> list[str]:
    declared = getattr(module, "__all__", None)
    if declared is not None:
        return list(declared)
    return [name for name in vars(module) if not name.startswith("_")]


def check_docstrings() -> list[str]:
    """Undocumented public symbols, as ``module.symbol`` strings."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    problems: list[str] = []
    for module_name in COVERED_MODULES:
        module = importlib.import_module(module_name)
        if not (module.__doc__ or "").strip():
            problems.append(f"{module_name}: missing module docstring")
        for name in _public_names(module):
            obj = getattr(module, name, None)
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if not _is_local(obj, module):
                continue  # re-export; documented at its home module
            if not (inspect.getdoc(obj) or "").strip():
                problems.append(f"{module_name}.{name}: missing docstring")
            if inspect.isclass(obj):
                problems.extend(_check_methods(module_name, name, obj))
    return problems


def _check_methods(module_name: str, class_name: str, cls) -> list[str]:
    problems = []
    for attr, member in vars(cls).items():
        if attr.startswith("_"):
            continue
        func = member
        if isinstance(member, (classmethod, staticmethod)):
            func = member.__func__
        elif isinstance(member, property):
            func = member.fget
        if not inspect.isfunction(func):
            continue
        if not (inspect.getdoc(func) or "").strip():
            problems.append(
                f"{module_name}.{class_name}.{attr}: missing docstring"
            )
    return problems


def main() -> int:
    broken = check_links()
    stale = check_paper_map()
    undocumented = check_docstrings()
    for problem in broken + stale + undocumented:
        print(problem)
    print(
        f"link check: {len(broken)} broken link(s) in "
        f"{len(_markdown_files())} markdown file(s); paper map: "
        f"{len(stale)} stale code path(s); docstring coverage: "
        f"{len(undocumented)} undocumented symbol(s) in "
        f"{len(COVERED_MODULES)} module(s)"
    )
    return 1 if (broken or stale or undocumented) else 0


if __name__ == "__main__":
    raise SystemExit(main())
