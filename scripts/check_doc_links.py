#!/usr/bin/env python3
"""Check the documentation tree for broken local links and stale names.

Three classes of rot are caught:

* Markdown links whose target is a local path that does not exist
  (external ``scheme://`` links are out of scope — CI must not depend on
  the network).
* Anchor links — ``#section`` within a document or ``file.md#section``
  across documents — whose slug matches no heading of the target file.
  Slugs follow the GitHub algorithm (lower-case, punctuation stripped,
  spaces to hyphens, ``-N`` suffixes for duplicate headings), the same
  one :func:`repro.report.render.heading_slug` emits, so the generated
  documents' tables of contents are validated too.
* Inline-code references to ``repro.*`` modules, ``src/``/``tests/``/
  ``benchmarks/``/``examples/``/``docs/`` paths that no longer resolve in
  the tree.

The script is intentionally standalone (stdlib only, no ``repro``
import), so the CI link-check job can run it without installing NumPy.
Exits non-zero with one line per problem; silent success otherwise.
"""

from __future__ import annotations

import ast
import functools
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = [
    REPO / "README.md",
    REPO / "CONTRIBUTING.md",
    *sorted((REPO / "docs").glob("**/*.md")),
]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_CODE = re.compile(r"`([^`\n]+)`")
_MODULE = re.compile(r"^repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
_PATHLIKE = re.compile(
    r"^(?:src|tests|benchmarks|examples|docs|scripts)/[\w./-]+\.(?:py|md|yml)"
)
_HEADING = re.compile(r"^#{1,6}\s+(.+?)\s*$")
_FENCE = re.compile(r"^(```|~~~)")


def slugify(heading: str) -> str:
    """GitHub-style anchor slug of one Markdown heading.

    Must stay in sync with ``repro.report.render.heading_slug`` (this
    script cannot import it: the CI link job runs without NumPy).
    """
    text = re.sub(r"`([^`]*)`", r"\1", heading)  # inline code keeps its text
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


@functools.lru_cache(maxsize=None)
def anchors_of(path: Path) -> set[str]:
    """Every heading anchor a file defines (duplicates get ``-N`` suffixes)."""
    anchors: set[str] = set()
    counts: dict[str, int] = {}
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING.match(line)
        if not match:
            continue
        slug = slugify(match.group(1))
        if slug in counts:
            counts[slug] += 1
            anchors.add(f"{slug}-{counts[slug]}")
        else:
            counts[slug] = 0
            anchors.add(slug)
    return anchors


def _module_file(parts: list[str]) -> Path | None:
    """The source file of module ``repro.a.b`` under src/, if any."""
    base = REPO / "src" / Path(*parts)
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def _bound_names(statements: list[ast.stmt]) -> set[str]:
    """Names a block of statements binds at its own level (descending
    into ``if``/``try``/``with`` blocks, not into functions or classes)."""
    names: set[str] = set()
    for node in statements:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(
                    name.id for name in ast.walk(target) if isinstance(name, ast.Name)
                )
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(
                (alias.asname or alias.name).split(".")[0] for alias in node.names
            )
        if isinstance(node, (ast.If, ast.Try, ast.With, ast.ExceptHandler)):
            for block in ("body", "orelse", "finalbody", "handlers"):
                names |= _bound_names(getattr(node, block, []))
    return names


@functools.lru_cache(maxsize=None)
def top_level_names(path: Path) -> frozenset[str]:
    """Every name a module defines at top level, and every name its
    ``__all__`` exports (the packages re-export lazily)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = _bound_names(tree.body)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                names.update(
                    item.value for item in node.value.elts
                    if isinstance(item, ast.Constant) and isinstance(item.value, str)
                )
    return frozenset(names)


def module_exists(dotted: str) -> bool:
    """Whether ``dotted`` names a module under src/ or a top-level name
    of one.

    References like ``repro.cluster.sim.ClusterSimulator`` name an
    attribute of a module: the longest prefix that is a module on disk
    must be followed by nothing, or by a name that module defines at top
    level (``repro.cluster.sim.ClusterSimulator.run`` checks
    ``ClusterSimulator`` only).
    """
    parts = dotted.split(".")
    for depth in range(len(parts), 0, -1):
        path = _module_file(parts[:depth])
        if path is not None:
            return depth == len(parts) or parts[depth] in top_level_names(path)
    return False


def check_file(path: Path) -> list[str]:
    problems: list[str] = []
    text = path.read_text(encoding="utf-8")
    for match in _LINK.finditer(text):
        raw = match.group(1)
        target, _, anchor = raw.partition("#")
        if "://" in raw or raw.startswith("mailto:"):
            continue
        resolved = (path.parent / target) if target else path
        if target and not resolved.exists():
            problems.append(f"{path.relative_to(REPO)}: broken link -> {target}")
            continue
        if anchor:
            if resolved.is_file() and resolved.suffix == ".md":
                if anchor not in anchors_of(resolved):
                    problems.append(
                        f"{path.relative_to(REPO)}: broken anchor -> {raw}"
                    )
            elif not resolved.is_file():
                # Anchor into a directory link — nothing to validate against.
                pass
    for match in _CODE.finditer(text):
        code = match.group(1)
        dotted = _MODULE.match(code)
        if dotted and not module_exists(dotted.group(0)):
            problems.append(
                f"{path.relative_to(REPO)}: unknown module -> {dotted.group(0)}"
            )
            continue
        pathlike = _PATHLIKE.match(code)
        if pathlike and not (REPO / pathlike.group(0)).exists():
            problems.append(
                f"{path.relative_to(REPO)}: missing path -> {pathlike.group(0)}"
            )
    return problems


def main() -> int:
    problems: list[str] = []
    for path in DOC_FILES:
        if path.is_file():
            problems.extend(check_file(path))
    for line in problems:
        print(line, file=sys.stderr)
    if not problems:
        print(f"checked {len(DOC_FILES)} files: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
