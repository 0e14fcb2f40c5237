#!/usr/bin/env python3
"""Fail on an import that nothing in its file reads (ruff's ``F401``).

CI lints the tree with ``ruff check .``; this is the same unused-import
rule in the standard library alone, so the tier-1 suite enforces it on
hosts without ruff.  It walks every ``.py`` file ``ruff check .`` covers
(the repository minus hidden, build and cache directories) and honours
``ruff.toml``'s ``per-file-ignores`` entries that list ``F401`` (the
re-exporting package ``__init__`` files) and a ``# noqa`` comment on the
import line.

An imported name counts as read when the file loads it anywhere — as a
name, as the root of an attribute chain, inside a string annotation, or
as an entry of ``__all__``.  Reads are not matched to scopes, so the
check can miss an unused import that shadows a name read elsewhere, but
it never flags an import that is read.

Usage: ``python scripts/check_unused_imports.py [ROOT]`` (default: this
repository).  Exits 1 with one ``path:line: name`` line per unused
import; prints a one-line summary otherwise.
"""

from __future__ import annotations

import ast
import fnmatch
import os
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Directories ``ruff check .`` skips by default (besides hidden ones).
_SKIPPED_DIRS = {"__pycache__", "build", "dist", "node_modules", "site-packages", "venv"}
_IGNORE_ENTRY = re.compile(r'^\s*"([^"]+)"\s*=\s*\[([^\]]*)\]')
_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def exempt_patterns(root: Path) -> list[str]:
    """The ``ruff.toml`` per-file-ignore globs that switch off ``F401``."""
    config = root / "ruff.toml"
    if not config.is_file():
        return []
    patterns = []
    for line in config.read_text(encoding="utf-8").splitlines():
        entry = _IGNORE_ENTRY.match(line)
        if entry and '"F401"' in entry.group(2):
            patterns.append(entry.group(1))
    return patterns


def python_files(root: Path) -> list[Path]:
    files = []
    for directory, subdirs, names in os.walk(root):
        subdirs[:] = sorted(
            name for name in subdirs
            if not name.startswith(".") and name not in _SKIPPED_DIRS
        )
        files.extend(Path(directory) / name for name in sorted(names) if name.endswith(".py"))
    return files


def _annotation_names(node: ast.AST) -> set[str]:
    """Names loaded inside the string parts of an annotation."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            try:
                parsed = ast.parse(child.value, mode="eval")
            except SyntaxError:
                continue
            names |= {
                name.id for name in ast.walk(parsed) if isinstance(name, ast.Name)
            }
    return names


def _read_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            names |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            names |= _annotation_names(node.returns)
        elif _assigns_all(node) and isinstance(node.value, (ast.List, ast.Tuple)):
            names |= {
                element.value for element in node.value.elts
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            }
    return names


def _assigns_all(node: ast.AST) -> bool:
    """Whether ``node`` is ``__all__ = ...`` or ``__all__ += ...``."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AugAssign):
        targets = [node.target]
    else:
        return False
    return any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets)


def _suppressed(line: str) -> bool:
    noqa = _NOQA.search(line)
    return noqa is not None and (
        noqa.group("codes") is None or "F401" in noqa.group("codes").upper()
    )


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, name)`` of every import in ``path`` that nothing reads."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    read = _read_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "*" or bound in read:
                continue
            if _suppressed(lines[alias.lineno - 1]) or _suppressed(lines[node.lineno - 1]):
                continue
            unused.append((alias.lineno, alias.name))
    return sorted(unused)


def check(root: Path) -> list[str]:
    patterns = exempt_patterns(root)
    problems = []
    for path in python_files(root):
        relative = path.relative_to(root).as_posix()
        if any(fnmatch.fnmatch(relative, pattern) for pattern in patterns):
            continue
        problems.extend(f"{relative}:{line}: {name}" for line, name in unused_imports(path))
    return problems


def main(argv: list[str]) -> int:
    root = Path(argv[0]).resolve() if argv else REPO
    problems = check(root)
    for line in problems:
        print(f"unused import: {line}", file=sys.stderr)
    if not problems:
        print(f"checked {len(python_files(root))} files: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
