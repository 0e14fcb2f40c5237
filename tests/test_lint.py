"""The stdlib unused-import check (``scripts/check_unused_imports.py``):
the tree passes it, and it flags what ruff's ``F401`` flags."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "check_unused_imports.py"


def _checker():
    spec = importlib.util.spec_from_file_location("check_unused_imports", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tree_has_no_unused_imports():
    result = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_flags_an_unused_import_and_spares_every_kind_of_read(tmp_path):
    (tmp_path / "ruff.toml").write_text(
        '[lint.per-file-ignores]\n"pkg/__init__.py" = ["F401"]\n"other.py" = ["E402"]\n'
    )
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("import json\n")
    (tmp_path / "other.py").write_text("import json\n")
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import re, struct\n"
        "from typing import TYPE_CHECKING, Optional, Sequence as Seq\n"
        "import math  # noqa: F401\n"
        "import sys  # noqa\n"
        "from collections import deque\n"
        "if TYPE_CHECKING:\n"
        "    from decimal import Decimal\n"
        "__all__ = ['deque']\n"
        "def f(x: 'Optional[Decimal]') -> int:\n"
        "    import functools\n"
        "    return os.path.sep, re\n"
    )
    checker = _checker()
    assert checker.unused_imports(tmp_path / "mod.py") == [
        (3, "struct"), (4, "Sequence"), (12, "functools")
    ]
    assert checker.check(tmp_path) == [
        "mod.py:3: struct", "mod.py:4: Sequence", "mod.py:12: functools", "other.py:1: json"
    ]
