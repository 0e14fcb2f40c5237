"""The documentation surface: coverage of the package map, docstring
discipline, link/anchor health and generated-doc freshness."""

import ast
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _subpackages():
    src = REPO / "src" / "repro"
    return sorted(
        path.name for path in src.iterdir() if (path / "__init__.py").is_file()
    )


def test_readme_describes_every_subpackage():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    missing = [
        name for name in _subpackages() if f"repro.{name}" not in readme
    ]
    assert not missing, f"README.md package map is missing: {missing}"


def test_architecture_doc_mentions_every_subpackage():
    doc = (REPO / "docs" / "architecture.md").read_text(encoding="utf-8")
    missing = [name for name in _subpackages() if f"repro.{name}" not in doc]
    assert not missing, f"docs/architecture.md is missing: {missing}"


def test_readme_documents_install_verify_and_cli():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    assert "python -m pytest -x -q" in readme  # tier-1 verify command
    assert "pip install -e ." in readme
    assert "python -m repro.eval" in readme


def test_doc_links_are_healthy():
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "check_doc_links.py")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_every_public_module_has_a_docstring():
    """Satellite: module-level docstrings are mandatory across the package."""
    missing = []
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        if any(part.startswith("_") and part != "__init__.py" for part in path.parts):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if not ast.get_docstring(tree):
            missing.append(str(path.relative_to(REPO)))
    assert not missing, f"modules without a docstring: {missing}"


def test_eval_and_report_public_functions_have_docstrings():
    """The public entry points of the harness/report modules are documented."""
    import importlib
    import inspect

    modules = [
        "repro.eval.table1", "repro.eval.table2",
        "repro.eval.fig5", "repro.eval.fig6", "repro.eval.fig7",
        "repro.eval.precision", "repro.eval.greenwave",
        "repro.report.artifact", "repro.report.render",
        "repro.report.runner", "repro.report.reference",
    ]
    missing = []
    for name in modules:
        module = importlib.import_module(name)
        for public in getattr(module, "__all__", []):
            member = getattr(module, public)
            if inspect.isfunction(member) and not inspect.getdoc(member):
                missing.append(f"{name}.{public}")
    assert not missing, f"public functions without a docstring: {missing}"


def test_reference_doc_is_fresh():
    """Satellite/acceptance: docs/reference.md matches a regeneration."""
    from repro.report.reference import generate_reference

    committed = (REPO / "docs" / "reference.md").read_text(encoding="utf-8")
    assert committed == generate_reference(), (
        "docs/reference.md is stale; run python scripts/generate_docs.py"
    )
