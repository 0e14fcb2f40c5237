"""Import layering: the registries load without NumPy or the simulator.

Listing or validating scenarios, campaigns and artifacts — the registry
import of the benchmark's ``setup_s`` probe, ``python -m repro.eval
--help`` and ``scenario list`` — must import only plain-data modules
(see "Import layering" in ``docs/architecture.md``).  The package
``__init__`` modules re-export lazily (PEP 562, :mod:`repro._lazy`);
these tests pin that every public name still resolves, and that the
registries populate themselves whatever is imported first.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Every package whose ``__init__`` re-exports lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.bench",
    "repro.campaign",
    "repro.cluster",
    "repro.core",
    "repro.dnn",
    "repro.eval",
    "repro.kernels",
    "repro.mem",
    "repro.perf",
    "repro.report",
    "repro.riscv",
    "repro.scenarios",
    "repro.system",
)

#: Modules the registry paths must not import: ``pkg*`` matches the
#: package and everything under it, ``pkg.`` only its submodules (the
#: ``repro.eval`` package itself and the CLI module are allowed).
FORBIDDEN = (
    "numpy",
    "repro.cluster.cluster",
    "repro.core.ntx",
    "repro.riscv*",
    "repro.system*",
    "repro.kernels*",
    "repro.scenarios.workloads",
    "repro.campaign.runner",
    "repro.eval.",
    "repro.dnn*",
)

SCENARIOS = (
    "conv-tiled",
    "matmul-tiled",
    "stencil-laplace2d",
    "dnn-training-step",
    "opcode-stream",
    "cstencil-laplace27",
    "cstencil-heat3d",
    "cstencil-gauss-blur",
    "cstencil-bilateral",
    "cstencil-laplace2d-vn",
    "pipeline-blur-stencil-reduce",
)
CAMPAIGNS = (
    "conv-geometry-sweep",
    "engine-shootout",
    "cluster-anchor",
    "opcode-throughput",
    "stencil-scaling",
    "stencil-compiler-sweep",
    "dnn-scaling",
)
ARTIFACTS = (
    "table1",
    "table2",
    "fig3b",
    "fig5",
    "fig6",
    "fig7",
    "precision",
    "greenwave",
    "system-scaling",
)


def _setup_snippet() -> str:
    """The benchmark's ``SETUP_SNIPPET``, read from its source."""
    tree = ast.parse((REPO / "perfbench" / "harness.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "SETUP_SNIPPET"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/harness.py defines no SETUP_SNIPPET")


def _run(args, **kwargs) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        **kwargs,
    )


def _imported_modules(tmp_path, args) -> set:
    """``sys.modules`` at the exit of a fresh ``python ARGS``.

    ``-m`` runs go through :func:`runpy.run_module` inside a ``-c``
    wrapper so an exit hook can record the modules, ``--help``'s
    ``SystemExit`` included.
    """
    out = tmp_path / "modules.json"
    wrapper = (
        "import atexit, json, runpy, sys\n"
        "def _dump():\n"
        f"    with open({str(out)!r}, 'w') as handle:\n"
        "        json.dump(sorted(sys.modules), handle)\n"
        "atexit.register(_dump)\n"
    )
    if args[0] == "-c":
        wrapper += args[1]
    else:
        wrapper += (
            f"sys.argv[1:] = {list(args[2:])!r}\n"
            f"runpy.run_module({args[1]!r}, run_name='__main__', alter_sys=True)\n"
        )
    _run(["-c", wrapper])
    return set(json.loads(out.read_text(encoding="utf-8")))


def _forbidden(modules) -> list:
    hits = []
    for pattern in FORBIDDEN:
        for name in modules:
            if pattern.endswith("*"):
                match = name == pattern[:-1] or name.startswith(pattern[:-1] + ".")
            elif pattern.endswith("."):
                match = name.startswith(pattern) and name != pattern + "__main__"
            else:
                match = name == pattern
            if match:
                hits.append(name)
    return sorted(hits)


class TestImportLayering:
    @pytest.mark.parametrize(
        "args",
        [
            pytest.param(["-c", "SETUP"], id="setup-snippet"),
            pytest.param(["-m", "repro.eval", "--help"], id="eval-help"),
            pytest.param(["-m", "repro.eval", "scenario", "list"], id="scenario-list"),
            pytest.param(["-m", "repro.eval", "campaign", "list"], id="campaign-list"),
        ],
    )
    def test_registry_paths_stay_light(self, args, tmp_path):
        args = [_setup_snippet() if arg == "SETUP" else arg for arg in args]
        modules = _imported_modules(tmp_path, args)
        assert "repro.scenarios.registry" in modules  # the probe saw the imports
        assert _forbidden(modules) == []

    def test_registry_names_are_pinned(self):
        probe = _setup_snippet() + (
            "import json\n"
            "print(json.dumps([repro.scenarios.registered_scenarios(),\n"
            "                  repro.campaign.registered_campaigns(),\n"
            "                  repro.report.registered_artifacts()]))\n"
        )
        scenarios, campaigns, artifacts = json.loads(_run(["-c", probe]).stdout)
        assert tuple(scenarios) == SCENARIOS
        assert tuple(campaigns) == CAMPAIGNS
        assert tuple(artifacts) == ARTIFACTS


class TestSelfPopulatingRegistries:
    """Each registry returns its shipped entries whatever is imported first."""

    @pytest.mark.parametrize(
        "module, function, expected",
        [
            ("repro.report.artifact", "registered_artifacts", ARTIFACTS),
            ("repro.report.registry", "registered_artifacts", ARTIFACTS),
            ("repro.scenarios.registry", "registered_scenarios", SCENARIOS),
            ("repro.campaign.registry", "registered_campaigns", CAMPAIGNS),
        ],
    )
    def test_fresh_import_of_the_registry_module(self, module, function, expected):
        probe = f"import json\nfrom {module} import {function}\nprint(json.dumps({function}()))\n"
        assert tuple(json.loads(_run(["-c", probe]).stdout)) == expected

    def test_artifact_lookup_without_the_package(self):
        probe = (
            "from repro.report.registry import get_artifact, iter_artifacts\n"
            "assert get_artifact('fig6').campaigns == ('dnn-scaling',)\n"
            "assert [a.name for a in iter_artifacts()][0] == 'table1'\n"
        )
        _run(["-c", probe])

    def test_shipped_artifact_build_is_a_function(self):
        probe = (
            "import sys\n"
            "from repro.report.registry import iter_artifacts\n"
            "assert all(callable(a.build) for a in iter_artifacts())\n"
            "assert 'repro.report.artifacts' not in sys.modules\n"
        )
        _run(["-c", probe])
        from repro.report import ArtifactData, get_artifact

        assert isinstance(get_artifact("fig7").build(None), ArtifactData)


def test_moved_names_stay_importable_from_their_old_modules():
    from repro.report import registry
    from repro.report.artifacts import register_default_artifacts
    from repro.scenarios import families
    from repro.scenarios.workloads import FAMILIES, WorkloadFamily

    assert register_default_artifacts is registry.register_default_artifacts
    assert WorkloadFamily is families.WorkloadFamily
    assert FAMILIES is families.FAMILIES


class TestLazyPackages:
    def test_every_public_name_resolves_in_a_fresh_interpreter(self):
        """``getattr`` and ``from pkg import *`` both resolve every name."""
        probe = (
            "import importlib, json, sys\n"
            f"packages = {list(LAZY_PACKAGES)!r}\n"
            "problems = []\n"
            "for name in packages:\n"
            "    package = importlib.import_module(name)\n"
            "    namespace = {}\n"
            "    exec(f'from {name} import *', namespace)\n"
            "    for public in package.__all__:\n"
            "        value = getattr(package, public)\n"
            "        if namespace.get(public) is not value:\n"
            "            problems.append(f'{name}.{public}')\n"
            "print(json.dumps(problems))\n"
        )
        assert json.loads(_run(["-c", probe]).stdout) == []

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_dir_lists_the_public_names(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_unknown_name_raises_attribute_error(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match=rf"module '{name}' has no attribute 'nope'"):
            getattr(package, "nope")
        assert not hasattr(package, "nope")

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_type_checking_imports_match_the_lazy_table(self, name):
        """The pyflakes-visible import block, ``__all__`` and the table agree."""
        package = importlib.import_module(name)
        tree = ast.parse(Path(package.__file__).read_text(encoding="utf-8"))
        block = next(
            node
            for node in tree.body
            if isinstance(node, ast.If)
            and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING"
        )
        declared = {}
        for node in block.body:
            assert isinstance(node, ast.ImportFrom), ast.dump(node)
            for alias in node.names:
                declared[alias.name] = node.module
        table = package._EXPORTS
        assert set(declared) == set(table)
        assert set(table) <= set(package.__all__)
        eager = set(package.__all__) - set(table)
        assert eager <= {"__version__"}
        for public, submodule in table.items():
            if submodule is None:
                assert declared[public] == name
            else:
                assert declared[public] == f"{name}.{submodule}"


@pytest.mark.parametrize("script", ["quickstart.py", "riscv_offload.py", "stencil_hpc.py"])
def test_examples_importing_from_the_lazy_packages_run(script):
    _run([str(REPO / "examples" / script)])
