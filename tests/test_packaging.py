"""What the package exposes to code outside it: its import footprint, its
declared dependencies and the names the benchmark's tracer wraps."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cruiseopt

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_import_leaves_scipy_optimize_unloaded():
    """`import cruiseopt` loads no third-party package but NumPy: nothing
    else adds to the start-up time of every caller."""
    src = str(Path(cruiseopt.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "before = set(sys.modules); import cruiseopt; "
            "print(' '.join(sorted({n.split('.')[0] for n in sys.modules} "
            "- {n.split('.')[0] for n in before})))")
    out = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert "scipy" not in loaded
    assert loaded - set(sys.stdlib_module_names) - {"cruiseopt"} == {"numpy"}


@pytest.mark.skipif(not (PERFBENCH / "trace_spans.py").is_file(),
                    reason="no perfbench/ in this checkout")
def test_benchmark_trace_targets_resolve(monkeypatch):
    # the tracer skips a target that no longer exists and reports its
    # metrics missing, so a renamed or deleted name must fail here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from trace_spans import TARGETS
    for module, attr, _ in TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (
            f"{module}.{attr}")


def _third_party_imports(directory: Path) -> set[str]:
    """Top-level names imported under `directory` that are neither in the
    standard library nor modules of this checkout."""
    local = {"cruiseopt"} | {p.stem for p in ROOT.glob("*/*.py")}
    names = set()
    for path in directory.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - local


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return {re.match(r"[\w.-]+", r).group().lower().replace("-", "_")
                for r in requirements}

    runtime = names(project["dependencies"])
    test = names(project["optional-dependencies"]["test"])
    used_src = _third_party_imports(ROOT / "src")
    used_tests = _third_party_imports(ROOT / "tests")
    assert used_src <= runtime
    assert used_tests <= runtime | test
    assert runtime | test <= used_src | used_tests
