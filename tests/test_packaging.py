"""What the package exposes to code outside it: its import footprint and
the names the benchmark's tracer wraps."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import cruiseopt

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_import_leaves_scipy_optimize_unloaded():
    src = str(Path(cruiseopt.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import cruiseopt; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


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
