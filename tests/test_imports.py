"""Each module imports on its own in a fresh interpreter.

The package root imports no submodule, so an import cycle between modules
is no longer hidden by the order in which a root ``__init__`` pulled them
in.  Every check runs in a new process, one module per process.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = sorted(
    path.stem for path in (SRC / "unsharp_monitor").glob("*.py") if not path.stem.startswith("_")
)


def run_python(*args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    result = run_python("-c", f"import unsharp_monitor.{module}")
    assert result.returncode == 0, result.stderr


def test_package_root_exports_no_names():
    script = (
        "import sys, unsharp_monitor; "
        "print([name for name in sys.modules if name.startswith('unsharp_monitor.')])"
    )
    result = run_python("-c", script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_module_runs_a_report():
    result = run_python("-m", "unsharp_monitor", "report", "--preset", "fig1")
    assert result.returncode == 0, result.stderr
    assert '"regime": "quantum_jump"' in result.stdout


def test_tracer_layer_names_exist():
    # perfbench/tracer.py wraps each name with getattr(module, name), so a
    # deleted name breaks a traced benchmark run while the rest stays green
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    (layers,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "LAYERS" for target in node.targets)
    ]
    missing = [
        f"{module_name}.{name}"
        for module_name, names in layers.values()
        for name in names
        if not hasattr(importlib.import_module(f"unsharp_monitor.{module_name}"), name)
    ]
    assert missing == []
