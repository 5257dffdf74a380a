"""Each module imports on its own in a fresh interpreter.

The package root imports no submodule, so an import cycle between modules
is no longer hidden by the order in which a root ``__init__`` pulled them
in.  Every check runs in a new process, one module per process.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
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
