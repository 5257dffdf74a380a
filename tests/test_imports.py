"""Each module imports on its own in a fresh interpreter.

The package root imports no submodule, so an import cycle between modules
is no longer hidden by the order in which a root ``__init__`` pulled them
in.  Every check runs in a new process, one module per process.
"""

import ast
import importlib
import json
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


# runs a compiled simulate, sweep and analyze into sys.argv[1] and prints
# whether numpy.random and numpy.ma were loaded by numpy itself, and after
# the three commands
COMMANDS = """
import json, sys, numpy
lazy = ("numpy.random", "numpy.ma")
eager = {name: name in sys.modules for name in lazy}
from unsharp_monitor import _kernel, cli
out = sys.argv[1]
codes = [
    cli.main(["simulate", "--preset", "fig3", "--out-dir", out + "/simulate"]),
    cli.main(["sweep", "--p0", "0.5", "--dp=-0.3,0.08", "--tau", "0.002", "--n", "5",
              "--m", "48", "--seeds-per-point", "3", "--out-dir", out + "/sweep"]),
    cli.main(["analyze", out + "/simulate/trajectory.csv", "--out-dir", out + "/analyze"]),
]
print(json.dumps({
    "eager": eager, "codes": codes, "compiled": _kernel.load() is not None,
    "loaded": {name: name in sys.modules for name in lazy},
}))
"""


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    """What the COMMANDS child printed, run once for the tests below."""
    result = run_python("-W", "ignore", "-c", COMMANDS, str(tmp_path_factory.mktemp("commands")))
    assert result.returncode == 0, result.stderr
    state = json.loads(result.stdout.splitlines()[-1])
    assert state["codes"] == [0, 0, 0]
    return state


def test_compiled_commands_leave_numpy_random_unloaded(commands):
    # the compiled kernel seeds and draws its streams itself, so only the
    # Python route imports numpy.random
    if commands["eager"]["numpy.random"]:
        pytest.skip("import numpy loads numpy.random itself (numpy 1.x)")
    if not commands["compiled"]:
        pytest.skip("the compiled library did not load")
    assert not commands["loaded"]["numpy.random"]


def test_commands_leave_numpy_ma_unloaded(commands):
    # np.median's NaN check imports numpy.ma, about 10 ms, on its first
    # call; spectral.row_medians, which the readout takes its medians with,
    # does not
    if commands["eager"]["numpy.ma"]:
        pytest.skip("import numpy loads numpy.ma itself (numpy 1.x)")
    assert not commands["loaded"]["numpy.ma"]


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
