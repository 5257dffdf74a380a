"""Fixtures shared by the test modules: the library's other builds, each
compiled once per test session by ``_kernel.compile_command``."""

import os
import subprocess
import sys

import pytest

from unsharp_monitor import _kernel

UBSAN = ("-fsanitize=undefined", "-fno-sanitize-recover=all")
ASAN = ("-fsanitize=address", "-fno-sanitize-recover=all")
SANITIZERS = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all")


def _compile(path, extra, sources=_kernel.SOURCES):
    return subprocess.run(
        _kernel.compile_command(path, sources, extra),
        capture_output=True, text=True, timeout=_kernel.BUILD_TIMEOUT_S,
    )


def _library(tmp_path_factory, name, extra):
    path = tmp_path_factory.mktemp(name) / f"{name}.so"
    build = _compile(path, extra)
    if build.returncode:
        pytest.fail(build.stderr)
    return path


@pytest.fixture(scope="session")
def portable_library(tmp_path_factory):
    """The library built once as a compiler without ``unsigned __int128``
    builds it, so umul128's portable body does every 64 x 64 -> 128-bit
    product: the float text's and the PCG64 stream's."""
    return _library(tmp_path_factory, "portable", ["-U__SIZEOF_INT128__"])


@pytest.fixture(scope="session")
def baseline_library(tmp_path_factory):
    """The library built once with ``GROUP_CLONES`` empty, as ``_kernel.c``
    defines it where there is no ifunc: one copy of the lane-group loop, for
    the baseline ISA, which an AVX2 host runs only here."""
    return _library(tmp_path_factory, "baseline", ["-DGROUP_CLONES="])


def _asan_environment(tmp_path):
    """The environment that runs a Python child on an AddressSanitizer build,
    or None and why where libasan cannot be preloaded into the interpreter:
    the runtime comes first, Python allocates with malloc, so ASan sees each
    object, and the interpreter's own leaks at exit are not reported."""
    cc = _kernel.compiler()
    runtime = subprocess.run(
        [*cc, "-print-file-name=libasan.so"], capture_output=True, text=True
    ).stdout.strip()
    if not os.path.isabs(runtime):
        return None, f"libasan cannot be preloaded: {cc[0]} names no libasan.so"
    environment = {
        **os.environ, "LD_PRELOAD": runtime, "PYTHONMALLOC": "malloc",
        "ASAN_OPTIONS": "detect_leaks=0",
    }
    probe = subprocess.run(
        [sys.executable, "-c", "pass"], env=environment, capture_output=True, text=True,
        timeout=60, cwd=tmp_path,
    )
    if probe.returncode:
        first = next(iter(probe.stderr.splitlines()), "no message")
        return None, f"libasan cannot be preloaded into the interpreter: {first}"
    return environment, None


@pytest.fixture(scope="session")
def sanitized_libraries(tmp_path_factory):
    """Builds of the library under the undefined behaviour sanitizer and
    AddressSanitizer, made once: ``(runs, missing)``, where ``runs`` holds
    (path, environment of the Python child that loads it) and ``missing``
    says which sanitizer no run covers, and why, or is None.  One build
    carries both where the compiler links them together, and one build each
    where it does not."""
    directory = tmp_path_factory.mktemp("sanitized")
    environment, missing = _asan_environment(directory)
    empty = directory / "empty.c"
    empty.write_text("int empty;\n", encoding="ascii")

    def build(name, extra, why):
        path = directory / f"{name}.so"
        result = _compile(path, extra)
        if not result.returncode:
            return path, None
        if _compile(directory / "empty.so", extra, [empty]).returncode:
            return None, why  # the toolchain cannot link it at all
        pytest.fail(result.stderr)

    if environment is not None:
        both, _ = build("both", SANITIZERS, None)
        if both is not None:
            return [(both, environment)], None
    runs = []
    ubsan, ubsan_missing = build("ubsan", UBSAN, "the compiler cannot link the undefined behaviour sanitizer")
    if ubsan is not None:
        runs.append((ubsan, None))
    if environment is not None:
        asan, missing = build("asan", ASAN, "the compiler cannot link AddressSanitizer")
        if asan is not None:
            runs.append((asan, environment))
    return runs, "; ".join(why for why in (ubsan_missing, missing) if why) or None
