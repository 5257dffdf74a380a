"""Fixtures shared by the test modules."""

import subprocess

import pytest

from unsharp_monitor import _kernel


@pytest.fixture(scope="session")
def portable_library(tmp_path_factory):
    """The library built once as a compiler without ``unsigned __int128``
    builds it, so umul128's portable body does every 64 x 64 -> 128-bit
    product: the float text's and the PCG64 stream's."""
    path = tmp_path_factory.mktemp("portable") / "portable.so"
    subprocess.run(
        _kernel.compile_command(path, extra=["-U__SIZEOF_INT128__"]),
        check=True, capture_output=True, timeout=_kernel.BUILD_TIMEOUT_S,
    )
    return path
