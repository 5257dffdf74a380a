"""Build, cache and load the compiled measurement kernel, ``_kernel.c``.

The library is built on first use with the interpreter's C compiler
(``sysconfig``'s ``CC``) and cached in this package's ``__pycache__/``
under a name keyed on the source, the flags and the platform, so later
processes load it without compiling.  The compiler writes a temporary
file that ``os.replace`` then moves into place, so a process never loads
a half-written library, however many build it at once.

A build deletes the libraries that older sources left in the cache.
``load`` returns None when there is no compiler, the build fails or the
cache directory cannot be written; ``trajectory`` then runs its Python
loop, which gives the same doubles.
"""

from __future__ import annotations

import ctypes
import os
import shlex
import sysconfig
import tempfile
import zlib
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernel.c")
# -ffp-contract=off rounds every multiply and add on its own, as Python
# does; -ffast-math, never passed, would also let the compiler regroup sums
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
BUILD_TIMEOUT_S = 120

# um_advance returns 0, or one of these when it stops early
EXCURSION, ZERO_NORM = 1, 2


def compiler() -> list[str] | None:
    """The interpreter's C compiler command as an argument list, if it has one."""
    cc = sysconfig.get_config_var("CC")
    return shlex.split(cc) if cc else None


def library_path() -> Path:
    """Where the library built from the current source is cached."""
    # the key only tells versions of one file apart, so CRC-32 will do;
    # hashlib would load OpenSSL, ~4 MB and ~4 ms, into every process
    key = f"{zlib.crc32(SOURCE.read_bytes() + ' '.join(FLAGS).encode()):08x}"
    return SOURCE.parent / "__pycache__" / f"_kernel.{key}.{_platform()}.so"


def _platform() -> str:
    return sysconfig.get_platform().replace("-", "_").replace(".", "_")


def _build(path: Path) -> None:
    """Compile ``SOURCE`` into ``path``; raises OSError when that cannot be done."""
    import subprocess  # only a build needs it; most processes load the cache

    cc = compiler()
    if not cc:
        raise OSError("the interpreter names no C compiler")
    path.parent.mkdir(exist_ok=True)
    fd, temp = tempfile.mkstemp(prefix=path.name + ".", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run(
            [*cc, *FLAGS, "-o", temp, str(SOURCE), "-lm"],
            check=True, capture_output=True, timeout=BUILD_TIMEOUT_S,
        )
        os.chmod(temp, 0o755)  # mkstemp made it private to this user
        os.replace(temp, path)
    except subprocess.SubprocessError as error:
        raise OSError(f"{cc[0]} could not build {SOURCE.name}") from error
    finally:
        if os.path.exists(temp):
            os.remove(temp)
    # libraries built from older sources are never loaded again; a temporary
    # name ends in mkstemp's random suffix, not ".so", so none is matched
    for stale in path.parent.glob(f"_kernel.*.{_platform()}.so"):
        if stale != path:
            try:
                stale.unlink()
            except FileNotFoundError:  # another process pruned it first
                pass


def load():
    """``um_advance`` from the cached library, built first if need be; None if unavailable."""
    try:
        path = library_path()
        if not path.is_file():
            _build(path)
        advance = ctypes.CDLL(str(path)).um_advance
    except OSError:
        return None
    advance.restype = ctypes.c_int
    double_p, int64_p = ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_int64)
    advance.argtypes = (
        double_p,  # state
        double_p,  # constants
        ctypes.c_int64,  # n
        ctypes.c_int64,  # series
        double_p,  # uniforms
        double_p,  # c2_sq
        int64_p,  # n_plus
        double_p,  # excursion
    )
    return advance
