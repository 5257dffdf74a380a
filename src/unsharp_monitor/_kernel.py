"""Build, cache and load the compiled library: ``_kernel.c`` and ``_repr.c``.

The library holds the measurement kernel (``um_advance``, which
``trajectory`` runs) and the artifact float formatter (``um_repr``, which
``artifacts`` runs).  It is built on first use with the interpreter's C
compiler (``sysconfig``'s ``CC``) and cached in this package's
``__pycache__/`` under a name keyed on the sources, the flags and the
platform, so later processes load it without compiling.  The compiler
writes a temporary file that ``os.replace`` then moves into place, so a
process never loads a half-written library, however many build it at once.

A build deletes the libraries that older sources left in the cache.
``load`` returns None when there is no compiler, the build fails, the
cache directory cannot be written or the library refuses the formatter's
power-of-5 tables, which ``load`` computes with Python integers
(``pow5_tables``); ``trajectory`` then runs its Python loop, which gives
the same doubles, and ``artifacts`` formats with ``float.__repr__``,
which gives the same text.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shlex
import struct
import sysconfig
import tempfile
import zlib
from pathlib import Path

SOURCES = tuple(Path(__file__).with_name(name) for name in ("_kernel.c", "_repr.c"))
# -ffp-contract=off rounds every multiply and add on its own, as Python
# does; -ffast-math, never passed, would also let the compiler regroup sums
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
BUILD_TIMEOUT_S = 120
_PLATFORM = sysconfig.get_platform().replace("-", "_").replace(".", "_")

# um_advance returns 0, or one of these when it stops early
EXCURSION, ZERO_NORM = 1, 2
# um_repr's output bytes per value: the longest text, 24 chars, and a ','
REPR_STRIDE = 25
# _repr.c's tables: 125-bit entries for 5^i, i < 326, and 5^-q, q < 291
POW5_BITS, POW5_COUNT, POW5_INV_COUNT = 125, 326, 291


def compiler() -> list[str] | None:
    """The interpreter's C compiler command as an argument list, if it has one."""
    cc = sysconfig.get_config_var("CC")
    return shlex.split(cc) if cc else None


def library_path() -> Path:
    """Where the library built from the current sources is cached."""
    # the key only tells versions of the sources apart, so CRC-32 will do;
    # hashlib would load OpenSSL, ~4 MB and ~4 ms, into every process
    text = b"".join(source.read_bytes() for source in SOURCES) + " ".join(FLAGS).encode()
    key = f"{zlib.crc32(text):08x}"
    return SOURCES[0].parent / "__pycache__" / f"_kernel.{key}.{_PLATFORM}.so"


def _build(path: Path) -> None:
    """Compile ``SOURCES`` into ``path``; raises OSError when that cannot be done."""
    import subprocess  # only a build needs it; most processes load the cache

    cc = compiler()
    if not cc:
        raise OSError("the interpreter names no C compiler")
    path.parent.mkdir(exist_ok=True)
    fd, temp = tempfile.mkstemp(prefix=path.name + ".", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run(
            [*cc, *FLAGS, "-o", temp, *map(str, SOURCES), "-lm"],
            check=True, capture_output=True, timeout=BUILD_TIMEOUT_S,
        )
        os.chmod(temp, 0o755)  # mkstemp made it private to this user
        os.replace(temp, path)
    except subprocess.SubprocessError as error:
        raise OSError(f"{cc[0]} could not build {path.name}") from error
    finally:
        if os.path.exists(temp):
            os.remove(temp)
    # libraries built from older sources are never loaded again; a temporary
    # name ends in mkstemp's random suffix, not ".so", so none is matched
    for stale in path.parent.glob(f"_kernel.*.{_PLATFORM}.so"):
        if stale != path:
            stale.unlink(missing_ok=True)  # another process may prune it first


def pow5_tables() -> tuple[bytes, int, bytes, int]:
    """``_repr.c``'s tables as ``um_install_tables`` takes them: each one's
    {low, high} 64-bit words, in the machine's byte order, and its length.
    ``POW5[i]`` is 5^i shifted to 125 bits and ``POW5_INV[q]`` is
    2^(bits(5^q) + 124) // 5^q + 1, both exact."""
    powers = [5**i for i in range(POW5_COUNT)]
    pow5 = [p << POW5_BITS >> p.bit_length() for p in powers]
    pow5_inv = [(1 << (p.bit_length() + POW5_BITS - 1)) // p + 1 for p in powers[:POW5_INV_COUNT]]
    tables = ()
    for table in (pow5, pow5_inv):
        words = [word for value in table for word in (value % 2**64, value >> 64)]
        tables += struct.pack(f"={2 * len(table)}Q", *words), len(table)
    return tables


@functools.cache
def load() -> ctypes.CDLL | None:
    """The cached library, typed and its tables in, built first if need be; None if unavailable.

    Cached, so each process loads the library once, however many modules use it.
    """
    try:
        path = library_path()
        if not path.is_file():
            _build(path)
        library = ctypes.CDLL(str(path))
    except OSError:
        return None
    double_p, int64_p = ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_int64)
    library.um_advance.restype = ctypes.c_int
    library.um_advance.argtypes = (
        double_p,  # state
        double_p,  # constants
        ctypes.c_int64,  # n
        ctypes.c_int64,  # series
        double_p,  # uniforms
        double_p,  # c2_sq
        int64_p,  # n_plus
        double_p,  # excursion
    )
    library.um_repr.restype = ctypes.c_int64
    library.um_repr.argtypes = (
        ctypes.c_void_p,  # x, C-contiguous doubles
        ctypes.c_int64,  # n
        ctypes.c_char_p,  # out
        ctypes.c_int64,  # capacity, at least REPR_STRIDE * n
    )
    library.um_install_tables.restype = ctypes.c_int
    library.um_install_tables.argtypes = (ctypes.c_char_p, ctypes.c_int64) * 2  # pow5_tables()
    return None if library.um_install_tables(*pow5_tables()) else library
