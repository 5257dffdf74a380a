"""Build, cache and load the compiled library of ``SOURCES``.

The library holds the measurement kernel (``um_advance_rows`` in
``_kernel.c``, which ``trajectory`` runs; it returns the row where it
stopped and leaves the errors to the Python loop), and the artifact float
writer (``um_repr_rows`` and ``um_repr_join``) and trajectory-CSV row
parser (``um_parse_rows``) in ``_repr.c``, which ``artifacts`` runs.  It
is built on first use with the interpreter's C compiler (``sysconfig``'s
``CC``), the writer's and the parser's table of powers of ten compiled in
from ``pow10_table``, and cached in this package's ``__pycache__/`` under
a name keyed on the bytes of the sources and of this file, and on the
platform, so later processes load it without compiling.  The compiler
writes a temporary file that ``os.replace`` then moves into place, so a
process never loads a half-written library, however many build it at once.

A build deletes the libraries that older sources left in the cache.
``load`` returns None, and says why in one line on stderr, when there is
no compiler, the build fails or the cache directory cannot be written;
``trajectory`` then runs its Python loop, which gives the same doubles,
and ``artifacts`` formats with ``float.__repr__`` and parses with
``float()``, which give the same text and the same doubles.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shlex
import sys
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

# the longest float text _repr.c writes, and the longest index
REPR_MAX, INDEX_MAX = 24, 20
# _repr.c's table: 128-bit entries for 10^q, POW10_MIN_Q <= q <= POW10_MAX_Q
POW10_BITS, POW10_MIN_Q, POW10_MAX_Q = 128, -342, 324


def compiler() -> list[str] | None:
    """The interpreter's C compiler command as an argument list, if it has one."""
    cc = sysconfig.get_config_var("CC")
    return shlex.split(cc) if cc else None


def library_path() -> Path:
    """Where the library built from the current sources is cached."""
    # this file holds FLAGS and the table.  CRC-32 tells versions apart, and
    # hashlib would load OpenSSL, ~4 MB and ~4 ms, into every process
    text = b"".join(source.read_bytes() for source in (*SOURCES, Path(__file__)))
    key = f"{zlib.crc32(text):08x}"
    return SOURCES[0].parent / "__pycache__" / f"_kernel.{key}.{_PLATFORM}.so"


def _build(path: Path) -> None:
    """Compile ``SOURCES`` into ``path``; raises OSError, saying why, when that cannot be done."""
    import subprocess  # only a build needs it; most processes load the cache

    cc = compiler()
    if not cc:
        raise OSError("the interpreter names no C compiler")
    try:
        path.parent.mkdir(exist_ok=True)
        fd, temp = tempfile.mkstemp(prefix=path.name + ".", dir=path.parent)
        os.close(fd)
    except OSError as error:
        raise OSError(f"cannot write {path.parent}: {error.strerror or error}") from error
    header = temp + ".h"
    try:
        write_table_header(header)
        subprocess.run(
            [*cc, *FLAGS, "-include", header, "-o", temp, *map(str, SOURCES), "-lm"],
            check=True, capture_output=True, timeout=BUILD_TIMEOUT_S,
        )
        os.chmod(temp, 0o755)  # mkstemp made it private to this user
        os.replace(temp, path)
    except FileNotFoundError as error:
        raise OSError(f"no C compiler: {cc[0]!r} is not on PATH") from error
    except subprocess.SubprocessError as error:
        raise OSError(f"{cc[0]} could not build {path.name}") from error
    finally:
        for name in (temp, header):
            if os.path.exists(name):
                os.remove(name)
    # libraries built from older sources are never loaded again; a temporary
    # name ends in mkstemp's random suffix, not ".so", so none is matched
    for stale in path.parent.glob(f"_kernel.*.{_PLATFORM}.so"):
        if stale != path:
            stale.unlink(missing_ok=True)  # another process may prune it first


def _top_bits(value: int, bits: int) -> int:
    """``value`` shifted to ``bits`` bits, truncated."""
    return value << bits >> value.bit_length()


def _reciprocal(value: int, bits: int) -> int:
    """2^(bits(value) + bits - 1) // value: 1 / value shifted to ``bits`` bits, truncated."""
    return (1 << (value.bit_length() + bits - 1)) // value


def pow10_table() -> list[int]:
    """``_repr.c``'s table: entry q - ``POW10_MIN_Q`` for
    ``POW10_MIN_Q <= q <= POW10_MAX_Q`` holds the 128 leading bits of 10^q.

    Those are the bits of 5^q, as the fast_float library tabulates them:
    5^q itself, truncated, for q >= 0, and the truncated reciprocal of
    5^-q for q < 0, plus one where 5^-q < 2^64.
    """
    power, powers = 1, [1]
    for _ in range(max(-POW10_MIN_Q, POW10_MAX_Q)):
        power *= 5
        powers.append(power)
    table = [
        _reciprocal(powers[k], POW10_BITS) + (powers[k] < 2**64)
        for k in range(-POW10_MIN_Q, 0, -1)
    ]
    return table + [_top_bits(p, POW10_BITS) for p in powers[:POW10_MAX_Q + 1]]


def write_table_header(path: str | os.PathLike) -> None:
    """Write ``pow10_table()`` as the header ``_repr.c`` is compiled with
    (``-include``): a macro ``POW10_ENTRIES`` of {low, high} 64-bit words."""
    entries = [f"{{0x{value % 2**64:016x}u, 0x{value >> 64:016x}u}}" for value in pow10_table()]
    with open(path, "w", encoding="ascii") as header:
        header.write("#define POW10_ENTRIES \\\n    " + ", \\\n    ".join(entries) + "\n")


@functools.cache
def load() -> ctypes.CDLL | None:
    """The cached library, typed, built first if need be; None, said on stderr, if unavailable.

    Cached, so each process loads the library once, however many modules use it.
    """
    try:
        path = library_path()
        if not path.is_file():
            _build(path)
        library = ctypes.CDLL(str(path))
    except OSError as error:
        message = f"compiled library unavailable ({error}); the Python routes run, slower"
        print(f"warning: {message}", file=sys.stderr)
        return None
    double_p, int64_p = ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_int64)
    library.um_advance_rows.restype = ctypes.c_int64  # the row it stopped in, or rows
    library.um_advance_rows.argtypes = (
        double_p,  # state, rows x 4
        double_p,  # constants
        ctypes.c_int64,  # n
        ctypes.c_int64,  # series
        ctypes.c_int64,  # rows
        double_p,  # uniforms, rows x (n * series)
        double_p,  # c2_sq, rows x series
        int64_p,  # n_plus, rows x series
    )
    library.um_repr_join.restype = ctypes.c_int64
    library.um_repr_join.argtypes = (
        ctypes.c_void_p,  # x, C-contiguous doubles
        ctypes.c_int64,  # n
        ctypes.c_char_p,  # sep
        ctypes.c_int64,  # sep_len
        ctypes.c_void_p,  # out
        ctypes.c_int64,  # capacity, at least (REPR_MAX + sep_len) * n
    )
    library.um_repr_rows.restype = ctypes.c_int64
    library.um_repr_rows.argtypes = (
        ctypes.c_void_p,  # index, C-contiguous int64
        ctypes.c_void_p,  # columns, width x n C-contiguous doubles
        ctypes.c_int64,  # n
        ctypes.c_int64,  # width
        ctypes.c_void_p,  # out
        ctypes.c_int64,  # capacity, at least (INDEX_MAX + 1 + width * (REPR_MAX + 1)) * n
    )
    library.um_parse_rows.restype = ctypes.c_int64
    library.um_parse_rows.argtypes = (
        ctypes.c_void_p,  # buf, the data rows' bytes
        ctypes.c_int64,  # len
        ctypes.c_void_p,  # out, C-contiguous doubles
        ctypes.c_int64,  # capacity, in doubles
    )
    return library
