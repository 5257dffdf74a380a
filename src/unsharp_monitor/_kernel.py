"""Build, cache and load the compiled library of ``SOURCES``.

The library holds the measurement kernel (``um_advance_rows`` in
``_kernel.c``, which ``trajectory`` runs), the artifact float writer
(``um_repr_rows`` and ``um_repr_join`` in ``_repr.c``) and the
trajectory-CSV row parser (``um_parse_rows`` in ``_read.c``), which
``artifacts`` runs.  It is built
on first use with the interpreter's C compiler (``sysconfig``'s ``CC``) and
cached in this package's ``__pycache__/`` under a name keyed on the
sources, the flags and the platform, so later processes load it without
compiling.  The compiler writes a temporary file that ``os.replace`` then
moves into place, so a process never loads a half-written library, however
many build it at once.

A build deletes the libraries that older sources left in the cache.
``load`` returns None when there is no compiler, the build fails, the
cache directory cannot be written or the library refuses one of its
power-of-5 tables, which ``load`` computes with Python integers
(``pow5_tables`` and ``parse_table``); ``trajectory`` then runs its Python
loop, which gives the same doubles, and ``artifacts`` formats with
``float.__repr__`` and parses with ``float()``, which give the same text
and the same doubles.
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

SOURCES = tuple(Path(__file__).with_name(name) for name in ("_kernel.c", "_repr.c", "_read.c"))
# -ffp-contract=off rounds every multiply and add on its own, as Python
# does; -ffast-math, never passed, would also let the compiler regroup sums
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
BUILD_TIMEOUT_S = 120
_PLATFORM = sysconfig.get_platform().replace("-", "_").replace(".", "_")

# um_advance_rows returns 0, or one of these when it stops early
EXCURSION, ZERO_NORM = 1, 2
# the longest float text _repr.c writes, and the longest index
REPR_MAX, INDEX_MAX = 24, 20
# _repr.c's tables: 125-bit entries for 5^i, i < 326, and 5^-q, q < 291
POW5_BITS, POW5_COUNT, POW5_INV_COUNT = 125, 326, 291
# _read.c's table: 128-bit entries for 5^q, PARSE_MIN_Q <= q <= PARSE_MAX_Q
PARSE_BITS, PARSE_MIN_Q, PARSE_MAX_Q = 128, -342, 308


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


def _powers_of_5(count: int) -> list[int]:
    """5^i for 0 <= i < count."""
    powers = [1]
    for _ in range(count - 1):
        powers.append(5 * powers[-1])
    return powers


def _top_bits(value: int, bits: int) -> int:
    """``value`` shifted to ``bits`` bits, truncated."""
    return value << bits >> value.bit_length()


def _reciprocal(value: int, bits: int) -> int:
    """2^(bits(value) + bits - 1) // value: 1 / value shifted to ``bits`` bits, truncated."""
    return (1 << (value.bit_length() + bits - 1)) // value


_ENTRY = struct.Struct("=QQ")


def _packed(table: list[int]) -> tuple[bytes, int]:
    """A table of 128-bit integers as {low, high} 64-bit words, in the
    machine's byte order, and its length."""
    return b"".join([_ENTRY.pack(value % 2**64, value >> 64) for value in table]), len(table)


def pow5_tables() -> tuple[bytes, int, bytes, int]:
    """``_repr.c``'s tables as ``um_install_tables`` takes them.
    ``POW5[i]`` is 5^i shifted to 125 bits and ``POW5_INV[q]`` is
    2^(bits(5^q) + 124) // 5^q + 1, both exact."""
    powers = _powers_of_5(POW5_COUNT)
    pow5 = [_top_bits(p, POW5_BITS) for p in powers]
    pow5_inv = [_reciprocal(p, POW5_BITS) + 1 for p in powers[:POW5_INV_COUNT]]
    return _packed(pow5) + _packed(pow5_inv)


def parse_table() -> tuple[bytes, int]:
    """``_read.c``'s table as ``um_install_parse_table`` takes it: 5^q for
    ``PARSE_MIN_Q <= q <= PARSE_MAX_Q`` shifted to 128 bits, as the
    fast_float library tabulates it.  5^q itself, truncated, for q >= 0;
    the truncated reciprocal for q < 0, plus one where 5^-q < 2^64."""
    powers = _powers_of_5(max(-PARSE_MIN_Q, PARSE_MAX_Q) + 1)
    negative = [
        _reciprocal(powers[k], PARSE_BITS) + (powers[k] < 2**64)
        for k in range(-PARSE_MIN_Q, 0, -1)
    ]
    positive = [_top_bits(p, PARSE_BITS) for p in powers[:PARSE_MAX_Q + 1]]
    return _packed(negative + positive)


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
    library.um_advance_rows.restype = ctypes.c_int
    library.um_advance_rows.argtypes = (
        double_p,  # state, rows x 4
        double_p,  # constants
        ctypes.c_int64,  # n
        ctypes.c_int64,  # series
        ctypes.c_int64,  # rows
        double_p,  # uniforms, rows x (n * series)
        double_p,  # c2_sq, rows x series
        int64_p,  # n_plus, rows x series
        double_p,  # excursion
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
    library.um_install_tables.restype = ctypes.c_int
    library.um_install_tables.argtypes = (ctypes.c_char_p, ctypes.c_int64) * 2  # pow5_tables()
    library.um_install_parse_table.restype = ctypes.c_int
    library.um_install_parse_table.argtypes = (ctypes.c_char_p, ctypes.c_int64)  # parse_table()
    if library.um_install_tables(*pow5_tables()) or library.um_install_parse_table(*parse_table()):
        return None
    return library
