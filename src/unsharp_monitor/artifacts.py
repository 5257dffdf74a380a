"""Flat-file artifacts: trajectory CSV, spectrum and report JSON, sweep CSV.

All files are UTF-8 with LF line endings.  Floats are emitted with Python's
shortest round-trip repr, so identical configurations and seeds produce
byte-identical artifacts.  Every file embeds the schema version and the
resolved run configuration (CSV files as leading comment lines).

Text I/O, not analysis, is most of the cost of a readout: one trajectory CSV
and its spectrum hold some 20k floats, and ``analyze`` first parses 10k.
So floats are formatted and parsed in bulk, never one numpy scalar at a
time:

- A trajectory CSV or JSON body is a list of parts, each bytes or a float
  part, which ``_assemble`` writes one after the other into one byte buffer
  per thread (a sweep CSV, a few hundred bytes, is written as bytes).
  The buffer is kept from write to write and grows to the thread's largest
  body, so once it has, a write touches no fresh page: a body built in
  fresh memory faulted some 185 pages back in per ``simulate`` or
  ``analyze`` op, as the allocator hands freed memory back to the system.
  A body whose worst case exceeds ``_KEPT_MAX`` gets a buffer of its own,
  freed after its write.  ``_assemble`` sizes the worst case of all parts,
  copies each run of bytes parts in once and has the compiled library
  (``_repr.c``) write each float part at its place, in one call: the data
  rows of a trajectory CSV (``um_repr_rows``, which numbers the rows 1..M
  itself) or a float array's texts joined by a separator
  (``um_repr_join``), the separator of the array's indentation in JSON.
  Each float is ``float.__repr__``'s exact text, the text ``fmt`` and
  ``json`` give a finite float.  The body is the ASCII bytes written, with
  no Python object per float, no decode and no copy of the whole:
  ``write_json``, ``write_report_json`` and ``write_trajectory_csv`` hand
  ``_write_bytes`` a view of the buffer, and only ``dump_json`` copies it
  into ``bytes``, for ``report``, which decodes it once to print.  A float
  array that holds a non-finite value is left to ``json``, through
  ``json_safe``, which quotes that value.  Where ``_kernel.load()``,
  the one switch, returns None (no library loaded) a float part is its text
  joined from one ``float.__repr__`` call per float and encoded, which
  gives the same bytes, and is copied in as bytes are.
- ``read_trajectory_csv`` reads the file once as bytes and decodes only
  the lines up to the header.  The data rows after it go to one call into
  the compiled library (``um_parse_rows`` in ``_repr.c``), which reads
  the rows ``write_trajectory_csv`` writes (five fields in ``repr``'s
  grammar, ``\\n`` endings) into the doubles ``float()`` gives, and
  declines everything else as a whole.  The grammar admits texts ``repr``
  never writes, such as ``1.50`` or ``1.5e+00``, so a field read is not
  always ``repr``'s text of its double.  Where it declines, or no
  library loaded, the whole file is decoded and one loop reads its rows
  line by line, every field by ``float()`` itself, into an array of
  doubles.  It raises at the first bad line and names it, so every error
  text is ``float()``'s.

A JSON body must equal ``json.dumps(json_safe(payload), indent=2) + "\\n"``,
encoded, byte for byte, which the tests check against that expression.
``_json_body`` makes one ``json.dumps(..., indent=2)`` call, on the payload
with each finite float array replaced by a private marker string, and
splits its text at the markers.  At each split goes the array's float part,
indented two spaces deeper than the marker's line, so ``json`` lays out
every bracket, key and scalar and the compiled writer every float of an
array.  Where a string in the payload spells the marker, the split finds
more markers than arrays, and the body is that expression's text itself.
"""

from __future__ import annotations

import json
import math
import os
import stat
import threading
from pathlib import Path
from typing import Any

import numpy as np

from . import _kernel
from .config import SCHEMA_VERSION
from .spectral import SpectrumRecord, main_peak

TRAJECTORY_COLUMNS = ("m", "t_over_TR", "c2_sq", "g2", "g2_processed")

SWEEP_COLUMNS = (
    "p0", "dp", "tau", "n_per_series", "m_series", "seed",
    "f", "regime", "peak_freq_error", "peak_significant",
    "corr_raw", "corr_processed",
)


class ArtifactError(ValueError):
    """Unreadable or malformed artifact file."""


def fmt(value: Any) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def json_safe(value: Any) -> Any:
    """Replace non-finite floats (JSON has no literal for them) by strings."""
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return json_safe(value.tolist())
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isfinite(value):
            return value
        return repr(value)
    return value


def check_targets(paths: list[Path]) -> None:
    """Raise the ArtifactError of the first of ``paths`` that exists and is
    not a regular file, a directory say, before any of them is written.

    A command calls this with all its targets first, so that a target in
    the way leaves no file of that command behind.
    """
    for path in paths:
        try:
            mode = path.stat().st_mode
        except OSError:
            continue  # absent, say; where it cannot be written, the write reports why
        if not stat.S_ISREG(mode):
            reason = "Is a directory" if stat.S_ISDIR(mode) else "not a regular file"
            raise ArtifactError(f"cannot write {path}: {reason}")


def _write_bytes(path: Path, data: bytes | memoryview) -> None:
    """Write ``data`` to ``path`` whole or not at all.

    The bytes go to a new file beside the target, which ``os.replace`` then
    moves onto it, so a write that fails partway leaves the old file (or
    none) and no temporary file.  A target that is itself a symlink is
    resolved first, so the link keeps pointing at the new bytes; a
    symlinked directory needs no resolving, as the new file lands beside
    the target through it either way.  The file is new, so it gets a new
    file's mode, and its directory must be writable.
    """
    target = os.path.realpath(path) if os.path.islink(path) else path
    temp = f"{target}.{os.urandom(4).hex()}.tmp"
    try:
        with open(temp, "xb") as handle:
            handle.write(data)
        os.replace(temp, target)
    except BaseException as exc:
        if os.path.lexists(temp):  # the write or the replace failed
            os.unlink(temp)
        if isinstance(exc, OSError):  # a directory in the way, say
            raise ArtifactError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


_kernel.load()  # builds, loads or warns at import, not in the first write; then cached


# A body larger than this in the worst case gets a buffer of its own, freed
# after its write: about 10 times the presets' largest (some 0.36 MB), so
# that a run of a million series does not keep its ~120 MB for good.
_KEPT_MAX = 4 << 20
_kept = threading.local()  # .buffer: the thread's bytes, as long as its largest body
# a body part: bytes, or a float part, the floats for the compiled writer
# with the separator that joins them, or None for CSV rows
_Part = bytes | tuple[np.ndarray, bytes | None]


def _join_part(values: Any, separator: str) -> _Part:
    """The part for the ``float.__repr__`` text of each element of a 1-d
    array, joined by ``separator``; the text itself where no library loaded."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 1:  # the library reads len(values) doubles from the pointer
        raise ValueError(f"expected a 1-d array, got shape {values.shape}")
    if _kernel.load() is None:
        return separator.join(map(float.__repr__, values.tolist())).encode()
    return values, separator.encode("ascii")


def _rows_part(*columns: Any) -> _Part:
    """The part for the CSV rows ``r,v1,...,vk\\n`` for r = 1..M, each row's
    number and ``float.__repr__`` of the values in ``columns`` beside it; the
    text itself where no library loaded."""
    values = np.array(columns, dtype=np.float64)  # C-contiguous, a column per row
    if values.ndim != 2:
        raise ValueError(f"expected 1-d columns of one length, got shape {values.shape}")
    if _kernel.load() is None:
        n = values.shape[1]
        texts = zip(map(str, range(1, n + 1)), *(map(float.__repr__, v) for v in values.tolist()))
        return "".join([",".join(row) + "\n" for row in texts]).encode()
    return values, None


def _worst_case(part: _Part) -> int:
    """The most bytes ``part`` can take: the capacity its writer needs."""
    if isinstance(part, bytes):
        return len(part)
    values, separator = part
    if separator is None:
        width, n = values.shape
        return (_kernel.INDEX_MAX + 1 + (_kernel.REPR_MAX + 1) * width) * n
    return (_kernel.REPR_MAX + len(separator)) * len(values)


def _assemble(parts: list[_Part]) -> memoryview:
    """The body that ``parts`` spell, one after the other, as a view of the
    thread's kept buffer, valid until the thread's next body.

    Each run of bytes parts is copied in once, and the compiled writer puts
    each float part at its place, so no body is copied whole, and once the
    buffer has grown to the largest body no fresh page is touched.
    """
    sizes = [_worst_case(part) for part in parts]
    total = sum(sizes)
    if total > _KEPT_MAX:
        buffer = np.empty(total, dtype=np.uint8)
    else:
        buffer = getattr(_kept, "buffer", None)
        if buffer is None or len(buffer) < total:
            buffer = _kept.buffer = np.empty(total, dtype=np.uint8)
    view, address, library = memoryview(buffer), buffer.ctypes.data, _kernel.load()
    at, run = 0, []
    for part, capacity in zip(parts, sizes):
        if isinstance(part, bytes):
            run.append(part)
            continue
        text = b"".join(run)
        view[at : at + len(text)] = text
        at, run = at + len(text), []
        values, separator = part
        if separator is None:
            width, n = values.shape
            size = library.um_repr_rows(values.ctypes.data, n, width, address + at, capacity)
        else:
            size = library.um_repr_join(
                values.ctypes.data, len(values), separator, len(separator), address + at, capacity
            )
        if size < 0:  # the capacity passed is the worst case of _kernel's sizes
            raise RuntimeError("the float writer wrote nothing: it refused the buffer's size")
        at += size
    text = b"".join(run)
    view[at : at + len(text)] = text
    return view[: at + len(text)]


_MARKER = "__unsharp_monitor_float_array__"  # stands in for a float array in json's text
_MARKER_JSON = json.dumps(_MARKER)


def _marked(value: Any, arrays: list[np.ndarray]) -> Any:
    """``json_safe(value)``, but each finite, non-empty 1-d float array is
    ``_MARKER``, appended to ``arrays`` in the order ``json`` writes it.

    A dict key that is not a string raises TypeError, where ``json`` would
    convert it.  A plain string, int, None or finite float is returned as is,
    without a ``json_safe`` call each.
    """
    kind = type(value)
    if kind is str or kind is int or value is None or (kind is float and math.isfinite(value)):
        return value
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError(f"JSON object keys must be str, got {list(value)!r}")
        return {key: _marked(item, arrays) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_marked(item, arrays) for item in value]
    if isinstance(value, np.ndarray):
        # one that holds a non-finite value is written item by item, where
        # json_safe quotes that value
        if value.ndim == 1 and value.dtype.kind == "f" and len(value) and np.isfinite(value).all():
            arrays.append(value)
            return _MARKER
        return _marked(value.tolist(), arrays)
    return json_safe(value)


def _json_body(payload: Any) -> memoryview:
    """``dump_json``'s bytes, as ``_assemble``'s view."""
    arrays: list[np.ndarray] = []
    pieces = json.dumps(_marked(payload, arrays), indent=2).split(_MARKER_JSON)
    if len(pieces) != len(arrays) + 1:  # a string in the payload spells the marker
        return _assemble([(json.dumps(json_safe(payload), indent=2) + "\n").encode()])
    parts: list[_Part] = []
    for before, values in zip(pieces, arrays):
        line = before[before.rfind("\n") + 1 :]  # the text of the marker's line before it
        newline = "\n" + " " * (len(line) - len(line.lstrip(" ")))
        inner = newline + "  "
        parts += (
            (before + "[" + inner).encode(), _join_part(values, "," + inner), (newline + "]").encode()
        )
    parts.append((pieces[-1] + "\n").encode())
    return _assemble(parts)


def dump_json(payload: Any) -> bytes:
    """``json.dumps(json_safe(payload), indent=2) + "\\n"`` as ASCII bytes,
    float arrays in bulk."""
    return bytes(_json_body(payload))


def _comment_header(echo: dict[str, Any]) -> list[str]:
    config_json = json.dumps(json_safe(echo), sort_keys=True, separators=(",", ":"))
    return [f"# schema: {SCHEMA_VERSION}", f"# config: {config_json}"]


def write_trajectory_csv(
    path: str | Path,
    m: np.ndarray,
    t: np.ndarray,
    c2_sq: np.ndarray,
    g2: np.ndarray,
    g2_processed: np.ndarray,
    echo: dict[str, Any],
) -> None:
    if not np.array_equal(m, np.arange(1, len(t) + 1)):
        raise ValueError(f"m must run 1..M, one series per row, for M = {len(t)} rows")
    lines = _comment_header(echo)
    lines.append(",".join(TRAJECTORY_COLUMNS))
    header = ("\n".join(lines) + "\n").encode()
    _write_bytes(Path(path), _assemble([header, _rows_part(t, c2_sq, g2, g2_processed)]))


def read_trajectory_csv(path: str | Path) -> tuple[dict[str, Any] | None, dict[str, np.ndarray]]:
    """Parse a trajectory CSV; returns (config echo, column arrays).

    Comment lines (``#``) may only precede the header; blank lines are
    skipped.  Raises ArtifactError naming the 1-based line number of the
    first offending line.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ArtifactError(f"cannot read {path}: {exc}") from exc
    read = _read_compiled(path, raw)
    if read is not None:
        return read
    text = _decoded(path, raw)
    del raw  # never the file as bytes, text and lines at once
    raw_lines = text.splitlines()
    del text
    echo, header_number = _read_preamble(path, raw_lines)
    return echo, _columns(_parse_rows(path, raw_lines, header_number))


def _decoded(path: Path, raw: bytes) -> str:
    """``raw`` as UTF-8 text; ArtifactError naming ``path`` where it is not."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ArtifactError(f"{path}: not UTF-8 text: {exc}") from exc


def _columns(data: np.ndarray) -> dict[str, np.ndarray]:
    columns = {name: data[:, i] for i, name in enumerate(TRAJECTORY_COLUMNS)}
    columns["m"] = columns["m"].astype(int)
    return columns


_HEADER = (",".join(TRAJECTORY_COLUMNS) + "\n").encode()


def _read_compiled(
    path: Path, raw: bytes
) -> tuple[dict[str, Any] | None, dict[str, np.ndarray]] | None:
    """``read_trajectory_csv``'s result from the file's bytes by one
    ``um_parse_rows`` call, or None where that declines or no library loaded.

    Only the lines up to the first ``\\n``-ended header are decoded.  It
    raises nothing: where those lines hold an error, or their last line is
    not the header, the whole file is read the other way, which raises the
    first error of the whole file.
    """
    if _kernel.load() is None:
        return None
    if raw.startswith(_HEADER):
        start = len(_HEADER)
    else:
        at = raw.find(b"\n" + _HEADER)
        if at < 0:
            return None
        start = at + 1 + len(_HEADER)
    try:
        preamble = _decoded(path, raw[:start]).splitlines()
        echo, header_number = _read_preamble(path, preamble)
    except ArtifactError:
        return None
    if header_number != len(preamble):
        return None  # another line break made an earlier line the header
    data = _compiled_rows(raw, start)
    if data is None or not np.array_equal(data[:, 0], np.arange(1, len(data) + 1)):
        return None
    return echo, _columns(data)


def _compiled_rows(raw: bytes, start: int = 0) -> np.ndarray | None:
    """The rows of ``raw[start:]`` as an M x 5 array by one ``um_parse_rows``
    call, or None where it declines (no rows among them)."""
    rows_bytes = np.frombuffer(raw, dtype=np.uint8, offset=start)  # no copy
    # one vectorised pass; bytes.count takes some 7 times as long
    rows = np.count_nonzero(rows_bytes == ord("\n"))
    if not rows:
        return None
    data = np.empty((rows, len(TRAJECTORY_COLUMNS)))
    parse = _kernel.load().um_parse_rows
    if parse(rows_bytes.ctypes.data, len(rows_bytes), data.ctypes.data, data.size) != rows:
        return None
    return data


def _read_preamble(path: Path, lines: list[str]) -> tuple[dict[str, Any] | None, int]:
    """The config echo of the comment lines and the 1-based number of the header."""
    echo: dict[str, Any] | None = None
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if not line.startswith("#"):
            if line.split(",") != list(TRAJECTORY_COLUMNS):
                raise ArtifactError(
                    f"{path}:{number}: header must be "
                    f"'{','.join(TRAJECTORY_COLUMNS)}', got '{line}'"
                )
            return echo, number
        body = line[1:].strip()
        if body.startswith("config:"):
            try:
                echo = json.loads(body[len("config:"):])
            except ValueError as exc:  # bad JSON, or an integer int() will not read
                raise ArtifactError(f"{path}:{number}: bad config echo: {exc}") from exc
            if not isinstance(echo, dict):
                raise ArtifactError(
                    f"{path}:{number}: bad config echo: expected a JSON object, got {echo!r}"
                )
    raise ArtifactError(f"{path}:1: missing header line")


def _parse_rows(path: Path, lines: list[str], header_number: int) -> np.ndarray:
    """The data rows after the header, line ``header_number``, as an M x 5
    array, each field read by ``float()``; raises the ArtifactError of the
    first malformed row, naming its line."""
    from array import array  # ~170 KB of resident memory that the compiled route never needs

    width = len(TRAJECTORY_COLUMNS)
    values = array("d")  # 8 bytes a value, not a Python float
    index = 0
    for number, line in enumerate(lines[header_number:], start=header_number + 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            raise ArtifactError(
                f"{path}:{number}: comment after the header (a data row turned comment?)"
            )
        parts = line.split(",")
        if len(parts) != width:
            raise ArtifactError(f"{path}:{number}: expected {width} fields, got {len(parts)}")
        try:
            row = list(map(float, parts))
        except ValueError as exc:
            raise ArtifactError(f"{path}:{number}: {exc}") from exc
        index += 1
        if row[0] != index:
            raise ArtifactError(
                f"{path}:{number}: series index must run 1..M, got {parts[0]}"
            )
        values.fromlist(row)
    if not index:
        raise ArtifactError(f"{path}: no data rows")
    return np.frombuffer(values).reshape(-1, width)


def spectrum_payload(
    record: SpectrumRecord,
    processed: np.ndarray,
    echo: dict[str, Any],
    omega_r: float,
) -> dict[str, Any]:
    """JSON payload for a readout spectrum; frequencies in units of omega_r."""
    peak = main_peak(record)
    return {
        "schema": SCHEMA_VERSION,
        "config": echo,
        "m": record.m,
        "dt": record.dt,
        "frequencies_over_omega_r": record.frequencies / omega_r,
        "coefficients_re": record.coefficients.real,
        "coefficients_im": record.coefficients.imag,
        "power": record.power,
        "main_peak": {
            "index": peak.index,
            "frequency_over_omega_r": (
                None if peak.frequency is None else peak.frequency / omega_r
            ),
            "power": peak.power,
            "significant": peak.significant,
        },
        "noise_floor": record.noise_floor,
        "wiener_weights": record.wiener_weights,
        "processed_readout": processed,
    }


def write_json(path: str | Path, payload: dict[str, Any]) -> None:
    _write_bytes(Path(path), _json_body(payload))


def report_payload(report: dict[str, Any], echo: dict[str, Any]) -> dict[str, Any]:
    """The report object that ``report`` prints and report.json holds: the
    schema, the resolved config ``echo``, then the fields of ``report``."""
    return {"schema": SCHEMA_VERSION, "config": echo, **report}


def write_report_json(path: str | Path, payload: dict[str, Any]) -> None:
    """Write report.json, ``report_payload``'s object, as ``write_json`` does;
    a writer of its own name, so a trace of the writers tells it apart."""
    write_json(path, payload)


def write_sweep_csv(
    path: str | Path,
    rows: list[dict[str, Any]],
    skipped: int,
    echo: dict[str, Any],
) -> None:
    lines = _comment_header(echo)
    lines.append(",".join(SWEEP_COLUMNS))
    for row in rows:
        lines.append(",".join(fmt(row[name]) if not isinstance(row[name], str) else row[name]
                              for name in SWEEP_COLUMNS))
    lines.append(f"# skipped_points: {skipped}")
    _write_bytes(Path(path), ("\n".join(lines) + "\n").encode())


GNUPLOT_TEMPLATE = """\
# gnuplot script for a trajectory emitted by unsharp-monitor
set datafile separator ','
set datafile commentschars '#'
set xlabel 't / T_R'
set ylabel 'population / readout'
set yrange [-0.5:1.5]
plot '{csv}' using 2:3 with lines lw 2 title '|c2|^2', \\
     '{csv}' using 2:4 with lines lc rgb 'gray' title 'readout G2', \\
     '{csv}' using 2:5 with lines dt 2 lw 2 title 'processed G2'
pause -1
"""


def write_gnuplot_script(path: str | Path, csv_name: str) -> None:
    _write_bytes(Path(path), GNUPLOT_TEMPLATE.format(csv=csv_name).encode())
