"""Flat-file artifacts: trajectory CSV, spectrum and report JSON, sweep CSV.

All files are UTF-8 with LF line endings.  Floats are emitted with Python's
shortest round-trip repr, so identical configurations and seeds produce
byte-identical artifacts.  Every file embeds the schema version and the
resolved run configuration (CSV files as leading comment lines).

Text I/O, not analysis, is most of the cost of a readout: one trajectory CSV
and its spectrum hold some 20k floats, and ``analyze`` first parses 10k.
So floats are formatted and parsed in bulk, never one numpy scalar at a
time:

- ``_float_texts`` formats a whole array in one call into the compiled
  library (``um_repr`` in ``_repr.c``), which writes ``float.__repr__``'s
  exact text for each element, the text ``fmt`` and ``json`` give a finite
  float, at about a tenth of its cost.  Without the library it calls
  ``float.__repr__`` once per element, which gives the same bytes.  An
  array that goes to two files, the processed readout, is formatted once
  per op as ``FloatTexts`` and both writers take its texts.
- ``read_trajectory_csv`` converts the data rows in blocks, one
  ``np.fromiter(map(float, texts))`` per block, so every field is read by
  ``float()`` itself, and checks field counts and the series index on whole
  columns.  Only when that fails does the per-line check run, to name the
  first bad line.

JSON goes through a small emitter, ``dump_json``, because
``json.dumps(..., indent=2)`` cannot use CPython's C encoder; its output must
equal ``json.dumps(json_safe(payload), indent=2) + "\\n"`` byte for byte,
which the tests check against that expression.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import math
from pathlib import Path
from typing import Any, NoReturn

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
    if isinstance(value, FloatTexts):
        value = value.values
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


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _python_texts(values: np.ndarray) -> list[str]:
    """``float.__repr__`` of each element of a 1-d array."""
    return list(map(float.__repr__, values.tolist()))


def _compiled_texts(values: np.ndarray) -> list[str]:
    """``_python_texts(values)``, written by one ``um_repr`` call."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 1:  # um_repr reads len(values) doubles from the pointer
        raise ValueError(f"expected a 1-d array, got shape {values.shape}")
    if not len(values):
        return []
    out = ctypes.create_string_buffer(_kernel.REPR_STRIDE * len(values))
    size = _REPR(values.ctypes.data, len(values), out, len(out))
    if size < 0:  # the capacity is right, so the library has no tables
        raise RuntimeError("um_repr wrote nothing: its power-of-5 tables are not installed")
    return ctypes.string_at(out, size).decode("ascii").split(",")


_LIBRARY = _kernel.load()
_REPR = None if _LIBRARY is None else _LIBRARY.um_repr
_texts = _python_texts if _REPR is None else _compiled_texts


def _float_texts(values: Any) -> list[str]:
    """The shortest round-trip repr of each element, formatted in bulk."""
    if isinstance(values, FloatTexts):
        return values.texts
    return _texts(np.asarray(values, dtype=float))


class FloatTexts:
    """A 1-d float array and its elements' texts, formatted once.

    Pass one in place of an array that goes to more than one file (the
    processed readout goes to the trajectory CSV and to ``spectrum.json``);
    every writer then takes these texts instead of formatting again.
    """

    __slots__ = ("values", "texts")

    def __init__(self, values: Any) -> None:
        self.values = np.asarray(values, dtype=float)
        self.texts = _float_texts(self.values)


_NON_FINITE_TEXTS = ("nan", "inf", "-inf")


def _json_block(brackets: str, items: list[str], newline: str) -> str:
    if not items:
        return brackets
    inner = newline + "  "
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _json_text(value: Any, newline: str) -> str:
    """``value`` as ``json.dumps(json_safe(value), indent=2)`` spells it, at the
    indentation that ``newline`` carries."""
    inner = newline + "  "
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError(f"JSON object keys must be str, got {list(value)!r}")
        items = [f"{json.dumps(key)}: {_json_text(item, inner)}" for key, item in value.items()]
        return _json_block("{}", items, newline)
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind == "f":
        value = FloatTexts(value)
    if isinstance(value, FloatTexts):
        items = value.texts
        if not np.isfinite(value.values).all():  # json_safe writes these as strings
            items = [f'"{text}"' if text in _NON_FINITE_TEXTS else text for text in items]
        return _json_block("[]", items, newline)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return _json_block("[]", [_json_text(item, inner) for item in value], newline)
    return json.dumps(json_safe(value))


def dump_json(payload: Any) -> str:
    """``json.dumps(json_safe(payload), indent=2) + "\\n"``, float arrays in bulk."""
    return _json_text(payload, "\n") + "\n"


def _comment_header(echo: dict[str, Any]) -> list[str]:
    config_json = json.dumps(json_safe(echo), sort_keys=True, separators=(",", ":"))
    return [f"# schema: {SCHEMA_VERSION}", f"# config: {config_json}"]


def write_trajectory_csv(
    path: str | Path,
    m: np.ndarray,
    t: np.ndarray,
    c2_sq: np.ndarray,
    g2: np.ndarray,
    g2_processed: np.ndarray | FloatTexts,
    echo: dict[str, Any],
) -> None:
    lines = _comment_header(echo)
    lines.append(",".join(TRAJECTORY_COLUMNS))
    index_texts = map(str, map(int, np.asarray(m).tolist()))
    # the column texts are freed once the rows are joined, before the file text
    lines.extend(map(",".join, zip(
        index_texts,
        _float_texts(t),
        _float_texts(c2_sq),
        _float_texts(g2),
        _float_texts(g2_processed),
    )))
    _write_text(Path(path), "\n".join(lines) + "\n")


def read_trajectory_csv(path: str | Path) -> tuple[dict[str, Any] | None, dict[str, np.ndarray]]:
    """Parse a trajectory CSV; returns (config echo, column arrays).

    Comment lines (``#``) may only precede the header; blank lines are
    skipped.  Raises ArtifactError naming the 1-based line number of the
    first offending line.
    """
    path = Path(path)
    try:
        raw_lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ArtifactError(f"cannot read {path}: {exc}") from exc
    echo, header_number = _read_preamble(path, raw_lines)
    rows = list(filter(str.strip, raw_lines[header_number:]))
    if not rows:
        raise ArtifactError(f"{path}: no data rows")
    data = _parse_rows(rows)
    if data is None or not np.array_equal(data[:, 0], np.arange(1, len(rows) + 1)):
        _raise_first_bad_row(path, raw_lines, header_number)
    columns = {name: data[:, i] for i, name in enumerate(TRAJECTORY_COLUMNS)}
    columns["m"] = columns["m"].astype(int)
    return echo, columns


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
            except json.JSONDecodeError as exc:
                raise ArtifactError(f"{path}:{number}: bad config echo: {exc}") from exc
            if not isinstance(echo, dict):
                raise ArtifactError(
                    f"{path}:{number}: bad config echo: expected a JSON object, got {echo!r}"
                )
    raise ArtifactError(f"{path}:1: missing header line")


# rows converted per fromiter call: bounds the field texts held at once
_BLOCK_ROWS = 256


def _parse_rows(rows: list[str]) -> np.ndarray | None:
    """The data rows as an M x 5 array, or None if a row is malformed.

    A row turned comment fails ``float()`` too.
    """
    width = len(TRAJECTORY_COLUMNS)
    if set(map(str.count, rows, itertools.repeat(","))) != {width - 1}:
        return None
    data = np.empty((len(rows), width))
    try:
        for start in range(0, len(rows), _BLOCK_ROWS):
            texts = ",".join(rows[start:start + _BLOCK_ROWS]).split(",")
            block = np.fromiter(map(float, texts), dtype=float, count=len(texts))
            data[start:start + _BLOCK_ROWS] = block.reshape(-1, width)
    except ValueError:
        return None
    return data


def _raise_first_bad_row(path: Path, lines: list[str], header_number: int) -> NoReturn:
    """Raise the ArtifactError of the first malformed data row, line by line."""
    index = 0
    for number, line in enumerate(lines[header_number:], start=header_number + 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            raise ArtifactError(
                f"{path}:{number}: comment after the header (a data row turned comment?)"
            )
        parts = line.split(",")
        if len(parts) != len(TRAJECTORY_COLUMNS):
            raise ArtifactError(
                f"{path}:{number}: expected {len(TRAJECTORY_COLUMNS)} fields, got {len(parts)}"
            )
        try:
            values = [float(part) for part in parts]
        except ValueError as exc:
            raise ArtifactError(f"{path}:{number}: {exc}") from exc
        index += 1
        if values[0] != index:
            raise ArtifactError(
                f"{path}:{number}: series index must run 1..M, got {parts[0]}"
            )
    # unreachable while these checks are the ones _parse_rows makes in bulk
    raise ArtifactError(f"{path}: malformed data rows")


def spectrum_payload(
    record: SpectrumRecord,
    processed: np.ndarray | FloatTexts,
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
    _write_text(Path(path), dump_json(payload))


def write_report_json(path: str | Path, report: dict[str, Any], echo: dict[str, Any]) -> None:
    payload = {"schema": SCHEMA_VERSION, "config": echo}
    payload.update(report)
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
    _write_text(Path(path), "\n".join(lines) + "\n")


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
    _write_text(Path(path), GNUPLOT_TEMPLATE.format(csv=csv_name))
