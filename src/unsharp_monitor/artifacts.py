"""Flat-file artifacts: trajectory CSV, spectrum and report JSON, sweep CSV.

All files are UTF-8 with LF line endings.  Floats are emitted with Python's
shortest round-trip repr, so identical configurations and seeds produce
byte-identical artifacts.  Every file embeds the schema version and the
resolved run configuration (CSV files as leading comment lines).

Writing, not analysis, is most of the cost of a readout: one trajectory CSV
and its spectrum hold some 20k floats.  Each float array is therefore
formatted once, in bulk (``_float_texts``: one ``tolist`` and one
``float.__repr__`` per element, the exact text ``fmt`` and ``json`` give a
finite float), instead of one numpy scalar at a time.  JSON goes through a
small emitter, ``dump_json``, because ``json.dumps(..., indent=2)`` cannot use
CPython's C encoder; its output must equal
``json.dumps(json_safe(payload), indent=2) + "\\n"`` byte for byte, which the
tests check against that expression.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

import numpy as np

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


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _float_texts(values: Any) -> list[str]:
    """The shortest round-trip repr of each element, formatted in bulk."""
    return list(map(float.__repr__, np.asarray(values, dtype=float).tolist()))


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
        items = _float_texts(value)
        if not np.isfinite(value).all():  # json_safe writes these as strings
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
    g2_processed: np.ndarray,
    echo: dict[str, Any],
) -> None:
    lines = _comment_header(echo)
    lines.append(",".join(TRAJECTORY_COLUMNS))
    index_texts = map(str, map(int, np.asarray(m).tolist()))
    float_columns = map(_float_texts, (t, c2_sq, g2, g2_processed))
    lines.extend(map(",".join, zip(index_texts, *float_columns)))
    _write_text(Path(path), "\n".join(lines) + "\n")


def read_trajectory_csv(path: str | Path) -> tuple[dict[str, Any] | None, dict[str, np.ndarray]]:
    """Parse a trajectory CSV; returns (config echo, column arrays).

    Raises ArtifactError naming the 1-based line number of the first
    offending line.
    """
    path = Path(path)
    try:
        raw_lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ArtifactError(f"cannot read {path}: {exc}") from exc
    echo: dict[str, Any] | None = None
    header_seen = False
    rows: list[list[float]] = []
    for number, line in enumerate(raw_lines, start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
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
            continue
        if not header_seen:
            if line.split(",") != list(TRAJECTORY_COLUMNS):
                raise ArtifactError(
                    f"{path}:{number}: header must be "
                    f"'{','.join(TRAJECTORY_COLUMNS)}', got '{line}'"
                )
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != len(TRAJECTORY_COLUMNS):
            raise ArtifactError(
                f"{path}:{number}: expected {len(TRAJECTORY_COLUMNS)} fields, got {len(parts)}"
            )
        try:
            row = [float(part) for part in parts]
        except ValueError as exc:
            raise ArtifactError(f"{path}:{number}: {exc}") from exc
        if row[0] != len(rows) + 1:
            raise ArtifactError(
                f"{path}:{number}: series index must run 1..M, got {parts[0]}"
            )
        rows.append(row)
    if not header_seen:
        raise ArtifactError(f"{path}:1: missing header line")
    if not rows:
        raise ArtifactError(f"{path}: no data rows")
    data = np.array(rows, dtype=float)
    columns = {name: data[:, i] for i, name in enumerate(TRAJECTORY_COLUMNS)}
    columns["m"] = columns["m"].astype(int)
    return echo, columns


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
