"""Run configuration: file schema, presets, validation, seed derivation."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from .povm import ParameterError, PovmParams, StateError, StateVector, ensure_normalized
from .rabi import HamiltonianSpec
from .spectral import angular_frequency, classify_regime
from .trajectory import TrajectoryConfig

SCHEMA_VERSION = "unsharp-monitor/1"
DEFAULT_SEED = 1


class ConfigError(ValueError):
    """Invalid run configuration; ``field`` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field '{field_name}': {message}")
        self.field = field_name


# The three regime presets share the published parameter point
# (p0 = 0.5, tau = 0.002 Rabi periods, 25 measurements per series) and
# differ in the split dp.  Run lengths are implementation choices; fig2 is
# short because even its weak measurements diffuse the oscillation phase by
# order one within a few tens of Rabi periods, after which the recorded
# populations no longer follow a single phase-aligned sinusoid.
PRESETS: dict[str, dict[str, Any]] = {
    "fig1": {"p0": 0.5, "dp": -0.3, "tau": 0.002, "n_per_series": 25, "m_series": 2000},
    "fig2": {"p0": 0.5, "dp": 0.01, "tau": 0.002, "n_per_series": 25, "m_series": 60},
    "fig3": {"p0": 0.5, "dp": 0.08, "tau": 0.002, "n_per_series": 25, "m_series": 2000},
}

# The most series one run may record: 500 times the longest preset, and
# small enough that a trajectory's arrays (16 bytes a series) always fit.
MAX_M_SERIES = 10**6

_ALLOWED_KEYS = {
    "p0", "dp", "p1", "p2", "tau", "n_per_series", "m_series", "initial_state",
    "seed", "wiener", "truncation", "f_lo", "f_hi", "t_r", "out_dir",
}

# A sweep's grid sets these four per point.  Its base may set every other
# run-config key except p1/p2, which the grid's (p0, dp) always replace,
# and out_dir: a sweep writes only to its --out-dir.
SWEEP_AXES = ("p0", "dp", "tau", "n_per_series")
SWEEP_BASE_KEYS = _ALLOWED_KEYS - {*SWEEP_AXES, "p1", "p2", "out_dir"}


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of a trajectory config plus analysis settings."""

    trajectory: TrajectoryConfig
    wiener: bool = True
    truncation: bool = True
    f_lo: float = 0.3
    f_hi: float = 5.0
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.f_lo <= self.f_hi:
            raise ConfigError("f_lo", f"need 0 <= f_lo <= f_hi, got ({self.f_lo}, {self.f_hi})")

    def resolved(self) -> dict[str, Any]:
        """Full configuration echo embedded in every emitted artifact.

        The output directory is deliberately excluded: paths are volatile,
        so artifacts written to any directory compare byte-identical.
        """
        t = self.trajectory
        state = t.initial_state
        resolved = {
            "p1": t.params.p1,
            "p2": t.params.p2,
            "p0": t.params.p0,
            "dp": t.params.dp,
            "tau": t.tau,
            "n_per_series": t.n_per_series,
            "m_series": t.m_series,
            "t_r": t.spec.t_r,
            "initial_state": [
                [state.c1.real, state.c1.imag],
                [state.c2.real, state.c2.imag],
            ],
            "seed": t.seed,
            "wiener": self.wiener,
            "truncation": self.truncation,
            "f_lo": self.f_lo,
            "f_hi": self.f_hi,
        }
        # canonical (sorted) key order so artifacts compare byte for byte
        # against re-analysis runs that read the echo back from a file
        return dict(sorted(resolved.items()))


def _is_finite_number(value: Any) -> bool:
    """An int or float (not a bool) that converts to a finite float."""
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    # the bound also rejects nan and ints too large for a float
    return is_number and abs(value) <= sys.float_info.max


def _parse_amplitude(value: Any, field_name: str) -> complex:
    """A finite number or a [re, im] pair of them, read as ``float_field`` reads one."""
    parts = value if isinstance(value, (list, tuple)) and len(value) == 2 else (value, 0.0)
    if not all(map(_is_finite_number, parts)):
        raise ConfigError(
            field_name, f"expected a finite number or a [re, im] pair of them, got {value!r}"
        )
    return complex(float(parts[0]), float(parts[1]))


def _parse_initial_state(value: Any) -> StateVector:
    if not isinstance(value, dict) or set(value) != {"c1", "c2"}:
        raise ConfigError("initial_state", 'expected {"c1": ..., "c2": ...}')
    c1 = _parse_amplitude(value["c1"], "initial_state.c1")
    c2 = _parse_amplitude(value["c2"], "initial_state.c2")
    try:
        state = StateVector(c1, c2)
        ensure_normalized(state, "initial state")
    except StateError as exc:
        raise ConfigError("initial_state", str(exc)) from exc
    return state


def _parse_params(data: dict[str, Any]) -> PovmParams:
    has_p12 = "p1" in data or "p2" in data
    has_p0dp = "p0" in data or "dp" in data
    if has_p12 and has_p0dp:
        raise ConfigError("p0", "give either (p1, p2) or (p0, dp), not both")
    try:
        if has_p12:
            return PovmParams(float_field(data, "p1"), float_field(data, "p2"))
        return PovmParams.from_p0_dp(float_field(data, "p0"), float_field(data, "dp"))
    except ParameterError as exc:
        raise ConfigError("p1/p2" if has_p12 else "p0/dp", str(exc)) from exc


def check_keys(data: dict[str, Any], allowed: Iterable[str], prefix: str = "") -> None:
    """Reject the first key of ``data``, in sorted order, that ``allowed`` lacks."""
    unknown = sorted(set(data).difference(allowed))
    if unknown:
        raise ConfigError(
            prefix + unknown[0], f"unknown key (allowed: {', '.join(sorted(allowed))})"
        )


def bool_field(data: dict[str, Any], name: str) -> bool:
    """A true/false switch that defaults to true; only a JSON bool is accepted."""
    value = data.get(name, True)
    if not isinstance(value, bool):
        raise ConfigError(name, f"must be true or false, got {value!r}")
    return value


def int_field(data: dict[str, Any], name: str, default: int) -> int:
    """An integer entry; integral floats such as 25.0 pass, bools and 25.9 do not."""
    value = data.get(name, default)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if type(value) is not int:
        raise ConfigError(name, f"must be an integer, got {value!r}")
    return value


def seed_field(data: dict[str, Any]) -> int:
    """The RNG seed, an integer in [0, 2**64); defaults to DEFAULT_SEED."""
    seed = int_field(data, "seed", DEFAULT_SEED)
    if not 0 <= seed < 2**64:
        raise ConfigError("seed", f"must lie in [0, 2**64), got {seed!r}")
    return seed


def float_field(
    data: dict[str, Any], name: str, default: float | None = None, *, positive: bool = False
) -> float:
    """A finite number (int or float, not a bool), above 0 if ``positive``.

    Without a default the entry is required.
    """
    if name not in data:
        if default is None:
            raise ConfigError(name, "missing")
        return default
    value = data[name]
    if not _is_finite_number(value):
        raise ConfigError(name, f"must be a finite number, got {value!r}")
    if positive and value <= 0:
        raise ConfigError(name, f"must be > 0, got {value!r}")
    return float(value)


def check_frequency_axis(m: int, dt: float, t_r: float, spacing: str = "tau") -> None:
    """Reject a readout whose frequency axis w_l = 2 pi l / (m dt), l < m,
    or whose w_l / omega_r, omega_r = 2 pi / t_r, is not finite.

    ``spacing`` names the field ``dt`` comes from.  The top bin is computed
    by ``spectral``'s ``angular_frequency``, and both quotients grow with l, so
    the check holds exactly when every value written does.
    """
    omega_r = 2.0 * math.pi / t_r
    top = angular_frequency(m - 1, m, dt) if 0.0 < dt and m * dt < math.inf else math.inf
    if omega_r < math.inf and not top < math.inf:
        raise ConfigError(
            spacing, f"M = {m} samples at dt = {dt!r} give no finite frequency axis 2 pi l / (M dt)"
        )
    if not (omega_r < math.inf and top / omega_r < math.inf):  # 0 / inf is nan
        raise ConfigError(
            "t_r",
            f"t_r = {t_r!r} leaves no finite frequency in units of omega_r = 2 pi / t_r"
            f" at M = {m}, dt = {dt!r}",
        )


def run_config_from_dict(data: dict[str, Any]) -> RunConfig:
    """Build and validate a RunConfig from a plain dict (the file schema)."""
    check_keys(data, _ALLOWED_KEYS)
    params = _parse_params(data)
    if 3.0 * params.dp**2 == 0.0:  # also |dp| so small that dp**2 underflows
        raise ConfigError(
            "dp", f"dp = {params.dp!r} carries no information; the readout is undefined"
        )

    spec = HamiltonianSpec(t_r=float_field(data, "t_r", 1.0, positive=True))

    state_raw = data.get("initial_state")
    initial_state = StateVector(1.0, 0.0) if state_raw is None else _parse_initial_state(state_raw)

    tau = float_field(data, "tau", positive=True)
    m_series = int_field(data, "m_series", 0)
    if m_series < 4:
        raise ConfigError("m_series", f"must be >= 4 (spectral analysis needs it), got {m_series}")
    if m_series > MAX_M_SERIES:
        raise ConfigError("m_series", f"must be <= {MAX_M_SERIES}, got {m_series}")

    try:
        trajectory = TrajectoryConfig(
            params=params,
            tau=tau,
            n_per_series=int_field(data, "n_per_series", 0),
            m_series=m_series,
            initial_state=initial_state,
            spec=spec,
            seed=seed_field(data),
        )
    except ParameterError as exc:
        raise ConfigError("n_per_series", str(exc)) from exc
    check_frequency_axis(m_series, trajectory.delta_t, spec.t_r)

    out_dir = data.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("out_dir", f"must be a path string or null, got {out_dir!r}")
    return RunConfig(
        trajectory=trajectory,
        wiener=bool_field(data, "wiener"),
        truncation=bool_field(data, "truncation"),
        f_lo=float_field(data, "f_lo", 0.3),
        f_hi=float_field(data, "f_hi", 5.0),
        out_dir=out_dir,
    )


def read_json_object(path: str | Path) -> dict[str, Any]:
    """The top-level JSON object of a config or sweep-spec file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError("config", f"file not found: {path}") from exc
    except OSError as exc:  # a directory, say
        raise ConfigError("config", f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError("config", f"{path} is not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # bad JSON, or an integer of more digits than int() reads
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config", "top-level JSON value must be an object")
    return data


def load_run_config(
    path: str | Path | None = None,
    preset: str | None = None,
    overrides: dict[str, Any] | None = None,
) -> RunConfig:
    """Load a config file or preset and apply flag overrides (flags win)."""
    if (path is None) == (preset is None):
        raise ConfigError("config", "give exactly one of a config file or a preset")
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError("preset", f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        data = dict(PRESETS[preset])
    else:
        data = read_json_object(path)
    for key, value in (overrides or {}).items():
        if value is not None:
            data[key] = value
    return run_config_from_dict(data)


def build_report(config: RunConfig) -> dict[str, Any]:
    """Derived quantities of a run: parameters, time scales, bound, regime."""
    t = config.trajectory
    regime = t.regime
    return {
        "p1": t.params.p1,
        "p2": t.params.p2,
        "p0": t.params.p0,
        "dp": t.params.dp,
        "T_lr": regime.t_lr,
        "f": regime.f,
        "n_min": regime.n_min,
        "nbound_rhs": regime.nbound_rhs,
        "nbound_ratio": regime.nbound_ratio,
        "regime": classify_regime(regime.f, config.f_lo, config.f_hi),
        "seed": t.seed,
    }


_MASK64 = (1 << 64) - 1
# derive_seed packs the replicate number into the low 20 bits of its hash input
MAX_REPLICATES = 1 << 20


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(base_seed: int, index: int, replicate: int = 0) -> int:
    """Per-point seed for sweeps: base_seed XOR a 64-bit hash of the index.

    Distinct (index, replicate) pairs give independent, reproducible
    streams regardless of execution order.
    """
    if replicate < 0 or replicate >= MAX_REPLICATES:
        raise ParameterError(f"replicate = {replicate} must lie in [0, 2^20)")
    return (base_seed ^ _splitmix64(((index << 20) | replicate) & _MASK64)) & _MASK64
