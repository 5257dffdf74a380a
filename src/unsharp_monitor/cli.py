"""Command-line front end: simulate, sweep, analyze, report."""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
import warnings
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from . import artifacts
from .artifacts import ArtifactError
from .config import (
    MAX_REPLICATES,
    PRESETS,
    SWEEP_AXES,
    SWEEP_BASE_KEYS,
    ConfigError,
    RunConfig,
    bool_field,
    build_report,
    check_frequency_axis,
    check_keys,
    derive_seed,
    float_field,
    int_field,
    load_run_config,
    read_json_object,
    run_config_from_dict,
    seed_field,
)
from .povm import ParameterError, StateError
from .series import MAX_SERIES_LENGTH
from .spectral import (
    MIN_SAMPLES,
    AnalysisError,
    angular_frequency,
    process_readout,
    process_readouts,
    row_correlations,
)
from .trajectory import simulate_replicates, simulate_trajectory


def _out_dir(target: str) -> Path:
    """The output directory ``target``, made with its parents if need be."""
    out_dir = Path(target)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, say
        message = f"cannot make directory {out_dir}: {exc.strerror or exc}"
        raise ConfigError("out_dir", message) from exc
    return out_dir


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = load_run_config(args.config, args.preset, {"seed": args.seed})
    out_dir = _out_dir(args.out_dir if args.out_dir is not None else config.out_dir or ".")
    record = simulate_trajectory(config.trajectory)
    spectrum, processed = process_readout(
        record.g2, config.trajectory.delta_t, config.wiener, config.truncation
    )
    echo = config.resolved()
    omega_r = config.trajectory.spec.omega_r
    payload = artifacts.spectrum_payload(spectrum, processed, echo, omega_r)
    report = build_report(config)

    csv_path, plot_path = out_dir / "trajectory.csv", out_dir / "plot.gp"
    artifacts.check_targets([
        csv_path, out_dir / "spectrum.json", out_dir / "report.json",
        *([plot_path] if args.gnuplot else []),
    ])
    artifacts.write_trajectory_csv(
        csv_path, record.m, record.t / config.trajectory.spec.t_r,
        record.c2_sq, record.g2, processed, echo,
    )
    artifacts.write_json(out_dir / "spectrum.json", payload)
    artifacts.write_report_json(out_dir / "report.json", artifacts.report_payload(report, echo))
    if args.gnuplot:
        artifacts.write_gnuplot_script(plot_path, csv_path.name)
    print(
        f"wrote {csv_path} ({len(record.m)} series), spectrum.json, report.json"
        f" [f={report['f']:.4g}, regime={report['regime']}]"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    config = load_run_config(args.config, args.preset, {"seed": args.seed})
    payload = artifacts.report_payload(build_report(config), config.resolved())
    target = args.out_dir if args.out_dir is not None else config.out_dir
    if target is not None:
        artifacts.write_report_json(_out_dir(target) / "report.json", payload)
    sys.stdout.write(artifacts.dump_json(payload))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    echo, columns = artifacts.read_trajectory_csv(args.csv)
    rows = len(columns["g2"])
    if rows < MIN_SAMPLES:
        raise ArtifactError(
            f"{args.csv}: need at least {MIN_SAMPLES} data rows for a spectrum, got {rows}"
        )
    finite = np.isfinite(columns["g2"])
    if not finite.all():
        # one non-finite G2 would turn the whole processed readout into NaN
        first = int(np.argmin(finite))
        raise ArtifactError(
            f"{args.csv}: g2 must be finite, got {float(columns['g2'][first])!r}"
            f" in series m = {columns['m'][first]}"
        )
    echo = echo or {}
    t_r = float_field(echo, "t_r", 1.0, positive=True)
    if "n_per_series" in echo and "tau" in echo:
        n = int_field(echo, "n_per_series", 0)
        if not 1 <= n <= MAX_SERIES_LENGTH:
            raise ConfigError("n_per_series", f"must lie in [1, {MAX_SERIES_LENGTH}], got {n}")
        dt = n * float_field(echo, "tau", positive=True)
        spacing = "tau"
    else:
        dt = float(columns["t_over_TR"][0] / columns["m"][0]) * t_r
        spacing = "t_over_TR"
    wiener = bool_field(echo, "wiener")
    truncation = bool_field(echo, "truncation")
    check_frequency_axis(len(columns["g2"]), dt, t_r, spacing)
    spectrum, processed = process_readout(columns["g2"], dt, wiener, truncation)
    out_dir = _out_dir(args.out_dir)
    payload = artifacts.spectrum_payload(spectrum, processed, echo, 2.0 * math.pi / t_r)
    artifacts.check_targets([out_dir / "spectrum.json", out_dir / "processed.csv"])
    artifacts.write_json(out_dir / "spectrum.json", payload)
    artifacts.write_trajectory_csv(
        out_dir / "processed.csv",
        columns["m"],
        columns["t_over_TR"],
        columns["c2_sq"],
        columns["g2"],
        processed,
        echo,
    )
    peak = payload["main_peak"]
    status = (
        f"main peak at bin {peak['index']}"
        if peak["significant"]
        else "no significant peak"
    )
    print(f"wrote spectrum.json, processed.csv [{status}]")
    return 0


def _spec_object(spec: dict[str, Any], name: str) -> dict[str, Any]:
    """A copy of the sweep spec's object entry ``name``; absent means empty."""
    value = spec.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(name, f"must be a JSON object, got {value!r}")
    return dict(value)


def _sweep_axes(args: argparse.Namespace, spec: dict[str, Any]) -> dict[str, list]:
    grid = _spec_object(spec, "grid")
    check_keys(grid, SWEEP_AXES, "grid.")
    if args.p0:
        grid["p0"] = _parse_floats(args.p0, "p0")
    if args.dp:
        grid["dp"] = _parse_floats(args.dp, "dp")
    if args.tau:
        grid["tau"] = _parse_floats(args.tau, "tau")
    if args.n:
        counts = _parse_floats(args.n, "n")
        if not all(v.is_integer() for v in counts):
            raise ConfigError("n", f"expected whole numbers, got {args.n!r}")
        grid["n_per_series"] = [int(v) for v in counts]
    for axis in SWEEP_AXES:
        if axis not in grid:
            raise ConfigError(axis, "sweep axis missing (flag or grid entry required)")
        if not isinstance(grid[axis], list) or not grid[axis]:
            raise ConfigError(axis, f"must be a non-empty list of values, got {grid[axis]!r}")
    return grid


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(what, f"expected comma-separated numbers, got {text!r}") from exc


class _SimulatedPoint(NamedTuple):
    """A grid point's config and report, and the replicates x m_series
    arrays of its seeds, the first of which is ``seed``."""

    config: RunConfig
    report: dict[str, Any]
    seed: int
    c2_sq: np.ndarray
    g2: np.ndarray


def _sweep_point(
    base: dict[str, Any],
    point: dict[str, Any],
    index: int,
    base_seed: int,
    replicates: int,
) -> _SimulatedPoint:
    config = run_config_from_dict({**base, **point})
    report = build_report(config)
    seeds = [derive_seed(base_seed, index, replicate) for replicate in range(replicates)]
    c2_sq, g2 = simulate_replicates(config.trajectory, seeds)
    return _SimulatedPoint(config, report, seeds[0], c2_sq, g2)


def _sweep_rows(
    points: list[_SimulatedPoint], base_seed: int, replicates: int
) -> list[dict[str, Any]]:
    """The sweep.csv rows of the simulated ``points``, read out in one batch.

    The points share the base (m_series, t_r and the readout switches),
    and the readout of a row does not depend on the rows beside it, so one
    pipeline call runs every replicate of every point, and one correlation
    call each the raw and the processed readout; only the frequency axis,
    which the peak index is read on, differs from point to point.  Each
    median is taken over a point's replicates.
    """
    if not points:
        return []
    shared = points[0].config
    c2_sq = np.concatenate([point.c2_sq for point in points])
    g2 = np.concatenate([point.g2 for point in points])
    # the spectra do not depend on dt; each point's own dt is used below
    spectra, processed = process_readouts(g2, 1.0, shared.wiener, shared.truncation)
    index = np.array([spectrum.main_peak_index or 0 for spectrum in spectra])
    dt = np.repeat([point.config.trajectory.delta_t for point in points], replicates)
    m = g2.shape[1]
    frequency = angular_frequency(index, m, dt)  # the spectrum's own axis
    omega_r = shared.trajectory.spec.omega_r
    errors = np.where(index > 0, np.abs(frequency / omega_r - 1.0), math.nan)
    significant = np.array([spectrum.peak_significant for spectrum in spectra])

    def medians(values: np.ndarray) -> list[float]:
        return np.median(values.reshape(len(points), replicates), axis=1).tolist()

    rows = []
    for (config, report, seed, _, _), error, count, raw, kept in zip(
        points,
        medians(errors),
        significant.reshape(len(points), replicates).sum(axis=1).tolist(),
        medians(row_correlations(g2, c2_sq)),
        medians(row_correlations(processed, c2_sq)),
    ):
        rows.append({
            "p0": config.trajectory.params.p0,
            "dp": config.trajectory.params.dp,
            "tau": config.trajectory.tau,
            "n_per_series": config.trajectory.n_per_series,
            "m_series": config.trajectory.m_series,
            "seed": seed if replicates == 1 else base_seed,
            "f": report["f"],
            "regime": report["regime"],
            "peak_freq_error": error,
            "peak_significant": count * 2 >= replicates,
            "corr_raw": raw,
            "corr_processed": kept,
        })
    return rows


# A sweep reads out the points it has simulated in one batch as soon as
# they hold this many samples (rows x m_series), and the rest at the end.
# A batch holds several complex arrays of 16 bytes a sample at once, so
# this bounds what a large sweep holds; a small one is a single batch.
_READOUT_SAMPLES = 1 << 16

# a valid point (fig3's) to check a sweep's base against before any point runs
_STAND_IN_POINT = {axis: PRESETS["fig3"][axis] for axis in SWEEP_AXES}


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = read_json_object(args.config) if args.config is not None else {}
    check_keys(spec, ("grid", "base", "seeds_per_point"))
    grid = _sweep_axes(args, spec)
    base = _spec_object(spec, "base")
    check_keys(base, SWEEP_BASE_KEYS, "base.")
    if args.m is not None:
        base["m_series"] = args.m
    base.setdefault("m_series", 200)
    if args.seed is not None:
        base["seed"] = args.seed
    base_seed = seed_field(base)
    base.pop("seed", None)
    if args.seeds_per_point is not None:
        spec["seeds_per_point"] = args.seeds_per_point
    replicates = int_field(spec, "seeds_per_point", 1)
    if not 1 <= replicates <= MAX_REPLICATES:
        raise ConfigError(
            "seeds_per_point", f"must lie in [1, {MAX_REPLICATES}], got {replicates}"
        )

    # a bad base value is wrong for every point: stop on it here, so that a
    # point is skipped below only for its own axis values
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_config_from_dict({**base, **_STAND_IN_POINT})

    points = [
        dict(zip(SWEEP_AXES, values))
        for values in itertools.product(*(grid[axis] for axis in SWEEP_AXES))
    ]

    rows, simulated = [], []
    for index, point in enumerate(points):
        try:
            simulated.append(_sweep_point(base, point, index, base_seed, replicates))
        except (ConfigError, ParameterError, StateError) as exc:
            print(f"warning: skipping grid point {index} {point}: {exc}", file=sys.stderr)
            continue
        if len(simulated) * simulated[-1].g2.size >= _READOUT_SAMPLES:
            rows += _sweep_rows(simulated, base_seed, replicates)
            simulated = []
    rows += _sweep_rows(simulated, base_seed, replicates)
    skipped = len(points) - len(rows)
    out_dir = _out_dir(args.out_dir)
    echo = {"grid": grid, "base": base, "seed": base_seed, "seeds_per_point": replicates}
    artifacts.write_sweep_csv(out_dir / "sweep.csv", rows, skipped, echo)
    print(f"wrote sweep.csv ({len(rows)} rows, {skipped} skipped)")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call; ``parse_args`` leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="unsharp-monitor",
        description=(
            "Monitor Rabi oscillations of a single two-level system through "
            "sequences of unsharp measurements."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON run configuration file")
        p.add_argument("--preset", help="built-in preset: fig1, fig2 or fig3")
        p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
        p.add_argument("--out-dir", default=None, help="directory for emitted files")

    simulate = sub.add_parser("simulate", help="run one trajectory and emit artifacts")
    add_config_flags(simulate)
    simulate.add_argument(
        "--gnuplot", action="store_true", help="also write a ready-made gnuplot script"
    )
    simulate.set_defaults(func=_cmd_simulate)

    report = sub.add_parser("report", help="derived quantities without simulating")
    add_config_flags(report)
    report.set_defaults(func=_cmd_report)

    analyze = sub.add_parser("analyze", help="re-run noise reduction on a trajectory CSV")
    analyze.add_argument("csv", help="trajectory CSV emitted by simulate")
    analyze.add_argument("--out-dir", default=".")
    analyze.set_defaults(func=_cmd_analyze)

    sweep = sub.add_parser("sweep", help="map regime metrics over a parameter grid")
    sweep.add_argument("--config", help="JSON sweep spec: {grid, base, seeds_per_point}")
    sweep.add_argument("--p0", help="comma-separated p0 values")
    sweep.add_argument("--dp", help="comma-separated dp values")
    sweep.add_argument("--tau", help="comma-separated tau values (units of T_R)")
    sweep.add_argument("--n", help="comma-separated measurements per series")
    sweep.add_argument("--m", type=int, default=None, help="series per trajectory (default 200)")
    sweep.add_argument("--seeds-per-point", type=int, default=None)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--out-dir", default=".")
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ArtifactError, AnalysisError, ParameterError, StateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
