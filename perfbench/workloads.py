"""Workload definitions: the CLI argv of each op, seeded inputs, output checks.

Three closed-loop, single-client workloads drive ``unsharp_monitor.cli.main``
in-process, one op after another.  Every random choice (per-op seeds, the
generated readout CSVs) comes from the workload seed given on the command
line; the program receives only the generated argv and files.

``simulate-presets``  alternates ``simulate --preset fig1`` / ``fig3``, the
                      published examples at 50k measurements per op; the
                      trajectory step kernel dominates.
``sweep-regimes``     one 3 x 2 grid with 8 replicates per point: 48 short
                      trajectories and 144k measurements per op, spanning
                      all three regimes; the replicate traffic a batched
                      engine targets, with per-trajectory fixed costs visible
                      at n = 5.
``analyze-readout``   ``analyze`` on 2000-row trajectory CSVs that the
                      program's ``simulate`` writes at set-up (fig1 jump,
                      fig3 intermediate, Rabi-regime shot noise); readout
                      pipeline and artifact read/write only, no trajectory
                      work: the bypass workload for a kernel change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PRESET_SHAPE = {"n": 25, "m": 2000}  # fig1 / fig3: 25 x 2000 = 50k measurements
PRESET_REGIME = {"fig1": "quantum_jump", "fig3": "intermediate"}

SWEEP_DP = (-0.3, 0.08, 0.01)
SWEEP_N = (5, 25)
SWEEP_M = 200
SWEEP_REPLICATES = 8
# argparse reads a bare "-0.3,..." as a flag, so the negative axis goes
# after "=" in one token.
SWEEP_ARGV = [
    "sweep", "--p0", "0.5", "--dp=" + ",".join(map(str, SWEEP_DP)),
    "--tau", "0.002", "--n", ",".join(map(str, SWEEP_N)),
    "--m", str(SWEEP_M), "--seeds-per-point", str(SWEEP_REPLICATES),
]

ANALYZE_ROWS = 2000
ANALYZE_VARIANTS = 4  # files per readout shape, so one odd draw cannot dominate a run
READOUT_SHAPES = ("jump", "intermediate", "noise")
PRESET_OF_SHAPE = {"jump": "fig1", "intermediate": "fig3"}
# Rabi regime at the presets' shape: p1 = 0, p2 = 2e-5
RABI_CONFIG = {"p0": 1e-5, "dp": 2e-5, "tau": 0.002, "n_per_series": 25, "m_series": ANALYZE_ROWS}

# relative tolerance for float comparisons that are not exact by construction
FLOAT_RTOL = 1e-9
# populations are renormalized after every measurement: [0, 1] up to rounding
POPULATION_SLACK = 1e-12


def op_seed(seed: int, index: int) -> int:
    """Seed of op ``index`` in a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Op:
    """One CLI invocation plus what its outputs must look like."""

    argv: list[str]
    kind: str  # "simulate", "sweep" or "analyze"
    seed: int | None = None
    preset: str | None = None
    source: Path | None = None  # analyze input


class CheckError(Exception):
    """An op's outputs are missing, malformed or inconsistent."""


# ---------------------------------------------------------------- inputs


def _cli(um, argv: list[str]) -> None:
    """Run one CLI op for set-up, its output and warnings swallowed."""
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")
        code = um.cli.main(argv)
    if code != 0:
        raise SystemExit(f"error: set-up op {argv} exited with {code}")


def _readout_csv(um, shape: str, seed: int, directory: Path, rabi_config: Path) -> Path:
    """Have the program write one 25 x 2000 trajectory CSV of ``shape``.

    ``jump`` and ``intermediate`` are what ``simulate --preset fig1`` and
    ``fig3`` emit.  ``noise`` is a Rabi-regime run (f ~ 600): an undisturbed
    oscillation, measured so weakly that a record holds about one "+"
    outcome, and often none, which the readout cannot analyze.  Its record
    is therefore replaced by the shot noise conditioned on exactly two
    outcomes, whose power spectrum 2 + 2 cos(...) has no significant peak
    and a cost that does not depend on the seed.
    """
    out_dir = directory / f"{shape}-{seed}"
    source = ["--preset", PRESET_OF_SHAPE[shape]] if shape in PRESET_OF_SHAPE else \
        ["--config", str(rabi_config)]
    _cli(um, ["simulate", *source, "--seed", str(seed), "--out-dir", str(out_dir)])
    path = out_dir / "trajectory.csv"
    if shape == "noise":
        echo, columns = um.artifacts.read_trajectory_csv(path)
        clicks = np.zeros(len(columns["m"]))
        clicks[np.random.default_rng(seed).choice(len(clicks), size=2, replace=False)] = 1.0
        g2 = (clicks / echo["n_per_series"] - echo["p1"]) / echo["dp"]
        um.artifacts.write_trajectory_csv(
            path, columns["m"], columns["t_over_TR"], columns["c2_sq"], g2, g2, echo
        )
    return path


def write_readout_inputs(um, directory: Path, seed: int, variants: int = ANALYZE_VARIANTS) -> list[Path]:
    """``variants`` CSVs per readout shape, made by the program at set-up;
    returns them interleaved by shape."""
    directory.mkdir(parents=True, exist_ok=True)
    rabi_config = directory / "rabi.json"
    rabi_config.write_text(json.dumps(RABI_CONFIG), encoding="utf-8")
    return [
        _readout_csv(um, shape, op_seed(seed, variant), directory, rabi_config)
        for variant in range(variants)
        for shape in READOUT_SHAPES
    ]


# ---------------------------------------------------------------- ops


def make_op(workload: str, seed: int, index: int, out_dir: Path, inputs: list[Path]) -> Op:
    """Op ``index`` of a workload run with workload seed ``seed``."""
    if workload == "simulate-presets":
        preset = ("fig1", "fig3")[index % 2]
        s = op_seed(seed, index)
        argv = ["simulate", "--preset", preset, "--seed", str(s), "--out-dir", str(out_dir)]
        return Op(argv, "simulate", seed=s, preset=preset)
    if workload == "sweep-regimes":
        s = op_seed(seed, index)
        return Op(SWEEP_ARGV + ["--seed", str(s), "--out-dir", str(out_dir)], "sweep", seed=s)
    if workload == "analyze-readout":
        source = inputs[index % len(inputs)]
        return Op(["analyze", str(source), "--out-dir", str(out_dir)], "analyze", source=source)
    raise ValueError(f"unknown workload {workload!r}")


def cycle_length(workload: str) -> int:
    """Ops after which a workload's op mix repeats (presets, input files)."""
    return {"simulate-presets": 2, "sweep-regimes": 1}.get(
        workload, ANALYZE_VARIANTS * len(READOUT_SHAPES)
    )


def python_threads(workload: str) -> int:
    """Threads an op of the workload runs Python in, for the speed probe.

    The sweep fans its grid points out to min(8, cpu_count) workers, the
    CLI's default; the other ops run in the calling thread.
    """
    if workload == "sweep-regimes":
        return max(1, min(8, os.cpu_count() or 1, len(SWEEP_DP) * len(SWEEP_N)))
    return 1


def clear(out_dir: Path) -> None:
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)


def work_units(op: Op) -> tuple[int, int, int]:
    """(measurements, trajectories, readout rows) that one op processes."""
    if op.kind == "simulate":
        n, m = PRESET_SHAPE["n"], PRESET_SHAPE["m"]
        return n * m, 1, m
    if op.kind == "sweep":
        trajectories = len(SWEEP_DP) * len(SWEEP_N) * SWEEP_REPLICATES
        measurements = len(SWEEP_DP) * sum(SWEEP_N) * SWEEP_REPLICATES * SWEEP_M
        return measurements, trajectories, trajectories * SWEEP_M
    # an analyze op re-analyzes one recorded trajectory of 25 x 2000
    return 25 * ANALYZE_ROWS, 1, ANALYZE_ROWS


# ---------------------------------------------------------------- checks


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _load_json(path: Path) -> dict:
    _require(path.is_file(), f"missing {path.name}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CheckError(f"{path.name} is not JSON: {exc}") from exc


def _read_csv(um, path: Path):
    _require(path.is_file(), f"missing {path.name}")
    try:
        return um.artifacts.read_trajectory_csv(path)
    except um.artifacts.ArtifactError as exc:
        raise CheckError(str(exc)) from exc


def close(a: float, b: float) -> bool:
    """Floats equal within FLOAT_RTOL (absolute below magnitude 1)."""
    return abs(a - b) <= FLOAT_RTOL * max(1.0, abs(b))


def _check_lattice(echo: dict, columns: dict) -> None:
    """Every g2 is (k/n - p1)/dp for an integer k in [0, n]; c2_sq in [0, 1]."""
    n, p1, dp = echo["n_per_series"], echo["p1"], echo["dp"]
    k = (columns["g2"] * dp + p1) * n
    nearest = np.rint(k)
    _require(bool(np.all(np.abs(k - nearest) <= 1e-6)), "g2 off the (k/n - p1)/dp lattice")
    _require(bool(np.all((nearest >= 0) & (nearest <= n))), "g2 lattice count outside [0, n]")
    c2 = columns["c2_sq"]
    _require(
        bool(np.all((c2 >= -POPULATION_SLACK) & (c2 <= 1.0 + POPULATION_SLACK))),
        "c2_sq outside [0, 1]",
    )


def _check_spectrum(spectrum: dict, columns: dict, echo: dict) -> None:
    _require(spectrum.get("m") == len(columns["g2"]), "spectrum.json m != row count")
    _require(spectrum.get("config") == echo, "spectrum.json config echo differs from the CSV's")
    _require(
        spectrum.get("processed_readout") == columns["g2_processed"].tolist(),
        "spectrum.json processed_readout != CSV g2_processed",
    )


def _check_simulate(um, op: Op, out_dir: Path, stdout: str) -> dict:
    _require(stdout.startswith("wrote "), f"unexpected stdout {stdout[:80]!r}")
    echo, columns = _read_csv(um, out_dir / "trajectory.csv")
    _require(echo is not None and echo.get("seed") == op.seed, "CSV config echo lacks the op seed")
    _require(echo["n_per_series"] == PRESET_SHAPE["n"], "n_per_series differs from the preset")
    rows = len(columns["m"])
    _require(rows == PRESET_SHAPE["m"] == echo["m_series"], f"{rows} rows, expected m_series")
    _require(bool(np.array_equal(columns["m"], np.arange(1, rows + 1))), "series index not 1..M")
    _check_lattice(echo, columns)
    spectrum = _load_json(out_dir / "spectrum.json")
    _check_spectrum(spectrum, columns, echo)
    report = _load_json(out_dir / "report.json")
    _require(report.get("seed") == op.seed, "report.json seed differs from the op seed")
    _require(report.get("regime") == PRESET_REGIME[op.preset], f"regime {report.get('regime')!r}")
    params = um.povm.PovmParams(echo["p1"], echo["p2"])
    f = um.series.fuzziness(um.series.level_resolution_time(params, echo["tau"]), echo["t_r"])
    _require(close(report["f"], f), "report.json f differs from series.fuzziness")
    return {"echo": echo, "columns": columns, "spectrum": spectrum, "report": report}


def _parse_sweep_csv(path: Path) -> tuple[list[str], list[list[str]], int | None]:
    _require(path.is_file(), "missing sweep.csv")
    header, rows, skipped = None, [], None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# skipped_points:"):
            skipped = int(line.split(":", 1)[1])
        elif line.startswith("#") or not line.strip():
            continue
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    _require(header is not None, "sweep.csv has no header")
    return header, rows, skipped


def _check_sweep(um, op: Op, out_dir: Path, stdout: str) -> dict:
    _require(stdout.startswith("wrote sweep.csv"), f"unexpected stdout {stdout[:80]!r}")
    header, rows, skipped = _parse_sweep_csv(out_dir / "sweep.csv")
    _require(header == list(um.artifacts.SWEEP_COLUMNS), f"sweep.csv header {header}")
    _require(skipped == 0, f"skipped_points = {skipped}")
    _require(len(rows) == len(SWEEP_DP) * len(SWEEP_N), f"{len(rows)} rows, one per grid point expected")
    records = [dict(zip(header, row)) for row in rows]
    grid = set()
    for rec in records:
        _require(len(rec) == len(header), "sweep.csv row with the wrong field count")
        p0, dp, tau = float(rec["p0"]), float(rec["dp"]), float(rec["tau"])
        grid.add((round(dp, 12), int(rec["n_per_series"])))
        _require(int(rec["m_series"]) == SWEEP_M, "m_series differs from --m")
        _require(int(rec["seed"]) == op.seed, "seed column differs from the op seed")
        params = um.povm.PovmParams.from_p0_dp(p0, dp)
        f = um.series.fuzziness(um.series.level_resolution_time(params, tau), 1.0)
        _require(close(float(rec["f"]), f), f"f = {rec['f']} differs from series.fuzziness = {f!r}")
        _require(rec["regime"] == um.spectral.classify_regime(f), f"regime {rec['regime']!r} for f = {f}")
        _require(rec["peak_significant"] in ("true", "false"), "peak_significant not a boolean")
        for name in ("peak_freq_error", "corr_raw", "corr_processed"):
            float(rec[name])
    expected = {(round(dp, 12), n) for dp in SWEEP_DP for n in SWEEP_N}
    _require(grid == expected, "sweep.csv rows do not cover the grid")
    return {"records": records}


def _check_analyze(um, op: Op, out_dir: Path, stdout: str) -> dict:
    _require(stdout.startswith("wrote spectrum.json"), f"unexpected stdout {stdout[:80]!r}")
    source_echo, source = _read_csv(um, op.source)
    echo, columns = _read_csv(um, out_dir / "processed.csv")
    _require(echo == source_echo, "processed.csv config echo differs from the input's")
    _require(len(columns["m"]) == len(source["m"]) == echo["m_series"], "row count differs from m_series")
    for name in ("m", "t_over_TR", "c2_sq", "g2"):
        _require(bool(np.array_equal(columns[name], source[name])), f"processed.csv {name} differs from the input")
    spectrum = _load_json(out_dir / "spectrum.json")
    _check_spectrum(spectrum, columns, echo)
    return {"columns": columns, "spectrum": spectrum}


CHECKS = {"simulate": _check_simulate, "sweep": _check_sweep, "analyze": _check_analyze}


def check_op(um, op: Op, out_dir: Path, stdout: str) -> dict:
    """Raise CheckError unless the op's artifacts are sound; returns them parsed."""
    try:
        return CHECKS[op.kind](um, op, out_dir, stdout)
    except (KeyError, IndexError, TypeError, ValueError) as exc:  # a field missing or mistyped
        raise CheckError(f"malformed artifact: {exc!r}") from exc


ARTIFACTS = {
    "simulate": ("trajectory.csv", "spectrum.json", "report.json"),
    "sweep": ("sweep.csv",),
    "analyze": ("spectrum.json", "processed.csv"),
}
