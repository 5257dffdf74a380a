"""Benchmark of the unsharp-monitor CLI, end to end and per layer.

    python3 perfbench/run.py --workload simulate-presets --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads are described in ``workloads.py`` and ``README.md``.

``--trace 0``  set-up probes, then a timed closed loop of CLI ops; prints the
               end-to-end metrics.
``--trace 1``  the same ops twice, untraced and then traced through wrappers
               on the program's public functions (``tracer.py``); prints the
               per-layer metrics and the tracing overhead.

Every op's artifacts are checked (``workloads.check_op``), and the first ops
of the workload at the reference seed are compared with ``reference.json``.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A human-readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calibrate
import reference
import tracer as tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SPANS = ROOT / ".bench_spans"  # traced runs leave their spans here
PROBE = Path(__file__).with_name("probe.py")
# set-up probes per run: the sweep's op 0 takes about 1 s, so it gets fewer,
# which keep its run near a minute and already spread its median by 5% or less
SETUP_REPS = {"simulate-presets": 25, "sweep-regimes": 15, "analyze-readout": 25}
PROBE_TIMEOUT_S = 120
THREADS_ENV = "UNSHARP_MONITOR_THREADS"
WORKLOADS = ("simulate-presets", "sweep-regimes", "analyze-readout")


def import_program():
    """Import the package from this checkout's ``src``; exit 1 if it is absent."""
    src = ROOT / "src"
    if not (src / "unsharp_monitor" / "cli.py").is_file():
        raise SystemExit(f"error: program source src/unsharp_monitor not found under {ROOT}")
    sys.path.insert(0, str(src))
    import unsharp_monitor
    import unsharp_monitor.artifacts
    import unsharp_monitor.cli
    import unsharp_monitor.povm
    import unsharp_monitor.series
    import unsharp_monitor.spectral

    if Path(unsharp_monitor.__file__).resolve().parent != (src / "unsharp_monitor").resolve():
        raise SystemExit(f"error: imported {unsharp_monitor.__file__}, not this checkout's src")
    return unsharp_monitor


class Workspace:
    """Working directory of one run inside the checkout, removed on exit."""

    def __init__(self, um, workload: str, seed: int):
        self.um, self.workload, self.seed = um, workload, seed
        self.dir = WORK / f"{workload}-{os.getpid()}"
        self.out_dir = self.dir / "out"
        self.inputs: list[Path] = []
        self._reference_inputs: list[Path] = []

    def __enter__(self) -> "Workspace":
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        if self.workload == "analyze-readout":
            self.inputs = wl.write_readout_inputs(self.um, self.dir / "inputs", self.seed)
            # the reference ops read one CSV of each shape
            self._reference_inputs = wl.write_readout_inputs(
                self.um, self.dir / "reference_inputs", reference.REFERENCE_SEED, variants=1
            )
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    def op(self, index: int, out_dir: Path | None = None) -> wl.Op:
        return wl.make_op(self.workload, self.seed, index, out_dir or self.out_dir, self.inputs)

    def reference_ops(self) -> list[wl.Op]:
        count = reference.REFERENCE_OPS[self.workload]
        return [
            wl.make_op(self.workload, reference.REFERENCE_SEED, i, self.out_dir, self._reference_inputs)
            for i in range(count)
        ]


@dataclass
class OpResult:
    latency_ns: int
    error: str | None
    parsed: dict | None = None
    warnings: list[str] = field(default_factory=list)
    scale: float = 1.0  # calibrate.SpeedProbe factor to nominal speed

    @property
    def nominal_ns(self) -> float:
        return self.latency_ns * self.scale


def run_op(um, op: wl.Op, out_dir: Path, probe: calibrate.SpeedProbe | None = None) -> OpResult:
    """Run one CLI op in-process, then check its artifacts (untimed).

    With a probe, the speed kernel runs right after the op (the caller ran
    it, or the previous op did, right before).
    """
    wl.clear(out_dir)
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    # every warning is recorded, so each op sees the same warnings whatever
    # ran before it; the presets' SeriesBoundWarning is expected output
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        start = time.perf_counter_ns()
        try:
            code = um.cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an op that raises is a failed op, not a failed run
            code, error = None, traceback.format_exc(limit=3)
        latency = time.perf_counter_ns() - start
    scale = probe.scale() if probe is not None else 1.0
    if error is None and code != 0:
        error = f"exit code {code}: {stderr.getvalue()[-300:]}"
    parsed = None
    if error is None:
        try:
            parsed = wl.check_op(um, op, out_dir, stdout.getvalue())
        except wl.CheckError as exc:
            error = f"check failed: {exc}"
    return OpResult(latency, error, parsed, [w.category.__name__ for w in caught], scale)


def closed_loop(um, ws: Workspace, probe: calibrate.SpeedProbe, seconds: float):
    """Ops 1, 2, ... one after another for ``seconds`` of op time.

    The workload's SETUP_REPS set-up probes are spread evenly over that
    time, so that they sample the host's speed across the run; the clock
    stops while they run.
    Returns the timed ops and the set-up probes' results.
    """
    results, setups = [], []
    reps = SETUP_REPS[ws.workload]
    start, paused = time.perf_counter(), 0.0
    probe.start()
    while True:
        elapsed = time.perf_counter() - start - paused
        if len(setups) < reps and elapsed >= len(setups) * seconds / reps:
            began = time.perf_counter()
            setups.append(probe_setup(um, ws, probe))
            paused += time.perf_counter() - began
            continue
        if results and elapsed >= seconds:
            return results, setups
        op = ws.op(len(results) + 1)
        result = run_op(um, op, ws.out_dir, probe)
        result.parsed = None  # only reference ops need it; keeps memory flat
        results.append((op, result))


def probe_setup(um, ws: Workspace, probe: calibrate.SpeedProbe) -> OpResult:
    """Fresh interpreter: import the CLI and run op 0; its latency is the
    time from the start of the process to the end of the op."""
    out_dir = ws.dir / "probe_out"
    op = ws.op(0, out_dir)
    wl.clear(out_dir)
    probe.start()
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(PROBE), str(ROOT / "src"), *op.argv],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child
        result = OpResult(int((report["end"] - start) * 1e9), None, scale=probe.scale())
    except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError) as exc:
        elapsed = int((time.perf_counter() - start) * 1e9)
        return OpResult(elapsed, f"set-up probe failed: {exc!r}", scale=probe.scale())
    if report["code"] != 0:
        result.error = f"probe op exit code {report['code']}: {report['stderr'][-300:]}"
    else:
        try:
            wl.check_op(um, op, out_dir, report["stdout"])
        except wl.CheckError as exc:
            result.error = f"probe check failed: {exc}"
    return result


def check_reference(um, ws: Workspace) -> tuple[list[OpResult], int, int]:
    """Reference-seed ops: results (failing on a pinned-value difference),
    artifacts compared, and artifacts whose SHA-256 differs."""
    stored = reference.load()["workloads"][ws.workload]
    results, compared, mismatched = [], 0, 0
    for op, entry in zip(ws.reference_ops(), stored):
        result = run_op(um, op, ws.out_dir)
        if result.error is None:
            diffs = reference.differences(entry["summary"], reference.summarize(op, result.parsed))
            if diffs:
                result.error = "reference mismatch: " + "; ".join(diffs[:3])
            digests = reference.digests(op, ws.out_dir)
            compared += len(digests)
            mismatched += sum(digests[k] != entry["sha256"].get(k) for k in digests)
        results.append(result)
    return results, compared, mismatched


def latency_summary(latencies_ms: list[float]) -> tuple[float, float, str]:
    """Median, and the highest percentile with at least 10 ops beyond it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n >= 11:
        return statistics.median(ordered), ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} ops"
    return statistics.median(ordered), ordered[-1], f"max of {n} ops (fewer than 11)"


def end_to_end(um, ws: Workspace, seconds: float, log: list[OpResult],
               probe: calibrate.SpeedProbe) -> dict:
    timed, probes = closed_loop(um, ws, probe, seconds)
    log.extend(probes)
    log.extend(r for _, r in timed)
    setups = [r.nominal_ns * 1e-9 for r in probes]

    wall_s = sum(r.nominal_ns for _, r in timed) * 1e-9
    done = [wl.work_units(op) for op, r in timed if r.error is None]
    p50, tail, tail_name = latency_summary([r.nominal_ns * 1e-6 for _, r in timed])
    raw_p50, _, _ = latency_summary([r.latency_ns * 1e-6 for _, r in timed])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail, "ms"),
        "meas_per_s": (sum(d[0] for d in done) / wall_s, "meas/s"),
        "traj_per_s": (sum(d[1] for d in done) / wall_s, "traj/s"),
        "samples_per_s": (sum(d[2] for d in done) / wall_s, "rows/s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    print(f"timed ops: {len(timed)} in {wall_s:.3f} nominal s of op time; "
          f"op_tail_ms is the {tail_name}", file=sys.stderr)
    print(f"speed: median scale to nominal {statistics.median(r.scale for _, r in timed):.4f}; "
          f"unscaled op_p50_ms {raw_p50:.4f}", file=sys.stderr)
    print("setup_s runs: " + ", ".join(f"{s:.4f}" for s in setups), file=sys.stderr)
    return metrics


def per_layer(um, ws: Workspace, seconds: float, log: list[OpResult],
              probe: calibrate.SpeedProbe) -> dict:
    """Each op twice, untraced and then traced, for ``seconds`` and whole op cycles."""
    tracer = tracing.Tracer()
    untraced, traced = [], []
    cycle = wl.cycle_length(ws.workload)
    deadline = time.perf_counter() + seconds
    probe.start()
    while not traced or len(traced) % cycle or time.perf_counter() < deadline:
        op = ws.op(len(traced) + 1)
        untraced.append(run_op(um, op, ws.out_dir, probe))
        tracer.install()
        try:
            traced.append(run_op(um, op, ws.out_dir, probe))
        finally:
            tracer.uninstall()
    for result in untraced + traced:
        result.parsed = None
    log.extend(untraced + traced)
    metrics = tracing.layer_metrics(tracer, [r.scale for r in traced])
    spans = SPANS / f"{ws.workload}-seed{ws.seed}.jsonl"
    tracing.write_spans(tracer, spans)
    base = sum(r.nominal_ns for r in untraced)
    metrics["trace.overhead_frac"] = (sum(r.nominal_ns for r in traced) / base - 1.0, "fraction")
    print(f"traced ops: {len(traced)}, each also run untraced just before; spans in {spans}",
          file=sys.stderr)
    return metrics


def environment() -> dict:
    cpus = os.cpu_count() or 1
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else cpus,
        "os.cpu_count": cpus,
        "default_sweep_workers": min(8, cpus),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=reference.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # users run with the default worker count, min(8, cpu_count); the set-up
    # probes inherit this environment
    inherited = os.environ.pop(THREADS_ENV, None)
    um = import_program()
    print("environment: " + json.dumps(environment()), file=sys.stderr)
    if inherited is not None:
        print(f"note: ignored {THREADS_ENV}={inherited}", file=sys.stderr)

    log: list[OpResult] = []
    with Workspace(um, args.workload, args.seed) as ws:
        log.append(run_op(um, ws.op(0), ws.out_dir))  # warm-up
        probe = calibrate.SpeedProbe(wl.python_threads(args.workload))
        if args.trace:
            metrics = per_layer(um, ws, args.seconds, log, probe)
        else:
            metrics = end_to_end(um, ws, args.seconds, log, probe)
        ref_results, compared, mismatched = check_reference(um, ws)
        log.extend(ref_results)
    if args.trace:
        metrics["artifacts.digest_mismatch"] = (mismatched, "count")
    print(f"reference: {compared} artifacts compared, {mismatched} with a different SHA-256",
          file=sys.stderr)

    failures = [r.error for r in log if r.error is not None]
    tallies: dict[str, int] = {}
    for r in log:
        for name in r.warnings:
            tallies[name] = tallies.get(name, 0) + 1
    print(f"warnings (expected output): {tallies}", file=sys.stderr)
    for error in failures[:5]:
        print("FAILED op: " + error.strip(), file=sys.stderr)
    print(f"error_rate: {len(failures) / len(log):.4g} ({len(failures)} of {len(log)} ops)",
          file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}", file=sys.stderr)

    result = {
        "correct": not failures,
        "attempted": len(log),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
