"""Span tracer that wraps the program's public functions from outside.

Each wrapped call records a span: name, layer, start and end (wall and
thread CPU clocks), thread, parent span and the op (``cli.main`` call) it
belongs to.  Spans stay in memory; once the traced phase is over,
``layer_metrics`` turns them into the per-layer numbers and ``write_spans``
writes them out.

A function is replaced in its defining module *and* in every package module
that imported it by name (``cli`` binds ``simulate_trajectory`` and
``power_spectrum`` at import), so no call path escapes the wrapper.
``povm``, ``rabi``, ``series`` and ``meter`` stay unwrapped: their helpers
run inside the microsecond step kernel, where a wrapper would cost more
than the call; their time counts in the calling layer.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "unsharp_monitor"
# layer -> (module, public functions wrapped)
LAYERS = {
    "cli": ("cli", ("main",)),
    "config": ("config", ("load_run_config", "run_config_from_dict", "build_report", "derive_seed")),
    "trajectory": ("trajectory", ("simulate_trajectory",)),
    "spectral": (
        "spectral",
        ("power_spectrum", "wiener_filter", "truncate_series", "synthesize", "main_peak", "process_readout"),
    ),
    "artifacts": (
        "artifacts",
        (
            "write_trajectory_csv", "write_json", "write_report_json", "write_sweep_csv",
            "read_trajectory_csv", "spectrum_payload",
        ),
    ),
}
WRITERS = {"write_trajectory_csv", "write_json", "write_report_json", "write_sweep_csv"}
READERS = {"read_trajectory_csv"}
SPECTRAL = set(LAYERS["spectral"][1])


class Span:
    __slots__ = ("name", "layer", "start", "end", "cpu", "thread", "parent", "op", "info")

    def __init__(self, name, layer, thread, parent, op):
        self.name, self.layer, self.thread = name, layer, thread
        self.parent, self.op = parent, op
        self.info = None


def _info(name: str, args: tuple, result):
    """The little a span keeps of its call: counts, not the payloads.

    Holding on to results would grow the heap the garbage collector walks
    and slow the traced ops down.
    """
    if name == "simulate_trajectory":
        config = args[0]
        return config.n_per_series, config.m_series, config.params.p1, config.params.dp, result.g2
    if name in WRITERS or name in READERS:
        return os.stat(args[0]).st_size
    if name == "main_peak":
        return len(args[0].coefficients), result.significant
    if name in SPECTRAL:
        return len(getattr(args[0], "coefficients", args[0])), None
    return None


class Tracer:
    """Installs wrappers on the package, collects spans, restores on uninstall."""

    def __init__(self):
        self.spans: list[Span] = []
        self.ops: list[Span] = []
        self._local = threading.local()
        self._current_op: Span | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, func):
        local, spans = self._local, self.spans

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            root = layer == "cli"
            if not root and self._current_op is None:
                return func(*args, **kwargs)  # outside an op: the benchmark's own checks
            parent = stack[-1] if stack else self._current_op
            span = Span(name, layer, threading.get_ident(), None if root else parent,
                        None if root else self._current_op)
            if root:
                span.op = span
                self._current_op = span
            stack.append(span)
            span.cpu = -time.thread_time_ns()
            span.start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                span.cpu += time.thread_time_ns()
                stack.pop()
                spans.append(span)
                if root:
                    self.ops.append(span)
                    self._current_op = None
            span.info = _info(name, args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer, (module_name, names) in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def write_spans(tracer: Tracer, path: Path) -> None:
    """All spans as JSON lines; ``parent`` and ``op`` are line ids, times in ns."""
    ids = {id(s): i for i, s in enumerate(tracer.spans)}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for i, s in enumerate(tracer.spans):
            record = {"id": i, "name": s.name, "layer": s.layer, "start_ns": s.start, "end_ns": s.end,
                      "cpu_ns": s.cpu, "thread": s.thread, "parent": ids.get(id(s.parent)), "op": ids[id(s.op)]}
            handle.write(json.dumps(record) + "\n")


def _self_segments(span: Span, children: list[Span]) -> list[tuple[int, int]]:
    """Parts of a span's interval that none of its same-thread children cover."""
    segments, cursor = [], span.start
    for child in sorted(children, key=lambda c: c.start):
        if child.start > cursor:
            segments.append((cursor, child.start))
        cursor = max(cursor, child.end)
    if span.end > cursor:
        segments.append((cursor, span.end))
    return segments


def _op_shares(op: Span, spans: list[Span]) -> dict[str, float]:
    """Split one op's wall time (ns) among layers.

    Each span contributes its self segments.  Where k segments of different
    threads overlap, each gets 1/k of that interval; intervals no segment
    covers belong to ``cli``.  The shares therefore add up to the op's wall
    time exactly, threads or not.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None and s.parent is not op:
            children[id(s.parent)].append(s)
    events = []
    for s in spans:
        for a, b in _self_segments(s, children[id(s)]):
            events.append((a, 1, s.layer))
            events.append((b, -1, s.layer))
    events.sort(key=lambda e: (e[0], e[1]))
    shares: dict[str, float] = defaultdict(float)
    active: dict[str, int] = defaultdict(int)
    covered, last = 0.0, None
    total = 0
    for t, delta, layer in events:
        if last is not None and total > 0 and t > last:
            dt = t - last
            covered += dt
            for name, count in active.items():
                if count:
                    shares[name] += dt * count / total
        active[layer] += delta
        total += delta
        last = t
    shares["cli"] += (op.end - op.start) - covered
    return shares


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, scales: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer numbers, normalized per op where they are counts or times.

    ``scales`` holds one speed factor per traced op (``calibrate``); every
    time is scaled by the factor of the op it belongs to.
    """
    ops = tracer.ops
    n_ops = len(ops)
    scale = {id(op): f for op, f in zip(ops, scales)}
    by_op, kids = defaultdict(list), defaultdict(list)
    for s in tracer.spans:
        if s.op is not None and s.layer != "cli":
            by_op[id(s.op)].append(s)
        if s.parent is not None:
            kids[id(s.parent)].append(s)

    shares: dict[str, float] = defaultdict(float)
    threads_per_op = []
    for op in ops:
        spans = by_op[id(op)]
        for layer, ns in _op_shares(op, spans).items():
            shares[layer] += ns * scale[id(op)]
        threads_per_op.append(len({s.thread for s in spans if s.layer == "trajectory"}))

    def spans_of(layer):
        return [s for s in tracer.spans if s.layer == layer and s.op is not None]

    def outermost(spans, names):
        return [s for s in spans if s.name in names and not (s.parent is not None and s.parent.name in names)]

    def wall(spans):
        return sum((s.end - s.start) * scale[id(s.op)] for s in spans)

    def self_ns(spans):
        return sum(sum(b - a for a, b in _self_segments(s, kids[id(s)])) * scale[id(s.op)] for s in spans)

    traj = spans_of("trajectory")
    meas = plus = 0
    for s in traj:
        n, m, p1, dp, g2 = s.info
        meas += n * m
        plus += int(np.rint((g2 * dp + p1) * n).sum())
    traj_wall = wall(traj)
    traj_cpu = sum(s.cpu * scale[id(s.op)] for s in traj)

    spec = spans_of("spectral")
    samples = sum(s.info[0] for s in spec)
    peaks = [s.info[1] for s in spec if s.name == "main_peak"]

    art = spans_of("artifacts")
    writes = outermost(art, WRITERS)
    reads = outermost(art, READERS)

    per_op = 1.0 / n_ops if n_ops else 0.0
    ms = 1e-6 * per_op
    return {
        "cli.ops": (n_ops, "ops"),
        "cli.self_ms": (shares["cli"] * ms, "ms/op"),
        "config.calls": (len(spans_of("config")) * per_op, "calls/op"),
        "config.ms": (shares["config"] * ms, "ms/op"),
        "trajectory.calls": (len(traj) * per_op, "calls/op"),
        "trajectory.measurements": (meas * per_op, "meas/op"),
        "trajectory.plus_outcomes": (plus * per_op, "count/op"),
        "trajectory.self_ms": (shares["trajectory"] * ms, "ms/op"),
        "trajectory.ns_per_meas": (_ratio(traj_wall, meas), "ns/meas"),
        "trajectory.cpu_ns_per_meas": (_ratio(traj_cpu, meas), "ns/meas"),
        "trajectory.wait_frac": (1.0 - _ratio(traj_cpu, traj_wall) if traj else 0.0, "fraction"),
        "trajectory.threads": (float(np.median(threads_per_op)) if ops else 0.0, "threads"),
        "spectral.calls": (len(spec) * per_op, "calls/op"),
        "spectral.samples": (samples * per_op, "samples/op"),
        "spectral.self_ms": (shares["spectral"] * ms, "ms/op"),
        "spectral.us_per_sample": (_ratio(self_ns(spec) * 1e-3, samples), "us/sample"),
        "spectral.peak_significant_frac": (_ratio(sum(peaks), len(peaks)), "fraction"),
        "artifacts.self_ms": (shares["artifacts"] * ms, "ms/op"),
        "artifacts.files_written": (len(writes) * per_op, "files/op"),
        "artifacts.bytes_written": (sum(s.info for s in writes) * per_op, "B/op"),
        "artifacts.write_ms_per_file": (_ratio(wall(writes) * 1e-6, len(writes)), "ms/file"),
        "artifacts.files_read": (len(reads) * per_op, "files/op"),
        "artifacts.bytes_read": (sum(s.info for s in reads) * per_op, "B/op"),
        "artifacts.read_ms_per_file": (_ratio(wall(reads) * 1e-6, len(reads)), "ms/file"),
        "trace.op_ms": (sum((op.end - op.start) * scale[id(op)] for op in ops) * ms, "ms/op"),
    }
