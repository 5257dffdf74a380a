"""Reference outputs stored with the benchmark, and the comparison against them.

Every run also makes the first ops of its workload at the reference seed
(``REFERENCE_SEED``, the default ``--seed``) and compares their artifacts
with ``reference.json``: ``g2`` exactly (as lattice counts), other floats
within ``workloads.FLOAT_RTOL``.  A difference there fails the op.  The
SHA-256 of each artifact is compared too, but a differing digest is only
counted (``artifacts.digest_mismatch``), so a change that shifts a float
in the last place shows without failing the run.

To re-record after an intended change of the program's output:
    python3 perfbench/reference.py
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import workloads as wl

REFERENCE_SEED = 1
REFERENCE_FILE = Path(__file__).with_name("reference.json")
STRIDE = 50  # sampled floats per column: every STRIDE-th row, plus the column sum
REFERENCE_OPS = {"simulate-presets": 2, "sweep-regimes": 1, "analyze-readout": len(wl.READOUT_SHAPES)}


def _column(values: np.ndarray) -> dict:
    return {"every_%d" % STRIDE: values[::STRIDE].tolist(), "sum": float(values.sum())}


def _lattice_counts(echo: dict, g2: np.ndarray) -> str:
    counts = np.rint((g2 * echo["dp"] + echo["p1"]) * echo["n_per_series"]).astype(int)
    return "".join(chr(ord("A") + int(k)) for k in counts)


def _peak(spectrum: dict) -> dict:
    return {
        "main_peak": spectrum["main_peak"],
        "noise_floor": spectrum["noise_floor"],
        "power_sum": math.fsum(spectrum["power"]),
    }


def summarize(op: wl.Op, parsed: dict) -> dict:
    """The parts of an op's artifacts that the reference pins."""
    if op.kind == "simulate":
        columns, echo = parsed["columns"], parsed["echo"]
        return {
            "preset": op.preset,
            "g2_counts": _lattice_counts(echo, columns["g2"]),
            "c2_sq": _column(columns["c2_sq"]),
            "g2_processed": _column(columns["g2_processed"]),
            "spectrum": _peak(parsed["spectrum"]),
            "report": {k: parsed["report"][k] for k in ("f", "T_lr", "nbound_ratio", "regime")},
        }
    if op.kind == "sweep":
        return {"rows": parsed["records"]}
    return {
        "input": op.source.parent.name,
        "g2_processed": _column(parsed["columns"]["g2_processed"]),
        "spectrum": _peak(parsed["spectrum"]),
    }


def digests(op: wl.Op, out_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in wl.ARTIFACTS[op.kind]
    }


def _number(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def differences(expected, actual, where: str = "") -> list[str]:
    """Paths at which ``actual`` departs from ``expected``.

    Strings, integers and booleans must match exactly; floats (also floats
    written as strings, as in sweep.csv) within FLOAT_RTOL.
    """
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [d for k in expected for d in differences(expected[k], actual[k], f"{where}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        return [d for i, (e, a) in enumerate(zip(expected, actual)) for d in differences(e, a, f"{where}[{i}]")]
    if isinstance(expected, float) or (isinstance(expected, str) and "." in expected):
        e, a = _number(expected), _number(actual)
        if e is not None and a is not None:
            if (math.isnan(e) and math.isnan(a)) or wl.close(a, e):
                return []
            return [f"{where}: {actual!r} != {expected!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{where}: {actual!r} != {expected!r}"]
    return []


def load() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def main() -> int:
    """Re-record reference.json from the program in this checkout."""
    import run

    um = run.import_program()
    out = {"seed": REFERENCE_SEED, "workloads": {}}
    for workload in REFERENCE_OPS:
        with run.Workspace(um, workload, REFERENCE_SEED) as ws:
            entries = []
            for op in ws.reference_ops():
                result = run.run_op(um, op, ws.out_dir)
                if result.error:
                    raise SystemExit(f"{workload}: {result.error}")
                entries.append({"summary": summarize(op, result.parsed),
                                "sha256": digests(op, ws.out_dir)})
            out["workloads"][workload] = entries
    REFERENCE_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
