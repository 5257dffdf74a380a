"""Golden pin: SHA-256 of the emitted artifacts at fixed seeds.

Rerun-vs-rerun tests cannot see a change that shifts a float in every run
alike; these digests can.  A change to the simulation or analysis code
must leave them untouched.  The preset and ``analyze`` pins hold for both
float writers, the compiled one and ``float.__repr__``, the ``analyze``
pins for both row readers, the compiled parse and ``float()``, and the
preset pins and the 9-seed sweep pin for both trajectory routes, the
compiled kernel with its own draws and the Python loop on numpy's
(``helpers.python_route``).

The digests of ``spectrum.json`` and of the processed readout columns
depend on numpy's FFT output, so a numpy upgrade that changes the FFT's
rounding may move them.  A re-pin is a deliberate act: it must be
justified in CHANGES.md, together with the reason the bytes moved.
"""

import hashlib
import json

import pytest

from unsharp_monitor import artifacts, cli
from unsharp_monitor.cli import main

from helpers import python_route

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

SEED = "7"
ARTIFACTS = ("trajectory.csv", "spectrum.json", "report.json")

SIMULATE_DIGESTS = {
    "fig1": {
        "trajectory.csv": "ce0a73cc95a02de475583dfb3f70ab062ddd3dc69cfd00c90606f1a33ec26e34",
        "spectrum.json": "4222e1b3f86e67f74548b87a02c5367223375625eba059ef08703620c128c9c7",
        "report.json": "e0ee2749c1e2928463f2765421da81518423f661421b41009a965410ba1c70a2",
    },
    "fig3": {
        "trajectory.csv": "079cd697243dc66bdcca98d014c423c0d1834fdcaad63997c5a0810a2a7b0ad1",
        "spectrum.json": "26bbced43716d678fcb6cea2bf19a25d1ea72e0c34096c8e2640d77645a744ca",
        "report.json": "2d7361b311f23960935b5b7180a8c9560049484db59a2423df85689441e9e0da",
    },
}

# an initial state with complex amplitudes on both levels
COMPLEX_STATE_CONFIG = {
    "p0": 0.5, "dp": 0.08, "tau": 0.002, "n_per_series": 25, "m_series": 200,
    "initial_state": {"c1": [0.6, 0.0], "c2": [0.48, 0.64]}, "seed": 7,
}
COMPLEX_STATE_DIGESTS = {
    "trajectory.csv": "99d249e7286b8decb9a5abc867e965f9cd75646f384088e8fd2a93716b92a68e",
    "spectrum.json": "7b0807931a31e7843081cbb063c9968391299c71d6adcd35fea374602bb833a7",
    "report.json": "6b27953fa2171116eec2308e925c022f6a8142e4f97bff26e28ee435651d54fe",
}

# `analyze` re-run on the seed-7 `simulate` output; the echo round-trips, so
# these equal the simulate pins above, but are recorded from `analyze` itself
ANALYZE_DIGESTS = {
    "fig1": {
        "processed.csv": "ce0a73cc95a02de475583dfb3f70ab062ddd3dc69cfd00c90606f1a33ec26e34",
        "spectrum.json": "4222e1b3f86e67f74548b87a02c5367223375625eba059ef08703620c128c9c7",
    },
    "fig3": {
        "processed.csv": "079cd697243dc66bdcca98d014c423c0d1834fdcaad63997c5a0810a2a7b0ad1",
        "spectrum.json": "26bbced43716d678fcb6cea2bf19a25d1ea72e0c34096c8e2640d77645a744ca",
    },
}

SWEEP_ARGV = [
    "sweep", "--p0", "0.5", "--dp=-0.3,0.08", "--tau", "0.002", "--n", "5",
    "--m", "48", "--seeds-per-point", "3", "--seed", SEED,
]
SWEEP_DIGEST = "1ac43628aa52b23d2b76a8b011486f97321efdce9252ab511de6c00a4db5d3e5"

# 9 seeds per point: two full groups of four lanes and a tail row; dp = 1.5
# is skipped, so the readout batch holds two points
SWEEP_9_ARGV = [
    "sweep", "--p0", "0.5", "--dp=-0.3,0.08,1.5", "--tau", "0.002", "--n", "5",
    "--m", "48", "--seeds-per-point", "9", "--seed", SEED,
]
SWEEP_9_DIGEST = "3b38da4cf964a5a680449eb4215037edd5e9cc8d6bf3bf62a978fdade71356ed"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(out_dir) -> dict[str, str]:
    return {name: sha256(out_dir / name) for name in ARTIFACTS}


@pytest.mark.parametrize("preset", sorted(SIMULATE_DIGESTS))
def test_simulate_preset_artifacts_are_pinned(tmp_path, preset):
    out = tmp_path / preset
    assert main(["simulate", "--preset", preset, "--seed", SEED, "--out-dir", str(out)]) == 0
    assert digests(out) == SIMULATE_DIGESTS[preset]


def python_writer_only(monkeypatch) -> None:
    """Route every float row and array through ``float.__repr__``; a call
    into the compiled writer fails the test."""
    monkeypatch.setattr(artifacts, "_WRITER", None)
    if artifacts._LIBRARY is not None:
        for name in ("um_repr_join", "um_repr_rows"):

            def refuse(*args, name=name):
                raise AssertionError(f"{name} ran on the float.__repr__ route")

            monkeypatch.setattr(artifacts._LIBRARY, name, refuse)


@pytest.mark.parametrize("preset", sorted(SIMULATE_DIGESTS))
def test_simulate_preset_artifacts_are_pinned_with_float_repr(tmp_path, monkeypatch, preset):
    python_writer_only(monkeypatch)
    out = tmp_path / preset
    assert main(["simulate", "--preset", preset, "--seed", SEED, "--out-dir", str(out)]) == 0
    assert digests(out) == SIMULATE_DIGESTS[preset]


@pytest.mark.parametrize("preset", sorted(SIMULATE_DIGESTS))
def test_simulate_preset_artifacts_are_pinned_with_the_python_loop(tmp_path, monkeypatch, preset):
    python_route(monkeypatch)
    out = tmp_path / preset
    assert main(["simulate", "--preset", preset, "--seed", SEED, "--out-dir", str(out)]) == 0
    assert digests(out) == SIMULATE_DIGESTS[preset]


# how analyze reads the CSV: the compiled parse where the library loaded;
# float() with the parse unloaded; float() on a copy with "\r\n" line
# endings, which the compiled parse declines
@pytest.mark.parametrize(
    "preset, read",
    [
        pytest.param(preset, read, id=preset if read == "compiled" else f"{preset}-{read}")
        for preset in sorted(ANALYZE_DIGESTS)
        for read in ("compiled", "float", "crlf")
    ],
)
def test_analyze_artifacts_are_pinned(tmp_path, monkeypatch, preset, read):
    sim = tmp_path / "sim"
    assert main(["simulate", "--preset", preset, "--seed", SEED, "--out-dir", str(sim)]) == 0
    csv = sim / "trajectory.csv"
    if read == "float":
        monkeypatch.setattr(artifacts, "_PARSE", None)
    elif read == "crlf":
        csv = sim / "crlf.csv"
        csv.write_bytes((sim / "trajectory.csv").read_bytes().replace(b"\n", b"\r\n"))
    calls, parse_rows = [], artifacts._parse_rows
    monkeypatch.setattr(artifacts, "_parse_rows", lambda *args: calls.append(1) or parse_rows(*args))
    out = tmp_path / "analyze"
    assert main(["analyze", str(csv), "--out-dir", str(out)]) == 0
    if read != "compiled":
        assert calls == [1]  # the float() route read the rows
    assert {name: sha256(out / name) for name in ANALYZE_DIGESTS[preset]} == ANALYZE_DIGESTS[preset]


@pytest.mark.parametrize("preset", sorted(ANALYZE_DIGESTS))
def test_analyze_artifacts_are_pinned_with_float_repr(tmp_path, monkeypatch, preset):
    sim = tmp_path / "sim"
    assert main(["simulate", "--preset", preset, "--seed", SEED, "--out-dir", str(sim)]) == 0
    python_writer_only(monkeypatch)
    out = tmp_path / "analyze"
    assert main(["analyze", str(sim / "trajectory.csv"), "--out-dir", str(out)]) == 0
    assert {name: sha256(out / name) for name in ANALYZE_DIGESTS[preset]} == ANALYZE_DIGESTS[preset]


def test_complex_initial_state_artifacts_are_pinned(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(COMPLEX_STATE_CONFIG), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out-dir", str(out)]) == 0
    assert digests(out) == COMPLEX_STATE_DIGESTS


def test_sweep_csv_is_pinned(tmp_path):
    out = tmp_path / "sweep"
    assert main([*SWEEP_ARGV, "--out-dir", str(out)]) == 0
    assert sha256(out / "sweep.csv") == SWEEP_DIGEST


@pytest.mark.parametrize("batch", ["one", "per-point"])
@pytest.mark.parametrize("loop", ["compiled", "python"])
def test_sweep_csv_of_lane_groups_is_pinned(tmp_path, monkeypatch, capsys, loop, batch):
    if loop == "python":
        python_route(monkeypatch)
    if batch == "per-point":
        # a budget of one sample reads each point out on its own
        monkeypatch.setattr(cli, "_READOUT_SAMPLES", 1)
    out = tmp_path / "sweep"
    assert main([*SWEEP_9_ARGV, "--out-dir", str(out)]) == 0
    assert "skipping grid point 2" in capsys.readouterr().err
    assert sha256(out / "sweep.csv") == SWEEP_9_DIGEST
