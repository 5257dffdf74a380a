"""End-to-end CLI behavior: artifacts, determinism, error reporting."""

import json
import math
import os
import re
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from unsharp_monitor import artifacts, cli, trajectory
from unsharp_monitor.artifacts import (
    TRAJECTORY_COLUMNS,
    ArtifactError,
    json_safe,
    read_trajectory_csv,
)
from unsharp_monitor.cli import main
from unsharp_monitor.config import (
    MAX_M_SERIES,
    MAX_REPLICATES,
    SWEEP_AXES,
    SWEEP_BASE_KEYS,
    build_report,
    derive_seed,
    load_run_config,
)
from unsharp_monitor.povm import ParameterError
from unsharp_monitor.spectral import process_readout
from unsharp_monitor.trajectory import SeriesBoundWarning

from helpers import python_route

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

REPORT_KEYS = {
    "p1", "p2", "p0", "dp", "T_lr", "f", "n_min",
    "nbound_rhs", "nbound_ratio", "regime", "seed",
}

GRID = {"p0": [0.5], "dp": [0.08], "tau": [0.002], "n_per_series": [25]}

SMALL_CONFIG = {
    "p0": 0.5,
    "dp": 0.08,
    "tau": 0.002,
    "n_per_series": 25,
    "m_series": 48,
    "seed": 42,
}

# the keys of the `# config:` echo that simulate writes, and the values a
# test of analyze sets them to; DELETE removes the key
ECHO_KEYS = (
    "dp", "f_hi", "f_lo", "initial_state", "m_series", "n_per_series", "p0", "p1", "p2",
    "seed", "t_r", "tau", "truncation", "wiener",
)
DELETE = object()
ECHO_VALUES = (
    DELETE, 0, -1, 65, 2**70, 10**400, -10**400, 1e308, 1e-320, "x", "25", [1, 2], {}, None,
    True, 25.9,
)

# a run config that sets every key but out_dir and p1/p2, which the tests of
# simulate, report and sweep edit with the values below.  The sizes among
# those are small (m_series <= 8) or invalid: a valid m_series of 10**6,
# with many seeds, would run for hours
RUN_CONFIG = {
    **SMALL_CONFIG, "m_series": 8, "initial_state": {"c1": 1, "c2": 0}, "wiener": True,
    "truncation": True, "f_lo": 0.3, "f_hi": 5.0, "t_r": 1.0,
}
RUN_VALUES = (
    DELETE, 0, -1, 1, 4, 8, 0.5, -0.0, 25.9, 1e308, 1e-320, math.inf, math.nan, 2**20 + 1,
    10**6 + 1, 10**30, "x", "25", [1, 2], {}, None, True, False,
    {"c1": 0, "c2": 0}, {"c1": 1e-300, "c2": 0}, {"c1": 1e308, "c2": 1e308},
    {"c1": [0.6, 0], "c2": [0, 0.8]}, {"c1": 1},
)
# the values of a sweep's grid axes, and of its seeds_per_point, which is at
# most 4 where it is valid
AXIS_VALUES = (
    0.5, 0.08, -0.3, 0.002, 25, 8, 1, 0, -1, 1e308, 1e-320, math.nan, 2**20 + 1, 10**30,
    "x", None, True, [0.5], {},
)
SEEDS_PER_POINT = (DELETE, 0, -1, 1, 4, 4.0, 2.5, 2**20 + 1, 10**30, "4", None, True, [4])


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG), encoding="utf-8")
    return path


def run(args):
    return main([str(a) for a in args])


def exits_0_or_2(capsys, args) -> None:
    """``main(args)`` returns 0, or 2 with stderr an ``error: `` line and no traceback."""
    capsys.readouterr()
    status = run(args)
    err = capsys.readouterr().err
    assert status in (0, 2) and "Traceback" not in err
    if status == 2:
        assert err.startswith("error: "), err


def kept(edited: dict) -> dict:
    """``edited`` without the keys set to DELETE."""
    return {key: value for key, value in edited.items() if value is not DELETE}


class TestSimulate:
    def test_emits_all_artifacts(self, tmp_path, small_config):
        out = tmp_path / "out"
        assert run(["simulate", "--config", small_config, "--out-dir", out, "--gnuplot"]) == 0
        for name in ("trajectory.csv", "spectrum.json", "report.json", "plot.gp"):
            assert (out / name).exists()
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("# schema: unsharp-monitor/1")
        assert lines[1].startswith("# config: ")
        assert lines[2] == ",".join(TRAJECTORY_COLUMNS)
        assert len(lines) == 3 + SMALL_CONFIG["m_series"]

    def test_report_contents(self, tmp_path, small_config):
        out = tmp_path / "out"
        run(["simulate", "--config", small_config, "--out-dir", out])
        report = json.loads((out / "report.json").read_text())
        assert REPORT_KEYS <= set(report)
        assert report["regime"] == "intermediate"
        assert report["f"] == pytest.approx(0.98, rel=5e-3)
        assert report["nbound_ratio"] == pytest.approx(0.60, abs=0.01)
        assert report["n_min"] == 53
        assert report["seed"] == 42
        assert report["schema"] == "unsharp-monitor/1"

    def test_reruns_are_byte_identical(self, tmp_path, small_config):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(["simulate", "--config", small_config, "--out-dir", out_a])
        run(["simulate", "--config", small_config, "--out-dir", out_b])
        for name in ("trajectory.csv", "spectrum.json", "report.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize("engine", ["dilation", "exact", True, "povm"])
    def test_other_engine_values_rejected(self, tmp_path, capsys, engine):
        # the retired field is an unknown key now, "povm" included
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, "engine": engine}), encoding="utf-8")
        assert run(["simulate", "--config", bad, "--out-dir", tmp_path]) == 2
        assert "config field 'engine': unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["a1", "a2", "drive_omega"])
    def test_lab_frame_keys_rejected(self, tmp_path, capsys, field):
        # lab-frame metadata never reached an artifact; only t_r drives the model
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, field: 1.0}), encoding="utf-8")
        assert run(["simulate", "--config", bad, "--out-dir", tmp_path]) == 2
        assert f"config field '{field}': unknown key" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("field", ["wiener", "truncation"])
    def test_switches_must_be_json_bools(self, tmp_path, capsys, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, field: "false"}), encoding="utf-8")
        assert run(["simulate", "--config", bad, "--out-dir", tmp_path]) == 2
        assert f"config field '{field}':" in capsys.readouterr().err

    def test_seed_override_wins(self, tmp_path, small_config):
        out = tmp_path / "out"
        run(["simulate", "--config", small_config, "--out-dir", out, "--seed", "7"])
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 7

    def test_preset_fig1_report_values(self, tmp_path):
        out = tmp_path / "out"
        assert run(["report", "--preset", "fig1", "--out-dir", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["f"] == pytest.approx(0.07, abs=0.005)
        assert report["regime"] == "quantum_jump"

    def test_config_error_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, "tau": -1.0}), encoding="utf-8")
        assert run(["simulate", "--config", bad, "--out-dir", tmp_path]) == 2
        err = capsys.readouterr().err
        assert "tau" in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("tau", math.inf),
            ("tau", 10**400),
            ("n_per_series", 25.9),
            ("m_series", 50.5),
            ("seed", True),
            ("seed", -5),
            ("seed", 2**64),
        ],
    )
    def test_numeric_fields_are_strict(self, tmp_path, capsys, field, value):
        # no traceback from math.cos(inf), no silent truncation, no bool seed
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, field: value}), encoding="utf-8")
        assert run(["simulate", "--config", bad, "--out-dir", tmp_path]) == 2
        assert f"config field '{field}':" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("value", [MAX_M_SERIES + 1, 10**20])
    def test_oversized_run_rejected(self, tmp_path, capsys, value):
        # used to end in numpy's "Maximum allowed dimension exceeded"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, "m_series": value}), encoding="utf-8")
        assert run(["simulate", "--config", bad, "--out-dir", tmp_path]) == 2
        err = capsys.readouterr().err
        assert f"config field 'm_series': must be <= {MAX_M_SERIES}, got {value}" in err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dp", True),  # a bool is no number: used to run as dp = 1.0
            ("f_lo", "abc"),  # a string: used to end in a ValueError traceback
            ("t_r", None),
            ("p0", math.nan),
            ("f_hi", math.inf),
            ("dp", 10**400),
            ("p2", [0.5]),
        ],
        ids=["bool", "string", "null", "nan", "inf", "huge-int", "list"],
    )
    def test_float_fields_are_strict(self, tmp_path, capsys, field, value):
        data = {**SMALL_CONFIG, field: value}
        if field in ("p1", "p2"):
            del data["p0"], data["dp"]
            data = {"p1": 0.46, "p2": 0.54, **data}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        assert run(["simulate", "--config", bad, "--out-dir", tmp_path]) == 2
        assert f"config field '{field}': must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("value", [True, 3, ["runs"]], ids=["bool", "number", "list"])
    def test_out_dir_must_be_a_string(self, tmp_path, monkeypatch, capsys, value):
        # true used to write into ./True
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, "out_dir": value}), encoding="utf-8")
        assert run(["simulate", "--config", bad]) == 2
        assert "config field 'out_dir': must be a path string or null" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["bad.json"]

    @pytest.mark.parametrize("value, target", [("runs", "runs"), (None, ".")], ids=["string", "null"])
    def test_out_dir_string_or_null_is_accepted(self, tmp_path, monkeypatch, value, target):
        monkeypatch.chdir(tmp_path)
        good = tmp_path / "good.json"
        good.write_text(json.dumps({**SMALL_CONFIG, "out_dir": value}), encoding="utf-8")
        assert run(["simulate", "--config", good]) == 0
        assert (tmp_path / target / "trajectory.csv").exists()

    @pytest.mark.parametrize(
        "state, field",
        [
            ('{"c1": ["a", 0], "c2": 0}', "c1"),  # used to end in a ValueError traceback
            ('{"c1": true, "c2": 0}', "c1"),  # used to run as amplitude 1
            ('{"c1": 1, "c2": ["nan", 0]}', "c2"),  # used to name n_per_series/initial_state/seed
            ('{"c1": 1, "c2": [1e400, 0]}', "c2"),  # reads as inf
            ('{"c1": [0.6], "c2": 0.8}', "c1"),
        ],
        ids=["string", "bool", "nan-string", "overflow", "short-pair"],
    )
    def test_initial_state_amplitudes_are_strict(self, tmp_path, capsys, state, field):
        config_text = json.dumps(SMALL_CONFIG)[:-1] + f', "initial_state": {state}}}'
        bad = tmp_path / "bad.json"
        bad.write_text(config_text, encoding="utf-8")
        assert run(["simulate", "--config", bad, "--out-dir", tmp_path]) == 2
        err = capsys.readouterr().err
        assert f"config field 'initial_state.{field}': expected a finite number" in err
        assert "Traceback" not in err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("state", [{"c1": 0, "c2": 0}, {"c1": 2, "c2": 0}])
    def test_initial_state_must_be_a_unit_vector(self, tmp_path, capsys, state):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, "initial_state": state}), encoding="utf-8")
        assert run(["simulate", "--config", bad, "--out-dir", tmp_path]) == 2
        assert "config field 'initial_state':" in capsys.readouterr().err

    def test_initial_state_numbers_and_pairs_are_accepted(self, tmp_path):
        config = tmp_path / "config.json"
        state = {"c1": [0.6, 0], "c2": [0, 0.8]}
        config.write_text(json.dumps({**SMALL_CONFIG, "initial_state": state}), encoding="utf-8")
        assert run(["simulate", "--config", config, "--out-dir", tmp_path]) == 0
        echo = json.loads((tmp_path / "report.json").read_text())["config"]
        assert echo["initial_state"] == [[0.6, 0.0], [0.0, 0.8]]

    @pytest.mark.parametrize("field, value", [("tau", 0), ("t_r", 0.0), ("t_r", -2.0)])
    def test_times_must_be_positive(self, tmp_path, capsys, field, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, field: value}), encoding="utf-8")
        assert run(["simulate", "--config", bad, "--out-dir", tmp_path]) == 2
        assert f"config field '{field}': must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, overrides",
        [("t_r", {"t_r": 1e308}), ("t_r", {"t_r": 1e-320}), ("tau", {"tau": 1e-320})],
        ids=["huge-t_r", "tiny-t_r", "tiny-tau"],
    )
    def test_non_finite_frequency_axis_rejected(self, tmp_path, capsys, field, overrides):
        # these used to write "inf" frequencies with exit 0, or end in a traceback
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**SMALL_CONFIG, "m_series": 8, **overrides}), encoding="utf-8")
        assert run(["simulate", "--config", path, "--out-dir", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert f"config field '{field}':" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unknown_preset_rejected(self, tmp_path, capsys):
        assert run(["simulate", "--preset", "fig9", "--out-dir", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config field 'preset': unknown preset 'fig9'; ")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_int_float_fields_are_accepted(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "t_r": 1, "f_hi": 5}), encoding="utf-8")
        assert run(["simulate", "--config", config, "--out-dir", tmp_path]) == 0
        echo = json.loads((tmp_path / "report.json").read_text())["config"]
        assert echo["t_r"] == 1.0 and isinstance(echo["t_r"], float)
        assert echo["f_hi"] == 5.0 and isinstance(echo["f_hi"], float)

    def test_underflowing_split_rejected(self, tmp_path, capsys):
        # 3 dp^2 underflows to 0: used to end in a ZeroDivisionError traceback
        data = {key: SMALL_CONFIG[key] for key in ("tau", "n_per_series", "m_series")}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**data, "p1": 0, "p2": 5e-324}), encoding="utf-8")
        assert run(["simulate", "--config", bad, "--out-dir", tmp_path]) == 2
        assert "config field 'dp':" in capsys.readouterr().err

    def test_integral_float_counts_are_accepted(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({**SMALL_CONFIG, "n_per_series": 25.0, "m_series": 48.0}),
            encoding="utf-8",
        )
        assert run(["simulate", "--config", config, "--out-dir", tmp_path]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["n_per_series"] == 25
        assert report["config"]["m_series"] == 48

    def test_unknown_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, "taus": 0.1}), encoding="utf-8")
        assert run(["simulate", "--config", bad, "--out-dir", tmp_path]) == 2
        assert "taus" in capsys.readouterr().err

    def test_symmetric_split_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CONFIG, "dp": 0.0}), encoding="utf-8")
        assert run(["simulate", "--config", bad, "--out-dir", tmp_path]) == 2
        assert "dp" in capsys.readouterr().err

    def test_config_and_preset_are_exclusive(self, tmp_path, small_config, capsys):
        assert run(["simulate", "--config", small_config, "--preset", "fig1",
                    "--out-dir", tmp_path]) == 2

    def test_out_dir_from_config_file_with_flag_override(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({**SMALL_CONFIG, "out_dir": str(tmp_path / "from_config")}),
            encoding="utf-8",
        )
        run(["simulate", "--config", config])
        assert (tmp_path / "from_config" / "trajectory.csv").exists()
        run(["simulate", "--config", config, "--out-dir", tmp_path / "from_flag"])
        assert (tmp_path / "from_flag" / "trajectory.csv").exists()

    # up to three run-config keys set to one of RUN_VALUES or deleted; p1
    # or p2 takes the place of p0 and dp, unless the edits set those too
    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        edits=st.dictionaries(
            st.sampled_from((*ECHO_KEYS, "out_dir")), st.sampled_from(RUN_VALUES), max_size=3
        )
    )
    def test_any_run_config_exits_0_or_2(self, tmp_path, capsys, edits):
        config = dict(RUN_CONFIG)
        if "p1" in edits or "p2" in edits:
            del config["p0"], config["dp"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(kept({**config, **edits})), encoding="utf-8")
        for command in ("simulate", "report"):
            exits_0_or_2(capsys, [command, "--config", path, "--out-dir", tmp_path / command])


class TestReport:
    def test_prints_payload(self, tmp_path, capsys):
        assert run(["report", "--preset", "fig2", "--out-dir", tmp_path]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["regime"] == "rabi"
        assert payload["f"] == pytest.approx(62.8, rel=5e-3)
        assert REPORT_KEYS <= set(payload)
        # the bytes json.dump(json_safe(payload), stdout, indent=2) printed,
        # and the same text as report.json
        config = load_run_config(preset="fig2")
        expected = {"schema": "unsharp-monitor/1", "config": config.resolved()}
        expected.update(build_report(config))
        assert out == json.dumps(json_safe(expected), indent=2) + "\n"
        assert out == (tmp_path / "report.json").read_text(encoding="utf-8")


class TestAnalyze:
    def test_matches_simulate_artifacts(self, tmp_path, small_config):
        out = tmp_path / "out"
        run(["simulate", "--config", small_config, "--out-dir", out])
        assert run(["analyze", out / "trajectory.csv", "--out-dir", tmp_path / "an"]) == 0
        assert (tmp_path / "an" / "spectrum.json").read_bytes() == (out / "spectrum.json").read_bytes()
        _, sim = read_trajectory_csv(out / "trajectory.csv")
        _, ana = read_trajectory_csv(tmp_path / "an" / "processed.csv")
        assert np.array_equal(sim["g2_processed"], ana["g2_processed"])

    def test_idempotent_on_own_output(self, tmp_path, small_config):
        out = tmp_path / "out"
        run(["simulate", "--config", small_config, "--out-dir", out])
        run(["analyze", out / "trajectory.csv", "--out-dir", tmp_path / "an1"])
        run(["analyze", tmp_path / "an1" / "processed.csv", "--out-dir", tmp_path / "an2"])
        _, first = read_trajectory_csv(tmp_path / "an1" / "processed.csv")
        _, second = read_trajectory_csv(tmp_path / "an2" / "processed.csv")
        assert np.array_equal(first["g2_processed"], second["g2_processed"])

    def _write_plain_csv(self, path, values, dt=0.05, echo=None):
        lines = [",".join(TRAJECTORY_COLUMNS)]
        if echo is not None:
            lines.insert(0, "# config: " + json.dumps(echo))
        for i, value in enumerate(values, start=1):
            lines.append(f"{i},{i * dt!r},0.5,{float(value)!r},0.0")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_synthetic_tone_peak_located(self, tmp_path):
        m, k = 64, 5
        grid = np.arange(1, m + 1)
        csv = tmp_path / "tone.csv"
        self._write_plain_csv(csv, 0.5 + 0.4 * np.cos(2 * math.pi * k * grid / m))
        assert run(["analyze", csv, "--out-dir", tmp_path / "an"]) == 0
        payload = json.loads((tmp_path / "an" / "spectrum.json").read_text())
        assert payload["main_peak"]["index"] == k
        assert payload["main_peak"]["significant"] is True

    def test_white_noise_reports_no_significant_peak(self, tmp_path, capsys):
        csv = tmp_path / "noise.csv"
        self._write_plain_csv(csv, np.random.default_rng(1).normal(size=16))
        assert run(["analyze", csv, "--out-dir", tmp_path / "an"]) == 0
        payload = json.loads((tmp_path / "an" / "spectrum.json").read_text())
        assert payload["main_peak"]["significant"] is False
        assert "no significant peak" in capsys.readouterr().out

    @pytest.mark.parametrize("first_t", ["nan", "inf", "0.0", "-0.05"])
    def test_bad_fallback_dt_rejected(self, tmp_path, capsys, first_t):
        # with no config echo, dt is the first t_over_TR over its index
        csv = tmp_path / "plain.csv"
        self._write_plain_csv(csv, np.linspace(0.1, 0.9, 16))
        lines = csv.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].replace(",0.05,", f",{first_t},", 1)
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(["analyze", csv, "--out-dir", tmp_path / "an"]) == 2
        err = capsys.readouterr().err
        assert "dt = " in err and "Traceback" not in err
        assert not (tmp_path / "an" / "spectrum.json").exists()

    @pytest.mark.parametrize(
        "field, echo",
        [("tau", {"n_per_series": 25, "tau": 1e-320}), ("t_r", {"t_r": 1e-320})],
        ids=["tiny-tau", "tiny-t_r"],
    )
    def test_non_finite_frequency_axis_rejected(self, tmp_path, capsys, field, echo):
        # these used to write "inf" or "nan" frequencies with exit 0
        csv = tmp_path / "plain.csv"
        self._write_plain_csv(csv, [0.1, 0.9, 0.1, 0.9], echo=echo)
        assert run(["analyze", csv, "--out-dir", tmp_path / "an"]) == 2
        err = capsys.readouterr().err
        assert f"config field '{field}':" in err and "Traceback" not in err
        assert not (tmp_path / "an").exists()

    @pytest.mark.parametrize("rows", [1, 3])
    def test_too_few_rows_rejected(self, tmp_path, capsys, rows):
        # the readout's DFT takes four samples; the error names the file, not an array shape
        csv = tmp_path / "short.csv"
        self._write_plain_csv(csv, np.full(rows, 0.5))
        assert run(["analyze", csv, "--out-dir", tmp_path / "an"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {csv}: need at least 4 data rows for a spectrum, got {rows}\n"
        assert not (tmp_path / "an").exists()

    @pytest.mark.parametrize("rows", [4, 47])
    def test_rows_that_differ_from_the_echoed_m_series_rejected(
        self, tmp_path, small_config, capsys, rows
    ):
        # a file cut short would be analyzed, and echoed, as the run of 48 series
        run(["simulate", "--config", small_config, "--out-dir", tmp_path])
        csv = tmp_path / "trajectory.csv"
        lines = csv.read_text(encoding="utf-8").splitlines(keepends=True)
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        csv.write_text("".join(lines[: header + 1 + rows]), encoding="utf-8")
        assert run(["analyze", csv, "--out-dir", tmp_path / "an"]) == 2
        assert capsys.readouterr().err == (
            f"error: config field 'm_series': the echo gives 48, but {csv} has {rows} data rows\n"
        )
        assert not (tmp_path / "an").exists()

    def test_malformed_csv_reports_line_number(self, tmp_path, capsys):
        csv = tmp_path / "broken.csv"
        csv.write_text(
            ",".join(TRAJECTORY_COLUMNS) + "\n1,0.05,0.5,1.0,0.0\n2,0.1,oops,1.0,0.0\n",
            encoding="utf-8",
        )
        assert run(["analyze", csv, "--out-dir", tmp_path]) == 2
        assert ":3:" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["wiener", "truncation"])
    def test_echoed_switches_must_be_json_bools(self, tmp_path, small_config, capsys, field):
        out = tmp_path / "out"
        run(["simulate", "--config", small_config, "--out-dir", out])
        csv = out / "trajectory.csv"
        text = csv.read_text(encoding="utf-8")
        assert f'"{field}":true' in text
        csv.write_text(text.replace(f'"{field}":true', f'"{field}":"false"'), encoding="utf-8")
        assert run(["analyze", csv, "--out-dir", tmp_path / "an"]) == 2
        assert f"config field '{field}':" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("config echo", lambda echo: 5),
            ("n_per_series", lambda echo: {**echo, "n_per_series": "25"}),
            ("n_per_series", lambda echo: {**echo, "n_per_series": 0}),
            ("n_per_series", lambda echo: {**echo, "n_per_series": -25}),
            ("n_per_series", lambda echo: {**echo, "n_per_series": 10**400}),
            ("n_per_series", lambda echo: {**echo, "n_per_series": 65}),
            ("tau", lambda echo: {**echo, "tau": None}),
            ("t_r", lambda echo: {**echo, "t_r": "x"}),
            ("t_r", lambda echo: {**echo, "t_r": 0.0}),
        ],
        ids=[
            "not-an-object", "string-count", "zero-count", "negative-count",
            "huge-count", "count-above-max", "null-tau", "string-t_r", "zero-t_r",
        ],
    )
    def test_bad_config_echo_rejected(self, tmp_path, small_config, capsys, field, edit):
        out = tmp_path / "out"
        run(["simulate", "--config", small_config, "--out-dir", out])
        csv = out / "trajectory.csv"
        lines = csv.read_text(encoding="utf-8").splitlines()
        assert lines[1].startswith("# config: ")
        lines[1] = "# config: " + json.dumps(edit(json.loads(lines[1][len("# config: "):])))
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(["analyze", csv, "--out-dir", tmp_path / "an"]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not (tmp_path / "an" / "spectrum.json").exists()

    # each echo key set to one of these values, deleted, or left alone; 10**400
    # does not fit a float, and an n_per_series that big once escaped as an
    # OverflowError traceback
    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(edits=st.dictionaries(st.sampled_from(ECHO_KEYS), st.sampled_from(ECHO_VALUES)))
    @example(edits={"n_per_series": 10**400})
    def test_any_config_echo_exits_0_or_2(self, tmp_path, small_config, capsys, edits):
        # one simulate for every example: the fixtures live for the whole test
        csv, out = tmp_path / "trajectory.csv", tmp_path / "an"
        if not csv.exists():
            assert run(["simulate", "--config", small_config, "--out-dir", tmp_path]) == 0
        lines = csv.read_text(encoding="utf-8").splitlines()
        echo = json.loads(lines[1][len("# config: "):])
        assert set(echo) == set(ECHO_KEYS)
        for key, value in edits.items():
            if value is DELETE:
                del echo[key]
            else:
                echo[key] = value
        edited = tmp_path / "edited.csv"
        edited.write_text(
            "\n".join([lines[0], "# config: " + json.dumps(echo), *lines[2:]]) + "\n",
            encoding="utf-8",
        )
        exits_0_or_2(capsys, ["analyze", edited, "--out-dir", out])

    # replace, insert and delete bytes of a written trajectory CSV, the new
    # bytes drawn from the characters of its numbers, rows and echo
    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        edits=st.lists(
            st.tuples(
                st.sampled_from(["replace", "insert", "delete"]),
                st.floats(0.0, 1.0, exclude_max=True),
                st.sampled_from(b'0123456789.,-+eE\n\r#:{}"nai '),
            ),
            max_size=6,
        ),
        lines=st.integers(0, 40),
    )
    def test_any_byte_edit_of_the_csv_exits_0_or_2(self, tmp_path, capsys, edits, lines):
        # one simulate for every example: the fixtures live for the whole test
        csv, out = tmp_path / "trajectory.csv", tmp_path / "an"
        if not csv.exists():
            config = tmp_path / "config.json"
            config.write_text(json.dumps({**SMALL_CONFIG, "m_series": 8}), encoding="utf-8")
            assert run(["simulate", "--config", config, "--out-dir", tmp_path]) == 0
        data = bytearray(csv.read_bytes())
        for kind, where, byte in edits:
            at = int(where * (len(data) + (kind == "insert")))
            if kind == "insert":
                data.insert(at, byte)
            elif data:
                if kind == "replace":
                    data[at] = byte
                else:
                    del data[at]
        edited = tmp_path / "edited.csv"
        edited.write_bytes(b"".join(data.splitlines(keepends=True)[:lines]))
        exits_0_or_2(capsys, ["analyze", edited, "--out-dir", out])

    def test_partial_echo_switches_are_read(self, tmp_path, small_config):
        # the switches used to be read only from an echo with n_per_series and tau
        out = tmp_path / "out"
        run(["simulate", "--config", small_config, "--out-dir", out])
        _, columns = read_trajectory_csv(out / "trajectory.csv")
        csv = tmp_path / "partial.csv"
        lines = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()
        lines[1] = "# config: " + json.dumps({"wiener": False, "truncation": False})
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(["analyze", csv, "--out-dir", tmp_path / "an"]) == 0
        payload = json.loads((tmp_path / "an" / "spectrum.json").read_text())
        assert payload["config"] == {"wiener": False, "truncation": False}
        assert payload["wiener_weights"] is None
        dt = float(columns["t_over_TR"][0] / columns["m"][0])
        _, unfiltered = process_readout(columns["g2"], dt, wiener=False, truncation=False)
        assert payload["processed_readout"] == unfiltered.tolist()

    def test_time_column_is_in_rabi_periods(self, tmp_path):
        # at t_r = 2 the column holds t_m / T_R, and analyze recovers the
        # spacing n * tau from it when the echo lacks n_per_series and tau
        config = {**SMALL_CONFIG, "tau": 0.004, "m_series": 8, "t_r": 2.0}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "out"
        assert run(["simulate", "--config", path, "--out-dir", out]) == 0
        echo, columns = read_trajectory_csv(out / "trajectory.csv")
        assert np.array_equal(columns["t_over_TR"], np.arange(1, 9) * (25 * 0.004) / 2.0)
        assert columns["t_over_TR"][0] == pytest.approx(0.05, rel=1e-12)

        partial = tmp_path / "partial.csv"
        lines = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()
        del echo["n_per_series"], echo["tau"]
        lines[1] = "# config: " + json.dumps(echo)
        partial.write_text("\n".join(lines) + "\n", encoding="utf-8")
        payloads = []
        for csv, target in ((out / "trajectory.csv", "full"), (partial, "partial")):
            assert run(["analyze", csv, "--out-dir", tmp_path / target]) == 0
            payload = json.loads((tmp_path / target / "spectrum.json").read_text())
            del payload["config"]
            payloads.append(payload)
        assert payloads[0]["dt"] == 25 * 0.004
        assert payloads[0] == payloads[1]

    def test_missing_header_rejected(self, tmp_path, capsys):
        csv = tmp_path / "broken.csv"
        csv.write_text("1,0.05,0.5,1.0,0.0\n", encoding="utf-8")
        assert run(["analyze", csv, "--out-dir", tmp_path]) == 2
        assert "header" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_g2_rejected(self, tmp_path, capsys, value):
        # one such field used to turn the whole processed readout into NaN, exit 0
        out = tmp_path / "out"
        assert run(["simulate", "--preset", "fig3", "--seed", "7", "--out-dir", out]) == 0
        csv = out / "trajectory.csv"
        lines = csv.read_text(encoding="utf-8").splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("7,"))
        fields = lines[row].split(",")
        fields[TRAJECTORY_COLUMNS.index("g2")] = value
        lines[row] = ",".join(fields)
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(["analyze", csv, "--out-dir", tmp_path / "an"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {csv}: g2 must be finite, got {value} in series m = 7\n"
        assert not (tmp_path / "an").exists()

    def test_a_g2_whose_spectrum_overflows_is_rejected(self, tmp_path, capsys):
        # a finite 1e200 overflows the power |a_l|^2; it used to warn, write
        # quoted non-finite values and exit 0
        out = tmp_path / "out"
        assert run(["simulate", "--preset", "fig3", "--seed", "3", "--out-dir", out]) == 0
        csv = out / "trajectory.csv"
        lines = csv.read_text(encoding="utf-8").splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("1,"))
        fields = lines[row].split(",")
        fields[TRAJECTORY_COLUMNS.index("g2")] = "1e200"
        lines[row] = ",".join(fields)
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["analyze", csv, "--out-dir", tmp_path / "an"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {csv}: g2 too large for a spectrum: overflow")
        assert err.count("\n") == 1
        assert not (tmp_path / "an").exists()

    @pytest.mark.parametrize("route", ["compiled", "python"])
    def test_a_g2_whose_readout_overflows_is_rejected(self, tmp_path, capsys, monkeypatch, route):
        # a pulse of 10 * 1e154 in 10 series: every power |a_l|^2 is a finite
        # 1e308, and 3 x their median overflows.  The compiled pass declines
        # it, and numpy raises, as it does on the Python route
        if route == "python":
            python_route(monkeypatch)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "m_series": 10}), encoding="utf-8")
        out = tmp_path / "out"
        assert run(["simulate", "--config", config, "--out-dir", out]) == 0
        csv = out / "trajectory.csv"
        lines = csv.read_text(encoding="utf-8").splitlines()
        column = TRAJECTORY_COLUMNS.index("g2")
        for row in range(3, len(lines)):
            fields = lines[row].split(",")
            fields[column] = "1e155" if row == 3 else "0.0"
            lines[row] = ",".join(fields)
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["analyze", csv, "--out-dir", tmp_path / "an"]) == 2
        err = capsys.readouterr().err
        message = "g2 too large for a spectrum: overflow encountered in multiply"
        assert err == f"error: {csv}: {message}\n"
        assert not (tmp_path / "an").exists()


def read_sweep(path):
    header = None
    rows = []
    footer = None
    for line in path.read_text().splitlines():
        if line.startswith("# skipped_points:"):
            footer = int(line.split(":")[1])
        elif line.startswith("#"):
            continue
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return rows, footer


class TestSweep:
    # 1-2 values per grid axis, each its RUN_CONFIG value or one of
    # AXIS_VALUES, and up to two axes set to no values, deleted or set to
    # one of RUN_VALUES; up to three base keys set to one of RUN_VALUES or
    # deleted, except that m_series stays (its default, 200 series, is no
    # small size); p1 is no base key
    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        grid=st.fixed_dictionaries({
            axis: st.lists(
                st.just(RUN_CONFIG[axis]) | st.sampled_from(AXIS_VALUES), min_size=1, max_size=2
            )
            for axis in SWEEP_AXES
        }),
        axis_edits=st.dictionaries(
            st.sampled_from(SWEEP_AXES), st.sampled_from(([], *RUN_VALUES)), max_size=2
        ),
        base=st.dictionaries(
            st.sampled_from(sorted({*SWEEP_BASE_KEYS, "p1"})), st.sampled_from(RUN_VALUES),
            max_size=3,
        ),
        seeds_per_point=st.sampled_from(SEEDS_PER_POINT),
    )
    def test_any_sweep_spec_exits_0_or_2(
        self, tmp_path, capsys, grid, axis_edits, base, seeds_per_point
    ):
        if base.get("m_series", DELETE) is DELETE:
            base["m_series"] = 8
        spec = kept({
            "grid": kept({**grid, **axis_edits}), "base": kept(base),
            "seeds_per_point": seeds_per_point,
        })
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        exits_0_or_2(capsys, ["sweep", "--config", path, "--out-dir", tmp_path / "sw"])

    def test_split_sweep_reproduces_published_fuzziness(self, tmp_path):
        out = tmp_path / "sw"
        assert run([
            "sweep", "--p0", "0.5", "--dp", "0.01,0.08,0.3", "--tau", "0.002",
            "--n", "25", "--m", "48", "--seed", "7", "--out-dir", out,
        ]) == 0
        rows, skipped = read_sweep(out / "sweep.csv")
        assert skipped == 0
        fs = [float(row["f"]) for row in rows]
        assert fs[0] == pytest.approx(62.8, rel=5e-3)
        assert fs[1] == pytest.approx(0.98, rel=5e-3)
        assert fs[2] == pytest.approx(0.07, rel=5e-3)
        assert [row["regime"] for row in rows] == ["rabi", "intermediate", "quantum_jump"]

    def test_single_point_matches_simulate(self, tmp_path):
        out = tmp_path / "sw"
        run([
            "sweep", "--p0", "0.5", "--dp", "0.08", "--tau", "0.002",
            "--n", "25", "--m", "48", "--seed", "11", "--out-dir", out,
        ])
        rows, _ = read_sweep(out / "sweep.csv")
        row = rows[0]
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({**SMALL_CONFIG, "seed": int(row["seed"])}), encoding="utf-8"
        )
        sim_out = tmp_path / "sim"
        run(["simulate", "--config", config, "--out-dir", sim_out])
        report = json.loads((sim_out / "report.json").read_text())
        assert float(row["f"]) == report["f"]
        assert row["regime"] == report["regime"]
        _, columns = read_trajectory_csv(sim_out / "trajectory.csv")
        corr = float(np.corrcoef(columns["g2"], columns["c2_sq"])[0, 1])
        assert float(row["corr_raw"]) == pytest.approx(corr, abs=1e-12)

    @pytest.mark.parametrize("budget", [1, 2 * 5 * 40], ids=["per-point", "two-points"])
    def test_readout_batches_give_the_rows_of_one_batch(self, tmp_path, monkeypatch, budget):
        # the points differ in dt (tau and n), and one is skipped: a batch
        # must read each point's peak on that point's own frequency axis
        argv = [
            "sweep", "--p0", "0.5", "--dp=-0.3,0.08,1.5", "--tau", "0.002,0.005",
            "--n", "5,9", "--m", "40", "--seeds-per-point", "5", "--seed", "3",
        ]
        assert run([*argv, "--out-dir", tmp_path / "one"]) == 0
        monkeypatch.setattr(cli, "_READOUT_SAMPLES", budget)
        assert run([*argv, "--out-dir", tmp_path / "split"]) == 0
        one = (tmp_path / "one" / "sweep.csv").read_bytes()
        assert one == (tmp_path / "split" / "sweep.csv").read_bytes()
        rows, _ = read_sweep(tmp_path / "one" / "sweep.csv")
        assert len(rows) == 8 and len({row["peak_freq_error"] for row in rows}) > 1

    def test_invalid_points_are_skipped_with_footer(self, tmp_path, capsys):
        out = tmp_path / "sw"
        assert run([
            "sweep", "--p0", "0.9", "--dp", "0.3,0.08", "--tau", "0.002",
            "--n", "25", "--m", "48", "--out-dir", out,
        ]) == 0
        rows, skipped = read_sweep(out / "sweep.csv")
        assert skipped == 1
        assert len(rows) == 1
        assert "skipping grid point" in capsys.readouterr().err

    def test_bad_base_named_when_every_point_is_skipped(self, tmp_path, capsys):
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps({"base": {"wiener": "no"}}), encoding="utf-8")
        assert run([
            "sweep", "--config", spec, "--p0", "0.9", "--dp", "0.3", "--tau", "0.002",
            "--n", "5", "--out-dir", tmp_path,
        ]) == 2
        err = capsys.readouterr().err
        assert "config field 'wiener':" in err and "skipping" not in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_non_finite_frequency_axis_stops_or_skips(self, tmp_path, capsys):
        # a base t_r that overflows the axis ratio used to write peak_freq_error inf
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps({"base": {"t_r": 1e308, "m_series": 16}}), encoding="utf-8")
        argv = ["sweep", "--config", spec, "--p0", "0.5", "--dp", "0.08", "--n", "25"]
        assert run([*argv, "--tau", "0.002", "--out-dir", tmp_path / "base"]) == 2
        err = capsys.readouterr().err
        assert "config field 't_r':" in err and "skipping" not in err
        assert not (tmp_path / "base").exists()
        # a point's own tau: skipped, the others run
        spec.write_text(json.dumps({"base": {"m_series": 16}}), encoding="utf-8")
        assert run([*argv, "--tau", "1e-320,0.002", "--out-dir", tmp_path / "point"]) == 0
        rows, skipped = read_sweep(tmp_path / "point" / "sweep.csv")
        assert (len(rows), skipped) == (1, 1)
        assert "config field 'tau':" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_bad_seeds_per_point_flag_rejected(self, tmp_path, capsys, value):
        assert run([
            "sweep", "--p0", "0.5", "--dp", "0.08", "--tau", "0.002", "--n", "25",
            "--m", "48", "--seeds-per-point", value, "--out-dir", tmp_path,
        ]) == 2
        assert "config field 'seeds_per_point':" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("where", ["simulate_replicates", "process_readouts"])
    def test_a_point_that_cannot_be_allocated_is_named(self, tmp_path, capsys, monkeypatch, where):
        # as numpy fails a point of 10**6 seeds x 10**6 series, which no test allocates
        def unallocatable(*args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array of shape (10**6, 10**6)")

        monkeypatch.setattr(cli, where, unallocatable)
        assert run([
            "sweep", "--p0", "0.5", "--dp", "0.1", "--tau", "0.002", "--n", "5",
            "--m", "16", "--seeds-per-point", "3", "--out-dir", tmp_path,
        ]) == 2
        assert capsys.readouterr().err == (
            "error: config field 'seeds_per_point': 3 replicates x m_series = 16 samples"
            " per point cannot be allocated\n"
        )
        assert not (tmp_path / "sweep.csv").exists()

    def test_derived_seeds_are_distinct(self):
        # splitmix64 is a bijection of its 64-bit input, index << 20 | replicate
        top = MAX_REPLICATES - 1
        pairs = [(index, replicate) for index in range(64) for replicate in range(64)]
        pairs += [(0, top), (1, top), (2**44 - 1, 0), (2**44 - 1, top)]
        seeds = {derive_seed(7, index, replicate) for index, replicate in pairs}
        assert len(seeds) == len(pairs) and all(0 <= seed < 2**64 for seed in seeds)
        assert derive_seed(7, 3, 5) == derive_seed(7, 3, 5) != derive_seed(8, 3, 5)
        with pytest.raises(ParameterError, match="replicate = 1048576"):
            derive_seed(7, 0, 2**20)

    def test_non_numeric_axis_flag_rejected(self, tmp_path, capsys):
        argv = ["sweep", "--p0", "abc", *SMALL_SWEEP[2:], "--out-dir", tmp_path / "out"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: config field 'p0': expected comma-separated numbers, got 'abc'\n"
        assert list(tmp_path.iterdir()) == []

    def test_fractional_series_length_flag_rejected(self, tmp_path, capsys):
        assert run([
            "sweep", "--p0", "0.5", "--dp", "0.08", "--tau", "0.002", "--n", "25.5",
            "--m", "48", "--out-dir", tmp_path,
        ]) == 2
        assert "config field 'n':" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("value", [MAX_M_SERIES + 1, 10**20])
    def test_oversized_run_flag_rejected(self, tmp_path, capsys, value):
        assert run([
            "sweep", "--p0", "0.5", "--dp", "0.1", "--tau", "0.002", "--n", "25",
            "--m", value, "--out-dir", tmp_path,
        ]) == 2
        err = capsys.readouterr().err
        assert "config field 'm_series':" in err and "skipping" not in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_bool_base_seed_rejected(self, tmp_path, capsys):
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps({
            "grid": {"p0": [0.5], "dp": [0.08], "tau": [0.002], "n_per_series": [25]},
            "base": {"m_series": 48, "seed": True},
        }), encoding="utf-8")
        assert run(["sweep", "--config", spec, "--out-dir", tmp_path]) == 2
        assert "config field 'seed':" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [-5, 2**64, 2**65])
    def test_out_of_range_seed_flag_rejected(self, tmp_path, capsys, value):
        assert run([
            "sweep", "--p0", "0.5", "--dp", "0.08", "--tau", "0.002", "--n", "25",
            "--m", "48", "--seed", value, "--seeds-per-point", "2", "--out-dir", tmp_path,
        ]) == 2
        assert "config field 'seed':" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "spec, field",
        [
            ([1, 2], "config"),
            ({"grid": [1]}, "grid"),
            ({"grid": GRID, "base": [1]}, "base"),
            ({"grid": {**GRID, "p0": 0.5}}, "p0"),
            ({"grid": {**GRID, "dp": []}}, "dp"),
            ({"grid": GRID, "base": {"seed": -3}}, "seed"),
            ({"grid": GRID, "extra": 1}, "extra"),
            ({"grid": {**GRID, "m_series": [64]}}, "grid.m_series"),
            ({"grid": GRID, "base": {"p1": 0.1, "p2": 0.9, "tau": 0.5}}, "base.p1"),
            ({"grid": GRID, "base": {"engine": "povm"}}, "base.engine"),
            ({"grid": GRID, "base": {"tau": 0.5}}, "base.tau"),
            ({"grid": GRID, "base": {"out_dir": "runs"}}, "base.out_dir"),
            # not about a point's own axis values, so no point is skipped for it
            ({"grid": GRID, "base": {"m_series": 2}}, "m_series"),
            ({"grid": GRID, "base": {"wiener": "no"}}, "wiener"),
            ({"grid": GRID, "base": {"f_lo": 9.0}}, "f_lo"),
        ],
    )
    def test_malformed_spec_rejected(self, tmp_path, capsys, spec, field):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert run(["sweep", "--config", path, "--out-dir", tmp_path]) == 2
        assert f"config field '{field}':" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("value", [0, -2, 1.5, "3", 2**20 + 1])
    def test_bad_seeds_per_point_spec_rejected(self, tmp_path, capsys, value):
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps({
            "grid": {"p0": [0.5], "dp": [0.08], "tau": [0.002], "n_per_series": [25]},
            "base": {"m_series": 48},
            "seeds_per_point": value,
        }), encoding="utf-8")
        assert run(["sweep", "--config", spec, "--out-dir", tmp_path]) == 2
        assert "config field 'seeds_per_point':" in capsys.readouterr().err

    def test_integral_float_seeds_per_point_is_a_count(self, tmp_path):
        outputs = []
        for value in (3, 3.0):
            spec = tmp_path / "grid.json"
            spec.write_text(json.dumps({
                "grid": GRID, "base": {"m_series": 48}, "seeds_per_point": value,
            }), encoding="utf-8")
            out = tmp_path / str(value)
            assert run(["sweep", "--config", spec, "--out-dir", out]) == 0
            outputs.append((out / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_replicates_repeat_no_warning(self, tmp_path):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert run([
                "sweep", "--p0", "0.5", "--dp=-0.3", "--tau", "0.002", "--n", "25",
                "--m", "48", "--seeds-per-point", "3", "--out-dir", tmp_path,
            ]) == 0
        assert [w.category for w in record] == [SeriesBoundWarning]
        assert record[0].filename.endswith("config.py")

    def test_a_sweep_parses_its_base_once_and_each_regime_once(self, tmp_path, monkeypatch):
        bases, regimes = [], []
        parse, evaluate = cli.run_base_from_dict, trajectory.evaluate_regime
        monkeypatch.setattr(cli, "run_base_from_dict", lambda *a: bases.append(a) or parse(*a))
        monkeypatch.setattr(
            trajectory, "evaluate_regime", lambda *a: regimes.append(a) or evaluate(*a)
        )
        assert run([
            "sweep", "--p0", "0.5", "--dp", "0.08,0.3", "--tau", "0.002", "--n", "5,25",
            "--m", "16", "--out-dir", tmp_path,
        ]) == 0
        # the stand-in point and the four points each evaluate their regime once
        assert (len(bases), len(regimes)) == (1, 5)

    def test_grid_spec_file(self, tmp_path):
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps({
            "grid": {"p0": [0.5], "dp": [0.08], "tau": [0.002], "n_per_series": [25]},
            "base": {"m_series": 48, "seed": 5},
            "seeds_per_point": 2,
        }), encoding="utf-8")
        out = tmp_path / "sw"
        assert run(["sweep", "--config", spec, "--out-dir", out]) == 0
        rows, skipped = read_sweep(out / "sweep.csv")
        assert len(rows) == 1 and skipped == 0

    def test_missing_axis_rejected(self, tmp_path, capsys):
        assert run(["sweep", "--p0", "0.5", "--out-dir", tmp_path]) == 2
        assert "dp" in capsys.readouterr().err


SMALL_SWEEP = ["--p0", "0.5", "--dp", "0.08", "--tau", "0.002", "--n", "25", "--m", "48"]


class TestFileErrors:
    """An unreadable input or unwritable output exits 2 naming it, no traceback."""

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_config_that_is_a_directory_rejected(self, tmp_path, capsys, command):
        extra = SMALL_SWEEP if command == "sweep" else []
        assert run([command, "--config", tmp_path, *extra, "--out-dir", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field 'config': cannot read {tmp_path}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_missing_config_rejected(self, tmp_path, capsys, command):
        config = tmp_path / "missing.json"
        extra = SMALL_SWEEP if command == "sweep" else []
        assert run([command, "--config", config, *extra, "--out-dir", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: config field 'config': file not found: {config}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_csv_that_cannot_be_read_rejected(self, tmp_path, capsys, kind):
        csv = tmp_path / "trajectory.csv"
        if kind == "directory":
            csv.mkdir()
        assert run(["analyze", csv, "--out-dir", tmp_path / "an"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {csv}: ") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == ([csv] if kind == "directory" else [])

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_config_that_is_not_utf8_rejected(self, tmp_path, capsys, command):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"p0": 0.5, "note": "\xff"}')
        extra = SMALL_SWEEP if command == "sweep" else []
        assert run([command, "--config", config, *extra, "--out-dir", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field 'config': {config} is not UTF-8 text: ")

    @pytest.mark.parametrize("command", ["simulate", "sweep", "analyze"])
    def test_an_integer_of_too_many_digits_rejected(self, tmp_path, capsys, small_config, command):
        # json.loads raises ValueError, not JSONDecodeError, past int()'s digit limit
        huge = '"n_per_series": ' + "9" * 5000
        if command == "analyze":
            assert run(["simulate", "--config", small_config, "--out-dir", tmp_path]) == 0
            path = tmp_path / "trajectory.csv"
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace('"n_per_series":25', huge), encoding="utf-8")
            argv = ["analyze", path]
        else:
            path = tmp_path / "config.json"
            path.write_text(small_config.read_text(encoding="utf-8").replace(
                '"n_per_series": 25', huge), encoding="utf-8")
            argv = [command, "--config", path, *(SMALL_SWEEP if command == "sweep" else [])]
        capsys.readouterr()
        assert run([*argv, "--out-dir", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["preamble", "data-row"])
    def test_csv_that_is_not_utf8_rejected(self, tmp_path, capsys, small_config, where):
        out = tmp_path / "out"
        assert run(["simulate", "--config", small_config, "--out-dir", out]) == 0
        csv = out / "trajectory.csv"
        lines = csv.read_bytes().split(b"\n")
        row = 0 if where == "preamble" else 7
        lines[row] += b"\xff"
        csv.write_bytes(b"\n".join(lines))
        assert run(["analyze", csv, "--out-dir", tmp_path / "an"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {csv}: not UTF-8 text: ")

    @pytest.mark.parametrize("command", ["simulate", "report", "sweep", "analyze"])
    def test_out_dir_that_is_a_file_rejected(self, tmp_path, capsys, small_config, command):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        argv = {
            "simulate": ["simulate", "--config", small_config],
            "report": ["report", "--config", small_config],
            "sweep": ["sweep", *SMALL_SWEEP],
            "analyze": ["analyze", tmp_path / "sim" / "trajectory.csv"],
        }[command]
        assert run(["simulate", "--config", small_config, "--out-dir", tmp_path / "sim"]) == 0
        capsys.readouterr()
        assert run([*argv, "--out-dir", taken]) == 2
        err = capsys.readouterr().err
        assert err == f"error: config field 'out_dir': cannot make directory {taken}: File exists\n"

    def test_artifact_that_cannot_be_written_rejected(self, tmp_path, capsys, small_config):
        (tmp_path / "out" / "trajectory.csv").mkdir(parents=True)
        assert run(["simulate", "--config", small_config, "--out-dir", tmp_path / "out"]) == 2
        target = tmp_path / "out" / "trajectory.csv"
        assert capsys.readouterr().err == f"error: cannot write {target}: Is a directory\n"

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_an_artifact_in_the_way_leaves_no_file_behind(
        self, tmp_path, capsys, small_config, command
    ):
        # the blocked path is the command's last artifact: none is written
        assert run(["simulate", "--config", small_config, "--out-dir", tmp_path / "sim"]) == 0
        out = tmp_path / "an"
        argv, blocked = {
            "simulate": (["simulate", "--config", small_config, "--gnuplot"], out / "plot.gp"),
            "analyze": (["analyze", tmp_path / "sim" / "trajectory.csv"], out / "processed.csv"),
        }[command]
        blocked.mkdir(parents=True)
        capsys.readouterr()
        assert run([*argv, "--out-dir", out]) == 2
        assert capsys.readouterr().err == f"error: cannot write {blocked}: Is a directory\n"
        assert list(out.iterdir()) == [blocked]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    def test_a_target_that_is_not_a_regular_file_is_named(self, tmp_path):
        fifo, absent = tmp_path / "spectrum.json", tmp_path / "processed.csv"
        os.mkfifo(fifo)
        message = f"^cannot write {re.escape(str(fifo))}: not a regular file$"
        with pytest.raises(ArtifactError, match=message):
            artifacts.check_targets([absent, fifo])
        artifacts.check_targets([absent, tmp_path / "missing" / "report.json"])


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch, small_config):
    # main builds its parser once per process; each call, whatever the
    # command before it, must parse and run as with a parser of its own
    out = tmp_path / "out"
    argvs = [
        ["report", "--preset", "fig2", "--seed", "3"],
        ["simulate", "--config", small_config, "--out-dir", out / "sim"],
        ["analyze", out / "sim" / "trajectory.csv", "--out-dir", out / "an"],
        ["sweep", *SMALL_SWEEP, "--seed", "5", "--out-dir", out / "sweep"],
        ["report", "--preset", "fig1"],
    ]
    argvs = [[str(arg) for arg in argv] for argv in argvs]
    fresh_parser = cli._build_parser.__wrapped__

    def run_all() -> list:
        shutil.rmtree(out, ignore_errors=True)
        results = []
        for argv in argvs:
            code = main(argv)
            files = {path.relative_to(out): path.read_bytes() for path in out.rglob("*.*")}
            results.append((code, capsys.readouterr(), files))
        return results

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_build_parser", fresh_parser)
        fresh = run_all()
    cli._build_parser.cache_clear()
    cached = run_all()
    assert cli._build_parser.cache_info().misses == 1
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0] * len(argvs)
    for argv in argvs:
        assert cli._build_parser().parse_args(argv) == fresh_parser().parse_args(argv)
