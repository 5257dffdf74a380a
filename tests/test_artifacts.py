"""The bulk artifact writer against the per-value code it replaced, byte for byte.

``dump_json`` must spell every payload exactly as
``json.dumps(json_safe(payload), indent=2) + "\\n"`` does, and
``write_trajectory_csv`` every row exactly as one ``fmt`` call per value did.
``read_trajectory_csv`` must name the line of any malformed data row.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from unsharp_monitor.artifacts import (
    ArtifactError,
    dump_json,
    fmt,
    json_safe,
    read_trajectory_csv,
    spectrum_payload,
    write_json,
    write_trajectory_csv,
)
from unsharp_monitor.config import load_run_config
from unsharp_monitor.spectral import process_readout
from unsharp_monitor.trajectory import simulate_trajectory

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1]

floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
float_arrays = arrays(np.float64, st.integers(0, 12), elements=floats)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | floats
    | st.text()
    | st.sampled_from(['say "hi"', "back\\slash", "tab\tnew\nline\x00", "Rabi Ω ≈ 2π/T", "😀"])
    | floats.map(np.float64)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
)
payloads = st.recursive(
    scalars | float_arrays,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=6), children, max_size=4)
    ),
    max_leaves=24,
)


def reference_json(payload) -> str:
    return json.dumps(json_safe(payload), indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(payloads)
@example({"a": np.array([]), "b": [], "c": {}, "d": np.array([-0.0, math.nan, -math.inf])})
@example(np.array([[1.0, 2.0], [3.0, math.inf]]))
@example({"n": np.arange(3), "x": np.float64(0.5)})
def test_dump_json_is_the_json_module_text(payload):
    assert dump_json(payload) == reference_json(payload)


def test_dump_json_rejects_keys_json_would_convert():
    with pytest.raises(TypeError):
        dump_json({1: 0.5})


def reference_rows(m, t, c2_sq, g2, g2_processed) -> list[str]:
    """The writer's old loop: one ``fmt`` call per value."""
    return [
        f"{int(m[i])},{fmt(t[i])},{fmt(c2_sq[i])},{fmt(g2[i])},{fmt(g2_processed[i])}"
        for i in range(len(m))
    ]


def data_rows(path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()[3:]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 30).flatmap(lambda n: st.tuples(*[arrays(np.float64, n, elements=floats)] * 4)))
@example((np.array([-0.0, math.nan]), np.array([0.0, -0.0]),
          np.array([math.nan, 1e16]), np.array([5e-324, -math.inf])))
def test_trajectory_rows_match_the_per_value_loop(tmp_path_factory, columns):
    path = tmp_path_factory.mktemp("rows") / "trajectory.csv"
    m = np.arange(1, len(columns[0]) + 1)
    write_trajectory_csv(path, m, *columns, {"seed": 1})
    assert data_rows(path) == reference_rows(m, *columns)


def _is_number_text(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# field texts that float() rejects; no comma or line break, and no leading
# "#" (a row turned comment is a kind of its own)
non_numbers = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"), blacklist_characters=","),
    max_size=8,
).filter(lambda text: not text.startswith("#") and not _is_number_text(text))
number_texts = st.floats().map(repr) | st.integers(-3, 3).map(str)


@st.composite
def corrupted_rows(draw, fields: list[str], index: int) -> list[str]:
    """``fields`` of data row ``index`` (1-based) made malformed one way."""
    fields = list(fields)
    kind = draw(st.sampled_from(["missing", "extra", "not-a-number", "index", "comment"]))
    if kind == "missing":
        del fields[draw(st.integers(0, len(fields) - 1))]
    elif kind == "extra":
        fields.insert(draw(st.integers(0, len(fields))), draw(number_texts))
    elif kind == "not-a-number":
        fields[draw(st.integers(0, len(fields) - 1))] = draw(non_numbers)
    elif kind == "index":
        fields[0] = str(draw(st.integers(-3, 60).filter(lambda k: k != index)))
    else:  # a data row turned into a comment, which would drop it silently
        fields[0] = "#" + draw(st.sampled_from(["", " ", "config: {}"])) + fields[0]
    return fields


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 8), data=st.data())
def test_reader_names_the_line_of_a_malformed_row(tmp_path_factory, rows, data):
    path = tmp_path_factory.mktemp("malformed") / "trajectory.csv"
    column = np.linspace(0.05, 0.4, rows)
    write_trajectory_csv(path, np.arange(1, rows + 1), column, column, column, column, {"seed": 1})
    lines = path.read_text(encoding="utf-8").splitlines()
    first = len(lines) - rows  # 0-based position of data row 1
    assert read_trajectory_csv(path)[1]["m"].tolist() == list(range(1, rows + 1))
    index = data.draw(st.integers(1, rows))
    position = first + index - 1
    lines[position] = ",".join(data.draw(corrupted_rows(lines[position].split(","), index)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ArtifactError) as info:
        read_trajectory_csv(path)
    assert f"{path}:{position + 1}: " in str(info.value)


@pytest.fixture(scope="module")
def fig3_artifacts():
    config = load_run_config(preset="fig3")
    record = simulate_trajectory(config.trajectory)
    spectrum, processed = process_readout(
        record.g2, config.trajectory.delta_t, config.wiener, config.truncation
    )
    echo = config.resolved()
    payload = spectrum_payload(spectrum, processed, echo, config.trajectory.spec.omega_r)
    return record, processed, echo, payload


def test_artifact_write_speed_smoke(benchmark, tmp_path, fig3_artifacts):
    # records the time per file; asserts only on the bytes written
    record, processed, echo, payload = fig3_artifacts
    csv_path, json_path = tmp_path / "trajectory.csv", tmp_path / "spectrum.json"

    def write_both():
        write_trajectory_csv(csv_path, record.m, record.t, record.c2_sq, record.g2, processed, echo)
        write_json(json_path, payload)

    benchmark.pedantic(write_both, rounds=3, iterations=1)
    if benchmark.stats is not None:
        benchmark.extra_info["ms_per_file"] = benchmark.stats.stats.median / 2 * 1e3
    assert json_path.read_text(encoding="utf-8") == reference_json(payload)
    assert data_rows(csv_path) == reference_rows(
        record.m, record.t, record.c2_sq, record.g2, processed
    )
