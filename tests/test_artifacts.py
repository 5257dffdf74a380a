"""The bulk artifact writer and reader against the per-value code they replaced.

``dump_json`` must spell every payload exactly as
``json.dumps(json_safe(payload), indent=2) + "\\n"`` does, and
``write_trajectory_csv`` every row exactly as one ``fmt`` call per value did.
``read_trajectory_csv`` must return exactly the arrays of the per-line
``float()`` loop it replaced, which this file keeps as ``reference_read``,
and raise the same error naming the same line for any malformed file.
The compiled float writer must write the Python route's bytes, one
``float.__repr__`` text per double, in its CSV rows and joined arrays,
wherever the library loaded, also where it is built without
``unsigned __int128``, and write nothing into a buffer too small for the
worst case.  The compiled row parse must give ``float()``'s double for
every field it reads and decline every text ``repr`` never writes.
"""

import contextlib
import hashlib
import json
import math
import os
import re
import signal
import struct
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from unsharp_monitor import _kernel, artifacts
from unsharp_monitor.artifacts import (
    TRAJECTORY_COLUMNS,
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
from unsharp_monitor.spectral import process_readout, process_readouts
from unsharp_monitor.trajectory import simulate_replicates, simulate_trajectory

from helpers import needs_cc, needs_library, python_route

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
@example({"p": np.array([0.1, -0.0, math.nan, math.inf]), "q": np.array([0.1, 1e-05])})
@example(np.array([0.1, -0.0, 1e16]))
@example([np.array([0.5]), "x", np.array([1.0, 2.0])])
@example({"a": {"b": {"c": np.array([5e-324, 0.1])}}, "d": np.array([1.0])})
def test_dump_json_is_the_json_module_text(payload):
    assert dump_json(payload) == reference_json(payload).encode()


def test_dump_json_rejects_keys_json_would_convert():
    with pytest.raises(TypeError):
        dump_json({1: 0.5})


@pytest.mark.parametrize("payload", [{"a": {None: 1}}, [{1: 0.5}], {"a": [np.array([0.5]), {0.5: "x"}]}])
def test_dump_json_rejects_nested_keys_json_would_convert(payload):
    with pytest.raises(TypeError):
        dump_json(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {"a": artifacts._MARKER, "b": np.array([0.5, 1.0])},
        {artifacts._MARKER: np.array([0.5])},
        [np.array([0.25]), '"' + artifacts._MARKER],  # its JSON text ends in the marker's
        [artifacts._MARKER],
    ],
    ids=["value", "key", "suffix", "no-array"],
)
def test_dump_json_of_a_string_that_spells_the_marker(payload):
    assert dump_json(payload) == reference_json(payload).encode()


def reference_rows(m, t, c2_sq, g2, g2_processed) -> list[str]:
    """The writer's old loop: one ``fmt`` call per value."""
    return [
        f"{int(m[i])},{fmt(t[i])},{fmt(c2_sq[i])},{fmt(g2[i])},{fmt(g2_processed[i])}"
        for i in range(len(m))
    ]


def data_rows(path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()[3:]


# the readout G2 takes n + 1 values
LATTICE = [-0.25, 1.25, 0.0, -0.0, math.nan, -0.25000000000000017, 1e16]


def column_sets(n: int):
    """t, c2_sq, g2 and g2_processed of n rows; g2 any floats or lattice values."""
    any_floats = arrays(np.float64, n, elements=floats)
    lattice = arrays(np.float64, n, elements=st.sampled_from(LATTICE))
    return st.tuples(any_floats, any_floats, any_floats | lattice, any_floats)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 30).flatmap(column_sets))
@example((np.array([-0.0, math.nan]), np.array([0.0, -0.0]),
          np.array([math.nan, 1e16]), np.array([5e-324, -math.inf])))
@example((np.zeros(6), np.zeros(6), np.array([0.0, -0.0, math.nan, -0.0, 0.0, math.nan]),
          np.ones(6)))
def test_trajectory_rows_match_the_per_value_loop(tmp_path_factory, columns):
    path = tmp_path_factory.mktemp("rows") / "trajectory.csv"
    m = np.arange(1, len(columns[0]) + 1)
    write_trajectory_csv(path, m, *columns, {"seed": 1})
    assert data_rows(path) == reference_rows(m, *columns)


@pytest.mark.parametrize(
    "m", [[0, 1, 2, 3, 4, 5], [2, 3, 4, 5, 6, 7], [1, 2, 4, 3, 5, 6]],
    ids=["from-0", "from-2", "swapped"],
)
def test_a_trajectory_csv_is_written_only_with_m_1_to_M(tmp_path, m):
    # the reader refuses any other series numbers, so the writer does too
    path, column = tmp_path / "trajectory.csv", np.linspace(0.0, 1.0, 6)
    message = r"^m must run 1\.\.M, one series per row, for M = 6 rows$"
    with pytest.raises(ValueError, match=message):
        write_trajectory_csv(path, np.array(m), column, column, column, column, {"seed": 1})
    assert not path.exists()


def reference_read(path):
    """The reader's old per-line loop: one ``float()`` per value."""
    raw_lines = path.read_text(encoding="utf-8").splitlines()
    echo = None
    header_seen = False
    rows = []
    for number, line in enumerate(raw_lines, start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if header_seen:
                raise ArtifactError(
                    f"{path}:{number}: comment after the header (a data row turned comment?)"
                )
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


def assert_same_columns(columns, expected):
    assert list(columns) == list(expected)
    for name, values in expected.items():
        got = columns[name]
        assert got.dtype == values.dtype, name
        assert np.array_equal(got, values, equal_nan=True), name
        assert np.array_equal(np.signbit(got), np.signbit(values)), name


def reader_errors(path) -> tuple[str, str]:
    """The messages both readers raise for ``path``."""
    messages = []
    for read in (read_trajectory_csv, reference_read):
        with pytest.raises(ArtifactError) as info:
            read(path)
        messages.append(str(info.value))
    return messages[0], messages[1]


# texts float() reads that repr never writes: padding, signs, underscores,
# spelled-out infinities, overflow and underflow, non-ASCII digits
ODD_NUMBER_TEXTS = [
    "1.50", " 1", "+1e0", "1_0", "-0", " -0.0 ", "Infinity", "-inf", "NaN", "-nan",
    "1e500", "-1e-400", "5e-324", "4.9e-324", "2.2250738585072011e-308", ".5", "5.",
    "\u0661\u0662.5", "\uff11", "0001",
]
number_fields = (
    floats.map(repr)
    | st.floats(-1e-306, 1e-306).map(repr)  # subnormals among them
    | st.integers(-(10**20), 10**20).map(str)
    | st.sampled_from(ODD_NUMBER_TEXTS)
)
blank_lines = st.lists(st.sampled_from(["", " ", "\t", "  \t "]), max_size=2)


@st.composite
def index_text(draw, index: int) -> str:
    """A text float() reads as ``index``."""
    return draw(st.sampled_from([
        str(index), f"+{index}", f" {index} ", f"{index}.0", f"{index}e0", f"{index:03d}",
    ]))


@st.composite
def trajectory_files(draw) -> list[str]:
    """The lines of a valid trajectory CSV, blank lines anywhere; or, in
    about half the files, one written as ``write_trajectory_csv`` writes
    it, which the compiled parse reads where the library loaded."""
    as_written = draw(st.booleans())
    blanks = st.just([]) if as_written else blank_lines
    fields = floats.map(repr) if as_written else number_fields
    lines = ["# schema: unsharp-monitor/1"]
    lines += draw(blanks)
    if draw(st.booleans()):
        lines.append("# config: " + json.dumps({"seed": draw(st.integers(0, 9))}))
    lines += draw(blanks)
    lines.append(",".join(TRAJECTORY_COLUMNS))
    for index in range(1, draw(st.integers(1, 40)) + 1):
        first = str(index) if as_written else draw(index_text(index))
        lines.append(",".join([first] + [draw(fields) for _ in range(4)]))
        lines += draw(blanks)
    return lines


# texts float() reads that the compiled parse must decline, float() then
# reading the whole file: a sign on NaN or a leading "+", padding,
# underscores, 20 significant digits, and decimals whose double overflows
# or is subnormal
DECLINED_TEXTS = [
    "-nan", "+1", " 1", "1_0", "12345678901234567890", "1e500", "4.9e-324",
    "2.2250738585072011e-308",
]


def one_row_file(text: str) -> list[str]:
    return [",".join(TRAJECTORY_COLUMNS), f"1,{text},0.5,-0.5,1e-05"]


@settings(max_examples=300, deadline=None)
@given(trajectory_files())
@example([",".join(TRAJECTORY_COLUMNS), "1,-0.0,nan,-inf,5e-324", "", " ", "2,0.0,-nan,inf,-5e-324"])
@example(one_row_file("-nan"))
@example(one_row_file("+1"))
@example(one_row_file(" 1"))
@example(one_row_file("1_0"))
@example([",".join(TRAJECTORY_COLUMNS), "1,0.5,0.5,0.5,0.5\r", "2,0.5,0.5,0.5,0.5\r"])  # CRLF rows
@example(one_row_file("12345678901234567890"))
@example(one_row_file("1e500"))
@example(one_row_file("4.9e-324"))
@example(one_row_file("2.2250738585072011e-308"))
def test_reader_matches_the_per_line_loop(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("parity") / "trajectory.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    echo, columns = read_trajectory_csv(path)
    expected_echo, expected = reference_read(path)
    assert echo == expected_echo
    assert_same_columns(columns, expected)


def test_reader_reads_many_rows_around_a_blank_line(tmp_path):
    # the blank line sends the file to the float() route, which skips it
    rows = 1000
    path = tmp_path / "trajectory.csv"
    column = np.linspace(-1.0, 1.0, rows)
    write_trajectory_csv(path, np.arange(1, rows + 1), column, column**2, -column, column, {"a": 1})
    lines = path.read_text(encoding="utf-8").splitlines()
    lines.insert(3 + 256, "   ")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    echo, columns = read_trajectory_csv(path)
    assert echo == {"a": 1}
    assert_same_columns(columns, reference_read(path)[1])
    assert np.array_equal(columns["c2_sq"], column**2)


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
    message, expected = reader_errors(path)
    assert f"{path}:{position + 1}: " in message
    assert message == expected


def test_rows_short_and_long_by_one_field_are_rejected(tmp_path):
    # together the two rows hold ten fields whose index column reads 1, 2
    path = tmp_path / "trajectory.csv"
    header = ",".join(TRAJECTORY_COLUMNS)
    path.write_text(f"{header}\n1,0.1,0.2,0.3\n2,2,0.5,0.6,0.7,0.8\n", encoding="utf-8")
    message, expected = reader_errors(path)
    assert message == expected == f"{path}:2: expected 5 fields, got 4"


def test_a_header_ended_by_another_line_break_comes_first(tmp_path):
    # "\r" ends the first header line, so the "\n"-ended one after it is a bad row
    path = tmp_path / "trajectory.csv"
    header = ",".join(TRAJECTORY_COLUMNS)
    path.write_bytes(f"{header}\r1,0.5,0.5,0.5,0.5\n{header}\n1,0.5,0.5,0.5,0.5\n".encode())
    message, expected = reader_errors(path)
    assert message == expected == f"{path}:3: could not convert string to float: 'm'"


@pytest.mark.parametrize("bad_row", [b"1,0.5,0.5,0.5,0.5\xff", b"1,0.5,0.5,0.5,0.5"])
def test_a_file_raises_one_error_whichever_route_reads_it(tmp_path, monkeypatch, bad_row):
    # a bad config echo before the header, and maybe a byte that is not UTF-8 after it
    path = tmp_path / "trajectory.csv"
    path.write_bytes(b"# config: [1]\n" + artifacts._HEADER + bad_row + b"\n")
    messages = []
    for load in (_kernel.load, lambda: None):
        monkeypatch.setattr(_kernel, "load", load)
        with pytest.raises(ArtifactError) as info:
            read_trajectory_csv(path)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    expected = "not UTF-8 text" if b"\xff" in bad_row else "bad config echo"
    assert expected in messages[0]


# a column name starting with "#" could make the header line a comment
header_names = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"), blacklist_characters=","),
    max_size=12,
).filter(lambda name: not name.startswith("#"))
not_json = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12
).filter(lambda text: not _is_json(text))
json_non_objects = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.lists(st.integers(), max_size=3)
).map(json.dumps)


def _is_json(text: str) -> bool:
    try:
        json.loads(text)
    except json.JSONDecodeError:
        return False
    return True


@st.composite
def corrupted_preamble(draw, lines: list[str]) -> tuple[list[str], int]:
    """``lines`` with the header or the config echo made malformed one way;
    returns them and the 0-based position of the bad line."""
    lines = list(lines)
    header = lines.index(",".join(TRAJECTORY_COLUMNS))
    names = list(TRAJECTORY_COLUMNS)
    kind = draw(st.sampled_from(
        ["missing", "extra", "renamed", "reordered", "not-json", "not-an-object"]
    ))
    if kind in ("not-json", "not-an-object"):
        position = next(i for i, line in enumerate(lines) if line.startswith("# config:"))
        body = draw(not_json if kind == "not-json" else json_non_objects)
        lines[position] = "# config: " + body
        return lines, position
    if kind == "missing":
        del names[draw(st.integers(0, len(names) - 1))]
    elif kind == "extra":
        names.insert(draw(st.integers(0, len(names))), draw(header_names))
    elif kind == "renamed":
        column = draw(st.integers(0, len(names) - 1))
        names[column] = draw(header_names.filter(lambda name: name != names[column]))
    else:
        names = draw(st.permutations(names).filter(lambda order: order != names))
    lines[header] = ",".join(names)
    return lines, header


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reader_names_the_line_of_a_malformed_preamble(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("preamble") / "trajectory.csv"
    column = np.linspace(0.05, 0.4, 3)
    write_trajectory_csv(path, np.arange(1, 4), column, column, column, column, {"seed": 1})
    lines, position = data.draw(corrupted_preamble(path.read_text(encoding="utf-8").splitlines()))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    message, expected = reader_errors(path)
    assert f"{path}:{position + 1}: " in message
    assert message == expected


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


def test_artifact_read_speed_smoke(benchmark, tmp_path, fig3_artifacts):
    # records the time per file; asserts only on the columns read
    record, processed, echo, _ = fig3_artifacts
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, record.m, record.t, record.c2_sq, record.g2, processed, echo)

    read_echo, columns = benchmark.pedantic(read_trajectory_csv, args=(path,), rounds=3, iterations=1)
    if benchmark.stats is not None:
        benchmark.extra_info["ms_per_file"] = benchmark.stats.stats.median * 1e3
    assert read_echo == json.loads(json.dumps(echo))
    assert_same_columns(columns, reference_read(path)[1])
    assert np.array_equal(columns["g2"], record.g2)
    assert np.array_equal(columns["g2_processed"], processed)


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


def test_a_short_body_after_a_long_one_holds_only_its_own_bytes(tmp_path, fig3_artifacts):
    # the second body of each kind goes into the buffer the first one grew
    record, processed, echo, payload = fig3_artifacts
    csv_path, json_path = tmp_path / "trajectory.csv", tmp_path / "spectrum.json"
    short = {"a": np.array([0.5, 1.5]), "b": 3}
    write_json(json_path, payload)
    write_json(json_path, short)
    assert json_path.read_bytes() == dump_json(short) == reference_json(short).encode()
    write_trajectory_csv(csv_path, record.m, record.t, record.c2_sq, record.g2, processed, echo)
    m, t = np.arange(1, 4), np.array([0.25, 0.5, 0.75])
    write_trajectory_csv(csv_path, m, t, -t, t**2, t / 3, {"n": 1})
    assert csv_path.read_text(encoding="utf-8").splitlines()[1:] == [
        '# config: {"n":1}', ",".join(TRAJECTORY_COLUMNS)
    ] + [",".join([str(i + 1), *(fmt(x[i]) for x in (t, -t, t**2, t / 3))]) for i in range(3)]


def test_threads_writing_at_once_each_write_their_own_bytes(tmp_path):
    # the float writer and the file write let the other thread run midway
    payloads = [{"x": np.random.default_rng(seed).normal(size=3000)} for seed in (1, 2)]
    expected = [reference_json(payload).encode() for payload in payloads]
    start, exact = threading.Barrier(2, timeout=60), ([], [])

    def write(k: int) -> None:
        path = tmp_path / f"{k}.json"
        start.wait()
        for _ in range(50):
            write_json(path, payloads[k])
            exact[k].append(path.read_bytes() == expected[k])

    threads = [threading.Thread(target=write, args=(k,)) for k in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert exact == ([True] * 50, [True] * 50)  # short where a thread raised


def test_a_body_over_the_cap_leaves_the_kept_buffer(tmp_path):
    write_json(tmp_path / "small.json", {"a": np.arange(10.0)})
    kept = artifacts._kept.buffer
    contents = kept.copy()
    # some 4 MiB of text on either route, more in the worst case
    values = np.arange(artifacts._KEPT_MAX // 16) / 7
    write_json(tmp_path / "large.json", {"a": values})
    assert artifacts._kept.buffer is kept and np.array_equal(kept, contents)
    assert json.loads((tmp_path / "large.json").read_bytes()) == {"a": values.tolist()}


# writes fig3's trajectory.csv and spectrum.json once, then 20 times more,
# in a fresh interpreter, and prints the minor page faults of those 20 pairs
WRITE_FAULTS = """
import resource, sys, warnings
from pathlib import Path
sys.path.insert(0, sys.argv[1])
warnings.simplefilter("ignore")
from unsharp_monitor.artifacts import spectrum_payload, write_json, write_trajectory_csv
from unsharp_monitor.config import load_run_config
from unsharp_monitor.spectral import process_readout
from unsharp_monitor.trajectory import simulate_trajectory
config = load_run_config(preset="fig3")
record = simulate_trajectory(config.trajectory)
spectrum, processed = process_readout(
    record.g2, config.trajectory.delta_t, config.wiener, config.truncation
)
echo = config.resolved()
payload = spectrum_payload(spectrum, processed, echo, config.trajectory.spec.omega_r)
out = Path(sys.argv[2])

def write_pair():
    write_trajectory_csv(
        out / "trajectory.csv", record.m, record.t, record.c2_sq, record.g2, processed, echo
    )
    write_json(out / "spectrum.json", payload)

write_pair()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    write_pair()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@needs_library
def test_rewriting_the_artifacts_touches_no_fresh_page(tmp_path):
    # a body made in fresh memory faults some 165 pages in per pair: once
    # freed, the allocator hands them back to the system.  The child runs
    # without -X dev and PYTHONMALLOC, whose debug allocator hides that
    pytest.importorskip("resource")
    package = Path(artifacts.__file__).parents[1]
    environment = {
        name: value for name, value in os.environ.items()
        if name not in ("PYTHONMALLOC", "PYTHONDEVMODE")
    }
    proc = subprocess.run(
        [sys.executable, "-c", WRITE_FAULTS, str(package), str(tmp_path)],
        capture_output=True, text=True, timeout=120, check=True, env=environment,
    )
    assert int(proc.stdout) < 20


# writes text past a file-size limit of 4096 bytes in a fresh interpreter:
# the write fails partway, with EFBIG once the limit is reached
PARTWAY = """
import resource, signal, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from unsharp_monitor import artifacts
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, hard))
try:
    artifacts._write_bytes(Path(sys.argv[2]), b"new " * 10000)
except artifacts.ArtifactError as exc:
    print(exc)
"""


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="no file-size limit here")
@pytest.mark.parametrize("existing", [True, False], ids=["rewrite", "new"])
def test_a_write_that_fails_partway_leaves_the_old_file(tmp_path, existing):
    target = tmp_path / "spectrum.json"
    if existing:
        target.write_bytes(b"old bytes\n")
    package = Path(artifacts.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", PARTWAY, str(package), str(target)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert proc.stdout == f"cannot write {target}: File too large\n"
    assert list(tmp_path.iterdir()) == ([target] if existing else [])
    if existing:
        assert target.read_bytes() == b"old bytes\n"


def test_a_rewrite_replaces_the_file_and_keeps_a_link(tmp_path):
    real = tmp_path / "data" / "report.json"
    real.parent.mkdir()
    real.write_text("old", encoding="utf-8")
    link = tmp_path / "report.json"
    link.symlink_to(real)
    inode = real.stat().st_ino
    write_json(link, {"a": [1.5, 2.0]})
    assert link.is_symlink() and link.resolve() == real
    assert real.read_text(encoding="utf-8") == '{\n  "a": [\n    1.5,\n    2.0\n  ]\n}\n'
    assert real.stat().st_ino != inode  # a new file, moved into place
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["data", "report.json", "report.json"]


def test_a_write_through_a_symlinked_directory_lands_in_it(tmp_path):
    real = tmp_path / "data"
    real.mkdir()
    (real / "report.json").write_text("old", encoding="utf-8")
    linked = tmp_path / "linked"
    linked.symlink_to(real, target_is_directory=True)
    write_json(linked / "report.json", {"a": [1.5, 2.0]})
    assert linked.is_symlink()
    assert (real / "report.json").read_text(encoding="utf-8") == '{\n  "a": [\n    1.5,\n    2.0\n  ]\n}\n'
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["data", "linked", "report.json"]


def test_a_directory_in_the_way_leaves_no_temporary_file(tmp_path):
    # nothing checks a sweep's target first, so the replace itself fails
    target = tmp_path / "sweep.csv"
    target.mkdir()
    with pytest.raises(ArtifactError, match=f"^cannot write {re.escape(str(target))}: Is a directory$"):
        artifacts.write_sweep_csv(target, [], 0, {})
    assert list(tmp_path.iterdir()) == [target]


def as_double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def repr_texts(values: np.ndarray) -> list[str]:
    """The oracle: one ``float.__repr__`` per element."""
    return list(map(float.__repr__, values.tolist()))


def joined(values, separator: str) -> bytes:
    """The writer's bytes for the texts of a 1-d array joined by ``separator``."""
    return bytes(artifacts._assemble([artifacts._join_part(values, separator)]))


def csv_rows(*columns) -> bytes:
    """The writer's bytes for the numbered CSV rows of ``columns``."""
    return bytes(artifacts._assemble([artifacts._rows_part(*columns)]))


@contextlib.contextmanager
def python_routes():
    """Within the block ``_kernel.load()`` returns None, so float rows and
    arrays take the ``float.__repr__`` route."""
    with pytest.MonkeyPatch.context() as patch:
        python_route(patch)
        yield


EDGE_DOUBLES = [
    0.0, -0.0,
    math.nan, -math.nan, as_double(0x7FF0000000000001), as_double(0xFFF8000000000123),
    math.inf, -math.inf,
    5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308, 1.7976931348623157e308,
    1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 0.1 + 0.2, 2.0**53 + 2,
]
# the separators between the items of a JSON float array at two indentations
JSON_SEPARATORS = (",\n  ", ",\n    ")


# a byte no entry point writes, and the bytes kept free past the capacity passed
UNWRITTEN, SLACK = 0xA5, 8


def written(out: np.ndarray, size: int) -> bytes | None:
    """A raw call's ``size`` bytes, or None for -1; either way asserts that
    no other byte of ``out`` was written."""
    if size < 0:
        assert size == -1 and (out == UNWRITTEN).all()
        return None
    assert (out[size:] == UNWRITTEN).all()
    return out[:size].tobytes()


def raw_join(library, values: np.ndarray, separator: str, short: int = 0) -> bytes | None:
    """``um_repr_join`` into a capacity ``short`` bytes below its worst case."""
    sep = separator.encode("ascii")
    capacity = (_kernel.REPR_MAX + len(sep)) * len(values) - short
    out = np.full(max(capacity, 0) + SLACK, UNWRITTEN, dtype=np.uint8)
    size = library.um_repr_join(
        values.ctypes.data, len(values), sep, len(sep), out.ctypes.data, capacity
    )
    return written(out, size)


def raw_rows(library, columns: np.ndarray, short: int = 0) -> bytes | None:
    """``um_repr_rows`` into a capacity ``short`` bytes below its worst case."""
    width, n = columns.shape
    capacity = (_kernel.INDEX_MAX + 1 + (_kernel.REPR_MAX + 1) * width) * n - short
    out = np.full(max(capacity, 0) + SLACK, UNWRITTEN, dtype=np.uint8)
    size = library.um_repr_rows(columns.ctypes.data, n, width, out.ctypes.data, capacity)
    return written(out, size)


def writer_inputs(values: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """The values, and two columns of them for ``um_repr_rows``."""
    array = np.array(values, dtype=float)
    return array, np.array([array, -array[::-1]])


# rows as write_trajectory_csv writes them, and their doubles
PARSED_TEXT = (
    b"1,0.5,-0.0,nan,-inf\n2,1e-05,1e+16,123.0,0.1\n"
    b"3,0.5,1.7976931348623157e+308,2.2250738585072014e-308,-0\n"
)
PARSED = [
    [1.0, 0.5, -0.0, math.nan, -math.inf],
    [2.0, 1e-05, 1e16, 123.0, 0.1],
    [3.0, 0.5, 1.7976931348623157e308, 2.2250738585072014e-308, -0.0],
]


def raw_parse(library, text: bytes) -> tuple[int, np.ndarray]:
    """``um_parse_rows`` of ``text`` into an output of 0.25s: its return and the output."""
    buffer = np.frombuffer(text, dtype=np.uint8)
    out = np.full((text.count(b"\n"), 5), 0.25)
    return library.um_parse_rows(buffer.ctypes.data, len(buffer), out.ctypes.data, out.size), out


@needs_library
@pytest.mark.parametrize("values", [[], [0.1], EDGE_DOUBLES], ids=["empty", "one", "edges"])
def test_the_writer_needs_room_for_the_worst_case(values):
    # into the worst case the raw calls write the Python route's text, and
    # into one byte less nothing
    library = _kernel.load()
    values, columns = writer_inputs(values)
    separators = (",", *JSON_SEPARATORS)
    with python_routes():
        texts = [joined(values, separator) for separator in separators]
        rows = csv_rows(*columns)
    for separator, text in zip(separators, texts):
        assert raw_join(library, values, separator) == joined(values, separator) == text
        assert raw_join(library, values, separator, short=1) is None
    assert raw_rows(library, columns) == csv_rows(*columns) == rows
    assert raw_rows(library, columns, short=1) is None


@needs_library
def test_a_writer_that_refuses_its_buffer_raises(monkeypatch):
    # the buffers are sized from _kernel's REPR_MAX and INDEX_MAX; sizes one
    # below the library's own make it refuse, which must not read as text
    values, columns = writer_inputs(EDGE_DOUBLES)
    monkeypatch.setattr(_kernel, "REPR_MAX", _kernel.REPR_MAX - 1)
    with pytest.raises(RuntimeError, match="^the float writer wrote nothing"):
        joined(values, ",")
    with pytest.raises(RuntimeError, match="^the float writer wrote nothing"):
        csv_rows(*columns)


@needs_library
def test_the_writer_checks_its_sizes_without_overflow():
    # sizes whose worst case overflows int64 are refused before a byte is read
    library = _kernel.load()
    value, out = np.array([0.5]), np.full(SLACK, UNWRITTEN, dtype=np.uint8)
    huge, top = 2**62, 2**63 - 1
    for n, sep_len in [(-1, 1), (1, -1), (1, top), (huge, 100), (top, 1)]:
        size = library.um_repr_join(value.ctypes.data, n, b",", sep_len, out.ctypes.data, top)
        assert size == -1, (n, sep_len)
    for n, width in [(-1, 1), (1, -1), (1, top // 4), (huge, 4), (top, 1)]:
        size = library.um_repr_rows(value.ctypes.data, n, width, out.ctypes.data, top)
        assert size == -1, (n, width)
    assert library.um_repr_join(value.ctypes.data, 1, b",", 1, out.ctypes.data, -1) == -1
    assert (out == UNWRITTEN).all()


bit_patterns = st.integers(0, 2**64 - 1).map(as_double) | st.floats()


@needs_library
@settings(max_examples=300, deadline=None)
@given(st.lists(bit_patterns, max_size=50))
@example(EDGE_DOUBLES)
@example([])
@example([0.1])
def test_compiled_texts_are_float_repr(values):
    array = np.array(values, dtype=float)
    texts = repr_texts(array)
    for separator in (",", *JSON_SEPARATORS):
        assert joined(array, separator) == separator.join(texts).encode()
    columns = (array, -array, array[::-1], np.roll(array, 1))
    payload = {"array": array, "nested": [array]}  # at two indentations
    rows, text = csv_rows(*columns), dump_json(payload)
    with python_routes():
        assert rows == csv_rows(*columns)
        assert text == dump_json(payload)
    assert text == reference_json(payload).encode()


@needs_library
def test_compiled_texts_match_float_repr_at_every_binary_exponent():
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-323, 309)]).view(np.int64)
    near_powers_of_ten = np.concatenate(
        [(powers_of_ten + ulps).view(np.float64) for ulps in (-3, -2, -1, 0, 1, 2, 3)]
    )
    patterns = np.random.default_rng(20261018).integers(0, 2**64, 200_000, dtype=np.uint64)
    exponents = np.concatenate([powers_of_two, near_powers_of_ten])
    # values whose shortest text is short, so that trailing zeros are
    # stripped from a one digit shorter number in every count up to 15
    k = np.arange(1.0, 1000.0)
    short = np.concatenate([
        np.arange(1.0, 10**5 + 1),
        2.0**53 + np.arange(-1000.0, 1000.0),
        *[k / 10.0**j for j in range(18)],
        *[k * 10.0**j for j in range(21)],
        [1e21, 1e22, 1e23, 2e22, 9e22],
    ])
    values = np.concatenate([exponents, -exponents, patterns.view(np.float64), short])
    assert joined(values, ",") == ",".join(repr_texts(values)).encode()
    columns = exponents.reshape(2, -1)
    rows = csv_rows(*columns, *-columns)
    with python_routes():
        assert rows == csv_rows(*columns, *-columns)


@needs_library
def test_compiled_texts_copy_what_the_pointer_cannot_read():
    values = np.arange(12.0).reshape(3, 4) / 7
    assert joined(values[:, 1], ",") == ",".join(repr_texts(values[:, 1])).encode()
    swapped = values.ravel().astype(">f8")
    assert joined(swapped, ",") == ",".join(repr_texts(values.ravel())).encode()
    rows = csv_rows(values[:, 1], swapped[:3], values[0, :3].astype(">f8"))
    with python_routes():
        expected = csv_rows(values[:, 1], swapped[:3], values[0, :3])
    assert rows == expected
    with pytest.raises(ValueError, match=r"expected a 1-d array, got shape \(3, 4\)"):
        joined(values, ",")
    with pytest.raises(ValueError, match="inhomogeneous"):  # numpy's own error
        csv_rows(np.arange(3.0), np.arange(4.0))
    with pytest.raises(ValueError, match="columns of one length"):
        csv_rows(np.arange(12).reshape(3, 4), values)
    with pytest.raises(ValueError, match="columns of one length"):
        csv_rows()


@needs_library
def test_rows_are_numbered_across_every_digit_count():
    # 100,001 rows: the row number crosses every digit boundary up to 10^5
    column = np.random.default_rng(20261019).normal(size=100_001)
    rows = csv_rows(column)
    with python_routes():
        assert rows == csv_rows(column)
    lines = rows.splitlines()
    assert len(lines) == len(column)
    assert all(line.startswith(f"{r},".encode()) for r, line in enumerate(lines, start=1))


@pytest.fixture(scope="module")
def random_doubles():
    """EDGE_DOUBLES and 10^5 random bit patterns, with the oracle's text of
    each and of its negation, formatted once for the module."""
    patterns = np.random.default_rng(20261020).integers(0, 2**64, 100_000, dtype=np.uint64)
    values = np.concatenate([EDGE_DOUBLES, patterns.view(np.float64)])
    return values, repr_texts(values), repr_texts(-values)


@needs_cc
@needs_library
def test_the_portable_product_writes_and_reads_as_the_python_routes(
    portable_library, random_doubles
):
    # the library built without unsigned __int128, as a compiler without it
    # builds it: umul128's portable body does every product.  The Python
    # routes' bytes are joined from the shared texts, as those routes join them
    library = _kernel.open_library(portable_library)
    values, texts, negated = random_doubles
    columns = np.array([values, -values, values[::-1], np.roll(values, 1)])
    column_texts = (texts, negated, texts[::-1], texts[-1:] + texts[:-1])
    for separator in (",", *JSON_SEPARATORS):
        assert raw_join(library, values, separator) == separator.join(texts).encode()
    numbers = [str(m) for m in range(1, len(values) + 1)]
    lines = [",".join(row) + "\n" for row in zip(numbers, *column_texts)]
    assert raw_rows(library, columns) == "".join(lines).encode()
    # a row with a subnormal is declined, for float() to read
    subnormal = ((columns != 0) & (np.abs(columns) < 2.2250738585072014e-308)).any(axis=0)
    assert subnormal.any()
    assert all(raw_parse(library, lines[row].encode())[0] == -1 for row in np.flatnonzero(subnormal))
    kept = np.flatnonzero(~subnormal)
    count, parsed = raw_parse(library, "".join([lines[row] for row in kept]).encode())
    assert count == len(parsed) == len(kept)
    # float() of every field, each text read once: a column reads as its texts do
    read = [list(map(float, column)) for column in (numbers, texts, negated)]
    fields = np.array([read[0], read[1], read[2], read[1][::-1], read[1][-1:] + read[1][:-1]])
    expected = fields.T[kept]
    assert np.array_equal(parsed, expected, equal_nan=True)
    assert np.array_equal(np.signbit(parsed), np.signbit(expected))


def test_a_non_finite_float_array_is_quoted_as_json_safe_quotes_it():
    payload = {
        "a": np.array([0.1, math.nan, -0.0, math.inf, -math.inf]),
        "b": [np.array([math.nan])],
    }
    expected = reference_json(payload).encode()
    assert b'"nan"' in expected and b'"-inf"' in expected
    assert dump_json(payload) == expected
    with python_routes():
        assert dump_json(payload) == expected




# data rows that float() reads and the compiled parse declines as a whole
DECLINED_ROWS = [f"1,{text},0.5,-0.5,1e-05\n" for text in DECLINED_TEXTS] + [
    "1,0.5,0.5,0.5,0.5\r\n",  # CRLF
    "1,0.5,0.5,0.5,0.5",  # no final line break
    "1,0.5,0.5,0.5,0.5\n\n",  # a blank line
    "1,0.5,0.5,0.5,0.5\n \n",
    "1,0.5,0.5,0.5,0.5,\n",  # six fields, four, a comment
    "1,0.5,0.5,0.5\n",
    "#1,0.5,0.5,0.5,0.5\n",
    "1,1e5,0.5,0.5,0.5\n",  # repr signs every exponent
    "1,.5,0.5,0.5,0.5\n",
    "1,5.,0.5,0.5,0.5\n",
    "1,Infinity,0.5,0.5,0.5\n",
    "1,NaN,0.5,0.5,0.5\n",
    "1,1E+16,0.5,0.5,0.5\n",
    "1,-1e-400,0.5,0.5,0.5\n",  # underflows to -0.0
    "1,5e-324,0.5,0.5,0.5\n",  # subnormal
    "1,1.7976931348623159e+308,0.5,0.5,0.5\n",  # rounds up to inf
    "1,\u0661,0.5,0.5,0.5\n",  # an Arabic-Indic digit
    "",
]


@needs_library
@pytest.mark.parametrize("rows", DECLINED_ROWS)
def test_compiled_parse_declines_what_repr_never_writes(rows):
    assert artifacts._compiled_rows(rows.encode()) is None
    # the same call reads rows as repr writes them
    good = artifacts._compiled_rows(PARSED_TEXT)
    assert np.array_equal(good, PARSED, equal_nan=True)
    assert np.array_equal(np.signbit(good), np.signbit(PARSED))


def decimal_text(sign: str, w: int, point: int, exponent: int | None) -> str:
    """The digits of w, a point after ``point`` of them if that leaves
    digits on both sides, and an exponent if one is given."""
    digits = str(w)
    if 0 < point < len(digits):
        digits = digits[:point] + "." + digits[point:]
    return sign + digits + ("" if exponent is None else f"e{exponent:+d}")


# exact ties, each read as the even one of its two doubles, and texts next to
# the largest, the smallest normal and 0.1 + 0.2
TIES_AND_EDGES = [
    "9007199254740993", "9007199254740995", "4503599627370496.5", "4503599627370497.5",
    "1152921504606847104", "2444664592301558.25", "890678044507404.0625",
    "1.7976931348623157e+308", "1.797693134862315799e+308", "2.2250738585072014e-308",
    "2.225073858507201400e-308", "0.30000000000000004", "0.3000000000000000444",
    "9999999999999999999", "0.000000000000000000000000000000001", "-0e+999", "0001.5000",
]


decimal_texts = st.builds(
    decimal_text,
    st.sampled_from(["", "-"]),
    st.integers(0, 10**19 - 1),
    st.integers(0, 19),
    st.none() | st.integers(-345, 310),
)


@needs_library
@settings(max_examples=300, deadline=None)
@given(st.lists(decimal_texts, min_size=1, max_size=5))
@example(TIES_AND_EDGES)
def test_compiled_parse_reads_decimals_as_float_does(texts):
    # a decimal of at most 19 digits is read, as float() reads it, unless its
    # digits are not all 0 and its double is not normal
    for text in texts:
        expected = float(text)
        data = artifacts._compiled_rows(f"1,{text},0.5,0.5,0.5\n".encode())
        if data is None:
            assert float(text.split("e")[0]) != 0, text
            assert not 2.2250738585072014e-308 < abs(expected) < math.inf, text
        else:
            assert data[0, 1] == expected, text
            assert math.copysign(1, data[0, 1]) == math.copysign(1, expected), text


# a field in repr's spelling, its integer and fraction digits grouped
REPR_FIELD = re.compile(r"-?(?:inf|nan|([0-9]+)(?:\.([0-9]+))?(?:e[+-][0-9]+)?)")


def model_parse(text: str) -> list[list[float]] | None:
    """What ``um_parse_rows`` gives for the rows ``text``, by the rule it
    follows: float() of every field, or None where it declines, which is
    where a row is not five fields in repr's spelling ended by a line break,
    a field has more than 19 significant digits, or a field's digits are
    not all zero and its double is not normal."""
    if not text.endswith("\n"):
        return None
    rows = []
    for line in text[:-1].split("\n"):
        fields = line.split(",")
        if len(fields) != 5:
            return None
        for field in fields:
            match = REPR_FIELD.fullmatch(field)
            if match is None or field == "-nan":
                return None
            significant = ((match[1] or "") + (match[2] or "")).lstrip("0")
            if len(significant) > 19:
                return None
            if significant and not 2.2250738585072014e-308 <= abs(float(field)) < math.inf:
                return None
        rows.append([float(field) for field in fields])
    return rows


# 19 digits with no zero among them, so a cut of them starts with a digit
# the significant count includes
DIGITS = "7182818284590452353"


def eight_digit_step_rows() -> list[str]:
    """Rows at the edges of the parse's 8-digit step: fractions of either
    side of one and two chunks, in a middle and in the last field, with and
    without an exponent; zeros before the first significant digit that end
    in every place of the first three chunks, before 19 and 20 significant
    digits; and each byte that ends a run of digits, and the bytes just
    outside '0'-'9', at every offset of the first and of the second chunk."""
    rows = []
    for count in (7, 8, 9, 15, 16, 17):
        for whole in ("0", "3", "-12"):
            for exponent in ("", "e-07", "e+22"):
                field = f"{whole}.{DIGITS[:count]}{exponent}"
                rows += [f"1,{field},0.5,0.5,0.5\n", f"1,0.5,0.5,0.5,{field}\n"]
    for zeros in range(17):
        for significant in ("1" + DIGITS[:18], "1" + DIGITS):
            rows.append(f"1,0.{'0' * zeros}{significant},-0.5,0.5,0.5\n")
    for chunk in (0, 8):
        for offset in range(8):
            before, after = DIGITS[: chunk + offset], DIGITS[chunk + offset : 17]
            rows += [
                f"1,0.5,0.{before}/{after},0.5,0.5\n",
                f"1,0.5,0.{before}:{after},0.5,0.5\n",
                f"1,0.5,0.{before}.{after},0.5,0.5\n",
                f"1,0.5,0.{before}e-05,{after},0.5\n",
                f"1,0.5,0.5,0.{before},{after}\n",
                f"1,0.5,0.5,0.5,0.{before}\n2,{after},0.5,0.5,0.5\n",
            ]
    return rows


def end_of_buffer_rows() -> list[str]:
    """Rows whose last field's digits end 0 to 7 bytes, and more, before
    the end of the buffer, after none, one or two chunks: the step must not
    load a chunk that runs past that end."""
    return [
        f"1,0.5,0.5,0.5,{sign}0.{DIGITS[:count]}\n"
        for sign in ("", "-") for count in range(1, 20)
    ]


@needs_library
def test_the_eight_digit_step_reads_and_declines_as_float_and_the_rule_do():
    for text in eight_digit_step_rows() + end_of_buffer_rows():
        expected = model_parse(text)
        data = artifacts._compiled_rows(text.encode())
        if expected is None:
            assert data is None, text
        else:
            assert data is not None, text
            assert np.array_equal(data, expected, equal_nan=True), text
            assert np.array_equal(np.signbit(data), np.signbit(expected)), text


# runs every entry point of the library at sys.argv[2] in place of the one
# the package loaded, on the inputs of the JSON on stdin, and prints what
# each gave; a sanitized build aborts at the first undefined behaviour or
# out-of-bounds access.  Each buffer the kernel gets is a numpy array of
# exactly its size, so AddressSanitizer's redzone starts where it ends: the
# seeds and streams of um_seed, and the state, streams and outputs of
# um_advance_rows on 2 rows (a group whose second half is all padding, so
# a padding lane that wrote back would write past the buffers), on one full
# group of eight rows, on such a group followed by a lone row (9) and by a
# group padded from five rows (13), and on a padded and a full group that
# stop; the out buffers of um_repr_join and um_repr_rows, of the capacity
# each call is given, on values whose texts are all REPR_MAX long; and the
# buffer and out of um_parse_rows on each text of a byte-edit corpus and on
# rows whose last digits end within 8 bytes of the buffer's end, where the
# 8-digit step's load nearest that end is checked; and the readout's passes
# (um_weigh_rows, um_cut_rows, um_real_rows) in process_readouts at each
# (wiener, truncation) setting, so the cut runs on the weighted coefficients
# and, with the filter off, on a scratch copy of the raw ones at the raw
# power's peaks: on 1, 2 and 64 rows of an odd and an even M, on 64 rows
# again, into the rows x M arrays the thread kept from the call before, and
# on 2 rows after them, into new ones of the smaller shape, whose scratch,
# per-row and rows x M buffers, the kept ones too, are numpy arrays of
# exactly their size, and on a batch whose NaN row the weighing declines
# after it has written the row before
SETTINGS = [(True, True), (True, False), (False, True), (False, False)]  # (wiener, truncation)
SANITIZED = """
import hashlib, json, sys, warnings
import numpy as np
sys.path.insert(0, sys.argv[1])
from unsharp_monitor import _kernel, artifacts, spectral, trajectory
from unsharp_monitor.config import load_run_config
from unsharp_monitor.povm import PovmParams, StateError
inputs = json.load(sys.stdin)
library = _kernel.open_library(sys.argv[2])
_kernel.load = lambda: library
values = np.array(inputs["bits"], dtype=np.uint64).view(np.float64)
rows = [artifacts._compiled_rows(f"1,{text},0.5,0.5,0.5\\n".encode()) for text in inputs["texts"]]
replicates = []
for preset in ("fig1", "fig3"):
    config = load_run_config(preset=preset, overrides={"m_series": 40}).trajectory
    for count in inputs["counts"]:
        seeds = inputs["seeds"][:count]
        replicates.append([a.tolist() for a in trajectory.simulate_replicates(config, seeds)])
# tau = 0, p1 = 1, p2 = 0: a row's norm of 2 gives p_plus = 4, so the
# compiled lanes stop and the Python loop raises; row 3 of 5 stops a group
# padded from five rows and row 6 of 13 the second half of a group of eight
config = trajectory.TrajectoryConfig(PovmParams(1.0, 0.0), 0.0, 3, 2)
stopped = []
for count, large in ((5, 3), (13, 6)):
    state = np.array([[1.0, 0.0, 0.0, 0.0]] * (count - 1) + [[0.6, 0.0, 0.8, 0.0]])
    state[large, 0] = 2.0
    try:
        trajectory._compiled_advance(
            state, trajectory._constants(config), 3, trajectory._streams(range(count)),
            np.empty((count, 2)), np.empty((count, 2), dtype=np.int64),
        )
    except StateError as error:
        stopped.append(str(error))
longest = [np.full(n, -2.2250738585072014e-308) for n in inputs["longest"]]

def joined(values, separator):
    return bytes(artifacts._assemble([artifacts._join_part(values, separator)]))

def csv_rows(*columns):
    return bytes(artifacts._assemble([artifacts._rows_part(*columns)]))

def parsed(text):
    buffer = np.frombuffer(text.encode(), dtype=np.uint8).copy()
    out = np.empty((text.count("\\n"), 5))
    rows = library.um_parse_rows(buffer.ctypes.data, buffer.size, out.ctypes.data, out.size)
    return [rows, repr(out[:max(rows, 0)].tolist())]

# each readout's arrays as one SHA-256, and what each pass returned
passes = []
for name in ("um_weigh_rows", "um_cut_rows", "um_real_rows"):
    entry = getattr(library, name)
    setattr(library, name, lambda *args, entry=entry: passes.append(entry(*args)) or passes[-1])
readouts, kept, scratch = [], [], None
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    for x in inputs["readouts"]:
        for wiener, truncation in inputs["settings"]:
            result = spectral.process_readouts(np.array(x), wiener, truncation)
            data = b"".join(field.tobytes() for field in result if field is not None)
            readouts.append(hashlib.sha256(data).hexdigest())
            kept.append(spectral._kept.scratch is scratch)
            scratch = spectral._kept.scratch

# the writers' bytes as JSON strings
print(json.dumps({
    "longest": [
        [joined(x, separator).decode() for separator in inputs["separators"]]
        + [csv_rows(x, x, x, x).decode()] for x in longest
    ],
    "edited": [parsed(text) for text in inputs["edited"]],
    "joined": [joined(values, separator).decode() for separator in inputs["separators"]],
    "rows": csv_rows(values, -values, values[::-1], np.roll(values, 1)).decode(),
    "parsed": repr(artifacts._compiled_rows(inputs["parsed"].encode()).tolist()),
    "decimals": [None if row is None else repr(row[0, 1]) for row in rows],
    "replicates": repr(replicates),
    "stopped": stopped,
    "readouts": readouts,
    "kept": kept,
    "passes": passes,
}))
"""


@needs_cc
@needs_library
@pytest.mark.filterwarnings("ignore::unsharp_monitor.trajectory.SeriesBoundWarning")
def test_the_library_runs_clean_under_the_undefined_behaviour_sanitizer(
    sanitized_libraries, fig3_artifacts
):
    # and under AddressSanitizer, in the same build where the compiler links both
    runs, missing = sanitized_libraries
    if not runs:
        pytest.skip(missing)
    rng = np.random.default_rng(20261021)
    patterns = rng.integers(0, 2**64, 10**5, dtype=np.uint64)
    values = np.concatenate([EDGE_DOUBLES, patterns.view(np.float64)])
    texts = TIES_AND_EDGES + [
        decimal_text(sign, int(w), int(point), exponent)
        for sign, w, point, exponent in zip(
            rng.choice(["", "-"], 500), rng.integers(0, 10**19, 500, dtype=np.uint64),
            rng.integers(0, 20, 500), rng.integers(-345, 311, 500).tolist(),
        )
    ]
    # the first 2, 8, 9 and all 13 of these seeds, the edge seeds of
    # _check_seed among them: a padded group, a full group, a full group and
    # a lone row, and a full group and a padded one; each row's 1000 draws
    # include 8 to 16 rotations by 0, where a shift by 64 would be undefined
    seeds = [*range(1, 10), 0, 2**32 - 1, 2**32, 2**64 - 1]
    # a seeded corpus of runs of fig3 body rows, each with up to six bytes
    # replaced, inserted or deleted, the new bytes from the alphabet of
    # test_any_byte_edit_of_the_csv_exits_0_or_2, of more than 16 bytes each,
    # then the rows whose digits end near the end of the buffer
    record, processed, _, _ = fig3_artifacts
    body = csv_rows(record.t, record.c2_sq, record.g2, processed)
    lines, alphabet = body.splitlines(keepends=True), b'0123456789.,-+eE\n\r#:{}"nai '
    edits = np.random.default_rng(20261020)
    edited = []
    while len(edited) < 400:
        start = int(edits.integers(len(lines) - 12))
        data = bytearray(b"".join(lines[start : start + int(edits.integers(1, 12))]))
        for _ in range(int(edits.integers(7))):
            kind, at = int(edits.integers(3)), int(edits.integers(len(data)))
            if kind == 0:
                data[at] = alphabet[int(edits.integers(len(alphabet)))]
            elif kind == 1:
                data.insert(at, alphabet[int(edits.integers(len(alphabet)))])
            else:
                del data[at]
        if len(data) > 16:
            edited.append(data.decode("ascii"))
    edited += end_of_buffer_rows()
    # noisy tones of M = 25 and 64 on 1, 2 and 64 rows, on the 64 in
    # reverse and on 2 of them, then two rows whose second holds a NaN
    readouts = []
    for m in (25, 64):
        x = 0.5 + 0.5 * np.cos(2 * math.pi * 3 * np.arange(1, m + 1) / m) + rng.normal(size=(64, m))
        readouts += [x[:rows] for rows in (1, 2, 64)] + [x[::-1], x[1:3]]
    readouts.append(np.where(np.arange(2 * 25).reshape(2, 25) == 30, math.nan, readouts[0][:1]))
    inputs = {
        "bits": values.view(np.uint64).tolist(), "texts": texts,
        "separators": [",", *JSON_SEPARATORS], "parsed": PARSED_TEXT.decode(),
        "seeds": seeds, "counts": [2, 8, 9, len(seeds)], "longest": [1, 2, 7, 100],
        "edited": edited,
        "readouts": [x.tolist() for x in readouts], "settings": SETTINGS,
    }
    expected_readouts = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for x in readouts:
            for wiener, truncation in SETTINGS:
                result = process_readouts(x, wiener, truncation)
                data = b"".join(field.tobytes() for field in result if field is not None)
                expected_readouts.append(hashlib.sha256(data).hexdigest())
    separators = inputs["separators"]
    assert len(repr(-2.2250738585072014e-308)) == _kernel.REPR_MAX
    longest = [np.full(n, -2.2250738585072014e-308) for n in inputs["longest"]]
    expected_longest = [
        [joined(x, separator).decode() for separator in separators]
        + [csv_rows(x, x, x, x).decode()] for x in longest
    ]
    expected_edited = []
    for text in edited:
        rows, out = raw_parse(_kernel.load(), text.encode())
        expected_edited.append([rows, repr(out[:max(rows, 0)].tolist())])
    expected = [artifacts._compiled_rows(f"1,{text},0.5,0.5,0.5\n".encode()) for text in texts]
    replicates = []
    for preset in ("fig1", "fig3"):
        config = load_run_config(preset=preset, overrides={"m_series": 40}).trajectory
        for count in inputs["counts"]:
            replicates.append([a.tolist() for a in simulate_replicates(config, seeds[:count])])
    for path, environment in runs:
        run = subprocess.run(
            [sys.executable, "-c", SANITIZED, str(Path(artifacts.__file__).parents[1]), str(path)],
            input=json.dumps(inputs), capture_output=True, text=True, timeout=300,
            env=environment,
        )
        assert run.returncode == 0, run.stderr
        result = json.loads(run.stdout)
        assert result["joined"] == [
            joined(values, separator).decode() for separator in separators
        ]
        assert result["rows"] == csv_rows(
            values, -values, values[::-1], np.roll(values, 1)
        ).decode()
        assert result["parsed"] == repr(PARSED)
        assert result["decimals"] == [None if row is None else repr(row[0, 1]) for row in expected]
        assert result["replicates"] == repr(replicates)
        assert result["stopped"] == ["p_plus = 4.0 lies outside [0, 1] beyond float slack"] * 2
        assert result["longest"] == expected_longest
        assert result["edited"] == expected_edited
        assert result["readouts"] == expected_readouts
        # the repeated shape, and each batch's later settings, wrote into
        # the arrays kept from the call before
        first = [False, False, False, True, False] * 2 + [False]
        later = (False, True, True, True)
        assert result["kept"] == [kept or again for kept in first for again in later]
        # every pass ran at each setting of the ten batches (the cut where
        # truncation is on), and each declined the NaN batch
        passes = [[0] * (2 + truncation) for _, truncation in SETTINGS] * 10
        passes += [[-1] * (2 + truncation) for _, truncation in SETTINGS]
        assert result["passes"] == [value for values in passes for value in values]
    if missing:
        pytest.skip(f"the other sanitizer passed; {missing}")


@needs_library
def test_compiled_reader_reads_back_every_binary_exponent(tmp_path, monkeypatch):
    # every double written by write_trajectory_csv reads back as float() reads
    # its text; a file with a subnormal is read by float() as a whole
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-323, 309)]).view(np.int64)
    near_powers_of_ten = np.concatenate(
        [(powers_of_ten + ulps).view(np.float64) for ulps in (-3, -2, -1, 0, 1, 2, 3)]
    )
    patterns = np.random.default_rng(20261019).integers(0, 2**64, 200_000, dtype=np.uint64)
    values = np.concatenate([powers_of_two, near_powers_of_ten, [0.0, math.nan, math.inf]])
    values = np.concatenate([values, -values, patterns.view(np.float64)])
    subnormal = (values != 0) & (np.abs(values) < 2.2250738585072014e-308)
    fallbacks = []
    parse_rows = artifacts._parse_rows

    def spy(*args):
        fallbacks.append(1)
        return parse_rows(*args)

    monkeypatch.setattr(artifacts, "_parse_rows", spy)
    for part, compiled in ((values[~subnormal], True), (values[subnormal], False)):
        part = np.concatenate([part, np.zeros(-len(part) % 4)]).reshape(4, -1)
        path = tmp_path / f"compiled-{compiled}.csv"
        m = np.arange(1, part.shape[1] + 1)
        write_trajectory_csv(path, m, *part, {"seed": 1})
        fallbacks.clear()
        _, columns = read_trajectory_csv(path)
        assert fallbacks == ([] if compiled else [1])
        assert columns["m"].tolist() == m.tolist()
        for name, written in zip(TRAJECTORY_COLUMNS[1:], part):
            expected = np.array([float(text) for text in repr_texts(written)])
            assert np.array_equal(columns[name], expected, equal_nan=True), name
            assert np.array_equal(np.signbit(columns[name]), np.signbit(expected)), name


@needs_cc
def test_a_fig3_file_takes_the_compiled_route(tmp_path, monkeypatch, fig3_artifacts):
    # with a compiler on PATH, a fig3 file read by float() is a failure
    record, processed, echo, _ = fig3_artifacts
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, record.m, record.t, record.c2_sq, record.g2, processed, echo)
    expected_echo, expected = reference_read(path)
    calls, library = [], _kernel.load()
    parse = library.um_parse_rows
    monkeypatch.setattr(library, "um_parse_rows", lambda *args: calls.append(args) or parse(*args))

    def refuse(*args):
        raise AssertionError("the float() route ran")

    monkeypatch.setattr(artifacts, "_parse_rows", refuse)
    read_echo, columns = read_trajectory_csv(path)
    assert len(calls) == 1
    assert read_echo == expected_echo
    assert_same_columns(columns, expected)
