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
import ctypes
import json
import math
import re
import signal
import struct
import subprocess
import sys
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
from unsharp_monitor.spectral import process_readout
from unsharp_monitor.trajectory import simulate_trajectory

from helpers import needs_cc

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
    for parse in (artifacts._PARSE, None):
        monkeypatch.setattr(artifacts, "_PARSE", parse)
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
    artifacts._write_text(Path(sys.argv[2]), "new " * 10000)
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


@contextlib.contextmanager
def python_writer():
    """Within the block, float rows and arrays take the ``float.__repr__`` route."""
    saved, artifacts._WRITER = artifacts._WRITER, None
    try:
        yield
    finally:
        artifacts._WRITER = saved


# the two routes are compared only where the library loaded;
# test_compiled_formatter_is_in_use fails when a compiler is there and it did not
needs_library = pytest.mark.skipif(
    artifacts._LIBRARY is None, reason="the compiled library did not load"
)

EDGE_DOUBLES = [
    0.0, -0.0,
    math.nan, -math.nan, as_double(0x7FF0000000000001), as_double(0xFFF8000000000123),
    math.inf, -math.inf,
    5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308, 1.7976931348623157e308,
    1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 0.1 + 0.2, 2.0**53 + 2,
]
# the separators between the items of a JSON float array at two indentations
JSON_SEPARATORS = (",\n  ", ",\n    ")


@needs_cc
def test_compiled_formatter_is_in_use():
    # with a compiler on PATH, a fallback to float.__repr__ is a failure
    assert artifacts._LIBRARY is not None
    assert artifacts._WRITER is artifacts._LIBRARY


# a byte no entry point writes, and the bytes kept free past the capacity passed
UNWRITTEN, SLACK = 0xA5, 8


def written(out: np.ndarray, size: int) -> str | None:
    """The text of a raw call's ``size`` bytes, or None for -1; either way
    asserts that no other byte of ``out`` was written."""
    if size < 0:
        assert size == -1 and (out == UNWRITTEN).all()
        return None
    assert (out[size:] == UNWRITTEN).all()
    return out[:size].tobytes().decode("ascii")


def raw_join(library, values: np.ndarray, separator: str, short: int = 0) -> str | None:
    """``um_repr_join`` into a capacity ``short`` bytes below its worst case."""
    sep = separator.encode("ascii")
    capacity = (_kernel.REPR_MAX + len(sep)) * len(values) - short
    out = np.full(max(capacity, 0) + SLACK, UNWRITTEN, dtype=np.uint8)
    size = library.um_repr_join(
        values.ctypes.data, len(values), sep, len(sep), out.ctypes.data, capacity
    )
    return written(out, size)


def raw_rows(library, index: np.ndarray, columns: np.ndarray, short: int = 0) -> str | None:
    """``um_repr_rows`` into a capacity ``short`` bytes below its worst case."""
    width, n = columns.shape
    capacity = (_kernel.INDEX_MAX + 1 + (_kernel.REPR_MAX + 1) * width) * n - short
    out = np.full(max(capacity, 0) + SLACK, UNWRITTEN, dtype=np.uint8)
    size = library.um_repr_rows(
        index.ctypes.data, columns.ctypes.data, n, width, out.ctypes.data, capacity
    )
    return written(out, size)


# row indices of many digit counts, the int64 extremes first
INDEX_EDGES = [
    -(2**63), 2**63 - 1, 0, -1, 9, 10, 10**8 - 1, 10**8, -(10**8), 10**16 - 1, 10**16,
    -(10**16) - 1, 10**18, 10**18 - 1, 1234567890123456789, 99, 100, 7,
]


def writer_inputs(values: list[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The values, an index of ``INDEX_EDGES`` as long, and two columns of
    them for ``um_repr_rows``."""
    array = np.array(values, dtype=float)
    index = np.resize(np.array(INDEX_EDGES, dtype=np.int64), len(array))
    return array, index, np.array([array, -array[::-1]])


def typed_copy(path: Path) -> ctypes.CDLL:
    """The library at ``path``, its entry points typed as ``artifacts._LIBRARY``'s."""
    library = ctypes.CDLL(str(path))
    for name in ("um_repr_join", "um_repr_rows", "um_parse_rows"):
        typed = getattr(artifacts._LIBRARY, name)
        getattr(library, name).argtypes = typed.argtypes
        getattr(library, name).restype = typed.restype
    return library


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
    library = artifacts._LIBRARY
    values, index, columns = writer_inputs(values)
    separators = (",", *JSON_SEPARATORS)
    with python_writer():
        joined = [artifacts._joined(values, separator) for separator in separators]
        rows = artifacts._csv_rows(index, *columns)
    for separator, text in zip(separators, joined):
        assert raw_join(library, values, separator) == artifacts._joined(values, separator) == text
        assert raw_join(library, values, separator, short=1) is None
    assert raw_rows(library, index, columns) == artifacts._csv_rows(index, *columns) == rows
    assert raw_rows(library, index, columns, short=1) is None


@needs_library
def test_a_writer_that_refuses_its_buffer_raises(monkeypatch):
    # the buffers are sized from _kernel's REPR_MAX and INDEX_MAX; sizes one
    # below the library's own make it refuse, which must not read as text
    values, index, columns = writer_inputs(EDGE_DOUBLES)
    monkeypatch.setattr(_kernel, "REPR_MAX", _kernel.REPR_MAX - 1)
    with pytest.raises(RuntimeError, match="^the float writer wrote nothing"):
        artifacts._joined(values, ",")
    with pytest.raises(RuntimeError, match="^the float writer wrote nothing"):
        artifacts._csv_rows(index, *columns)


@needs_library
def test_the_writer_checks_its_sizes_without_overflow():
    # sizes whose worst case overflows int64 are refused before a byte is read
    library = artifacts._LIBRARY
    value, out = np.array([0.5]), np.full(SLACK, UNWRITTEN, dtype=np.uint8)
    huge, top = 2**62, 2**63 - 1
    index = np.array([1])
    for n, sep_len in [(-1, 1), (1, -1), (1, top), (huge, 100), (top, 1)]:
        size = library.um_repr_join(value.ctypes.data, n, b",", sep_len, out.ctypes.data, top)
        assert size == -1, (n, sep_len)
    for n, width in [(-1, 1), (1, -1), (1, top // 4), (huge, 4), (top, 1)]:
        size = library.um_repr_rows(
            index.ctypes.data, value.ctypes.data, n, width, out.ctypes.data, top
        )
        assert size == -1, (n, width)
    assert library.um_repr_join(value.ctypes.data, 1, b",", 1, out.ctypes.data, -1) == -1
    assert (out == UNWRITTEN).all()


bit_patterns = st.integers(0, 2**64 - 1).map(as_double) | st.floats()


@needs_library
@settings(max_examples=300, deadline=None)
@given(st.lists(bit_patterns, max_size=50), st.integers(0, 10**6 - 50))
@example(EDGE_DOUBLES, 10**6 - len(EDGE_DOUBLES) + 1)
@example([], 1)
@example([0.1], 10**6)
def test_compiled_texts_are_float_repr(values, first):
    # the index runs up to 10^6 at most
    array = np.array(values, dtype=float)
    texts = repr_texts(array)
    for separator in (",", *JSON_SEPARATORS):
        assert artifacts._joined(array, separator) == separator.join(texts)
    index = np.arange(first, first + len(array))
    columns = (array, -array, array[::-1], np.roll(array, 1))
    payload = {"array": array, "nested": [array]}  # at two indentations
    rows, text = artifacts._csv_rows(index, *columns), dump_json(payload)
    with python_writer():
        assert rows == artifacts._csv_rows(index, *columns)
        assert text == dump_json(payload)
    assert text == reference_json(payload)


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
    assert artifacts._joined(values, ",") == ",".join(repr_texts(values))
    columns = exponents.reshape(2, -1)
    rows = artifacts._csv_rows(np.arange(1, columns.shape[1] + 1), *columns, *-columns)
    with python_writer():
        assert rows == artifacts._csv_rows(np.arange(1, columns.shape[1] + 1), *columns, *-columns)


@needs_library
def test_compiled_texts_copy_what_the_pointer_cannot_read():
    values = np.arange(12.0).reshape(3, 4) / 7
    assert artifacts._joined(values[:, 1], ",") == ",".join(repr_texts(values[:, 1]))
    swapped = values.ravel().astype(">f8")
    assert artifacts._joined(swapped, ",") == ",".join(repr_texts(values.ravel()))
    index = np.arange(3.0)[::-1]  # floats, strided
    rows = artifacts._csv_rows(index, values[:, 1], swapped[:3], values[0, :3].astype(">f8"))
    with python_writer():
        expected = artifacts._csv_rows(index, values[:, 1], swapped[:3], values[0, :3])
    assert rows == expected
    with pytest.raises(ValueError, match=r"expected a 1-d array, got shape \(3, 4\)"):
        artifacts._joined(values, ",")
    with pytest.raises(ValueError, match="columns of one length"):
        artifacts._csv_rows(np.arange(3), np.arange(4.0))
    with pytest.raises(ValueError, match="columns of one length"):
        artifacts._csv_rows(np.arange(12).reshape(3, 4), values)


@needs_cc
@needs_library
def test_the_portable_product_writes_and_reads_as_the_python_routes(tmp_path):
    # the float text source built without unsigned __int128, as a compiler
    # without it builds it: umul128's portable body does every product
    source = next(path for path in _kernel.SOURCES if path.name == "_repr.c")
    path, header = tmp_path / "portable.so", tmp_path / "pow10.h"
    _kernel.write_table_header(header)
    subprocess.run(
        [*_kernel.compiler(), *_kernel.FLAGS, "-U__SIZEOF_INT128__", "-include", str(header),
         "-o", str(path), str(source)],
        check=True, capture_output=True, timeout=_kernel.BUILD_TIMEOUT_S,
    )
    library = typed_copy(path)
    patterns = np.random.default_rng(20261020).integers(0, 2**64, 100_000, dtype=np.uint64)
    values = np.concatenate([EDGE_DOUBLES, patterns.view(np.float64)])
    index = np.arange(1, len(values) + 1)
    columns = np.array([values, -values, values[::-1], np.roll(values, 1)])
    with python_writer():
        for separator in (",", *JSON_SEPARATORS):
            assert raw_join(library, values, separator) == artifacts._joined(values, separator)
        rows = artifacts._csv_rows(index, *columns)
    assert raw_rows(library, index, columns) == rows
    # a row with a subnormal is declined, for float() to read
    lines = np.array(rows.splitlines(keepends=True))
    subnormal = ((columns != 0) & (np.abs(columns) < 2.2250738585072014e-308)).any(axis=0)
    assert subnormal.any()
    assert all(raw_parse(library, line.encode())[0] == -1 for line in lines[subnormal])
    count, parsed = raw_parse(library, "".join(lines[~subnormal]).encode())
    assert count == len(parsed) == (~subnormal).sum()
    expected = [[float(field) for field in line.split(",")] for line in lines[~subnormal]]
    assert np.array_equal(parsed, expected, equal_nan=True)
    assert np.array_equal(np.signbit(parsed), np.signbit(expected))


def test_a_non_finite_float_array_is_quoted_as_json_safe_quotes_it():
    payload = {
        "a": np.array([0.1, math.nan, -0.0, math.inf, -math.inf]),
        "b": [np.array([math.nan])],
    }
    expected = reference_json(payload)
    assert '"nan"' in expected and '"-inf"' in expected
    assert dump_json(payload) == expected
    with python_writer():
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
    calls = []
    parse = artifacts._PARSE
    monkeypatch.setattr(artifacts, "_PARSE", lambda *args: calls.append(args) or parse(*args))

    def refuse(*args):
        raise AssertionError("the float() route ran")

    monkeypatch.setattr(artifacts, "_parse_rows", refuse)
    read_echo, columns = read_trajectory_csv(path)
    assert len(calls) == 1
    assert read_echo == expected_echo
    assert_same_columns(columns, expected)
