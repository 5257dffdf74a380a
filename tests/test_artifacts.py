"""The bulk artifact writer and reader against the per-value code they replaced.

``dump_json`` must spell every payload exactly as
``json.dumps(json_safe(payload), indent=2) + "\\n"`` does, and
``write_trajectory_csv`` every row exactly as one ``fmt`` call per value did.
``read_trajectory_csv`` must return exactly the arrays of the per-line
``float()`` loop it replaced, which this file keeps as ``reference_read``,
and raise the same error naming the same line for any malformed file.
The compiled float formatter must give ``float.__repr__``'s text for every
double, wherever the library loaded, and format nothing before its tables
are installed.
"""

import ctypes
import json
import math
import shutil
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from unsharp_monitor import _kernel, artifacts
from unsharp_monitor.artifacts import (
    TRAJECTORY_COLUMNS,
    ArtifactError,
    FloatTexts,
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
    scalars | float_arrays | float_arrays.map(FloatTexts),
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
@example({"p": FloatTexts([0.1, -0.0, math.nan, math.inf]), "q": FloatTexts([])})
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
@given(st.integers(0, 30).flatmap(column_sets), st.booleans())
@example((np.array([-0.0, math.nan]), np.array([0.0, -0.0]),
          np.array([math.nan, 1e16]), np.array([5e-324, -math.inf])), False)
@example((np.zeros(6), np.zeros(6), np.array([0.0, -0.0, math.nan, -0.0, 0.0, math.nan]),
          np.ones(6)), True)
def test_trajectory_rows_match_the_per_value_loop(tmp_path_factory, columns, preformatted):
    path = tmp_path_factory.mktemp("rows") / "trajectory.csv"
    m = np.arange(1, len(columns[0]) + 1)
    t, c2_sq, g2, processed = columns
    if preformatted:  # as simulate and analyze pass it
        processed = FloatTexts(processed)
    write_trajectory_csv(path, m, t, c2_sq, g2, processed, {"seed": 1})
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
    """The lines of a valid trajectory CSV, blank lines anywhere."""
    lines = ["# schema: unsharp-monitor/1"]
    lines += draw(blank_lines)
    if draw(st.booleans()):
        lines.append("# config: " + json.dumps({"seed": draw(st.integers(0, 9))}))
    lines += draw(blank_lines)
    lines.append(",".join(TRAJECTORY_COLUMNS))
    for index in range(1, draw(st.integers(1, 40)) + 1):
        fields = [draw(index_text(index))] + [draw(number_fields) for _ in range(4)]
        lines.append(",".join(fields))
        lines += draw(blank_lines)
    return lines


@settings(max_examples=300, deadline=None)
@given(trajectory_files())
@example([",".join(TRAJECTORY_COLUMNS), "1,-0.0,nan,-inf,5e-324", "", " ", "2,0.0,-nan,inf,-5e-324"])
def test_reader_matches_the_per_line_loop(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("parity") / "trajectory.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    echo, columns = read_trajectory_csv(path)
    expected_echo, expected = reference_read(path)
    assert echo == expected_echo
    assert_same_columns(columns, expected)


def test_reader_reads_rows_across_conversion_blocks(tmp_path):
    # more rows than one conversion block holds, with a blank line at a block edge
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


def as_double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def repr_texts(values: np.ndarray) -> list[str]:
    """The oracle: one ``float.__repr__`` per element."""
    return list(map(float.__repr__, values.tolist()))


# the two routes are compared only where the library loaded;
# test_compiled_formatter_is_in_use fails when a compiler is there and it did not
needs_library = pytest.mark.skipif(
    artifacts._REPR is None, reason="the compiled library did not load"
)

EDGE_DOUBLES = [
    0.0, -0.0,
    math.nan, -math.nan, as_double(0x7FF0000000000001), as_double(0xFFF8000000000123),
    math.inf, -math.inf,
    5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308, 1.7976931348623157e308,
    1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 0.1 + 0.2, 2.0**53 + 2,
]


@needs_cc
def test_compiled_formatter_is_in_use():
    # with a compiler on PATH, a fallback to float.__repr__ is a failure
    assert artifacts._REPR is not None
    assert artifacts._texts is artifacts._compiled_texts


@needs_library
def test_the_formatter_needs_tables_of_the_right_length(tmp_path, monkeypatch):
    # a second copy of the library has statics of its own: no tables in yet
    shutil.copy(_kernel.library_path(), tmp_path / "copy.so")
    library = ctypes.CDLL(str(tmp_path / "copy.so"))
    for name in ("um_repr", "um_install_tables"):
        typed = getattr(artifacts._LIBRARY, name)
        getattr(library, name).argtypes = typed.argtypes
        getattr(library, name).restype = typed.restype
    values = np.array(EDGE_DOUBLES)
    out = ctypes.create_string_buffer(_kernel.REPR_STRIDE * len(values))
    assert library.um_repr(values.ctypes.data, len(values), out, len(out)) == -1
    monkeypatch.setattr(artifacts, "_REPR", library.um_repr)
    with pytest.raises(RuntimeError, match="tables are not installed"):
        artifacts._compiled_texts(values)

    pow5, n, pow5_inv, n_inv = _kernel.pow5_tables()
    for counts in [(n - 1, n_inv), (n + 1, n_inv), (n, n_inv - 1), (n, n_inv + 1)]:
        assert library.um_install_tables(pow5, counts[0], pow5_inv, counts[1]) == -1
        assert library.um_repr(values.ctypes.data, len(values), out, len(out)) == -1
    assert library.um_install_tables(pow5, n, pow5_inv, n_inv) == 0
    assert artifacts._compiled_texts(values) == repr_texts(values)


@needs_library
@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1).map(as_double) | st.floats(), max_size=50))
@example(EDGE_DOUBLES)
@example([])
def test_compiled_texts_are_float_repr(values):
    array = np.array(values, dtype=float)
    assert artifacts._compiled_texts(array) == repr_texts(array)


@needs_library
def test_compiled_texts_match_float_repr_at_every_binary_exponent():
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-323, 309)]).view(np.int64)
    near_powers_of_ten = np.concatenate(
        [(powers_of_ten + ulps).view(np.float64) for ulps in (-3, -2, -1, 0, 1, 2, 3)]
    )
    patterns = np.random.default_rng(20261018).integers(0, 2**64, 200_000, dtype=np.uint64)
    values = np.concatenate([powers_of_two, near_powers_of_ten])
    values = np.concatenate([values, -values, patterns.view(np.float64)])
    assert artifacts._compiled_texts(values) == repr_texts(values)


@needs_library
def test_compiled_texts_copy_what_the_pointer_cannot_read():
    values = np.arange(12.0).reshape(3, 4) / 7
    assert artifacts._float_texts(values[:, 1]) == repr_texts(values[:, 1])
    swapped = values.ravel().astype(">f8")
    assert artifacts._float_texts(swapped) == repr_texts(values.ravel())
    with pytest.raises(ValueError, match=r"expected a 1-d array, got shape \(3, 4\)"):
        artifacts._compiled_texts(values)
