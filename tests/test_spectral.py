"""DFT bookkeeping, Wiener filtering, truncation, and regime classification."""

import contextlib
import copy
import functools
import itertools
import math
import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from unsharp_monitor import _kernel, spectral
from unsharp_monitor.povm import ParameterError
from unsharp_monitor.spectral import (
    AnalysisError,
    _cut,
    _real,
    _spectra,
    _weighed,
    classify_regime,
    main_peak,
    power_spectrum,
    process_readout,
    synthesize,
    truncate_series,
    wiener_filter,
)
from unsharp_monitor.spectral import process_readouts, row_correlations, row_medians

from helpers import needs_library, python_route

DT = 0.05

sequences = arrays(np.float64, st.integers(4, 200), elements=st.floats(-1e3, 1e3))


def tone(m: int, k: int, amplitude: float = 1.0, phase: float = 0.0) -> np.ndarray:
    grid = np.arange(1, m + 1)
    return amplitude * np.cos(2 * math.pi * k * grid / m + phase)


class TestPowerSpectrum:
    @settings(max_examples=200, deadline=None)
    @given(x=sequences, dt=st.floats(1e-3, 1e3))
    @example(x=np.random.default_rng(61).normal(size=301) * 10, dt=DT)
    def test_round_trip(self, x, dt):
        back = synthesize(power_spectrum(x, dt))
        assert np.max(np.abs(back - x)) <= 1e-12 * max(1.0, float(np.max(np.abs(x))))

    def test_constant_sequence_has_only_the_mean_line(self):
        record = power_spectrum(np.full(32, 0.7), DT)
        assert record.power[0] == pytest.approx(0.49, abs=1e-12)
        assert np.max(record.power[1:]) < 1e-28
        assert record.coefficients[0] == pytest.approx(0.7, abs=1e-12)

    def test_mean_sits_in_the_zero_bin(self):
        rng = np.random.default_rng(62)
        x = rng.normal(size=50) + 3.0
        record = power_spectrum(x, DT)
        assert record.coefficients[0].real == pytest.approx(float(x.mean()), abs=1e-12)
        assert abs(record.coefficients[0].imag) < 1e-12

    def test_pure_tone_splits_between_conjugate_bins(self):
        m, k = 64, 5
        record = power_spectrum(tone(m, k), DT)
        assert record.power[k] == pytest.approx(0.25, abs=1e-12)
        assert record.power[m - k] == pytest.approx(0.25, abs=1e-12)
        others = np.delete(record.power, [k, m - k])
        assert np.max(others) < 1e-24

    def test_frequencies_grid(self):
        record = power_spectrum(tone(40, 3), DT)
        assert record.frequencies[1] == pytest.approx(2 * math.pi / (40 * DT), rel=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(63)
        x = rng.normal(size=128)
        record = power_spectrum(x, DT)
        assert np.sum(record.power) == pytest.approx(np.mean(x**2), abs=1e-9)

    def test_short_sequences_rejected(self):
        with pytest.raises(AnalysisError):
            power_spectrum([1.0, 2.0, 3.0], DT)
        with pytest.raises(ParameterError):
            power_spectrum(np.zeros(8) + 1.0, 0.0)


class TestMainPeak:
    def test_tone_peak_location(self):
        record = power_spectrum(tone(64, 5), DT)
        peak = main_peak(record)
        assert peak.index == 5
        assert peak.frequency == pytest.approx(2 * math.pi * 5 / (64 * DT), rel=1e-12)
        assert peak.significant

    def test_flat_spectrum_has_no_peak(self):
        peak = main_peak(power_spectrum(np.full(32, 1.3), DT))
        assert peak.index is None
        assert not peak.significant

    def test_weak_noise_peak_flagged_insignificant(self):
        # frozen realization whose largest bin stays under 3x the median
        x = np.random.default_rng(1).normal(size=16)
        peak = main_peak(power_spectrum(x, DT))
        assert peak.index is not None
        assert not peak.significant

    def test_ties_break_toward_lower_bins(self):
        x = tone(60, 4) + tone(60, 9)
        record = power_spectrum(x, DT)
        assert main_peak(record).index == 4


class TestWienerFilter:
    def test_noiseless_tone_passes_untouched(self):
        record = power_spectrum(tone(64, 5, amplitude=2.0) + 0.3, DT)
        filtered = wiener_filter(record)
        weights = filtered.wiener_weights
        assert weights[5] >= 0.99
        assert weights[64 - 5] >= 0.99
        others = np.delete(weights, [0, 5, 64 - 5])
        assert np.max(others) == 0.0
        assert np.max(np.abs(synthesize(filtered) - synthesize(record))) < 1e-9

    def test_mean_is_always_preserved(self):
        rng = np.random.default_rng(64)
        x = rng.normal(size=80) + 5.0
        filtered = wiener_filter(power_spectrum(x, DT))
        assert filtered.coefficients[0] == pytest.approx(x.mean(), abs=1e-12)

    def test_pure_noise_is_strongly_suppressed(self):
        rng = np.random.default_rng(65)
        x = rng.normal(size=400)
        filtered = wiener_filter(power_spectrum(x, DT))
        weights = filtered.wiener_weights[1:]
        assert float(np.mean(weights)) <= 0.5
        assert np.all(weights <= 1.0) and np.all(weights >= 0.0)

    def test_snr_ten_to_one_improves_rms_at_least_twofold(self):
        rng = np.random.default_rng(66)
        m = 256
        clean = tone(m, 7, amplitude=1.0)
        # tone power 0.5, noise power 0.05 -> power SNR 10:1
        noisy = clean + rng.normal(scale=math.sqrt(0.05), size=m)
        filtered = synthesize(wiener_filter(power_spectrum(noisy, DT)))
        rms_before = math.sqrt(np.mean((noisy - clean) ** 2))
        rms_after = math.sqrt(np.mean((filtered - clean) ** 2))
        assert rms_after <= rms_before / 2

    def test_never_increases_power(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            x = rng.normal(size=100) + tone(100, 6, amplitude=rng.uniform(0, 2))
            record = power_spectrum(x, DT)
            filtered = wiener_filter(record)
            assert np.sum(filtered.power) <= np.sum(record.power) + 1e-12


class TestTruncation:
    def test_keeps_twice_the_peak_index(self):
        m, k = 64, 3
        record = power_spectrum(tone(m, k) + 0.1 * tone(m, 11) + 0.05 * tone(m, 20), DT)
        truncated = truncate_series(record)
        assert truncated.power[11] == 0.0
        assert truncated.power[20] == 0.0
        assert truncated.power[m - 11] == 0.0
        assert truncated.power[k] == pytest.approx(record.power[k], rel=1e-12)
        # bins up to 2k survive, everything between 2k and the mirror is gone
        assert np.all(truncated.power[2 * k + 1 : m - 2 * k] == 0.0)
        assert np.max(np.abs(synthesize(truncated) - tone(m, k))) < 1e-9

    @settings(max_examples=200, deadline=None)
    @given(x=sequences, filtered=st.booleans())
    @example(x=tone(64, 3) + 0.2 * tone(64, 9), filtered=False)
    def test_idempotent(self, x, filtered):
        record = power_spectrum(x, DT)
        if filtered:
            record = wiener_filter(record)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a flat spectrum has no peak to cut at
            once = truncate_series(record)
            twice = truncate_series(once)
        assert np.array_equal(once.coefficients, twice.coefficients)
        assert once.main_peak_index == twice.main_peak_index

    def test_no_peak_passes_through_with_warning(self):
        record = power_spectrum(np.full(16, 2.0), DT)
        with pytest.warns(UserWarning, match="no main peak"):
            out = truncate_series(record)
        assert np.array_equal(out.coefficients, record.coefficients)

    def test_never_increases_power(self):
        rng = np.random.default_rng(68)
        x = rng.normal(size=90) + tone(90, 4)
        record = power_spectrum(x, DT)
        truncated = truncate_series(record)
        assert np.sum(truncated.power) <= np.sum(record.power) + 1e-12


class TestProcessReadout:
    def test_constant_input_is_fixed(self):
        with pytest.warns(UserWarning, match="no main peak"):
            _, out = process_readout(np.full(16, 0.42), DT)
        assert np.max(np.abs(out - 0.42)) < 1e-12

    def test_clean_sinusoid_is_fixed(self):
        x = 0.5 + 0.5 * tone(128, 6, phase=0.7)
        _, out = process_readout(x, DT)
        assert math.sqrt(np.mean((out - x) ** 2)) < 1e-6

    def test_output_is_real_and_same_length(self):
        rng = np.random.default_rng(69)
        x = rng.normal(size=51)
        _, out = process_readout(x, DT)
        assert out.dtype == float
        assert len(out) == 51

    def test_toggles(self):
        rng = np.random.default_rng(70)
        x = tone(64, 3) + rng.normal(scale=0.5, size=64)
        record, everything_off = process_readout(x, DT, wiener=False, truncation=False)
        assert np.max(np.abs(everything_off - x)) < 1e-9
        assert record.wiener_weights is None
        record, _ = process_readout(x, DT)
        raw = power_spectrum(x, DT)
        assert np.array_equal(record.coefficients, raw.coefficients)
        assert np.array_equal(record.wiener_weights, wiener_filter(raw).wiener_weights)

    def test_too_short_rejected(self):
        with pytest.raises(AnalysisError):
            process_readout([1.0, 2.0], DT)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0, -0.0, -DT])
    def test_non_finite_or_non_positive_dt_rejected(self, dt):
        # nan used to give all-nan frequencies and inf all-zero ones
        x = tone(16, 2)
        with pytest.raises(ParameterError, match="dt"):
            process_readout(x, dt)


def reference_readout(x, dt, wiener, truncation):
    """The per-row readout pipeline the batched one replaced, as a reference.

    Returns the raw record's fields, the Wiener weights (or None), the
    processed samples, and whether truncation found no peak to cut at.
    """
    m = len(x)

    def analyzed(coefficients):
        power = np.abs(coefficients) ** 2
        searched = power[1 : m // 2 + 1]
        half = len(searched)
        floor = float(np.median(searched[half - max(1, half // 4):]))
        if float(searched.max() - searched.min()) <= 1e-15:
            return power, None, False, floor
        index = int(np.argmax(searched)) + 1
        return power, index, power[index] >= 3.0 * float(np.median(searched)), floor

    twist = np.exp(-2.0j * math.pi * np.arange(m) / m)
    coefficients = twist * np.fft.fft(x) / m
    power, index, significant, floor = analyzed(coefficients)
    kept, kept_index, weights = coefficients, index, None
    if wiener:
        top = float(power[1:].max())
        weights = np.zeros(m, dtype=float)
        if floor <= 1e-12 * top or top == 0.0:
            weights[power > 1e-12 * top] = 1.0
        else:
            signal = np.maximum(power - floor, 0.0)
            np.divide(signal, signal + floor, out=weights, where=(signal > 0.0))
        weights[0] = 1.0
        kept = coefficients * weights
        kept_index = analyzed(kept)[1]
    if truncation and kept_index is not None and 2 * kept_index < (m + 1) // 2:
        kept = kept.copy()
        kept[2 * kept_index + 1 : m - 2 * kept_index] = 0.0
    untwist = np.exp(2.0j * math.pi * np.arange(m) / m)
    values = np.fft.ifft(kept * untwist) * m
    scale = max(1.0, float(np.max(np.abs(values.real))))
    assert not float(np.max(np.abs(values.imag))) > 1e-9 * scale
    fields = (coefficients, power, index, bool(significant), floor)
    return fields, weights, values.real, truncation and kept_index is None


def reference_pearson(x, y):
    if x.std() == 0.0 or y.std() == 0.0 or np.isnan(x).any() or np.isnan(y).any():
        return math.nan
    return float(np.corrcoef(x, y)[0, 1])


def same(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return np.array_equal(a, b, equal_nan=True)


ROW_KINDS = ("noise", "tone", "constant", "nan", "passthrough", "lattice", "tiny")


def readout_row(kind: str, m: int, seed: int) -> np.ndarray:
    """One readout of a given shape; "constant" has no main peak,
    "passthrough" (a noiseless tone) takes the Wiener passthrough branch,
    "tiny" has deviations whose squares underflow, so its std is 0, and
    "overflow" (not in ROW_KINDS) has tones in the top quarter of the bins
    whose power overflows to inf, so its noise floor is inf."""
    rng = np.random.default_rng(seed)
    if kind == "overflow":
        bins = range(m // 2 - m // 8 + 1, m // 2 + 1)
        return sum(tone(m, k, amplitude=1e155, phase=rng.uniform(0, 2 * math.pi)) for k in bins)
    if kind == "constant":
        return np.full(m, rng.uniform(-1.0, 1.0))
    if kind == "passthrough":
        return tone(m, int(rng.integers(1, m // 2 + 1)))
    if kind == "lattice":  # G2-like values on the grid (k/n - p1) / dp
        return (rng.integers(0, 26, size=m) / 25 - 0.42) / 0.08
    x = rng.normal(size=m)
    if kind == "tiny":
        return x * 1e-170
    if kind == "tone":
        x += tone(m, int(rng.integers(1, m // 2 + 1)), amplitude=rng.uniform(0.1, 3.0))
    elif kind == "nan":
        x[rng.integers(m)] = np.nan
    return x


MIXED = [(kind, 100 + i) for i, kind in enumerate(ROW_KINDS)]


class TestBatchedReadout:
    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(4, 2000),
        rows=st.lists(st.tuples(st.sampled_from(ROW_KINDS), st.integers(0, 2**32)), min_size=1, max_size=64),
        wiener=st.booleans(),
        truncation=st.booleans(),
    )
    @example(m=200, rows=[("constant", 1)], wiener=True, truncation=True)
    @example(m=201, rows=[("nan", 2)], wiener=True, truncation=True)
    @example(m=64, rows=[("passthrough", 3)], wiener=True, truncation=True)
    @example(m=301, rows=MIXED, wiener=True, truncation=True)
    @example(m=2000, rows=MIXED * 8, wiener=True, truncation=True)
    @example(m=64, rows=[("overflow", 7), ("nan", 8), ("passthrough", 9)], wiener=True,
             truncation=True)
    @example(m=64, rows=[("overflow", 7), ("nan", 8)], wiener=False, truncation=True)
    def test_rows_match_the_per_row_pipeline(self, m, rows, wiener, truncation):
        x = np.array([readout_row(kind, m, seed) for kind, seed in rows])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = process_readouts(x, wiener, truncation)
        warned = any("no main peak" in str(w.message) for w in caught)
        # an inf power warns that it overflowed, and nothing after it warns
        runtime = {str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)}
        assert runtime <= {"overflow encountered in square"}
        assert result.processed.shape == x.shape
        no_peak = False
        for row in range(len(x)):
            with np.errstate(over="ignore"):
                fields, weights, values, skipped = reference_readout(x[row], DT, wiener, truncation)
            coefficients, power, index, significant, floor = fields
            no_peak |= skipped
            assert same(result.coefficients[row], coefficients)
            assert same(result.power[row], power)
            assert result.peak_index[row] == (index or 0)
            assert result.significant[row] == significant
            assert same(result.noise_floor[row], floor)
            row_weights = None if result.wiener_weights is None else result.wiener_weights[row]
            assert same(row_weights, weights)
            assert same(result.processed[row], values)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                single, single_values = process_readout(x[row], DT, wiener, truncation)
            assert same(single.frequencies, 2.0 * math.pi * np.arange(m) / (m * DT))
            assert same(single.coefficients, result.coefficients[row])
            assert same(single_values, result.processed[row])
        assert warned == no_peak

    @settings(max_examples=100, deadline=None)
    @given(
        m=st.integers(4, 2000),
        rows=st.lists(
            st.tuples(st.sampled_from(ROW_KINDS), st.sampled_from(ROW_KINDS), st.integers(0, 2**32)),
            min_size=1,
            max_size=64,
        ),
    )
    @example(m=200, rows=[("constant", "noise", 1), ("noise", "constant", 2)])
    @example(m=301, rows=[("nan", "noise", 3), ("noise", "nan", 4), ("tone", "tone", 5)])
    @example(m=2000, rows=[(a, b, 6) for a in ROW_KINDS for b in ROW_KINDS])
    def test_correlations_match_corrcoef(self, m, rows):
        x = np.array([readout_row(a, m, seed) for a, _, seed in rows])
        y = np.array([readout_row(b, m, seed + 1) for _, b, seed in rows])
        r = row_correlations(x, y)
        assert r.shape == (len(rows),)
        for row in range(len(rows)):
            assert same(r[row], reference_pearson(x[row], y[row]))

    # a few values repeat, so rows hold ties, both zeros and NaNs; some
    # rows are all NaN
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.integers(1, 5).flatmap(
            lambda rows: st.sampled_from([*range(1, 10), 100, 101]).flatmap(
                lambda m: arrays(
                    np.float64, (rows, m),
                    elements=st.one_of(
                        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, math.nan]),
                        st.floats(-1e6, 1e6),
                    ),
                )
            )
        ),
        nan_row=st.integers(0, 5),
    )
    # a partition at the middle alone leaves this row's NaN short of the end
    @example(values=np.where(np.arange(100) == 1, math.nan, np.arange(100.0) % 5)[None], nan_row=5)
    def test_row_medians_are_numpys_median(self, values, nan_row):
        if nan_row < len(values):
            values[nan_row] = math.nan
        assert row_medians(values).tobytes() == np.median(values, axis=1).tobytes()

    def test_no_peak_row_warns_once_per_batch(self):
        x = np.array([tone(64, 3), np.full(64, 0.5), tone(64, 5)])
        with pytest.warns(UserWarning, match="no main peak") as caught:
            result = process_readouts(x)
        assert len(caught) == 1
        assert result.peak_index.tolist() == [3, 0, 5]
        assert np.max(np.abs(result.processed[1] - 0.5)) < 1e-12

    def test_the_raw_cut_adds_no_warning(self, route):
        # with the filter off the cut searches the power the weighing has
        # searched, so a row whose searched power is all inf warns as often
        # with the cut as without it
        x = np.array([tone(32, 2), np.where(np.arange(32) == 5, 1e200, 1.0)])
        cut, uncut = (outcome(process_readouts, x, False, on) for on in (True, False))
        assert cut[1] == uncut[1] == [
            (RuntimeWarning, "overflow encountered in square"),
            (RuntimeWarning, "invalid value encountered in subtract"),
        ]

    @pytest.mark.parametrize("shape", [(0, 8), (3, 3), (8,), (2, 2, 8)])
    def test_bad_shapes_rejected(self, shape):
        with pytest.raises(AnalysisError):
            process_readouts(np.zeros(shape))

    def test_readout_speed_smoke(self, benchmark):
        # records the time per readout row; asserts only on the output
        rng = np.random.default_rng(71)
        x = 0.5 + 0.5 * tone(200, 6) + rng.normal(scale=0.3, size=(48, 200))
        result = benchmark.pedantic(process_readouts, args=(x,), rounds=3, iterations=1)
        if benchmark.stats is not None:
            benchmark.extra_info["us_per_row"] = benchmark.stats.stats.median / 48 * 1e6
        assert result.processed.shape == (48, 200)
        assert result.peak_index.tolist() == [6] * 48
        assert np.array_equal(result.processed[17], process_readout(x[17], DT)[1])


# ---- the library's readout passes (_readout.c) against the numpy helpers ----

PASSES = ("um_weigh_rows", "um_cut_rows", "um_real_rows")
# ROW_KINDS without "nan", whose rows every pass declines, and with rows of
# zeros (a top of 0, so the Wiener filter passes every bin through); rows
# whose power has two equal largest bins ("tie") join at the M of tie_rows()
COMPILED_KINDS = ("noise", "tone", "constant", "zero", "passthrough", "lattice", "tiny")


@functools.cache
def tie_rows() -> dict[int, np.ndarray]:
    """Readouts of small integers whose power has its largest value in two
    bins of 1..M/2 and is not flat, the first of 300 seeded draws that has
    one, for the M of 6 to 20 where one is found; built once."""
    ties = {}
    for m in range(6, 21):
        rng = np.random.default_rng(m)
        for _ in range(300):
            x = rng.integers(-3, 4, size=m).astype(float)
            searched = (np.abs(_spectra(x[None])) ** 2)[0, 1 : m // 2 + 1]
            top = searched.max()
            if top - searched.min() > 1e-15 and np.count_nonzero(searched == top) > 1:
                ties[m] = x
                break
    return ties


def compiled_row(kind: str, m: int, seed: int) -> np.ndarray:
    if kind == "zero":
        return np.zeros(m)
    if kind == "tie":
        return tie_rows()[m]
    return readout_row(kind, m, seed)


@st.composite
def compiled_batches(draw) -> np.ndarray:
    """1 to 16 readouts of COMPILED_KINDS, and "tie" where M has one, of M from 4 up."""
    m = draw(st.sampled_from(sorted(tie_rows())) | st.integers(4, 300))
    kinds = (*COMPILED_KINDS, "tie") if m in tie_rows() else COMPILED_KINDS
    rows = draw(st.lists(
        st.tuples(st.sampled_from(kinds), st.integers(0, 2**32)), min_size=1, max_size=16
    ))
    return np.array([compiled_row(kind, m, seed) for kind, seed in rows])


def as_bytes(values):
    """Arrays as their dtype, shape and bytes, an error as its type and text."""
    if isinstance(values, Exception):
        return type(values), str(values)
    if isinstance(values, (tuple, list)):
        return [as_bytes(value) for value in values]
    if isinstance(values, np.ndarray):
        return values.dtype.str, values.shape, values.tobytes()
    return values


def outcome(call, *args):
    """``as_bytes`` of what ``call(*args)`` returns or raises, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call(*args)
        except (AnalysisError, FloatingPointError) as error:
            result = error
    return as_bytes(result), [(w.category, str(w.message)) for w in caught]


@contextlib.contextmanager
def spied_passes():
    """What each readout pass of the library returns, in order, as (name, value)."""
    library, returned = _kernel.load(), []
    with pytest.MonkeyPatch.context() as patch:
        for name in PASSES:

            def spy(*args, name=name, entry=getattr(library, name)):
                returned.append((name, entry(*args)))
                return returned[-1][1]

            patch.setattr(library, name, spy)
        yield returned


def python_outcome(call, *args):
    with pytest.MonkeyPatch.context() as patch:
        python_route(patch)
        return outcome(call, *args)


SETTINGS = list(itertools.product((True, False), repeat=2))  # (wiener, truncation)
MAX = np.finfo(float).max
# a 16-bin row of power whose top quartile's median f, the noise floor, is
# 10001.5 ulps of the largest double: its bin at MAX has signal MAX - f,
# which rounds up by half an ulp, and signal + f overflows
FLOOR_ROW = np.ones(16)
FLOOR_ROW[7:9], FLOOR_ROW[3] = 10001.5 * 2.0**971, MAX


def test_the_passes_use_the_python_routes_thresholds():
    # _readout.c spells each threshold of the numpy helpers as a macro
    (source,) = [path for path in _kernel.SOURCES if path.name == "_readout.c"]
    macros = dict(re.findall(r"^#define (\w+) (\S+)$", source.read_text(encoding="utf-8"), re.M))
    for name in ("FLAT_TOL", "NOISE_FLOOR_REL", "RESIDUAL_REL"):
        assert float(macros[name]) == getattr(spectral, f"_{name}"), name


@needs_library
class TestCompiledReadout:
    @settings(max_examples=60, deadline=None)
    @given(x=compiled_batches())
    @example(x=np.array([compiled_row(kind, 64, 5) for kind in COMPILED_KINDS]))
    @example(x=np.array([compiled_row(kind, 301, 6) for kind in COMPILED_KINDS] * 8))
    @example(x=np.zeros((1, 4)))
    @example(x=np.array([compiled_row("tie", m, 0) for m in [min(tie_rows())]]))
    def test_the_passes_give_the_python_routes_arrays(self, x):
        for wiener, truncation in SETTINGS:
            with spied_passes() as returned:
                compiled = outcome(process_readouts, x, wiener, truncation)
            # each pass ran once, and none declined
            assert [name for name, _ in returned] == [*PASSES[: 1 + truncation], "um_real_rows"]
            assert all(value >= 0 for _, value in returned)
            assert compiled == python_outcome(process_readouts, x, wiener, truncation)

    # the passes on arrays of few values, whose rows hold ties, flat
    # stretches and zeros, and on inverse FFTs with an imaginary part
    # within and beyond the bound
    @settings(max_examples=100, deadline=None)
    @given(
        power=st.integers(1, 3).flatmap(lambda rows: st.integers(4, 24).flatmap(
            lambda m: arrays(
                np.float64, (rows, m), elements=st.sampled_from([0.0, 1e-30, 0.25, 1.0, 3.0]),
            )
        )),
        signs=st.integers(0, 2**32),
        residual=st.sampled_from([0.0, 1e-12, 1e-3]),
    )
    def test_each_pass_gives_the_numpy_helpers_doubles(self, power, signs, residual):
        rng = np.random.default_rng(signs)
        coefficients = (np.sqrt(power) * rng.choice([1, -1, 1j, -1j], power.shape)).astype(complex)
        library = _kernel.load()
        for wiener in (True, False):
            with spied_passes() as returned:
                weighed = outcome(_weighed, library, coefficients, power, wiener)
            assert returned == [("um_weigh_rows", 0)]
            assert weighed == outcome(_weighed, None, coefficients, power, wiener)
        # the cut of the weighted coefficients, and, as with the filter off,
        # of the raw ones at the peaks of the raw power
        kept = _weighed(None, coefficients, power, True)[4]
        for cut, kept_power in ((kept, np.abs(kept) ** 2), (coefficients, power)):
            compiled = outcome(_cut, library, cut.copy(), kept_power)
            assert compiled == outcome(_cut, None, cut.copy(), kept_power)
        values = coefficients + 1j * residual * rng.normal(size=power.shape)
        assert outcome(_real, library, values) == outcome(_real, None, values)

    def test_the_cut_finds_the_weighings_peaks_in_the_raw_power(self):
        # with the filter off, the cut searches the power the weighing
        # searched: the same peaks, and the rows without one uncut and counted
        library = _kernel.load()
        x = np.array([tone(200, 3), np.full(200, 0.5), *noisy_tones(1, rows=2), np.zeros(200)])
        coefficients = _spectra(x)
        power = np.abs(coefficients) ** 2
        with spied_passes() as returned:
            index = _weighed(library, coefficients, power, False)[0]
        assert returned == [("um_weigh_rows", 0)]
        kept, cut_index = coefficients.copy(), np.full(len(x), -1, dtype=np.int64)
        missing = library.um_cut_rows(
            kept.ctypes.data, power.ctypes.data, *x.shape, cut_index.ctypes.data
        )
        assert missing == 2
        assert cut_index.tolist() == index.tolist() == [3, 0, 6, 6, 0]
        assert kept.tobytes() == spectral._truncated(coefficients, index).tobytes()
        assert kept[[1, 4]].tobytes() == coefficients[[1, 4]].tobytes()

    def test_argmax_ties_are_covered(self):
        # the FFT's rounding decides which M have one (6, 8, 12 and 16 with
        # numpy 2.4); the property above draws those M
        assert tie_rows()

    def test_any_memory_layout_gives_the_python_routes_arrays(self):
        # the passes read C-contiguous rows; a Fortran-ordered or strided
        # batch is copied to C order first, so it runs the passes too
        x = np.array([compiled_row(kind, 64, 9) for kind in COMPILED_KINDS])
        expected = outcome(process_readouts, x, True, True)
        strided = (np.repeat(x, 2, axis=1)[:, ::2], np.repeat(x, 2, axis=0)[::2])
        for layout in (np.asfortranarray(x), *strided):
            assert outcome(process_readouts, layout, True, True) == expected
            assert python_outcome(process_readouts, layout, True, True) == expected

    # rows the weighing pass declines: a NaN sample, a power that overflows
    # to inf, a pulse whose every power is a finite 1e308 (so 3 x median
    # overflows where M / 2 is odd, and the middle pair's sum where it is
    # even), each after a row the pass has written
    @pytest.mark.parametrize("errstate", ["warn", "raise"])
    @pytest.mark.parametrize(
        "case, row",
        [
            ("nan", np.where(np.arange(32) == 5, math.nan, 1.0)),
            ("inf-power", np.where(np.arange(32) == 5, 1e200, 1.0)),
            ("three-median", np.where(np.arange(10) == 0, 1e155, 0.0)),
            ("median-pair", np.where(np.arange(8) == 0, 8e154, 0.0)),
        ],
    )
    def test_a_declined_readout_is_the_python_routes(self, case, row, errstate):
        x = np.array([tone(len(row), 2), row])
        for wiener, truncation in SETTINGS:
            with np.errstate(over=errstate, invalid=errstate), spied_passes() as returned:
                compiled = outcome(process_readouts, x, wiener, truncation)
            with np.errstate(over=errstate, invalid=errstate):
                python = python_outcome(process_readouts, x, wiener, truncation)
            # the same arrays or error, and each warning as often as numpy gives it
            assert compiled == python
            # the pass declined, or numpy raised before it ran
            weighings = [value for name, value in returned if name == "um_weigh_rows"]
            assert weighings == [-1] if errstate == "warn" else weighings in ([], [-1])

    # a pass declines on its own: the weighing on a signal + floor that
    # overflows, the cut on a kept power that is not finite, the synthesis
    # on an x M that overflows and on an imaginary part beyond the bound
    @pytest.mark.parametrize("errstate", ["warn", "raise"])
    @pytest.mark.parametrize("case", ["signal-plus-floor", "kept-power", "times-m", "residual"])
    def test_a_declining_pass_leaves_its_step_to_numpy(self, case, errstate):
        library = _kernel.load()
        if case == "signal-plus-floor":
            call, args = _weighed, (np.sqrt(FLOOR_ROW[None]).astype(complex), FLOOR_ROW[None], True)
        elif case == "kept-power":
            kept = np.ones((2, 16), dtype=complex)
            kept_power = np.where(np.arange(32).reshape(2, 16) == 20, math.inf, 1.0)
            call, args = _cut, (kept, kept_power)
        else:
            values = np.full((2, 16), 1.0 + 0j)
            values[1, 3] = MAX / 16 * 2.0 if case == "times-m" else 1.0 + 1e-3j
            call, args = _real, (values,)
        with np.errstate(over=errstate, invalid=errstate):
            with spied_passes() as returned:
                compiled = outcome(call, library, *copy.deepcopy(args))
            numpy = outcome(call, None, *copy.deepcopy(args))
        assert len(returned) == 1 and returned[0][1] == -1
        assert compiled == numpy
        if case in ("signal-plus-floor", "times-m"):
            operation = "add" if case == "signal-plus-floor" else "multiply"
            message = f"overflow encountered in {operation}"
            expected = [(RuntimeWarning, message)] if errstate == "warn" else []
            assert numpy[1] == expected
            assert errstate == "warn" or numpy[0] == (FloatingPointError, message)
        if case == "residual":
            assert numpy[0][0] is AnalysisError


# ---- the batch scratch each thread keeps from call to call ----


@pytest.fixture(params=[pytest.param("compiled", marks=needs_library), "python"])
def route(request, monkeypatch):
    """The readout with every pass of the library, or with numpy's helpers alone."""
    if request.param == "python":
        python_route(monkeypatch)
    return request.param


def noisy_tones(seed: int, rows: int = 48) -> np.ndarray:
    """A sweep's batch: rows of a tone in noise, 200 samples each."""
    rng = np.random.default_rng(seed)
    return 0.5 + 0.5 * tone(200, 6) + rng.normal(scale=0.3, size=(rows, 200))


class TestKeptScratch:
    @pytest.mark.parametrize("wiener, truncation", SETTINGS)
    def test_later_calls_leave_the_returned_arrays_alone(self, route, wiener, truncation):
        first = process_readouts(noisy_tones(1), wiener, truncation)
        returned, kept = as_bytes(list(first)), spectral._kept.scratch
        for field in first:
            assert field is None or not any(np.shares_memory(field, a) for a in kept)
        process_readouts(noisy_tones(2), wiener, truncation)
        row_correlations(noisy_tones(3), first.processed)
        assert as_bytes(list(first)) == returned
        # a call on another thread writes a scratch of its own
        other = {}

        def call():
            other["result"] = process_readouts(noisy_tones(4), wiener, truncation)
            other["scratch"] = spectral._kept.scratch

        thread = threading.Thread(target=call)
        thread.start()
        thread.join()
        assert as_bytes(list(first)) == returned
        assert not any(a is b for a in other["scratch"] for b in spectral._kept.scratch)
        expected = process_readouts(noisy_tones(4), wiener, truncation)
        assert as_bytes(list(other["result"])) == as_bytes(list(expected))

    def test_a_repeated_shape_makes_no_new_scratch(self, route, monkeypatch):
        process_readouts(noisy_tones(1))
        kept = spectral._kept.scratch
        assert [(a.shape, a.dtype) for a in kept] == [
            ((48, 200), complex), ((48, 200), float), ((48, 200), complex)
        ]
        process_readouts(noisy_tones(2), wiener=False)
        row_correlations(noisy_tones(3), noisy_tones(4))
        process_readouts(noisy_tones(5))
        assert all(a is b for a, b in zip(spectral._kept.scratch, kept, strict=True))
        # a new shape gets arrays of exactly its size, and a batch above
        # the cap keeps none
        process_readouts(noisy_tones(6, rows=5))
        smaller = spectral._kept.scratch
        assert [a.shape for a in smaller] == [(5, 200)] * 3
        monkeypatch.setattr(spectral, "_KEPT_MAX", 5 * 200 * 16)
        process_readouts(noisy_tones(7, rows=6))
        row_correlations(noisy_tones(8, rows=6), noisy_tones(9, rows=6))
        assert all(a is b for a, b in zip(spectral._kept.scratch, smaller, strict=True))

    @pytest.mark.parametrize("kind", ["constant", "nan", "inf", "tiny"])
    def test_correlations_of_undefined_rows(self, route, kind):
        # the row beside a noisy one and beside its own reversal, and a
        # noisy row beside one whose squares underflow, after a readout of
        # the same shape has written the scratch
        noise = noisy_tones(10, rows=3)
        row = {
            "constant": np.full(200, 0.1),
            "nan": np.where(np.arange(200) == 17, math.nan, noise[0]),
            "inf": np.where(np.arange(200) == 17, math.inf, noise[0]),
            "tiny": noise[0] * 1e-170,  # the squares of its deviations underflow to 0
        }[kind]
        x = np.array([noise[1], row, noise[2], row, row[::-1], noise[1]])
        y = np.array([noise[2], noise[1], row, row[::-1], row, noise[1] * 1e-170])
        process_readouts(noisy_tones(11, rows=len(x)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r = row_correlations(x, y)
            expected = [reference_pearson(a, b) for a, b in zip(x, y)]
        assert np.isnan(r[1:]).all() and not np.isnan(r[0])
        assert as_bytes(r) == as_bytes(np.array(expected))

    def test_correlations_need_two_arrays_of_one_2d_shape(self):
        for x, y in [(np.zeros((2, 8)), np.zeros((3, 8))), (np.zeros(8), np.zeros(8))]:
            with pytest.raises(ValueError, match="need two 2-d arrays of one shape"):
                row_correlations(x, y)


class TestClassifyRegime:
    def test_published_fuzziness_values(self):
        assert classify_regime(0.07) == "quantum_jump"
        assert classify_regime(62.8) == "rabi"
        assert classify_regime(0.98) == "intermediate"

    def test_monotone_with_two_thresholds(self):
        values = [classify_regime(f) for f in (0.0, 0.29, 0.3, 1.0, 5.0, 5.01, 100.0)]
        assert values == [
            "quantum_jump", "quantum_jump", "intermediate", "intermediate",
            "intermediate", "rabi", "rabi",
        ]

    def test_custom_thresholds(self):
        assert classify_regime(0.5, f_lo=0.6, f_hi=2.0) == "quantum_jump"
        assert classify_regime(3.0, f_lo=0.6, f_hi=2.0) == "rabi"

    def test_invalid_arguments(self):
        with pytest.raises(ParameterError):
            classify_regime(-0.1)
        with pytest.raises(ParameterError):
            classify_regime(1.0, f_lo=2.0, f_hi=1.0)
