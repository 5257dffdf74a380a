"""DFT bookkeeping, Wiener filtering, truncation, and regime classification."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from unsharp_monitor.povm import ParameterError
from unsharp_monitor.spectral import (
    AnalysisError,
    classify_regime,
    main_peak,
    power_spectrum,
    process_readout,
    synthesize,
    truncate_series,
    wiener_filter,
)
from unsharp_monitor.spectral import process_readouts, row_correlations

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
        with pytest.raises(ParameterError, match="dt"):
            process_readouts(x[None], dt)


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
            records, processed = process_readouts(x, DT, wiener, truncation)
        warned = any("no main peak" in str(w.message) for w in caught)
        # an inf power warns that it overflowed, and nothing after it warns
        runtime = {str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)}
        assert runtime <= {"overflow encountered in square"}
        assert processed.shape == x.shape
        no_peak = False
        for row, record in enumerate(records):
            with np.errstate(over="ignore"):
                fields, weights, values, skipped = reference_readout(x[row], DT, wiener, truncation)
            coefficients, power, index, significant, floor = fields
            no_peak |= skipped
            assert same(record.coefficients, coefficients)
            assert same(record.power, power)
            assert record.main_peak_index == index
            assert record.peak_significant == significant
            assert same(record.noise_floor, floor)
            assert same(record.wiener_weights, weights)
            assert same(record.frequencies, 2.0 * math.pi * np.arange(m) / (m * DT))
            assert same(processed[row], values)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                single, single_values = process_readout(x[row], DT, wiener, truncation)
            assert same(single.coefficients, record.coefficients)
            assert same(single_values, processed[row])
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

    def test_no_peak_row_warns_once_per_batch(self):
        x = np.array([tone(64, 3), np.full(64, 0.5), tone(64, 5)])
        with pytest.warns(UserWarning, match="no main peak") as caught:
            records, processed = process_readouts(x, DT)
        assert len(caught) == 1
        assert [record.main_peak_index for record in records] == [3, None, 5]
        assert np.max(np.abs(processed[1] - 0.5)) < 1e-12

    @pytest.mark.parametrize("shape", [(0, 8), (3, 3), (8,), (2, 2, 8)])
    def test_bad_shapes_rejected(self, shape):
        with pytest.raises(AnalysisError):
            process_readouts(np.zeros(shape), DT)

    def test_readout_speed_smoke(self, benchmark):
        # records the time per readout row; asserts only on the output
        rng = np.random.default_rng(71)
        x = 0.5 + 0.5 * tone(200, 6) + rng.normal(scale=0.3, size=(48, 200))
        records, processed = benchmark.pedantic(
            process_readouts, args=(x, DT), rounds=3, iterations=1
        )
        if benchmark.stats is not None:
            benchmark.extra_info["us_per_row"] = benchmark.stats.stats.median / 48 * 1e6
        assert processed.shape == (48, 200)
        assert [record.main_peak_index for record in records] == [6] * 48
        assert np.array_equal(processed[17], process_readout(x[17], DT)[1])


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
