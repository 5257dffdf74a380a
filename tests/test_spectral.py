"""DFT bookkeeping, Wiener filtering, truncation, and regime classification."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from unsharp_monitor import (
    AnalysisError,
    ParameterError,
    classify_regime,
    main_peak,
    power_spectrum,
    process_readout,
    synthesize,
    truncate_series,
    wiener_filter,
)

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
