"""Spectral post-processing of readout sequences and regime classification.

The readout sequence sampled at t_m = m * dt (m = 1..M) is expanded as
x_m = sum_l a_l exp(i w_l t_m) with w_l = 2 pi l / (M dt), so the
coefficients carry a 1/M on analysis and a_0 equals the sequence mean.
Noise reduction follows two steps: a Wiener filter phi_l = S_l / (S_l + n)
built from a noise floor estimated on the top-quartile frequency bins, and
truncation of everything above twice the main peak index.  The synthesis of
the surviving coefficients is the processed readout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .povm import ParameterError

_FLAT_TOL = 1e-15
_NOISE_FLOOR_REL = 1e-12


class AnalysisError(ValueError):
    """Input sequence or spectrum unusable for the requested analysis."""


@dataclass(frozen=True, eq=False)
class SpectrumRecord:
    """DFT of a real sequence plus peak and filter metadata.

    ``coefficients`` has length M with conjugate symmetry for real input;
    ``frequencies`` holds the angular frequencies w_l; ``power`` is
    |a_l|^2.  ``main_peak_index`` is the argmax of the power over
    1 <= l <= M//2 (None when that range is flat), with ties resolved
    toward lower l; ``noise_floor`` is the median power over the
    top-quartile frequency bins of that range.  ``wiener_weights`` is None
    until a filter has been applied.
    """

    dt: float
    coefficients: np.ndarray
    frequencies: np.ndarray
    power: np.ndarray
    main_peak_index: int | None
    peak_significant: bool
    noise_floor: float
    wiener_weights: np.ndarray | None = None

    @property
    def m(self) -> int:
        return len(self.coefficients)


class PeakInfo(NamedTuple):
    index: int | None
    frequency: float | None
    power: float | None
    significant: bool


def _searched_range(m: int) -> slice:
    return slice(1, m // 2 + 1)


def _peak_and_floor(power: np.ndarray) -> tuple[int | None, bool, float]:
    m = len(power)
    searched = power[_searched_range(m)]
    half = len(searched)
    quartile = searched[half - max(1, half // 4):]
    noise_floor = float(np.median(quartile))
    if float(searched.max() - searched.min()) <= _FLAT_TOL:
        return None, False, noise_floor
    index = int(np.argmax(searched)) + 1
    significant = power[index] >= 3.0 * float(np.median(searched))
    return index, significant, noise_floor


def _build_record(dt: float, coefficients: np.ndarray, weights=None) -> SpectrumRecord:
    m = len(coefficients)
    power = np.abs(coefficients) ** 2
    frequencies = 2.0 * math.pi * np.arange(m) / (m * dt)
    index, significant, floor = _peak_and_floor(power)
    return SpectrumRecord(
        dt=dt,
        coefficients=coefficients,
        frequencies=frequencies,
        power=power,
        main_peak_index=index,
        peak_significant=significant,
        noise_floor=floor,
        wiener_weights=weights,
    )


def power_spectrum(sequence, dt: float) -> SpectrumRecord:
    """Analyze a real sequence sampled at t_m = m * dt, m starting at 1.

    The coefficients satisfy the synthesis convention exactly; the round
    trip through ``synthesize`` reproduces the input to well below 1e-9.
    """
    x = np.asarray(sequence, dtype=float)
    if x.ndim != 1 or len(x) < 4:
        raise AnalysisError(f"need a 1-d sequence of at least 4 samples, got shape {x.shape}")
    if dt <= 0.0:
        raise ParameterError(f"dt = {dt!r} must be > 0")
    m = len(x)
    # samples start at t = dt, one bin before the usual 0-based grid
    twist = np.exp(-2.0j * math.pi * np.arange(m) / m)
    coefficients = twist * np.fft.fft(x) / m
    return _build_record(dt, coefficients)


def synthesize(record: SpectrumRecord) -> np.ndarray:
    """Evaluate the coefficient expansion back on the sample grid."""
    m = record.m
    untwist = np.exp(2.0j * math.pi * np.arange(m) / m)
    values = np.fft.ifft(record.coefficients * untwist) * m
    scale = max(1.0, float(np.max(np.abs(values.real))))
    worst_imag = float(np.max(np.abs(values.imag)))
    if worst_imag > 1e-9 * scale:
        raise AnalysisError(
            f"synthesis is not real: residual imaginary part {worst_imag:.3e} "
            "(coefficients lost conjugate symmetry)"
        )
    return values.real


def main_peak(record: SpectrumRecord) -> PeakInfo:
    """Location, frequency and power of the main peak, if any.

    The zero-frequency bin is excluded (it only carries the mean); a flat
    searched range yields a no-peak result and a peak below three times the
    median power is flagged as not significant.
    """
    index = record.main_peak_index
    if index is None:
        return PeakInfo(None, None, None, False)
    return PeakInfo(
        index=index,
        frequency=float(record.frequencies[index]),
        power=float(record.power[index]),
        significant=record.peak_significant,
    )


def wiener_filter(record: SpectrumRecord) -> SpectrumRecord:
    """Rescale coefficients by phi_l = S_l / (S_l + n).

    S_l = max(|a_l|^2 - n, 0) with the noise floor n taken from the record.
    The zero-frequency coefficient passes unfiltered so the mean is
    preserved.  When the floor is indistinguishable from zero the filter
    degenerates to a passthrough of the non-negligible bins.
    """
    power = record.power
    m = record.m
    floor = record.noise_floor
    top = float(power[1:].max()) if m > 1 else 0.0
    weights = np.zeros(m, dtype=float)
    if floor <= _NOISE_FLOOR_REL * top or top == 0.0:
        weights[power > _NOISE_FLOOR_REL * top] = 1.0
    else:
        signal = np.maximum(power - floor, 0.0)
        np.divide(signal, signal + floor, out=weights, where=(signal > 0.0))
    weights[0] = 1.0
    return _build_record(record.dt, record.coefficients * weights, weights)


def truncate_series(record: SpectrumRecord) -> SpectrumRecord:
    """Zero all coefficients above twice the main peak index.

    The mirrored conjugate bins are zeroed symmetrically, so synthesis stays
    real.  Without a main peak the record passes through with a warning.
    Applying the truncation twice changes nothing.
    """
    index = record.main_peak_index
    if index is None:
        warnings.warn(
            "no main peak found; truncation skipped", UserWarning, stacklevel=2
        )
        return record
    m = record.m
    keep = 2 * index
    if keep >= (m + 1) // 2:
        return record
    coefficients = record.coefficients.copy()
    coefficients[keep + 1 : m - keep] = 0.0
    return _build_record(record.dt, coefficients, record.wiener_weights)


def process_readout(
    g2_sequence, dt: float, wiener: bool = True, truncation: bool = True
) -> tuple[SpectrumRecord, np.ndarray]:
    """The readout pipeline: spectrum of the sequence and processed samples.

    The returned record is the raw spectrum of the readout, carrying the
    Wiener weights when the filter ran.  The processed samples are the
    synthesis of the filtered, then truncated coefficients; ``wiener`` and
    ``truncation`` switch either step off.
    """
    raw = power_spectrum(g2_sequence, dt)
    filtered = wiener_filter(raw) if wiener else raw
    truncated = truncate_series(filtered) if truncation else filtered
    return replace(raw, wiener_weights=filtered.wiener_weights), synthesize(truncated)


REGIMES = ("quantum_jump", "intermediate", "rabi")


def classify_regime(f: float, f_lo: float = 0.3, f_hi: float = 5.0) -> str:
    """Map a fuzziness value onto one of the three measurement regimes.

    Below ``f_lo`` the measurements dominate (quantum jumps between the
    levels), above ``f_hi`` the driving dominates (clean oscillations,
    uninformative readout); in between the readout tracks the oscillation.
    The thresholds are conventions, only f around one is physically singled
    out, hence they are configurable.
    """
    if f < 0.0:
        raise ParameterError(f"fuzziness f = {f!r} must be >= 0")
    if not 0.0 <= f_lo <= f_hi:
        raise ParameterError(f"need 0 <= f_lo <= f_hi, got ({f_lo!r}, {f_hi!r})")
    if f < f_lo:
        return "quantum_jump"
    if f > f_hi:
        return "rabi"
    return "intermediate"
