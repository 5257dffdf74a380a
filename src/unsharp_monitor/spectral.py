"""Spectral post-processing of readout sequences and regime classification.

The readout sequence sampled at t_m = m * dt (m = 1..M) is expanded as
x_m = sum_l a_l exp(i w_l t_m) with w_l = 2 pi l / (M dt), so the
coefficients carry a 1/M on analysis and a_0 equals the sequence mean.
Noise reduction follows two steps: a Wiener filter phi_l = S_l / (S_l + n)
built from a noise floor estimated on the top-quartile frequency bins, and
truncation of everything above twice the main peak index.  The synthesis of
the surviving coefficients is the processed readout.

Every step works on an L x M array with one readout per row: one FFT along
the rows, per-row peaks, noise floors, Wiener weights and truncation masks,
and one inverse FFT.  ``process_readouts`` runs the pipeline on a batch
(the replicates of a sweep point); ``process_readout``, ``power_spectrum``,
``wiener_filter``, ``truncate_series`` and ``synthesize`` are the same
helpers called on one row, so a row gives the same doubles alone or in a
batch.  ``row_correlations`` gives the Pearson coefficient of each row of
one array with the same row of another.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .povm import ParameterError

# the fewest samples a readout takes
MIN_SAMPLES = 4
_FLAT_TOL = 1e-15
_NOISE_FLOOR_REL = 1e-12
_NO_PEAK = "no main peak found; truncation skipped"


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


def angular_frequency(index, m: int, dt):
    """w_l = 2 pi l / (m dt) of bin ``index`` (an int or an int array) of a
    readout of ``m`` samples at spacing ``dt`` (a float or an array)."""
    return 2.0 * math.pi * index / (m * dt)


def _searched_range(m: int) -> slice:
    return slice(1, m // 2 + 1)


@functools.lru_cache(maxsize=16)
def _phases(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The twist applied after the FFT and the untwist applied before the inverse."""
    # samples start at t = dt, one bin before the usual 0-based grid
    twist = np.exp(-2.0j * math.pi * np.arange(m) / m)
    untwist = np.exp(2.0j * math.pi * np.arange(m) / m)
    twist.flags.writeable = untwist.flags.writeable = False
    return twist, untwist


def _samples(values, dt: float, ndim: int) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    if x.ndim != ndim or x.shape[-1] < MIN_SAMPLES or x.size == 0:
        what = "sequence" if ndim == 1 else "array of readouts, one per row,"
        raise AnalysisError(
            f"need a {ndim}-d {what} of at least {MIN_SAMPLES} samples, got shape {x.shape}"
        )
    if not 0.0 < dt < math.inf:  # also rejects nan
        raise ParameterError(f"dt = {dt!r} must be finite and > 0")
    return x


def _spectra(x: np.ndarray) -> np.ndarray:
    m = x.shape[1]
    return _phases(m)[0] * np.fft.fft(x, axis=1) / m


def _synthesized(coefficients: np.ndarray) -> np.ndarray:
    m = coefficients.shape[1]
    values = np.fft.ifft(coefficients * _phases(m)[1], axis=1) * m
    top = np.max(np.abs(values.real), axis=1)
    scale = np.where(top > 1.0, top, 1.0)  # max(1.0, top), a NaN top included
    worst = np.max(np.abs(values.imag), axis=1)
    broken = worst > 1e-9 * scale
    if broken.any():
        raise AnalysisError(
            f"synthesis is not real: residual imaginary part {worst[broken][0]:.3e} "
            "(coefficients lost conjugate symmetry)"
        )
    return values.real


def _peaks(power: np.ndarray) -> np.ndarray:
    """Main peak index per row, 0 where the searched range is flat."""
    searched = power[:, _searched_range(power.shape[1])]
    flat = searched.max(axis=1) - searched.min(axis=1) <= _FLAT_TOL
    return np.where(flat, 0, np.argmax(searched, axis=1) + 1)


def _significant(power: np.ndarray, index: np.ndarray) -> np.ndarray:
    searched = power[:, _searched_range(power.shape[1])]
    peak = power[np.arange(len(power)), index]
    return (index > 0) & (peak >= 3.0 * np.median(searched, axis=1))


def _noise_floors(power: np.ndarray) -> np.ndarray:
    searched = power[:, _searched_range(power.shape[1])]
    half = searched.shape[1]
    return np.median(searched[:, half - max(1, half // 4):], axis=1)


def _wiener_weights(power: np.ndarray, floors: np.ndarray) -> np.ndarray:
    top = power[:, 1:].max(axis=1)
    passthrough = (floors <= _NOISE_FLOOR_REL * top) | (top == 0.0)
    weights = np.zeros(power.shape)
    weights[passthrough] = power[passthrough] > _NOISE_FLOOR_REL * top[passthrough, None]
    filtered = ~passthrough
    floor = floors[filtered, None]
    signal = np.maximum(power[filtered] - floor, 0.0)
    ratio = np.zeros(signal.shape)
    np.divide(signal, signal + floor, out=ratio, where=(signal > 0.0))
    weights[filtered] = ratio
    weights[:, 0] = 1.0
    return weights


def _truncated(coefficients: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Zero the bins strictly between twice the peak index and its mirror, per row."""
    m = coefficients.shape[1]
    keep = 2 * index[:, None]
    bins = np.arange(m)
    cut = (index[:, None] > 0) & (bins > keep) & (bins < m - keep)
    return np.where(cut, 0.0, coefficients)


def _records(
    dt: float,
    coefficients: np.ndarray,
    power: np.ndarray,
    index: np.ndarray,
    significant: np.ndarray,
    floors: np.ndarray,
    weights=None,
) -> list[SpectrumRecord]:
    m = coefficients.shape[1]
    frequencies = angular_frequency(np.arange(m), m, dt)
    return [
        SpectrumRecord(
            dt=dt,
            coefficients=coefficients[row],
            frequencies=frequencies,
            power=power[row],
            main_peak_index=int(index[row]) or None,
            peak_significant=bool(significant[row]),
            noise_floor=float(floors[row]),
            wiener_weights=None if weights is None else weights[row],
        )
        for row in range(len(coefficients))
    ]


def _analyzed(dt: float, coefficients: np.ndarray, weights=None) -> list[SpectrumRecord]:
    """Full records, every derived field included, for the rows of ``coefficients``."""
    power = np.abs(coefficients) ** 2
    index = _peaks(power)
    significant = _significant(power, index)
    return _records(dt, coefficients, power, index, significant, _noise_floors(power), weights)


def power_spectrum(sequence, dt: float) -> SpectrumRecord:
    """Analyze a real sequence sampled at t_m = m * dt, m starting at 1.

    The coefficients satisfy the synthesis convention exactly; the round
    trip through ``synthesize`` reproduces the input to well below 1e-9.
    """
    x = _samples(sequence, dt, ndim=1)
    return _analyzed(dt, _spectra(x[None]))[0]


def synthesize(record: SpectrumRecord) -> np.ndarray:
    """Evaluate the coefficient expansion back on the sample grid."""
    return _synthesized(record.coefficients[None])[0]


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
    weights = _wiener_weights(record.power[None], np.array([record.noise_floor]))
    return _analyzed(record.dt, record.coefficients * weights, weights)[0]


def truncate_series(record: SpectrumRecord) -> SpectrumRecord:
    """Zero all coefficients above twice the main peak index.

    The mirrored conjugate bins are zeroed symmetrically, so synthesis stays
    real.  Without a main peak the record passes through with a warning.
    Applying the truncation twice changes nothing.
    """
    index = record.main_peak_index
    if index is None:
        warnings.warn(_NO_PEAK, UserWarning, stacklevel=2)
        return record
    coefficients = _truncated(record.coefficients[None], np.array([index]))
    return _analyzed(record.dt, coefficients, [record.wiener_weights])[0]


def process_readouts(
    readouts, dt: float, wiener: bool = True, truncation: bool = True
) -> tuple[list[SpectrumRecord], np.ndarray]:
    """The readout pipeline on an L x M array, one readout per row.

    Returns one record per row, the raw spectrum of that readout carrying
    its Wiener weights when the filter ran, and the L x M processed samples:
    the synthesis of the filtered, then truncated coefficients.  ``wiener``
    and ``truncation`` switch either step off.  Truncation cuts at the main
    peak of the filtered power; a row without one passes uncut, with one
    warning for the batch.
    """
    x = _samples(readouts, dt, ndim=2)
    coefficients = _spectra(x)
    power = np.abs(coefficients) ** 2
    index = _peaks(power)
    significant = _significant(power, index)
    floors = _noise_floors(power)
    weights = None
    kept, kept_index = coefficients, index
    if wiener:
        weights = _wiener_weights(power, floors)
        kept = coefficients * weights
        kept_index = _peaks(np.abs(kept) ** 2)
    if truncation:
        if not kept_index.all():
            warnings.warn(_NO_PEAK, UserWarning, stacklevel=2)
        kept = _truncated(kept, kept_index)
    return _records(dt, coefficients, power, index, significant, floors, weights), _synthesized(kept)


def process_readout(
    g2_sequence, dt: float, wiener: bool = True, truncation: bool = True
) -> tuple[SpectrumRecord, np.ndarray]:
    """The readout pipeline for one sequence: ``process_readouts`` on one row."""
    x = _samples(g2_sequence, dt, ndim=1)
    records, processed = process_readouts(x[None], dt, wiener, truncation)
    return records[0], processed[0]


def row_correlations(x, y) -> np.ndarray:
    """Pearson coefficient of each row of ``x`` with the same row of ``y``.

    NaN where either row is constant or holds a NaN.  The arithmetic runs
    in ``np.corrcoef``'s order (row means, the product of the centred pair
    with its transpose, the 1/(M-1) factor, division by each standard
    deviation in turn, clipping), so every coefficient is the double
    ``np.corrcoef(x[i], y[i])[0, 1]`` gives.
    """
    pairs = np.stack([np.asarray(x, dtype=float), np.asarray(y, dtype=float)], axis=1)
    undefined = (pairs.std(axis=2) == 0.0).any(axis=1) | np.isnan(pairs).any(axis=(1, 2))
    pairs -= pairs.mean(axis=2)[:, :, None]
    c = np.matmul(pairs, pairs.transpose(0, 2, 1))
    c *= np.true_divide(1, pairs.shape[2] - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (c[:, 0, 1] / np.sqrt(c[:, 0, 0])) / np.sqrt(c[:, 1, 1])
    r = np.clip(r, -1, 1)
    r[undefined] = np.nan
    return r


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
