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
(the replicates of a sweep point) and returns arrays, none of which
depends on the sample spacing; ``process_readout``, ``power_spectrum``,
``wiener_filter``, ``truncate_series`` and ``synthesize`` are the same
helpers called on one row, whose records carry the frequencies of a
spacing, so a row gives the same doubles alone or in a batch.
``row_correlations`` gives the Pearson coefficient of each row of one
array with the same row of another, and ``row_medians`` each row's
median, as ``np.median`` gives it.

``process_readouts`` runs the per-row arithmetic between the two FFTs as
three compiled passes where ``_kernel.load()`` gives the library:
``um_weigh_rows`` (peak, significance, noise floor, Wiener weights and
the weighting, on the coefficients and their power), ``um_cut_rows`` (the
kept peak and the truncation, on numpy's |kept|^2, the raw power with the
filter off) and ``um_real_rows`` (the x M, the real part and the check
that it is real, on numpy's inverse FFT).  Each gives the numpy helpers'
doubles bit for bit, and declines, where numpy would warn or raise or
meets a value that is not finite, for those helpers to run on the same
arrays.  The FFTs, the twist and ``np.abs`` are numpy's on both routes.

``process_readouts`` and ``row_correlations`` keep their L x M
intermediates per thread, from call to call, on both routes: the weighted
coefficients, their power |kept|^2 and the untwisted coefficients the
inverse FFT reads, whose memory the correlations reuse for their stacked
pairs and the pairs' squares.  Each is an array of exactly the batch's
shape, made anew when the shape changes, and a batch whose complex array
exceeds ``_KEPT_MAX`` (4 MiB) keeps none.  The arrays either function
returns are never kept: they are the caller's own, and no later call
writes them.  Made fresh on every call, the intermediates of a sweep's
48 x 200 batch faulted some 155 pages back in per call, as the allocator
hands freed memory of that size back to the system; kept, an in-process
``sweep`` op of that batch faults 0.1 pages once warm.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernel
from .povm import ParameterError

# the fewest samples a readout takes
MIN_SAMPLES = 4
# the default regime thresholds on the fuzziness f (classify_regime)
F_LO, F_HI = 0.3, 5.0
# tolerances of the flat test, the filter's passthrough and the real check;
# _readout.c spells them FLAT_TOL, NOISE_FLOOR_REL and RESIDUAL_REL
_FLAT_TOL = 1e-15
_NOISE_FLOOR_REL = 1e-12
_RESIDUAL_REL = 1e-9
_NO_PEAK = "no main peak found; truncation skipped"
# A batch whose complex L x M array exceeds this many bytes keeps no
# scratch: four times the 1 MiB at which a sweep reads its points out
# (cli._READOUT_SAMPLES), so that a batch of a million samples does not
# hold its 40 MB of scratch for good.
_KEPT_MAX = 4 << 20
_kept = threading.local()  # .scratch: the thread's _Scratch, of its last batch's shape


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


class Readouts(NamedTuple):
    """``process_readouts``' results for L readouts of M samples, row i for
    readout i: each row's raw spectrum as a ``SpectrumRecord`` holds it
    (``peak_index`` is 0 where there is no main peak), its Wiener weights
    (None when the filter is off) and its processed samples."""

    coefficients: np.ndarray  # L x M complex
    power: np.ndarray  # L x M
    peak_index: np.ndarray  # L ints
    significant: np.ndarray  # L bools
    noise_floor: np.ndarray  # L
    wiener_weights: np.ndarray | None  # L x M
    processed: np.ndarray  # L x M


class _Scratch(NamedTuple):
    """One batch's intermediates, each an L x M array of exactly its size."""

    kept: np.ndarray  # complex: the coefficients the cut writes, or the correlations' pairs
    power: np.ndarray  # |kept|^2
    untwisted: np.ndarray  # complex: the inverse FFT's input, or the pairs' squares


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


def _samples(values, ndim: int, dt: float | None = None) -> np.ndarray:
    """``values`` as a C-contiguous ``ndim``-d float array, the layout numpy's
    FFTs keep and the passes read, checked, and ``dt`` checked if given."""
    x = np.asarray(values, dtype=float, order="C")
    if x.ndim != ndim or x.shape[-1] < MIN_SAMPLES or x.size == 0:
        what = "sequence" if ndim == 1 else "array of readouts, one per row,"
        raise AnalysisError(
            f"need a {ndim}-d {what} of at least {MIN_SAMPLES} samples, got shape {x.shape}"
        )
    if dt is not None and not 0.0 < dt < math.inf:  # also rejects nan
        raise ParameterError(f"dt = {dt!r} must be finite and > 0")
    return x


def _scratch(shape: tuple[int, int]) -> _Scratch:
    """The thread's scratch for a batch of ``shape``: the arrays of the last
    batch of that shape, else new ones, which a batch above ``_KEPT_MAX``
    does not keep."""
    scratch = getattr(_kept, "scratch", None)
    if scratch is None or scratch.power.shape != shape:
        scratch = _Scratch(np.empty(shape, complex), np.empty(shape), np.empty(shape, complex))
        if scratch.kept.nbytes <= _KEPT_MAX:
            _kept.scratch = scratch
    return scratch


def _spectra(x: np.ndarray) -> np.ndarray:
    """The twist times numpy's FFT of each row, over M, in the FFT's array."""
    coefficients = np.fft.fft(x, axis=1)
    np.multiply(_phases(x.shape[1])[0], coefficients, out=coefficients)
    coefficients /= x.shape[1]
    return coefficients


def _power(coefficients: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|coefficients|^2, into ``out`` if given; a finite value whose square
    overflows warns "overflow encountered in square"."""
    power = np.abs(coefficients, out=out)
    return np.square(power, out=power)


def _synthesized(library, coefficients: np.ndarray) -> np.ndarray:
    """The samples of each row of ``coefficients``: the inverse FFT, then
    ``_real`` with ``library``, which may be None."""
    untwisted = _scratch(coefficients.shape).untwisted
    np.multiply(coefficients, _phases(coefficients.shape[1])[1], out=untwisted)
    return _real(library, np.fft.ifft(untwisted, axis=1))


def _address(a: np.ndarray | None) -> int | None:
    """``a.ctypes.data`` without making ``a.ctypes`` (None for None); ``a`` must be writable."""
    return None if a is None else ctypes.addressof(ctypes.c_char.from_buffer(a))


def _real(library, values: np.ndarray) -> np.ndarray:
    """The real part of the inverse FFT ``values`` times M, checked to be
    real: by ``um_real_rows`` where ``library`` is given and the pass does
    not decline, else by numpy."""
    if library is not None:
        real = np.empty(values.shape)
        if not library.um_real_rows(_address(values), *values.shape, _address(real)):
            return real
    values = values * values.shape[1]
    top = np.max(np.abs(values.real), axis=1)
    scale = np.where(top > 1.0, top, 1.0)  # max(1.0, top), a NaN top included
    worst = np.max(np.abs(values.imag), axis=1)
    broken = worst > _RESIDUAL_REL * scale
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
    return (index > 0) & (peak >= 3.0 * row_medians(searched))


def _noise_floors(power: np.ndarray) -> np.ndarray:
    searched = power[:, _searched_range(power.shape[1])]
    half = searched.shape[1]
    return row_medians(searched[:, half - max(1, half // 4):])


def _wiener_weights(power: np.ndarray, floors: np.ndarray) -> np.ndarray:
    top = power[:, 1:].max(axis=1, keepdims=True)
    passthrough = (floors[:, None] <= _NOISE_FLOOR_REL * top) | (top == 0.0)
    # a passthrough row's floor, inf say, takes no part in the ratio
    floor = np.where(passthrough, 0.0, floors[:, None])
    signal = np.maximum(power - floor, 0.0)
    # every quotient, then the ones kept: the same divisions as a masked
    # divide, without its slow path; those left out may divide 0 by 0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = signal / (signal + floor)
    weights = np.where(
        (signal > 0.0) & ~passthrough, ratio,
        np.where(passthrough, power > _NOISE_FLOOR_REL * top, 0.0),
    )
    weights[:, 0] = 1.0
    return weights


def _truncated(coefficients: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Zero the bins strictly between twice the peak index and its mirror, per row."""
    m = coefficients.shape[1]
    keep = 2 * index[:, None]
    bins = np.arange(m)
    cut = (index[:, None] > 0) & (bins > keep) & (bins < m - keep)
    return np.where(cut, 0.0, coefficients)


def _raw(coefficients: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Power, main peak index, significance and noise floor of each row."""
    power = _power(coefficients)
    return power, *_weighed(None, coefficients, power, wiener=False)[:3]


def _weighed(library, coefficients: np.ndarray, power: np.ndarray, wiener: bool):
    """Main peak index, significance and noise floor of each row of
    ``power``, then the Wiener weights and the weighted coefficients, or,
    with the filter off, None and ``coefficients`` themselves: by
    ``um_weigh_rows`` where ``library`` is given and the pass does not
    decline, else by numpy.  The weighted coefficients are the thread's
    scratch."""
    rows, m = power.shape
    if library is not None:
        index, significant = np.empty(rows, dtype=np.int64), np.empty(rows, dtype=bool)
        floors, scratch = np.empty(rows), np.empty(m // 2)
        weights = np.empty((rows, m)) if wiener else None
        kept = _scratch(power.shape).kept if wiener else coefficients
        declined = library.um_weigh_rows(
            _address(coefficients), _address(power), rows, m, _address(scratch),
            _address(index), _address(significant), _address(floors),
            _address(weights), _address(kept) if wiener else None,
        )
        if not declined:
            return index, significant, floors, weights, kept
    index = _peaks(power)
    significant, floors = _significant(power, index), _noise_floors(power)
    if not wiener:
        return index, significant, floors, None, coefficients
    weights = _wiener_weights(power, floors)
    kept = np.multiply(coefficients, weights, out=_scratch(power.shape).kept)
    return index, significant, floors, weights, kept


def _cut(library, kept: np.ndarray, kept_power: np.ndarray):
    """``kept`` truncated at each row's main peak in ``kept_power``, and the
    number of rows without one: by ``um_cut_rows``, in place, where
    ``library`` is given and the pass does not decline, else by numpy."""
    if library is not None:
        index = np.empty(len(kept), dtype=np.int64)
        missing = library.um_cut_rows(_address(kept), _address(kept_power), *kept.shape,
                                      _address(index))
        if missing >= 0:
            return kept, missing
    with np.errstate(invalid="ignore"):  # an all-inf raw row warned in _weighed's search
        index = _peaks(kept_power)
    return _truncated(kept, index), np.count_nonzero(index == 0)


def _record(dt: float, coefficients, power, index, significant, floors, weights) -> SpectrumRecord:
    """The record of the first row of these per-row arrays; ``weights`` may be None."""
    m = coefficients.shape[1]
    return SpectrumRecord(
        dt=dt,
        coefficients=coefficients[0],
        frequencies=angular_frequency(np.arange(m), m, dt),
        power=power[0],
        main_peak_index=int(index[0]) or None,
        peak_significant=bool(significant[0]),
        noise_floor=float(floors[0]),
        wiener_weights=None if weights is None else weights[0],
    )


def _analyzed(dt: float, coefficients: np.ndarray, weights=None) -> SpectrumRecord:
    """The full record, every derived field included, of the one row of ``coefficients``."""
    return _record(dt, coefficients, *_raw(coefficients), weights)


def power_spectrum(sequence, dt: float) -> SpectrumRecord:
    """Analyze a real sequence sampled at t_m = m * dt, m starting at 1.

    The coefficients satisfy the synthesis convention exactly; the round
    trip through ``synthesize`` reproduces the input to well below 1e-9.
    """
    x = _samples(sequence, ndim=1, dt=dt)
    return _analyzed(dt, _spectra(x[None]))


def synthesize(record: SpectrumRecord) -> np.ndarray:
    """Evaluate the coefficient expansion back on the sample grid."""
    return _synthesized(None, record.coefficients[None])[0]


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
    return _analyzed(record.dt, record.coefficients * weights, weights)


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
    return _analyzed(record.dt, coefficients, [record.wiener_weights])


def process_readouts(readouts, wiener: bool = True, truncation: bool = True) -> Readouts:
    """The readout pipeline on an L x M array, one readout per row.

    Returns each row's raw spectrum, its Wiener weights when the filter ran,
    and the L x M processed samples: the synthesis of the filtered, then
    truncated coefficients, all as ``Readouts`` arrays.  ``wiener`` and
    ``truncation`` switch either step off.  Truncation cuts at the main
    peak of the filtered power; a row without one passes uncut, with one
    warning for the batch.

    A finite row whose power overflows raises nothing: numpy warns
    ``RuntimeWarning: overflow encountered in square``, and the row has
    inf bins in ``power`` and an inf ``noise_floor``.  The Wiener weights
    then keep only the zero-frequency bin, so the processed readout is the
    row's mean (as that bin gives it) in every sample, and truncation,
    finding no peak, skips the row with the batch's usual warning.
    ``analyze`` refuses such a g2 instead, and exits with code 2.

    Between the FFTs, the library's passes run where it loaded (see the
    module docstring); one that declines leaves its step to numpy, which
    warns or raises as it would alone, once.  The weighted coefficients,
    their power and the untwisted coefficients are the thread's kept
    scratch, up to a batch of ``_KEPT_MAX`` bytes of complex samples; the
    seven arrays returned are made fresh on every call.
    """
    coefficients = _spectra(_samples(readouts, ndim=2))
    power = _power(coefficients)
    library = _kernel.load()
    index, significant, floors, weights, kept = _weighed(library, coefficients, power, wiener)
    if truncation:
        scratch = _scratch(kept.shape)
        if not wiener:  # the cut writes kept: here a copy of the returned coefficients
            kept = scratch.kept
            np.copyto(kept, coefficients)
        kept, missing = _cut(library, kept, _power(kept, scratch.power) if wiener else power)
        if missing:
            warnings.warn(_NO_PEAK, UserWarning, stacklevel=2)
    processed = _synthesized(library, kept)
    return Readouts(coefficients, power, index, significant, floors, weights, processed)


def process_readout(
    g2_sequence, dt: float, wiener: bool = True, truncation: bool = True
) -> tuple[SpectrumRecord, np.ndarray]:
    """``process_readouts`` on one sequence sampled at spacing ``dt``: its record and samples."""
    x = _samples(g2_sequence, ndim=1, dt=dt)
    readouts = process_readouts(x[None], wiener, truncation)
    # every field but the samples, in _record's order
    return _record(dt, *readouts[:-1]), readouts.processed[0]


def row_medians(values: np.ndarray) -> np.ndarray:
    """``np.median(values, axis=1)`` of a 2-d float array, byte for byte.

    It makes ``np.median``'s partition (its middle index or pair, and the
    last index, which holds a NaN if the row has one), takes the mean of
    the middle and copies the last element where it is NaN, as numpy's NaN
    check does; that check imports ``numpy.ma`` on its first call, about
    10 ms in every process, and this does not.
    """
    size = values.shape[1]
    half = size // 2
    middle = [half - 1, half] if size % 2 == 0 else [half]
    part = np.partition(values, [*middle, -1], axis=1)
    medians = np.mean(part[:, middle[0] : half + 1], axis=1)
    last = part[:, -1]
    np.copyto(medians, last, where=np.isnan(last))
    return medians


def row_correlations(x, y) -> np.ndarray:
    """Pearson coefficient of each row of ``x`` with the same row of ``y``.

    NaN where either row is constant or holds a NaN.  The arithmetic runs
    in ``np.corrcoef``'s order (row means, the product of the centred pair
    with its transpose, the 1/(M-1) factor, division by each standard
    deviation in turn, clipping), so every coefficient is the double
    ``np.corrcoef(x[i], y[i])[0, 1]`` gives.  A row is constant where its
    ``np.std`` is 0, as ``np.std`` takes it: the centred values squared,
    summed, / M, square-rooted, so a row whose deviations' squares
    underflow counts as constant too.  ``x`` and ``y`` must be 2-d arrays
    of one shape.  The stacked pairs and their squares are the thread's
    kept scratch, in the memory of ``process_readouts``'; the coefficients
    returned are made fresh.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape != y.shape:
        raise ValueError(f"need two 2-d arrays of one shape, got {x.shape} and {y.shape}")
    rows, m = x.shape
    scratch = _scratch(x.shape)
    pairs = scratch.kept.view(float).reshape(rows, 2, m)
    pairs[:, 0], pairs[:, 1] = x, y
    undefined = np.isnan(pairs).any(axis=(1, 2))
    pairs -= pairs.mean(axis=2)[:, :, None]
    # each std as np.std takes it from the centred pairs: the sum of the
    # squares, / M, sqrt
    squares = np.square(pairs, out=scratch.untwisted.view(float).reshape(rows, 2, m))
    undefined |= (np.sqrt(squares.sum(axis=2) / m) == 0.0).any(axis=1)
    c = np.matmul(pairs, pairs.transpose(0, 2, 1))
    c *= np.true_divide(1, pairs.shape[2] - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (c[:, 0, 1] / np.sqrt(c[:, 0, 0])) / np.sqrt(c[:, 1, 1])
    r = np.clip(r, -1, 1)
    r[undefined] = np.nan
    return r


def classify_regime(f: float, f_lo: float = F_LO, f_hi: float = F_HI) -> str:
    """Map a fuzziness value onto one of the three measurement regimes.

    Below ``f_lo`` the measurements dominate (quantum jumps between the
    levels), above ``f_hi`` the driving dominates (clean oscillations,
    uninformative readout); in between the readout tracks the oscillation.
    The thresholds are conventions, only f around one is physically singled
    out, hence they are configurable.
    """
    if not f >= 0.0:  # NaN fails too
        raise ParameterError(f"fuzziness f = {f!r} must be >= 0")
    if not 0.0 <= f_lo <= f_hi:
        raise ParameterError(f"need 0 <= f_lo <= f_hi, got ({f_lo!r}, {f_hi!r})")
    if f < f_lo:
        return "quantum_jump"
    if f > f_hi:
        return "rabi"
    return "intermediate"
