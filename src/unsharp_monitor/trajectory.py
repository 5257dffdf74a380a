"""Monte Carlo trajectories: driving interleaved with random unsharp measurements.

One simulation step evolves the state for a time tau and then draws one
measurement outcome; n_per_series steps form an N-series, after which the
upper-level population and the best guess are recorded at t_m = m * n * tau.
A trajectory chains m_series such series, always continuing from the state
the previous series left behind.

The kernel holds the two amplitudes as four floats (Re c1, Im c1, Re c2,
Im c2) and does only float arithmetic.  The drive is a real rotation of
(c1, i c2), the measurement a real diagonal scaling, and CPython forms
``float * complex`` and ``complex / float`` as componentwise products and
quotients, so the real form reproduces the complex reference functions
bit for bit; at most the signs of zeros differ, and no recorded value
depends on them.  The loop runs compiled from ``_kernel.c`` (built and
cached by ``_kernel.py``) in the same operation order, so it gives the
same doubles: each full group of four rows as packed vectors, one per
component, whose every lane does the scalar loop's operations, and each
row after the last group through that scalar loop; each row draws its own
uniforms.  Without a C compiler the Python loop runs instead, on numpy's
draws of the same streams.

``simulate_replicates`` runs one config from several seeds and returns
the recorded arrays with one row per seed; ``simulate_trajectory`` is its
one-seed call.  Replicates differ only in the seed, so the config is
built and validated once for all of them.

RNG contract: a trajectory consumes a single stream seeded from its seed
(``config.seed``, or one entry of ``simulate_replicates``' seeds): numpy's
PCG64 seeded through ``SeedSequence``, so its uniforms are those of
``numpy.random.Generator(numpy.random.PCG64(seed)).random()``, which is
``numpy.random.default_rng(seed)`` today.  Evolution consumes nothing;
every measurement consumes exactly one uniform variate u, compared against
the "+" probability (u < p_plus reads "+", ties read "-").  Identical
seeds therefore reproduce identical records bit for bit.
"""

from __future__ import annotations

import ctypes
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from .povm import (
    DegenerateOutcomeError,
    ParameterError,
    PovmParams,
    StateVector,
    LEVEL_ONE,
    _CLAMP_TOL,
    _clamp_probability,
    ensure_normalized,
)
from .rabi import HamiltonianSpec, rotation_half_angles
from .series import (
    MAX_SERIES_LENGTH,
    RegimeParams,
    best_guess,
    evaluate_regime,
)


def _check_seed(seed: int) -> None:
    # an integer: um_seed would truncate a float that numpy's SeedSequence refuses
    if not (isinstance(seed, numbers.Integral) and 0 <= seed < 2**64):
        raise ParameterError(f"seed = {seed!r} must be a 64-bit unsigned integer")


class TimeResolutionWarning(UserWarning):
    """The series spacing is too coarse to resolve the Rabi oscillation."""


class SeriesBoundWarning(UserWarning):
    """The series length strains or violates the best-guess validity bound."""


@dataclass(frozen=True)
class TrajectoryConfig:
    """Immutable description of one trajectory run.

    ``tau`` may be zero (an immediate succession of measurements with no
    driving in between); the CLI layer additionally requires tau > 0 for
    full runs.  Construction validates all invariants and emits warnings
    when the series spacing n * tau reaches a tenth of the Rabi period or
    when the series-length bound is strained.
    """

    params: PovmParams
    tau: float
    n_per_series: int
    m_series: int
    initial_state: StateVector = LEVEL_ONE
    spec: HamiltonianSpec = field(default_factory=HamiltonianSpec)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.tau < 0.0:
            raise ParameterError(f"tau = {self.tau!r} must be >= 0")
        if not 1 <= self.n_per_series <= MAX_SERIES_LENGTH:
            raise ParameterError(
                f"n_per_series = {self.n_per_series} must lie in [1, {MAX_SERIES_LENGTH}]"
            )
        if self.m_series < 1:
            raise ParameterError(f"m_series = {self.m_series} must be >= 1")
        _check_seed(self.seed)
        ensure_normalized(self.initial_state, "initial state")
        # stacklevel 3 passes over this method and the generated __init__,
        # so each warning names the line that built the config
        if self.delta_t >= self.spec.t_r / 10.0:
            warnings.warn(
                f"series spacing delta_t = {self.delta_t:g} is not small against "
                f"the Rabi period {self.spec.t_r:g}; readout samples will undersample "
                "the oscillation",
                TimeResolutionWarning,
                stacklevel=3,
            )
        if self.params.dp != 0.0:
            regime = self.regime
            if regime.nbound_tier == "violated":
                warnings.warn(
                    f"series-length bound violated: ratio = {regime.nbound_ratio:.3g} >= 1; "
                    "the best guess is not a controlled approximation of the "
                    "upper-level population",
                    SeriesBoundWarning,
                    stacklevel=3,
                )
            elif regime.nbound_tier == "loose":
                warnings.warn(
                    f"series-length bound only loosely satisfied: "
                    f"ratio = {regime.nbound_ratio:.3g} > 0.25",
                    SeriesBoundWarning,
                    stacklevel=3,
                )

    @property
    def delta_t(self) -> float:
        """Series spacing n_per_series * tau between recorded samples."""
        return self.n_per_series * self.tau

    @property
    def regime(self) -> RegimeParams:
        """Derived time scales and bound diagnostics (requires dp != 0)."""
        return evaluate_regime(self.params, self.tau, self.n_per_series, self.spec.t_r)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Recorded samples of one trajectory, one row per N-series.

    ``t`` holds t_m = m * delta_t with m = 1..m_series; ``c2_sq`` the
    upper-level population right after each series; ``g2`` the best guess
    formed from that series' counts.
    """

    config: TrajectoryConfig
    m: np.ndarray
    t: np.ndarray
    c2_sq: np.ndarray
    g2: np.ndarray


# Series per block of numpy's draws on the Python route; bounds the memory
# a long trajectory holds at once (at most 64 uniforms per series).
_BLOCK_SERIES = 1024


_ZERO_NORM = "measurement produced the zero vector (zero-probability branch)"


def _constants(config: TrajectoryConfig) -> np.ndarray:
    """The step's hoisted constants, in the order ``_kernel.c`` reads them."""
    ch, s = rotation_half_angles(config.tau, config.spec)
    params = config.params
    return np.array([
        ch, s, params.p1, params.p2, params.u1_plus, params.u2_plus,
        params.u1_minus, params.u2_minus, -_CLAMP_TOL, 1.0 + _CLAMP_TOL,
    ])


def _python_advance(
    state: np.ndarray,
    constants: np.ndarray,
    n: int,
    uniforms: np.ndarray,
    c2_sq: np.ndarray,
    n_plus: np.ndarray,
) -> None:
    """The measurement kernel: advance rows of raw amplitudes through N-series.

    Each row of ``state`` holds one trajectory's (Re c1, Im c1, Re c2,
    Im c2) and is advanced in place; ``constants`` comes from
    ``_constants``.  Row i of ``uniforms`` holds one pre-drawn variate per
    measurement of that trajectory, ``n`` per series for the
    ``c2_sq.shape[1]`` series of the call.  Every step evolves for tau and
    then measures once.  Writes |c2|^2 after each series into ``c2_sq`` and
    each series' "+" count into ``n_plus``, one row per trajectory.  Rows
    run one after another, so an error stops the call in the first row that
    raises it, with the rows before it advanced.

    This loop is the readable reference, the portable fallback and the one
    place that raises: ``_numpy_advance`` feeds it numpy's draws of each
    row's stream, and ``_compiled_advance`` runs the same lines compiled
    from ``_kernel.c``, which draws the same uniforms itself, only stops,
    and hands the row where it stopped and every row after it to
    ``_numpy_advance``.

    The step is that of ``rabi.evolve``,
    ``povm.outcome_probabilities`` and ``povm.apply_outcome`` with the
    constants hoisted, written on the four real components.  It matches
    them bit for bit because CPython forms ``float * complex`` and
    ``complex / float`` componentwise: it promotes the float to
    ``complex(f, 0.0)``, and every term formed against that zero only adds
    or subtracts a signed zero.  The propagator's ``-i sin`` term swaps
    components and flips a sign.  At tau = 0 the rotation by
    (cos, sin) = (1, 0) is the identity in the same sense, so every step
    rotates.

    ``p_plus`` is checked inside the outcome branch, one compare per
    measurement: a "+" tests ``p_plus > hi`` and a "-" tests
    ``not p_plus >= lo``.  Since u lies in [0, 1) and hi > 1, a value above
    hi always reads "+" and one below lo always reads "-", and NaN reads
    "-" because ``u < nan`` is false; so the two tests reject exactly what
    ``lo <= p_plus <= hi`` would, and raise ``_clamp_probability``'s
    error.  Clamping the float dust that passes cannot change
    ``u < p_plus``, so no clamp runs.  The norm is checked by the first
    division: a float division raises ZeroDivisionError exactly when the
    norm is 0.0, which becomes ``DegenerateOutcomeError``.
    """
    ch, s, p1, p2, u1_plus, u2_plus, u1_minus, u2_minus, lo, hi = constants.tolist()
    sqrt = math.sqrt
    series = c2_sq.shape[1]
    for row in range(len(state)):
        ar, ai, br, bi = state[row].tolist()
        row_uniforms = uniforms[row].tolist()
        for m in range(series):
            count = 0
            for u in row_uniforms[m * n : (m + 1) * n]:
                # rotate; x, y are the new (Re c1, Im c1) while ar, ai still
                # hold the old ones that the new c2 needs
                x = ch * ar + s * bi
                y = ch * ai - s * br
                br = ch * br + s * ai
                bi = ch * bi - s * ar
                p_plus = p1 * (x * x + y * y) + p2 * (br * br + bi * bi)
                if u < p_plus:
                    if p_plus > hi:
                        _clamp_probability(p_plus, "p_plus")
                    count += 1
                    ar = x * u1_plus
                    ai = y * u1_plus
                    br *= u2_plus
                    bi *= u2_plus
                else:
                    if not p_plus >= lo:
                        _clamp_probability(p_plus, "p_plus")
                    ar = x * u1_minus
                    ai = y * u1_minus
                    br *= u2_minus
                    bi *= u2_minus
                norm = sqrt((ar * ar + ai * ai) + (br * br + bi * bi))
                try:
                    ar /= norm
                except ZeroDivisionError:
                    raise DegenerateOutcomeError(_ZERO_NORM) from None
                ai /= norm
                br /= norm
                bi /= norm
            c2_sq[row, m] = br * br + bi * bi
            n_plus[row, m] = count
        state[row] = (ar, ai, br, bi)


def _stream_words(ints: dict[str, int]) -> list[int]:
    """numpy's ``PCG64.state["state"]`` as a stream's four words: the state's
    low and high 64 bits, then the increment's."""
    return [ints["state"] % 2**64, ints["state"] >> 64, ints["inc"] % 2**64, ints["inc"] >> 64]


def _numpy_advance(
    state: np.ndarray,
    constants: np.ndarray,
    n: int,
    streams: np.ndarray,
    c2_sq: np.ndarray,
    n_plus: np.ndarray,
) -> None:
    """``_python_advance`` on numpy's draws of each row's stream: the Python route.

    ``streams`` holds one PCG64 stream per row of ``state``, as
    ``_streams`` makes them.  Each row draws its uniforms from a
    ``Generator(PCG64)`` set to its stream, in blocks of ``_BLOCK_SERIES``
    series, and its stream is advanced in place past them, as
    ``_compiled_advance`` advances it.  numpy.random is imported only here
    and in ``_streams``'s Python route.
    """
    from numpy.random import PCG64, Generator

    bit_generator = PCG64(0)
    rng = Generator(bit_generator)
    series = c2_sq.shape[1]
    for row, stream in enumerate(streams):
        state_low, state_high, inc_low, inc_high = stream.tolist()
        ints = {"state": state_low | state_high << 64, "inc": inc_low | inc_high << 64}
        bit_generator.state = {"bit_generator": "PCG64", "state": ints, "has_uint32": 0, "uinteger": 0}
        rows = slice(row, row + 1)
        for start in range(0, series, _BLOCK_SERIES):
            block = slice(start, min(start + _BLOCK_SERIES, series))
            uniforms = rng.random((1, (block.stop - start) * n))
            _python_advance(state[rows], constants, n, uniforms, c2_sq[rows, block], n_plus[rows, block])
        stream[:] = _stream_words(bit_generator.state["state"])


_LIBRARY = _kernel.load()
_KERNEL = None if _LIBRARY is None else _LIBRARY.um_advance_rows
_SEED = None if _LIBRARY is None else _LIBRARY.um_seed
_FLOAT64, _INT64, _UINT64 = np.dtype(np.float64), np.dtype(np.int64), np.dtype(np.uint64)


def _streams(seeds: list[int]) -> np.ndarray:
    """One PCG64 stream per seed, as numpy's ``PCG64(seed)`` seeds it through ``SeedSequence``.

    Row i holds the four words (``_stream_words``) of
    ``PCG64(seeds[i]).state["state"]``.  ``um_seed`` hashes the seeds into
    them where the library loaded, and numpy where it did not.
    """
    streams = np.empty((len(seeds), 4), dtype=np.uint64)
    if _SEED is None:
        from numpy.random import PCG64

        for stream, seed in zip(streams, seeds):
            stream[:] = _stream_words(PCG64(seed).state["state"])
    else:
        words = np.array(seeds, dtype=np.uint64)
        uint64 = ctypes.c_uint64
        _SEED(uint64.from_buffer(words), len(seeds), uint64.from_buffer(streams))
    return streams


def _compiled_advance(
    state: np.ndarray,
    constants: np.ndarray,
    n: int,
    streams: np.ndarray,
    c2_sq: np.ndarray,
    n_plus: np.ndarray,
) -> None:
    """``_numpy_advance`` compiled from ``_kernel.c``, with the same doubles, streams and errors.

    The kernel runs each full group of four rows as packed vectors, one per
    component (in the AVX2 or the baseline copy of that loop, which the
    loader picks for the host), and each row after the last group in the
    scalar loop whose lines every lane follows, and draws each row's
    uniforms from its stream as numpy does.  It raises nothing: it returns
    the row where p_plus left [lo, hi] or the norm was zero (in a group,
    the group's first row), with that row's state and stream as they were.  That row and every row after it
    run through ``_numpy_advance``, which raises the first failing row's
    error.  The kernel reads and writes the buffers through raw pointers,
    so their shapes and dtypes are checked here, and ``from_buffer``
    refuses any buffer that is not C-contiguous and writable.
    """
    # no buffer has a shape of -1 rows, so an output of another rank is refused
    rows, series = c2_sq.shape if c2_sq.ndim == 2 else (-1, -1)
    if not (
        state.shape == streams.shape == (rows, 4) and constants.shape == (10,)
        and n_plus.shape == (rows, series)
        and state.dtype == constants.dtype == c2_sq.dtype == _FLOAT64
        and n_plus.dtype == _INT64 and streams.dtype == _UINT64
    ):
        raise ValueError("kernel buffers do not match the series: shapes or dtypes differ")
    double, int64, uint64 = ctypes.c_double, ctypes.c_int64, ctypes.c_uint64
    stop = _KERNEL(
        double.from_buffer(state), double.from_buffer(constants), n, series, rows,
        uint64.from_buffer(streams), double.from_buffer(c2_sq), int64.from_buffer(n_plus),
    )
    if stop < rows:
        _numpy_advance(state[stop:], constants, n, streams[stop:], c2_sq[stop:], n_plus[stop:])


_advance = _numpy_advance if _KERNEL is None else _compiled_advance


def _best_guesses(n_plus: np.ndarray, n: int, params: PovmParams) -> np.ndarray:
    """``series.best_guess`` of each series' relative frequency n_plus / n; NaN when dp = 0."""
    if params.dp == 0.0:
        return np.full(n_plus.shape, math.nan)
    return best_guess(n_plus / n, params)


def simulate_replicates(
    config: TrajectoryConfig, seeds: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Run ``config``'s trajectory once per seed; returns (c2_sq, g2).

    Both arrays are len(seeds) x m_series, one row per seed, and row i is
    the trajectory that ``config`` with ``seed = seeds[i]`` records, bit
    for bit: ``config.seed`` itself is not used.  Replicates share the
    config, so it is built and validated once however many seeds there are.

    All rows and all series run in one ``_advance`` call; each row draws
    its uniforms from its own stream, so a row does not depend on the rows
    beside it.
    """
    for seed in seeds:
        _check_seed(seed)
    n = config.n_per_series
    c2_sq = np.empty((len(seeds), config.m_series))
    n_plus = np.empty((len(seeds), config.m_series), dtype=np.int64)
    c1, c2 = config.initial_state.c1, config.initial_state.c2
    amplitudes = np.empty((len(seeds), 4))
    amplitudes[:] = (c1.real, c1.imag, c2.real, c2.imag)
    if len(seeds):  # ctypes maps no empty buffer
        _advance(amplitudes, _constants(config), n, _streams(seeds), c2_sq, n_plus)
    return c2_sq, _best_guesses(n_plus, n, config.params)


def simulate_trajectory(config: TrajectoryConfig) -> TrajectoryRecord:
    """Run the full chain of m_series N-series and record the samples.

    Deterministic for a given config and seed.  The state is renormalized
    after every measurement, so recorded populations stay in [0, 1] to
    float precision.
    """
    (c2_sq,), (g2,) = simulate_replicates(config, [config.seed])
    m_index = np.arange(1, config.m_series + 1)
    return TrajectoryRecord(
        config=config, m=m_index, t=m_index * config.delta_t, c2_sq=c2_sq, g2=g2
    )
