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
depends on them.

States in the drive's plane (Im c1 and Re c2 both zero, of either sign;
every preset starts at |1>, which lies there) take a two-float route on
(Re c1, Im c2).  The rotation and the diagonal scaling map those zeros
to signed zeros, so the plane is never left, and the dropped terms only
ever enter a sum as +0 squares, which leave it unchanged.  The route
therefore gives the same doubles as the four-float one with half the
arithmetic.

RNG contract: a trajectory consumes a single stream seeded from
``config.seed`` (numpy default generator).  Evolution consumes nothing;
every measurement consumes exactly one uniform variate u, compared against
the "+" probability (u < p_plus reads "+", ties read "-").  Identical seeds
therefore reproduce identical records bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

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
    NSeriesOutcome,
    RegimeParams,
    evaluate_regime,
)


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
        if not 0 <= int(self.seed) < 2**64:
            raise ParameterError(f"seed = {self.seed!r} must be a 64-bit unsigned integer")
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


# Series per block of pre-drawn uniforms; bounds the memory a long
# trajectory holds at once (at most 64 uniforms per series).
_BLOCK_SERIES = 1024


_ZERO_NORM = "measurement produced the zero vector (zero-probability branch)"


def _advance(
    c1: complex, c2: complex, config: TrajectoryConfig, uniforms: list[float]
) -> tuple[complex, complex, list[float], list[int]]:
    """The measurement kernel: advance raw amplitudes through N-series.

    ``uniforms`` holds one pre-drawn variate per measurement, a whole
    number of series of ``config.n_per_series`` each.  Every step evolves
    for tau and then measures once.  Returns the final amplitudes, |c2|^2
    after each series and each series' "+" count.

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

    A state in the drive's plane, ``Im c1 == 0.0 and Re c2 == 0.0`` (either
    sign of zero), takes a two-float loop on ``a = Re c1`` and
    ``b = Im c2``.  From signed-zero inputs the rotation, the scaling and
    the division give only signed zeros in the two dropped components, so
    they stay zero along the whole trajectory; their squares are +0, and
    adding +0 to a square (never -0) is exact.  So ``p_plus``, the norm and
    every recorded |c2|^2 are the same doubles as in the four-float loop.
    The dropped components are returned as they came in; only the signs of
    those zeros can differ from the four-float loop, and no recorded value
    depends on them.  Every other state takes the four-float loop.
    """
    ch, s = rotation_half_angles(config.tau, config.spec)
    params = config.params
    p1, p2 = params.p1, params.p2
    u1_plus, u2_plus = params.u1_plus, params.u2_plus
    u1_minus, u2_minus = params.u1_minus, params.u2_minus
    lo, hi = -_CLAMP_TOL, 1.0 + _CLAMP_TOL
    n = config.n_per_series
    sqrt = math.sqrt
    c2_sq: list[float] = []
    n_plus: list[int] = []

    if c1.imag == 0.0 and c2.real == 0.0:
        a, b = c1.real, c2.imag
        for start in range(0, len(uniforms), n):
            count = 0
            for u in uniforms[start : start + n]:
                x = ch * a + s * b
                b = ch * b - s * a
                p_plus = p1 * (x * x) + p2 * (b * b)
                if not lo <= p_plus <= hi:
                    _clamp_probability(p_plus, "p_plus")
                if u < p_plus:
                    count += 1
                    a = x * u1_plus
                    b *= u2_plus
                else:
                    a = x * u1_minus
                    b *= u2_minus
                norm = sqrt(a * a + b * b)
                if norm == 0.0:
                    raise DegenerateOutcomeError(_ZERO_NORM)
                a /= norm
                b /= norm
            c2_sq.append(b * b)
            n_plus.append(count)
        return complex(a, c1.imag), complex(c2.real, b), c2_sq, n_plus

    ar, ai, br, bi = c1.real, c1.imag, c2.real, c2.imag
    for start in range(0, len(uniforms), n):
        count = 0
        for u in uniforms[start : start + n]:
            # rotate; x, y are the new (Re c1, Im c1) while ar, ai still
            # hold the old ones that the new c2 needs
            x = ch * ar + s * bi
            y = ch * ai - s * br
            br = ch * br + s * ai
            bi = ch * bi - s * ar
            p_plus = p1 * (x * x + y * y) + p2 * (br * br + bi * bi)
            # Clamping float dust cannot change u < p_plus for u in [0, 1),
            # so only the excursion check runs, and it raises.
            if not lo <= p_plus <= hi:
                _clamp_probability(p_plus, "p_plus")
            if u < p_plus:
                count += 1
                ar = x * u1_plus
                ai = y * u1_plus
                br *= u2_plus
                bi *= u2_plus
            else:
                ar = x * u1_minus
                ai = y * u1_minus
                br *= u2_minus
                bi *= u2_minus
            norm = sqrt((ar * ar + ai * ai) + (br * br + bi * bi))
            if norm == 0.0:
                raise DegenerateOutcomeError(_ZERO_NORM)
            ar /= norm
            ai /= norm
            br /= norm
            bi /= norm
        c2_sq.append(br * br + bi * bi)
        n_plus.append(count)
    return complex(ar, ai), complex(br, bi), c2_sq, n_plus


def _best_guesses(n_plus: list[int], n: int, params: PovmParams) -> np.ndarray:
    """Best guesses (n_plus / n - p1) / dp, one per series; NaN when dp = 0."""
    dp = params.dp
    if dp == 0.0:
        return np.full(len(n_plus), math.nan)
    return (np.array(n_plus) / n - params.p1) / dp


def simulate_nseries(
    state: StateVector,
    config: TrajectoryConfig,
    rng: np.random.Generator,
) -> tuple[StateVector, NSeriesOutcome]:
    """Run one N-series from ``state``; the count is accumulated over n steps.

    The best guess is NaN when dp = 0 (uninformative measurement); the
    post-series state is what callers should sample populations from.
    """
    ensure_normalized(state)
    n = config.n_per_series
    c1, c2, _, counts = _advance(state.c1, state.c2, config, rng.random(n).tolist())
    (n_plus,) = counts
    (g2,) = _best_guesses(counts, n, config.params).tolist()
    outcome = NSeriesOutcome(n_total=n, n_plus=n_plus, r=n_plus / n, g2=g2)
    return StateVector(c1, c2), outcome


def simulate_trajectory(config: TrajectoryConfig) -> TrajectoryRecord:
    """Run the full chain of m_series N-series and record the samples.

    Deterministic for a given config and seed.  The state is renormalized
    after every measurement, so recorded populations stay in [0, 1] to
    float precision.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n_per_series
    m_total = config.m_series
    c1, c2 = config.initial_state.c1, config.initial_state.c2
    c2_sq: list[float] = []
    n_plus: list[int] = []
    for start in range(0, m_total, _BLOCK_SERIES):
        k = min(_BLOCK_SERIES, m_total - start)
        c1, c2, block_c2_sq, block_plus = _advance(
            c1, c2, config, rng.random(k * n).tolist()
        )
        c2_sq += block_c2_sq
        n_plus += block_plus

    m_index = np.arange(1, m_total + 1)
    return TrajectoryRecord(
        config=config,
        m=m_index,
        t=m_index * config.delta_t,
        c2_sq=np.array(c2_sq, dtype=float),
        g2=_best_guesses(n_plus, n, config.params),
    )
