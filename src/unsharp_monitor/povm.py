"""Two-outcome unsharp measurements on a single two-level system.

The measurement class used throughout this package is diagonal in the level
basis {|1>, |2>}: each of the two outcomes (labelled "+" and "-") rescales
the level amplitudes by non-negative factors, so level populations are
nudged rather than projected.  A measurement is fully characterized by the
pair of probabilities (p1, p2), equivalently by their mean p0 and split dp.
|dp| = 1 is a sharp (projective) measurement, dp = 0 carries no information.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-9
_CLAMP_TOL = 1e-12


class ParameterError(ValueError):
    """Measurement or estimator parameters outside their valid domain."""


class StateError(ValueError):
    """A state violated a normalization or probability contract."""


class DegenerateOutcomeError(ValueError):
    """A zero-probability outcome was applied, producing the zero vector."""


def _abs2(z: complex) -> float:
    """Squared magnitude, evaluated the same way everywhere for determinism."""
    return z.real * z.real + z.imag * z.imag


def _clamp_probability(p: float, what: str) -> float:
    """Clamp float noise within 1e-12 of [0, 1]; larger excursions are bugs."""
    if -_CLAMP_TOL <= p <= 1.0 + _CLAMP_TOL:
        return min(max(p, 0.0), 1.0)
    raise StateError(f"{what} = {p!r} lies outside [0, 1] beyond float slack")


@dataclass(frozen=True)
class StateVector:
    """Pure state c1|1> + c2|2>; may be transiently unnormalized.

    The zero vector is rejected at construction.  All operations in this
    package treat instances as immutable values.
    """

    c1: complex
    c2: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "c1", complex(self.c1))
        object.__setattr__(self, "c2", complex(self.c2))
        if self.norm_sq == 0.0:
            raise StateError("state vector must not be the zero vector")

    @property
    def norm_sq(self) -> float:
        return _abs2(self.c1) + _abs2(self.c2)

    @property
    def c2_sq(self) -> float:
        """Squared magnitude of the upper-level amplitude."""
        return _abs2(self.c2)


LEVEL_ONE = StateVector(1.0, 0.0)
LEVEL_TWO = StateVector(0.0, 1.0)


def ensure_normalized(state: StateVector, what: str = "state") -> None:
    """Raise StateError unless ``state`` is normalized within NORM_TOL."""
    error = abs(state.norm_sq - 1.0)
    if not error <= NORM_TOL:  # a NaN norm fails too
        raise StateError(
            f"{what} must be normalized: |norm^2 - 1| = {error:.3e} > {NORM_TOL:g}"
        )


@dataclass(frozen=True)
class PovmParams:
    """Strength parameters of the two-outcome measurement.

    Parameters
    ----------
    p1, p2 : float
        Probability of the "+" outcome on the basis states |1> and |2>.
        Both must lie in [0, 1].

    Derived quantities: the mean ``p0``, the split ``dp = p2 - p1``, and the
    four non-negative amplitude factors ``u1_plus`` ... ``u2_minus`` of the
    two diagonal operations.
    """

    p1: float
    p2: float

    def __post_init__(self) -> None:
        for name in ("p1", "p2"):
            value = float(getattr(self, name))
            if not 0.0 <= value <= 1.0:
                raise ParameterError(f"{name} = {value!r} must lie in [0, 1]")
            object.__setattr__(self, name, value)

    @classmethod
    def from_p0_dp(cls, p0: float, dp: float) -> "PovmParams":
        """Build from the mean p0 and split dp; both p1, p2 must land in [0, 1]."""
        if not -1.0 <= dp <= 1.0:
            raise ParameterError(f"dp = {dp!r} must lie in [-1, 1]")
        p1 = p0 - dp / 2.0
        p2 = p0 + dp / 2.0
        # absorb float dust from the subtraction before range validation
        if -_CLAMP_TOL <= p1 <= 1.0 + _CLAMP_TOL:
            p1 = min(max(p1, 0.0), 1.0)
        if -_CLAMP_TOL <= p2 <= 1.0 + _CLAMP_TOL:
            p2 = min(max(p2, 0.0), 1.0)
        if not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0):
            raise ParameterError(
                f"p0 = {p0!r}, dp = {dp!r} put (p1, p2) = ({p1!r}, {p2!r}) "
                "outside [0, 1]"
            )
        return cls(p1, p2)

    @property
    def p0(self) -> float:
        return (self.p1 + self.p2) / 2.0

    @property
    def dp(self) -> float:
        return self.p2 - self.p1

    @property
    def u1_plus(self) -> float:
        return math.sqrt(self.p1)

    @property
    def u2_plus(self) -> float:
        return math.sqrt(self.p2)

    @property
    def u1_minus(self) -> float:
        return math.sqrt(1.0 - self.p1)

    @property
    def u2_minus(self) -> float:
        return math.sqrt(1.0 - self.p2)


@dataclass(frozen=True)
class Operation:
    """Diagonal state-transformation operator diag(u1, u2), u1, u2 >= 0."""

    u1: float
    u2: float

    def __post_init__(self) -> None:
        if self.u1 < 0.0 or self.u2 < 0.0:
            raise ParameterError(
                f"operation entries must be non-negative, got ({self.u1}, {self.u2})"
            )

    def matrix(self) -> np.ndarray:
        return np.array([[self.u1, 0.0], [0.0, self.u2]], dtype=float)


def make_operations(params: PovmParams) -> tuple[Operation, Operation]:
    """Return the (plus, minus) operation pair for one parameter set.

    The pair satisfies the completeness relation: the two associated effects
    sum to the identity.
    """
    plus = Operation(params.u1_plus, params.u2_plus)
    minus = Operation(params.u1_minus, params.u2_minus)
    return plus, minus


def outcome_probabilities(state: StateVector, params: PovmParams) -> tuple[float, float]:
    """Probabilities (p_plus, p_minus) of the two outcomes on a normalized state.

    p_plus is the expectation value of the "+" effect,
    ``p1 |c1|^2 + p2 |c2|^2``; the pair sums to one.
    """
    ensure_normalized(state)
    p_plus = params.p1 * _abs2(state.c1) + params.p2 * _abs2(state.c2)
    p_plus = _clamp_probability(p_plus, "p_plus")
    return p_plus, 1.0 - p_plus


def apply_outcome(state: StateVector, op: Operation) -> StateVector:
    """Transform a state conditional on one outcome.

    Amplitudes are rescaled componentwise, ``c1 -> u1 c1, c2 -> u2 c2``.
    Because the factors are non-negative the relative phase arg(c1* c2) is
    unchanged.  Applying an outcome of probability zero would produce the
    zero vector; this is signalled with DegenerateOutcomeError rather than
    silently renormalized.
    """
    c1 = op.u1 * state.c1
    c2 = op.u2 * state.c2
    norm_sq = _abs2(c1) + _abs2(c2)
    if norm_sq == 0.0:
        raise DegenerateOutcomeError(
            "outcome has probability zero on this state (result is the zero vector)"
        )
    norm = math.sqrt(norm_sq)
    return StateVector(c1 / norm, c2 / norm)


def bloch_vector(state: StateVector) -> tuple[float, float, float]:
    """Bloch components (x, y, z) of a normalized state.

    Convention: z from the level populations with |1> at the north pole
    (0, 0, 1); x and y from the real and imaginary parts of the coherence,
    x = 2 Re(c1* c2), y = 2 Im(c1* c2).
    """
    ensure_normalized(state)
    coherence = state.c1.conjugate() * state.c2
    x = 2.0 * coherence.real
    y = 2.0 * coherence.imag
    z = _abs2(state.c1) - _abs2(state.c2)
    return x, y, z


def unitary_disturbance(state: StateVector, theta: float) -> StateVector:
    """Apply the diagonal unitary diag(exp(-i theta/2), exp(+i theta/2)).

    A rotation of the Bloch vector about the z axis by ``theta``.  Composing
    it with the measurement operations models the disturbance that a
    non-trivial unitary part of an operation would add; it drives states out
    of the x = 0 Bloch plane that the bare operations preserve.
    """
    ensure_normalized(state)
    phase = cmath.exp(-0.5j * theta)
    return StateVector(phase * state.c1, phase.conjugate() * state.c2)
