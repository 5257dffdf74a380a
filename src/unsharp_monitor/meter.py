"""Meter-dilation realization of the unsharp measurement.

The two-outcome measurement can be produced by coupling the system to a
second two-level system (the meter) and projecting the meter alone: the
coupling unitary maps |psi>|Phi(0)> onto a four-component entangled state
whose meter branches carry exactly the "+" and "-" operations.  This module
implements that path independently of the direct operator description in
``povm``, and the tests check the two against each other (acceptance
criterion 2); simulations never run through it.  The trajectory kernel
is checked against ``rabi.evolve`` and ``povm.apply_outcome`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .povm import (
    DegenerateOutcomeError,
    PovmParams,
    StateVector,
    _abs2,
    _clamp_probability,
    ensure_normalized,
)

Outcome = Literal["+", "-"]


@dataclass(frozen=True)
class CompoundState:
    """System-meter state over {|1>|+>, |1>|->, |2>|+>, |2>|->}."""

    a1_plus: complex
    a1_minus: complex
    a2_plus: complex
    a2_minus: complex

    @property
    def norm_sq(self) -> float:
        return (
            _abs2(self.a1_plus)
            + _abs2(self.a1_minus)
            + _abs2(self.a2_plus)
            + _abs2(self.a2_minus)
        )


def dilate(state: StateVector, params: PovmParams) -> CompoundState:
    """Couple a normalized system state to the meter.

    The branch amplitudes are u1+-, u2+- times the level amplitudes; the
    coupling is norm-preserving on these product inputs, which is all the
    measurement model needs.
    """
    ensure_normalized(state, "system state")
    return CompoundState(
        a1_plus=params.u1_plus * state.c1,
        a1_minus=params.u1_minus * state.c1,
        a2_plus=params.u2_plus * state.c2,
        a2_minus=params.u2_minus * state.c2,
    )


def meter_outcome_probability(compound: CompoundState) -> float:
    """Probability that the meter projection reads "+"."""
    return _clamp_probability(
        _abs2(compound.a1_plus) + _abs2(compound.a2_plus), "meter p_plus"
    )


def project_onto_meter(compound: CompoundState, outcome: Outcome) -> StateVector:
    """System state left after projecting the meter onto one pointer state.

    The projected compound state factorizes exactly, so the system side is
    just the matching pair of branch amplitudes, renormalized.
    """
    if outcome == "+":
        c1, c2 = compound.a1_plus, compound.a2_plus
    else:
        c1, c2 = compound.a1_minus, compound.a2_minus
    norm_sq = _abs2(c1) + _abs2(c2)
    if norm_sq == 0.0:
        raise DegenerateOutcomeError(
            f"meter outcome {outcome!r} has probability zero on this compound state"
        )
    norm = math.sqrt(norm_sq)
    return StateVector(c1 / norm, c2 / norm)


def measure_meter(
    compound: CompoundState, rng: np.random.Generator
) -> tuple[Outcome, StateVector]:
    """Project the meter, drawing the outcome with one uniform variate.

    The variate u is compared against p_plus; u < p_plus reads "+", a tie
    reads "-".  A zero-probability branch can never be drawn.
    """
    p_plus = meter_outcome_probability(compound)
    outcome: Outcome = "+" if rng.random() < p_plus else "-"
    return outcome, project_onto_meter(compound, outcome)
