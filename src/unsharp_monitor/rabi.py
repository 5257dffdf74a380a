"""Resonant Rabi evolution between measurements, in the interaction picture.

With the driving on resonance the generator reduces to a constant coupling
between the two levels, and evolving for a time tau is the rotation
U(tau) = cos(pi tau / t_r) 1 - i sin(pi tau / t_r) sigma_x.  Starting from
|1> the upper-level population follows sin^2(pi t / t_r) with Rabi period
t_r.  All times in this package are expressed in units of the Rabi period,
so the default spec has t_r = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .povm import Operation, ParameterError, StateVector

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


@dataclass(frozen=True)
class HamiltonianSpec:
    """Resonantly driven two-level Hamiltonian, reduced to its Rabi period."""

    t_r: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.t_r < math.inf:  # NaN fails too
            raise ParameterError(f"t_r = {self.t_r!r} must be finite and > 0")

    @property
    def omega_r(self) -> float:
        """Rabi angular frequency 2 pi / t_r."""
        return 2.0 * math.pi / self.t_r


def rotation_half_angles(tau: float, spec: HamiltonianSpec) -> tuple[float, float]:
    """(cos, sin) of pi tau / t_r; the scalar ingredients of the propagator."""
    angle = math.pi * tau / spec.t_r
    return math.cos(angle), math.sin(angle)


def propagator(tau: float, spec: HamiltonianSpec) -> np.ndarray:
    """2x2 unitary for evolving over a time tau; determinant one."""
    if not 0.0 <= tau < math.inf:  # NaN fails too
        raise ParameterError(f"tau = {tau!r} must be finite and >= 0")
    cos_half, sin_half = rotation_half_angles(tau, spec)
    return np.array(
        [[cos_half, -1.0j * sin_half], [-1.0j * sin_half, cos_half]],
        dtype=complex,
    )


def evolve(state: StateVector, tau: float, spec: HamiltonianSpec) -> StateVector:
    """Evolve a state for a time tau under the resonant driving."""
    if not 0.0 <= tau < math.inf:  # NaN fails too
        raise ParameterError(f"tau = {tau!r} must be finite and >= 0")
    cos_half, sin_half = rotation_half_angles(tau, spec)
    c1, c2 = state.c1, state.c2
    return StateVector(
        cos_half * c1 - 1.0j * sin_half * c2,
        cos_half * c2 - 1.0j * sin_half * c1,
    )


def commutator_residual(op: Operation, tau: float, spec: HamiltonianSpec) -> float:
    """Max-entry error of the commutator identity for diagonal operations.

    [M, U(tau)] equals (u1 - u2) sin(pi tau / t_r) sigma_y exactly; the
    returned residual is the largest entry magnitude of the difference and
    should sit at machine precision for all parameters.
    """
    m = op.matrix().astype(complex)
    u = propagator(tau, spec)
    _, sin_half = rotation_half_angles(tau, spec)
    commutator = m @ u - u @ m
    expected = (op.u1 - op.u2) * sin_half * _SIGMA_Y
    return float(np.max(np.abs(commutator - expected)))
