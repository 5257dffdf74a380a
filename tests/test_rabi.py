"""Propagator, evolution law, and the commutator identity."""

import math

import numpy as np
import pytest

from unsharp_monitor.povm import (
    LEVEL_ONE,
    Operation,
    ParameterError,
    PovmParams,
    StateVector,
    bloch_vector,
    make_operations,
)
from unsharp_monitor.rabi import (
    HamiltonianSpec,
    commutator_residual,
    evolve,
    propagator,
)

from helpers import random_state

SPEC = HamiltonianSpec()


class TestHamiltonianSpec:
    def test_angular_frequency(self):
        assert SPEC.omega_r * SPEC.t_r == pytest.approx(2 * math.pi, abs=1e-12)
        assert HamiltonianSpec(t_r=2.5).omega_r == pytest.approx(2 * math.pi / 2.5, abs=1e-12)

    def test_nonpositive_period_rejected(self):
        with pytest.raises(ParameterError):
            HamiltonianSpec(t_r=0.0)


class TestPropagator:
    def test_zero_time_is_identity(self):
        assert np.allclose(propagator(0.0, SPEC), np.eye(2), atol=1e-15)

    def test_half_period_inverts_population(self):
        u = propagator(0.5, SPEC)
        sigma_x = np.array([[0, 1], [1, 0]])
        assert np.allclose(u, -1j * sigma_x, atol=1e-12)

    def test_full_period_is_minus_identity(self):
        assert np.allclose(propagator(1.0, SPEC), -np.eye(2), atol=1e-12)

    def test_unitary_with_unit_determinant(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            u = propagator(rng.uniform(0, 5), SPEC)
            assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
            assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)

    def test_periodicity_up_to_sign(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            tau = rng.uniform(0, 2)
            assert np.allclose(propagator(tau + 1.0, SPEC), -propagator(tau, SPEC), atol=1e-12)


class TestEvolve:
    def test_quarter_period_reaches_half_population(self):
        assert evolve(LEVEL_ONE, 0.25, SPEC).c2_sq == pytest.approx(0.5, abs=1e-12)

    def test_population_law_from_ground(self):
        for t in np.linspace(0.0, 3.0, 61):
            state = evolve(LEVEL_ONE, float(t), SPEC)
            assert state.c2_sq == pytest.approx(math.sin(math.pi * t) ** 2, abs=1e-10)

    def test_group_property(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            state = random_state(rng)
            t1, t2 = rng.uniform(0, 1, size=2)
            once = evolve(state, t1 + t2, SPEC)
            twice = evolve(evolve(state, t1, SPEC), t2, SPEC)
            assert abs(once.c1 - twice.c1) < 1e-12
            assert abs(once.c2 - twice.c2) < 1e-12

    def test_norm_preserved(self):
        state = StateVector(0.6, 0.8j)
        assert evolve(state, 0.37, SPEC).norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_bloch_x_component_invariant(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            state = random_state(rng)
            x_before = bloch_vector(state)[0]
            x_after = bloch_vector(evolve(state, rng.uniform(0, 2), SPEC))[0]
            assert abs(x_after - x_before) <= 1e-12


class TestCommutatorIdentity:
    def test_symmetric_operation_commutes(self):
        op = Operation(0.7, 0.7)
        assert commutator_residual(op, 0.13, SPEC) <= 1e-15
        m = op.matrix().astype(complex)
        u = propagator(0.13, SPEC)
        assert np.max(np.abs(m @ u - u @ m)) <= 1e-15

    def test_zero_time_commutes(self):
        plus, _ = make_operations(PovmParams(0.9, 0.2))
        assert commutator_residual(plus, 0.0, SPEC) <= 1e-15

    def test_intermediate_point_magnitude(self):
        plus, _ = make_operations(PovmParams(0.46, 0.54))
        assert commutator_residual(plus, 0.002, SPEC) <= 1e-12
        m = plus.matrix().astype(complex)
        u = propagator(0.002, SPEC)
        magnitude = np.max(np.abs(m @ u - u @ m))
        expected = abs(math.sqrt(0.46) - math.sqrt(0.54)) * math.sin(math.pi * 0.002)
        assert magnitude == pytest.approx(expected, rel=1e-9)
        assert magnitude == pytest.approx(3.56e-4, abs=5e-7)

    def test_identity_over_parameter_grid(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            params = PovmParams(rng.uniform(), rng.uniform())
            plus, minus = make_operations(params)
            tau = rng.uniform(0, 1.5)
            assert commutator_residual(plus, tau, SPEC) <= 1e-12
            assert commutator_residual(minus, tau, SPEC) <= 1e-12
