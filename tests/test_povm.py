"""Unit and property tests for the single-measurement layer."""

import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from unsharp_monitor.povm import (
    DegenerateOutcomeError,
    LEVEL_ONE,
    LEVEL_TWO,
    Operation,
    ParameterError,
    PovmParams,
    StateError,
    StateVector,
    apply_outcome,
    bloch_vector,
    make_operations,
    outcome_probabilities,
    unitary_disturbance,
)

from helpers import random_params, random_state


UNIFORM = StateVector(1 / math.sqrt(2), 1 / math.sqrt(2))


class TestPovmParams:
    def test_from_p0_dp_fig1_point(self):
        params = PovmParams.from_p0_dp(0.5, -0.3)
        assert params.p1 == pytest.approx(0.65, abs=1e-15)
        assert params.p2 == pytest.approx(0.35, abs=1e-15)
        assert params.dp == pytest.approx(-0.3, abs=1e-15)

    def test_from_p0_dp_degenerate_and_projection(self):
        symmetric = PovmParams.from_p0_dp(0.5, 0.0)
        assert symmetric.p1 == symmetric.p2 == 0.5
        projection = PovmParams.from_p0_dp(0.5, 1.0)
        assert (projection.p1, projection.p2) == (0.0, 1.0)

    @pytest.mark.parametrize("p0,dp", [(0.9, 0.3), (0.1, -0.3), (0.5, 1.2), (1.1, 0.0)])
    def test_from_p0_dp_rejects_out_of_range(self, p0, dp):
        with pytest.raises(ParameterError):
            PovmParams.from_p0_dp(p0, dp)

    def test_direct_construction_rejects_bad_probabilities(self):
        with pytest.raises(ParameterError):
            PovmParams(-0.1, 0.5)
        with pytest.raises(ParameterError):
            PovmParams(0.5, 1.1)

    def test_u_factors_complete(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            params = random_params(rng)
            assert params.u1_plus**2 + params.u1_minus**2 == pytest.approx(1.0, abs=1e-12)
            assert params.u2_plus**2 + params.u2_minus**2 == pytest.approx(1.0, abs=1e-12)
            assert min(params.u1_plus, params.u2_plus, params.u1_minus, params.u2_minus) >= 0.0


class TestOperations:
    def test_sharp_limit_gives_projectors(self):
        plus, minus = make_operations(PovmParams(1.0, 0.0))
        assert (plus.u1, plus.u2) == (1.0, 0.0)
        assert (minus.u1, minus.u2) == (0.0, 1.0)

    def test_weak_operation_entries(self):
        plus, _ = make_operations(PovmParams(0.65, 0.35))
        assert round(plus.u1, 5) == 0.80623
        assert round(plus.u2, 5) == 0.59161

    def test_symmetric_params_give_identity_proportional_operations(self):
        plus, minus = make_operations(PovmParams(0.5, 0.5))
        assert plus == minus
        assert plus.u1 == pytest.approx(plus.u2, abs=1e-15)

    def test_effect_completeness(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            plus, minus = make_operations(random_params(rng))
            for u_pair in ((plus.u1, minus.u1), (plus.u2, minus.u2)):
                assert u_pair[0] ** 2 + u_pair[1] ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_negative_entries_rejected(self):
        with pytest.raises(ParameterError):
            Operation(-0.1, 0.5)


class TestOutcomeProbabilities:
    def test_eigenstate(self):
        params = PovmParams(0.65, 0.35)
        p_plus, p_minus = outcome_probabilities(LEVEL_TWO, params)
        assert p_plus == pytest.approx(params.p2, abs=1e-15)
        assert p_minus == pytest.approx(1 - params.p2, abs=1e-15)

    def test_uniform_superposition_gives_p0(self):
        p_plus, _ = outcome_probabilities(UNIFORM, PovmParams(0.65, 0.35))
        assert p_plus == pytest.approx(0.5, abs=1e-12)

    def test_known_value(self):
        p_plus, _ = outcome_probabilities(StateVector(0.6, 0.8), PovmParams(0.65, 0.35))
        assert p_plus == pytest.approx(0.458, abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(
        parts=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
        p1=st.floats(0.0, 1.0),
        p2=st.floats(0.0, 1.0),
    )
    def test_closure(self, parts, p1, p2):
        # p_minus = 1 - p_plus is within half an ulp of the exact difference,
        # so the sum rounds back to exactly one
        norm = math.sqrt(sum(x * x for x in parts))
        assume(norm > 1e-3)
        state = StateVector(complex(*parts[:2]) / norm, complex(*parts[2:]) / norm)
        p_plus, p_minus = outcome_probabilities(state, PovmParams(p1, p2))
        assert 0.0 <= p_plus <= 1.0
        assert 0.0 <= p_minus <= 1.0
        assert p_plus + p_minus == 1.0

    def test_rejects_unnormalized_state(self):
        with pytest.raises(StateError):
            outcome_probabilities(StateVector(1.0, 1.0), PovmParams(0.5, 0.5))

    def test_marginal_overshoot_is_clamped(self):
        # norm^2 a hair above one keeps p_plus within float slack of 1
        c = math.sqrt(0.5) * (1.0 + 1e-13)
        p_plus, _ = outcome_probabilities(StateVector(c, c), PovmParams(1.0, 1.0))
        assert p_plus == 1.0

    def test_large_excursion_is_an_error(self):
        c = math.sqrt(0.5) * (1.0 + 4e-10)
        with pytest.raises(StateError):
            outcome_probabilities(StateVector(c, c), PovmParams(1.0, 1.0))


@st.composite
def unit_states(draw) -> StateVector:
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    norm = math.sqrt(sum(x * x for x in parts))
    assume(norm > 1e-3)
    return StateVector(complex(*parts[:2]) / norm, complex(*parts[2:]) / norm)


any_params = st.builds(PovmParams, st.floats(0.0, 1.0), st.floats(0.0, 1.0))


def unnormalized_norm_sq(state: StateVector, op: Operation) -> float:
    """Squared norm before renormalizing; below the normal range it loses digits."""
    return abs(op.u1 * state.c1) ** 2 + abs(op.u2 * state.c2) ** 2


def seed_15_cases() -> list[dict]:
    """The inputs the example-based relative-phase test drew from seed 15."""
    rng = np.random.default_rng(15)
    cases = []
    for _ in range(200):
        state = random_state(rng)
        if abs(state.c1) < 1e-3 or abs(state.c2) < 1e-3:
            continue
        params = random_params(rng)
        plus = bool(rng.uniform() < 0.5)
        op = make_operations(params)[0 if plus else 1]
        if op.u1 == 0.0 or op.u2 == 0.0:
            continue
        cases.append({"state": state, "params": params, "plus": plus})
    return cases


SEED_15_CASES = seed_15_cases()


def with_examples(cases):
    def decorate(test):
        for case in cases:
            test = example(**case)(test)
        return test

    return decorate


class TestApplyOutcome:
    def test_eigenstates_are_fixed(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            plus, minus = make_operations(random_params(rng))
            for op in (plus, minus):
                for state, kept in ((LEVEL_ONE, "c1"), (LEVEL_TWO, "c2")):
                    if (op.u1 if kept == "c1" else op.u2) == 0.0:
                        continue  # that branch has probability zero
                    after = apply_outcome(state, op)
                    assert getattr(after, kept) == pytest.approx(1.0, abs=1e-12)

    def test_projection_limit(self):
        after = apply_outcome(UNIFORM, Operation(1.0, 0.0))
        assert after.c1 == pytest.approx(1.0, abs=1e-12)
        assert after.c2 == 0.0

    def test_weak_measurement_on_uniform_state(self):
        plus, _ = make_operations(PovmParams(0.65, 0.35))
        after = apply_outcome(UNIFORM, plus)
        assert after.c1.real == pytest.approx(0.80623, abs=5e-6)
        assert after.c2.real == pytest.approx(0.59161, abs=5e-6)

    def test_zero_probability_branch_raises(self):
        with pytest.raises(DegenerateOutcomeError):
            apply_outcome(LEVEL_ONE, Operation(0.0, 1.0))

    @settings(max_examples=300, deadline=None)
    @given(state=unit_states(), params=any_params, plus=st.booleans())
    def test_norm_preserved(self, state, params, plus):
        op = make_operations(params)[0 if plus else 1]
        assume(unnormalized_norm_sq(state, op) >= sys.float_info.min)
        after = apply_outcome(state, op)
        assert abs(after.norm_sq - 1.0) <= 8 * sys.float_info.epsilon

    @with_examples(SEED_15_CASES)
    @settings(max_examples=300, deadline=None)
    @given(state=unit_states(), params=any_params, plus=st.booleans())
    def test_relative_phase_preserved(self, state, params, plus):
        assume(abs(state.c1) >= 1e-3 and abs(state.c2) >= 1e-3)
        op = make_operations(params)[0 if plus else 1]
        assume(op.u1 > 0.0 and op.u2 > 0.0)
        assume(unnormalized_norm_sq(state, op) >= sys.float_info.min)
        before = cmath.phase(state.c1.conjugate() * state.c2)
        after_state = apply_outcome(state, op)
        after = cmath.phase(after_state.c1.conjugate() * after_state.c2)
        assert abs(cmath.exp(1j * before) - cmath.exp(1j * after)) < 1e-12


class TestBlochVector:
    def test_pole_and_equator_conventions(self):
        assert bloch_vector(LEVEL_ONE) == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)
        assert bloch_vector(UNIFORM) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
        state = StateVector(1 / math.sqrt(2), 1j / math.sqrt(2))
        assert bloch_vector(state) == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)

    def test_unit_length(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            x, y, z = bloch_vector(random_state(rng))
            assert x * x + y * y + z * z == pytest.approx(1.0, abs=1e-9)


def yz_plane_state(alpha: float, sign: int = 1) -> StateVector:
    """State on the x = 0 great circle: z = cos(alpha), y = sign * sin(alpha)."""
    return StateVector(math.cos(alpha / 2), sign * 1j * math.sin(alpha / 2))


class TestUnitaryDisturbance:
    def test_zero_angle_is_identity(self):
        state = UNIFORM
        after = unitary_disturbance(state, 0.0)
        assert after.c1 == state.c1 and after.c2 == state.c2

    def test_full_turn_flips_global_sign_only(self):
        state = UNIFORM
        after = unitary_disturbance(state, 2 * math.pi)
        assert after.c1 == pytest.approx(-state.c1, abs=1e-12)
        assert after.c2 == pytest.approx(-state.c2, abs=1e-12)
        assert bloch_vector(after) == pytest.approx(bloch_vector(state), abs=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            after = unitary_disturbance(random_state(rng), rng.uniform(-10, 10))
            assert after.norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_quarter_turn_moves_plane_states_off_plane(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            alpha = rng.uniform(0.2, math.pi - 0.2)
            state = yz_plane_state(alpha)
            _, y, _ = bloch_vector(state)
            assert abs(bloch_vector(state)[0]) < 1e-15
            x_after = bloch_vector(unitary_disturbance(state, math.pi / 2))[0]
            assert abs(x_after) == pytest.approx(abs(y), abs=1e-12)
            assert abs(x_after) > 0.0


class TestBlochPlaneInvariance:
    def test_measurements_keep_x_zero(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            state = yz_plane_state(rng.uniform(0, 2 * math.pi), sign=1)
            plus, minus = make_operations(random_params(rng))
            op = plus if rng.uniform() < 0.5 else minus
            try:
                after = apply_outcome(state, op)
            except DegenerateOutcomeError:
                continue
            assert abs(bloch_vector(after)[0]) <= 1e-12

    def test_disturbance_breaks_the_plane(self):
        state = yz_plane_state(math.pi / 3)
        disturbed = unitary_disturbance(state, math.pi / 4)
        plus, _ = make_operations(PovmParams(0.65, 0.35))
        after = apply_outcome(disturbed, plus)
        assert abs(bloch_vector(after)[0]) > 1e-3


class TestStateVector:
    def test_zero_vector_rejected(self):
        with pytest.raises(StateError):
            StateVector(0.0, 0.0)

    @pytest.mark.parametrize(
        "c1, c2",
        [
            (math.nan, 0.0), (0.0, math.nan), (complex(1.0, math.nan), 0.0),
            (math.inf, 0.0), (0.6, complex(0.0, -math.inf)),
        ],
    )
    def test_non_finite_amplitude_rejected(self, c1, c2):
        with pytest.raises(StateError, match="must be finite"):
            StateVector(c1, c2)
