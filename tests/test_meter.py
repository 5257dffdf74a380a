"""Dilation path against the direct operator description."""

import math

import numpy as np
import pytest

from unsharp_monitor.meter import (
    dilate,
    measure_meter,
    meter_outcome_probability,
    project_onto_meter,
)
from unsharp_monitor.povm import (
    DegenerateOutcomeError,
    LEVEL_ONE,
    PovmParams,
    StateVector,
    apply_outcome,
    make_operations,
    outcome_probabilities,
)


def random_state(rng) -> StateVector:
    return StateVector(
        complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
    ).normalized()


class TestDilate:
    def test_lower_eigenstate_populates_only_level_one_branches(self):
        params = PovmParams(0.65, 0.35)
        compound = dilate(LEVEL_ONE, params)
        assert compound.a1_plus == pytest.approx(params.u1_plus, abs=1e-15)
        assert compound.a1_minus == pytest.approx(params.u1_minus, abs=1e-15)
        assert compound.a2_plus == 0.0
        assert compound.a2_minus == 0.0

    def test_sharp_limit_is_perfectly_correlated(self):
        compound = dilate(StateVector(0.6, 0.8), PovmParams(1.0, 0.0))
        assert compound.a1_minus == 0.0
        assert compound.a2_plus == 0.0
        assert abs(compound.a1_plus) > 0 and abs(compound.a2_minus) > 0

    def test_genuine_case_populates_all_branches(self):
        uniform = StateVector(1 / math.sqrt(2), 1 / math.sqrt(2))
        compound = dilate(uniform, PovmParams(0.65, 0.35))
        for amp in (compound.a1_plus, compound.a1_minus, compound.a2_plus, compound.a2_minus):
            assert abs(amp) > 0.1

    def test_norm_preserved(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            compound = dilate(random_state(rng), PovmParams(rng.uniform(), rng.uniform()))
            assert compound.norm_sq == pytest.approx(1.0, abs=1e-12)


class TestMeterProjection:
    def test_probabilities_match_direct_description(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            state = random_state(rng)
            params = PovmParams(rng.uniform(), rng.uniform())
            p_plus_direct, _ = outcome_probabilities(state, params)
            p_plus_meter = meter_outcome_probability(dilate(state, params))
            assert abs(p_plus_meter - p_plus_direct) <= 1e-12

    def test_post_states_match_direct_description(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            state = random_state(rng)
            params = PovmParams(rng.uniform(), rng.uniform())
            compound = dilate(state, params)
            plus, minus = make_operations(params)
            for outcome, op in (("+", plus), ("-", minus)):
                try:
                    direct = apply_outcome(state, op)
                except DegenerateOutcomeError:
                    with pytest.raises(DegenerateOutcomeError):
                        project_onto_meter(compound, outcome)
                    continue
                via_meter = project_onto_meter(compound, outcome)
                assert abs(via_meter.c1 - direct.c1) <= 1e-12
                assert abs(via_meter.c2 - direct.c2) <= 1e-12

    def test_projected_compound_factorizes(self):
        rng = np.random.default_rng(44)
        state = random_state(rng)
        params = PovmParams(0.7, 0.2)
        compound = dilate(state, params)
        # project onto the "+" pointer state by hand and compare with the
        # tensor product of the returned system state and that pointer state
        projected = np.array([compound.a1_plus, 0.0, compound.a2_plus, 0.0])
        projected = projected / np.linalg.norm(projected)
        system = project_onto_meter(compound, "+")
        product = np.array([system.c1, 0.0, system.c2, 0.0])
        assert np.max(np.abs(projected - product)) <= 1e-12

    def test_sharp_limit_on_eigenstate_is_deterministic(self):
        rng = np.random.default_rng(45)
        compound = dilate(LEVEL_ONE, PovmParams(1.0, 0.0))
        for _ in range(50):
            outcome, system = measure_meter(compound, rng)
            assert outcome == "+"
            assert system.c1 == pytest.approx(1.0, abs=1e-15)

    def test_one_variate_per_measurement(self):
        rng_a = np.random.default_rng(46)
        rng_b = np.random.default_rng(46)
        compound = dilate(StateVector(0.6, 0.8), PovmParams(0.65, 0.35))
        for _ in range(25):
            measure_meter(compound, rng_a)
            rng_b.random()
        assert rng_a.random() == rng_b.random()
