"""Closed-form N-series statistics against brute-force and sampling oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unsharp_monitor.povm import (
    LEVEL_ONE,
    LEVEL_TWO,
    ParameterError,
    PovmParams,
    StateVector,
    apply_outcome,
    make_operations,
)
from unsharp_monitor.series import (
    MAX_SERIES_LENGTH,
    best_guess,
    evaluate_regime,
    expectation_r,
    fidelity,
    fuzziness,
    level_resolution_time,
    min_n_level_resolution,
    nbound,
    nseries_effect,
    nseries_probability,
    sigma_g2,
    variance_r,
)
from unsharp_monitor.rabi import HamiltonianSpec, evolve, propagator
from unsharp_monitor.spectral import classify_regime
from unsharp_monitor.trajectory import TrajectoryConfig

from helpers import random_params, random_state

UNIFORM = StateVector(1 / math.sqrt(2), 1 / math.sqrt(2))


def enumerate_count_distribution(state, params, n):
    """Oracle: probability of each plus-count from all 2^n ordered sequences.

    Sequentially applies the raw (unnormalized) operations; the probability
    of one ordered sequence is the squared norm of the final vector.
    """
    plus, minus = make_operations(params)
    probabilities = [0.0] * (n + 1)
    for outcomes in itertools.product((True, False), repeat=n):
        c1, c2 = state.c1, state.c2
        for is_plus in outcomes:
            op = plus if is_plus else minus
            c1 *= op.u1
            c2 *= op.u2
        probabilities[sum(outcomes)] += abs(c1) ** 2 + abs(c2) ** 2
    return probabilities


def fidelity_oracle(params, n, state):
    """Oracle: build the outcome mixture explicitly and take the overlap root."""
    rho = np.zeros((2, 2), dtype=complex)
    psi = np.array([state.c1, state.c2])
    for n_plus in range(n + 1):
        factors = np.array(
            [
                params.u1_plus**n_plus * params.u1_minus ** (n - n_plus),
                params.u2_plus**n_plus * params.u2_minus ** (n - n_plus),
            ]
        )
        branch = math.comb(n, n_plus) ** 0.5 * factors * psi
        rho += np.outer(branch, branch.conjugate())
    return math.sqrt(float(np.real(psi.conjugate() @ rho @ psi)))


def run_one_series(state, params, n, rng):
    """Oracle: sequential measurement with back-action, no driving."""
    plus, minus = make_operations(params)
    current = state
    n_plus = 0
    for _ in range(n):
        p_plus = params.p1 * abs(current.c1) ** 2 + params.p2 * abs(current.c2) ** 2
        if rng.random() < p_plus:
            n_plus += 1
            current = apply_outcome(current, plus)
        else:
            current = apply_outcome(current, minus)
    return n_plus / n


class TestEffect:
    def test_single_measurement_reduces_to_plus_effect(self):
        params = PovmParams(0.65, 0.35)
        assert nseries_effect(params, 1, 1) == pytest.approx((0.65, 0.35), abs=1e-15)

    def test_symmetric_params_give_binomial_pmf(self):
        params = PovmParams(0.3, 0.3)
        for n, n_plus in [(1, 0), (5, 2), (25, 10), (64, 40)]:
            pmf = math.comb(n, n_plus) * 0.3**n_plus * 0.7 ** (n - n_plus)
            e1, e2 = nseries_effect(params, n, n_plus)
            assert e1 == pytest.approx(pmf, rel=1e-13)
            assert e2 == pytest.approx(pmf, rel=1e-13)

    def test_three_series_hand_value(self):
        e1, e2 = nseries_effect(PovmParams(0.65, 0.35), 3, 2)
        assert e1 == pytest.approx(0.443625, abs=1e-15)
        assert e2 == pytest.approx(0.238875, abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(
        p1=st.floats(0.0, 1.0),
        p2=st.floats(0.0, 1.0),
        n=st.integers(1, MAX_SERIES_LENGTH),
    )
    def test_entries_sum_to_one_per_level(self, p1, p2, n):
        # the diagonal effects of all n + 1 counts form a complete measurement
        effects = np.array([nseries_effect(PovmParams(p1, p2), n, k) for k in range(n + 1)])
        assert np.all((effects >= 0.0) & (effects <= 1.0))
        assert effects.sum(axis=0) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_count_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            nseries_effect(PovmParams(0.5, 0.4), 3, 4)
        with pytest.raises(ParameterError):
            nseries_effect(PovmParams(0.5, 0.4), 65, 0)


class TestProbability:
    def test_eigenstate(self):
        params = PovmParams(0.65, 0.35)
        assert nseries_probability(LEVEL_TWO, params, 2, 2) == pytest.approx(
            0.35**2, abs=1e-15
        )

    def test_uniform_superposition_hand_value(self):
        value = nseries_probability(UNIFORM, PovmParams(0.65, 0.35), 3, 2)
        assert value == pytest.approx(0.34125, abs=1e-12)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(22)
        for trial in range(12):
            state = random_state(rng)
            params = random_params(rng)
            n = 1 + trial % 8
            oracle = enumerate_count_distribution(state, params, n)
            for n_plus in range(n + 1):
                assert nseries_probability(state, params, n, n_plus) == pytest.approx(
                    oracle[n_plus], abs=1e-12
                )

    def test_distribution_normalized(self):
        rng = np.random.default_rng(23)
        for n in (1, 7, 25, 64):
            state = random_state(rng)
            params = random_params(rng)
            total = sum(nseries_probability(state, params, n, k) for k in range(n + 1))
            assert total == pytest.approx(1.0, abs=1e-10)


class TestFidelity:
    def test_symmetric_params_leave_state_untouched(self):
        rng = np.random.default_rng(24)
        for n in (1, 5, 40):
            assert fidelity(PovmParams(0.4, 0.4), n, random_state(rng)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_projection_on_uniform_state(self):
        value = fidelity(PovmParams(1.0, 0.0), 1, UNIFORM)
        assert value == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_matches_density_matrix_oracle(self):
        rng = np.random.default_rng(25)
        assert fidelity(PovmParams(0.65, 0.35), 2, UNIFORM) == pytest.approx(
            fidelity_oracle(PovmParams(0.65, 0.35), 2, UNIFORM), abs=1e-12
        )
        for trial in range(15):
            state = random_state(rng)
            params = random_params(rng)
            n = 1 + trial % 6
            assert fidelity(params, n, state) == pytest.approx(
                fidelity_oracle(params, n, state), abs=1e-12
            )

    def test_bounds_and_extremes(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            state = random_state(rng)
            params = random_params(rng)
            n = int(rng.integers(1, 30))
            q1 = abs(state.c1) ** 2
            q2 = abs(state.c2) ** 2
            floor = math.sqrt(1 - 2 * q1 * q2)
            value = fidelity(params, n, state)
            assert floor - 1e-12 <= value <= 1.0 + 1e-12
        params = PovmParams(0.8, 0.3)
        assert fidelity(params, 5, UNIFORM) <= fidelity(params, 5, random_state(rng))
        assert fidelity(params, 5, LEVEL_ONE) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_decreasing_in_series_length(self):
        params = PovmParams(0.65, 0.35)
        values = [fidelity(params, n, UNIFORM) for n in range(1, 20)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_long_series_limit_is_projective(self):
        params = PovmParams(0.65, 0.35)
        limit = math.sqrt(1 - 2 * 0.25)
        n = 1
        while n < 10_000 and abs(fidelity(params, n, UNIFORM) - limit) >= 1e-6:
            n *= 2
        assert abs(fidelity(params, n, UNIFORM) - limit) < 1e-6


class TestBestGuess:
    def test_anchors(self):
        params = PovmParams(0.65, 0.35)
        assert best_guess(0.65, params) == pytest.approx(0.0, abs=1e-15)
        assert best_guess(0.35, params) == pytest.approx(1.0, abs=1e-15)
        assert best_guess(0.5, params) == pytest.approx(0.5, abs=1e-12)

    def test_not_clamped(self):
        assert best_guess(1.0, PovmParams(0.495, 0.505)) == pytest.approx(50.5, rel=1e-12)

    def test_undefined_for_symmetric_params(self):
        with pytest.raises(ParameterError):
            best_guess(0.5, PovmParams(0.5, 0.5))


class TestMoments:
    def test_expectation_eigenstate_and_uniform(self):
        params = PovmParams(0.65, 0.35)
        assert expectation_r(LEVEL_TWO, params) == pytest.approx(0.35, abs=1e-15)
        assert expectation_r(UNIFORM, params) == pytest.approx(0.5, abs=1e-12)

    def test_variance_eigenstate_is_binomial(self):
        params = PovmParams(0.65, 0.35)
        for n in (1, 4, 25):
            assert variance_r(LEVEL_TWO, params, n) == pytest.approx(
                0.35 * 0.65 / n, rel=1e-12
            )

    def test_variance_large_n_floor(self):
        params = PovmParams(0.65, 0.35)
        state = StateVector(0.6, 0.8)
        floor = 0.36 * 0.64 * params.dp**2
        assert variance_r(state, params, 10**9) == pytest.approx(floor, rel=1e-6)

    def test_moments_match_sequential_sampling(self):
        rng = np.random.default_rng(27)
        params = PovmParams(0.46, 0.54)
        state = StateVector(0.6, 0.8)
        n = 10
        reps = 30_000
        samples = np.array([run_one_series(state, params, n, rng) for _ in range(reps)])
        mean_se = math.sqrt(variance_r(state, params, n) / reps)
        assert abs(samples.mean() - expectation_r(state, params)) < 5 * mean_se
        assert samples.var(ddof=1) == pytest.approx(variance_r(state, params, n), rel=0.1)

    def test_best_guess_unbiased(self):
        rng = np.random.default_rng(28)
        params = PovmParams(0.42, 0.58)
        state = StateVector(0.8, 0.6j)
        n = 12
        reps = 30_000
        guesses = np.array(
            [best_guess(run_one_series(state, params, n, rng), params) for _ in range(reps)]
        )
        se = sigma_g2(state, params, n) / math.sqrt(reps)
        assert abs(guesses.mean() - 0.36) < 4 * se


class TestSigmaG2:
    def test_projective_single_shot_floor(self):
        params = PovmParams(1.0, 0.0)
        state = StateVector(0.6, 0.8)
        assert sigma_g2(state, params, 1) == pytest.approx(0.6 * 0.8, abs=1e-12)

    def test_eigenstate_single_shot(self):
        params = PovmParams(0.65, 0.35)
        expected = math.sqrt(0.65 * 0.35) / 0.3
        assert sigma_g2(LEVEL_ONE, params, 1) == pytest.approx(expected, rel=1e-12)

    def test_uniform_state_hand_value(self):
        params = PovmParams(0.65, 0.35)
        expected = math.sqrt(0.25 + (0.65 * 0.35 + 0.35 * 0.65) / (2 * 25 * 0.09))
        assert sigma_g2(UNIFORM, params, 25) == pytest.approx(expected, rel=1e-12)

    def test_decreases_with_n_and_split(self):
        state = StateVector(0.6, 0.8)
        params = PovmParams.from_p0_dp(0.5, 0.2)
        values = [sigma_g2(state, params, n) for n in (1, 2, 5, 10, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))
        by_split = [
            sigma_g2(state, PovmParams.from_p0_dp(0.5, dp), 10)
            for dp in (0.05, 0.1, 0.3, 0.7, 1.0)
        ]
        assert all(a > b for a, b in zip(by_split, by_split[1:]))

    def test_undefined_for_symmetric_params(self):
        with pytest.raises(ParameterError):
            sigma_g2(UNIFORM, PovmParams(0.5, 0.5), 3)


class TestResolutionScales:
    def test_min_n_values(self):
        assert min_n_level_resolution(PovmParams.from_p0_dp(0.5, 1.0)) == 1
        assert min_n_level_resolution(PovmParams.from_p0_dp(0.5, 0.08)) == 53
        assert min_n_level_resolution(PovmParams.from_p0_dp(0.5, 0.3)) == 5

    def test_min_n_degenerate(self):
        with pytest.raises(ParameterError):
            min_n_level_resolution(PovmParams(0.5, 0.5))
        assert min_n_level_resolution(PovmParams(0.0, 0.0)) == 1

    def test_level_resolution_time_values(self):
        assert level_resolution_time(
            PovmParams.from_p0_dp(0.5, -0.3), 0.002
        ) == pytest.approx(0.0074074074, abs=1e-9)
        assert level_resolution_time(
            PovmParams.from_p0_dp(0.5, 0.01), 0.002
        ) == pytest.approx(6.6666667, abs=1e-5)
        assert level_resolution_time(PovmParams(1.0, 1.0), 0.002) == 0.0
        with pytest.raises(ParameterError):
            level_resolution_time(PovmParams(0.5, 0.5), 0.002)

    @pytest.mark.parametrize("p2", [5e-324, 1e-170])
    def test_underflowing_split_is_unbounded(self, p2):
        # 3 dp^2 is 0 although dp is not: used to raise ZeroDivisionError
        params = PovmParams(0.0, p2)
        with pytest.raises(ParameterError, match="underflows"):
            level_resolution_time(params, 0.002)
        with pytest.raises(ParameterError, match="underflows"):
            min_n_level_resolution(params)
        with pytest.raises(ParameterError, match="underflows"):
            TrajectoryConfig(params=params, tau=0.002, n_per_series=25, m_series=8)

    def test_fuzziness_of_published_points(self):
        for dp, expected in ((-0.3, 0.07), (0.01, 62.8), (0.08, 0.98)):
            params = PovmParams.from_p0_dp(0.5, dp)
            f = fuzziness(level_resolution_time(params, 0.002), 1.0)
            assert f == pytest.approx(expected, rel=5e-3)


class TestNBound:
    def test_symmetric_params_are_unbounded(self):
        result = nbound(PovmParams(0.5, 0.5), 0.002, 1.0, 25)
        assert math.isinf(result.rhs)
        assert result.ratio == 0.0
        assert result.satisfied

    def test_intermediate_point(self):
        result = nbound(PovmParams(0.46, 0.54), 0.002, 1.0, 25)
        assert result.rhs == pytest.approx(953.3, abs=0.1)
        assert result.ratio == pytest.approx(0.604, abs=1e-3)
        assert result.satisfied

    def test_doubled_series_violates(self):
        result = nbound(PovmParams(0.46, 0.54), 0.002, 1.0, 50)
        assert result.ratio == pytest.approx(2.52, abs=5e-3)
        assert not result.satisfied

    def test_independent_reconstruction(self):
        # recompute from first principles with fresh arithmetic
        p1, p2, tau = 0.46, 0.54, 0.002
        u = {
            "1+": math.sqrt(p1), "2+": math.sqrt(p2),
            "1-": math.sqrt(1 - p1), "2-": math.sqrt(1 - p2),
        }
        gap = max(abs(u["2+"] - u["1+"]), abs(u["2-"] - u["1-"]))
        rhs = max(u["1+"], u["2-"]) / (2 * gap) / (math.pi * tau)
        result = nbound(PovmParams(p1, p2), tau, 1.0, 25)
        assert result.rhs == pytest.approx(rhs, rel=1e-12)


class TestRegimeParams:
    def test_consistency_invariant(self):
        regime = evaluate_regime(PovmParams.from_p0_dp(0.5, 0.08), 0.002, 25)
        assert regime.f == pytest.approx(3 * math.pi * regime.t_lr / regime.t_r, abs=1e-12)
        assert regime.n_min == 53
        assert regime.nbound_tier == "loose"

    def test_tiers(self):
        assert evaluate_regime(PovmParams.from_p0_dp(0.5, 0.01), 0.002, 25).nbound_tier == "ok"
        assert (
            evaluate_regime(PovmParams.from_p0_dp(0.5, -0.3), 0.002, 25).nbound_tier
            == "violated"
        )


NAN, PARAMS = math.nan, PovmParams(0.46, 0.54)


@pytest.mark.parametrize(
    "call",
    [
        lambda: HamiltonianSpec(t_r=NAN),
        lambda: propagator(NAN, HamiltonianSpec()),
        lambda: propagator(math.inf, HamiltonianSpec()),
        lambda: evolve(UNIFORM, NAN, HamiltonianSpec()),
        lambda: level_resolution_time(PARAMS, NAN),
        lambda: fuzziness(0.5, NAN),
        lambda: fuzziness(NAN, 1.0),
        lambda: fuzziness(-1.0, 1.0),
        lambda: nbound(PARAMS, NAN, 1.0, 25),
        lambda: nbound(PARAMS, 0.002, NAN, 25),
        lambda: classify_regime(NAN),
    ],
    ids=[
        "spec-t_r", "propagator-tau", "propagator-inf-tau", "evolve-tau",
        "level_resolution_time-tau", "fuzziness-t_r", "fuzziness-t_lr",
        "fuzziness-negative-t_lr", "nbound-tau", "nbound-t_r",
        "classify_regime-f",
    ],
)
def test_range_guards_refuse_nan(call):
    # each guard is written so that a comparison with NaN, always false, fails it
    with pytest.raises(ParameterError):
        call()
