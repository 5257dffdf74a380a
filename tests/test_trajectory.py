"""Monte Carlo trajectory machinery: determinism, distributions, regimes."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from unsharp_monitor import trajectory
from unsharp_monitor.povm import (
    LEVEL_ONE,
    ParameterError,
    PovmParams,
    StateError,
    StateVector,
    apply_outcome,
    make_operations,
    outcome_probabilities,
)
from unsharp_monitor.rabi import HamiltonianSpec, evolve
from unsharp_monitor.series import best_guess, nseries_probability
from unsharp_monitor.spectral import main_peak, power_spectrum
from unsharp_monitor.trajectory import (
    SeriesBoundWarning,
    TimeResolutionWarning,
    TrajectoryConfig,
    simulate_replicates,
    simulate_trajectory,
)

from helpers import (
    KERNELS,
    chain_against_reference,
    quiet_config,
    reference_g2,
    restarted_series,
    run_kernel,
)


FIG3_PARAMS = PovmParams.from_p0_dp(0.5, 0.08)


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        good = dict(params=FIG3_PARAMS, tau=0.002, n_per_series=25, m_series=10)
        with pytest.raises(ParameterError):
            quiet_config(**{**good, "tau": -0.1})
        with pytest.raises(ParameterError):
            quiet_config(**{**good, "n_per_series": 0})
        with pytest.raises(ParameterError):
            quiet_config(**{**good, "n_per_series": 65})
        with pytest.raises(ParameterError):
            quiet_config(**{**good, "m_series": 0})
        with pytest.raises(ParameterError):
            quiet_config(**{**good, "seed": -1})
        with pytest.raises(StateError):
            quiet_config(**{**good, "initial_state": StateVector(1.0, 1.0)})

    @pytest.mark.filterwarnings("ignore::unsharp_monitor.trajectory.SeriesBoundWarning")
    def test_coarse_spacing_warns(self):
        with pytest.warns(TimeResolutionWarning):
            TrajectoryConfig(
                params=PovmParams.from_p0_dp(0.5, 0.01),
                tau=0.01,
                n_per_series=25,
                m_series=10,
            )

    def test_violated_bound_warns(self):
        with pytest.warns(SeriesBoundWarning, match="violated"):
            TrajectoryConfig(
                params=PovmParams.from_p0_dp(0.5, -0.3),
                tau=0.002,
                n_per_series=25,
                m_series=10,
            )

    def test_loose_bound_warns(self):
        with pytest.warns(SeriesBoundWarning, match="loosely"):
            TrajectoryConfig(params=FIG3_PARAMS, tau=0.002, n_per_series=25, m_series=10)

    def test_warnings_name_the_calling_line(self):
        # both warnings used to point into the dataclass-generated __init__
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            TrajectoryConfig(
                params=PovmParams.from_p0_dp(0.5, -0.3),
                tau=0.01,
                n_per_series=25,
                m_series=10,
            )
        assert {w.category for w in record} == {TimeResolutionWarning, SeriesBoundWarning}
        assert all(w.filename == __file__ for w in record)

    def test_comfortable_bound_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            TrajectoryConfig(
                params=PovmParams.from_p0_dp(0.5, 0.01),
                tau=0.002,
                n_per_series=25,
                m_series=10,
            )

    def test_delta_t_and_regime_attached(self):
        cfg = quiet_config(params=FIG3_PARAMS, tau=0.002, n_per_series=25, m_series=10)
        assert cfg.delta_t == pytest.approx(0.05, abs=1e-15)
        assert cfg.regime.nbound_ratio == pytest.approx(0.604, abs=1e-3)


class TestSimulateStep:
    """Single steps: one N-series of length one."""

    def test_symmetric_params_reduce_to_pure_evolution(self):
        cfg = quiet_config(
            params=PovmParams(0.3, 0.3), tau=0.01, n_per_series=1, m_series=1
        )
        state = StateVector(0.6, 0.8j)
        uniforms = np.random.default_rng(51).random(2000)
        after, plus_counts = restarted_series(state, cfg, uniforms)
        expected = evolve(state, 0.01, HamiltonianSpec())
        assert np.all(np.abs(after[:, 0] + 1j * after[:, 1] - expected.c1) < 1e-12)
        assert np.all(np.abs(after[:, 2] + 1j * after[:, 3] - expected.c2) < 1e-12)
        share = plus_counts.sum() / len(plus_counts)
        assert abs(share - 0.3) < 4 * math.sqrt(0.3 * 0.7 / 2000)

    def test_sharp_eigenstate_is_pinned(self):
        cfg = quiet_config(
            params=PovmParams(1.0, 0.0), tau=0.0, n_per_series=1, m_series=1
        )
        uniforms = np.random.default_rng(52).random(100)
        for kernel in KERNELS.values():
            c1, c2 = LEVEL_ONE.c1, LEVEL_ONE.c2
            for u in uniforms:
                c1, c2, _, n_plus = run_kernel(kernel, c1, c2, cfg, [u])
                assert n_plus == [1]
                assert c1 == 1.0 and c2 == 0.0

    def test_fixed_seed_reproduces_bitwise(self):
        state = StateVector(0.6, 0.8)
        cfg = quiet_config(
            params=FIG3_PARAMS, tau=0.002, n_per_series=1, m_series=1, initial_state=state
        )
        c2_sq, g2 = simulate_replicates(cfg, [53, 53])
        assert np.array_equal(c2_sq[0], c2_sq[1]) and np.array_equal(g2[0], g2[1])
        # the state the step leaves behind, which no public run returns
        runs = [
            run_kernel(trajectory._advance, state.c1, state.c2, cfg,
                       np.random.default_rng(53).random(1))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_dilation_engine_is_bitwise_the_meter_module(self):
        # the trajectory kernel inlines the measurement arithmetic; pin it
        # to the meter dilation exactly so the two cannot drift apart
        from unsharp_monitor.meter import dilate, measure_meter

        cfg = quiet_config(params=FIG3_PARAMS, tau=0.002, n_per_series=1, m_series=1)
        rng = np.random.default_rng(58)
        state = StateVector(0.6, 0.8)
        for _ in range(200):
            draws = rng.bit_generator.state
            u = rng.random(1)
            replay = np.random.default_rng()
            replay.bit_generator.state = draws
            evolved = evolve(state, cfg.tau, cfg.spec)
            module_outcome, module_state = measure_meter(
                dilate(evolved, cfg.params), replay
            )
            for kernel in KERNELS.values():
                c1, c2, _, n_plus = run_kernel(kernel, state.c1, state.c2, cfg, u)
                assert n_plus == [1 if module_outcome == "+" else 0]
                assert c1 == module_state.c1
                assert c2 == module_state.c2
            state = module_state


class TestSimulateNSeries:
    def test_single_step_reduction(self):
        # one step is evolve, then the direct operator update, bit for bit
        state = StateVector(0.6, 0.8)
        cfg = quiet_config(
            params=FIG3_PARAMS, tau=0.002, n_per_series=1, m_series=1,
            initial_state=state, seed=55,
        )
        u = np.random.default_rng(55).random()
        evolved = evolve(state, cfg.tau, cfg.spec)
        p_plus, _ = outcome_probabilities(evolved, FIG3_PARAMS)
        plus_op, minus_op = make_operations(FIG3_PARAMS)
        expected = apply_outcome(evolved, plus_op if u < p_plus else minus_op)
        count = 1 if u < p_plus else 0
        for kernel in KERNELS.values():
            c1, c2, _, n_plus = run_kernel(kernel, state.c1, state.c2, cfg, [u])
            assert (c1, c2) == (expected.c1, expected.c2)
            assert n_plus == [count]
        record = simulate_trajectory(cfg)
        assert record.c2_sq[0] == expected.c2_sq
        assert record.g2[0] == best_guess(count / cfg.n_per_series, FIG3_PARAMS)

    def test_symmetric_params_keep_exact_rabi_law(self):
        cfg = quiet_config(
            params=PovmParams(0.5, 0.5), tau=0.002, n_per_series=25, m_series=1, seed=56
        )
        record = simulate_trajectory(cfg)
        assert record.c2_sq[0] == pytest.approx(math.sin(math.pi * 0.05) ** 2, abs=1e-12)
        assert math.isnan(record.g2[0])

    def test_plus_counts_follow_closed_form(self):
        # immediate succession (tau = 0) from a fixed state: the count
        # distribution must match the exact expression
        params = PovmParams(0.46, 0.54)
        state = StateVector(0.6, 0.8)
        n = 6
        cfg = quiet_config(params=params, tau=0.0, n_per_series=n, m_series=1)
        reps = 20_000
        _, n_plus = restarted_series(state, cfg, np.random.default_rng(57).random(n * reps))
        counts = np.bincount(n_plus, minlength=n + 1)
        expected = np.array(
            [nseries_probability(state, params, n, k) for k in range(n + 1)]
        )
        result = stats.chisquare(counts, expected * reps)
        assert result.pvalue > 0.01


class TestSimulateTrajectory:
    def test_records_are_deterministic(self):
        cfg = quiet_config(params=FIG3_PARAMS, tau=0.002, n_per_series=25, m_series=50, seed=99)
        a = simulate_trajectory(cfg)
        b = simulate_trajectory(cfg)
        assert np.array_equal(a.c2_sq, b.c2_sq)
        assert np.array_equal(a.g2, b.g2)
        assert np.array_equal(a.t, b.t)
        assert a.config.seed == 99

    def test_sample_grid(self):
        cfg = quiet_config(params=FIG3_PARAMS, tau=0.002, n_per_series=25, m_series=40)
        record = simulate_trajectory(cfg)
        assert list(record.m) == list(range(1, 41))
        assert record.t[0] == pytest.approx(cfg.delta_t, abs=1e-15)
        steps = np.diff(record.t)
        assert np.max(np.abs(steps - cfg.delta_t)) < 1e-12

    def test_chains_series_across_the_block_boundary(self):
        # more series than one block of pre-drawn uniforms holds, against
        # the whole chain in one kernel call
        cfg = quiet_config(params=FIG3_PARAMS, tau=0.002, n_per_series=2, m_series=1100, seed=5)
        record = simulate_trajectory(cfg)
        uniforms = np.random.default_rng(5).random(cfg.m_series * 2).tolist()
        _, _, c2_sq, n_plus = chain_against_reference(cfg.initial_state, cfg, uniforms)
        assert np.array_equal(record.c2_sq, c2_sq)
        assert np.array_equal(
            record.g2, [reference_g2(count, 2, FIG3_PARAMS) for count in n_plus]
        )

    def test_populations_stay_physical_over_long_runs(self):
        # 1e5 measurements with renormalization after each one
        cfg = quiet_config(
            params=PovmParams.from_p0_dp(0.5, 0.01),
            tau=0.002,
            n_per_series=50,
            m_series=2000,
            seed=3,
        )
        record = simulate_trajectory(cfg)
        assert np.all(record.c2_sq >= -1e-12)
        assert np.all(record.c2_sq <= 1.0 + 1e-12)

    def test_norm_maintained_through_long_series_chain(self):
        cfg = quiet_config(
            params=FIG3_PARAMS, tau=0.002, n_per_series=50, m_series=1, seed=0
        )
        uniforms = np.random.default_rng(12).random(2000 * 50)  # 1e5 measurements
        c1, c2 = LEVEL_ONE.c1, LEVEL_ONE.c2
        for start in range(0, len(uniforms), 50):
            series = uniforms[start : start + 50]
            c1, c2, _, _ = run_kernel(trajectory._advance, c1, c2, cfg, series)
            assert abs(StateVector(c1, c2).norm_sq - 1.0) <= 1e-9

    def test_zeno_pinning_with_projective_measurements(self):
        # sharp measurements at tau = 0.002 freeze the ground state: the
        # chance of leaving the lower level within one Rabi period is small
        params = PovmParams.from_p0_dp(0.5, 1.0)
        left = 0
        runs = 200
        for seed in range(runs):
            cfg = quiet_config(
                params=params, tau=0.002, n_per_series=25, m_series=20, seed=seed
            )
            record = simulate_trajectory(cfg)
            left += bool(np.any(record.c2_sq >= 0.1))
        assert left / runs < 0.2

    def test_rabi_regime_peak_matches_drive_frequency(self):
        # fuzziness 62.8: the population curve oscillates at the Rabi
        # frequency; its spectral peak must sit within 5 percent
        cfg = quiet_config(
            params=PovmParams.from_p0_dp(0.5, 0.01),
            tau=0.002,
            n_per_series=25,
            m_series=60,
            seed=8,
        )
        record = simulate_trajectory(cfg)
        peak = main_peak(power_spectrum(record.c2_sq, cfg.delta_t))
        omega_r = 2 * math.pi
        assert abs(peak.frequency / omega_r - 1.0) < 0.05

    def test_rabi_regime_follows_undisturbed_law(self):
        # weak measurements (fuzziness 62.8) leave the oscillation nearly
        # untouched over a few periods; representative fixed realization
        cfg = quiet_config(
            params=PovmParams.from_p0_dp(0.5, 0.01),
            tau=0.002,
            n_per_series=25,
            m_series=60,
            seed=7,
        )
        record = simulate_trajectory(cfg)
        undisturbed = np.sin(np.pi * record.t) ** 2
        assert np.max(np.abs(record.c2_sq - undisturbed)) < 0.15

    def test_jump_regime_dwells_at_poles(self):
        cfg = quiet_config(
            params=PovmParams.from_p0_dp(0.5, -0.3),
            tau=0.002,
            n_per_series=25,
            m_series=500,
            seed=4,
        )
        record = simulate_trajectory(cfg)
        dwell = np.mean((record.c2_sq <= 0.1) | (record.c2_sq >= 0.9))
        assert dwell >= 0.8
