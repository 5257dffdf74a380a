"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single pass/fail line (visible with ``pytest -s`` or in captured
output).  Stochastic criteria use fixed seed sets so results are
reproducible.
"""

import functools
import itertools
import math

import numpy as np
import pytest

import unsharp_monitor.meter as meter
import unsharp_monitor.povm as povm
import unsharp_monitor.rabi as rabi
import unsharp_monitor.series as series
import unsharp_monitor.spectral as spectral
import unsharp_monitor.trajectory as trajectory
from unsharp_monitor.cli import main as cli_main
from unsharp_monitor.config import PRESETS

from helpers import random_state, restarted_series

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

SEEDS = range(10)
TAU = 0.002


def criterion(label):
    def decorator(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                result = func(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {label}: FAIL")
                raise
            print(f"[acceptance] {label}: PASS")
            return result

        return wrapper

    return decorator


def preset_config(name, seed) -> trajectory.TrajectoryConfig:
    data = PRESETS[name]
    return trajectory.TrajectoryConfig(
        params=povm.PovmParams.from_p0_dp(data["p0"], data["dp"]),
        tau=data["tau"],
        n_per_series=data["n_per_series"],
        m_series=data["m_series"],
        seed=seed,
    )


@criterion("1 fuzziness reproduction")
def test_criterion_1_fuzziness_of_published_parameter_sets():
    for dp, expected in ((-0.3, 0.07), (0.01, 62.8), (0.08, 0.98)):
        params = povm.PovmParams.from_p0_dp(0.5, dp)
        f = series.fuzziness(series.level_resolution_time(params, TAU), 1.0)
        assert f == pytest.approx(expected, rel=5e-3)


@criterion("2 dilation oracle equivalence")
def test_criterion_2_meter_dilation_matches_direct_description():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        state = random_state(rng)
        params = povm.PovmParams(rng.uniform(), rng.uniform())
        compound = meter.dilate(state, params)
        p_plus_direct, _ = povm.outcome_probabilities(state, params)
        assert abs(meter.meter_outcome_probability(compound) - p_plus_direct) <= 1e-12
        plus, minus = povm.make_operations(params)
        for outcome, op in (("+", plus), ("-", minus)):
            try:
                direct = povm.apply_outcome(state, op)
            except povm.DegenerateOutcomeError:
                continue
            via_meter = meter.project_onto_meter(compound, outcome)
            assert abs(via_meter.c1 - direct.c1) <= 1e-12
            assert abs(via_meter.c2 - direct.c2) <= 1e-12


def _enumerate_counts(state, params, n):
    plus, minus = povm.make_operations(params)
    probabilities = [0.0] * (n + 1)
    for outcomes in itertools.product((True, False), repeat=n):
        c1, c2 = state.c1, state.c2
        for is_plus in outcomes:
            op = plus if is_plus else minus
            c1 *= op.u1
            c2 *= op.u2
        probabilities[sum(outcomes)] += abs(c1) ** 2 + abs(c2) ** 2
    return probabilities


def _fidelity_from_mixture(params, n, state):
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


@criterion("3 exhaustive N-series enumeration")
def test_criterion_3_ordered_sequences_reproduce_closed_forms():
    rng = np.random.default_rng(333)
    for trial in range(50):
        state = random_state(rng)
        params = povm.PovmParams(rng.uniform(), rng.uniform())
        n = 1 + trial % 8
        enumerated = _enumerate_counts(state, params, n)
        for n_plus in range(n + 1):
            closed = series.nseries_probability(state, params, n, n_plus)
            assert abs(closed - enumerated[n_plus]) <= 1e-10
        assert abs(
            series.fidelity(params, n, state) - _fidelity_from_mixture(params, n, state)
        ) <= 1e-10


@criterion("4 estimator statistics")
def test_criterion_4_sampled_moments_match_closed_forms():
    params = povm.PovmParams.from_p0_dp(0.5, 0.08)
    state = povm.StateVector(0.6, 0.8)
    n = 25
    reps = 100_000
    config = trajectory.TrajectoryConfig(
        params=params, tau=0.0, n_per_series=n, m_series=1, initial_state=state
    )
    _, n_plus = restarted_series(state, config, 4444, reps)
    values = n_plus / n
    expected_mean = series.expectation_r(state, params)
    expected_var = series.variance_r(state, params, n)
    standard_error = math.sqrt(expected_var / reps)
    assert abs(values.mean() - expected_mean) <= 4 * standard_error
    assert values.var(ddof=1) == pytest.approx(expected_var, rel=0.05)


def _phase_aligned_max_deviation(t, c2_sq, n_grid=2048):
    phases = np.linspace(0.0, math.pi, n_grid, endpoint=False)
    fits = np.sin(math.pi * t[None, :] + phases[:, None]) ** 2
    return float(np.min(np.max(np.abs(c2_sq[None, :] - fits), axis=1)))


def _pearson(x, y):
    return float(np.corrcoef(x, y)[0, 1])


@criterion("5a quantum jump regime (fig1 preset)")
def test_criterion_5a_jump_regime_dwell_and_correlation():
    dwell, corr = [], []
    for seed in SEEDS:
        record = trajectory.simulate_trajectory(preset_config("fig1", seed))
        dwell.append(float(np.mean((record.c2_sq <= 0.1) | (record.c2_sq >= 0.9))))
        corr.append(_pearson(record.g2, record.c2_sq))
    assert np.median(dwell) >= 0.8
    assert np.median(corr) >= 0.6


@criterion("5b Rabi regime (fig2 preset)")
def test_criterion_5b_rabi_regime_is_undisturbed_but_unreadable():
    deviations, corr = [], []
    for seed in SEEDS:
        config = preset_config("fig2", seed)
        record = trajectory.simulate_trajectory(config)
        deviations.append(_phase_aligned_max_deviation(record.t, record.c2_sq))
        corr.append(_pearson(record.g2, record.c2_sq))
    assert np.median(deviations) < 0.15
    assert np.median(corr) < 0.2


@criterion("5c intermediate regime (fig3 preset)")
def test_criterion_5c_intermediate_regime_readout_tracks_state():
    peak_gaps, improvements = [], []
    for seed in SEEDS:
        config = preset_config("fig3", seed)
        record = trajectory.simulate_trajectory(config)
        dt = config.delta_t
        peak_g2 = spectral.main_peak(spectral.power_spectrum(record.g2, dt))
        peak_c2 = spectral.main_peak(spectral.power_spectrum(record.c2_sq, dt))
        peak_gaps.append(abs(peak_g2.index - peak_c2.index))
        _, processed = spectral.process_readout(record.g2, dt)
        improvements.append(
            _pearson(processed, record.c2_sq) - _pearson(record.g2, record.c2_sq)
        )
    assert np.median(peak_gaps) <= 2
    assert np.median(improvements) > 0.0


@criterion("6 commutator identity and series bound")
def test_criterion_6_commutator_identity_on_grid_and_bound_value():
    spec = rabi.HamiltonianSpec()
    p_values = np.linspace(0.025, 0.975, 20)
    tau_values = np.linspace(0.0005, 0.5, 20)
    for p1, tau in itertools.product(p_values, tau_values):
        plus, minus = povm.make_operations(povm.PovmParams(float(p1), float(1.0 - p1)))
        assert rabi.commutator_residual(plus, float(tau), spec) <= 1e-12
        assert rabi.commutator_residual(minus, float(tau), spec) <= 1e-12
    ratio = series.nbound(povm.PovmParams.from_p0_dp(0.5, 0.08), TAU, 1.0, 25).ratio
    assert ratio == pytest.approx(0.60, abs=0.01)


@criterion("7 measurement keeps the state plane")
def test_criterion_7_plane_preservation_and_its_breakdown():
    rng = np.random.default_rng(777)
    spec = rabi.HamiltonianSpec()
    for _ in range(1000):
        alpha = rng.uniform(0.0, 2.0 * math.pi)
        sign = 1 if rng.uniform() < 0.5 else -1
        state = povm.StateVector(
            math.cos(alpha / 2), sign * 1j * math.sin(alpha / 2)
        )
        params = povm.PovmParams(rng.uniform(), rng.uniform())
        plus, minus = povm.make_operations(params)
        inject_at = int(rng.integers(0, 100))
        injected = False
        for step in range(100):
            state = rabi.evolve(state, float(rng.uniform(0.0, 0.05)), spec)
            op = plus if rng.uniform() < 0.5 else minus
            try:
                state = povm.apply_outcome(state, op)
            except povm.DegenerateOutcomeError:
                break
            if not injected:
                assert abs(povm.bloch_vector(state)[0]) <= 1e-12
            if step == inject_at and not injected:
                y_before = povm.bloch_vector(state)[1]
                state = povm.unitary_disturbance(state, math.pi / 4)
                if abs(y_before) > 0.1:
                    assert abs(povm.bloch_vector(state)[0]) > 1e-3
                injected = True


@criterion("8 byte-identical artifacts")
def test_criterion_8_fixed_seed_reruns_are_byte_identical(tmp_path):
    for directory in ("first", "second"):
        code = cli_main([
            "simulate", "--preset", "fig3", "--seed", "42",
            "--out-dir", str(tmp_path / directory),
        ])
        assert code == 0
    first = (tmp_path / "first" / "trajectory.csv").read_bytes()
    second = (tmp_path / "second" / "trajectory.csv").read_bytes()
    assert first == second


@criterion("sweep fuzziness columns (fig captions)")
def test_sweep_preset_landscape(tmp_path):
    code = cli_main([
        "sweep", "--p0", "0.5", "--dp", "0.01,0.08,0.3", "--tau", str(TAU),
        "--n", "25", "--m", "150", "--seed", "9", "--seeds-per-point", "10",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    rows = []
    header = None
    for line in (tmp_path / "sweep.csv").read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    fs = [float(row["f"]) for row in rows]
    assert fs[0] == pytest.approx(62.8, rel=5e-3)
    assert fs[1] == pytest.approx(0.98, rel=5e-3)
    assert fs[2] == pytest.approx(0.07, rel=5e-3)
    # readout correlation rises from the Rabi regime toward the
    # intermediate regime (median over 10 seeds per point)
    assert float(rows[1]["corr_raw"]) > float(rows[0]["corr_raw"])
