"""The measurement kernel against the reference functions, bit for bit, and its speed.

``trajectory._advance`` steps on four real components instead of complex
amplitudes.  These tests replay the same uniforms through ``rabi.evolve``,
``povm.outcome_probabilities`` and ``povm.apply_outcome`` and demand exact
equality, so any change to the kernel's arithmetic fails here first.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unsharp_monitor import (
    DegenerateOutcomeError,
    PovmParams,
    StateVector,
    TrajectoryConfig,
    apply_outcome,
    evolve,
    make_operations,
    outcome_probabilities,
    simulate_nseries,
    simulate_trajectory,
)
from unsharp_monitor.config import load_run_config


def quiet_config(**kwargs) -> TrajectoryConfig:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return TrajectoryConfig(**kwargs)


def reference_series(state, config, uniforms):
    """One N-series through the reference functions: (state, "+" count)."""
    plus_op, minus_op = make_operations(config.params)
    count = 0
    for u in uniforms:
        state = evolve(state, config.tau, config.spec)
        p_plus, _ = outcome_probabilities(state, config.params)
        if u < p_plus:
            count += 1
        state = apply_outcome(state, plus_op if u < p_plus else minus_op)
    return state, count


def reference_g2(count, n, params):
    return (count / n - params.p1) / params.dp if params.dp != 0.0 else math.nan


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


component = st.floats(-1.0, 1.0, allow_nan=False)
probability = st.floats(0.0, 1.0)
tau_value = st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_min=True))


@st.composite
def normalized_states(draw):
    parts = [draw(component) for _ in range(4)]
    norm = math.sqrt(sum(x * x for x in parts))
    assume(norm > 1e-3)
    return StateVector(
        complex(parts[0], parts[1]) / norm, complex(parts[2], parts[3]) / norm
    )


@settings(max_examples=300, deadline=None)
@given(
    state=normalized_states(),
    p1=probability,
    p2=probability,
    tau=tau_value,
    seed=st.integers(0, 2**64 - 1),
)
def test_single_step_is_bitwise_the_reference(state, p1, p2, tau, seed):
    # TrajectoryConfig rejects 0 < |dp| below ~1e-154, where 3 dp^2
    # underflows to 0, so no kernel runs there
    assume(p1 == p2 or abs(p2 - p1) > 1e-150)
    params = PovmParams(p1, p2)
    config = quiet_config(params=params, tau=tau, n_per_series=1, m_series=1)
    (u,) = np.random.default_rng(seed).random(1).tolist()
    try:
        expected, count = reference_series(state, config, [u])
    except DegenerateOutcomeError:
        with pytest.raises(DegenerateOutcomeError):
            simulate_nseries(state, config, np.random.default_rng(seed))
        return
    after, series = simulate_nseries(state, config, np.random.default_rng(seed))
    assert series.n_plus == count
    assert after.c1 == expected.c1
    assert after.c2 == expected.c2
    assert same_float(series.g2, reference_g2(count, 1, params))


def test_series_chain_off_the_plane_is_bitwise_the_reference():
    # a general complex state (Bloch x far from 0) through several long
    # series, so every rotation and outcome branch is exercised
    params = PovmParams.from_p0_dp(0.5, 0.08)
    config = quiet_config(params=params, tau=0.013, n_per_series=25, m_series=1)
    state = StateVector(0.6, 0.8 * complex(math.cos(0.4), math.sin(0.4)))
    coherence = state.c1.conjugate() * state.c2
    assert abs(2.0 * coherence.real) > 0.5
    kernel_rng = np.random.default_rng(2024)
    replay_rng = np.random.default_rng(2024)
    expected = state
    for _ in range(8):
        state, series = simulate_nseries(state, config, kernel_rng)
        expected, count = reference_series(
            expected, config, replay_rng.random(config.n_per_series).tolist()
        )
        assert series.n_plus == count
        assert (state.c1, state.c2) == (expected.c1, expected.c2)
        assert series.g2 == reference_g2(count, config.n_per_series, params)


@pytest.mark.filterwarnings("ignore::unsharp_monitor.SeriesBoundWarning")
def test_kernel_speed_smoke(benchmark):
    # records the time per measurement; asserts only on the record
    config = load_run_config(preset="fig3", overrides={"m_series": 200}).trajectory
    record = benchmark.pedantic(simulate_trajectory, args=(config,), rounds=3, iterations=1)
    measurements = config.m_series * config.n_per_series
    if benchmark.stats is not None:
        benchmark.extra_info["ns_per_measurement"] = (
            benchmark.stats.stats.median / measurements * 1e9
        )
    assert record.c2_sq.shape == record.g2.shape == (200,)
    assert np.array_equal(record.g2, simulate_trajectory(config).g2)
