"""The measurement kernel against the reference functions, bit for bit, and its speed.

``trajectory._advance`` steps on four real components instead of complex
amplitudes, and on two (Re c1, Im c2) for a state in the drive's plane.
These tests replay the same uniforms through ``rabi.evolve``,
``povm.outcome_probabilities`` and ``povm.apply_outcome`` and demand exact
equality on both routes, so any change to the kernel's arithmetic fails
here first.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unsharp_monitor import (
    DegenerateOutcomeError,
    HamiltonianSpec,
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


signed_zero = st.sampled_from([0.0, -0.0])


@st.composite
def in_plane_states(draw):
    """Im c1 and Re c2 exactly zero, of either sign: the two-float route's states."""
    a, b = draw(component), draw(component)
    norm = math.sqrt(a * a + b * b)
    assume(norm > 1e-3)
    return StateVector(
        complex(a / norm, draw(signed_zero)), complex(draw(signed_zero), b / norm)
    )


def in_plane(state) -> bool:
    return state.c1.imag == 0.0 and state.c2.real == 0.0


def series_against_reference(state, p1, p2, tau, n, seed):
    """One series through the kernel and the reference on the same uniforms.

    Returns the kernel's state after the series, or None when both sides
    raise DegenerateOutcomeError.
    """
    # TrajectoryConfig rejects 0 < |dp| below ~1e-154, where 3 dp^2
    # underflows to 0, so no kernel runs there
    assume(p1 == p2 or abs(p2 - p1) > 1e-150)
    params = PovmParams(p1, p2)
    config = quiet_config(params=params, tau=tau, n_per_series=n, m_series=1)
    uniforms = np.random.default_rng(seed).random(n).tolist()
    try:
        expected, count = reference_series(state, config, uniforms)
    except DegenerateOutcomeError:
        with pytest.raises(DegenerateOutcomeError):
            simulate_nseries(state, config, np.random.default_rng(seed))
        return None
    after, series = simulate_nseries(state, config, np.random.default_rng(seed))
    assert series.n_plus == count
    assert after.c1 == expected.c1
    assert after.c2 == expected.c2
    assert same_float(series.g2, reference_g2(count, n, params))
    return after


@settings(max_examples=300, deadline=None)
@given(
    state=normalized_states(),
    p1=probability,
    p2=probability,
    tau=tau_value,
    seed=st.integers(0, 2**64 - 1),
)
def test_single_step_is_bitwise_the_reference(state, p1, p2, tau, seed):
    series_against_reference(state, p1, p2, tau, 1, seed)


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


@settings(max_examples=300, deadline=None)
@given(
    state=in_plane_states(),
    p1=probability,
    p2=probability,
    tau=tau_value,
    n=st.integers(1, 40),
    seed=st.integers(0, 2**64 - 1),
)
def test_in_plane_series_is_bitwise_the_reference(state, p1, p2, tau, n, seed):
    after = series_against_reference(state, p1, p2, tau, n, seed)
    assert after is None or in_plane(after)


@pytest.mark.parametrize("zero1, zero2", [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)])
def test_in_plane_trajectory_is_bitwise_the_reference(zero1, zero2):
    # a chain of series through simulate_trajectory, whose block-wise draws
    # match one rng.random(n) per series; every recorded |c2|^2 must agree
    params = PovmParams.from_p0_dp(0.5, 0.3)
    state = StateVector(complex(0.6, zero1), complex(zero2, -0.8))
    config = quiet_config(
        params=params, tau=0.013, n_per_series=25, m_series=12, initial_state=state, seed=99
    )
    record = simulate_trajectory(config)
    replay_rng = np.random.default_rng(config.seed)
    expected = state
    for m in range(config.m_series):
        expected, count = reference_series(
            expected, config, replay_rng.random(config.n_per_series).tolist()
        )
        assert record.c2_sq[m] == expected.c2_sq
        assert record.g2[m] == reference_g2(count, config.n_per_series, params)


@settings(max_examples=200, deadline=None)
@given(
    state=in_plane_states(),
    p1=probability,
    p2=probability,
    tau=tau_value,
    seed=st.integers(0, 2**64 - 1),
)
def test_evolution_and_outcomes_keep_the_plane_components_zero(state, p1, p2, tau, seed):
    # the invariant the two-float route relies on: exact zeros, not small ones
    params = PovmParams(p1, p2)
    plus_op, minus_op = make_operations(params)
    spec = HamiltonianSpec()
    for u in np.random.default_rng(seed).random(20).tolist():
        state = evolve(state, tau, spec)
        assert in_plane(state)
        p_plus, _ = outcome_probabilities(state, params)
        try:
            state = apply_outcome(state, plus_op if u < p_plus else minus_op)
        except DegenerateOutcomeError:
            return
        assert in_plane(state)


@pytest.mark.parametrize("c1", [1.0, 1j], ids=["in-plane", "general"])
def test_a_tie_reads_minus_on_both_routes(c1):
    # at tau = 0 the state |c1|^2 = 1 gives p_plus == p1 exactly; set p1 to
    # the uniform the kernel will draw, so u < p_plus is false by a tie
    (u,) = np.random.default_rng(5).random(1).tolist()
    config = quiet_config(params=PovmParams(u, 0.9), tau=0.0, n_per_series=1, m_series=1)
    state = StateVector(c1, 0.0)
    _, series = simulate_nseries(state, config, np.random.default_rng(5))
    assert series.n_plus == reference_series(state, config, [u])[1] == 0


# the golden test's complex initial state: off the plane, so the four-float route
GENERAL_STATE = {"c1": [0.6, 0.0], "c2": [0.48, 0.64]}


@pytest.mark.filterwarnings("ignore::unsharp_monitor.SeriesBoundWarning")
@pytest.mark.parametrize(
    "overrides", [{}, {"initial_state": GENERAL_STATE}], ids=["in-plane", "general"]
)
def test_kernel_speed_smoke(benchmark, overrides):
    # records the time per measurement; asserts only on the record
    config = load_run_config(
        preset="fig3", overrides={"m_series": 200, **overrides}
    ).trajectory
    record = benchmark.pedantic(simulate_trajectory, args=(config,), rounds=3, iterations=1)
    measurements = config.m_series * config.n_per_series
    if benchmark.stats is not None:
        benchmark.extra_info["ns_per_measurement"] = (
            benchmark.stats.stats.median / measurements * 1e9
        )
    assert record.c2_sq.shape == record.g2.shape == (200,)
    assert np.array_equal(record.g2, simulate_trajectory(config).g2)
