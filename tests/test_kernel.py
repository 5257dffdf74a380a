"""The measurement kernel against the reference functions, bit for bit, and its speed.

``trajectory._python_advance`` steps on four real components instead of
complex amplitudes, and ``trajectory._compiled_advance`` runs the same
loop compiled from ``_kernel.c``.  These tests replay the same uniforms
through both kernels and through ``rabi.evolve``,
``povm.outcome_probabilities`` and ``povm.apply_outcome`` and demand
exact equality, so any change to either kernel's arithmetic fails here
first.  They also drive the excursion and zero-norm checks of both
kernels, hold every row of a many-row call (the compiled loop at a width
of four lanes and, for the tail, of one) to the Python loop and every row
of ``simulate_replicates`` to the one-seed trajectory, stop a call at its
first failing row in a lane group or in the tail, run the rest of a
call through the Python loop from a group the compiled kernel stopped in
but the Python loop passes, and check that the compiled kernel is built
once, cached, and in use wherever a C compiler is.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import unsharp_monitor
from unsharp_monitor import _kernel, trajectory
from unsharp_monitor.povm import (
    DegenerateOutcomeError,
    ParameterError,
    PovmParams,
    StateError,
    StateVector,
    apply_outcome,
    make_operations,
    outcome_probabilities,
)
from unsharp_monitor.rabi import HamiltonianSpec, evolve
from unsharp_monitor.trajectory import (
    _ZERO_NORM,
    _compiled_advance,
    _constants,
    simulate_replicates,
    simulate_trajectory,
)
from unsharp_monitor.config import load_run_config

from helpers import (
    KERNELS,
    chain_against_reference,
    needs_cc,
    quiet_config,
    reference_g2,
    reference_series,
    run_kernel,
)


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
    """Im c1 and Re c2 exactly zero, of either sign: the drive's plane."""
    a, b = draw(component), draw(component)
    norm = math.sqrt(a * a + b * b)
    assume(norm > 1e-3)
    return StateVector(
        complex(a / norm, draw(signed_zero)), complex(draw(signed_zero), b / norm)
    )


def in_plane(state) -> bool:
    return state.c1.imag == 0.0 and state.c2.real == 0.0


def chain_config(p1, p2, tau, n, m_series=1, **kwargs):
    # TrajectoryConfig rejects 0 < |dp| below ~1e-154, where 3 dp^2
    # underflows to 0, so no kernel runs there
    assume(p1 == p2 or abs(p2 - p1) > 1e-150)
    return quiet_config(
        params=PovmParams(p1, p2), tau=tau, n_per_series=n, m_series=m_series, **kwargs
    )


def series_against_reference(state, p1, p2, tau, n, seed):
    """One series through both kernels, ``simulate_replicates`` and the reference.

    All run on the same uniforms.  Returns the state the series leaves
    behind, or None when every side raises DegenerateOutcomeError.
    """
    config = chain_config(p1, p2, tau, n, initial_state=state)
    uniforms = np.random.default_rng(seed).random(n).tolist()
    expected = chain_against_reference(state, config, uniforms)
    if expected is None:
        with pytest.raises(DegenerateOutcomeError):
            simulate_replicates(config, [seed])
        return None
    c1, c2, (after_c2_sq,), (count,) = expected
    c2_sq, g2 = simulate_replicates(config, [seed])
    assert c2_sq.tolist() == [[after_c2_sq]]
    assert same_float(g2[0, 0], reference_g2(count, n, config.params))
    return StateVector(c1, c2)


@settings(max_examples=300, deadline=None)
@given(
    state=normalized_states(),
    p1=probability,
    p2=probability,
    equal=st.booleans(),
    tau=tau_value,
    seed=st.integers(0, 2**64 - 1),
)
def test_single_step_is_bitwise_the_reference(state, p1, p2, equal, tau, seed):
    series_against_reference(state, p1, p1 if equal else p2, tau, 1, seed)


@settings(max_examples=150, deadline=None)
@given(
    state=st.one_of(normalized_states(), in_plane_states()),
    p1=probability,
    p2=probability,
    equal=st.booleans(),
    tau=tau_value,
    n=st.integers(1, 64),
    m_series=st.integers(1, 6),
    seed=st.integers(0, 2**64 - 1),
)
def test_series_chains_are_bitwise_the_reference(state, p1, p2, equal, tau, n, m_series, seed):
    # several series from one block of uniforms, as simulate_replicates
    # hands them to a kernel
    config = chain_config(p1, p1 if equal else p2, tau, n, m_series)
    uniforms = np.random.default_rng(seed).random(n * m_series).tolist()
    chain_against_reference(state, config, uniforms)


def test_series_chain_off_the_plane_is_bitwise_the_reference():
    # a general complex state (Bloch x far from 0) through several long
    # series, so every rotation and outcome branch is exercised
    params = PovmParams.from_p0_dp(0.5, 0.08)
    state = StateVector(0.6, 0.8 * complex(math.cos(0.4), math.sin(0.4)))
    config = quiet_config(
        params=params, tau=0.013, n_per_series=25, m_series=8, initial_state=state, seed=2024
    )
    coherence = state.c1.conjugate() * state.c2
    assert abs(2.0 * coherence.real) > 0.5
    uniforms = np.random.default_rng(2024).random(8 * config.n_per_series).tolist()
    _, _, c2_sq, n_plus = chain_against_reference(state, config, uniforms)
    record = simulate_trajectory(config)
    assert record.c2_sq.tolist() == c2_sq
    assert record.g2.tolist() == [
        reference_g2(count, config.n_per_series, params) for count in n_plus
    ]


@settings(max_examples=300, deadline=None)
@given(
    state=in_plane_states(),
    p1=probability,
    p2=probability,
    equal=st.booleans(),
    tau=tau_value,
    n=st.integers(1, 64),
    seed=st.integers(0, 2**64 - 1),
)
def test_in_plane_series_is_bitwise_the_reference(state, p1, p2, equal, tau, n, seed):
    after = series_against_reference(state, p1, p1 if equal else p2, tau, n, seed)
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
    uniforms = np.random.default_rng(config.seed).random(12 * 25).tolist()
    _, _, c2_sq, n_plus = chain_against_reference(state, config, uniforms)
    assert record.c2_sq.tolist() == c2_sq
    assert record.g2.tolist() == [reference_g2(count, 25, params) for count in n_plus]


@settings(max_examples=200, deadline=None)
@given(
    state=in_plane_states(),
    p1=probability,
    p2=probability,
    tau=tau_value,
    seed=st.integers(0, 2**64 - 1),
)
def test_evolution_and_outcomes_keep_the_plane_components_zero(state, p1, p2, tau, seed):
    """Driving and measuring keep Im c1 and Re c2 exact zeros, not small ones."""
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
    state = StateVector(c1, 0.0)
    config = quiet_config(
        params=PovmParams(u, 0.9), tau=0.0, n_per_series=1, m_series=1, initial_state=state, seed=5
    )
    record = simulate_trajectory(config)
    assert reference_series(state, config, [u])[1] == 0
    assert record.g2.tolist() == [reference_g2(0, 1, config.params)]
    for kernel in KERNELS.values():
        assert run_kernel(kernel, state.c1, state.c2, config, [u])[3] == [0]
    # the same tie in every lane of a full group
    _, g2 = simulate_replicates(config, [5] * 4)
    assert g2.tolist() == [[reference_g2(0, 1, config.params)]] * 4


# the golden test's complex initial state, off the drive's plane
GENERAL_STATE = {"c1": [0.6, 0.0], "c2": [0.48, 0.64]}


@pytest.mark.filterwarnings("ignore::unsharp_monitor.trajectory.SeriesBoundWarning")
@pytest.mark.parametrize(
    "overrides", [{}, {"initial_state": GENERAL_STATE}], ids=["in-plane", "general"]
)
def test_kernel_speed_smoke(benchmark, overrides):
    # records the time per measurement of the trajectory and of each
    # kernel on its own; asserts only on the records
    config = load_run_config(
        preset="fig3", overrides={"m_series": 200, **overrides}
    ).trajectory
    record = benchmark.pedantic(simulate_trajectory, args=(config,), rounds=3, iterations=1)
    measurements = config.m_series * config.n_per_series
    if benchmark.stats is not None:
        benchmark.extra_info["ns_per_measurement"] = (
            benchmark.stats.stats.median / measurements * 1e9
        )
    uniforms = np.random.default_rng(config.seed).random(measurements)
    state = config.initial_state
    for name, kernel in KERNELS.items():
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            _, _, c2_sq, _ = run_kernel(kernel, state.c1, state.c2, config, uniforms)
            seconds.append(time.perf_counter() - start)
        benchmark.extra_info[f"ns_per_measurement_{name}"] = (
            sorted(seconds)[1] / measurements * 1e9
        )
        assert c2_sq == record.c2_sq.tolist()
    assert record.c2_sq.shape == record.g2.shape == (200,)
    assert np.array_equal(record.g2, simulate_trajectory(config).g2)


def one_step(kernel, c1, c2, p1, p2):
    """One measurement from raw amplitudes: tau = 0, one series of one, u = 0.3."""
    config = quiet_config(params=PovmParams(p1, p2), tau=0.0, n_per_series=1, m_series=1)
    return run_kernel(kernel, complex(c1), complex(c2), config, [0.3])


# (c1, c2) pairs: the first of each is in the drive's plane, the second off it
@pytest.mark.parametrize(
    "c1, c2, shown",
    [(2.0, 0.0, "2.0"), (2 + 1e-3j, 1e-3, "2.000001"),
     (math.nan, 0.0, "nan"), (math.nan, 0.5 + 0.5j, "nan")],
    ids=["above-in-plane", "above-general", "nan-in-plane", "nan-general"],
)
def test_probability_excursions_raise(c1, c2, shown):
    # p_plus above 1 reads "+" and NaN reads "-" against u = 0.3, so this
    # reaches the check in each outcome branch
    message = rf"^p_plus = {shown} lies outside \[0, 1\] beyond float slack$"
    for kernel in KERNELS.values():
        with pytest.raises(StateError, match=message):
            one_step(kernel, c1, c2, 0.5, 0.5)


@pytest.mark.parametrize("c1", [1e-200, 1e-200 + 1e-200j], ids=["in-plane", "general"])
def test_zero_norm_raises_degenerate_outcome(c1):
    # |c1|^2 underflows, so p_plus = 0 reads "-", and sqrt(1 - p1) = 0
    # scales the state to the zero vector
    for kernel in KERNELS.values():
        with pytest.raises(DegenerateOutcomeError, match=rf"^{re.escape(_ZERO_NORM)}$"):
            one_step(kernel, c1, 0.0, 1.0, 0.5)


@pytest.mark.parametrize(
    "changed, error",
    [({"uniforms": np.zeros((1, 5))}, ValueError),
     ({"uniforms": np.zeros((1, 6), dtype=np.float32)}, ValueError),
     ({"n_plus": np.zeros((1, 2), dtype=np.int32)}, ValueError),
     ({"state": np.zeros((1, 3))}, ValueError),
     ({"state": np.zeros((2, 4))}, ValueError),
     ({"c2_sq": np.zeros(2), "n_plus": np.zeros(2, dtype=np.int64)}, ValueError),
     ({"c2_sq": np.zeros((1, 4))[:, ::2]}, TypeError)],
    ids=["short-uniforms", "float32-uniforms", "int32-counts", "short-state", "more-states",
         "flat-outputs", "strided-output"],
)
def test_compiled_kernel_checks_its_buffers(changed, error):
    # the C loop trusts its pointers, so a buffer of the wrong size, dtype
    # or layout must be refused before the call
    config = quiet_config(params=PovmParams(0.5, 0.5), tau=0.0, n_per_series=3, m_series=2)
    buffers = {
        "state": np.array([[1.0, 0.0, 0.0, 0.0]]), "constants": _constants(config),
        "uniforms": np.zeros((1, 6)), "c2_sq": np.zeros((1, 2)),
        "n_plus": np.zeros((1, 2), dtype=np.int64),
    }
    buffers.update(changed)
    with pytest.raises(error):
        _compiled_advance(n=3, **buffers)


def run_rows(kernel, states, config, uniforms, constants=None):
    """Rows of raw amplitudes through one ``kernel`` call: (state list,
    c2_sq, n_plus), or (state list, error) when the call raises.  Compare
    two results by ``repr``, which holds a NaN equal to a NaN."""
    state = np.array([[c.c1.real, c.c1.imag, c.c2.real, c.c2.imag] for c in states])
    series = uniforms.shape[1] // config.n_per_series
    c2_sq = np.empty((len(states), series))
    n_plus = np.empty((len(states), series), dtype=np.int64)
    if constants is None:
        constants = _constants(config)
    try:
        kernel(state, constants, config.n_per_series, uniforms, c2_sq, n_plus)
    except (StateError, DegenerateOutcomeError) as error:
        return state.tolist(), (type(error), str(error))
    return state.tolist(), c2_sq.tolist(), n_plus.tolist()


@settings(max_examples=100, deadline=None)
@given(
    states=st.lists(st.one_of(normalized_states(), in_plane_states()), min_size=1, max_size=9),
    p1=probability,
    p2=probability,
    tau=tau_value,
    n=st.integers(1, 30),
    m_series=st.integers(1, 4),
    seed=st.integers(0, 2**64 - 1),
)
def test_rows_of_a_call_are_bitwise_the_python_loop(states, p1, p2, tau, n, m_series, seed):
    # every row count from 1 to 9: no lane group, one, two, and tails of
    # every length; each row starts from its own state
    config = chain_config(p1, p2, tau, n, m_series)
    uniforms = np.random.default_rng(seed).random((len(states), n * m_series))
    results = [run_rows(kernel, states, config, uniforms) for kernel in KERNELS.values()]
    assert all(repr(result) == repr(results[0]) for result in results)
    if len(results[0]) == 3:  # no row raised: each row is its one-row call
        _, c2_sq, n_plus = results[0]
        for row, state in enumerate(states):
            alone = run_kernel(KERNELS["python"], state.c1, state.c2, config, uniforms[row].tolist())
            assert repr(alone[2:]) == repr((c2_sq[row], n_plus[row]))


# tau = 0, p1 = 1, p2 = 0: a measurement keeps |1> = (1, 0) on "+" and
# scales it to the zero vector on "-", which u >= 1 reads; a state of norm
# 2 gives p_plus = 4 and a NaN state p_plus = NaN, both excursions
LANE_CONFIG = {"params": PovmParams(1.0, 0.0), "tau": 0.0, "n_per_series": 3, "m_series": 2}
HEALTHY, LARGE, NOT_A_NUMBER = StateVector(1.0, 0.0), StateVector(2.0, 0.0), StateVector(math.nan, 0.0)


# the row of lane 0 of the failing lanes 2 and 3: of the first and the
# second group of a 10-row call, or 6, which puts them in its two tail
# rows, so that the loop at width one stops the call
@pytest.mark.parametrize("start", [0, 4, 6], ids=["first-group", "second-group", "tail"])
@pytest.mark.parametrize(
    "lane2, lane3, error, message",
    [
        # lane 3 fails at the first step, lane 2 only in the second series:
        # the row order, not the step, picks the error
        ("zero-late", "nan", DegenerateOutcomeError, re.escape(_ZERO_NORM)),
        ("large", "zero-late", StateError, r"p_plus = 4\.0 lies outside"),
        (None, "nan", StateError, r"p_plus = nan lies outside"),
        ("zero-late", None, DegenerateOutcomeError, re.escape(_ZERO_NORM)),
        ("large", None, StateError, r"p_plus = 4\.0 lies outside"),
    ],
    ids=["zero-before-nan", "large-before-zero", "nan-in-lane-3", "zero-in-lane-2",
         "large-in-lane-2"],
)
def test_a_failing_lane_raises_the_first_failing_row(start, lane2, lane3, error, message):
    config = quiet_config(**LANE_CONFIG)
    states = [HEALTHY] * 10
    uniforms = np.full((10, 6), 0.3)
    for lane, kind in ((2, lane2), (3, lane3)):
        row = start + lane
        if kind == "large":
            states[row] = LARGE
        elif kind == "nan":
            states[row] = NOT_A_NUMBER
        elif kind == "zero-late":
            # the call's last measurement, so no later step meets the NaN
            # that dividing by the zero norm leaves
            uniforms[row, 5] = 1.5
    results = [run_rows(kernel, states, config, uniforms) for kernel in KERNELS.values()]
    assert all(repr(result) == repr(results[0]) for result in results)
    after, (raised, text) = results[0]
    assert raised is error and re.match(message, text)
    # the rows before the failing one advanced, the others did not
    first = start + 2 if lane2 else start + 3
    assert repr(after) == repr([[1.0, 0.0, 0.0, 0.0]] * first + [
        [c.c1.real, c.c1.imag, c.c2.real, c.c2.imag] for c in states[first:]
    ])


def test_a_negative_p_plus_in_a_lane_is_an_excursion():
    # no PovmParams gives p1 < 0, so the constants are set by hand; |2>
    # gives p_plus = 0 and stays, (0.6, 0.8) gives p_plus = -0.36, which
    # reads "-", whose branch checks the lower bound, and keeps a nonzero norm
    config = quiet_config(**LANE_CONFIG)
    constants = _constants(config)
    constants[2] = -1.0
    uniforms = np.full((4, 6), 0.3)
    states = [StateVector(0.0, 1.0)] * 3 + [StateVector(0.6, 0.8)]
    results = [run_rows(kernel, states, config, uniforms, constants) for kernel in KERNELS.values()]
    assert all(repr(result) == repr(results[0]) for result in results)
    assert results[0][1] == (StateError, "p_plus = -0.36 lies outside [0, 1] beyond float slack")


def test_a_flagged_lane_that_passes_its_rerun_gives_the_python_loop():
    # p_plus = 2 lies above the slack, where the compiled kernel stops; u = 5
    # reads it as "-", and the Python loop tests a "-" only against the lower
    # bound, so the row passes and the first group, rerun there, must give
    # the Python loop's rows.  The rest of the call runs there too: the
    # second group and the tail row start from states of their own phases
    # and read their own uniforms, so they must also give the Python loop's rows
    config = quiet_config(**LANE_CONFIG)
    states = [HEALTHY] * 3 + [StateVector(math.sqrt(2.0), 0.5)] + [
        StateVector(0.6 * complex(math.cos(k), math.sin(k)), 0.8) for k in range(5)
    ]
    uniforms = np.full((9, 6), 0.3)
    uniforms[3, 0] = 5.0
    uniforms[4:] = np.random.default_rng(3).random((5, 6))
    results = [run_rows(kernel, states, config, uniforms) for kernel in KERNELS.values()]
    assert all(repr(result) == repr(results[0]) for result in results)
    assert len(results[0]) == 3 and results[0][2][3] == [0, 0]


@pytest.mark.filterwarnings("ignore::unsharp_monitor.trajectory.SeriesBoundWarning")
@pytest.mark.parametrize(
    "overrides", [{}, {"initial_state": GENERAL_STATE}], ids=["in-plane", "general"]
)
def test_replicates_are_the_one_seed_trajectories(overrides):
    # 1100 series cross the 1024-series block boundary of the uniform draws
    config = load_run_config(
        preset="fig3", overrides={"m_series": 1100, **overrides}
    ).trajectory
    seeds = [11, 0, 2**64 - 1]
    c2_sq, g2 = simulate_replicates(config, seeds)
    assert c2_sq.shape == g2.shape == (len(seeds), config.m_series)
    n = config.n_per_series
    state = config.initial_state
    for row, seed in enumerate(seeds):
        record = simulate_trajectory(replace(config, seed=seed))
        assert np.array_equal(c2_sq[row], record.c2_sq)
        assert np.array_equal(g2[row], record.g2)
        # the whole row in one call of each kernel, without blocks, and for
        # the first seed through the reference functions too
        uniforms = np.random.default_rng(seed).random(config.m_series * n).tolist()
        if row == 0:
            _, _, whole_c2_sq, whole_plus = chain_against_reference(state, config, uniforms)
        else:
            whole = [run_kernel(k, state.c1, state.c2, config, uniforms) for k in KERNELS.values()]
            assert all(result == whole[0] for result in whole)
            _, _, whole_c2_sq, whole_plus = whole[0]
        assert c2_sq[row].tolist() == whole_c2_sq
        assert g2[row].tolist() == [
            reference_g2(count, n, config.params) for count in whole_plus
        ]


@pytest.mark.filterwarnings("ignore::unsharp_monitor.trajectory.SeriesBoundWarning")
@pytest.mark.parametrize(
    "preset, overrides",
    [("fig1", {}), ("fig2", {}), ("fig3", {}), ("fig3", {"initial_state": GENERAL_STATE})],
    ids=["fig1", "fig2", "fig3", "general"],
)
def test_every_row_count_gives_the_one_seed_trajectories(preset, overrides):
    # 1..9 seeds: a lone tail row, tails of 2 and 3, one full group of four
    # lanes, and two groups with tails of 1
    config = load_run_config(preset=preset, overrides={"m_series": 60, **overrides}).trajectory
    seeds = [3, 2**64 - 1, 0, 41, 7, 12345, 99, 2**63, 5]
    alone = [simulate_trajectory(replace(config, seed=seed)) for seed in seeds]
    for rows in range(1, len(seeds) + 1):
        c2_sq, g2 = simulate_replicates(config, seeds[:rows])
        for row, record in enumerate(alone[:rows]):
            assert np.array_equal(c2_sq[row], record.c2_sq)
            assert np.array_equal(g2[row], record.g2)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_replicates_reject_seeds_outside_64_bits(seed):
    config = quiet_config(params=PovmParams(0.5, 0.5), tau=0.0, n_per_series=1, m_series=1)
    with pytest.raises(ParameterError, match=rf"^seed = {seed} must be a 64-bit unsigned"):
        simulate_replicates(config, [0, seed])


@needs_cc
def test_compiled_kernel_is_in_use():
    # with a compiler on PATH, a fallback to the Python loop is a failure
    assert trajectory._KERNEL is not None
    assert trajectory._KERNEL is trajectory._LIBRARY.um_advance_rows
    assert trajectory._advance is _compiled_advance
    assert _kernel.library_path().is_file()


# prints whether the compiled kernel is in use, whether the artifact floats
# are written by float.__repr__ and parsed by float(), whether the process
# computed the power-of-ten table, the cached library's path, the fig1
# preset's first |c2|^2 values, and those values as written in a JSON array
# and in CSV rows
PROBE = """
import json, sys, sysconfig, warnings
sys.path.insert(0, sys.argv[1])
if sys.argv[2] == "no-compiler":
    sysconfig.get_config_vars()["CC"] = "no-such-c-compiler"
from unsharp_monitor import _kernel
# one entry short at either end of the one table: the build fails its
# static assertion; the writer alone reads the top entries and the parser
# alone the bottom ones
if sys.argv[2] == "refused-tables":
    _kernel.POW10_MAX_Q -= 1
if sys.argv[2] == "refused-parse-table":
    _kernel.POW10_MIN_Q += 1
tables, pow10_table = [], _kernel.pow10_table
_kernel.pow10_table = lambda: tables.append(1) or pow10_table()
from unsharp_monitor import artifacts, trajectory
from unsharp_monitor.config import load_run_config
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    config = load_run_config(preset="fig1", overrides={"m_series": 50}).trajectory
c2_sq = trajectory.simulate_trajectory(config).c2_sq
print(json.dumps({
    "package": trajectory.__file__,
    "compiled": trajectory._advance is trajectory._compiled_advance,
    "python_writer": artifacts._WRITER is None,
    "python_rows": artifacts._PARSE is None,
    "table_computed": bool(tables),
    "library": str(_kernel.library_path()),
    "c2_sq": c2_sq.tolist(),
    "json": artifacts.dump_json(c2_sq),
    "rows": artifacts._csv_rows(range(1, len(c2_sq) + 1), c2_sq, -c2_sq),
}))
"""


def probe(root: Path, case: str = "") -> dict:
    """Run PROBE in a fresh interpreter on the package copy under ``root``;
    its printout, with what the interpreter wrote to stderr as ``"stderr"``."""
    proc = subprocess.run(
        [sys.executable, "-B", "-c", PROBE, str(root), case],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout)
    assert Path(result["package"]).parent == root / "unsharp_monitor"
    return {**result, "stderr": proc.stderr}


UNAVAILABLE = "warning: compiled library unavailable"


def expected_json(values: list[float]) -> str:
    return json.dumps(values, indent=2) + "\n"


def expected_rows(values: list[float]) -> str:
    return "".join(f"{m},{value!r},{-value!r}\n" for m, value in enumerate(values, start=1))


def package_copy(tmp_path: Path) -> Path:
    source = Path(unsharp_monitor.__file__).parent
    shutil.copytree(source, tmp_path / "unsharp_monitor", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def fig1_c2_sq() -> list[float]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = load_run_config(preset="fig1", overrides={"m_series": 50}).trajectory
    return simulate_trajectory(config).c2_sq.tolist()


@needs_cc
def test_a_second_interpreter_loads_the_cached_library(tmp_path):
    root = package_copy(tmp_path)
    cache = root / "unsharp_monitor" / "__pycache__"
    first = probe(root)
    assert first["compiled"] and not first["python_writer"] and not first["python_rows"]
    library = Path(first["library"])
    assert library.parent == cache
    built = library.stat()
    second = probe(root)
    assert second["compiled"] and second["library"] == first["library"]
    # only the build computes the table
    assert first["table_computed"] and not second["table_computed"]
    assert UNAVAILABLE not in first["stderr"] and UNAVAILABLE not in second["stderr"]
    again = library.stat()
    assert (again.st_ino, again.st_mtime_ns) == (built.st_ino, built.st_mtime_ns)
    # no temporary file is left beside the library
    assert os.listdir(cache) == [library.name]
    assert first["c2_sq"] == second["c2_sq"] == fig1_c2_sq()
    assert first["json"] == second["json"] == expected_json(first["c2_sq"])
    assert first["rows"] == second["rows"] == expected_rows(first["c2_sq"])


@needs_cc
def test_a_build_prunes_libraries_of_older_sources(tmp_path):
    root = package_copy(tmp_path)
    cache = root / "unsharp_monitor" / "__pycache__"
    old = probe(root)["library"]
    with open(root / "unsharp_monitor" / "_kernel.c", "a", encoding="utf-8") as source:
        source.write("/* an edit */\n")
    new = probe(root)
    assert new["compiled"] and new["library"] != old
    assert os.listdir(cache) == [Path(new["library"]).name]
    assert new["c2_sq"] == fig1_c2_sq()


# prints where the package under sys.argv[1] caches its library
KEY = """
import sys
sys.path.insert(0, sys.argv[1])
from unsharp_monitor import _kernel
print(_kernel.library_path())
"""


def test_an_edit_of_either_source_or_the_builder_changes_the_key(tmp_path):
    # _kernel.py holds the flags and writes the table the build compiles in
    root = package_copy(tmp_path)
    key = [sys.executable, "-B", "-c", KEY, str(root)]
    keys = [subprocess.run(key, capture_output=True, text=True, check=True).stdout]
    for name in ("_kernel.c", "_repr.c", "_kernel.py"):
        with open(root / "unsharp_monitor" / name, "a", encoding="utf-8") as source:
            source.write("\n")
        keys.append(subprocess.run(key, capture_output=True, text=True, check=True).stdout)
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize(
    "case, reason",
    [
        ("unwritable-cache", "(cannot write "),
        ("no-compiler", "(no C compiler: "),
        pytest.param("refused-tables", " could not build ", marks=needs_cc),
        pytest.param("refused-parse-table", " could not build ", marks=needs_cc),
    ],
    ids=["unwritable-cache", "no-compiler", "refused-tables", "refused-parse-table"],
)
def test_without_a_build_the_python_loop_runs(tmp_path, case, reason):
    root = package_copy(tmp_path)
    if case == "unwritable-cache":
        # a file where the cache directory should be: nothing can be written there
        (root / "unsharp_monitor" / "__pycache__").write_text("")
    result = probe(root, case)
    assert not result["compiled"]
    assert result["python_writer"] and result["python_rows"]
    assert not Path(result["library"]).is_file()
    # one line says so, and why, however many modules load the library
    assert result["stderr"].count(UNAVAILABLE) == 1 and reason in result["stderr"]
    assert result["c2_sq"] == fig1_c2_sq()
    assert result["json"] == expected_json(result["c2_sq"])
    assert result["rows"] == expected_rows(result["c2_sq"])
