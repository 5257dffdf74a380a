"""Helpers shared by the test modules: random inputs, drivers of the measurement
kernel, and ``needs_cc`` for tests that expect the compiled library.

``run_kernel`` and ``chain_against_reference`` run a kernel from raw
amplitudes and hand back the state it leaves behind, which the public
``simulate_replicates`` does not; ``restarted_series`` runs many series
from one fixed state, as the statistical tests sample them.
"""

import math
import re
import shutil
import warnings

import numpy as np
import pytest

from unsharp_monitor import _kernel, trajectory
from unsharp_monitor.povm import (
    DegenerateOutcomeError,
    PovmParams,
    StateVector,
    apply_outcome,
    make_operations,
    outcome_probabilities,
)
from unsharp_monitor.rabi import evolve
from unsharp_monitor.trajectory import (
    _ZERO_NORM,
    TrajectoryConfig,
    _compiled_advance,
    _constants,
    _python_advance,
)

CC = _kernel.compiler()
needs_cc = pytest.mark.skipif(
    not (CC and shutil.which(CC[0])),
    reason=f"no C compiler: {CC[0]!r} is not on PATH" if CC else "no C compiler: sysconfig names none",
)

# the compiled kernel joins every comparison wherever it loaded;
# test_compiled_kernel_is_in_use fails when a compiler is there and it did not
KERNELS = {"python": _python_advance}
if trajectory._KERNEL is not None:
    KERNELS["compiled"] = _compiled_advance


def quiet_config(**kwargs) -> TrajectoryConfig:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return TrajectoryConfig(**kwargs)


def random_state(rng) -> StateVector:
    drawn = StateVector(complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal()))
    norm = math.sqrt(drawn.norm_sq)
    return StateVector(drawn.c1 / norm, drawn.c2 / norm)


def random_params(rng) -> PovmParams:
    return PovmParams(rng.uniform(), rng.uniform())


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


def reference_chain(state, config, uniforms):
    """Whole series through the reference functions: (c1, c2, c2_sq list, n_plus list)."""
    n = config.n_per_series
    c2_sq, n_plus = [], []
    for start in range(0, len(uniforms), n):
        state, count = reference_series(state, config, uniforms[start : start + n])
        c2_sq.append(state.c2_sq)
        n_plus.append(count)
    return state.c1, state.c2, c2_sq, n_plus


def reference_g2(count, n, params):
    return (count / n - params.p1) / params.dp if params.dp != 0.0 else math.nan


def run_kernel(kernel, c1, c2, config, uniforms):
    """Whole series through ``kernel`` from raw amplitudes, as a one-row call:
    (c1, c2, c2_sq list, n_plus list)."""
    amplitudes = np.array([[c1.real, c1.imag, c2.real, c2.imag]], dtype=float)
    series = len(uniforms) // config.n_per_series
    c2_sq, n_plus = np.empty((1, series)), np.empty((1, series), dtype=np.int64)
    kernel(
        amplitudes, _constants(config), config.n_per_series,
        np.asarray(uniforms, dtype=float)[None], c2_sq, n_plus,
    )
    ar, ai, br, bi = amplitudes[0].tolist()
    return complex(ar, ai), complex(br, bi), c2_sq[0].tolist(), n_plus[0].tolist()


def chain_against_reference(state, config, uniforms):
    """Every kernel and the reference over the same uniforms.

    Returns the common (c1, c2, c2_sq, n_plus), or None when the
    reference and every kernel raise DegenerateOutcomeError.
    """
    try:
        expected = reference_chain(state, config, uniforms)
    except DegenerateOutcomeError:
        for kernel in KERNELS.values():
            with pytest.raises(DegenerateOutcomeError, match=rf"^{re.escape(_ZERO_NORM)}$"):
                run_kernel(kernel, state.c1, state.c2, config, uniforms)
        return None
    for kernel in KERNELS.values():
        assert run_kernel(kernel, state.c1, state.c2, config, uniforms) == expected
    return expected


def restarted_series(state, config, uniforms):
    """Series after series through the kernel in use, each one from ``state``.

    Series i reads ``uniforms[i * n : (i + 1) * n]``, so one
    ``rng.random(n * reps)`` gives the draws of ``reps`` successive
    ``rng.random(n)`` calls.  The series are the rows of one kernel call,
    one series each.  Returns the amplitudes (Re c1, Im c1, Re c2, Im c2)
    each series leaves behind, one row per series, and the "+" counts.
    """
    n = config.n_per_series
    series = len(uniforms) // n
    amplitudes = np.empty((series, 4))
    amplitudes[:] = (state.c1.real, state.c1.imag, state.c2.real, state.c2.imag)
    c2_sq, n_plus = np.empty((series, 1)), np.empty((series, 1), dtype=np.int64)
    trajectory._advance(
        amplitudes, _constants(config), n, np.reshape(uniforms[: series * n], (series, n)),
        c2_sq, n_plus,
    )
    return amplitudes, n_plus[:, 0]
