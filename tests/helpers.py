"""Helpers shared by the test modules: random inputs, drivers of the measurement
kernel, and ``needs_cc`` for tests that expect the compiled library.

``run_kernel`` and ``chain_against_reference`` run a kernel from raw
amplitudes and hand back the state it leaves behind, which the public
``simulate_replicates`` does not; ``restarted_series`` runs many series
from one fixed state, as the statistical tests sample them.  A kernel
reads the draws of a seed: the Python loop ``_python_advance`` takes
numpy's uniforms, ``default_rng(seed).random(...)``, and a stream route
(``_compiled_advance``, ``_numpy_advance``) takes the PCG64 stream whose
draws those are (``seeded``).  ``python_route`` puts a test on the route
that runs without the library.
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
    _numpy_advance,
    _python_advance,
    _stream_words,
)

CC = _kernel.compiler()
needs_cc = pytest.mark.skipif(
    not (CC and shutil.which(CC[0])),
    reason=f"no C compiler: {CC[0]!r} is not on PATH" if CC else "no C compiler: sysconfig names none",
)
# the compiled routes are compared with the Python routes only where the
# library loaded; test_compiled_kernel_is_in_use fails when a compiler is
# there and it did not
needs_library = pytest.mark.skipif(
    trajectory._LIBRARY is None, reason="the compiled library did not load"
)

# the compiled kernel joins every comparison wherever it loaded;
# test_compiled_kernel_is_in_use fails when a compiler is there and it did not
KERNELS = {"python": _python_advance}
if trajectory._KERNEL is not None:
    KERNELS["compiled"] = _compiled_advance


def python_route(monkeypatch) -> None:
    """Run trajectories as they run without the library: numpy seeds each
    stream and draws its uniforms for the Python loop."""
    monkeypatch.setattr(trajectory, "_advance", _numpy_advance)
    monkeypatch.setattr(trajectory, "_SEED", None)


def streams_of(seed: int, rows: int = 1, draws: int = 0) -> np.ndarray:
    """``rows`` PCG64 streams, row r numpy's ``PCG64(seed)`` advanced by
    ``r * draws``: it draws what ``default_rng(seed).random((rows, draws))``
    puts in row r."""
    bit_generator, streams = np.random.PCG64(seed), []
    for _ in range(rows):
        streams.append(_stream_words(bit_generator.state["state"]))
        bit_generator.advance(draws)
    return np.array(streams, dtype=np.uint64).reshape(rows, 4)


def seeded(kernel, seed: int, rows: int, draws: int) -> np.ndarray:
    """What ``kernel`` reads for ``rows`` rows of ``draws`` uniforms each from
    ``default_rng(seed).random((rows, draws))``: those uniforms for the
    Python loop, and ``streams_of`` them for a stream route."""
    if kernel is _python_advance:
        return np.random.default_rng(seed).random((rows, draws))
    return streams_of(seed, rows, draws)


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


def run_kernel(kernel, c1, c2, config, draws):
    """``config.m_series`` series through ``kernel`` from raw amplitudes, as a
    one-row call on ``draws``, a 1-row array of uniforms for the Python loop
    or of one stream for a stream route, which it advances in place:
    (c1, c2, c2_sq list, n_plus list)."""
    amplitudes = np.array([[c1.real, c1.imag, c2.real, c2.imag]], dtype=float)
    series = config.m_series
    c2_sq, n_plus = np.empty((1, series)), np.empty((1, series), dtype=np.int64)
    kernel(amplitudes, _constants(config), config.n_per_series, draws, c2_sq, n_plus)
    ar, ai, br, bi = amplitudes[0].tolist()
    return complex(ar, ai), complex(br, bi), c2_sq[0].tolist(), n_plus[0].tolist()


def chain_against_reference(state, config, seed):
    """Every kernel and the reference over the uniforms of ``default_rng(seed)``.

    Returns the common (c1, c2, c2_sq, n_plus), or None when the
    reference and every kernel raise DegenerateOutcomeError.  A stream
    route must leave its stream where numpy's generator is after those draws.
    """
    count = config.n_per_series * config.m_series
    uniforms = np.random.default_rng(seed).random(count).tolist()
    try:
        expected = reference_chain(state, config, uniforms)
    except DegenerateOutcomeError:
        for kernel in KERNELS.values():
            with pytest.raises(DegenerateOutcomeError, match=rf"^{re.escape(_ZERO_NORM)}$"):
                run_kernel(kernel, state.c1, state.c2, config, seeded(kernel, seed, 1, count))
        return None
    for kernel in KERNELS.values():
        draws = seeded(kernel, seed, 1, count)
        assert run_kernel(kernel, state.c1, state.c2, config, draws) == expected
        if kernel is not _python_advance:
            assert draws.tolist() == streams_of(seed, 2, count)[1:].tolist()
    return expected


def restarted_series(state, config, seed, reps):
    """``reps`` series through the kernel in use, each one from ``state``.

    Series i reads draws ``i * n`` to ``(i + 1) * n - 1`` of
    ``default_rng(seed)``, the draws of the i-th of ``reps`` successive
    ``rng.random(n)`` calls: its stream is ``PCG64(seed)`` advanced by
    ``i * n``.  The series are the rows of one kernel call, one series
    each.  Returns the amplitudes (Re c1, Im c1, Re c2, Im c2) each series
    leaves behind, one row per series, and the "+" counts.
    """
    n = config.n_per_series
    amplitudes = np.empty((reps, 4))
    amplitudes[:] = (state.c1.real, state.c1.imag, state.c2.real, state.c2.imag)
    c2_sq, n_plus = np.empty((reps, 1)), np.empty((reps, 1), dtype=np.int64)
    trajectory._advance(amplitudes, _constants(config), n, streams_of(seed, reps, n), c2_sq, n_plus)
    return amplitudes, n_plus[:, 0]
