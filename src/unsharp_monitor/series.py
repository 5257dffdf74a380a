"""Closed-form statistics of N-series of repeated unsharp measurements.

An N-series bundles N identical measurements; the retained outcome is the
relative frequency r = n_plus / N of "+" results.  Because the operations
commute, the statistics of n_plus and the post-series state depend only on
the count, not the order.  This module provides the exact distribution and
its moments, the linear best-guess estimator of the upper-level population,
the fidelity cost of a series, and the derived time scales (level
resolution time, fuzziness) plus the validity bound on the series length
under interleaved driving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .povm import ParameterError, PovmParams, StateVector, _abs2, ensure_normalized

MAX_SERIES_LENGTH = 64


def _validate_series_args(n: int, n_plus: int | None = None) -> None:
    if not 1 <= n <= MAX_SERIES_LENGTH:
        raise ParameterError(
            f"series length n = {n} must lie in [1, {MAX_SERIES_LENGTH}]"
        )
    if n_plus is not None and not 0 <= n_plus <= n:
        raise ParameterError(f"n_plus = {n_plus} must lie in [0, {n}]")


def nseries_effect(params: PovmParams, n: int, n_plus: int) -> tuple[float, float]:
    """Diagonal entries (e1, e2) of the effect for count ``n_plus`` in ``n``.

    Entry i is the binomial weight C(n, n_plus) p_i^n_plus (1-p_i)^(n-n_plus);
    summing over n_plus gives 1 for each level.  Binomial coefficients are
    exact integers for n <= 64.
    """
    _validate_series_args(n, n_plus)
    weight = math.comb(n, n_plus)
    e1 = weight * params.p1**n_plus * (1.0 - params.p1) ** (n - n_plus)
    e2 = weight * params.p2**n_plus * (1.0 - params.p2) ** (n - n_plus)
    return e1, e2


def nseries_probability(
    state: StateVector, params: PovmParams, n: int, n_plus: int
) -> float:
    """Probability of observing ``n_plus`` "+" results in an N-series."""
    ensure_normalized(state)
    e1, e2 = nseries_effect(params, n, n_plus)
    return e1 * _abs2(state.c1) + e2 * _abs2(state.c2)


def fidelity(params: PovmParams, n: int, state: StateVector) -> float:
    """Overlap fidelity between a state and the outcome mixture after N measurements.

    F = sqrt(1 - 2 |c1|^2 |c2|^2 (1 - b)) with
    b = (sqrt(p1 p2) + sqrt((1-p1)(1-p2)))^n.  F = 1 for p1 == p2, and it
    decreases toward the projective value sqrt(1 - 2 |c1|^2 |c2|^2) as n
    grows whenever p1 != p2.
    """
    ensure_normalized(state)
    if n < 1:
        raise ParameterError(f"series length n = {n} must be >= 1")
    base = math.sqrt(params.p1 * params.p2) + math.sqrt(
        (1.0 - params.p1) * (1.0 - params.p2)
    )
    b = base**n
    q1 = _abs2(state.c1)
    q2 = _abs2(state.c2)
    return math.sqrt(1.0 - 2.0 * q1 * q2 * (1.0 - b))


def best_guess(r: float, params: PovmParams) -> float:
    """Linear estimate (r - p1) / dp of the upper-level population.

    Anchored so that r = p1 maps to 0 and r = p2 maps to 1.  The value is
    not clamped to [0, 1]; for weak measurements single readouts scatter
    far outside that interval.
    """
    if params.dp == 0.0:
        raise ParameterError("best guess is undefined for p1 == p2 (dp = 0)")
    return (r - params.p1) / params.dp


def expectation_r(state: StateVector, params: PovmParams) -> float:
    """Expected relative frequency of "+" results; independent of the length."""
    ensure_normalized(state)
    return params.p1 * _abs2(state.c1) + params.p2 * _abs2(state.c2)


def variance_r(state: StateVector, params: PovmParams, n: int) -> float:
    """Variance of the relative frequency over one N-series.

    The first term, |c1|^2 |c2|^2 dp^2, survives as n -> infinity: it is the
    quantum uncertainty of which level the state will be pushed toward.  The
    second, binomial term shrinks as 1/n.
    """
    ensure_normalized(state)
    if n < 1:
        raise ParameterError(f"series length n = {n} must be >= 1")
    q1 = _abs2(state.c1)
    q2 = _abs2(state.c2)
    spread = q1 * q2 * params.dp**2
    binomial = (q1 * params.p1 * (1.0 - params.p1) + q2 * params.p2 * (1.0 - params.p2)) / n
    return spread + binomial


def sigma_g2(state: StateVector, params: PovmParams, n: int) -> float:
    """Standard deviation of the best guess: sigma(r) / |dp|."""
    if params.dp == 0.0:
        raise ParameterError("best-guess deviation is undefined for p1 == p2 (dp = 0)")
    return math.sqrt(variance_r(state, params, n)) / abs(params.dp)


def _three_dp_squared(params: PovmParams) -> float:
    """3 dp^2 for dp != 0; it underflows to 0 for |dp| below about 1e-154."""
    denominator = 3.0 * params.dp**2
    if denominator == 0.0:
        raise ParameterError(
            f"level resolution is unbounded: 3 dp^2 underflows to 0 at dp = {params.dp!r}"
        )
    return denominator


def min_n_level_resolution(params: PovmParams) -> int:
    """Smallest series length that resolves the two levels.

    Resolving means a worst-case best-guess variance below one, which
    requires n >= 4 p0 (1 - p0) / (3 dp^2) + 4/9; the bound is rounded up
    to the next integer.
    """
    numerator = 4.0 * params.p0 * (1.0 - params.p0)
    if params.dp == 0.0:
        if numerator == 0.0:
            return 1
        raise ParameterError("level resolution is unbounded for p1 == p2 (dp = 0)")
    return math.ceil(numerator / _three_dp_squared(params) + 4.0 / 9.0)


def level_resolution_time(params: PovmParams, tau: float) -> float:
    """Measurement time needed to discriminate the levels, tau * 4 p0 (1-p0) / (3 dp^2)."""
    if tau < 0.0:
        raise ParameterError(f"tau = {tau!r} must be >= 0")
    numerator = 4.0 * params.p0 * (1.0 - params.p0)
    if params.dp == 0.0:
        if numerator == 0.0:
            return 0.0
        raise ParameterError("level resolution time is unbounded for p1 == p2 (dp = 0)")
    return tau * numerator / _three_dp_squared(params)


def fuzziness(t_lr: float, t_r: float) -> float:
    """Fuzziness measure 3 pi t_lr / t_r comparing measurement to driving.

    Values well below one mean the measurement dominates (quantum jumps),
    values well above one mean the driving dominates (undisturbed Rabi
    oscillations with a noisy readout); around one the readout tracks the
    oscillations.
    """
    if t_r <= 0.0:
        raise ParameterError(f"t_r = {t_r!r} must be > 0")
    return 3.0 * math.pi * t_lr / t_r


class NBoundResult(NamedTuple):
    """Evaluation of the series-length bound under interleaved driving."""

    rhs: float
    ratio: float
    satisfied: bool


def nbound(params: PovmParams, tau: float, t_r: float, n: int) -> NBoundResult:
    """Check (n - 1)^2 against the commutator-accumulation bound.

    rhs = max(u1_plus, u2_minus) / (2 max(|u2_plus - u1_plus|,
    |u2_minus - u1_minus|)) * t_r / (pi tau); the approximation behind the
    best guess needs ratio = (n - 1)^2 / rhs well below one.  ``satisfied``
    reports ratio < 1; callers may want to warn already above 0.25.  For
    p1 == p2 (or tau == 0) the operations commute with the evolution, the
    bound is vacuous and rhs is reported as infinity.
    """
    if n < 1:
        raise ParameterError(f"series length n = {n} must be >= 1")
    if tau < 0.0:
        raise ParameterError(f"tau = {tau!r} must be >= 0")
    if t_r <= 0.0:
        raise ParameterError(f"t_r = {t_r!r} must be > 0")
    gap = max(
        abs(params.u2_plus - params.u1_plus),
        abs(params.u2_minus - params.u1_minus),
    )
    if gap == 0.0 or tau == 0.0:
        return NBoundResult(math.inf, 0.0, True)
    rhs = max(params.u1_plus, params.u2_minus) / (2.0 * gap) * t_r / (math.pi * tau)
    if rhs == 0.0:
        # p1 = 0, p2 = 1: a single measurement accumulates nothing, any
        # longer series violates the bound outright
        ratio = 0.0 if n == 1 else math.inf
    else:
        ratio = (n - 1) ** 2 / rhs
    return NBoundResult(rhs, ratio, ratio < 1.0)


@dataclass(frozen=True)
class RegimeParams:
    """Derived time scales and bound diagnostics for one measurement setup."""

    tau: float
    t_r: float
    t_lr: float
    f: float
    n_min: int
    nbound_rhs: float
    nbound_ratio: float

    @property
    def nbound_tier(self) -> str:
        """'ok' (ratio <= 0.25), 'loose' (< 1), or 'violated' (>= 1)."""
        if self.nbound_ratio >= 1.0:
            return "violated"
        if self.nbound_ratio > 0.25:
            return "loose"
        return "ok"


def evaluate_regime(
    params: PovmParams, tau: float, n_per_series: int, t_r: float = 1.0
) -> RegimeParams:
    """Bundle level resolution time, fuzziness, minimal n and the n-bound."""
    t_lr = level_resolution_time(params, tau)
    bound = nbound(params, tau, t_r, n_per_series)
    return RegimeParams(
        tau=tau,
        t_r=t_r,
        t_lr=t_lr,
        f=fuzziness(t_lr, t_r),
        n_min=min_n_level_resolution(params),
        nbound_rhs=bound.rhs,
        nbound_ratio=bound.ratio,
    )
