"""Rate extraction: exact recovery, window rules, fallbacks, bootstrap."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shakenbec.errors import (
    BootstrapUnstableError,
    DomainError,
    InsufficientDataError,
)
from shakenbec.fitting import (
    BootstrapRate,
    DecayTrace,
    FitMethod,
    FitResult,
    TraceKind,
    bootstrap_rate,
    fit_decay_rate,
    fit_exponential,
    fit_linear_fallback,
    windowed_log_slope,
)


DECAYS = TraceKind.CONDENSED_FRACTION


def exp_trace(rate=2.0, amp=1.0, t_max=1.0, n=50, kind=TraceKind.CONDENSED_FRACTION):
    t = np.linspace(0.0, t_max, n)
    sign = -1.0 if kind is TraceKind.CONDENSED_FRACTION else 1.0
    return DecayTrace(t, amp * np.exp(sign * rate * t), kind)


# ------------------------------------------------------------- validation


def test_trace_validation():
    with pytest.raises(DomainError):
        DecayTrace(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(DomainError):
        DecayTrace(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(DomainError):
        DecayTrace(np.array([0.0]), np.array([1.0]))
    with pytest.raises(DomainError):
        DecayTrace(np.array([0.0, 1.0, 1.0]), np.ones(3))  # repeated time
    with pytest.raises(DomainError):
        DecayTrace(np.array([0.0, 2.0, 1.0]), np.ones(3))  # non-monotone
    with pytest.raises(DomainError):
        DecayTrace(np.array([0.0, 1.0]), np.array([1.0, np.nan]))
    with pytest.raises(DomainError):
        DecayTrace(np.array([0.0, 1.0]), np.array([1.0, -0.1]))
    tr = DecayTrace([0.0, 1.0], [1.0, 0.0])  # zeros and list input are fine
    assert tr.values.dtype == np.float64


# ------------------------------------------------------- exponential fit


def test_exact_exponential_recovery():
    tr = exp_trace(rate=2.5, amp=0.8)
    res = fit_exponential(tr)
    assert res.rate == pytest.approx(2.5, rel=1e-10)
    assert res.amplitude == pytest.approx(0.8, rel=1e-10)
    assert res.method is FitMethod.EXPONENTIAL
    assert res.r_squared == pytest.approx(1.0, abs=1e-12)
    assert res.stderr == pytest.approx(0.0, abs=1e-9)
    assert res.warning is None


def test_exact_growth_recovery():
    tr = exp_trace(rate=3.0, amp=2.0, kind=TraceKind.MODE_OCCUPATION)
    res = fit_exponential(tr)
    assert res.rate == pytest.approx(3.0, rel=1e-10)
    assert res.warning is None
    # a growing trace never leaves its half window
    assert res.n_points == tr.times.size


def test_half_window_selection():
    t = np.arange(8.0)
    y = np.array([1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3])
    res = fit_linear_fallback(DecayTrace(t, y))
    assert res.window == (0.0, 5.0)  # y = 0.5 = y0/2 is still inside
    assert res.n_points == 6
    res = fit_exponential(DecayTrace(t, y))
    assert res.n_points == 6


def test_too_few_samples_in_window():
    t = np.arange(6.0)
    y = np.array([1.0, 0.8, 0.6, 0.4, 0.2, 0.1])  # only 3 above half
    with pytest.raises(InsufficientDataError):
        fit_exponential(DecayTrace(t, y))
    # the linear fallback only needs two
    res = fit_linear_fallback(DecayTrace(t, y))
    assert res.method is FitMethod.LINEAR_FALLBACK
    with pytest.raises(InsufficientDataError):
        fit_linear_fallback(DecayTrace([0.0, 1.0], [1.0, 0.3]))


def test_zero_start_rejected():
    tr = DecayTrace(np.arange(4.0), np.array([0.0, 1.0, 1.0, 1.0]))
    with pytest.raises(InsufficientDataError):
        fit_exponential(tr)
    with pytest.raises(InsufficientDataError):
        fit_linear_fallback(tr)


def test_sign_convention_warnings():
    growing = exp_trace(rate=-1.0)  # condensed fraction going up
    res = fit_exponential(growing)
    assert res.rate == pytest.approx(-1.0, rel=1e-10)
    assert res.warning is not None and "grows" in res.warning
    shrinking = exp_trace(rate=-1.0, kind=TraceKind.MODE_OCCUPATION)
    res = fit_exponential(shrinking)
    assert res.rate == pytest.approx(-1.0, rel=1e-10)
    assert res.warning is not None and "decays" in res.warning


def test_linear_fallback_rate_convention():
    # y = y0 (1 - r t) has initial fractional slope r, matching the
    # exponential convention at early times
    t = np.linspace(0.0, 1.0, 20)
    y = 2.0 * (1.0 - 0.4 * t)
    res = fit_linear_fallback(DecayTrace(t, y))
    assert res.rate == pytest.approx(0.4, rel=1e-10)
    assert res.amplitude == pytest.approx(2.0, rel=1e-10)
    assert res.warning is not None and "fallback" in res.warning


def test_dispatcher_prefers_exponential():
    res = fit_decay_rate(exp_trace(rate=1.5))
    assert res.method is FitMethod.EXPONENTIAL


def test_dispatcher_falls_back_on_bad_r2():
    t = np.arange(10.0)
    y = np.where(np.arange(10) % 2 == 0, 1.3, 0.7)  # oscillates, no trend
    res = fit_decay_rate(DecayTrace(t, y))
    assert res.method is FitMethod.LINEAR_FALLBACK
    assert abs(res.rate) < 0.05


@given(
    rate=st.floats(min_value=0.05, max_value=0.7),
    amp=st.floats(min_value=1e-3, max_value=1e3),
    scale=st.floats(min_value=0.1, max_value=10.0),
    shift=st.floats(min_value=-5.0, max_value=5.0),
)
@settings(max_examples=60, deadline=None)
def test_fit_invariances(rate, amp, scale, shift):
    t = np.linspace(0.0, 1.0, 40)
    y = amp * np.exp(-rate * t)
    base = fit_exponential(DecayTrace(t, y))
    assert base.rate == pytest.approx(rate, rel=1e-8)
    # shifting the clock or rescaling the amplitude leaves the rate alone
    shifted = fit_exponential(DecayTrace(t + shift, y))
    assert shifted.rate == pytest.approx(base.rate, rel=1e-8)
    scaled = fit_exponential(DecayTrace(t, scale * y))
    assert scaled.rate == pytest.approx(base.rate, rel=1e-8)
    assert scaled.amplitude == pytest.approx(scale * base.amplitude, rel=1e-8)
    # stretching time divides the rate
    stretched = fit_exponential(DecayTrace(scale * t, y))
    assert stretched.rate == pytest.approx(base.rate / scale, rel=1e-8)


def test_noisy_exponential_reasonable():
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 1.0, 200)
    y = np.exp(-2.0 * t) * np.exp(rng.normal(0.0, 0.01, t.size))
    res = fit_decay_rate(DecayTrace(t, y))
    assert res.method is FitMethod.EXPONENTIAL
    assert res.rate == pytest.approx(2.0, rel=0.05)
    assert res.stderr > 0.0


# --------------------------------------------------- windowed log slope


def test_windowed_slope_exact():
    period = 0.25
    t = period * np.arange(21)
    tr = DecayTrace(t, 1e-6 * np.exp(3.0 * t), TraceKind.MODE_OCCUPATION)
    res = windowed_log_slope(tr, window_cycles=5, period=period)
    assert res.rate == pytest.approx(3.0, rel=1e-10)
    assert res.method is FitMethod.WINDOWED_LOG_SLOPE
    assert res.window == (15 * period, 20 * period)
    assert res.n_points == 6
    # a window longer than the trace just uses everything
    res = windowed_log_slope(tr, window_cycles=100, period=period)
    assert res.n_points == 21


def test_windowed_slope_zero_mode():
    t = 0.25 * np.arange(10)
    tr = DecayTrace(t, np.zeros(10), TraceKind.MODE_OCCUPATION)
    res = windowed_log_slope(tr, window_cycles=4, period=0.25)
    assert res.rate == 0.0
    assert res.warning is not None and "non-positive" in res.warning


def test_windowed_slope_validation():
    tr = exp_trace()
    with pytest.raises(DomainError):
        windowed_log_slope(tr, window_cycles=0, period=1.0)
    with pytest.raises(DomainError):
        windowed_log_slope(tr, window_cycles=2, period=0.0)
    sparse = DecayTrace([0.0, 10.0], [1.0, 1.0], TraceKind.MODE_OCCUPATION)
    with pytest.raises(InsufficientDataError):
        windowed_log_slope(sparse, window_cycles=1, period=1.0)


# -------------------------------------------------------------- bootstrap


def test_bootstrap_exact_on_shared_rate():
    # different amplitudes, same rate: every resample mean is exactly
    # exponential, so the band collapses
    t = np.linspace(0.0, 1.0, 30)
    traces = np.stack([a * np.exp(-2.0 * t) for a in (0.5, 1.0, 2.0, 4.0)])
    boot = bootstrap_rate(t, traces, DECAYS, fit_exponential, n_resamples=50, seed=3)
    assert boot.mean == pytest.approx(2.0, rel=1e-10)
    assert boot.std == pytest.approx(0.0, abs=1e-10)
    assert boot.n_failed == 0
    assert not boot.degenerate


def test_bootstrap_deterministic_in_seed():
    rng = np.random.default_rng(11)
    t = np.linspace(0.0, 1.0, 30)
    traces = np.stack([
        np.exp(-r * t)
        for r in rng.uniform(1.5, 2.5, size=8)
    ])
    a = bootstrap_rate(t, traces, DECAYS, fit_exponential, n_resamples=100, seed=7)
    b = bootstrap_rate(t, traces, DECAYS, fit_exponential, n_resamples=100, seed=7)
    assert (a.mean, a.std, a.n_failed) == (b.mean, b.std, b.n_failed)
    c = bootstrap_rate(t, traces, DECAYS, fit_exponential, n_resamples=100, seed=8)
    assert c.mean != a.mean
    assert a.std > 0.0


def test_bootstrap_degenerate_cases():
    t = np.linspace(0.0, 1.0, 30)
    single = np.exp(-2.0 * t)[None]
    boot = bootstrap_rate(t, single, DECAYS, fit_exponential, n_resamples=50, seed=0)
    assert boot.degenerate
    assert boot.std == 0.0
    two = np.concatenate([single, 2.0 * single])
    boot = bootstrap_rate(t, two, DECAYS, fit_exponential, n_resamples=1, seed=0)
    assert boot.degenerate


def test_bootstrap_failure_accounting():
    t = np.linspace(0.0, 1.0, 30)
    traces = np.stack([np.exp(-2.0 * t)] * 4)
    calls = [0]

    def mostly_fine(trace):
        calls[0] += 1
        if calls[0] % 7 == 0:
            raise InsufficientDataError("synthetic failure")
        return fit_exponential(trace)

    boot = bootstrap_rate(t, traces, DECAYS, mostly_fine, n_resamples=100, seed=0)
    assert boot.n_failed == 14  # every 7th of 100 calls
    assert boot.mean == pytest.approx(2.0, rel=1e-10)

    def always_fails(trace):
        raise InsufficientDataError("synthetic failure")

    with pytest.raises(BootstrapUnstableError):
        bootstrap_rate(t, traces, DECAYS, always_fails, n_resamples=100, seed=0)


def test_bootstrap_input_validation():
    t = np.linspace(0.0, 1.0, 10)
    tr = np.exp(-t)[None]
    with pytest.raises(InsufficientDataError):
        bootstrap_rate(t, np.empty((0, t.size)), DECAYS, fit_exponential)
    with pytest.raises(DomainError):
        bootstrap_rate(t, tr, DECAYS, fit_exponential, n_resamples=0)
    # rows must sample the given times: one trace per row, len(times) columns
    with pytest.raises(DomainError):
        bootstrap_rate(t[1:], tr, DECAYS, fit_exponential)
    with pytest.raises(DomainError):
        bootstrap_rate(t, tr[0], DECAYS, fit_exponential)
    # every row is checked as a trace is: here, a negative sample
    with pytest.raises(DomainError):
        bootstrap_rate(t, np.concatenate([tr, -tr]), DECAYS, fit_exponential)


def test_bootstrap_result_type():
    t = np.linspace(0.0, 1.0, 10)
    boot = bootstrap_rate(t, np.stack([np.exp(-t)] * 3), DECAYS, fit_exponential,
                          n_resamples=10, seed=1)
    assert isinstance(boot, BootstrapRate)
    assert boot.std >= 0.0


# -------------------------------------------------- rate path, bit for bit

# Every field of every estimator, pinned to the last bit on traces that
# exercise each branch: the half window, both sign conventions, each
# warning text, the zero-rate window, the fallback and failed resamples.
T = np.linspace(0.0, 2.0, 21)
WIGGLE = 1.0 + 0.05 * np.sin(7.0 * T)
DECAY = DecayTrace(T, 0.8 * np.exp(-0.9 * T) * WIGGLE)
LINEAR_DOWN = DecayTrace(T, 1.0 - 0.3 * T * WIGGLE)
PINNED_EXP = FitResult(0.8352561819220221, 1.0139179026009035, 0.04309520237525898,
                       FitMethod.EXPONENTIAL, 0.9892768748715735, (0.0, 0.7000000000000001), 8)
PINNED_LIN = FitResult(0.9958883128942976, 0.29272421263758047, 0.004841823762658686,
                       FitMethod.LINEAR_FALLBACK, 0.9956416340438382, (0.0, 1.7000000000000002), 18,
                       "rate from linear fallback")


def test_fits_pinned_bit_for_bit():
    grows = DecayTrace(T, 0.8 * np.exp(0.3 * T) * WIGGLE)
    assert fit_exponential(DECAY) == PINNED_EXP
    assert fit_exponential(grows) == FitResult(
        0.8072184340077179, -0.294394378414475, 0.013184151891499544,
        FitMethod.EXPONENTIAL, 0.9632923092646408, (0.0, 2.0), 21,
        "trace grows against its sign convention",
    )
    assert fit_linear_fallback(LINEAR_DOWN) == PINNED_LIN
    assert fit_linear_fallback(DecayTrace(T, 1.0 + 0.4 * T * WIGGLE)) == FitResult(
        0.9976766044948832, -0.4031106718496277, 0.006380315730285446,
        FitMethod.LINEAR_FALLBACK, 0.9952627413620634, (0.0, 2.0), 21,
        "rate from linear fallback; trace runs against its sign convention",
    )
    assert fit_decay_rate(DECAY) == PINNED_EXP
    # no trend: the log-space R^2 is far below 0.9, so the fallback's fit exactly
    flat = DecayTrace(T, WIGGLE)
    assert fit_exponential(flat).r_squared < 0.9
    assert fit_decay_rate(flat) == fit_linear_fallback(flat)


def test_windowed_slope_pinned_bit_for_bit():
    kind = TraceKind.MODE_OCCUPATION
    window = (1.4000000000000001, 2.0)
    growth = DecayTrace(T, 0.01 * np.exp(1.3 * T) * WIGGLE, kind)
    assert windowed_log_slope(growth, 3, 0.2) == FitResult(
        0.058555474040299864, 1.44578976772639, 0.044662028571851344,
        FitMethod.WINDOWED_LOG_SLOPE, 0.9952513585404104, window, 7,
    )
    fading = DecayTrace(T, 0.5 * np.exp(-0.7 * T) * WIGGLE, kind)
    assert windowed_log_slope(fading, 3, 0.2) == FitResult(
        0.17803810217199786, -0.5542102322736099, 0.04466202857185142,
        FitMethod.WINDOWED_LOG_SLOPE, 0.9685500553741628, window, 7,
        "trace decays against its sign convention",
    )
    assert fit_exponential(fading) == FitResult(
        0.5115643531986439, -0.7407972406382133, 0.03239839738995933,
        FitMethod.EXPONENTIAL, 0.9830769603671781, (0.0, 1.0), 11,
        "trace decays against its sign convention",
    )
    unseeded = DecayTrace(T, np.where(T > 1.5, 0.0, 0.01 * WIGGLE), kind)
    assert windowed_log_slope(unseeded, 3, 0.2) == FitResult(
        0.0, 0.0, 0.0, FitMethod.WINDOWED_LOG_SLOPE, 0.0, window, 7,
        "non-positive samples in window; rate set to zero",
    )


def test_bootstrap_pinned_bit_for_bit():
    # the 30/s member leaves too few samples in the half window of
    # resamples that draw it three or more times: 17 of 200 fail
    traces = np.stack([
        np.exp(-r * T) * (1.0 + 0.05 * np.sin(w * T))
        for r, w in ((0.5, 3.0), (0.6, 5.0), (0.45, 7.0), (0.55, 4.0), (30.0, 2.0))
    ])
    assert bootstrap_rate(T, traces, DECAYS, fit_exponential, n_resamples=200, seed=4) == (
        BootstrapRate(0.8430526436264296, 0.39476407966515775, 17, False)
    )
    growth = np.stack([
        0.01 * np.exp(r * T) * (1.0 + 0.05 * np.sin(w * T))
        for r, w in ((1.2, 3.0), (1.4, 5.0), (1.3, 6.0))
    ])
    fitter = lambda tr: windowed_log_slope(tr, 3, 0.2)
    assert bootstrap_rate(T, growth, TraceKind.MODE_OCCUPATION, fitter,
                          n_resamples=50, seed=9) == (
        BootstrapRate(1.238404027349856, 0.0350296592583559, 0, False)
    )
