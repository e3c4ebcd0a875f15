"""Rate extraction from decay and growth traces.

The primary estimator fits log y against t by least squares over the
early-time window y(t) >= y(0)/2, mirroring how condensed-fraction
decay rates are extracted from experimental scans.  When the trace is
not exponential enough (log-space R^2 below R2_THRESHOLD) a linear
fallback reports the initial fractional slope instead.  Ensemble
uncertainties come from bootstrap resampling of whole realizations.
Whichever method fits, a rate against the trace's sign convention comes
with a warning instead of an error: "trace grows (decays) against its
sign convention", or the linear fallback's own warning with that note.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BootstrapUnstableError,
    DomainError,
    InsufficientDataError,
)

R2_THRESHOLD = 0.9  # log-space R^2 below which fit_decay_rate falls back to linear


class TraceKind(enum.Enum):
    """Sign convention: positive rate = decay for condensed fraction,
    growth for mode occupation."""

    CONDENSED_FRACTION = "condensed_fraction"
    MODE_OCCUPATION = "mode_occupation"


class FitMethod(enum.Enum):
    EXPONENTIAL = "exponential"
    LINEAR_FALLBACK = "linear_fallback"
    WINDOWED_LOG_SLOPE = "windowed_log_slope"


@dataclass(frozen=True)
class DecayTrace:
    """A sampled observable y(t) with its sign convention."""

    times: np.ndarray
    values: np.ndarray
    kind: TraceKind = TraceKind.CONDENSED_FRACTION

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        y = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", y)
        if t.ndim != 1 or y.shape != t.shape:
            raise DomainError("times and values must be 1D arrays of equal length")
        _check_samples(t, y)


def _check_samples(t: np.ndarray, y: np.ndarray) -> None:
    """DomainError unless times t rise strictly over two or more samples
    and every value in y is finite and non-negative."""
    if t.size < 2:
        raise DomainError("a trace needs at least two samples")
    if np.any(np.diff(t) <= 0.0):
        raise DomainError("times must be strictly increasing")
    if not np.all(np.isfinite(y)):
        raise DomainError("trace values must be finite")
    if np.any(y < 0.0):
        raise DomainError("trace values must be non-negative")


@dataclass(frozen=True)
class FitResult:
    """Extracted rate with its fit diagnostics.

    rate follows the trace's sign convention (positive = expected
    direction); amplitude is the fitted y at the window start.  warning
    is None for clean fits.
    """

    amplitude: float
    rate: float
    stderr: float
    method: FitMethod
    r_squared: float
    window: tuple[float, float]
    n_points: int
    warning: str | None = None


@dataclass(frozen=True)
class BootstrapRate:
    mean: float
    std: float
    n_failed: int
    degenerate: bool  # single trace or single resample: zero-width band


def _half_window(trace: DecayTrace) -> np.ndarray:
    y0 = trace.values[0]
    if not (y0 > 0.0) or not math.isfinite(y0):
        raise InsufficientDataError(
            f"trace must start positive to define the half window, got y(0) = {y0}"
        )
    return trace.values >= 0.5 * y0


def _lsq_line(t: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """Least-squares line fit returning slope, intercept, slope stderr, R^2."""
    n = t.size
    tm, ym = t.mean(), y.mean()
    dt, dy = t - tm, y - ym
    stt = float(np.dot(dt, dt))
    if stt == 0.0:
        raise InsufficientDataError("degenerate time window (all samples coincide)")
    slope = float(np.dot(dt, dy)) / stt
    intercept = ym - slope * tm
    resid = y - (slope * t + intercept)
    rss = float(np.dot(resid, resid))
    tss = float(np.dot(dy, dy))
    r2 = 1.0 if tss == 0.0 else 1.0 - rss / tss
    stderr = math.sqrt(rss / (n - 2) / stt) if n > 2 else 0.0
    return slope, intercept, stderr, r2


def _fit(trace: DecayTrace, mask: np.ndarray, method: FitMethod, min_points: int,
         too_few: str) -> FitResult:
    """The least-squares fit behind every method: a line through log y, or
    through y with the slope over y(0) for LINEAR_FALLBACK, over the
    samples in mask, its rate in the trace's sign convention.  Fewer than
    min_points samples raise InsufficientDataError(too_few.format(count)).
    """
    t, y = trace.times[mask], trace.values[mask]
    if t.size < min_points:
        raise InsufficientDataError(too_few.format(t.size))
    window, n_points = (float(t[0]), float(t[-1])), int(t.size)
    if method is FitMethod.WINDOWED_LOG_SLOPE and np.any(y <= 0.0):
        return FitResult(0.0, 0.0, 0.0, method, 0.0, window, n_points,
                         "non-positive samples in window; rate set to zero")
    linear = method is FitMethod.LINEAR_FALLBACK
    slope, intercept, stderr, r2 = _lsq_line(t, y if linear else np.log(y))
    scale = trace.values[0] if linear else 1.0  # x / 1.0 is exact
    decays = trace.kind is TraceKind.CONDENSED_FRACTION
    rate = (-slope if decays else slope) / scale
    amplitude = intercept + slope * t[0]
    warning = None
    if linear:
        warning = "rate from linear fallback" + (
            "" if rate >= 0.0 else "; trace runs against its sign convention")
    elif rate < 0.0:
        warning = f"trace {'grows' if decays else 'decays'} against its sign convention"
    return FitResult(amplitude if linear else math.exp(amplitude), rate,
                     stderr / scale, method, r2, window, n_points, warning)


def fit_exponential(trace: DecayTrace) -> FitResult:
    """Log-space least squares over the window y >= y(0)/2.

    Requires at least four positive samples in the window.
    """
    return _fit(trace, _half_window(trace) & (trace.values > 0.0),
                FitMethod.EXPONENTIAL, 4,
                "need >= 4 samples above half the initial value, got {}")


def fit_linear_fallback(trace: DecayTrace) -> FitResult:
    """Initial fractional slope |dy/dt| / y(0) over the half window.

    Used when the trace is too far from exponential for a log fit to
    mean anything; the reported rate matches the exponential convention
    at early times.
    """
    return _fit(trace, _half_window(trace), FitMethod.LINEAR_FALLBACK, 2,
                "need >= 2 samples above half the initial value, got {}")


def fit_decay_rate(trace: DecayTrace) -> FitResult:
    """Exponential fit, falling back to the linear estimator when the
    log-space R^2 drops below R2_THRESHOLD."""
    result = fit_exponential(trace)
    if result.r_squared < R2_THRESHOLD:
        return fit_linear_fallback(trace)
    return result


def windowed_log_slope(
    trace: DecayTrace, window_cycles: int, period: float
) -> FitResult:
    """Log slope over the trailing window_cycles * period of the trace.

    Intended for stroboscopic growth traces.  Non-positive samples in
    the window yield a zero rate with a warning instead of an error
    (unseeded modes simply never grow).
    """
    if window_cycles < 1:
        raise DomainError("window_cycles must be >= 1")
    if period <= 0.0:
        raise DomainError("period must be positive")
    t_end = trace.times[-1]
    mask = trace.times >= t_end - window_cycles * period - 1e-9 * period
    return _fit(trace, mask, FitMethod.WINDOWED_LOG_SLOPE, 2,
                f"window of {window_cycles} cycles holds {{}} samples")


def bootstrap_means(
    values: np.ndarray, n_resamples: int, rng: np.random.Generator
) -> np.ndarray:
    """Means of n_resamples bootstrap redraws of the rows of values
    ([rows, samples]): row b of the result averages len(values) rows
    drawn with replacement by the b-th rng.integers call."""
    n_rows = len(values)
    means = np.empty((n_resamples, values.shape[1]))
    for b in range(n_resamples):
        means[b] = values[rng.integers(0, n_rows, size=n_rows)].mean(axis=0)
    return means


def bootstrap_rate(
    times: np.ndarray,
    values: np.ndarray,
    kind: TraceKind,
    fitter: Callable[[DecayTrace], FitResult],
    n_resamples: int = 200,
    seed: int = 0,
) -> BootstrapRate:
    """Rate of the ensemble mean with a bootstrap-over-realizations error.

    values holds one trace of the given kind per row, sampled at times:
    shape (R, len(times)).  Each resample redraws whole rows with
    replacement, averages them, and fits the average.  Resamples whose
    fit raises are dropped; more than 20% failures aborts with
    BootstrapUnstableError.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or values.ndim != 2 or values.shape[1] != times.size:
        raise DomainError("values must be an array of shape (traces, len(times))")
    if not len(values):
        raise InsufficientDataError("bootstrap needs at least one trace")
    if n_resamples < 1:
        raise DomainError("n_resamples must be >= 1")
    _check_samples(times, values)

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    rates = []
    n_failed = 0
    for mean in bootstrap_means(values, n_resamples, rng):
        trace = DecayTrace(times, mean, kind)
        try:
            rates.append(fitter(trace).rate)
        except (InsufficientDataError, DomainError):
            n_failed += 1
    if n_failed > 0.2 * n_resamples:
        raise BootstrapUnstableError(
            f"{n_failed}/{n_resamples} bootstrap resamples failed to fit"
        )
    arr = np.array(rates)
    return BootstrapRate(
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        n_failed=n_failed,
        degenerate=(len(values) < 2 or n_resamples < 2),
    )
