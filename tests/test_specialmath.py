"""Bessel evaluations and lattice band structure against independent oracles."""

import math
import re

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shakenbec.errors import ConvergenceError, DomainError
from shakenbec.specialmath import (
    ATOMIC_MASS_KG,
    MAX_ARGUMENT,
    MAX_ORDER,
    RB87_MASS_U,
    BandProblem,
    band_energy,
    bessel_j,
    bessel_j0_inverse,
    hopping_from_depth,
    j0_first_zero,
    recoil_frequency_hz,
)

# values frozen from scipy.special.jv / brentq at double precision
J0_AT_125 = 0.6459060852712853
J2_AT_125 = 0.17109113124052355
J0_FIRST_ZERO = 2.4048255576957724
J0_INV_028 = 1.9031294108288117


def test_frozen_bessel_values():
    assert bessel_j(0, 1.25) == pytest.approx(J0_AT_125, abs=1e-15)
    assert bessel_j(2, 1.25) == pytest.approx(J2_AT_125, abs=1e-15)
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(3, 0.0) == 0.0


def test_bessel_matches_scipy_grid():
    xs = np.linspace(0.0, MAX_ARGUMENT, 161)
    for n in (0, 1, 2, 3, 5, 8, 12, 20):
        for x in xs:
            ref = scipy.special.jv(n, x)
            assert bessel_j(n, float(x)) == pytest.approx(ref, abs=1e-12)


def test_bessel_integral_representation():
    # J_n(x) = (1/pi) int_0^pi cos(n tau - x sin tau) d tau
    for n, x in [(0, 0.7), (0, 5.3), (1, 2.0), (2, 1.25), (4, 7.1), (6, 8.0)]:
        val, err = scipy.integrate.quad(
            lambda tau: math.cos(n * tau - x * math.sin(tau)), 0.0, math.pi,
            limit=200,
        )
        assert err < 1e-8
        assert bessel_j(n, x) == pytest.approx(val / math.pi, abs=1e-8)


@given(
    n=st.integers(min_value=1, max_value=12),
    x=st.floats(min_value=0.05, max_value=MAX_ARGUMENT, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_bessel_recurrence(n, x):
    lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
    rhs = 2.0 * n / x * bessel_j(n, x)
    assert lhs == pytest.approx(rhs, abs=1e-10)


@given(
    n=st.integers(min_value=0, max_value=10),
    x=st.floats(min_value=0.0, max_value=MAX_ARGUMENT, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_bessel_parity(n, x):
    assert bessel_j(n, -x) == pytest.approx(((-1.0) ** n) * bessel_j(n, x), abs=1e-14)


@given(x=st.floats(min_value=0.0, max_value=MAX_ARGUMENT, allow_nan=False))
@example(x=MAX_ARGUMENT)
@settings(max_examples=40, deadline=None)
def test_bessel_sum_rules(x):
    # cos(x sin 0) = 1 = J0 + 2 sum_k J_{2k}; sum of squares is 1
    even_sum = bessel_j(0, x) + 2.0 * sum(bessel_j(2 * k, x) for k in range(1, 33))
    assert even_sum == pytest.approx(1.0, abs=1e-12)
    sq = bessel_j(0, x) ** 2 + 2.0 * sum(bessel_j(n, x) ** 2 for n in range(1, 52))
    assert sq == pytest.approx(1.0, abs=1e-12)


def test_bessel_domain_guards():
    with pytest.raises(DomainError):
        bessel_j(-1, 1.0)
    with pytest.raises(DomainError):
        bessel_j(MAX_ORDER + 1, 1.0)
    with pytest.raises(DomainError):
        bessel_j(0, MAX_ARGUMENT + 1.0)
    with pytest.raises(DomainError):
        bessel_j(0, math.nan)


def test_j0_first_zero():
    z = j0_first_zero()
    assert z == pytest.approx(J0_FIRST_ZERO, abs=1e-14)
    assert abs(bessel_j(0, z)) < 1e-14
    # scipy's tabulated zero
    assert z == pytest.approx(scipy.special.jn_zeros(0, 1)[0], abs=1e-12)


def test_j0_inverse_roundtrip_and_frozen():
    assert bessel_j0_inverse(0.28) == pytest.approx(J0_INV_028, abs=1e-12)
    for y in np.linspace(0.02, 1.0, 50):
        x = bessel_j0_inverse(float(y))
        assert 0.0 <= x < j0_first_zero() + 1e-12
        assert bessel_j(0, x) == pytest.approx(float(y), abs=1e-12)
    assert bessel_j0_inverse(1.0) == 0.0


ORACLE_YS = np.concatenate([
    np.linspace(1e-6, 1.0, 20001),
    1.0 - np.logspace(-16, -1, 300),
    np.logspace(-300, -1, 300),
    [1e-300, 1e-12, 1.0 - 1e-12, 1.0],
])


def test_j0_inverse_against_scipy_oracle():
    # one array call; every element meets the bound on its own
    zero = j0_first_zero()
    xs = bessel_j0_inverse(ORACLE_YS)
    assert np.all((0.0 <= xs) & (xs <= zero))
    err = np.abs(scipy.special.j0(xs) - ORACLE_YS)
    assert np.all(err <= 1e-15), (ORACLE_YS[err.argmax()], xs[err.argmax()])


def test_j0_inverse_raises_when_newton_stalls(monkeypatch):
    import shakenbec.specialmath as sm

    monkeypatch.setattr(sm, "bessel_j", lambda order, x: 0.5)
    with pytest.raises(ConvergenceError, match="Newton"):
        sm.bessel_j0_inverse(0.3)


def test_bessel_series_stall_names_order_and_x(monkeypatch):
    import shakenbec.specialmath as sm

    # two terms settle x = 0 but no x near 8; the first such |x| is named
    monkeypatch.setattr(sm, "_SERIES_TERMS", 3)
    with pytest.raises(ConvergenceError, match=r"stalled at order 2, x = 7\.5$"):
        sm.bessel_j(2, np.array([0.0, -7.5, 8.0]))


def test_j0_inverse_domain():
    for bad in (0.0, -0.3, 1.0 + 1e-9, math.nan):
        with pytest.raises(DomainError):
            bessel_j0_inverse(bad)


def test_j0_inverse_monotone_decreasing():
    ys = np.linspace(0.05, 0.999, 80)
    xs = [bessel_j0_inverse(float(y)) for y in ys]
    assert all(a > b for a, b in zip(xs, xs[1:]))


def test_recoil_frequency():
    # E_R = h / (8 m d^2) in Hz with d = lambda / 2
    mass = RB87_MASS_U * ATOMIC_MASS_KG
    er = recoil_frequency_hz(814e-9, mass)
    assert er == pytest.approx(3464.6747545361186, rel=1e-12)
    h = 6.62607015e-34
    d = 814e-9 / 2.0
    assert er == pytest.approx(h / (8.0 * mass * d * d), rel=1e-12)


def test_band_free_particle_limit():
    prob = BandProblem(0.0, 1.0, 15)
    for q in np.linspace(-math.pi, math.pi, 9):
        assert band_energy(prob, float(q)) == pytest.approx((q / math.pi) ** 2,
                                                            abs=1e-12)


@pytest.mark.parametrize("depth", [3.0, 11.0, 18.0, 25.0])
def test_band_edges_match_mathieu(depth):
    # sin^2 lattice maps onto the Mathieu equation with parameter V0/4;
    # the lowest band runs from a_0 + V0/2 (q=0) to b_1 + V0/2 (q=pi)
    prob = BandProblem(depth, 1.0, 25)
    qm = depth / 4.0
    e0 = scipy.special.mathieu_a(0, qm) + depth / 2.0
    epi = scipy.special.mathieu_b(1, qm) + depth / 2.0
    assert band_energy(prob, 0.0) == pytest.approx(e0, abs=1e-9)
    assert band_energy(prob, math.pi) == pytest.approx(epi, abs=1e-9)
    width = epi - e0
    assert hopping_from_depth(prob) == pytest.approx(width / 4.0, rel=1e-9)


def test_band_matches_dense_eigensolver():
    # independent construction: scipy eigh on a much larger plane-wave basis
    depth, cutoff = 11.0, 45
    prob = BandProblem(depth, 1.0, 13)
    n = np.arange(-cutoff, cutoff + 1)
    for q in (-math.pi, -1.1, 0.0, 0.37 * math.pi, math.pi):
        h = np.diag((q / math.pi + 2.0 * n) ** 2 + 0.5 * depth)
        off = np.full(2 * cutoff, -0.25 * depth)
        h += np.diag(off, 1) + np.diag(off, -1)
        ref = scipy.linalg.eigh(h, eigvals_only=True)[0]
        assert band_energy(prob, q) == pytest.approx(ref, abs=1e-10)


@given(
    depth=st.floats(min_value=0.0, max_value=25.0, allow_nan=False),
    q=st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_band_cutoff_convergence(depth, q):
    lo = band_energy(BandProblem(depth, 1.0, 9), q)
    hi = band_energy(BandProblem(depth, 1.0, 31), q)
    assert lo == pytest.approx(hi, abs=1e-8)


def test_band_domain_guards():
    prob = BandProblem(11.0, 1.0)
    with pytest.raises(DomainError):
        band_energy(prob, 3.5)
    with pytest.raises(DomainError):
        BandProblem(-1.0, 1.0)
    with pytest.raises(DomainError):
        BandProblem(11.0, 0.0)
    with pytest.raises(DomainError):
        BandProblem(11.0, 1.0, cutoff=3)


@pytest.mark.parametrize("depth, recoil, name", [
    (math.nan, 1.0, "depth_er"),
    (math.inf, 1.0, "depth_er"),
    (11.0, math.nan, "recoil_hz"),
    (11.0, math.inf, "recoil_hz"),
])
def test_band_problem_rejects_non_finite(depth, recoil, name):
    with pytest.raises(DomainError, match=f"{name} must be finite"):
        BandProblem(depth, recoil)


def test_hopping_from_published_depth():
    # 11 recoil lattice at 814 nm, rubidium-87: J very close to 50 Hz
    mass = RB87_MASS_U * ATOMIC_MASS_KG
    prob = BandProblem.from_physical(11.0, 814e-9, mass)
    j_hz = hopping_from_depth(prob)
    assert j_hz == pytest.approx(52.96343431830591, rel=1e-10)
    assert abs(j_hz - 50.0) / 50.0 < 0.08


def test_band_monotone_in_q():
    prob = BandProblem(8.0, 1.0)
    qs = np.linspace(0.0, math.pi, 21)
    es = [band_energy(prob, float(q)) for q in qs]
    assert all(b > a for a, b in zip(es, es[1:]))


# --------------------------------------- array kernels vs the scalar loops
#
# The loops below are the term-by-term scalar code that the masked array
# kernels replaced, kept as the bit-level reference: every element of an
# array call must reproduce them exactly.


def _loop_series(n, x):
    h = 0.5 * x
    term = 1.0
    for k in range(1, n + 1):
        term *= h / k
        if term == 0.0:
            return 0.0
    total = term
    hh = h * h
    for k in range(1, 200):
        term *= -hh / (k * (n + k))
        total += term
        if abs(term) <= 1e-17 * abs(total) + 1e-300:
            return total
    raise AssertionError("reference series stalled")


def _loop_bessel(n, x):
    ax = abs(x)
    if ax == 0.0:
        return 1.0 if n == 0 else 0.0
    val = _loop_series(n, ax)
    return -val if x < 0.0 and n % 2 == 1 else val


def _loop_j0_inverse(y):
    zero = j0_first_zero()
    x = min(2.0 * math.sqrt(1.0 - y), zero)
    for _ in range(30):
        residual = _loop_bessel(0, x) - y
        if abs(residual) <= math.ulp(1.0):
            break
        step = residual / _loop_bessel(1, x)
        x += step
        if abs(step) < 1e-15 * x:
            break
    else:
        raise AssertionError("reference Newton stalled")
    return min(max(x, 0.0), zero)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


BESSEL_XS = np.concatenate([
    np.linspace(-MAX_ARGUMENT, MAX_ARGUMENT, 401),
    np.random.default_rng(5).uniform(-MAX_ARGUMENT, MAX_ARGUMENT, 100),
    [0.0, -0.0, 5e-324, 1e-300, -1e-12, j0_first_zero(),
     np.nextafter(MAX_ARGUMENT, 0.0), -np.nextafter(MAX_ARGUMENT, 0.0),
     MAX_ARGUMENT, -MAX_ARGUMENT],
])


@pytest.mark.parametrize("n", range(MAX_ORDER + 1))
def test_array_bessel_bit_identical_to_scalar_loop(n):
    want = [_loop_bessel(n, float(x)) for x in BESSEL_XS]
    got = bessel_j(n, BESSEL_XS)
    assert got.shape == BESSEL_XS.shape
    assert np.array_equal(_bits(got), _bits(want))
    if n % 2 == 1:  # odd orders are odd in x
        neg = BESSEL_XS < 0.0
        assert np.array_equal(got[neg], -bessel_j(n, -BESSEL_XS[neg]))


def test_array_bessel_keeps_shape_and_one_point_agrees():
    grid = BESSEL_XS[:400].reshape(10, 40)
    for n in (0, 1, 2, 7, 64):
        got = bessel_j(n, grid)
        assert got.shape == grid.shape
        for x, value in zip(grid.ravel()[::37], got.ravel()[::37]):
            one = bessel_j(n, float(x))
            assert isinstance(one, float) and _bits(one) == _bits(value)
    assert bessel_j(3, np.array([])).shape == (0,)


def test_array_j0_inverse_bit_identical_to_scalar_loop():
    want = [_loop_j0_inverse(float(y)) for y in ORACLE_YS]
    got = bessel_j0_inverse(ORACLE_YS)
    assert np.array_equal(_bits(got), _bits(want))
    assert bessel_j0_inverse(np.array([])).shape == (0,)
    for y in (1.0, 1e-300, 1.0 - 1e-12, 0.28):
        one = bessel_j0_inverse(y)
        assert isinstance(one, float) and _bits(one) == _bits(_loop_j0_inverse(y))
    # a one-point call is the same array code
    picks = ORACLE_YS[::997]
    assert np.array_equal(
        _bits([bessel_j0_inverse(float(y)) for y in picks]),
        _bits(bessel_j0_inverse(picks)),
    )


@pytest.mark.parametrize("bad", [51.0, -51.5, math.nan, math.inf])
def test_array_bessel_names_the_bad_element(bad):
    xs = np.array([0.5, 7.0, bad, 3.0])
    with pytest.raises(DomainError, match=re.escape(str(bad))):
        bessel_j(2, xs)


@pytest.mark.parametrize("bad", [
    np.nextafter(MAX_ARGUMENT, 9.0), -np.nextafter(MAX_ARGUMENT, 9.0), 12.0, 50.0,
])
def test_bessel_rejects_arguments_past_the_series_range(bad):
    # the series alone serves |x| <= 8; past that nothing is computed
    for n in (0, 1, 2, MAX_ORDER):
        with pytest.raises(DomainError, match=re.escape(f"|x| must be <= 8.0, got {bad}")):
            bessel_j(n, bad)
        with pytest.raises(DomainError, match=re.escape(str(bad))):
            bessel_j(n, np.array([1.0, bad, -MAX_ARGUMENT]))


@pytest.mark.parametrize("bad", [0.0, 1.5, -0.25, math.nan])
def test_array_j0_inverse_names_the_bad_element(bad):
    ys = np.array([0.3, 0.9, bad, 0.5])
    with pytest.raises(DomainError, match=re.escape(str(bad))):
        bessel_j0_inverse(ys)
