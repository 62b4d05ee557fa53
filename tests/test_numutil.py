import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mulcm import numutil
from mulcm.mertens import XI
from mulcm.numutil import (
    BudgetError,
    adaptive_simpson,
    check_allocation,
    fsum_array,
    libm_power,
    memory_budget_bytes,
    quad_checked,
    quad_log,
)
from mulcm.sieve import primes_upto


def assert_same_as_fsum(values):
    """fsum_array(values) is math.fsum of the values as a list, or raises
    the same exception, by default and with the direct path switched off
    (_FSUM_DIRECT_MAX = 0), so that short arrays take the extraction too."""
    values = np.asarray(values)
    try:
        want = math.fsum(values.astype(np.float64).ravel().tolist())
    except (ValueError, OverflowError) as exc:
        want = type(exc)
    for direct_max in (numutil._FSUM_DIRECT_MAX, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numutil, "_FSUM_DIRECT_MAX", direct_max)
            if isinstance(want, type):
                with pytest.raises(want):
                    fsum_array(values)
                continue
            got = fsum_array(values)
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), \
                (direct_max, got, want)


def test_fsum_array_equals_fsum_of_list():
    xs = np.array([1e16, 1.0, -1e16, 1.0, 0.5, -0.25] * 100) * np.linspace(1, 2, 600)
    assert_same_as_fsum(xs)
    assert_same_as_fsum(xs[::3])
    assert_same_as_fsum(xs.astype(np.float32))
    assert_same_as_fsum(np.empty(0))
    assert fsum_array(np.empty(0)) == 0.0


TINY = 2.0 ** -1074  # the smallest subnormal


@pytest.mark.parametrize("values", [
    [1.0, 2.0 ** -53],                   # exact half-ulp tie, rounds to even
    [1.0, 2.0 ** -53, 2.0 ** -106],      # just past the tie
    [1.0 + 2.0 ** -52, 2.0 ** -53],      # tie that rounds up to even
    [1e16, 1.0, -1e16],
    [1.0, -1.0],                         # an exact zero
    [-0.0, -0.0],
    [TINY, TINY, 3 * TINY],              # subnormals
    [2.0 ** -1022, -TINY, 5 * TINY],
    [1.0, TINY, -1.0],
    [math.inf, 1.0],
    [-math.inf, -1.0],
    [math.inf, -math.inf],
    [math.nan, 1.0],
    [1.7e308, 1.7e308],                  # fsum overflows
    [2.0 ** 1000, 1.0, -2.0 ** 1000],
    [0.5],
    [],
], ids=repr)
def test_fsum_array_hand_built_cases(values):
    assert_same_as_fsum(values)
    # The same values among enough zeros to take the extraction by default.
    padded = np.zeros(3 * numutil._FSUM_DIRECT_MAX)
    padded[::3][:len(values)] = values
    assert_same_as_fsum(padded)


def test_fsum_array_leftover_error_is_bounded():
    # The sum 1 + 2^-53 of the extracted parts is a tie, and the leftover
    # below 2^-122 sums to a positive amount, so the exact sum rounds up.
    # numpy adds the leftover in eight lanes; lane 0 loses each 0.9 * 2^-177
    # against 2^-124 and ends at -2^-176, the wrong sign.  Only the error
    # bound delta keeps the rounding from being decided on that float sum.
    xs = np.zeros(2048)
    xs[1], xs[2] = 1.0, 2.0 ** -53
    xs[0], xs[120] = 2.0 ** -124, -(2.0 ** -124) * (1 + 2.0 ** -52)
    xs[8:120:8] = 0.9 * 2.0 ** -177
    assert fsum_array(xs) == math.fsum(xs.tolist()) == 1.0 + 2.0 ** -52


def test_fsum_array_float32_and_strided():
    rng = np.random.default_rng(7)
    xs = rng.standard_normal(5000) * 2.0 ** rng.integers(-40, 40, size=5000)
    assert_same_as_fsum(xs.astype(np.float32))
    assert_same_as_fsum(xs[::7])
    assert_same_as_fsum(xs[::-1])
    assert_same_as_fsum(xs.reshape(50, 100)[:, ::3])


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=60))
@settings(max_examples=300, deadline=None)
def test_fsum_array_property_any_floats(xs):
    assert_same_as_fsum(xs)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 4000),
       spread=st.integers(0, 200), center=st.integers(-850, 800),
       cancel=st.booleans())
@settings(max_examples=150, deadline=None)
def test_fsum_array_property_mixed_magnitudes_and_signs(seed, n, spread, center, cancel):
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal(n) * 2.0 ** (center + rng.integers(-spread, spread + 1, size=n))
    if cancel:  # each value with its negation, plus a residue far below them
        xs = np.concatenate([xs, -xs[::-1], xs[:1] * 2.0 ** -60])
        rng.shuffle(xs)
    assert_same_as_fsum(xs)


def assert_exact_sum_is_fsum(values, sizes):
    """numutil._ExactSum fed the values in consecutive blocks of the given
    sizes, the rest in one last block, gives math.fsum of them as one list,
    or raises the same exception."""
    x = np.asarray(values, dtype=np.float64)
    total = numutil._ExactSum()
    bounds = np.cumsum([0] + list(sizes))
    for lo, hi in zip(bounds, bounds[1:]):
        total.add(x[min(lo, x.size):min(hi, x.size)])
    total.add(x[min(bounds[-1], x.size):])
    try:
        want = math.fsum(x.tolist())
    except ValueError:
        with pytest.raises(ValueError):
            total.value()
        return
    got = total.value()
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), \
            (got, want)


@pytest.mark.parametrize("values, sizes", [
    ([1.0, -1.0], [1]),                               # cancels to exactly 0.0
    ([1e16, 1.0, -1e16, -1.0], [1, 2]),
    ([2.0 ** 600, 1.0, -(2.0 ** 600), -1.0, 0.5, -0.5], [2, 0, 3]),
    ([1.0, 2.0 ** -53], [1]),                         # a tie across blocks, to even
    ([1.0 + 2.0 ** -52, 2.0 ** -53], [1]),            # a tie that rounds up to even
    ([1.0, 2.0 ** -53, 2.0 ** -106], [1, 1]),         # just past the tie
    ([TINY, TINY, 3 * TINY], [1, 1]),                 # subnormals
    ([2.0 ** -1022, -TINY, 5 * TINY], [1]),
    ([1.0, TINY, -1.0], [2]),                         # a subnormal leftover
    ([1.0, math.inf, 2.0], [1, 1]),                   # a block with an inf
    ([math.inf, -1.0, -math.inf], [2]),
    ([math.nan, 1.0], [0, 1]),
    ([2.0 ** 1000, 1.0, -(2.0 ** 1000)], [1, 1]),     # a block past 2^960
    ([3.0, 2.0 ** 970, 5.0, -(2.0 ** 970)], [2]),
], ids=repr)
def test_exact_sum_hand_built_cases(values, sizes):
    assert_exact_sum_is_fsum(values, sizes)
    # Past _FSUM_DIRECT_MAX, fsum_array takes the same values in one block.
    padded = np.zeros(3 * numutil._FSUM_DIRECT_MAX)
    padded[::3][:len(values)] = values
    assert_exact_sum_is_fsum(padded, [])
    assert_exact_sum_is_fsum(padded, [5, 7, 1000])


# Magnitudes stay below 2^1000: near 2^1024 math.fsum itself overflows or
# not depending on the order of the values, so no split can match it there.
_floats = st.one_of(st.floats(-(2.0 ** 1000), 2.0 ** 1000),
                    st.sampled_from([math.inf, -math.inf, math.nan]))


@given(xs=st.lists(_floats, max_size=60), sizes=st.lists(st.integers(0, 8), max_size=20))
@settings(max_examples=400, deadline=None)
def test_exact_sum_property_any_floats_any_blocks(xs, sizes):
    assert_exact_sum_is_fsum(xs, sizes)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 3 << 16),
       sizes=st.lists(st.sampled_from([0, 1, 7, 1 << 15, 1 << 16]), max_size=6),
       spread=st.integers(0, 200), center=st.integers(-850, 800), cancel=st.booleans())
@settings(max_examples=40, deadline=None)
def test_exact_sum_property_large_blocks(seed, n, sizes, spread, center, cancel):
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal(n) * 2.0 ** (center + rng.integers(-spread, spread + 1, size=n))
    if cancel:  # each value with its negation, plus a residue far below them
        xs = np.concatenate([xs, -xs[::-1], xs[:1] * 2.0 ** -60])
        rng.shuffle(xs)
    assert_exact_sum_is_fsum(xs, sizes)


def test_simpson_polynomial_exact():
    # Simpson is exact on cubics, so the adaptive error estimate is ~0.
    val, err = adaptive_simpson(lambda t: t ** 3 - 2 * t, 0.0, 2.0, tol=1e-12)
    assert val == pytest.approx(0.0, abs=1e-12)
    assert err <= 1e-12


def test_simpson_known_integral():
    val, err = adaptive_simpson(math.exp, 0.0, 1.0, tol=1e-12)
    assert val == pytest.approx(math.e - 1.0, abs=1e-10)


def test_quad_log_power_integrand():
    # int_1^inf-like: int_a^b t^-2 dt = 1/a - 1/b over a wide range.
    val, err = quad_log(lambda t: t ** -2, 1.0, 1e8, tol=1e-13)
    assert val == pytest.approx(1.0 - 1e-8, rel=1e-10)


def test_quad_checked_agreement_and_failure():
    val, err = quad_checked(lambda t: 1.0 / t, 1.0, math.e, tol=1e-12)
    assert val == pytest.approx(1.0, rel=1e-9)
    # A tolerance far above the integral's size defeats the self-check.
    f = lambda t: (2.0 * math.log(t) - 1.0) / (t ** 1.5 * math.log(t) ** 2)
    with pytest.raises(ValueError):
        quad_checked(f, 1e12, 1e15, tol=1e-8)


def test_memory_budget_env(monkeypatch):
    monkeypatch.setenv("MULCM_MEMORY_BUDGET", "1000000")
    assert memory_budget_bytes() == 1_000_000
    with pytest.raises(BudgetError):
        check_allocation(2_000_000, "test block")
    check_allocation(500_000, "test block")


@pytest.mark.parametrize("pages, want", [
    (1_000_000, 4_096_000_000),  # 3.8 GiB of physical memory
    (1 << 22, 8 << 30),  # exactly 16 GiB: the 8 GiB cap
    (-1, 8 << 30),  # sysconf cannot tell
    (ValueError, 8 << 30),  # the name is unknown here
])
def test_memory_budget_default_is_capped_by_physical_memory(monkeypatch, pages, want):
    def sysconf(name):
        if name == "SC_PAGE_SIZE":
            return 4096
        assert name == "SC_PHYS_PAGES"
        if pages is ValueError:
            raise ValueError(name)
        return pages

    monkeypatch.delenv("MULCM_MEMORY_BUDGET", raising=False)
    monkeypatch.setattr(os, "sysconf", sysconf)
    assert memory_budget_bytes() == want
    # The environment variable still overrides the default, above or below it.
    monkeypatch.setenv("MULCM_MEMORY_BUDGET", str(12 << 30))
    assert memory_budget_bytes() == 12 << 30


@pytest.mark.parametrize("e", [XI, 5.0 / 3.0, 7.0 / 3.0, 1.5, 2.0])
def test_libm_power_is_math_pow_at_every_prime(e):
    # Every exponent the package hands to libm_power (the products' local
    # terms, their weights, mertens.g1_factor, check_prime_tail).  Should
    # numpy give np.float_power a SIMD loop, this fails before any partial
    # product moves.
    ps = primes_upto(10**6).astype(np.float64)
    got = libm_power(ps, e)
    assert got.dtype == np.float64
    assert np.array_equal(got, [math.pow(p, e) for p in ps.tolist()])


def test_running_max_could_rise_pads_upward_and_skips_ties():
    top = numutil._RunningMax(1.0, 0)
    assert top.could_rise(math.nan)
    assert top.could_rise(math.inf)
    assert not top.could_rise(1.0 - 2.0 ** -38)
    assert top.could_rise(1.0 - 2.0 ** -45)  # within the pad
    # Padded, 1.0 ties 1 + 2^-40, and a tie keeps the first maximum.
    tie = numutil._RunningMax(1.0 + 2.0 ** -40, 0)
    assert not tie.could_rise(1.0)
    assert tie.could_rise(math.nextafter(1.0, 2.0))
    low = numutil._RunningMax(-1.0, 0)
    assert not low.could_rise(-1.0 - 2.0 ** -38)
    assert low.could_rise(-1.0 - 2.0 ** -45)  # the pad raises a negative bound too
    assert not numutil._RunningMax(-1.0 + 2.0 ** -40, 0).could_rise(-1.0)
    assert not numutil._RunningMax(0.0, 0).could_rise(-2.0)
    assert not numutil._RunningMax(0.0, 0).could_rise(0.0)


def test_running_max_offer_keeps_the_first_of_ties_and_the_first_nan():
    top = numutil._RunningMax(0.0)
    assert not top.offer(0.0, "floor tie")
    assert top.offer(np.float64(0.5), "a")
    assert type(top.value) is float and (top.value, top.arg) == (0.5, "a")
    assert not top.offer(0.5, "b")  # a tie keeps the first arg
    assert top.offer(math.nextafter(0.5, 1.0), "c")
    assert top.arg == "c"
    # A NaN is taken over any maximum, and no later value replaces it.
    assert top.offer(np.float64(math.nan), "nan")
    assert math.isnan(top.value) and type(top.value) is float and top.arg == "nan"
    assert not top.offer(math.inf, "inf") and not top.offer(math.nan, "nan2")
    assert top.arg == "nan"
    assert numutil._RunningMax().offer(math.nan, 0)  # over -inf too


@pytest.mark.parametrize("values, at", [
    ([math.nan, 5.0], 10),             # NaN first
    ([5.0, math.nan], 11),             # NaN last
    ([1.0, math.nan, 3.0, math.nan], 11),  # between larger values: the first NaN
])
def test_running_max_feed_takes_the_first_nan(values, at):
    top = numutil._RunningMax(0.0, 0)
    assert top.feed(np.array(values), 10)
    assert math.isnan(top.value) and top.arg == at
    assert not top.feed(np.array([7.0, math.nan]), 20)  # kept across blocks
    assert top.arg == at


def test_running_max_feed_is_argmax_then_offer():
    top = numutil._RunningMax(0.0, 0)
    assert not top.feed(np.array([0.0, -1.0]), 5)
    assert top.feed(np.array([0.25, 0.75, 0.75]), 10, "q")
    assert (top.value, top.arg) == (0.75, ("q", 11))
    assert not top.feed(np.array([0.75]), 20)  # a tie in a later block
    assert top.feed(np.array([1.0, 2.0]), 30) and top.arg == 31
