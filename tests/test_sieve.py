import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mulcm.sieve import (
    factorize,
    mu_upto,
    prime_divisors,
    primes_upto,
    radical,
    sieve_range,
    smooth_numbers,
    squarefree_count,
)


def _mu_ref(n: int) -> int:
    mu = 1
    for p, e in factorize(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def _phi_ref(n: int) -> int:
    phi = n
    for p, _ in factorize(n):
        phi -= phi // p
    return phi


def test_block_small_values():
    block = sieve_range(1, 30)
    for n in range(1, 31):
        i = block.index(n)
        assert block.mu[i] == _mu_ref(n), n
        assert block.phi[i] == _phi_ref(n), n
        if n > 1:
            assert block.spf[i] == min(p for p, _ in factorize(n)), n
    assert block.spf[block.index(1)] == 1


def test_primes_upto_counts():
    assert len(primes_upto(10)) == 4
    assert len(primes_upto(100)) == 25
    assert len(primes_upto(10 ** 6)) == 78498
    assert primes_upto(1) .size == 0


@given(st.integers(min_value=2, max_value=5000),
       st.integers(min_value=0, max_value=5000))
@settings(max_examples=80, deadline=None)
def test_segment_independence(lo, width):
    hi = lo + width
    seg = sieve_range(lo, hi)
    full = sieve_range(1, hi)
    off = lo - 1
    assert np.array_equal(seg.mu, full.mu[off: off + width + 1])
    assert np.array_equal(seg.phi, full.phi[off: off + width + 1])
    assert np.array_equal(seg.spf, full.spf[off: off + width + 1])


def test_mu_upto_matches_block():
    mu = mu_upto(300)
    block = sieve_range(1, 300)
    assert np.array_equal(mu[1:], block.mu)


@given(st.integers(min_value=1, max_value=10 ** 6))
@settings(max_examples=100, deadline=None)
def test_factorize_roundtrip(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac:
        prod *= p ** e
    assert prod == n
    assert all(e >= 1 for _, e in fac)
    ps = [p for p, _ in fac]
    assert ps == sorted(set(ps))


def test_radical_and_prime_divisors():
    assert radical(1) == 1
    assert radical(12) == 6
    assert radical(360) == 30
    assert prime_divisors(360) == [2, 3, 5]


def test_smooth_numbers_exact():
    # 6-smooth numbers up to 50: products of 2 and 3 only.
    expect = sorted(2 ** a * 3 ** b for a in range(7) for b in range(5)
                    if 2 ** a * 3 ** b <= 50)
    assert smooth_numbers(6, 50) == expect
    assert smooth_numbers(1, 50) == [1]


def _squarefree_count_ref(x: int) -> int:
    return sum(1 for n in range(1, x + 1) if _mu_ref(n) != 0)


@given(st.integers(min_value=0, max_value=3000))
@settings(max_examples=60, deadline=None)
def test_squarefree_count_matches_bruteforce(x):
    assert squarefree_count(x) == _squarefree_count_ref(x)


def test_squarefree_count_densities():
    # 6/pi^2 ~ 0.6079; the count stays within sqrt-size error of it.
    for x in (10 ** 4, 10 ** 5, 10 ** 6):
        q = squarefree_count(x)
        assert abs(q - 6.0 / math.pi ** 2 * x) <= math.sqrt(x)
