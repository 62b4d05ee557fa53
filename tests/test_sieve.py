import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mulcm import gstar, mertens, sieve, sigma
from mulcm.numutil import BudgetError
from mulcm.sieve import (
    DEFAULT_SEGMENT,
    divisors,
    factorize,
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
        assert block.mu[n - 1] == _mu_ref(n), n
        assert block.phi[n - 1] == _phi_ref(n), n


def test_block_holds_mu_and_phi_only():
    block = sieve_range(1, 30)
    assert [f.name for f in dataclasses.fields(block)] == ["lo", "hi", "mu", "phi"]
    for name in ("factor", "divisors", "index", "spf"):
        assert not hasattr(block, name), name


def test_primes_upto_counts():
    assert len(primes_upto(10)) == 4
    assert len(primes_upto(100)) == 25
    assert len(primes_upto(10 ** 6)) == 78498
    assert primes_upto(1) .size == 0


def _plain_primes(n: int) -> np.ndarray:
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return np.flatnonzero(mask)


@pytest.mark.parametrize("segment", [16, 1000, sieve.DEFAULT_SEGMENT])
def test_prime_segments_equal_a_plain_sieve(segment, monkeypatch):
    # Segments end anywhere: at a prime, one before or after one, past the
    # square of a base prime; the first segment grows to isqrt(n) + 1.
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", segment)
    large = [2**18 - 1, 2**18, 10**6 + 3] if segment >= 1000 else []
    for n in [*range(300), 999, 1000, 1001, 1009, 4096, 20011, *large]:
        want = _plain_primes(n)
        got = primes_upto(n)
        assert got.dtype == np.int64 and np.array_equal(got, want), n
        segments = list(sieve._prime_segments(n))
        assert np.array_equal(np.concatenate([np.empty(0, np.int64)] + segments), want), n
        assert all(s.size <= sieve._prime_count_bound(max(segment, math.isqrt(n) + 1))
                   for s in segments), n


@pytest.mark.parametrize("segment", [16, 1000, sieve.DEFAULT_SEGMENT])
def test_prime_segment_shards_deal_out_every_segment_once(segment, monkeypatch):
    # Shard s of k holds the segments whose index is s mod k, in order, so
    # dealing them back by index rebuilds the one-shard sequence.
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT", segment)
    edges = [m * segment + d for m in (1, 2, 3, 7) for d in (-1, 0, 1)]
    for n in [0, 1, 2, 15, 255, 256, 257, *edges]:
        whole = list(sieve._prime_segments(n))
        for k in (1, 2, 3):
            shards = [list(sieve._prime_segments(n, s, k)) for s in range(k)]
            assert [len(share) for share in shards] == [
                len(whole[s::k]) for s in range(k)], (n, k)
            for s, share in enumerate(shards):
                assert all(map(np.array_equal, share, whole[s::k])), (n, k, s)


def test_prime_count_bound_holds():
    # The bound on pi(n) sizes primes_upto's output and the declared memory.
    pi = np.searchsorted(_plain_primes(10**6), np.arange(10**6 + 1), side="right")
    for n in [*range(1000), *range(1000, 10**6 + 1, 997)]:
        assert sieve._prime_count_bound(n) >= pi[n], n


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


@pytest.fixture
def empty_table(monkeypatch):
    """Start from no arithmetic table; the old one is put back afterwards."""
    monkeypatch.setattr(sieve, "_table_block", None)
    monkeypatch.setattr(sieve, "_table_cum", None)


def test_table_views_match_fresh_sieve(empty_table):
    sieve._table(100_000)
    for n in (1, 2, 30, 300, 65_536, 99_999, 100_000):
        view = sieve._table(n)
        fresh = sieve_range(1, n)
        assert (view.lo, view.hi) == (1, n)
        for name in ("mu", "phi"):
            got, want = getattr(view, name), getattr(fresh, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), (n, name)
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 0
    assert sieve._table_block.hi == 100_000


def test_mertens_cum_is_the_sequential_cumsum(empty_table):
    n = 100_000
    mu = sieve_range(1, n).mu
    want = np.cumsum(np.concatenate(([0.0], mu / np.arange(1, n + 1, dtype=np.float64))))
    cum = sieve._mertens_cum(n)
    assert cum.shape == (n + 1,) and (cum == want).all()
    assert not cum.flags.writeable
    # A larger table continues the cumsum from its last value: the whole
    # is still the one sequential cumsum.
    mu = sieve_range(1, 3 * n).mu
    want = np.cumsum(np.concatenate(([0.0], mu / np.arange(1, 3 * n + 1, dtype=np.float64))))
    assert (sieve._mertens_cum(3 * n) == want).all()
    assert (sieve._mertens_cum(10) == want[:11]).all()


def test_mertens_cum_runs_only_to_the_largest_request(empty_table):
    # On a large table, m at a small point builds the cumsum only to there.
    mu = sieve._table(2 * 10 ** 6).mu
    want = np.cumsum(mu[:10] / np.arange(1, 11, dtype=np.float64))[-1]
    tracemalloc.start()
    try:
        got = mertens.m(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 64 * 1024, peak
    assert sieve._table_cum.size == 11


@pytest.fixture
def sieved(monkeypatch, empty_table):
    """(lo, hi) of every sieve_range call, starting from no table."""
    calls = []
    real = sieve.sieve_range

    def counting(lo, hi, *args):
        calls.append((lo, hi))
        return real(lo, hi, *args)

    monkeypatch.setattr(sieve, "sieve_range", counting)
    return calls


def test_table_grows_only_past_its_end(sieved):
    for n in (10, 5000, sieve._TABLE_MIN, 1000):
        sieve._table(n)
    assert sieved == [(1, sieve._TABLE_MIN)]
    sieve._table(100_000)
    sieve._mertens_cum(70_000)
    sieve._table(99_999)
    assert sieved == [(1, sieve._TABLE_MIN), (sieve._TABLE_MIN + 1, 100_000)]
    grown, fresh = sieve._table(100_000), sieve.sieve_range(1, 100_000)
    for name in ("mu", "phi"):
        got, want = getattr(grown, name), getattr(fresh, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert not got.flags.writeable


def test_checks_share_one_sieve(sieved):
    # A run of checks sieves each n once: a new maximum n sieves only the
    # range past the table's end.
    N = 200_000
    for q in (1, 2):
        mertens.check_envelope_sqrt(N, q=q)
    mertens.check_envelope_log(N, q=2)
    gstar.init_bound_check(100_000)
    gstar.moebius_square_table_check(X_max=N)
    sigma.sigma_scan(50_000)
    assert mertens.m(N) == float(sieve._mertens_cum(N)[N])
    assert sieved == [(1, N)]
    gstar.scan_majorstar(300_000, q_set=(1,))
    assert sieved == [(1, N), (N + 1, 300_000)]


@pytest.mark.parametrize("lo, hi, segment", [
    (1, 200_000, DEFAULT_SEGMENT),
    (1, 200_000, 4096),
    (10 ** 6, 10 ** 6 + 50_000, DEFAULT_SEGMENT),
    (2 ** 31 - 50_000, 2 ** 31 + 50_000, DEFAULT_SEGMENT),  # int64 phi
])
def test_sieve_memory_within_declared_budget(monkeypatch, lo, hi, segment):
    declared = sieve._sieve_bytes(lo, hi, segment)
    monkeypatch.setenv("MULCM_MEMORY_BUDGET", str(declared))
    tracemalloc.start()
    try:
        sieve_range(lo, hi, segment)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The declaration holds what the kernel allocates, not a loose ceiling.
    assert 0.9 * declared <= peak <= declared, (peak, declared)


def test_table_growth_within_declared_budget(monkeypatch, empty_table):
    old = sieve._table(100_000)
    old_bytes = 100_000 * (old.mu.itemsize + old.phi.itemsize)
    declared = sieve._growth_bytes(100_000, 300_000)
    monkeypatch.setenv("MULCM_MEMORY_BUDGET", str(declared - 1))
    with pytest.raises(BudgetError):
        sieve._table(300_000)
    monkeypatch.setenv("MULCM_MEMORY_BUDGET", str(declared))
    tracemalloc.start()
    try:
        sieve._table(300_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The old table was allocated before tracing started.
    assert 0.9 * declared <= peak + old_bytes <= declared, (peak, declared)


def test_sieve_refused_one_byte_below_declared(monkeypatch):
    lo, hi = 1, 200_000
    monkeypatch.setenv("MULCM_MEMORY_BUDGET", str(sieve._sieve_bytes(lo, hi) - 1))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            sieve_range(lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # refused before any array over n exists


@pytest.mark.parametrize("n", [10 ** 5, 10 ** 6])
def test_primes_upto_memory_within_declared_budget(monkeypatch, n):
    declared = sieve._primes_bytes(n)
    monkeypatch.setenv("MULCM_MEMORY_BUDGET", str(declared))
    tracemalloc.start()
    try:
        primes_upto(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.9 * declared <= peak <= declared, (peak, declared)


@pytest.mark.parametrize("n", [10 ** 5, 10 ** 6])
def test_primes_upto_refused_one_byte_below_declared(monkeypatch, n):
    monkeypatch.setenv("MULCM_MEMORY_BUDGET", str(sieve._primes_bytes(n) - 1))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            primes_upto(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n  # refused before any array over n exists


@pytest.mark.parametrize("lo, hi", [
    (1, 1), (1, 3), (2, 3),           # no sieving prime: big = n, max(n - 1, 1)
    (997 ** 2 - 60, 997 ** 2 + 60),   # p^2 with p = isqrt(hi)
    (997 ** 2 - 121, 997 ** 2),       # hi = p^2: p is the last sieving prime
    (997 ** 2 - 120, 997 ** 2 - 1),   # hi = p^2 - 1: p is not sieved
    (101 ** 3 - 60, 101 ** 3 + 60),
    (31 ** 4 - 60, 31 ** 4 + 60),
    (7 ** 7 - 60, 7 ** 7 + 60),
    (2 ** 20 - 60, 2 ** 20 + 60),
    (3 ** 13 - 60, 3 ** 13 + 60),
    (46_337 ** 2 - 30, 46_337 ** 2 + 30),  # the largest p^2 below 2^31
    (2 ** 31 - 30, 2 ** 31 + 30),          # int32 to int64 phi
    (46_349 ** 2 - 30, 46_349 ** 2 + 30),  # the smallest p^2 above 2^31
])
def test_sieve_matches_factorize_oracle(lo, hi):
    want = {name: np.array([ref(n) for n in range(lo, hi + 1)])
            for name, ref in (("mu", _mu_ref), ("phi", _phi_ref))}
    for segment in (1, 7, 4096, DEFAULT_SEGMENT):
        block = sieve_range(lo, hi, segment)
        assert block.mu.dtype == np.int8
        assert block.phi.dtype == sieve._wide(hi)
        for name, values in want.items():
            assert np.array_equal(getattr(block, name), values), (segment, name)


def test_sieve_digest_pinned():
    # sha256 of mu and phi over [1, 10^6], taken from the kernel that also
    # wrote spf (the smallest prime factor), before spf left the table.
    block = sieve_range(1, 10 ** 6)
    digest = hashlib.sha256(block.mu.tobytes() + block.phi.tobytes()).hexdigest()
    assert digest == "4898e6bc1456939a63e6461cba6de4589e7d502ce7db7c8984550d6d7fbe33b1"


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


@given(st.integers(min_value=1, max_value=10 ** 5))
@settings(max_examples=100, deadline=None)
def test_divisors_are_all_divisors(n):
    divs = divisors(n)
    assert sorted(divs) == [e for e in range(1, n + 1) if n % e == 0]


def test_divisors_order_largest_prime_fastest():
    # The coprime trace adds floats in this order.
    assert divisors(1) == [1]
    assert divisors(12) == [1, 3, 2, 6, 4, 12]
    assert divisors(30) == [1, 5, 3, 15, 2, 10, 6, 30]


@pytest.mark.parametrize("n", [1, 2, 30, 20_000])
def test_squarefree_factors_match_trial_division(n):
    # The exact and oracle traces take each d's primes and divisors here, in
    # the order divisors() gives, and only at the squarefree d.
    got = list(sieve._squarefree_factors(n))
    assert [d for d, _, _ in got] == [d for d in range(1, n + 1) if _mu_ref(d)]
    for d, primes, divs in got:
        assert primes == prime_divisors(d), d
        assert divs == divisors(d), d


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


def _product_loop(lo: int, hi: int, ps: np.ndarray, f: np.ndarray) -> np.ndarray:
    """prod_{p | k} f(p) for k in [lo, hi), one strided pass per prime in
    ascending order (1 at k = 0)."""
    out = np.ones(max(hi - lo, 0), dtype=f.dtype)
    for p, fp in zip(ps.tolist(), f):
        out[max(-(-lo // p), 1) * p - lo:: p] *= fp
    return out


def _factor_values(ps: np.ndarray) -> list[np.ndarray]:
    """f for the kernel tests: the radical's p, the scan's 1 - p, and floats
    whose products round differently in another order."""
    return [ps, 1.0 - ps, np.random.default_rng(23).uniform(0.5, 2.0, ps.size)]


@pytest.mark.parametrize("block", [1, 7, 4096, 1 << 16])
def test_prime_factor_product_blocks_equal_prime_loop(block):
    hi = {1: 3000, 7: 20_000}.get(block, 150_001)
    ps = primes_upto(hi)
    for f in _factor_values(ps):
        got = np.concatenate([sieve._prime_factor_product(a, min(a + block, hi), ps, f)
                              for a in range(0, hi, block)])
        assert got.dtype == f.dtype
        assert got.tobytes() == _product_loop(0, hi, ps, f).tobytes(), (block, f.dtype)


@pytest.mark.parametrize("lo, hi", [
    (0, 1), (0, 2), (0, 50),        # k = 0 keeps 1
    (9990, 10008),                  # hi - 1 = 10007 is prime
    (9990, 10002),                  # hi - 1 = 73 * 137, 137 > isqrt(10001) = 100
    (97 ** 2, 97 ** 2 + 7),         # a block starting at r^2
    (97 ** 2 - 7, 97 ** 2),         # the block before it: r is not sieved there
    (5, 5),                         # empty
])
def test_prime_factor_product_edges(lo, hi):
    ps = primes_upto(20_000)
    for f in _factor_values(ps):
        got = sieve._prime_factor_product(lo, hi, ps, f)
        assert got.tobytes() == _product_loop(lo, hi, ps, f).tobytes(), (lo, hi, f.dtype)
        if lo == 0:
            assert got[0] == 1


def test_prime_factor_product_memory_within_declared_budget(monkeypatch):
    ps = primes_upto(10 ** 6)
    f = 1.0 - ps
    declared = []
    monkeypatch.setattr(sieve, "check_allocation", lambda nbytes, what: declared.append(nbytes))
    tracemalloc.start()
    try:
        sieve._prime_factor_product(0, 10 ** 6 + 1, ps, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One declaration, made before the block exists, holding what it needs.
    assert len(declared) == 1
    assert 0.9 * declared[0] <= peak <= declared[0], (peak, declared)
