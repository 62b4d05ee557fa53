import bisect
import functools
import hashlib
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mulcm import numutil, products, sieve
from mulcm.assembly import theorem_table
from mulcm.mertens import XI
from mulcm.numutil import BudgetError, fsum_array
from mulcm.report import CertifiedValue
from mulcm.products import (
    A_DEEP,
    EULER_GAMMA,
    H1_SHAPE,
    H23_SHAPE,
    H_CAPS,
    P0_DEEP,
    _local_monomials,
    _prime_power_tails,
    aux_asymptotic_check,
    aux_ratio_scan,
    build_registry,
    c_q,
    c_q_prerewrite,
    check_cq_forms,
    check_h_caps,
    check_prime_tail,
    constant_A,
    h_linear,
    h_q,
    h_twothirds,
    j1_star,
    j5_star,
    local_ratio,
    prime_tail_bound,
    universal_log_sum,
)
from mulcm.sieve import primes_upto


def test_prime_tail_spec_example():
    # f(t) = 1/t^2 at P = 1e7, past STRONG_MIN_P: about 1.01e-7.
    bound = prime_tail_bound(lambda t: t ** -2, 1e7, integral=1e-7)
    assert bound == pytest.approx(1.003e-7, rel=1e-3)
    assert bound < 1.01e-7


def test_prime_tail_mode_preconditions():
    with pytest.raises(ValueError):
        prime_tail_bound(lambda t: t ** -2, 1.0)


@pytest.mark.parametrize("a", [1.5, 5.0 / 3.0, 2.0])
def test_prime_tail_monotone_in_P(a):
    f = lambda t: t ** -a
    grid = [10.0, 100.0, 1e3, 1e4, 1e5, 1e6]
    bounds = [prime_tail_bound(f, P, integral=P ** (1 - a) / (a - 1)) for P in grid]
    assert all(x > y for x, y in zip(bounds, bounds[1:]))


def test_prime_tail_desk_validation():
    rep = check_prime_tail(cutoff=3_000_000)
    assert rep.passed, rep.summary_line()
    # The report of the whole-array reversed cumsum over libm logs and
    # powers, repr for repr.
    assert hashlib.sha256(repr(rep).encode()).hexdigest() == (
        "911e3fbea5d8c5efae6174bd2e6f158c03fccfeaf75fe6a85a41fc66010aa85f")


def test_constant_A_cross_cutoff():
    # Enclosures at different cutoffs must overlap, and the coarse one must
    # contain the deep frozen enclosure.
    coarse = constant_A(50_000)
    assert coarse.lo <= A_DEEP.lo and A_DEEP.hi <= coarse.hi
    finer = constant_A(500_000)
    assert finer.lo <= A_DEEP.lo and A_DEEP.hi <= finer.hi
    assert finer.width < coarse.width


U = 2.0 ** -53


class _Bounded:
    """Computed floats v with a first-order bound e on |v - exact value|.

    Running error analysis (Higham, "Accuracy and Stability of Numerical
    Algorithms", 2nd ed., section 3.3): each operation is done in floats as
    the code does it, and adds u |result| for its rounding to the errors it
    inherits.  Python float operands are exact constants.
    """

    __array_ufunc__ = None  # numpy defers to the reflected operators below

    def __init__(self, v, e=0.0):
        self.v, self.e = v, e

    @staticmethod
    def _of(x):
        return x if isinstance(x, _Bounded) else _Bounded(x)

    @staticmethod
    def _rounded(v, e):
        return _Bounded(v, e + U * np.abs(v))

    def __add__(self, other):
        o = self._of(other)
        return self._rounded(self.v + o.v, self.e + o.e)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._of(other)
        return self._rounded(self.v - o.v, self.e + o.e)

    def __rsub__(self, other):
        return self._of(other) - self

    def __mul__(self, other):
        o = self._of(other)
        return self._rounded(self.v * o.v, np.abs(self.v) * o.e
                             + np.abs(o.v) * self.e + self.e * o.e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._of(other)
        q = self.v / o.v
        return self._rounded(q, (self.e + np.abs(q) * o.e) / (np.abs(o.v) - o.e))


def _bounded_block(ps, power, weight):
    """The arguments of a local term over one block of primes
    (products._partial_products), with error bounds.

    The primes are exact and libm pow is within 1 ulp (2u).  For p >= 3,
    g0 = s/(s - 1) from s = fl(sqrt p) is within (1/(sqrt 3 - 1) + 2) u
    < 3.4u, and g1 = t/(t - 1) from t = p**XI within 2u is within
    (2/(3**XI - 1) + 2) u < 3.1u; at p = 2 each is one rounded constant.  A
    weight, the product of two of them, is then within 7.8u < 8u.
    """
    return (_Bounded(ps), lambda e: _Bounded(power(e), 2 * U * power(e)),
            lambda key: _Bounded(weight(key), 8 * U * weight(key)))


# pi(n) at the cutoffs of the recording spies.
_PRIME_COUNTS = {10**5: 9592, 200_000: 17984, 3 * 10**6: 216_816, 10**7: 664_579,
                 10**8: 5_761_455}


def _in_one_process(mpatch) -> None:
    """Keep the pass in the calling process: a spy on the local terms runs
    in the process that walks their segment, and sees a worker's share
    nowhere (numutil._forked)."""
    mpatch.setattr(numutil, "_usable_cpus", lambda: 1)


def _record_float_error_bounds(mpatch) -> list:
    """Patch products._partial_products to append (cutoff, bound) for every
    product built while the patch holds: the bound derived at
    products.FSLACK on the relative float error of its partial product
    exp(sum log1p(x)), x the local terms, summed block by block.  The pass
    runs in one process, and each product must see all pi(cutoff) primes."""
    bounds = []
    real = products._partial_products
    _in_one_process(mpatch)

    def spy(cutoff, local_terms, sum_terms):
        sums = {name: [0.0, 0.0, 0] for name in local_terms}

        def recording(name, local, ps, power, weight):
            x = local(ps, power, weight)
            b = local(*_bounded_block(ps, power, weight))
            assert np.array_equal(b.v, x)
            sums[name][0] += float(np.sum(b.e / (1.0 + b.v)))
            sums[name][1] += float(np.sum(np.abs(np.log1p(b.v))))
            sums[name][2] += ps.size
            return x

        result = real(cutoff, {name: functools.partial(recording, name, local)
                               for name, local in local_terms.items()}, sum_terms)
        assert all(n == _PRIME_COUNTS[cutoff] for _, _, n in sums.values())
        bounds.extend((cutoff, moved + U * (9.0 * logs + 8.0))
                      for moved, logs, _ in sums.values())
        return result

    mpatch.setattr(products, "_partial_products", spy)
    return bounds


def _primes_seen(cutoff: int) -> int:
    """How many primes a spy on a local term sees in constant_A(cutoff)."""
    seen = []
    real = products._partial_products

    def spy(cutoff, local_terms, sum_terms):
        def counting(local, ps, *block):
            seen.append(ps.size)
            return local(ps, *block)

        return real(cutoff, {name: functools.partial(counting, local)
                             for name, local in local_terms.items()}, sum_terms)

    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(products, "_partial_products", spy)
        constant_A(cutoff)
    return sum(seen)


def test_a_spy_sees_every_prime_only_with_the_pass_in_one_process(monkeypatch):
    # At a cutoff that forks, a spy in the caller sees only the caller's
    # segments; the recording spies keep the pass in one process.
    cutoff = 3 * 10**6
    assert cutoff >= products._SHARD_MIN_CUTOFF
    monkeypatch.setattr(numutil, "_usable_cpus", lambda: 2)
    share = sum(s.size for s in sieve._prime_segments(cutoff, 0, 2))
    assert _primes_seen(cutoff) == share < _PRIME_COUNTS[cutoff]
    _in_one_process(monkeypatch)
    assert _primes_seen(cutoff) == _PRIME_COUNTS[cutoff]


@pytest.fixture(scope="module")
def deep_products():
    """A and P0 at cutoff 10^8 from one pass over the primes (0.7 s and
    39 MB peak RSS in a fresh process; 1.4 s and 59 MB with the error
    bounds and the test modules), with the float error bound of each
    partial product."""
    with pytest.MonkeyPatch.context() as mpatch:
        bounds = _record_float_error_bounds(mpatch)
        values = products._cubic_products([2.0, 1.0], 10 ** 8)
    return values, bounds


def test_deep_constants_are_the_product_path_at_1e8(deep_products):
    a, p0 = deep_products[0]
    assert a == A_DEEP
    assert p0 == P0_DEEP


def test_fslack_covers_every_partial_product(deep_products):
    # The largest bound is Hbar(2/3) of g0^2 at 10^7: the weight products
    # cancel in W = (p-1)G - p, so their errors exceed a few |x_i| each.
    with pytest.MonkeyPatch.context() as mpatch:
        bounds = _record_float_error_bounds(mpatch)
        check_h_caps(10 ** 5)
        check_h_caps(10 ** 7)
        build_registry()
    bounds += deep_products[1]
    cutoffs = [10 ** 5] * 6 + [10 ** 7] * 6 + [200_000] + [10 ** 5] * 6 + [10 ** 8] * 2
    assert [c for c, _ in bounds] == cutoffs
    assert max(b for _, b in bounds) < products.FSLACK


def test_scale_and_product_round_outward():
    # The float products of these ends are inexact; the exact products of
    # the ends must lie strictly inside the results.
    v, w = CertifiedValue(0.1, 0.3), CertifiedValue(-0.7, 0.3)
    for c in (3.0, -3.0, 0.7):
        assert Fraction(v.lo * c) != Fraction(v.lo) * Fraction(c)
        exact = sorted(Fraction(e) * Fraction(c) for e in (v.lo, v.hi))
        r = v.scale(c)
        assert Fraction(r.lo) < exact[0] and exact[1] < Fraction(r.hi), c
    exact = [Fraction(a) * Fraction(b) for a in (v.lo, v.hi) for b in (w.lo, w.hi)]
    r = v * w
    assert Fraction(r.lo) < min(exact) and max(exact) < Fraction(r.hi)


def test_universal_log_sum_cross_cutoff():
    coarse = universal_log_sum(200_000)
    fine = universal_log_sum(1_000_000)
    # the coarse enclosure contains every value of the finer one
    assert coarse.lo <= fine.lo and fine.hi <= coarse.hi


def test_universal_sums_equal_the_whole_array_sum():
    # The pass's streamed sums are bit-identical to fsum_array over the
    # terms at all the primes to 10^6 at once, with the q-primes left out.
    ps = primes_upto(10**6).astype(np.float64)
    terms = (3.0 * ps - 2.0) * np.log(ps) / ((ps - 1.0) * (ps * ps + ps - 1.0))
    tail = prime_tail_bound(lambda t: 3.2 / (t * t), 1e6)
    partial = fsum_array(terms)
    assert universal_log_sum(10**6) == CertifiedValue(partial, partial + tail)
    for q, qps in ((1, []), (2, [2]), (6, [2, 3])):
        loc = 0.0
        for p in qps:
            loc += math.log(p) / (p - 1.0)
        base = EULER_GAMMA + loc + fsum_array(terms[~np.isin(ps, qps)])
        assert c_q_prerewrite(q) == CertifiedValue(base, base + tail), q


def test_cq_forms_cross_check():
    rep = check_cq_forms()
    assert rep.passed, rep.summary_line()


def test_cq_known_structure():
    base = c_q(1)
    # adding the local term for p = 2 shifts by (2-1) log 2 / (4+2-1)
    assert c_q(2) - base == pytest.approx(math.log(2) / 5.0, abs=1e-12)
    enc = c_q_prerewrite(1)
    assert enc.lo <= base <= enc.hi + enc.width


def test_h_q_and_local_ratio():
    assert local_ratio(1) == 1
    assert local_ratio(2) == Fraction(4, 5)
    h2 = h_q(2)
    assert h2.mid == pytest.approx(A_DEEP.mid * 0.8, rel=1e-12)
    hq, cq = h_q(6), c_q(6)
    assert hq.mid == pytest.approx(A_DEEP.mid * local_ratio(6), rel=1e-12)
    assert cq == pytest.approx(c_q(6))
    with pytest.raises(ValueError):
        h_q(4)  # not squarefree


@pytest.mark.parametrize("q", [2, 6, 30, 210, 2310, 30030, 510510])
def test_h_q_contains_a_times_the_exact_ratio(q):
    # Both ends of A, times the exact prod p^2/(p^2+p-1), lie inside h_q(q);
    # a float ratio rounded high once put h_q(6).lo above A.lo times it.
    ratio = Fraction(1)
    for p in (2, 3, 5, 7, 11, 13, 17):
        if q % p == 0:
            ratio *= Fraction(p * p, p * p + p - 1)
    h = h_q(q)
    assert Fraction(h.lo) <= Fraction(A_DEEP.lo) * ratio
    assert Fraction(A_DEEP.hi) * ratio <= Fraction(h.hi)


def test_weights():
    ps = np.array([2.0])
    weight = functools.partial(products._weight, ps=ps,
                               power=functools.partial(numutil.libm_power, ps))
    assert weight("g0^2")[0] == pytest.approx(1.5)
    assert weight("g0*g1")[0] == pytest.approx(math.sqrt(1.5) * 2.06)
    assert weight("g1^2")[0] == pytest.approx(2.06 ** 2)
    with pytest.raises(ValueError):
        weight("g2^2")


def _scalar_weight(key: str, p: float) -> float:
    """G(p) in Python floats, one prime at a time (libm sqrt and pow)."""
    if p == 2:
        a, b = math.sqrt(1.5), 2.06
    else:
        sp = math.sqrt(p)
        a = sp / (sp - 1.0)
        pe = p ** XI
        b = pe / (pe - 1.0)
    return {"g0^2": a * a, "g0*g1": a * b, "g1^2": b * b}[key]


def _scalar_locals(cutoff: int) -> dict:
    """The local terms of A and of the six H products, per prime, in Python floats."""
    ps = [float(p) for p in primes_upto(cutoff)]
    out = {"A": [(-2.0 * p + 1.0) / (p * p * p) for p in ps]}
    for key in H_CAPS:
        Gs = [_scalar_weight(key, p) for p in ps]
        out["H1", key] = [((p - 1.0) * G - p) / (p * p) - (p - 1.0) * G / (p * p * p)
                          for p, G in zip(ps, Gs)]
        out["H23", key] = [((p - 1.0) * G - p) / p ** (5.0 / 3.0)
                           + (p - 1.0) * G / p ** (7.0 / 3.0) for p, G in zip(ps, Gs)]
    return out


def test_partial_products_equal_scalar_loop(monkeypatch):
    # The array local terms must reproduce the per-prime float evaluation
    # bit for bit, and so must the partial products built from them.
    # numpy's SIMD power differs from libm pow in the last ulp at some
    # primes, which the term comparison catches.
    cutoff = 100_000
    seen = []
    real = products._partial_products
    _in_one_process(monkeypatch)

    def spy(cutoff, local_terms, sum_terms):
        terms = {name: [] for name in local_terms}

        def recording(name, local, *block):
            terms[name].append(local(*block))
            return terms[name][-1]

        partials, sums = real(cutoff, {name: functools.partial(recording, name, local)
                                       for name, local in local_terms.items()}, sum_terms)
        seen.extend((np.concatenate(terms[name]), partials[name]) for name in local_terms)
        return partials, sums

    monkeypatch.setattr(products, "_partial_products", spy)
    constant_A(cutoff)
    for key in H_CAPS:
        h_linear(key, cutoff)
        h_twothirds(key, cutoff)
    labels = ["A"] + [(label, key) for key in H_CAPS for label in ("H1", "H23")]
    expected = _scalar_locals(cutoff)
    assert len(seen) == len(labels)
    for label, (terms, partial) in zip(labels, seen):
        oracle_terms = np.array(expected[label])
        assert np.array_equal(terms, oracle_terms), label
        oracle = math.exp(math.fsum(np.log1p(oracle_terms).tolist()))
        assert partial == oracle, label


def test_primezeta_evaluated_once_per_exponent(h_cap_tail_exponents, monkeypatch):
    # P(e) does not depend on the cutoff, so H caps at one cutoff and the
    # registry at another (10^5) share one _prime_zeta evaluation per
    # exponent that takes the sieved route at either cutoff, and the
    # registry's enclosures equal those from a cold cache.
    sieved = [e for e in h_cap_tail_exponents
              if not all(_is_a_priori(e, c) for c in (150_000, 100_000))]
    assert len(sieved) == 23
    calls = []
    real = products._prime_zeta

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(products, "_prime_zeta", counting)
    monkeypatch.setattr(products, "_primezeta_cache", {})
    check_h_caps(150_000)
    warm = build_registry()["h_constants"]
    assert len(calls) == len(sieved)
    monkeypatch.setattr(products, "_primezeta_cache", {})
    assert build_registry()["h_constants"] == warm
    assert len(calls) == 2 * len(sieved)


def test_h_caps_equal_the_mpmath_primezeta_path(monkeypatch):
    # The six enclosures are bit-identical to those built on mpmath's
    # primezeta, the evaluator _prime_zeta replaced.
    monkeypatch.setattr(products, "_primezeta_cache", {})
    ours = [rep.details["enclosure"] for rep in check_h_caps(150_000)]
    monkeypatch.setattr(products, "_prime_zeta", mp.primezeta)
    monkeypatch.setattr(products, "_primezeta_cache", {})
    assert [rep.details["enclosure"] for rep in check_h_caps(150_000)] == ours


def _h_cap_zeta_arguments(exponents):
    with mp.workdps(40):
        return [mp.mpf(e[0]) / 6 + e[1] * mp.mpf(XI) for e in exponents]


@pytest.fixture(scope="module")
def prime_zeta_exponents(h_cap_tail_exponents):
    """The exponent pairs that reach _prime_zeta at a cutoff the package
    uses (every one not a-priori at 10^5, the smallest), then every eighth
    of the others."""
    sieved = [e for e in h_cap_tail_exponents if not _is_a_priori(e, 100_000)]
    rest = [e for e in h_cap_tail_exponents if _is_a_priori(e, 100_000)]
    assert len(sieved) == 23
    return sieved + rest[::8]


def test_prime_zeta_equals_mpmath_primezeta(prime_zeta_exponents):
    # mpmath's primezeta sums mu(k)/k ln zeta(ks) for every k up to 2^-ks
    # < 2^-prec; it is the oracle for the short series.
    with mp.workdps(40):
        for e, s in zip(prime_zeta_exponents, _h_cap_zeta_arguments(prime_zeta_exponents)):
            assert products._prime_zeta(s) == mp.primezeta(s), e


def test_prime_zeta_is_settled_in_its_truncations(prime_zeta_exponents):
    # More primes summed apart and more log-zeta terms move no value: both
    # truncation errors are far below the 40-digit rounding.
    assert products._split_primes(products._PZ_SPLIT)[1] == 101
    with mp.workdps(40):
        for e, s in zip(prime_zeta_exponents, _h_cap_zeta_arguments(prime_zeta_exponents)):
            base = products._prime_zeta(s)
            assert products._prime_zeta(s, split=300) == base, e
            assert products._prime_zeta(s, extra_k=3) == base, e


def test_prime_zeta_rejects_the_pole():
    with pytest.raises(ValueError):
        products._prime_zeta(mp.mpf(1))


def test_sieved_tails_at_32_digits_equal_those_at_40(monkeypatch):
    # Every sieved tail enclosure of check_h_caps(10^5) and (10^7) and of
    # build_registry() is the same pair of floats with P(e) at 40 digits
    # (at 25 digits, 12 of them are not).
    calls = []
    real = products._prime_power_tails
    monkeypatch.setattr(products, "_prime_power_tails", lambda bounds, sums: (
        calls.append((bounds, sums, real(bounds, sums))) or calls[-1][2]))
    check_h_caps(10**5)
    check_h_caps(10**7)
    build_registry()
    assert products._PZ_DIGITS == 32 and len(calls) == 3
    monkeypatch.setattr(products, "_PZ_DIGITS", 40)
    monkeypatch.setattr(products, "_primezeta_cache", {})
    for bounds, sums, tails in calls:
        assert real(bounds, sums) == tails
    assert len(products._primezeta_cache) == 23


@pytest.mark.parametrize("call", [lambda: check_h_caps(150_000), build_registry],
                         ids=["check_h_caps", "build_registry"])
def test_one_pass_per_cutoff_serves_every_product(call, monkeypatch):
    # One pass over the primes per cutoff serves all six H products of the
    # call, and only its finished sums, plain floats, outlive it.
    passes = []
    real = products._partial_products

    def recording(cutoff, local_terms, sum_terms):
        partials, sums = real(cutoff, local_terms, sum_terms)
        passes.append((cutoff, len(partials), [*partials.values(), *sums.values()]))
        return partials, sums

    monkeypatch.setattr(products, "_partial_products", recording)
    call()
    cutoffs = [c for c, _, _ in passes]
    assert len(cutoffs) == len(set(cutoffs)) >= 1
    assert max(n for _, n, _ in passes) == 6
    assert [v for _, _, values in passes for v in values if type(v) is not float] == []


def test_prime_context_memory_within_declared_budget(monkeypatch):
    declared = products._context_bytes(10**6)
    monkeypatch.setenv("MULCM_MEMORY_BUDGET", str(declared))
    tracemalloc.start()
    try:
        check_h_caps(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The declaration holds what the products allocate, not a loose ceiling.
    assert 0.9 * declared <= peak <= declared, (peak, declared)


def test_prime_context_refused_one_byte_below_declared(monkeypatch):
    declared = products._context_bytes(10**6)
    monkeypatch.setenv("MULCM_MEMORY_BUDGET", str(declared - 1))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="prime context"):
            check_h_caps(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Refused once the primes are sieved, before any float array over them.
    assert peak <= sieve._primes_bytes(10**6), peak


def _counting_forks(monkeypatch) -> list:
    """Patch numutil._forked to record the shards of every split pass."""
    calls, real = [], numutil._forked
    monkeypatch.setattr(numutil, "_forked", lambda work, shards: (
        calls.append(shards) or real(work, shards)))
    return calls


@pytest.mark.parametrize("budget, forks", [(0, [2]), (-1, [])], ids=["total", "one-byte-less"])
def test_split_pass_declares_every_process(budget, forks, monkeypatch):
    # Each process of a split pass holds _context_bytes; the caller declares
    # the total before any fork.
    monkeypatch.setattr(numutil, "_usable_cpus", lambda: 2)
    calls = _counting_forks(monkeypatch)
    cutoff = 3 * 10**6
    monkeypatch.setenv("MULCM_MEMORY_BUDGET", str(2 * products._context_bytes(cutoff) + budget))
    if budget < 0:
        with pytest.raises(BudgetError, match="prime context"):
            constant_A(cutoff)
    else:
        constant_A(cutoff)
    assert calls == forks


def _split_pass(cutoff: int) -> tuple[dict, dict]:
    """The pass of check_h_caps' six products plus A, with the tail sums of
    _PASS_TAIL_SUMS at 10^7 and the universal sum."""
    local_terms = {pair: functools.partial(products._h_local, *pair)
                   for pair in products._H_PAIRS}
    local_terms["A"] = lambda p, power, weight: (-2.0 * p + 1.0) / (p * p * p)
    sum_terms = products._tail_routes(_PASS_TAIL_SUMS[10**7], cutoff)[1]
    assert len(sum_terms) == len(_PASS_TAIL_SUMS[10**7])
    sum_terms["universal"] = products._universal_term
    return products._partial_products(cutoff, local_terms, sum_terms)


@pytest.mark.parametrize("cutoff", [3 * 10**6, 10**7])
def test_pass_is_the_same_on_one_two_and_three_shards(cutoff, monkeypatch):
    calls = _counting_forks(monkeypatch)
    results = []
    for shards in (1, 2, 3):
        monkeypatch.setattr(numutil, "_usable_cpus", lambda: shards)
        results.append(_split_pass(cutoff))
    assert calls == [1, 2, 3]
    assert results[1] == results[0] and results[2] == results[0]
    if cutoff == 10**7:
        partials, sums = results[0]
        assert [partials[pair].hex() for pair in products._H_PAIRS] == _PASS_PARTIALS[cutoff]
        assert {e: sums[e].hex() for e in _PASS_TAIL_SUMS[cutoff]} == _PASS_TAIL_SUMS[cutoff]


@pytest.mark.parametrize("odd", [True, False], ids=["worker", "caller"])
def test_an_error_in_either_share_raises_and_leaves_no_child(odd, monkeypatch):
    # With two shards the worker walks the segments of odd index; an error
    # in its share raises in the caller with the worker's traceback text,
    # and an error in the caller's share ends the worker.  Either way every
    # worker is reaped.
    monkeypatch.setattr(numutil, "_usable_cpus", lambda: 2)

    def local(p, power, weight):
        if int(p[0]) // sieve.DEFAULT_SEGMENT % 2 == odd:
            raise ZeroDivisionError(f"segment of {int(p[0])}")
        return -1.0 / (p * p)

    with pytest.raises(ZeroDivisionError) as caught:
        products._partial_products(3 * 10**6, {"x": local}, {})
    cause = str(caught.value.__cause__ or "")
    if odd:
        assert cause.startswith("raised in a forked worker:\nTraceback")
        assert "in local" in cause and "ZeroDivisionError: segment of" in cause
    else:
        assert cause == ""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_prime_context_memory_does_not_grow_with_the_cutoff():
    # The pass holds one segment of primes at a time, so a tenfold cutoff
    # costs time, not memory; an array over all the primes would add 8 B
    # per prime (1.2 MB for the 148 933 primes to 2 * 10^6).
    check_h_caps(2 * 10**5)  # caches the prime zeta values that both cutoffs use
    small = _traced_peak(lambda: check_h_caps(2 * 10**5))
    large = _traced_peak(lambda: check_h_caps(2 * 10**6))
    assert abs(large - small) <= 1 << 20, (small, large)


def _aux_declared(D: int) -> int:
    return products._aux_bytes(len(primes_upto(D)), D)


def test_aux_sweep_memory_within_declared_budget(monkeypatch):
    # "g0*g1" has the most temporaries while f is evaluated, the peak declared.
    D = 2 * 10**6
    declared = _aux_declared(D)
    monkeypatch.setenv("MULCM_MEMORY_BUDGET", str(declared))
    tracemalloc.start()
    try:
        aux_ratio_scan("g0*g1", D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.9 * declared <= peak <= declared, (peak, declared)


def test_aux_sweep_refused_one_byte_below_declared(monkeypatch):
    D = 2 * 10**6
    monkeypatch.setenv("MULCM_MEMORY_BUDGET", str(_aux_declared(D) - 1))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="weighted sums"):
            aux_ratio_scan("g0*g1", D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Refused once the primes are sieved, before f or any block exists.
    assert peak <= sieve._primes_bytes(D), peak


def _aux_values(key: str, D: int) -> np.ndarray:
    """values[d] for d = 0..D (0 at d = 0): the blocks of the sweep joined."""
    return np.concatenate([np.zeros(1)] + [v for _, v in products._aux_blocks(key, D)])


def _aux_values_loop(key: str, D: int) -> np.ndarray:
    vals = np.ones(D + 1, dtype=np.float64)
    vals[0] = 0.0
    square_free = np.ones(D + 1, dtype=bool)
    square_free[0] = False
    for p in primes_upto(D).tolist():
        vals[p:: p] *= (p - 1.0) / p * _scalar_weight(key, float(p))
        if p * p <= D:
            square_free[p * p:: p * p] = False
    vals[~square_free] = 0.0
    return vals


@pytest.mark.parametrize("D", [0, 1, 2, 3, 4, 10, 1000, 99991])
def test_aux_values_equal_prime_loop(D):
    for key in H_CAPS:
        assert np.array_equal(_aux_values(key, D), _aux_values_loop(key, D)), key


@pytest.mark.parametrize("key, digest", [
    ("g0^2", "21e69a84404042fd0df9001454e521220a3d7e113983321fa9d703bf24d997b6"),
    ("g0*g1", "7258982bb0453602f2c4e744148a0fbed74d6d199f92363e74969aa0fbf38ed9"),
    ("g1^2", "829f92e1166bbf19083bdd8a55d818d7584d0dcae427b64f49cdd54f82faabf1"),
])
def test_aux_values_digest_pinned(key, digest):
    # Taken from the pass that products ran itself, before the values came
    # from the shared prime-factor kernel in sieve.
    got = _aux_values(key, 2 * 10**5)
    assert hashlib.sha256(got.tobytes()).hexdigest() == digest


def test_aux_values_digest_pinned_at_1e5():
    # Taken while the prime context cached whole g0 and g1 arrays.
    digests = {
        "g0^2": "1183913265fd2ef5087d4073f22536930562dd6a82004b3ca762ea5aaf08a11f",
        "g0*g1": "e92fec95c16baa2b1dc1c60e6f7ddc256917b8ac009295b5d8f68c85c4c2bfd6",
        "g1^2": "a7e26a6f60fcee843bac1ffed27fc7afefcf614c210bd59ebc2575933af699bb",
    }
    for key, digest in digests.items():
        got = _aux_values(key, 10**5)
        assert hashlib.sha256(got.tobytes()).hexdigest() == digest, key


def test_aux_sum_small():
    assert _aux_values("g0^2", 0).sum() == 0.0
    assert _aux_values("g0^2", 1).sum() == pytest.approx(1.0)
    assert _aux_values("g0^2", 2).sum() == pytest.approx(1.75)  # 1 + (1/2) * 1.5


def test_aux_ratio_argmaxes():
    for key, argmax, cap in (("g0^2", 42, 2.07), ("g0*g1", 7, 1.60),
                             ("g1^2", 3, 1.57)):
        rep = aux_ratio_scan(key, 100_000)
        assert rep.passed, rep.summary_line()
        assert rep.worst_arg == argmax
        assert rep.worst_ratio <= 1.0


def test_aux_asymptotic_desk():
    for key in ("g0^2", "g0*g1", "g1^2"):
        rep = aux_asymptotic_check(key, 200_000)
        assert rep.passed, rep.summary_line()


def test_h_linear_cross_cutoff():
    a = h_linear("g0^2", 200_000)
    b = h_linear("g0^2", 400_000)
    # enclosures of the same limit value must intersect
    assert max(a.lo, b.lo) <= min(a.hi, b.hi)


def test_h_twothirds_cross_cutoff():
    a = h_twothirds("g1^2", 200_000)
    b = h_twothirds("g1^2", 400_000)
    assert max(a.lo, b.lo) <= min(a.hi, b.hi)
    # the deeper cutoff must not widen the bracket
    assert b.width <= a.width


def test_h_local_expansion_encloses_truth():
    # The tail expansion must bound the true local term pointwise: at
    # sampled primes past the cutoff, |a(p) - sum of term monomials| stays
    # inside the remainder monomials.  Checked in 50-digit arithmetic since
    # the direct float evaluation of (p-1)G - p loses more to cancellation
    # than the remainder bound itself.
    p_min = 100_000.0
    all_p = primes_upto(400_000)
    samples = [int(all_p[np.searchsorted(all_p, t)])
               for t in (100_000, 101_000, 250_000)]
    with mp.workdps(50):
        xi = mp.mpf(XI)
        for key in ("g0^2", "g0*g1", "g1^2"):
            for w_shifts, extra in (H1_SHAPE, H23_SHAPE):
                terms, rems = _local_monomials(key, w_shifts, extra, p_min)
                for p in samples:
                    pm = mp.mpf(p)
                    sp = mp.sqrt(pm)
                    g0 = sp / (sp - 1)
                    g1 = pm ** xi / (pm ** xi - 1)
                    G = {"g0^2": g0 * g0, "g0*g1": g0 * g1,
                         "g1^2": g1 * g1}[key]
                    W = (pm - 1) * G - pm
                    truth = mp.fsum(
                        [c * W * pm ** (-(mp.mpf(s[0]) / 6 + s[1] * xi))
                         for c, s in w_shifts]
                        + [c * pm ** (-(mp.mpf(e[0]) / 6 + e[1] * xi))
                           for c, e in extra])
                    series = mp.fsum(
                        c * pm ** (-(mp.mpf(e[0]) / 6 + e[1] * xi))
                        for e, c in terms.items())
                    rem = mp.fsum(
                        r * pm ** (-(mp.mpf(e[0]) / 6 + e[1] * xi))
                        for r, e in rems)
                    assert abs(truth - series) <= rem, (key, w_shifts, p)


def _tail_enclosures(cutoff: int, exponents) -> dict:
    """The prime power tail enclosures past the cutoff, by exponent pair,
    as _h_products builds them: routes, then one pass, then enclosures."""
    bounds, terms = products._tail_routes(exponents, cutoff)
    return _prime_power_tails(bounds, products._partial_products(cutoff, {}, terms)[1])


def test_prime_power_tail_cross_cutoff():
    # Z(e, P1) - Z(e, P2) must equal the sieved sum over P1 < p <= P2.
    es = ((7, 0), (9, 0), (10, 1))
    tails1, tails2 = _tail_enclosures(100_000, es), _tail_enclosures(200_000, es)
    ps2 = primes_upto(200_000).astype(np.float64)
    for e in es:
        e_f = e[0] / 6.0 + e[1] * XI
        z1, z2 = tails1[e], tails2[e]
        mid = math.fsum(np.power(ps2[ps2 > 100_000.0], -e_f).tolist())
        assert z1.lo - z2.hi - 1e-12 <= mid <= z1.hi - z2.lo + 1e-12


@pytest.fixture(scope="module")
def h_caps_with_tail_exponents():
    """check_h_caps at 10^5, 1.5 * 10^5 and 10^7, by cutoff: a list of
    (report, the exponent pairs of its prime power tails), the pairs from
    the monomials of its log-tail (products._log_tail_terms)."""
    shapes = {"H1": H1_SHAPE, "H23": H23_SHAPE}
    out = {}
    for cutoff in (100_000, 150_000, 10_000_000):
        seen = []
        for label, key in products._H_PAIRS:
            terms, rems = products._log_tail_terms(key, *shapes[label], float(cutoff))
            seen.append(sorted(set(terms) | {e for _, e in rems}, key=products._expo_float))
        out[cutoff] = list(zip(check_h_caps(cutoff), seen, strict=True))
    return out


@pytest.fixture(scope="module")
def h_cap_tail_exponents(h_caps_with_tail_exponents):
    """The exponent pairs whose prime power tails check_h_caps(10^5) uses."""
    seen = {e for _, es in h_caps_with_tail_exponents[100_000] for e in es}
    return sorted(seen, key=products._expo_float)


# check_h_caps enclosures with every prime power tail on the sieved route,
# as float.hex (lo, hi) in report order; the a-priori route only narrows them.
_SIEVED_ONLY_ENCLOSURES = {
    100_000: [
        ("0x1.000aa32ccde31p+1", "0x1.000aa32d1339cp+1"),
        ("0x1.235926de18203p+6", "0x1.23592809c3f2bp+6"),
        ("0x1.55e9e49edec2ep+0", "0x1.55e9e49f41f93p+0"),
        ("0x1.74acac678782bp+4", "0x1.74acacd56e1ecp+4"),
        ("0x1.1024d2dd19b12p+0", "0x1.1024d2dd9a846p+0"),
        ("0x1.26411c8282c81p+3", "0x1.26411c8459f71p+3"),
    ],
    150_000: [
        ("0x1.000aa32ccde86p+1", "0x1.000aa32d08c0dp+1"),
        ("0x1.235926df433b6p+6", "0x1.23592786bc580p+6"),
        ("0x1.55e9e49eded2fp+0", "0x1.55e9e49f3e6dfp+0"),
        ("0x1.74acac684b890p+4", "0x1.74acaca553f06p+4"),
        ("0x1.1024d2dd19c48p+0", "0x1.1024d2dd9a712p+0"),
        ("0x1.26411c828be91p+3", "0x1.26411c83b1178p+3"),
    ],
    10_000_000: [
        ("0x1.000aa32ccdf9cp+1", "0x1.000aa32d00cd0p+1"),
        ("0x1.235926e087ebbp+6", "0x1.235926e15e317p+6"),
        ("0x1.55e9e49ee05e2p+0", "0x1.55e9e49f3a41cp+0"),
        ("0x1.74acac692117cp+4", "0x1.74acac69ab2fdp+4"),
        ("0x1.1024d2dd1f207p+0", "0x1.1024d2dd9514ep+0"),
        ("0x1.26411c8295940p+3", "0x1.26411c830f64dp+3"),
    ],
}


def test_h_caps_nest_in_the_sieved_only_enclosures(h_caps_with_tail_exponents):
    for cutoff, pins in _SIEVED_ONLY_ENCLOSURES.items():
        reports = [rep for rep, _ in h_caps_with_tail_exponents[cutoff]]
        assert [rep.passed for rep in reports] == [True] * 4 + [False, True]
        for rep, (lo, hi) in zip(reports, pins, strict=True):
            enc = rep.details["enclosure"]
            assert float.fromhex(lo) <= enc["lo"], (cutoff, rep.name)
            assert enc["hi"] <= float.fromhex(hi), (cutoff, rep.name)


# check_h_caps enclosures as float.hex (lo, hi), then the tail route counts
# (prime_zeta, a_priori), in report order, as the whole-array partial
# products gave them.
_H_CAP_PINS = {
    100_000: [
        ("0x1.000aa32ce3f70p+1", "0x1.000aa32d018c0p+1", 3, 8),
        ("0x1.235926de42c42p+6", "0x1.23592809ad82ep+6", 8, 19),
        ("0x1.55e9e49f03870p+0", "0x1.55e9e49f20256p+0", 8, 31),
        ("0x1.74acac67b4637p+4", "0x1.74acacd551486p+4", 10, 32),
        ("0x1.1024d2dd4c8b8p+0", "0x1.1024d2dd68d54p+0", 5, 18),
        ("0x1.26411c82b54c7p+3", "0x1.26411c842dd06p+3", 8, 24),
    ],
    10_000_000: [
        ("0x1.000aa32ce62d8p+1", "0x1.000aa32cecff6p+1", 2, 9),
        ("0x1.235926e0b279bp+6", "0x1.235926e142a9ap+6", 6, 21),
        ("0x1.55e9e49f074a3p+0", "0x1.55e9e49f16458p+0", 5, 34),
        ("0x1.74acac694deaap+4", "0x1.74acac698995ep+4", 7, 35),
        ("0x1.1024d2dd55e49p+0", "0x1.1024d2dd5f7bfp+0", 2, 21),
        ("0x1.26411c82cb4d0p+3", "0x1.26411c82dec0bp+3", 5, 27),
    ],
}


def test_h_cap_enclosures_are_pinned(h_caps_with_tail_exponents):
    for cutoff, pins in _H_CAP_PINS.items():
        got = []
        for rep, _ in h_caps_with_tail_exponents[cutoff]:
            enc, tails = rep.details["enclosure"], rep.details["tails"]
            got.append((enc["lo"].hex(), enc["hi"].hex(),
                        tails["prime_zeta"], tails["a_priori"]))
        assert got == pins, cutoff


def test_registry_digest_is_pinned():
    text = json.dumps(build_registry(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "bc79f030aa70f1205a078471d27214f8dde2f97aafc0970f447a2439a986b1cf")


def test_registry_recipes_give_the_frozen_enclosures():
    # Each "source" recipe, run in mulcm.products, reproduces the frozen
    # constant it names and the enclosure the registry records for it.
    recipes = {name: entry for name, entry in build_registry().items()
               if isinstance(entry, dict) and "source" in entry}
    assert sorted(recipes) == ["A", "ktail_product"]
    for name, entry in recipes.items():
        frozen, recipe = entry["source"].removeprefix("frozen products.").split(" = ")
        got = eval(recipe, vars(products))
        assert got == getattr(products, frozen), name
        assert got.to_dict() == entry["enclosure"], name


# The partial products, in product order, and the sieved prime power tail
# partials sum_{p <= cutoff} p^(-e), by exponent pair, as float.hex: what
# the whole-array sums over all the primes gave for check_h_caps(10^5) and
# (10^7) and for build_registry() (A_check at 200 000, then the six H
# products at 10^5, equal to check_h_caps(10^5)'s).
_PASS_PARTIALS = {
    100_000: ["0x1.ff987511cc790p+0", "0x1.03ec2c290f598p+6", "0x1.55c03555bbf03p+0",
              "0x1.5f2eb1784f958p+4", "0x1.1024c28f29a32p+0", "0x1.24de923d82ca6p+3"],
    10_000_000: ["0x1.00060378f9946p+1", "0x1.17fb419d36418p+6", "0x1.55e6ce36499c2p+0",
                 "0x1.6d32304b605e7p+4", "0x1.1024d2af91a91p+0", "0x1.2608c6f77629ep+3"],
    200_000: ["0x1.b6871fafa70e1p-2"],
}
_PASS_TAIL_SUMS = {
    100_000: {
        (4, 1): "0x1.68d9ab195138cp-1", (4, 2): "0x1.00bb545bd4761p-2",
        (6, 1): "0x1.e1e28eed8c8a8p-2", (6, 2): "0x1.7d1759ad10f57p-3",
        (7, 0): "0x1.9d44d65fc016bp+0", (7, 1): "0x1.931e2c1ed974bp-2",
        (7, 2): "0x1.4a1e3668abcf0p-3", (8, 0): "0x1.1f9de50453dacp+0",
        (8, 1): "0x1.549a48959d72ap-2", (9, 0): "0x1.b2bb81196d1c6p-1",
        (9, 1): "0x1.21f94205228cfp-2", (10, 0): "0x1.57e70389ad6d0p-1",
        (10, 1): "0x1.f0b144320277ep-3", (11, 0): "0x1.17a65bcf7611cp-1",
        (11, 1): "0x1.ab6fc97059f01p-3", (12, 0): "0x1.cf19bcc492ed4p-2",
        (12, 1): "0x1.714aca8398161p-3", (13, 0): "0x1.84579f76a4d76p-2",
        (14, 0): "0x1.48b7222bce0ccp-2", (15, 0): "0x1.183fc34f26ce2p-2",
        (16, 0): "0x1.e093d22cb7c8ep-3", (17, 0): "0x1.9df3294e32c9ap-3",
        (18, 0): "0x1.65e9f462afe9bp-3",
    },
    10_000_000: {
        (4, 1): "0x1.68e48235a10ccp-1", (6, 1): "0x1.e1e2e2b659b45p-2",
        (7, 0): "0x1.a64698557e04fp+0", (7, 1): "0x1.931e36c4627abp-2",
        (8, 0): "0x1.209a9eb8b3ad9p+0", (8, 1): "0x1.549a49f5dad5cp-2",
        (9, 0): "0x1.b2f541d7d5cc8p-1", (9, 1): "0x1.21f94233499abp-2",
        (10, 0): "0x1.57edda80e2da2p-1", (11, 0): "0x1.17a7317b9e8aep-1",
        (12, 0): "0x1.cf19f2366e97bp-2", (13, 0): "0x1.8457a64825556p-2",
        (14, 0): "0x1.48b7230e1e0f9p-2", (15, 0): "0x1.183fc36ce1fa7p-2",
    },
    200_000: {},
}
# sha256 of the repr of the six check_h_caps(10^7) reports, as the
# whole-array sums gave them.
_H_CAP_REPORTS_DIGEST = "12266b88e23184f6d192ca3756ee65c710f75e0f7ee2a5f835c38c4802e331ad"


def test_pass_partials_are_pinned():
    seen = []
    real = products._partial_products

    def spy(cutoff, local_terms, sum_terms):
        partials, sums = real(cutoff, local_terms, sum_terms)
        seen.append((cutoff, [v.hex() for v in partials.values()],
                     {e: v.hex() for e, v in sums.items()}))
        return partials, sums

    universal_log_sum()  # cached: the registry's passes below are its products'
    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(products, "_partial_products", spy)
        check_h_caps(10**5)
        reports = check_h_caps(10**7)
        build_registry()
    assert [c for c, _, _ in seen] == [10**5, 10**7, 200_000, 10**5]
    for cutoff, partials, sums in seen:
        assert partials == _PASS_PARTIALS[cutoff], cutoff
        assert sums == _PASS_TAIL_SUMS[cutoff], cutoff
    digest = hashlib.sha256(repr(reports).encode()).hexdigest()
    assert digest == _H_CAP_REPORTS_DIGEST


def _theorem_table_digest() -> str:
    table = theorem_table()
    rows = [[r["W"], r["err_sum"], r["main"]] for row in table["rows"] for r in row["per_j"]]
    rows += [[row["main"], row["remainder"], row["bound"]] for row in table["rows"]]
    return hashlib.sha256(np.array(rows, dtype=np.float64).tobytes()).hexdigest()


_CHILD_DIGESTS = """
import hashlib
import numpy as np
from mulcm.assembly import theorem_table
from mulcm.products import c_q_prerewrite, check_h_caps, check_prime_tail, universal_log_sum
print(np.show_config(mode="dicts")["SIMD Extensions"].get("found", []))
for rep in (check_prime_tail(3_000_000), check_h_caps(10**5)):
    print(hashlib.sha256(repr(rep).encode()).hexdigest())
print(universal_log_sum().lo.hex())
for q in (1, 2, 6):
    print(c_q_prerewrite(q).lo.hex())
""" + inspect.getsource(_theorem_table_digest) + """
print(_theorem_table_digest())
"""


def test_pinned_reports_do_not_depend_on_the_simd_level():
    # A child interpreter with every SIMD extension numpy found above its
    # baseline switched off, as well as those already switched off here,
    # gives the same reports and the same assembled bound: the powers, logs
    # and roots they pin are libm's and their sums are exact or in a fixed
    # order.
    found = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
    if not found:
        pytest.skip("numpy found no SIMD extension above its baseline")
    src = str(pathlib.Path(products.__file__).resolve().parents[1])
    off = " ".join([*found, os.environ.get("NPY_DISABLE_CPU_FEATURES", "")])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=off.strip(),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", _CHILD_DIGESTS], env=env,
                           capture_output=True, text=True, timeout=120, check=True)
    child_found, *child_digests = child.stdout.split("\n")[:8]
    assert child_found == "[]", child.stdout
    assert child_digests == [hashlib.sha256(repr(rep).encode()).hexdigest()
                             for rep in (check_prime_tail(3_000_000), check_h_caps(10**5))] + [
        universal_log_sum().lo.hex(), *(c_q_prerewrite(q).lo.hex() for q in (1, 2, 6)),
        _theorem_table_digest()]


def _is_a_priori(e, cutoff: int) -> bool:
    return products._a_priori_tail(products._expo_float(e), cutoff) <= products._TAIL_PAD


def test_h_cap_reports_count_the_tail_routes(h_caps_with_tail_exponents):
    # details["tails"] splits each product's exponents by the route rule.
    for cutoff, rows in h_caps_with_tail_exponents.items():
        for rep, es in rows:
            n = sum(_is_a_priori(e, cutoff) for e in es)
            assert rep.details["tails"] == {"prime_zeta": len(es) - n, "a_priori": n}
    every = {e for _, es in h_caps_with_tail_exponents[10_000_000] for e in es}
    assert len(every) == 132
    assert sum(not _is_a_priori(e, 10_000_000) for e in every) == 14


@pytest.mark.parametrize("cutoff", [100_000, 150_000])
def test_a_priori_tails_sum_nothing(cutoff, h_cap_tail_exponents, monkeypatch):
    # An exponent whose a-priori bound is under the pad reaches neither
    # _prime_zeta nor the sieved partial sum; every other one reaches both.
    monkeypatch.setattr(products, "_primezeta_cache", {})
    calls = []
    real_zeta, real_pass = products._prime_zeta, products._partial_products
    monkeypatch.setattr(products, "_prime_zeta",
                        lambda s: calls.append("_prime_zeta") or real_zeta(s))
    monkeypatch.setattr(products, "_partial_products", lambda cutoff, terms, sums: (
        calls.extend(["sieved sum"] * len(sums)) or real_pass(cutoff, terms, sums)))
    for e in h_cap_tail_exponents:
        calls.clear()
        bounds, terms = products._tail_routes([e], cutoff)
        tails = _prime_power_tails(bounds, products._partial_products(cutoff, {}, terms)[1])
        bound = products._a_priori_tail(products._expo_float(e), cutoff)
        assert bounds == {e: bound}
        if bound <= products._TAIL_PAD:
            assert tails[e] == CertifiedValue(0.0, bound) and calls == [], e
            assert terms == {}
        else:
            assert sorted(calls) == ["_prime_zeta", "sieved sum"], e
            assert list(terms) == [e]


def test_tail_routes_are_decided_once_per_exponent(h_cap_tail_exponents, monkeypatch):
    # check_h_caps(10^5) takes one a-priori bound per distinct exponent of
    # its six products' tails (132), not one per product that uses it (306).
    calls = []
    real = products._a_priori_tail
    monkeypatch.setattr(products, "_a_priori_tail",
                        lambda e_f, cutoff: calls.append(e_f) or real(e_f, cutoff))
    check_h_caps(10**5)
    assert len(calls) == len(set(calls)) == len(h_cap_tail_exponents) == 132


@pytest.mark.parametrize("cutoff", [100_000, 150_000])
def test_a_priori_tails_contain_the_prime_zeta_tail(cutoff, h_cap_tail_exponents):
    # Z(e) = P(e) - sum_{p <= N} p^(-e) from mpmath's primezeta at 40 digits.
    # The primes up to N/100 are summed at 40 digits too; the rest, each
    # under (N/100)^(-e), in floats at the float nearest e, within
    # 2u (1 + e ln N) of their sum.  Z/B between 0.05 and 0.95 is what
    # nests [0, B] in the sieved enclosure (_prime_power_tails).
    ps = primes_upto(cutoff).tolist()
    split = bisect.bisect_right(ps, cutoff // 100)
    checked = 0
    with mp.workdps(40):
        for e in h_cap_tail_exponents:
            e_mp = mp.mpf(e[0]) / 6 + e[1] * mp.mpf(XI)
            if e_mp > 6 or not _is_a_priori(e, cutoff):
                continue
            e_near = float(e_mp)
            rest = math.fsum(math.pow(p, -e_near) for p in ps[split:])
            err = 2.0 * 2.0 ** -53 * (1.0 + e_near * math.log(cutoff)) * rest
            z = mp.primezeta(e_mp) - mp.fsum(mp.mpf(p) ** -e_mp for p in ps[:split]) - rest
            hi = _tail_enclosures(cutoff, [e])[e].hi
            assert z + err <= hi, e
            assert 0.05 <= z / hi <= 0.95, e
            checked += 1
    assert checked >= 50


def test_prime_power_tail_sums_take_the_fast_path(h_cap_tail_exponents, monkeypatch):
    # Every tail partial is a sum of positive terms in the extraction's
    # range, so fsum_array extracts it without the math.fsum early-out, and
    # the streamed sum of the pass equals math.fsum of all its terms.
    fallbacks = []
    real = numutil._fsum
    monkeypatch.setattr(numutil, "_fsum", lambda x: fallbacks.append(x.size) or real(x))
    assert len(h_cap_tail_exponents) == 132
    ps = primes_upto(100_000).astype(np.float64)
    sum_terms = products._tail_routes(h_cap_tail_exponents, 100_000)[1]
    sums = products._partial_products(100_000, {}, sum_terms)[1]
    assert len(sums) == 23
    for e in h_cap_tail_exponents:
        terms = np.power(ps, -products._expo_float(e))
        exact = math.fsum(terms.tolist())
        assert fsum_array(terms) == exact, e
        assert sums.get(e, exact) == exact, e
    assert fallbacks == []


def test_prime_power_tail_pad_covers_the_float_partial(h_cap_tail_exponents):
    # The float partial behind each tail enclosure is far inside the pad
    # derived in _prime_power_tails: within 1e-3 of it of the 40-digit sum.
    es = h_cap_tail_exponents
    ps = primes_upto(100_000).astype(np.float64)
    for e in (es[0], es[len(es) // 2], es[-1]):
        assert min(e) >= 0, e
        partial = fsum_array(np.power(ps, -products._expo_float(e)))
        with mp.workdps(40):
            e_mp = mp.mpf(e[0]) / 6 + e[1] * mp.mpf(XI)
            exact = mp.fsum(mp.mpf(int(p)) ** -e_mp for p in ps)
            z = mp.primezeta(e_mp) - exact
            pad = 1e-12 * abs(z) + 1e-12
            assert abs(mp.mpf(partial) - exact) <= 1e-3 * pad, e


def test_h_caps_all_decided():
    # Every enclosure must land entirely on one side of its cap, and the
    # only one above is H(1) for the g1^2 weight.
    reports = check_h_caps(150_000)
    above = []
    for rep in reports:
        enc = rep.details["enclosure"]
        assert enc["hi"] < rep.bound or enc["lo"] > rep.bound, rep.name
        if enc["lo"] > rep.bound:
            above.append(rep.name)
        assert rep.passed == (enc["hi"] < rep.bound)
    assert above == ["h-cap-H1(g1^2)"]


@pytest.mark.parametrize("call", [h_linear, h_twothirds])
def test_h_products_refuse_cutoffs_past_fslack(call):
    # The running error bound is checked up to 10^7 (6.9e-14 against FSLACK)
    # and grows with the cutoff, so a deeper cutoff is refused.
    assert products.FSLACK_MAX_CUTOFF == 10**7
    with pytest.raises(ValueError, match="FSLACK"):
        call("g0^2", 10**7 + 1)


def _is_squarefree(n: int) -> bool:
    from mulcm.sieve import factorize
    return all(e == 1 for _, e in factorize(n))


_squarefree = st.integers(min_value=1, max_value=10 ** 5).filter(_is_squarefree)


@given(q1=_squarefree, q2=_squarefree)
@settings(max_examples=60, deadline=None)
def test_j_star_multiplicative(q1, q2):
    if math.gcd(q1, q2) != 1:
        return
    assert j1_star(q1 * q2) == pytest.approx(j1_star(q1) * j1_star(q2),
                                             rel=1e-12)
    assert j5_star(q1 * q2) == pytest.approx(j5_star(q1) * j5_star(q2),
                                             rel=1e-12)


def test_p0_matches_cubic_tail_sum():
    # P0 = prod_p (1 - 1/p^2 + 1/p^3) is also sum_k mu(k) phi(k)/k^3.
    from mulcm.gstar import aux_k_sum
    s = aux_k_sum(1.0, 1)
    assert s.lo - 1e-9 <= P0_DEEP.mid <= s.hi + 1e-9
