"""Certified Euler products, prime tail bounds, and the constants registry.

The tail machinery turns a finite product or sum over primes into a certified
enclosure: the partial value plus an explicit bound on everything beyond the
cutoff.  Tail bounds on sums of f(p) log p use an effective prime number
theorem inequality whose constant depends on where the tail starts; tails
without the log weight go through f(t)/log t.

Every Euler product, and every sum over the primes behind an enclosure,
comes from one pass (_partial_products), which a public call makes once
per cutoff.  The call hands it, by name, the local terms of its products
and the terms of its sums (the sieved prime power tails, the universal sum
behind c_q); the pass walks the primes a segment at a time
(sieve._prime_segments) and keeps only the finished sums: no array over
all the primes exists.  Terms are array expressions over a block of
primes, with the libm powers and the weights G(p) computed once per block,
in the same float operations and order as a per-prime loop.  The log
terms of each product and the terms of each sum feed their own exact sum
(numutil._ExactSum), so each partial is the correctly rounded sum over all
the primes, whatever the blocks, and the partial products are
bit-identical to a per-prime loop.

Every product (A and P0 in _cubic_products, the weight products in
_h_products) is its partial product times the exponential of a log-tail
enclosure, widened by FSLACK (_enclose).  The weight products' log-tails
are sums of monomial tails Z(e) = sum_{p > cutoff} p^(-e)
(_prime_power_tails): Z(e) is [0, B(e)] when the a-priori bound B(e) of
prime_tail_bound is at most _TAIL_PAD, the absolute float allowance of the
other route, and otherwise the 32-digit prime zeta value P(e) minus the
sieved partial sum; each exponent's route is decided once, before the
pass (_tail_routes).  A_DEEP and P0_DEEP, frozen here, are _cubic_products
at cutoff 1e8, which a test recomputes; everything else is recomputed on
demand at documented cutoffs.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from . import numutil
from .numutil import (
    _SWEEP_BLOCK, _ExactSum, _RunningMax, _RunningSum, _blocks, check_allocation,
    libm_power, quad_log,
)
from .report import BoundReport, CertifiedValue
from .sieve import (
    DEFAULT_SEGMENT, _prime_count_bound, _prime_factor_bytes, _prime_factor_product,
    _prime_segments, _squarefree_divisors, primes_upto, require_squarefree,
)
from .mertens import XI, _g0_at, _g1_at

EULER_GAMMA = float(np.euler_gamma)

# Effective bound: for P >= 2, sum_{p >= P} f(p) log p
#   <= (1 + EPS) * int_P^inf f + EPS * P f(P) + C * P f(P) / log^2 P
# with C = 1/5 from STRONG_MIN_P on ("strong" mode) and C = 4 below it ("weak").
EPS_PNT = 1.0 / 914.0
STRONG_MIN_P = 3_600_000.0
WEAK_MIN_P = 2.0
# Decay exponent assumed past the last quadrature window (_integral_to_infinity).
_TAIL_SIGMA = 2.0

# ----------------------------------------------------------------------
# Frozen deep constants, _cubic_products([2.0, 1.0], 10**8) (about 0.7 s and
# 39 MB peak RSS); tests/test_products.py recomputes both and requires equality.
# A    = prod_p (1 - 2/p^2 + 1/p^3) = constant_A(10**8); the leading density constant.
# P0   = prod_p (1 - 1/p^2 + 1/p^3); the k-tail product over all primes.
A_DEEP = CertifiedValue(0.42824950567569925, 0.4282495061192267)
P0_DEEP = CertifiedValue(0.7485352596811069, 0.7485352600688014)


def prime_tail_bound(f, P: float, integral: float | None = None) -> float:
    """Upper bound for sum over primes p >= P of f(p) log p, for P >= 2.

    f must be nonnegative and decreasing on [P, infinity).  `integral` may
    supply the exact value of int_P^inf f(t) dt; otherwise it is computed by
    windowed quadrature plus a power-law remainder that assumes
    f(t) <= f(Q) (Q/t)^2 beyond the last window edge Q.  The strong-mode
    constant applies from P = STRONG_MIN_P on, the weak-mode one below it.
    """
    if P < WEAK_MIN_P:
        raise ValueError(f"the prime tail bound needs P >= {WEAK_MIN_P}, got {P}")
    c_last = 0.2 if P >= STRONG_MIN_P else 4.0
    if integral is None:
        integral = _integral_to_infinity(f, P)
    fP = f(P)
    if fP < 0:
        raise ValueError("f must be nonnegative at P")
    logP = math.log(P)
    return (1.0 + EPS_PNT) * integral + EPS_PNT * P * fP + c_last * P * fP / (logP * logP)


def _integral_to_infinity(f, P: float) -> float:
    """Upper estimate of int_P^inf f, by windowed quadrature plus remainder.

    The remainder past Q = 1e6 * P assumes f(t) <= f(Q) (Q/t)^_TAIL_SIGMA
    there, which holds for the power-times-slowly-varying integrands used here.
    """
    edges = [P, 10 * P, 100 * P, 1e4 * P, 1e6 * P]
    terms = []
    for a, b in zip(edges, edges[1:]):
        v, e = quad_log(f, a, b, tol=1e-13 * max(1.0, f(a) * a))
        terms += [v, abs(e)]
    Q = edges[-1]
    terms.append(f(Q) * Q / (_TAIL_SIGMA - 1.0))
    return math.fsum(terms)


def tail_sum_over_primes(f, P: float) -> float:
    """Upper bound for sum over primes p >= P of f(p) (no log weight).

    Writes f(p) = (f(p)/log p) * log p and applies prime_tail_bound to
    h(t) = f(t)/log t, which is still nonnegative decreasing when f is.
    """
    h = lambda t: f(t) / math.log(t)
    return prime_tail_bound(h, P)


def check_prime_tail(cutoff: int = 30_000_000) -> BoundReport:
    """Desk validation of the prime tail estimate against exact partial sums.

    For f(t) = t^(-a), a in {1.5, 2}, and a grid of cut points P spanning
    both modes, the exact sum of f(p) log p over primes P <= p <= cutoff is
    compared to prime_tail_bound(f, P).  The partial sum is a lower bound
    for the infinite sum, so partial <= bound is a necessary condition; the
    uncaptured remainder beyond the cutoff only makes the check more lenient
    and is reported per row as the captured integral fraction.

    The primes are walked in numutil._blocks from the last block down, with
    a running sum (_RunningSum) per exponent over each reversed block: the
    adds of np.cumsum over all the reversed terms, in the same order, so
    each partial is read bit for bit as its block passes.  The logs and
    powers are libm's (math.log, libm_power), whatever numpy's SIMD level.
    """
    primes = primes_upto(cutoff)
    grid = [10.0, 1e3, 1e5, 3.7e6, 1e7]
    exponents = (1.5, 2.0)
    # The index of the first prime >= P; the partial past the last prime is 0.
    first = {P: int(np.searchsorted(primes, math.ceil(P), side="left")) for P in grid}
    partials = dict.fromkeys(itertools.product(exponents, grid), 0.0)
    suffix_sums = {a: _RunningSum() for a in exponents}
    for lo, hi in reversed(list(_blocks(0, len(primes)))):
        ps = primes[lo:hi].astype(np.float64)
        logs = np.fromiter(map(math.log, memoryview(ps)), np.float64, len(ps))
        for a in exponents:
            weighted = logs / libm_power(ps, a)
            suffix = suffix_sums[a].cumsum(weighted[::-1])[::-1]
            for P, i in first.items():
                if lo <= i < hi:
                    partials[a, P] = float(suffix[i - lo])
    worst = _RunningMax(0.0)
    rows = []
    for (a, P), partial in partials.items():
        exact_integral = P ** (1.0 - a) / (a - 1.0)
        bound = prime_tail_bound(lambda t: t ** -a, P, integral=exact_integral)
        captured = 1.0 - (cutoff / P) ** (1.0 - a)
        ratio = partial / bound
        mode = "strong" if P >= STRONG_MIN_P else "weak"
        rows.append({"a": a, "P": P, "mode": mode, "partial": partial,
                     "bound": bound, "ratio": ratio,
                     "captured_integral_fraction": captured})
        worst.offer(ratio, (a, P))
    return BoundReport.held_to(
        "prime-tail-estimate",
        f"f(t)=t^-a, a in (1.5, 2), P grid to 1e7, primes to {cutoff:g}",
        worst, {"rows": rows})


# Traced peak of one block of the pass (_partial_products), per prime of the
# block: its primes as int64 and float64, three libm powers (np.float_power
# writes each into one new array, with no temporary), three weights, up to
# four temporaries of a local term (numpy elides none below 2^15 floats),
# its log1p and the two buffers of _ExactSum; the next segment is sieved
# while 64 B of them are held.  The fixed part covers the base primes
# (44 KB at 10^8) and the per-product objects (prime zeta values, reports).
_CONTEXT_BYTES_PER_PRIME = 96
_CONTEXT_FIXED_BYTES = 128 << 10
# From this cutoff on (nine segments) the pass is split across processes;
# below it the forks would cost more than they save.
_SHARD_MIN_CUTOFF = 8 * DEFAULT_SEGMENT


def _context_bytes(cutoff: int) -> int:
    """Declared peak memory of one process of the pass (_partial_products)
    to cutoff: one block, at most one segment's primes
    (sieve._prime_segments), whatever the cutoff, and the fixed part."""
    return (_CONTEXT_BYTES_PER_PRIME * _prime_count_bound(min(cutoff, DEFAULT_SEGMENT))
            + _CONTEXT_FIXED_BYTES)


def _weight(key: str, ps: np.ndarray, power) -> np.ndarray:
    """G(p) at the primes ps for the weight named by key: "g0^2", "g0*g1",
    or "g1^2", from the envelope factors g0(p) (mertens._g0_at) and g1(p)
    (mertens._g1_at); power(XI) gives p^XI at ps."""
    if key == "g0^2":
        g0 = _g0_at(ps)
        return g0 * g0
    if key == "g0*g1":
        return _g0_at(ps) * _g1_at(ps, power(XI))
    if key == "g1^2":
        g1 = _g1_at(ps, power(XI))
        return g1 * g1
    raise ValueError(f"unknown weight {key!r}")


def _partial_products(cutoff: int, products: dict, sums: dict) -> tuple[dict, dict]:
    """({name: prod_{p <= cutoff} (1 + local(p))}, {name: sum_{p <= cutoff}
    term(p)}) for the local terms of products and the terms of sums, by
    name, from one pass over the prime segments (sieve._prime_segments).

    local(ps, power, weight) and term(ps, power, weight) map a block of
    primes ps (float64) to their values there; power(e) is p^e at ps by
    libm pow (numutil.libm_power) and weight(key) is G at ps (_weight),
    each computed once per block.  Each product's log1p terms and each
    sum's terms feed their own exact sum (numutil._ExactSum), rounded once
    as over one array of all the terms.

    From _SHARD_MIN_CUTOFF on, the segments are dealt to one shard per
    usable CPU (numutil._forked), each process declaring _context_bytes;
    the caller appends the parts of the workers' exact sums to its own, so
    every result is the same float for any number of shards.
    """
    if not products and not sums:
        return {}, {}
    shards = numutil._usable_cpus() if cutoff >= _SHARD_MIN_CUTOFF else 1
    check_allocation(shards * _context_bytes(cutoff), f"prime context to {cutoff}")

    def walk(shard):
        logs = {name: _ExactSum() for name in products}
        totals = {name: _ExactSum() for name in sums}
        for primes in _prime_segments(cutoff, shard, shards):
            ps = primes.astype(np.float64)
            power = functools.cache(functools.partial(libm_power, ps))
            weight = functools.cache(functools.partial(_weight, ps=ps, power=power))
            for name, local in products.items():
                logs[name].add(np.log1p(local(ps, power, weight)))
            for name, term in sums.items():
                totals[name].add(term(ps, power, weight))
        return logs, totals

    (logs, totals), *others = numutil._forked(walk, shards)
    for share in others:
        for mine, theirs in zip((logs, totals), share):
            for name, total in mine.items():
                total.parts += theirs[name].parts
    return ({name: math.exp(total.value()) for name, total in logs.items()},
            {name: total.value() for name, total in totals.items()})


# Relative cushion on every product enclosure (_enclose) for the float error
# of its partial product exp(sum log1p(x)) (_partial_products).  If e_i u
# (u = 2^-53) bounds the error of the computed local term x_i then, to first
# order, log1p moves by e_i u / (1 + x_i) and rounds within 4 ulps (numpy's
# SIMD log1p is not libm's), the exact sum rounds once, and the two exp (1 ulp
# each), two products and 1 -/+ FSLACK add under 8u, so the relative error is
#     u (sum_i e_i / (1 + x_i) + 9 sum_i |log1p x_i| + 8).
# e_i is a few |x_i| for A and P0; the weight products cancel in
# W = (p-1) G - p, where e_i is about 9 (p-1) G p^-s.  tests/test_products.py
# evaluates e_i by running error analysis for every product of
# check_h_caps(10^5) and (10^7), build_registry() and the frozen constants;
# the largest bound, Hbar(2/3) of g0^2 at 10^7, is 6.9e-14.  The weight
# products' bound grows like cutoff^(1/3) / log cutoff, so _h_products refuses
# cutoffs past FSLACK_MAX_CUTOFF, the deepest one it was checked at.
FSLACK = 1e-13
FSLACK_MAX_CUTOFF = 10_000_000


def _enclose(partial: float, log_lo: float, log_hi: float) -> CertifiedValue:
    """[partial exp(log_lo), partial exp(log_hi)], widened by FSLACK."""
    return CertifiedValue(partial * math.exp(log_lo) * (1.0 - FSLACK),
                          partial * math.exp(log_hi) * (1.0 + FSLACK))


def _cubic_products(cs, cutoff: int) -> list[CertifiedValue]:
    """Enclosures of prod_p (1 - c/p^2 + 1/p^3) over all primes for each c in
    cs (c in {1, 2}), from one pass to cutoff (_partial_products).

    Past the cutoff each factor is 1 - x_p with 0 < x_p < c/p^2 <= c/cutoff^2,
    and -log(1 - x) <= x / (1 - x), so the tail factor lies in [exp(-T), 1]
    with T the sum over p > cutoff of (c/p^2) / (1 - c/cutoff^2), bounded by
    tail_sum_over_primes.
    """
    partials, _ = _partial_products(
        cutoff, {c: lambda p, power, weight, c=c: (-c * p + 1.0) / (p * p * p) for c in cs}, {})
    out = []
    for c in cs:
        shrink = 1.0 - c / (cutoff * cutoff)
        tail = tail_sum_over_primes(lambda t: c / (t * t) / shrink, float(cutoff))
        out.append(_enclose(partials[c], -tail, 0.0))
    return out


def constant_A(cutoff: int = 2_000_000) -> CertifiedValue:
    """Enclosure of A = prod_p (1 - 2/p^2 + 1/p^3) at a chosen cutoff.

    Any cutoff >= 2 works; larger cutoffs tighten the bracket.
    """
    return _cubic_products([2.0], cutoff)[0]


# ----------------------------------------------------------------------
# The three envelope weights G (_weight) and their
# Dirichlet-series constants.

# Caps asserted for the constants below: (H(1) cap, Hbar(2/3) cap).
H_CAPS = {"g0^2": (2.0004, 72.9), "g0*g1": (1.34, 23.4), "g1^2": (1.06, 9.20)}
# The six H products (label, key) in the order of the caps.
_H_PAIRS = [(label, key) for key in H_CAPS for label in ("H1", "H23")]

# The H products need enclosure widths around 1e-8 to decide the caps above,
# far beyond what a monotone upper-bound tail can give (those shrink like
# cutoff^(-1/6) for Hbar(2/3)).  Instead, for p past the cutoff the log of
# each local factor is expanded into monomials c * p^(-e) with explicitly
# bounded remainders, and each monomial is summed over p > cutoff via the
# prime zeta function, or bounded a priori where that bound is already below
# the prime zeta route's float allowance.  The helpers below build that
# expansion.

# Remainder monomials are truncated no shallower than this exponent; every
# remainder then lands at exponent >= 3 after the worst shift below, so the
# absolute error terms are O(cutoff^-2) while kept terms carry the rest.
_REM_EXPONENT_FLOOR = 7.0 / 3.0

SHARP_TAIL_MIN_CUTOFF = 100_000

# Exponents of tail monomials are carried exactly as integer pairs (m, n)
# meaning m/6 + n * XI: every exponent arising in the two H products is a
# sixth-integer plus an integer multiple of XI.  Doing the exponent algebra
# on floats instead would drift each exponent by a few ulps, which moves
# p^(-e) by ln(p) ulps relatively; that drift is larger than the deepest
# remainder monomials and would break the certified containment.

_HALF = (3, 0)
_XI_STEP = (0, 1)


def _expo_float(e) -> float:
    return e[0] / 6.0 + e[1] * XI


def _expo_add(e, f):
    return (e[0] + f[0], e[1] + f[1])

# Tiny relative inflation applied to every float-computed remainder constant
# so a last-ulp rounding down cannot understate a bound.
_UP = 1.0 + 1e-12

# Absolute part of the pad on a sieved prime-power tail (_prime_power_tails);
# a tail whose a-priori bound is no larger skips the sieved route.
_TAIL_PAD = 1e-12

# _prime_zeta(e) at _PZ_DIGITS digits (110 bits), within 2^-109 relative of
# P at the exponent rebuilt there (_prime_power_tails), keyed by the exponent
# pair alone: it does not depend on the cutoff, so the cutoffs that take the
# sieved route at e share it.
_primezeta_cache: dict[tuple[int, int], mp.mpf] = {}

# _prime_zeta sums the primes p <= _PZ_SPLIT apart, at _PZ_GUARD bits past
# the caller's precision, which is _PZ_DIGITS digits in _prime_power_tails.
_PZ_SPLIT = 100
_PZ_GUARD = 20
_PZ_DIGITS = 32


@functools.cache
def _split_primes(q: int) -> tuple[list[int], int]:
    """(the primes p <= q, the first prime after q, which Bertrand puts in (q, 2q])."""
    ps = primes_upto(2 * q).tolist()
    i = bisect.bisect_right(ps, q)
    return ps[:i], ps[i]


def _moebius(k: int) -> int:
    r, m = _squarefree_divisors(k)[-1]  # the radical of k, with its mu
    return m if r == k else 0


@functools.cache
def _dropped_moebius(n: int, K: int) -> int:
    """d_n = -sum_{k | n, k <= K} mu(k)."""
    return -sum(m for r, m in _squarefree_divisors(n) if r <= K)


def _prime_zeta(s: mp.mpf, split: int = _PZ_SPLIT, extra_k: int = 0) -> mp.mpf:
    """P(s) = sum_p p^(-s) for real s > 1, rounded to the working precision.

    By ln zeta(x) = sum_p sum_j p^(-jx)/j and Moebius inversion,
    P(s) = sum_k mu(k)/k ln zeta(ks).  The primes p <= Q = split carry the
    terms k > K exactly (Cohen, "High precision computation of
    Hardy-Littlewood constants", 1998; Ettahri, Ramare and Surel, "Fast
    multi-precision computation of some Euler products", 2021):

        P(s) = sum_{k <= K} mu(k)/k ln zeta(ks)
             + sum_{p <= Q} sum_{K < n <= N_p} d_n p^(-ns)/n  +  E_1 + E_2,

    with d_n = -sum_{k | n, k <= K} mu(k).  Work at w = prec + 20 +
    floor(s) + 1 bits and let tol = 2^(-w-1).  The two truncations are:

    * E_1, the share of the primes p > Q in the terms k > K, is
      sum_{k > K} mu(k)/k ln zeta_Q(ks) with zeta_Q the Euler product over
      p > Q.  As ln y <= y - 1 and zeta_Q(x) - 1 <= sum_{n >= Q'} n^(-x)
      <= Q'^(-x) (1 + Q'/(x - 1)), Q' the first prime after Q,

          |E_1| <= Q'^(-(K+1)s) (1 + Q'/((K+1)s - 1)) / ((K+1)(1 - Q'^(-s))),

      and K is the least integer that puts this under tol (plus extra_k).
    * E_2, the terms n > N_p at each p <= Q.  |d_n| <= K, so

          |E_2| <= sum_{p <= Q} K p^(-(N_p+1)s) / ((N_p+1)(1 - p^(-s))),

      and each N_p is the least that puts its summand under tol/pi(Q).

    Since P(s) > 2^(-s), |E_1| + |E_2| <= 2^(-w) is under 2^-(prec+20)
    relative.  The sum takes under 2^10 additions at w bits (about 250 at
    s = 7/6), each off by
    at most 2^-w times a partial sum below 2 ln zeta(s) < 4 (s >= 7/6 in
    the H tails), which adds under 2^-(prec+8) relative.  The result is
    then rounded once to the caller's precision, so it is within
    2^-prec (1 + 2^-8 + 2^-20) of P(s) relative: under 2^-109 at 32
    digits (prec 110) and 2^-135 at 40 (prec 136).
    """
    if s <= 1:
        raise ValueError(f"prime zeta diverges at s = {s}")
    small, q_next = _split_primes(split)
    sf = float(s)
    wp = mp.mp.prec + _PZ_GUARD + int(sf) + 1
    tol = 2.0 ** (-wp - 1)
    K = 1
    while (q_next ** (-(K + 1) * sf) * (1.0 + q_next / ((K + 1) * sf - 1.0))
           / ((K + 1) * (1.0 - q_next ** -sf))) > tol:
        K += 1
    K += extra_k
    share = tol / len(small)
    with mp.workprec(wp):
        total = mp.mpf(0)
        for k in range(1, K + 1):
            mu = _moebius(k)
            if mu:
                total += mu * mp.ln(mp.zeta(k * s)) / k
        for p in small:
            x = mp.mpf(p) ** -s
            term = x ** (K + 1)
            n = K + 1
            while K * p ** (-n * sf) / (n * (1.0 - p ** -sf)) > share:
                d = _dropped_moebius(n, K)
                if d:
                    total += d * term / n
                term *= x
                n += 1
    return +total


def _a_priori_tail(e_f: float, cutoff: int) -> float:
    """_UP times the effective bound on sum_{p >= cutoff} p^(-e_f); see
    _prime_power_tails."""
    if e_f <= 1.0 + 1e-9:
        raise ValueError(f"prime power tail diverges at exponent {e_f}")
    n = float(cutoff)
    return _UP * prime_tail_bound(
        lambda t: t ** -e_f / math.log(t), n,
        integral=n ** (1.0 - e_f) / ((e_f - 1.0) * math.log(n)))


def _tail_routes(exponents, cutoff: int) -> tuple[dict, dict]:
    """The route of the tail Z(e) past the cutoff for each exponent pair e,
    decided once (_prime_power_tails): (B(e) by e, the sum terms p^(-e) of
    the pass by e where B(e) > _TAIL_PAD, the sieved route).  The terms
    take the SIMD np.power, 4x faster than libm; the pad of
    _prime_power_tails covers its error."""
    bounds = {e: _a_priori_tail(_expo_float(e), cutoff) for e in exponents}
    terms = {e: lambda ps, power, weight, e_f=_expo_float(e): np.power(ps, -e_f)
             for e, bound in bounds.items() if bound > _TAIL_PAD}
    return bounds, terms


def _prime_power_tails(bounds: dict, sums: dict) -> dict:
    """Enclosures of Z(e) = sum_{p > cutoff} p^(-e) by exponent pair e,
    from the a-priori bounds B(e) = bounds[e] at the cutoff and the sieved
    partial sums sums[e] = sum_{p <= cutoff} p^(-e) of the pass, which
    _tail_routes asks for where B(e) > _TAIL_PAD: the sieved route for the
    exponents in sums, the a-priori route for the rest.

    A-priori route.  With f(t) = t^(-e)/log t, nonnegative and decreasing,
    prime_tail_bound bounds sum_{p >= N} f(p) log p, which is at least Z(e)
    (N = cutoff).  Its integral int_N^inf t^(-e)/log t dt is at most
    N^(1-e)/((e-1) log N), since log t >= log N, so no quadrature runs.
    The bound is evaluated at e_f = fl(fl(m/6) + fl(n * XI)) in place of
    the exact e = m/6 + n * XI, |e_f - e| <= 3u e (u = 2^-53), which moves
    N^(1-e) by at most 3.1 u e ln N and 1/(e-1) by at most 3u e/(e-1)
    relative, and rounding in the float evaluation (chiefly fl(1 - e_f) in
    the power) adds under 200u; for e <= 11 and N <= 1e8 that is under
    900u < 1e-13 in all, so B(e), the float bound times _UP = 1 + 1e-12,
    is at least the bound at the exact e (_a_priori_tail).  When
    B(e) <= _TAIL_PAD the enclosure is [0, B(e)] and nothing is sieved or
    summed.

    Sieved route, for the rest: Z(e) = P(e) - sums[e], at _PZ_DIGITS = 32
    digits (110 bits).  P(e) is _prime_zeta at the exponent rebuilt there,
    e' = fl(fl(m/6) + n * XI) (n * XI is exact), once per exponent pair for
    the whole process, and the subtraction rounds once at that precision.
    It cancels up to 12 digits (P(e)/z < 2.2e11 at every exponent the
    package uses), so z keeps about 20 and its float is the one 40 digits
    give (tests/test_products.py); at 25 digits 12 of them differ.

    The pad of 1e-12 relative plus _TAIL_PAD absolute covers the float
    partial.  Write P = sum_{p <= N} p^(-e) for the exact e (m, n >= 0 for
    every pair the H products use):

    * e_f scales each term by p^(e - e_f), a relative change of at most
      3.1 u e ln N;
    * np.power is taken to be within 4 ulps (8u relative) per term;
      glibc's pow is within 1 ulp, and 0.64 ulp is the worst seen for
      five exponents at every seventh prime below 10^5;
    * the pass sums the float terms exactly and rounds once (u relative).

    So |partial - P| <= u P (9 + 3.1 e ln N), to first order.  For e > 1,
    P <= sum_{p <= N} 1/p < ln ln N + 0.2615 + 1/ln^2 N < 3.2 (Rosser and
    Schoenfeld), so e P < 6.4 for e < 2; for e >= 2, P <= 2^(2-e) P(2) with
    P(2) < 0.46 gives e P < 1.  The error is then at most
    u (9 * 3.2 + 3.1 * 18.5 * 6.4) < 400u < 4.5e-14.  Rounding z to a float
    adds u |z|, and the 110-bit subtraction 2^-110 |z|.  P(e) itself is
    off by under 1.2e-32: |e' - e| <= 2^-109 e moves it by under
    2^-109 e/(e - 1) <= 7 * 2^-109 < 1.1e-32 for e >= 7/6, as
    sum_p p^(-e) ln p <= -zeta'(e)/zeta(e) < 1/(e - 1), and _prime_zeta(e')
    is within 2^-109 relative of P(e'), with P(e) < P(7/6) < 3.  The pad
    exceeds the total more than 20-fold.

    Why [0, B] nests in the sieved enclosure [max(z - pad, 0), z + pad]
    whenever B <= _TAIL_PAD: z lies within 5e-14 of Z, so z - pad < 0 once
    Z < _TAIL_PAD - 5e-14, and z + pad >= Z + _TAIL_PAD - 5e-14 >= B once
    Z >= 5e-14 or B <= _TAIL_PAD - 5e-14.  Both hold unless B overstates Z
    by under 5 % or over twentyfold; tests/test_products.py finds Z/B
    between 0.05 and 0.95 at every a-priori exponent it checks.
    """
    out = {}
    for e, bound in bounds.items():
        if e not in sums:
            out[e] = CertifiedValue(0.0, bound)
            continue
        with mp.workdps(_PZ_DIGITS):
            zeta = _primezeta_cache.get(e)
            if zeta is None:
                e_mp = mp.mpf(e[0]) / 6 + e[1] * mp.mpf(XI)
                zeta = _primezeta_cache[e] = _prime_zeta(e_mp)
            z = float(zeta - mp.mpf(sums[e]))
        pad = 1e-12 * abs(z) + _TAIL_PAD
        out[e] = CertifiedValue(max(z - pad, 0.0), z + pad)
    return out


def _truncated_geometric(step, p_min: float):
    """Expansion of 1/(1 - p^(-step)) valid for all p >= p_min.

    Returns (terms, rem_coef, rem_exp): the function equals
    sum_{(c, e) in terms} c * p^(-e) plus a remainder R(p) with
    0 <= R(p) <= rem_coef * p^(-rem_exp).  Terms are kept until the
    remainder exponent clears _REM_EXPONENT_FLOOR with one term to spare.
    """
    s_f = _expo_float(step)
    n = math.ceil(_REM_EXPONENT_FLOOR / s_f) + 1
    terms = [(1.0, (i * step[0], i * step[1])) for i in range(n)]
    rem_coef = _UP / (1.0 - p_min ** (-s_f))
    return terms, rem_coef, (n * step[0], n * step[1])


def _weight_series(key: str, p_min: float):
    """Monomial expansion of G(p) for odd primes p >= p_min.

    G is a product of two geometric factors 1/(1 - p^(-s)) with steps from
    {1/2, XI}, so G(p) = sum_{(c, e) in terms} c * p^(-e) + R(p) with
    0 <= R(p) <= sum_{(r, e) in rems} r * p^(-e).  The remainder collects
    the three cross products that involve at least one truncated factor; each
    truncated factor at p >= p_min is itself at most its remainder constant.
    """
    steps = {"g0^2": (_HALF, _HALF), "g0*g1": (_HALF, _XI_STEP),
             "g1^2": (_XI_STEP, _XI_STEP)}[key]
    (t1, c1, e1), (t2, c2, e2) = (_truncated_geometric(s, p_min) for s in steps)
    terms: dict = {}
    for a, ea in t1:
        for b, eb in t2:
            e = _expo_add(ea, eb)
            terms[e] = terms.get(e, 0.0) + a * b
    rems = [(c1 * c2, e1), (c1 * c2, e2), (c1 * c2, _expo_add(e1, e2))]
    return terms, rems


def _local_monomials(key: str, w_shifts, extra, p_min: float):
    """Monomial expansion of the local term a(p) for odd primes p >= p_min:

        a(p) = sum_{(c, s) in w_shifts} c * W(p) * p^(-s)
             + sum_{(c, e) in extra} c * p^(-e),

    where W(p) = (p-1) G(p) - p = p (G(p) - 1) - G(p).  Returns (terms, rems)
    with a(p) = sum_{(e, c) in terms} c * p^(-e) + O*(sum_{(r, e) in rems}
    r * p^(-e)).  The weight expansion from _weight_series is pushed through
    W (shift exponents down by one for the p part, negate for the -G part)
    and shifted into a.
    """
    g_terms, g_rems = _weight_series(key, p_min)
    if g_terms.get((0, 0)) != 1.0:
        raise AssertionError("weight expansion must have constant term 1")
    # W(p) = p (G - 1) - G as monomials; G - 1 drops the constant term.
    w_terms: dict = {}
    for e, c in g_terms.items():
        if e != (0, 0):
            down = (e[0] - 6, e[1])
            w_terms[down] = w_terms.get(down, 0.0) + c
        w_terms[e] = w_terms.get(e, 0.0) - c
    w_rems = []
    for r, e in g_rems:
        w_rems.append((r, (e[0] - 6, e[1])))
        w_rems.append((r, e))
    a_terms: dict = {}
    a_rems: list = []
    for cs, s in w_shifts:
        for e, c in w_terms.items():
            up = _expo_add(e, s)
            a_terms[up] = a_terms.get(up, 0.0) + cs * c
        for r, e in w_rems:
            a_rems.append((abs(cs) * r, _expo_add(e, s)))
    for c, e in extra:
        a_terms[e] = a_terms.get(e, 0.0) + c
    a_terms = {e: c for e, c in a_terms.items() if c != 0.0}
    return a_terms, a_rems


def _log_tail_terms(key: str, w_shifts, extra, p_min: float):
    """(terms, rems) of sum_{p > p_min} log(1 + a(p)) as monomials: a is
    expanded by _local_monomials, and log(1 + a) is linearized with a
    two-sided quadratic remainder, appended to rems."""
    a_terms, a_rems = _local_monomials(key, w_shifts, extra, p_min)
    all_expos = list(a_terms) + [e for _, e in a_rems]
    e_min = min(all_expos, key=_expo_float)
    e_min_f = _expo_float(e_min)
    if e_min_f <= 1.0:
        raise AssertionError("local expansion produced a divergent exponent")
    # |a(p)| <= C_a p^(-e_min) for p >= cutoff, hence the log linearization
    # error is at most a^2 / (2 (1 - |a|)) <= r_log * p^(-2 e_min).
    c_a = _UP * math.fsum(
        [abs(c) * p_min ** (e_min_f - _expo_float(e)) for e, c in a_terms.items()]
        + [r * p_min ** (e_min_f - _expo_float(e)) for r, e in a_rems])
    a0 = _UP * c_a * p_min ** (-e_min_f)
    if a0 >= 0.5:
        raise AssertionError("local terms too large past cutoff for log expansion")
    a_rems.append((_UP * c_a * c_a / (2.0 * (1.0 - a0)),
                   (2 * e_min[0], 2 * e_min[1])))
    return a_terms, a_rems


def _local_log_tail(a_terms, a_rems, zs: dict) -> CertifiedValue:
    """Enclosure of sum_{p > cutoff} log(1 + a(p)) from its monomials
    (_log_tail_terms) and the enclosures zs of their prime power tails
    past the cutoff, by exponent pair (_prime_power_tails)."""
    lo_parts, hi_parts = [], []
    for e, c in a_terms.items():
        z = zs[e]
        lo_parts.append(c * (z.lo if c >= 0.0 else z.hi))
        hi_parts.append(c * (z.hi if c >= 0.0 else z.lo))
    for r, e in a_rems:
        bound = r * zs[e].hi
        lo_parts.append(-bound)
        hi_parts.append(bound)
    pad = 1e-15 * math.fsum(abs(v) for v in lo_parts + hi_parts) + 1e-18
    return CertifiedValue(math.fsum(lo_parts) - pad, math.fsum(hi_parts) + pad)


# Local-term shapes for the two H products, as (coef, W shift) and plain
# monomial parts: H(1) has a(p) = W/p^2 - W/p^3 - 1/p^2 and Hbar(2/3) has
# a(p) = W/p^(5/3) + W/p^(7/3) + 1/p^(4/3), with W = (p-1)G - p.
H1_SHAPE = (((1.0, (12, 0)), (-1.0, (18, 0))), ((-1.0, (12, 0)),))
H23_SHAPE = (((1.0, (10, 0)), (1.0, (14, 0))), ((1.0, (8, 0)),))


def _h_local(label: str, key: str, p: np.ndarray, power, weight) -> np.ndarray:
    """a(p) of the H product (label, key) at the primes p (_partial_products)."""
    G = weight(key)
    if label == "H1":
        return ((p - 1.0) * G - p) / (p * p) - (p - 1.0) * G / (p * p * p)
    return ((p - 1.0) * G - p) / power(5.0 / 3.0) + (p - 1.0) * G / power(7.0 / 3.0)


def _h_products(pairs, cutoff: int) -> list[tuple[CertifiedValue, dict]]:
    """(enclosure, tail route counts) of each H product (label, key) in
    pairs: H(1) for label "H1" or Hbar(2/3) for "H23", with weight key, is
    prod_p (1 + a(p)), a(p) as in H1_SHAPE or H23_SHAPE.

    One pass to the cutoff (_partial_products) serves them all: it takes
    their partial products over p <= cutoff (p = 2 included) and the
    sieved sums behind the prime power tails of their log-tail monomials
    past the cutoff (_log_tail_terms).  Each distinct exponent of those
    tails has its route decided once (_tail_routes) and its enclosure
    built once (_prime_power_tails); each product's _local_log_tail
    combines the enclosures of its exponents, and its route counts are
    those exponents by route.
    """
    if cutoff < SHARP_TAIL_MIN_CUTOFF:
        raise ValueError(f"cutoff must be >= {SHARP_TAIL_MIN_CUTOFF}")
    if cutoff > FSLACK_MAX_CUTOFF:
        raise ValueError(
            f"cutoff must be <= {FSLACK_MAX_CUTOFF}: FSLACK = {FSLACK} is shown to "
            f"cover the float error of the weight products only up to there")
    shapes = {"H1": H1_SHAPE, "H23": H23_SHAPE}
    tails = {(label, key): _log_tail_terms(key, *shapes[label], float(cutoff))
             for label, key in pairs}
    exponents = {pair: set(terms) | {e for _, e in rems} for pair, (terms, rems) in tails.items()}
    bounds, tail_terms = _tail_routes(set().union(*exponents.values()), cutoff)
    partials, sums = _partial_products(
        cutoff, {pair: functools.partial(_h_local, *pair) for pair in pairs}, tail_terms)
    zs = _prime_power_tails(bounds, sums)
    out = []
    for pair, (a_terms, a_rems) in tails.items():
        tail = _local_log_tail(a_terms, a_rems, zs)
        sieved = len(exponents[pair] & sums.keys())
        routes = {"prime_zeta": sieved, "a_priori": len(exponents[pair]) - sieved}
        out.append((_enclose(partials[pair], tail.lo, tail.hi), routes))
    return out


def h_linear(key: str, cutoff: int = 10_000_000) -> CertifiedValue:
    """Enclosure of H(1) = prod_p (1 + ((p-1)G(p) - p)/p^2 - (p-1)G(p)/p^3).

    This is the value of the Dirichlet series sum mu^2(d) phi(d) G(d) / d^s
    at s = 1 after removing the zeta factor.  With W = (p-1)G - p the local
    term is W/p^2 - W/p^3 - 1/p^2, which the sharp tail expands past the
    cutoff; widths land near 1e-11 at the default cutoff.
    """
    return _h_products([("H1", key)], cutoff)[0][0]


def h_twothirds(key: str, cutoff: int = 10_000_000) -> CertifiedValue:
    """Enclosure of Hbar(2/3) = prod_p (1 + ((p-1)G(p)-p)/p^(5/3) + (p-1)G(p)/p^(7/3)).

    Companion constant at s = 2/3 controlling the D^(2/3) term of partial
    sums.  With W = (p-1)G - p the local term is W/p^(5/3) + W/p^(7/3) +
    1/p^(4/3); tail monomials start at exponent 7/6, so a raw upper bound
    would shrink only like cutoff^(-1/6), while the prime zeta route gives
    widths near 1e-8 at the default cutoff.
    """
    return _h_products([("H23", key)], cutoff)[0][0]


def check_h_caps(cutoff: int = 10_000_000) -> list[BoundReport]:
    """Verify the six asserted caps on H(1) and Hbar(2/3) at a deep cutoff.

    A cap passes only if the entire certified enclosure sits below it, so a
    true value above the cap cannot be waved through by rounding.  The
    cutoff lies in [SHARP_TAIL_MIN_CUTOFF, FSLACK_MAX_CUTOFF] (_h_products).  Each
    report's details["tails"] counts the exponents of its prime power tails
    by route (_prime_power_tails): "prime_zeta" (sieved) or "a_priori".
    """
    caps = [cap for key in H_CAPS for cap in H_CAPS[key]]
    reports = []
    for (label, key), cap, (enc, tails) in zip(_H_PAIRS, caps, _h_products(_H_PAIRS, cutoff)):
        reports.append(BoundReport.held_to(
            f"h-cap-{label}({key})", f"primes <= {cutoff} + certified tail", _RunningMax(enc.hi),
            {"enclosure": enc.to_dict(), "cutoff": cutoff, "tails": tails}, cap=cap))
    return reports


# ----------------------------------------------------------------------
# Partial sums sum_{d <= D} mu^2(d) phi(d) G(d) / d and their growth caps.

AUX_RATIO_CAP = {"g0^2": 2.07, "g0*g1": 1.60, "g1^2": 1.57}
AUX_RATIO_ARGMAX = {"g0^2": 42, "g0*g1": 7, "g1^2": 3}
AUX_ASYMPTOTIC = {"g0^2": (2.0004, 106.0), "g0*g1": (1.34, 33.8), "g1^2": (1.06, 13.3)}


def _aux_blocks(key: str, D: int):
    """(lo, values) for consecutive blocks (numutil._blocks) covering
    d = 1..D, with values[i] = mu^2(d) phi(d) G(d) / d at d = lo + i: the
    product of f(p) = (p-1)/p G(p) over the primes p of d in ascending order
    (sieve._prime_factor_product), zeroed at the multiples of each p^2."""
    primes = primes_upto(D)
    check_allocation(_aux_bytes(primes.size, D), f"weighted sums to {D}")
    x = primes.astype(np.float64)
    del primes
    f = (x - 1.0) / x * _weight(key, x, functools.partial(libm_power, x))
    ps = x.astype(np.int64)
    del x
    squares = ps[: np.searchsorted(ps, math.isqrt(D), side="right")] ** 2
    for lo, hi in _blocks(1, D + 1):
        values = _prime_factor_product(lo, hi, ps, f)
        for q in squares[: np.searchsorted(squares, hi - 1, side="right")].tolist():
            values[-lo % q:: q] = 0.0
        yield lo, values


def _aux_bytes(n_primes: int, D: int) -> int:
    """Declared peak memory of _aux_blocks: 50 B per prime while f is
    evaluated (49 with "g0*g1", the widest weight), then the primes, f and
    one block of products with its partial sums."""
    block = min(_SWEEP_BLOCK, D)
    return max(50 * n_primes, 16 * n_primes + 8 * block
               + _prime_factor_bytes(block, block, math.isqrt(D), 8))


def _aux_sweep(key: str, D: int, ratio) -> _RunningMax:
    """The worst of ratio(sum_{d <= D'} values[d], D') over D' = 1..D, with
    the values of _aux_blocks, as a running maximum from 0 at D' = 0.  The
    partial sums are carried from block to block."""
    run = _RunningSum(0.0)
    worst = _RunningMax(0.0, 0)
    for lo, values in _aux_blocks(key, D):
        sums = run.cumsum(values)
        worst.feed(ratio(sums, np.arange(lo, lo + sums.size, dtype=np.float64)), lo)
    return worst


def aux_ratio_scan(key: str, D_max: int = 1_000_000) -> BoundReport:
    """Check sum_{d <= D} mu^2 phi G / d <= cap * D for all D <= D_max.

    Also records where the ratio peaks; the expected peak location is part
    of the frozen table.
    """
    worst = _aux_sweep(key, D_max, lambda sums, d: sums / d)
    return BoundReport.held_to(
        f"aux-ratio({key})", f"integer D <= {D_max}", worst,
        {"max_ratio": worst.value,
         "expected_argmax": AUX_RATIO_ARGMAX[key],
         "argmax_matches": worst.arg == AUX_RATIO_ARGMAX[key]},
        cap=AUX_RATIO_CAP[key])


def aux_asymptotic_check(key: str, D_max: int = 1_000_000) -> BoundReport:
    """Check sum_{d <= D} mu^2 phi G / d <= c1 D + c2 D^(2/3) for D <= D_max."""
    c1, c2 = AUX_ASYMPTOTIC[key]
    worst = _aux_sweep(key, D_max, lambda sums, d: sums / (c1 * d + c2 * d ** (2.0 / 3.0)))
    return BoundReport.held_to(f"aux-asymptotic({key})", f"integer D <= {D_max}", worst,
                               {"c1": c1, "c2": c2})


# ----------------------------------------------------------------------
# Constants attached to a coprimality modulus q.

def _universal_term(ps, power, weight, skip=()) -> np.ndarray:
    """The terms (3p-2) log p / ((p-1)(p^2+p-1)) of the universal sum at
    the primes ps (_partial_products), and 0.0 at those in skip, which
    leaves the exact sum of the others."""
    terms = (3.0 * ps - 2.0) * np.log(ps) / ((ps - 1.0) * (ps * ps + ps - 1.0))
    terms[np.isin(ps, skip)] = 0.0
    return terms


def _universal_tail(cutoff: int) -> float:
    """Bound on the universal sum over the primes past the cutoff.

    Stripping the log p that the prime-tail lemma carries, the remaining
    factor satisfies (3t-2)/((t-1)(t^2+t-1)) < 3.2/t^2 for t >= 3, so the
    tail beyond the cutoff is about 3.3/cutoff (3.3e-6 at 10^6).
    """
    return prime_tail_bound(lambda t: 3.2 / (t * t), float(cutoff))


@functools.cache
def universal_log_sum(cutoff: int = 1_000_000) -> CertifiedValue:
    """Enclosure of sum over all primes of (3p-2) log p / ((p-1)(p^2+p-1)),
    which appears in the logarithmic shift constant c_q."""
    partial = _partial_products(cutoff, {}, {"universal": _universal_term})[1]["universal"]
    return CertifiedValue(partial, partial + _universal_tail(cutoff))


def c_q(q: int) -> float:
    """Logarithmic shift constant: Euler's gamma plus local and universal sums.

    c_q = gamma + sum_{p | q} (p-1) log p / (p^2+p-1)
        + sum_p (3p-2) log p / ((p-1)(p^2+p-1)).
    """
    loc = 0.0
    for p in require_squarefree(q):
        loc += (p - 1.0) * math.log(p) / (p * p + p - 1.0)
    return EULER_GAMMA + loc + universal_log_sum().mid


def c_q_prerewrite(q: int) -> CertifiedValue:
    """The shift constant in its pre-simplification form:

    c_q = gamma + sum_{p | q} log p / (p - 1)
        + sum_{p coprime to q} (3p-2) log p / ((p-1)(p^2+p-1)).

    Splitting the universal sum at p | q and using
    log p/(p-1) - (3p-2) log p/((p-1)(p^2+p-1)) = (p-1) log p/(p^2+p-1)
    recovers the rewritten form used by c_q; the two are evaluated
    independently so a mismatch is reported, not silently fixed.
    """
    qps = set(require_squarefree(q))
    loc = 0.0
    for p in qps:
        loc += math.log(p) / (p - 1.0)
    term = functools.partial(_universal_term, skip=list(qps))
    base = EULER_GAMMA + loc + _partial_products(1_000_000, {}, {"universal": term})[1]["universal"]
    return CertifiedValue(base, base + _universal_tail(1_000_000))


def check_cq_forms() -> BoundReport:
    """Cross-check the two algebraic forms of c_q on q = 1, 2, 6.

    The rewritten form (c_q) and the pre-simplification form
    (c_q_prerewrite) must agree to within the tail width of the
    universal sum plus a float slack of 1e-9.
    """
    worst = _RunningMax(0.0)
    rows = []
    for q in (1, 2, 6):
        a = c_q(q)
        enc = c_q_prerewrite(q)
        dev = abs(a - enc.mid)
        allowance = enc.width + universal_log_sum().width + 1e-9
        rows.append({"q": q, "rewritten": a, "prerewrite_lo": enc.lo,
                     "prerewrite_hi": enc.hi, "deviation": dev,
                     "allowance": allowance})
        worst.offer(dev / allowance, q)
    return BoundReport.held_to("shift-constant-forms", "q in (1, 2, 6)",
                               worst, {"rows": rows})


def local_ratio(q: int) -> Fraction:
    """prod_{p | q} p^2 / (p^2 + p - 1), exactly; scales A into the
    q-coprime constant."""
    return math.prod((Fraction(p * p, p * p + p - 1) for p in require_squarefree(q)),
                     start=Fraction(1))


def h_q(q: int) -> CertifiedValue:
    """Enclosure of H_q(1) = A * prod_{p | q} p^2/(p^2+p-1), A in A_DEEP.

    This is the mean value of the q-coprime squarefree totient weight, and
    equals the full sum over m of the cancellation coefficients g_q(m)/m.
    The exact ratio is rounded outward to the floats on either side of it,
    and the interval product rounds outward again.
    """
    r = local_ratio(q)
    f = float(r)  # correctly rounded: r lies between f and one neighbour
    lo = f if Fraction(f) <= r else math.nextafter(f, -math.inf)
    hi = f if Fraction(f) >= r else math.nextafter(f, math.inf)
    return A_DEEP * CertifiedValue(lo, hi)


def j1_star(q: int) -> float:
    """prod_{p | q} (p^(3/2) + p) / (p^(3/2) + 1); inflation for sqrt-scale remainders."""
    val = 1.0
    for p in require_squarefree(q):
        val *= (p ** 1.5 + p) / (p ** 1.5 + 1.0)
    return val


def j5_star(q: int) -> float:
    """prod_{p | q} (p^(5/4) + p) / (p^(5/4) + 1); inflation for the X^(1/4) term."""
    val = 1.0
    for p in require_squarefree(q):
        val *= (p ** 1.25 + p) / (p ** 1.25 + 1.0)
    return val


# ----------------------------------------------------------------------
# Registry.

def build_registry() -> dict:
    """Assemble the constants registry as a plain dict.

    A and P0 are the frozen deep enclosures; the other constants are
    recomputed at moderate cutoffs, the H products at 1e5.  (`mulcm
    verify-lemma aux-caps --out FILE` writes the H enclosures at 1e7.)
    """
    h_cut = 100_000
    reg: dict = {
        "A": {"enclosure": A_DEEP.to_dict(), "cutoff": 100_000_000,
              "source": "frozen products.A_DEEP = constant_A(10**8)"},
        "ktail_product": {
            "enclosure": P0_DEEP.to_dict(), "cutoff": 100_000_000,
            "source": "frozen products.P0_DEEP = _cubic_products([1.0], 10**8)[0]"},
        "A_check": {"enclosure": constant_A(200_000).to_dict(), "cutoff": 200_000},
        "euler_gamma": EULER_GAMMA,
        "xi": XI,
        "universal_log_sum": universal_log_sum().to_dict(),
        "h_constants": {},
        "aux_table": {
            "ratio_cap": AUX_RATIO_CAP,
            "ratio_argmax": AUX_RATIO_ARGMAX,
            "asymptotic": {k: list(v) for k, v in AUX_ASYMPTOTIC.items()},
        },
        "c_q": {str(q): c_q(q) for q in (1, 2, 3, 6, 30, 210)},
        "j1_star": {str(q): j1_star(q) for q in (1, 2, 3, 6, 30, 210)},
        "j5_star": {str(q): j5_star(q) for q in (1, 2, 3, 6, 30, 210)},
        "H_q": {str(q): h_q(q).to_dict() for q in (1, 2, 6, 30, 210)},
    }
    h = dict(zip(_H_PAIRS, _h_products(_H_PAIRS, h_cut)))
    for key in H_CAPS:
        reg["h_constants"][key] = {
            "H1": h["H1", key][0].to_dict(),
            "H23": h["H23", key][0].to_dict(),
            "caps": list(H_CAPS[key]),
            "cutoff": h_cut,
        }
    return reg
