"""Segmented sieves for multiplicative data and the one arithmetic table.

A MultiplicativeBlock holds mu and phi over [lo, hi]; sieve_range fills one
segment by segment.  No other module sieves [1, n]: _table(n) gives
read-only views over [1, n] of the process-wide table, which keeps 5 bytes
per n (int8 mu, int32 phi) for the life of the process, and _mertens_cum(n)
its cumsum of mu(k)/k to n, 8 more bytes per n, built only for the scan and
mertens.m (sweeps carry running sums).  A request past the table's end
sieves only the range past it and appends that; the cumsum is built, and
later continued, block by block with no array over [1, n] besides itself.
The primes come from their own segmented sieve (_prime_segments), one
segment at a time or gathered by primes_upto.  factorize factors a few n
by trial division; the traces that walk every squarefree d <= n in order
take each d's primes and divisors from _squarefree_factors, a
largest-prime-factor table over [1, n] built from the arithmetic table.

The segment kernel builds no index arrays.  Each step is one in-place ufunc
on the strided view arr[(-lo) % m :: m] of the multiples of m in the
segment, and a modulus with no multiple there is skipped.  Each prime
p <= isqrt(hi) negates mu and multiplies phi by p - 1 on the multiples of p,
zeroes mu on those of p^2, and multiplies phi by p on those of each higher
power of p.  A working array done takes the same factors of p, so it ends as
the part of n made of the sieving primes; it divides n, so it fits phi's
dtype.  big = n // done is then 1 or the one prime factor of n above
isqrt(hi) (two such would exceed hi).  An int8 sign array, -1 where big
exceeds 1 and 1 elsewhere, multiplies mu, and max(big - 1, 1) multiplies
phi, with no masked write.  So every segment yields the true mu(n) and
phi(n) whatever its bounds, and the output does not depend on the
segmentation.  The transient is done and big: 8 bytes per n of one segment
below 2^31 and 16 from there on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numutil import _SWEEP_BLOCK, _RunningSum, _blocks, check_allocation

DEFAULT_SEGMENT = 1 << 18
# Room for the array headers and Python scalars of one sieve_range call.
_SIEVE_FIXED_BYTES = 1 << 16


@dataclass(frozen=True)
class MultiplicativeBlock:
    """Read-only arrays of mu(n) and phi(n) for n in [lo, hi] inclusive;
    index i corresponds to n = lo + i."""

    lo: int
    hi: int
    mu: np.ndarray   # int8
    phi: np.ndarray  # int32 (int64 when hi >= 2^31)

    def __len__(self) -> int:
        return self.hi - self.lo + 1


def _prime_count_bound(n: int) -> int:
    """An upper bound on pi(n): n / (ln n - 3/2) for n >= 5 (Rosser and
    Schoenfeld, Illinois J. Math. 6, 1962), within 4 % of pi(n) from
    2^18 on, and 2 below 5."""
    return math.ceil(n / (math.log(n) - 1.5)) if n >= 5 else 2


def _prime_segments(n: int, shard: int = 0, shards: int = 1):
    """The primes of [2, n] as int64 arrays, one per segment of integers,
    in ascending order: first [0, max(DEFAULT_SEGMENT, isqrt(n) + 1)) or
    [0, n], sieved by its own primes up to its square root, then segments
    of DEFAULT_SEGMENT integers, each sieved by the base primes up to
    isqrt(n) from the first.  Only the segments whose index (the first is
    0) is shard mod shards are yielded, though every shard sieves the
    first.  It holds one segment and the base primes at a time, whatever n.
    """
    if n < 2:
        return
    r = math.isqrt(n)
    hi = min(n + 1, max(DEFAULT_SEGMENT, r + 1))
    mask = np.ones(hi, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(hi - 1) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    primes = np.nonzero(mask)[0]
    del mask
    if shard == 0:
        yield primes
    base = primes[: np.searchsorted(primes, r, side="right")].tolist()
    step = shards * DEFAULT_SEGMENT
    for lo in range(hi + (shard - 1) % shards * DEFAULT_SEGMENT, n + 1, step):
        mask = np.ones(min(DEFAULT_SEGMENT, n + 1 - lo), dtype=bool)
        for p in base:
            mask[-lo % p:: p] = False
        primes = np.nonzero(mask)[0]
        del mask
        primes += lo
        yield primes


def _primes_bytes(n: int) -> int:
    """Peak memory of primes_upto(n): the first segment's mask and int64
    primes; past it, the output sized by the bound on pi(n), the primes of
    the segment being copied and of the next, and the base primes as
    Python ints (36 B each)."""
    if n < DEFAULT_SEGMENT:
        return n + 1 + 8 * _prime_count_bound(n)
    first = max(DEFAULT_SEGMENT, math.isqrt(n) + 1)
    return (first + 8 * _prime_count_bound(n) + 16 * _prime_count_bound(first)
            + 36 * _prime_count_bound(math.isqrt(n)))


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (empty for n < 2): the one segment
    of _prime_segments, or its segments copied into one array sized by the
    bound on pi(n) and then shrunk in place."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    check_allocation(_primes_bytes(n), f"prime sieve to {n}")
    segments = _prime_segments(n)
    if n < DEFAULT_SEGMENT:
        return next(segments)
    out = np.empty(_prime_count_bound(n), dtype=np.int64)
    k = 0
    for primes in segments:
        out[k: k + primes.size] = primes
        k += primes.size
    out.resize(k, refcheck=False)
    return out


def _sieve_segment(lo: int, hi: int, primes: np.ndarray, mu, phi) -> None:
    """Sieve one segment [lo, hi] into mu and phi (filled with 1).

    primes must cover sqrt(hi).  Works in place on strided views, with two
    working arrays in phi's dtype: done, the part of each n made of the
    sieving primes p <= isqrt(hi), and then big = n // done.  The last step
    multiplies mu by 1 - 2 (big > 1) and phi by max(big - 1, 1).
    """
    n = hi - lo + 1
    done = np.ones(n, dtype=phi.dtype)
    for p in map(int, primes[: np.searchsorted(primes, math.isqrt(hi), "right")][::-1]):
        if (s := -lo % p) >= n:
            continue
        mu[s::p] *= -1
        phi[s::p] *= p - 1
        done[s::p] *= p
        q = p * p
        if (s := -lo % q) < n:
            mu[s::q] = 0
        while s < n:
            phi[s::q] *= p
            done[s::q] *= p
            q *= p
            s = -lo % q
    big = np.arange(lo, hi + 1, dtype=done.dtype)
    big //= done
    del done
    sign = (big > 1).view(np.int8)
    sign *= -2
    sign += 1
    mu *= sign
    big -= 1
    np.maximum(big, 1, out=big)
    phi *= big


def _sieve_bytes(lo: int, hi: int, segment: int = DEFAULT_SEGMENT) -> int:
    """Peak memory of sieve_range(lo, hi, segment): the outputs, the two
    working arrays of one segment (done and big, in phi's dtype), the
    primes to sqrt(hi) and a few small arrays."""
    n = hi - lo + 1
    wide = np.dtype(_wide(hi)).itemsize
    return (n * (1 + wide) + min(n, segment) * 2 * wide
            + _primes_bytes(int(hi ** 0.5) + 1) + _SIEVE_FIXED_BYTES)


def _wide(hi: int):
    """dtype of phi (and of the sieve's working arrays) on a range ending at hi."""
    return np.int32 if hi < 2 ** 31 else np.int64


def sieve_range(lo: int, hi: int, segment: int = DEFAULT_SEGMENT) -> MultiplicativeBlock:
    """Compute mu and phi on [lo, hi] inclusive, segment by segment."""
    if lo < 1 or hi < lo:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    check_allocation(_sieve_bytes(lo, hi, segment), f"multiplicative block [{lo}, {hi}]")
    n = hi - lo + 1
    mu = np.ones(n, dtype=np.int8)
    phi = np.ones(n, dtype=_wide(hi))
    primes = primes_upto(int(hi ** 0.5) + 1)
    for a in range(lo, hi + 1, segment):
        b = min(a + segment - 1, hi)
        part = slice(a - lo, b - lo + 1)
        _sieve_segment(a, b, primes, mu[part], phi[part])
    for arr in (mu, phi):
        arr.setflags(write=False)
    return MultiplicativeBlock(lo=lo, hi=hi, mu=mu, phi=phi)


_TABLE_MIN = 1 << 16
_table_block: MultiplicativeBlock | None = None
_table_cum: np.ndarray | None = None


def _table(n: int) -> MultiplicativeBlock:
    """mu and phi over [1, n] as read-only views of the process-wide table.

    The first request sieves [1, max(n, _TABLE_MIN)].  A request past the
    table's end hi sieves only (hi, n] and appends it; every other request
    reads views of the table.  sieve_range's output does not depend on the
    segmentation, so the table holds the same values whatever the order of
    the requests.  Growth declares its peak (_growth_bytes) before it sieves.
    """
    global _table_block
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if _table_block is None:
        _table_block = sieve_range(1, max(n, _TABLE_MIN))
    elif _table_block.hi < n:
        old = _table_block
        check_allocation(_growth_bytes(old.hi, n), f"arithmetic table growth to {n}")
        new = sieve_range(old.hi + 1, n)
        arrays = [np.concatenate((getattr(old, k), getattr(new, k)))
                  for k in ("mu", "phi")]
        for arr in arrays:
            arr.setflags(write=False)
        _table_block = MultiplicativeBlock(1, n, *arrays)
    t = _table_block
    return MultiplicativeBlock(lo=1, hi=n, mu=t.mu[:n], phi=t.phi[:n])


def _growth_bytes(hi: int, n: int) -> int:
    """Peak memory of growing the table from [1, hi] to [1, n]: the old
    arrays, then sieve_range's peak over (hi, n], or its output and the
    joined arrays, whichever is larger."""
    per_n = 1 + np.dtype(_wide(n)).itemsize
    return (hi * (1 + np.dtype(_wide(hi)).itemsize)
            + max(_sieve_bytes(hi + 1, n), (n - hi + n) * per_n + _SIEVE_FIXED_BYTES))


def _mertens_cum(n: int) -> np.ndarray:
    """cum[t] = m(t) = sum_{k <= t} mu(k)/k for t = 0..n, a read-only view.

    The cumsum runs to the largest n asked so far, not to the table's end,
    for the readers of m(t) at a point; sweeps in t carry a running sum
    instead (mertens._coprime_cum).  It is built block by block from
    cum[0] = 0 in index order, and a request past its end copies it and
    continues from its last value; np.cumsum adds in sequence, so cum[t]
    does not depend on the order or sizes of the requests.
    """
    global _table_cum
    mu = _table(max(n, 1)).mu
    old = np.zeros(1) if _table_cum is None else _table_cum  # m(0) = 0
    have = old.size - 1
    if _table_cum is None or have < n:
        check_allocation((have + 1 + n + 1) * 8 + _SWEEP_BLOCK * 8,
                         f"mertens cumsum to {n}")
        cum = np.empty(n + 1, dtype=np.float64)
        cum[: have + 1] = old
        run = _RunningSum(cum[have])
        for lo, hi in _blocks(have + 1, n + 1):
            part = cum[lo:hi]
            np.divide(mu[lo - 1: hi - 1], np.arange(lo, hi, dtype=np.float64), out=part)
            run.cumsum(part)
        cum.setflags(write=False)
        _table_cum = cum
    return _table_cum[: n + 1]


def _squarefree_factors(n: int):
    """(d, primes, divisors) for each squarefree d <= n, ascending in d: the
    primes of d ascending, as prime_divisors(d) gives them, and its divisors
    in divisors(d)'s order.

    Both come from a largest-prime-factor table over [0, n], filled from the
    primes of the arithmetic table (phi(p) = p - 1 holds exactly at the
    primes), so no d is trial-divided.  Each d's lists are built when d is
    reached and not kept.  d is walked down its prime factors, largest first,
    and each prime P appends P times the divisors so far: the largest prime
    ends as the fastest-varying choice, as in divisors().
    """
    block = _table(n)
    lpf = np.zeros(n + 1, dtype=np.int64)
    for p in (np.flatnonzero(block.phi == np.arange(n)) + 1).tolist():
        lpf[p:: p] = p  # ascending p: the largest prime factor is written last
    big, mu = lpf.tolist(), block.mu.tolist()
    for d in range(1, n + 1):
        if mu[d - 1]:
            primes, divs, m = [], [1], d
            while m > 1:
                p = big[m]
                primes.append(p)
                divs += [v * p for v in divs]
                m //= p
            primes.reverse()
            yield d, primes, divs


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 by trial division, as (p, e) pairs."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    """All divisors of n >= 1, the largest prime's exponent varying fastest
    (12 gives [1, 3, 2, 6, 4, 12])."""
    divs = [1]
    for p, e in factorize(n):
        divs = [dv * p ** k for dv in divs for k in range(e + 1)]
    return divs


def prime_divisors(n: int) -> list[int]:
    return [p for p, _ in factorize(n)]


def radical(n: int) -> int:
    r = 1
    for p in prime_divisors(n):
        r *= p
    return r


def require_squarefree(q: int) -> list[int]:
    """Prime divisors of q, rejecting non-squarefree moduli.

    The modulus-dependent constants are all stated for squarefree q; a
    repeated prime factor in the input is an upstream mistake, not a
    request to work modulo the radical.
    """
    ps = prime_divisors(q)
    for p in ps:
        if q % (p * p) == 0:
            raise ValueError(f"modulus must be squarefree, got {q}")
    return ps


def _squarefree_divisors(q: int) -> list[tuple[int, int]]:
    """(r, mu(r)) for every squarefree divisor r of q, ascending in r."""
    divs = [(1, 1)]
    for p in prime_divisors(q):
        divs += [(r * p, -m) for r, m in divs]
    return sorted(divs)


def _coprime_mask(limit: int, q: int, lo: int = 1) -> np.ndarray:
    """Boolean mask over n = lo..limit (index n - lo) of gcd(n, q) = 1."""
    keep = np.ones(limit - lo + 1, dtype=bool)
    for p in prime_divisors(q):
        keep[-lo % p:: p] = False
    return keep


def _prime_factor_product(lo: int, hi: int, ps: np.ndarray, f: np.ndarray) -> np.ndarray:
    """out[k - lo] = prod_{p | k} f(p) for k in [lo, hi), multiplied in
    ascending p (1 at k = 0), with f(ps[i]) = f[i] and ps the primes up to
    hi - 1 or beyond, ascending.

    Primes up to r = isqrt(hi - 1) are applied by strided slices.  A larger
    prime P divides each k < hi at most once and is then its largest prime
    factor, so it comes last: the pairs k = m P are built at once from the
    range of P for each cofactor m, and the peak (_prime_factor_bytes) is
    declared once they are counted.
    """
    r = math.isqrt(max(hi - 1, 0))
    small, top = np.searchsorted(ps, [r, hi - 1], side="right").tolist()
    big, f_big = ps[small:top], f[small:top]
    ms = np.arange(1, (hi - 1) // (r + 1) + 1)
    first = np.searchsorted(big, -(-lo // ms))
    cnt = np.maximum(np.searchsorted(big, (hi - 1) // ms, side="right") - first, 0)
    check_allocation(_prime_factor_bytes(hi - lo, int(cnt.sum()), ms.size, f.itemsize),
                     f"prime-factor products on [{lo}, {hi})")
    out = np.ones(hi - lo, dtype=f.dtype)
    start = max(lo, 1)  # k = 0 keeps 1
    for p, fp in zip(ps[:small].tolist(), f[:small]):
        out[start - lo + -start % p:: p] *= fp
    idx = np.repeat(first - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())
    out[np.repeat(ms, cnt) * big[idx] - lo] *= f_big[idx]
    return out


def _prime_factor_bytes(n: int, pairs: int, cofactors: int, itemsize: int) -> int:
    """Peak memory of _prime_factor_product on a block of n values with
    that many pairs k = m P and cofactors m."""
    return n * itemsize + 32 * pairs + 40 * cofactors + _SIEVE_FIXED_BYTES


def smooth_numbers(d: int, limit: int) -> list[int]:
    """Sorted integers <= limit whose prime factors all divide d.

    These are the k with k | d^infinity.  1 always qualifies.
    """
    ps = prime_divisors(d)
    out = [1]
    for p in ps:
        grown = []
        for v in out:
            w = v * p
            while w <= limit:
                grown.append(w)
                w *= p
        out.extend(grown)
    out.sort()
    return out


def squarefree_count(x: int) -> int:
    """Exact count of squarefree integers in [1, x].

    Uses the inclusion-exclusion over square divisors:
    count = sum_{d <= sqrt(x)} mu(d) * floor(x / d^2).
    """
    if x < 1:
        return 0
    r = math.isqrt(x)
    mu = _table(r).mu
    total = 0
    for d in range(1, r + 1):
        m = int(mu[d - 1])
        if m:
            total += m * (x // (d * d))
    return total
