"""Segmented sieves for multiplicative data and the one arithmetic table.

A MultiplicativeBlock holds mu, phi and spf (smallest prime factor) over
[lo, hi]; sieve_range fills one segment by segment.  No other module sieves
[1, n]: _table(n) gives read-only views over [1, n] of the process-wide
table, which keeps 9 bytes per n (int8 mu, int32 phi and spf) for the life
of the process, and _mertens_cum(n) its cumsum of mu(k)/k, 8 more bytes per
n once asked for.  primes_upto stays its own 1-byte-per-n sieve.

The segment kernel builds no index arrays.  Each step is one in-place ufunc
on the strided view arr[(-lo) % m :: m] of the multiples of m in the
segment, and a modulus with no multiple there is skipped.  Each prime
p <= isqrt(hi) negates mu and multiplies phi by p - 1 on the multiples of p,
zeroes mu on those of p^2, and multiplies phi by p on those of each higher
power of p.  A working array done takes the same factors of p, so it ends as
the part of n made of the sieving primes; it divides n, so it fits phi's
dtype.  The primes run in descending order and each writes spf on its
multiples, so the smallest prime dividing n writes spf(n) last and no test
for an unset spf is needed.  big = n // done is then 1 or the one prime
factor of n above isqrt(hi) (two such would exceed hi); where it exceeds 1
it negates mu and multiplies phi by big - 1, and it is spf(n) wherever no
sieving prime divides n (spf(1) = 1 this way).  So every segment yields
the true mu(n), phi(n) and spf(n) whatever its bounds, and the output does
not depend on the segmentation.  The transient is done and big: 8 bytes per
n of one segment below 2^31 and 16 from there on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numutil import check_allocation

DEFAULT_SEGMENT = 1 << 22
# Room for the array headers and Python scalars of one sieve_range call.
_SIEVE_FIXED_BYTES = 1 << 16


@dataclass(frozen=True)
class MultiplicativeBlock:
    """Arrays of mu(n), phi(n), spf(n) for n in [lo, hi] inclusive.

    Index i corresponds to n = lo + i.  spf(n) is the smallest prime factor,
    with the convention spf(1) = 1.  Arrays are read-only.
    """

    lo: int
    hi: int
    mu: np.ndarray   # int8
    phi: np.ndarray  # int32 (int64 when hi >= 2^31)
    spf: np.ndarray  # as phi

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def index(self, n: int) -> int:
        if not (self.lo <= n <= self.hi):
            raise IndexError(f"{n} outside block [{self.lo}, {self.hi}]")
        return n - self.lo

    def factor(self, n: int) -> list[tuple[int, int]]:
        """Prime factorization of n in the block as (p, e) pairs, p ascending."""
        out = []
        while n > 1:
            p = int(self.spf[n - self.lo])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return out

    def divisors(self, n: int) -> list[int]:
        """All divisors of n, the largest prime's exponent varying fastest
        (12 gives [1, 3, 2, 6, 4, 12])."""
        divs = [1]
        for p, e in self.factor(n):
            divs = [dv * p ** k for dv in divs for k in range(e + 1)]
        return divs


def _primes_bytes(n: int) -> int:
    """Peak memory of primes_upto(n): the n + 1 byte mask and the int64
    index of its primes, at most 1.25506 n / ln n of them (Rosser and
    Schoenfeld, Illinois J. Math. 6, 1962, valid for n > 1)."""
    return n + 1 + 8 * math.ceil(1.25506 * n / math.log(n))


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (empty for n < 2)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    check_allocation(_primes_bytes(n), f"prime sieve to {n}")
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(n ** 0.5) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return np.nonzero(mask)[0].astype(np.int64, copy=False)


def _sieve_segment(lo: int, hi: int, primes: np.ndarray, mu, phi, spf) -> None:
    """Sieve one segment [lo, hi] into mu, phi, spf (filled with 1, 1, 0).

    primes must cover sqrt(hi).  Works in place on strided views, with two
    working arrays in phi's dtype: done, the part of each n made of the
    sieving primes p <= isqrt(hi), and then big = n // done.
    """
    n = hi - lo + 1
    done = np.ones(n, dtype=phi.dtype)
    for p in map(int, primes[: np.searchsorted(primes, math.isqrt(hi), "right")][::-1]):
        if (s := -lo % p) >= n:
            continue
        spf[s::p] = p
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
    np.copyto(spf, big, where=spf == 0)
    left = big > 1
    np.negative(mu, out=mu, where=left)
    big -= 1
    np.multiply(phi, big, out=phi, where=left)


def _sieve_bytes(lo: int, hi: int, segment: int = DEFAULT_SEGMENT) -> int:
    """Peak memory of sieve_range(lo, hi, segment): the outputs, the two
    working arrays of one segment (done and big, in phi's dtype), the
    primes to sqrt(hi) and a few small arrays."""
    n = hi - lo + 1
    wide = np.dtype(_wide(hi)).itemsize
    return (n * (1 + 2 * wide) + min(n, segment) * 2 * wide
            + _primes_bytes(int(hi ** 0.5) + 1) + _SIEVE_FIXED_BYTES)


def _wide(hi: int):
    """dtype of phi and spf on a range ending at hi."""
    return np.int32 if hi < 2 ** 31 else np.int64


def sieve_range(lo: int, hi: int, segment: int = DEFAULT_SEGMENT) -> MultiplicativeBlock:
    """Compute mu, phi, spf on [lo, hi] inclusive, segment by segment."""
    if lo < 1 or hi < lo:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    check_allocation(_sieve_bytes(lo, hi, segment), f"multiplicative block [{lo}, {hi}]")
    n = hi - lo + 1
    mu = np.ones(n, dtype=np.int8)
    phi = np.ones(n, dtype=_wide(hi))
    spf = np.zeros(n, dtype=_wide(hi))
    primes = primes_upto(int(hi ** 0.5) + 1)
    for a in range(lo, hi + 1, segment):
        b = min(a + segment - 1, hi)
        part = slice(a - lo, b - lo + 1)
        _sieve_segment(a, b, primes, mu[part], phi[part], spf[part])
    for arr in (mu, phi, spf):
        arr.setflags(write=False)
    return MultiplicativeBlock(lo=lo, hi=hi, mu=mu, phi=phi, spf=spf)


_TABLE_MIN = 1 << 16
_table_block: MultiplicativeBlock | None = None
_table_cum: np.ndarray | None = None


def _table(n: int) -> MultiplicativeBlock:
    """mu, phi, spf over [1, n] as read-only views of the process-wide table.

    A request past the table's end sieves [1, max(n, _TABLE_MIN)] once and
    replaces the table; every smaller request reads views of it.  The
    build declares sieve_range's peak, which holds the retained arrays.
    """
    global _table_block, _table_cum
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if _table_block is None or _table_block.hi < n:
        _table_block = _table_cum = None  # let the old table go first
        _table_block = sieve_range(1, max(n, _TABLE_MIN))
    t = _table_block
    return MultiplicativeBlock(lo=1, hi=n, mu=t.mu[:n], phi=t.phi[:n], spf=t.spf[:n])


def _mertens_cum(n: int) -> np.ndarray:
    """cum[t] = m(t) = sum_{k <= t} mu(k)/k for t = 0..n, a read-only view.

    The cumsum runs once over the whole table, in index order, so cum[t]
    does not depend on the table's size.
    """
    global _table_cum
    _table(max(n, 1))
    if _table_cum is None:
        size = _table_block.hi
        check_allocation((size + 1) * 16, f"mertens cumsum to {size}")
        cum = np.zeros(size + 1, dtype=np.float64)
        cum[1:] = _table_block.mu
        cum[1:] /= np.arange(1, size + 1, dtype=np.float64)
        _table_cum = np.cumsum(cum, out=cum)
        _table_cum.setflags(write=False)
    return _table_cum[: n + 1]


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


def _coprime_mask(limit: int, q: int) -> np.ndarray:
    """Boolean mask over n = 1..limit (index n - 1) of gcd(n, q) = 1."""
    keep = np.ones(limit, dtype=bool)
    for p in prime_divisors(q):
        keep[p - 1:: p] = False
    return keep


def _prime_factor_product(n: int, ps: np.ndarray, f: np.ndarray) -> np.ndarray:
    """out[k] = prod_{p | k} f(p) for k = 0..n, multiplied in ascending p
    (out[0] = 1), with f(ps[i]) = f[i] and ps the primes up to n, ascending.

    Primes up to r = isqrt(n) are applied by strided slices.  A larger p
    divides each k <= n at most once and is then its largest prime factor,
    so those come last, one cofactor m = k/p at a time.
    """
    out = np.ones(n + 1, dtype=f.dtype)
    r = math.isqrt(n)
    small = int(np.searchsorted(ps, r, side="right"))
    for p, fp in zip(ps[:small].tolist(), f[:small]):
        out[p:: p] *= fp
    big, f_big = ps[small:], f[small:]
    ends = np.searchsorted(big, n // np.arange(1, n // (r + 1) + 1), side="right")
    for m, j in enumerate(ends.tolist(), 1):
        out[m * big[:j]] *= f_big[:j]
    return out


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
