"""Segmented sieves for multiplicative data: mu, phi, smallest prime factor.

The central object is MultiplicativeBlock, a contiguous window [lo, hi] of
precomputed arrays.  Blocks are produced segment by segment so the working
set stays bounded; results are identical regardless of segmentation, which
the tests check explicitly on awkward boundaries.  The other modules take
phi, mu, factorizations and divisor lists from a block, and coprimality
masks and squarefree divisors of a modulus from the helpers here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numutil import check_allocation

DEFAULT_SEGMENT = 1 << 22


@dataclass(frozen=True)
class MultiplicativeBlock:
    """Arrays of mu(n), phi(n), spf(n) for n in [lo, hi] inclusive.

    Index i corresponds to n = lo + i.  spf(n) is the smallest prime factor,
    with the convention spf(1) = 1.  Arrays are read-only.
    """

    lo: int
    hi: int
    mu: np.ndarray   # int8
    phi: np.ndarray  # int64
    spf: np.ndarray  # int64

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


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (empty for n < 2)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    check_allocation(n + 1, f"prime sieve to {n}")
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(n ** 0.5) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def _sieve_segment(lo: int, hi: int, primes: np.ndarray):
    """Sieve one segment [lo, hi].  primes must cover sqrt(hi)."""
    n = hi - lo + 1
    vals = np.arange(lo, hi + 1, dtype=np.int64)
    rem = vals.copy()          # unfactored part of each n
    mu = np.ones(n, dtype=np.int8)
    phi = np.ones(n, dtype=np.int64)
    spf = np.zeros(n, dtype=np.int64)
    for p in primes:
        p = int(p)
        if p * p > hi:
            break
        start = ((lo + p - 1) // p) * p
        idx = np.arange(start - lo, n, p, dtype=np.int64)
        if idx.size == 0:
            continue
        unset = spf[idx] == 0
        spf[idx[unset]] = p
        # Divide out p completely, tracking exponent effects on mu and phi.
        r = rem[idx]
        r //= p
        phi[idx] *= p - 1
        mu[idx] = -mu[idx]
        again = r % p == 0
        while np.any(again):
            sub = idx[again]
            r2 = r[again] // p
            phi[sub] *= p
            mu[sub] = 0
            r[again] = r2
            again2 = np.zeros_like(again)
            again2[again] = r2 % p == 0
            again = again2
        rem[idx] = r
    # Leftover factor > sqrt(hi) is prime (appears to the first power).
    left = rem > 1
    phi[left] *= rem[left] - 1
    mu[left] = -mu[left]
    no_spf = left & (spf == 0)
    spf[no_spf] = rem[no_spf]
    if lo <= 1 <= hi:
        i = 1 - lo
        mu[i], phi[i], spf[i] = 1, 1, 1
    if lo <= 0:
        raise ValueError("sieve domain starts at 1")
    return mu, phi, spf


def sieve_range(lo: int, hi: int, segment: int = DEFAULT_SEGMENT) -> MultiplicativeBlock:
    """Compute mu, phi, spf on [lo, hi] inclusive, segment by segment."""
    if lo < 1 or hi < lo:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    check_allocation((hi - lo + 1) * 17, f"multiplicative block [{lo}, {hi}]")
    primes = primes_upto(int(hi ** 0.5) + 1)
    mus, phis, spfs = [], [], []
    a = lo
    while a <= hi:
        b = min(a + segment - 1, hi)
        mu, phi, spf = _sieve_segment(a, b, primes)
        mus.append(mu)
        phis.append(phi)
        spfs.append(spf)
        a = b + 1
    mu = np.concatenate(mus)
    phi = np.concatenate(phis)
    spf = np.concatenate(spfs)
    for arr in (mu, phi, spf):
        arr.setflags(write=False)
    return MultiplicativeBlock(lo=lo, hi=hi, mu=mu, phi=phi, spf=spf)


def mu_upto(n: int) -> np.ndarray:
    """mu(k) for k = 0..n as int8 (index 0 unused, set to 0)."""
    block = sieve_range(1, n)
    out = np.zeros(n + 1, dtype=np.int8)
    out[1:] = block.mu
    return out


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
    r = int(x ** 0.5)
    while (r + 1) * (r + 1) <= x:
        r += 1
    while r * r > x:
        r -= 1
    mu = mu_upto(r)
    total = 0
    for d in range(1, r + 1):
        m = int(mu[d])
        if m:
            total += m * (x // (d * d))
    return total
