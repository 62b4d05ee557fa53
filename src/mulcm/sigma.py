"""The double Moebius sum over least common multiples and its scan.

S(X) = sum over d1, d2 <= X of mu(d1) mu(d2) / lcm(d1, d2).

Three independent evaluation routes:

* the definition itself (pairwise lcm sums, vectorized rows);
* an exact incremental trace, using gcd = sum of phi over common divisors,
  maintained through per-divisor accumulators; it runs on integer
  numerators over the primorial L = prod_{p <= X} p, which every lcm of
  squarefree d, d' <= X divides.  The scan's drift shadow runs the same
  recursion in 160-bit fixed point with an error bound, which decides each
  correctly rounded float(S(d)) without the primorial, and falls back to
  the exact numerators where it cannot;
* the coprime-decomposition form S(X) = sum_d mu^2(d) phi(d)/d^2 m_d(X/d)^2,
  with m_d the d-coprime Mertens sum, maintained incrementally through its
  own bookkeeping.

The batched scan evaluates the trace recursion in floats for millions of d:
the recursion's smooth-part contributions are indexed by their smooth factor
k (coefficient prod_{p | k}(1-p) per unit k, looked up against the arithmetic
table's Mertens cumsum) and walked in ascending k, each k only over the d
that can be squarefree.  A k that reaches many d adds its terms to its
strides of d as strided slices; the (k, d) pairs of the other k are
expanded in bounded chunks and scatter-added in order.  Each increment at a
squarefree d thus sums all its terms one by one in ascending k on either
path, and every other increment is +0.0, so the result, to the bit, depends
neither on the chunk size nor on where the dense/sparse threshold lies.
Scans checkpoint to CSV, replacing the file atomically, resume from the
last checkpointed d, and refuse a checkpoint row that no scan could have
written.
"""

from __future__ import annotations

import csv
import math
import os
import shutil
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

import numpy as np

from .mertens import m_q_exact
from .numutil import _RunningMax, _blocks, check_allocation
from .report import BoundReport
from .sieve import (
    _coprime_mask, _mertens_cum, _prime_factor_product, _squarefree_factors,
    _table, primes_upto, smooth_numbers,
)

# The direct-computation cap S(d) <= 19/30 for d >= 2, which the scan checks
# and the theorem table's combined first row takes as the scan maximum.
SCAN_CAP = 19.0 / 30.0
# The window cap S(d) <= 0.445 for d >= 422.
_WINDOW_CAP, _WINDOW_FROM = 0.445, 422

# (k, d) pairs expanded per scatter-add, and d per strided block, in the scan;
# bounds its transient memory.
_SCAN_CHUNK = 1 << 17
# A k that reaches at least this many walked d is added as strided slices
# rather than through the pair expansion: a slice costs 2-10 ns per d, a
# scattered pair 18-30 ns, and a k's numpy calls 10-30 us.  1024 to 2048 time
# alike (best of 30 at 10^5: 52.1, 52.1 and 53.5 ms; of 8 at 10^6: 853, 860
# and 860 ms).  At X = 10^5 the 439 k past 1536 carry 55% of the 3.8e6
# walked pairs; at 10^6, 5141 k carry 73% of 6.2e7.
_SCAN_STRIDE_MIN = 1536
# Scan memory per d, checked with tracemalloc (mu and the Mertens cumsum are
# views of the arithmetic table): while k is walked, five 8-byte arrays (rad
# and c_num, under the views step and w; start, in k's buffer; cum, under cnt,
# first and ends; inner) and the indices of the dense k, 8 bytes each: up to
# 48 bytes per d when every k is dense, the worst case declared here.  At the
# end, inner (turned into inc), mu as floats, 1..X and a temporary: 32 bytes.
# Traced peaks: 46.4 and 44.8 bytes per d with every k dense (X = 50 000 and
# 200 000); with the default threshold 9.6 and 43.0 MB (X = 2e5 and 10^6,
# chunk included), 0.60 and 0.79 of the declaration.  Per expanded pair,
# 40-44 bytes; a strided block holds 16 bytes per d, within the same chunk.
_SCAN_BYTES_PER_D = 48
_SCAN_BYTES_PER_PAIR = 48


# ----------------------------------------------------------------------
# Exact small-scale routes.

def sigma_bruteforce(X: int, method: str = "auto") -> Fraction:
    """Exact S(X) from first principles.

    method "pairs" evaluates the definition literally (fine up to a few
    hundred); "gcd" expands gcd(d1,d2) = sum of phi(e) over common divisors
    e, giving S(X) = sum_e phi(e) (sum_{n <= X, e | n} mu(n)/n)^2; "auto"
    picks pairs for X <= 300.  The two methods agree, which is itself a
    tested invariant.
    """
    if X < 1:
        return Fraction(0)
    if method == "auto":
        method = "pairs" if X <= 300 else "gcd"
    block = _table(X)
    mu = block.mu  # mu[n - 1] = mu(n)
    if method == "pairs":
        total = Fraction(0)
        sf = [d for d in range(1, X + 1) if mu[d - 1] != 0]
        for d1 in sf:
            for d2 in sf:
                g = math.gcd(d1, d2)
                total += Fraction(int(mu[d1 - 1]) * int(mu[d2 - 1]) * g, d1 * d2)
        return total
    if method == "gcd":
        total = Fraction(0)
        for e in range(1, X + 1):
            s = Fraction(0)
            for n in range(e, X + 1, e):
                if mu[n - 1]:
                    s += Fraction(int(mu[n - 1]), n)
            if s:
                total += int(block.phi[e - 1]) * s * s
        return total
    raise ValueError(f"unknown method {method!r}")


def _trace_numerators(X: int) -> tuple[int, Iterator[int]]:
    """(L, iterator of L*S(d) for d = 1..X), L the primorial of X.

    S(d) - S(d-1) = mu^2(d)/d + (2 mu(d)/d) W(d) with
    W(d) = sum_{d' < d} mu(d') gcd(d, d') / d'
         = sum_{e | d} phi(e) U_e,   U_e = sum_{d' < d, e | d'} mu(d')/d',
    using gcd(d, d') = sum of phi(e) over e dividing both.  Every lcm of
    squarefree d, d' <= X divides L, so L U_e, L W(d)/d = sum_{d' < d}
    mu(d') L/lcm(d, d') and L S(d) are integers, and the recursion runs on
    them exactly.  The division of L W(d) by d is checked, so an L that
    misses a prime raises rather than floors.  Only a squarefree d moves
    the sum; its divisors come from sieve._squarefree_factors.
    """
    block = _table(X)
    mu, phi = block.mu.tolist(), block.phi.tolist()
    L = math.prod(primes_upto(X).tolist())

    def numerators():
        U = [0] * (X + 1)  # U[e] = L U_e
        total = done = 0  # total = L S(d); done = d yielded so far
        for d, _, divs in _squarefree_factors(X):
            yield from repeat(total, d - 1 - done)
            done = d - 1
            W = 0
            for e in divs:
                W += phi[e - 1] * U[e]
            q, r = divmod(W, d)
            if r:
                raise ArithmeticError(
                    f"L W({d}) is not a multiple of {d}: L misses a prime")
            Ld = L // d
            total += Ld + 2 * mu[d - 1] * q
            delta = mu[d - 1] * Ld
            for e in divs:
                U[e] += delta
        yield from repeat(total, X - done)

    return L, numerators()


# Fraction bits of the drift shadow's fixed point (_fixed_point_trace).  At
# 160 its error bound stays below 2^15 units to d = 5000, about 90 bits under
# the last place of a float near S(d), so no d there needs the exact route.
_SHADOW_BITS = 160


def _fixed_point_trace(X: int) -> Iterator[tuple[int, int, int]]:
    """(d, T_d, E_d) at each squarefree d <= X, with |T_d - 2^K S(d)| <= E_d.

    The recursion of _trace_numerators in units of 2^-K (K = _SHADOW_BITS)
    on integers of about K bits: floor(2^K/d) stands for L/d, and
    floor(W/d) for the exact quotient.  Each term added to an accumulator U[e] is within one
    unit of 2^K mu(d')/d', so U[e] is off by at most its count of adds,
    adds[e]; W = sum_{e | d} phi(e) U[e] by at most eW = sum phi(e) adds[e];
    floor(W/d) by at most eW/d + 1 <= eW // d + 2; and floor(2^K/d) by less
    than one unit.  So E grows by 5 + 2 (eW // d) at each squarefree d.
    """
    one = 1 << _SHADOW_BITS
    block = _table(X)
    mu, phi = block.mu.tolist(), block.phi.tolist()
    U, adds = [0] * (X + 1), [0] * (X + 1)
    T = E = 0
    for d, _, divs in _squarefree_factors(X):
        W = eW = 0
        for e in divs:
            f = phi[e - 1]
            W += f * U[e]
            eW += f * adds[e]
        r = one // d
        T += r + 2 * mu[d - 1] * (W // d)
        E += 5 + 2 * (eW // d)
        delta = mu[d - 1] * r
        for e in divs:
            U[e] += delta
            adds[e] += 1
        yield d, T, E


def _trace_floats(X: int) -> np.ndarray:
    """float(S(d)) for d = 1..X (index d - 1), each correctly rounded.

    At each squarefree d, 2^K S(d) lies in [T_d - E_d, T_d + E_d]
    (_fixed_point_trace).  Int true division rounds correctly and rounding
    is monotone, so when both ends round to the same float, so does S(d).
    If some d is left undecided, the floats come from the exact numerators
    instead, as n / L.  S(d) holds from one squarefree d to the next.
    """
    one = 1 << _SHADOW_BITS
    vals = []
    for _, T, E in _fixed_point_trace(X):
        v = (T - E) / one
        if v != (T + E) / one:
            L, nums = _trace_numerators(X)
            return np.array([n / L for n in nums])
        vals.append(v)
    return np.array(vals)[np.cumsum(_table(X).mu != 0) - 1]


def sigma_trace_exact(X: int) -> list[Fraction]:
    """Exact [S(1), ..., S(X)] by the incremental recursion, carried as
    integer numerators over the primorial (see _trace_numerators)."""
    L, nums = _trace_numerators(X)
    return [Fraction(n, L) for n in nums]


def _gcd_row(g: np.ndarray, primes) -> np.ndarray:
    """Multiply g in place by gcd(n, d) at n = 1..len(g), d squarefree with
    the given prime factors: by each prime p | d at the n that p divides."""
    for p in primes:
        g[p - 1:: p] *= p
    return g


def sigma_pairs_trace(X: int) -> np.ndarray:
    """Float [S(1), ..., S(X)] by literal row sums of the definition.

    S(d) = S(d-1) + mu^2(d)/d + 2 mu(d) sum_{d' < d} mu(d')/lcm(d, d').
    Vectorized per row in two reused buffers, the row's gcds built from the
    prime factors of d (only squarefree d have a row; mu(d') gcd(d, d') is a
    small integer, so each product is exact); no identity beyond the
    definition is used.
    """
    block = _table(X)
    mu = block.mu  # mu[n - 1] = mu(n)
    out = np.empty(X, dtype=np.float64)
    total, done = 0.0, 0  # done = d written so far
    idx_f = np.arange(1, X + 1, dtype=np.float64)
    muf = mu.astype(np.float64)
    row_buf, den_buf = np.empty(X), np.empty(X)
    for d, primes, _ in _squarefree_factors(X):
        out[done: d - 1] = total
        done = d - 1
        row = row_buf[: d - 1]
        row[:] = muf[: d - 1]
        _gcd_row(row, primes)
        row /= np.multiply(idx_f[: d - 1], d, out=den_buf[: d - 1])
        total += 1.0 / d + 2.0 * float(mu[d - 1]) * float(np.add.reduce(row))
    out[done:] = total
    return out


def sigma_coprime_trace(X: int) -> np.ndarray:
    """Float [S(1), ..., S(X)] through the coprime-decomposition form.

    Maintains md[d] = m_d(floor(X'/d)) for the current prefix X' and each
    squarefree d, where m_d(y) = sum_{n <= y, (n, d) = 1} mu(n)/n, and the
    running value S = sum_d mu^2(d) phi(d)/d^2 * md[d]^2.  When X' grows to
    n, exactly the divisors d of n see floor(n/d) jump, and q = n/d enters
    m_d iff q is squarefree and prime to d, that is iff n = d q is
    squarefree: only a squarefree n moves S, and it moves every m_d, d | n.
    """
    block = _table(X)
    dd = np.arange(1, X + 1, dtype=np.float64)
    weight = [0.0] + (block.mu * block.mu * block.phi / (dd * dd)).tolist()
    mu = block.mu.tolist()  # mu[n - 1] = mu(n)
    md = [0.0] * (X + 1)
    out = np.empty(X, dtype=np.float64)
    total, done = 0.0, 0  # done = n written so far
    for n, _, divs in _squarefree_factors(X):
        out[done: n - 1] = total
        done = n - 1
        for d in divs:
            q = n // d
            old = md[d]
            new = old + mu[q - 1] / q
            total += weight[d] * (new * new - old * old)
            md[d] = new
    out[done:] = total
    return out


def sigma_via_gstar_identity(X: int) -> float:
    """S(X) evaluated directly as sum_d mu^2(d) phi(d)/d^2 m_d(floor(X/d))^2."""
    return _coprime_decomposition_sum(X, X)


def _coprime_decomposition_sum(X: int, D: int) -> float:
    """sum_{d <= D} mu^2(d) phi(d)/d^2 m_d(floor(X/d))^2, m_d by sieve masks."""
    if X < 1:
        return 0.0
    block = _table(X)
    mu_over_n = block.mu.astype(np.float64) / np.arange(1, X + 1, dtype=np.float64)
    total = 0.0
    for d in range(1, D + 1):
        if block.mu[d - 1] == 0:
            continue
        y = X // d
        md = float(np.sum(np.where(_coprime_mask(y, d), mu_over_n[:y], 0.0)))
        total += int(block.phi[d - 1]) / (d * d) * md * md
    return total


# ----------------------------------------------------------------------
# Strict-cutoff coprime Mertens sums and their smooth-part expansion.

def landau_coprime_m(d: int, y) -> Fraction:
    """sum_{n < y, (n, d) = 1} mu(n)/n, strict cutoff, as an exact rational.

    This is m_d at the cutoff ceil(y) - 1.
    """
    return m_q_exact(math.ceil(y) - 1, d)


def landau_smooth_expansion(d: int, y) -> Fraction:
    """The same sum expanded over the d-smooth part of n:

    sum_{n < y, (n,d)=1} mu(n)/n = sum_{l | d^inf, l < y} (1/l) sum_{n < y/l} mu(n)/n.
    Exact rationals; used as the second side of the identity check.
    """
    total = Fraction(0)
    limit = math.ceil(y) - 1
    if limit < 1:
        return total
    mu = _table(limit).mu  # mu[n - 1] = mu(n)
    strict = [Fraction(0)] * (limit + 2)
    acc = Fraction(0)
    for n in range(1, limit + 1):
        if mu[n - 1]:
            acc += Fraction(int(mu[n - 1]), n)
        strict[n + 1] = acc  # strict[v] = sum_{n < v} mu(n)/n for integer v
    for ell in smooth_numbers(d, limit):
        # strict cutoff n < y/ell; for integer v = ceil(y/ell), that is
        # sum over n <= v - 1 unless y/ell is attained non-integrally.
        v = y / ell
        cut = math.ceil(v) - 1 if float(v).is_integer() else math.floor(v)
        if cut >= 1:
            total += Fraction(1, ell) * strict[min(cut, limit) + 1]
    return total


def check_landau(d_max: int = 50, y_values=(2, 3, 10, 100, 1000)) -> BoundReport:
    """Exact identity check of the smooth-part expansion for small d, y."""
    bad = []
    for d in range(1, d_max + 1):
        for y in y_values:
            lhs = landau_coprime_m(d, y)
            rhs = landau_smooth_expansion(d, y)
            if lhs != rhs:
                bad.append((d, y, str(lhs), str(rhs)))
    return BoundReport(
        name="coprime-smooth-expansion",
        domain=f"d <= {d_max}, y in {tuple(y_values)}",
        passed=not bad,
        worst_ratio=0.0 if not bad else 1.0,
        worst_arg=bad[0][:2] if bad else None,
        bound=0.0,
        details={"violations": bad[:10]},
    )


# ----------------------------------------------------------------------
# The batched scan.

@dataclass
class ScanResult:
    """Scan output: S(d) for 1 <= d <= X_max and window statistics."""

    X_max: int
    values: np.ndarray  # values[d] = S(d), index 0 unused (0.0)
    resumed_from: int = 0
    checkpoint_path: str | None = None
    running_max: float = -math.inf  # over 2 <= d <= X_max, across resumes
    running_max_arg: int = 0

    def window_extrema(self, a: int, b: int) -> dict:
        a = max(a, 1)
        b = min(b, self.X_max)
        if a > b:
            raise ValueError(f"empty window [{a}, {b}]")
        if 0 < self.resumed_from >= a:
            raise ValueError(
                f"window [{a}, {b}] starts at or before the resume point "
                f"{self.resumed_from}; those values are not in memory "
                f"(the checkpoint carries only the global running max)")
        seg = self.values[a: b + 1]
        imax = int(np.argmax(seg))
        imin = int(np.argmin(seg))
        return {
            "window": [a, b],
            "max": float(seg[imax]), "argmax": a + imax,
            "min": float(seg[imin]), "argmin": a + imin,
        }


def _radical_and_coeffs(X: int) -> tuple[np.ndarray, np.ndarray]:
    """rad[k] = prod_{p | k} p (int64) and c_num[k] = prod_{p | k} (1 - p)
    (float64, multiplied in ascending p) for k = 0..X, filled block by
    block (numutil._blocks) by sieve._prime_factor_product."""
    ps = primes_upto(X)
    coeffs = 1.0 - ps
    rad, cn = np.empty(X + 1, dtype=np.int64), np.empty(X + 1)
    for lo, hi in _blocks(0, X + 1):
        rad[lo:hi] = _prime_factor_product(lo, hi, ps, ps)
        cn[lo:hi] = _prime_factor_product(lo, hi, ps, coeffs)
    return rad, cn


def _scan_increments(X: int, d_from: int) -> np.ndarray:
    """inc[d] = S(d) - S(d-1) in floats for d_from <= d <= X (0 elsewhere).

    The recursion's weighted history W(d) is expanded over the d-smooth
    factor k of the inner variable: each k with radical R dividing d
    contributes (prod_{p|k}(1-p)/k) * m((d-1) // k), m being the cumulative
    Mertens sum.  W(d) enters inc[d] times mu(d), and d = R t is squarefree
    only if t is prime to R, so an even R walks the odd t only (step 2R) and
    a dense k with 3 | R also skips the t divisible by 3.  The k are walked
    in ascending order.  A dense k, one that reaches at least
    _SCAN_STRIDE_MIN walked d, adds its terms as strided slices, in blocks
    of at most _SCAN_CHUNK values of d.  The (k, d) pairs of each run of
    sparse k between two dense k are expanded in chunks of at most
    _SCAN_CHUNK pairs and scatter-added with np.add.at, which applies the
    adds in array order.  Either way every squarefree d receives all its
    terms, one at a time in ascending k, so the result is bitwise the same
    for any threshold and chunk size; every other inc[d] is +0.0.
    """
    M = _mertens_cum(X)
    rad, cn = _radical_and_coeffs(X)
    k = np.arange(1, X, dtype=np.int64)
    step = rad[1: X]  # R, and 2R once the even R (the even k) are doubled
    w = np.divide(cn[1: X], k, out=cn[1: X])
    # start: the first R t > max(k, d_from - 1), t odd for even k (k = i + 1).
    start = np.maximum(k, d_from - 1, out=k)
    start //= step
    start += 1
    start[1::2] |= 1
    start *= step
    step[1::2] *= 2
    # cum[i] counts the walked pairs of the k below i + 1, so k = i + 1 owns
    # [first[i], ends[i]); as start <= X + step, no count is negative.
    cum = np.zeros(X, dtype=np.int64)
    cnt = np.subtract(X, start, out=cum[1:])
    cnt //= step
    cnt += 1
    dense = np.flatnonzero(cnt >= _SCAN_STRIDE_MIN)
    ends = np.cumsum(cnt, out=cnt)
    first, n_pairs = cum[:-1], int(cum[-1])
    inner = np.zeros(X + 1, dtype=np.float64)
    done = 0  # pairs before this index are added
    for i in map(int, dense):
        _scatter_pairs(inner, M, step, w, start, first, ends, done, int(first[i]))
        done = int(ends[i])
        s, r = int(start[i]), int(step[i])
        # With 3 | R, 9 divides every third d: walk the other two strides.
        for a, ra in ([(s, r)] if r % 3 else
                      [(a, 3 * r) for a in (s, s + r, s + 2 * r) if a % 9]):
            _add_stride(inner, M, i + 1, ra, a, w[i])
    _scatter_pairs(inner, M, step, w, start, first, ends, done, n_pairs)
    del k, step, w, rad, cn, start, cum, cnt, ends, first, dense
    # inner becomes inc[d] = mu^2(d)/d + (2 mu(d)/d) W(d) in place: the same
    # roundings, with the operands of the last product and sum swapped.
    muf = _table(X).mu.astype(np.float64)
    dd = np.arange(1, X + 1, dtype=np.float64)
    inner[1:] *= 2.0 * muf / dd
    inner[1:] += muf * muf / dd
    if d_from > 1:
        inner[: d_from] = 0.0
    return inner


def _add_stride(inner: np.ndarray, M: np.ndarray, k: int, r: int, s: int,
                w_k: float) -> None:
    """Add w_k * m((d-1) // k) to inner[d] for d = s, s + r, ... <= X, in
    strided blocks of at most _SCAN_CHUNK values of d.  When k divides r (as
    a squarefree k does), the (d-1) // k step by r // k: a strided slice of M."""
    X = inner.size - 1
    step = _SCAN_CHUNK * r
    for a in range(s, X + 1, step):
        b = min(a + step, X + 1)
        if r % k:
            g = M[np.arange(a - 1, b - 1, r) // k]
        else:
            g = M[(a - 1) // k:: r // k][: len(range(a, b, r))]
        inner[a: b: r] += g * w_k


def _scatter_pairs(inner: np.ndarray, M: np.ndarray, step: np.ndarray,
                   w: np.ndarray, start: np.ndarray, first: np.ndarray,
                   ends: np.ndarray, lo: int, hi: int) -> None:
    """Add the terms of the (k, d) pairs with index in [lo, hi) to inner,
    k-ascending, in chunks of at most _SCAN_CHUNK pairs (pair j belongs to
    k = i + 1 for first[i] <= j < ends[i])."""
    for a in range(lo, hi, _SCAN_CHUNK):
        b = min(a + _SCAN_CHUNK, hi)
        i0, i1 = np.searchsorted(ends, [a, b - 1], side="right")
        c = np.minimum(ends[i0: i1 + 1], b) - np.maximum(first[i0: i1 + 1], a)
        rep = np.repeat(np.arange(i0, i1 + 1), c)
        d = start[rep] + (np.arange(a, b) - first[rep]) * step[rep]
        np.add.at(inner, d, w[rep] * M[(d - 1) // (rep + 1)])


def _scan_bytes(X: int) -> int:
    """Peak memory of a scan to X: arrays over d plus one chunk of pairs."""
    return X * _SCAN_BYTES_PER_D + _SCAN_CHUNK * _SCAN_BYTES_PER_PAIR


CHECKPOINT_HEADER = ["d", "sigma", "running_max_arg", "running_max"]


def _read_checkpoint(path: str) -> tuple[int, float, int, float]:
    """Return the last row (d, sigma, running_max_arg, running_max).

    Every row must be one a scan can write: d >= 2, strictly increasing
    from row to row, sigma and running_max finite, running_max_arg in
    [2, d], and running_max >= sigma.  From one row to the next the running
    max cannot fall; if it is unchanged its argument is too (ties keep the
    first d), and if it rose its argument lies in (previous d, d].
    Anything else raises ValueError rather than resuming from it.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CHECKPOINT_HEADER:
            raise ValueError(f"malformed checkpoint {path}: header {header}")
        last = None
        for row in reader:
            if len(row) != 4:
                raise ValueError(f"malformed checkpoint row {row}")
            d, value, arg, mx = int(row[0]), float(row[1]), int(row[2]), float(row[3])
            if d < 2 or (last is not None and d <= last[0]):
                raise ValueError(f"checkpoint row {row}: d must be >= 2 and "
                                 f"increase strictly from row to row")
            if not (math.isfinite(value) and math.isfinite(mx)):
                raise ValueError(f"checkpoint row {row}: non-finite value")
            if not 2 <= arg <= d:
                raise ValueError(f"checkpoint row {row}: running_max_arg "
                                 f"outside [2, {d}]")
            if mx < value:
                raise ValueError(f"checkpoint row {row}: running_max below sigma")
            if last is not None and (mx < last[3] or (
                    arg != last[2] if mx == last[3] else arg <= last[0])):
                raise ValueError(f"checkpoint row {row}: running max and its "
                                 f"argument do not follow from row {list(last)}")
            last = d, value, arg, mx
    if last is None:
        raise ValueError(f"checkpoint {path} has no data rows")
    return last


def sigma_scan(X_max: int, checkpoint_path: str | None = None,
               checkpoint_every: int = 100_000, resume: bool = False) -> ScanResult:
    """Compute S(d) for all d <= X_max in floats.

    With checkpoint_path set, writes CSV rows (d, sigma, running_max_arg,
    running_max) every checkpoint_every values of d, after the checkpoint's
    earlier rows when resuming, and atomically replaces the checkpoint once
    all rows are written.  With resume=True the scan restarts from the last
    checkpointed d, recomputing only the remaining increments, and its values
    equal a fresh scan's bit for bit.  The running max tracks d >= 2 (d = 1
    has the trivial value 1).
    """
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    check_allocation(_scan_bytes(X_max), f"sigma scan to {X_max}")
    d_from = 1
    base = 0.0
    run_arg, run_max = 0, -math.inf
    if resume:
        if not checkpoint_path:
            raise ValueError("resume requires a checkpoint path")
        d0, base, run_arg, run_max = _read_checkpoint(checkpoint_path)
        if d0 >= X_max:
            raise ValueError(f"checkpoint already covers {d0} >= {X_max}")
        d_from = d0 + 1
    inc = _scan_increments(X_max, d_from)
    # Seeded with S(d0), the cumsum adds the same floats in the same order as
    # a fresh scan's.
    inc[d_from - 1] = base
    values = np.cumsum(inc)
    # The d at which the running max is reported: the multiples of
    # checkpoint_every when checkpointing, and X_max for the result.
    lo = max(2, d_from)
    ds = np.empty(0, dtype=np.int64)
    if checkpoint_path:
        first_row = -(-lo // checkpoint_every) * checkpoint_every
        ds = np.arange(first_row, X_max + 1, checkpoint_every, dtype=np.int64)
    if lo <= X_max and (ds.size == 0 or ds[-1] != X_max):
        ds = np.append(ds, X_max)
    # One running max, fed the values up to each row in turn; ties keep the
    # earliest d.
    worst = _RunningMax(run_max, run_arg)
    rows = []
    for d in ds.tolist():
        worst.feed(values[lo: d + 1], lo)
        rows.append((d, worst.arg, worst.value))
        lo = d + 1
    run_max, run_arg = worst.value, worst.arg
    if checkpoint_path:
        # Rows go to a temporary file that replaces the checkpoint only when
        # complete, so an interrupted write leaves the old checkpoint intact.
        tmp = checkpoint_path + ".tmp"
        try:
            if resume:
                shutil.copyfile(checkpoint_path, tmp)
            with open(tmp, "a" if resume else "w", newline="") as fh:
                writer = csv.writer(fh)
                if not resume:
                    writer.writerow(CHECKPOINT_HEADER)
                for d, a, mx in rows:
                    writer.writerow([d, repr(float(values[d])), a, repr(mx)])
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, checkpoint_path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    return ScanResult(X_max=X_max, values=values,
                      resumed_from=d_from - 1 if resume else 0,
                      checkpoint_path=checkpoint_path,
                      running_max=run_max, running_max_arg=run_arg)


def scan_report(X_max: int = 1_000_000, scan: ScanResult | None = None) -> dict:
    """Window statistics and the direct-computation caps, as BoundReports.

    Checks (a) 0 <= S(d) everywhere, (b) S(d) <= 0.445 on [422, X_max],
    (c) S(d) <= 19/30 on [2, X_max], (d) some d in [1300, 1350] exceeds
    0.44455, (e) S(d) >= 0.437 on [1000, X_max].  A check whose window
    starts past X_max is left out.
    """
    if scan is None:
        scan = sigma_scan(X_max)
    reports: dict[str, BoundReport] = {}

    w_all = scan.window_extrema(1, X_max)
    reports["nonnegative"] = BoundReport(
        name="sigma-nonnegative", domain=f"d <= {X_max}",
        passed=w_all["min"] >= 0.0,
        worst_ratio=-w_all["min"],
        worst_arg=w_all["argmin"], bound=0.0, details=w_all)

    if X_max >= _WINDOW_FROM:
        w = scan.window_extrema(_WINDOW_FROM, X_max)
        reports["cap_0445"] = _window_cap_report(
            _WINDOW_FROM, X_max, _RunningMax(w["max"], w["argmax"]), w)

    if X_max >= 2:
        w2 = scan.window_extrema(2, X_max)
        reports["cap_19_30"] = _scan_cap_report(X_max, _RunningMax(w2["max"], w2["argmax"]), w2)

    if X_max >= 1300:
        w3 = scan.window_extrema(1300, 1350)
        reports["bump_above_044455"] = BoundReport(
            name="sigma-bump-[1300,1350]",
            domain=f"d in [1300, {min(X_max, 1350)}]",
            passed=w3["max"] > 0.44455,
            worst_ratio=0.44455 / w3["max"] if w3["max"] > 0 else math.inf,
            worst_arg=w3["argmax"], bound=0.44455, details=w3)

    if X_max >= 1000:
        w4 = scan.window_extrema(1000, X_max)
        reports["floor_0437"] = BoundReport(
            name="sigma-floor-0.437", domain=f"d in [1000, {X_max}]",
            passed=w4["min"] >= 0.437,
            worst_ratio=0.437 / w4["min"] if w4["min"] > 0 else math.inf,
            worst_arg=w4["argmin"], bound=0.437, details=w4)

    reports["float_drift"] = drift_report(scan)
    return reports


def _window_cap_report(lo: int, hi: int, top: _RunningMax, details: dict) -> BoundReport:
    """S(d) <= 0.445 on a window [lo, hi] with lo >= 422, top its largest S(d)."""
    return BoundReport.held_to(f"sigma-cap-{_WINDOW_CAP}", f"d in [{lo}, {hi}]", top, details,
                               cap=_WINDOW_CAP)


def _scan_cap_report(X_max: int, top: _RunningMax, details: dict) -> BoundReport:
    """S(d) <= 19/30 on [2, X_max], top the largest S(d); S(5) is the float 19/30."""
    return BoundReport.held_to("sigma-cap-19/30", f"d in [2, {X_max}]", top, details,
                               cap=SCAN_CAP)


def drift_report(scan: ScanResult, shadow_to: int = 5000) -> BoundReport:
    """Bound the float accumulation error of a scan by a certified shadow.

    The shadow gives the correctly rounded float(S(d)) for every
    d <= shadow_to (_trace_floats).  It runs the trace recursion in
    fixed point, T_d ~ 2^160 S(d) on 160-bit integers with a bound E_d on
    |T_d - 2^160 S(d)| that grows by 5 + 2 (eW // d) at each squarefree d
    (_fixed_point_trace; below 2^15 units to 5000), and takes
    (T_d - E_d) / 2^160 when it equals (T_d + E_d) / 2^160.  Only if some d
    is left undecided does it fall back to the exact numerators n / L over
    the primorial (_trace_numerators).  The largest deviation of the scan
    from those floats is extrapolated linearly in d (the accumulation is a
    sum of per-step roundings), and the result is compared to 5e-4, the
    slack available in the window inequalities.  A resumed scan holds no values
    at or below its resume point, and is refused.
    """
    upto = min(shadow_to, scan.X_max)
    scan.window_extrema(1, upto)  # refuses a resumed scan's missing prefix
    dev = float(np.max(np.abs(scan.values[1: upto + 1] - _trace_floats(upto))))
    extrapolated = dev * (scan.X_max / upto)
    return BoundReport.held_to("scan-float-drift", f"exact shadow to {upto}",
                               _RunningMax(extrapolated, upto),
                               {"max_deviation": dev, "extrapolated": extrapolated}, cap=5e-4)
