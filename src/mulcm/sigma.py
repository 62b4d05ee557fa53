"""The double Moebius sum over least common multiples and its scan.

S(X) = sum over d1, d2 <= X of mu(d1) mu(d2) / lcm(d1, d2).

Three independent evaluation routes:

* the definition itself (pairwise lcm sums, vectorized rows);
* an exact incremental trace, using gcd = sum of phi over common divisors,
  maintained through per-divisor accumulators; it runs on integer
  numerators over the primorial L = prod_{p <= X} p, which every lcm of
  squarefree d, d' <= X divides;
* the coprime-decomposition form S(X) = sum_d mu^2(d) phi(d)/d^2 m_d(X/d)^2,
  with m_d the d-coprime Mertens sum, maintained incrementally through its
  own bookkeeping.

The batched scan evaluates the trace recursion in floats for millions of d:
the recursion's smooth-part contributions are indexed by their smooth factor
k (coefficient prod_{p | k}(1-p) per unit k, looked up against the arithmetic
table's Mertens cumsum), and all (k, d) pairs are expanded in bounded chunks
and scatter-added in ascending k, so the result does not depend on the chunk
size.  Scans checkpoint to CSV, replacing the file atomically, and resume
from the last checkpointed d.
"""

from __future__ import annotations

import csv
import math
import os
import shutil
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .mertens import m_q, m_q_exact
from .numutil import check_allocation
from .report import BoundReport
from .sieve import _coprime_mask, _mertens_cum, _table, primes_upto, smooth_numbers

# (k, d) pairs expanded per scatter-add in the scan; bounds its transient memory.
_SCAN_CHUNK = 1 << 17
# Scan memory, measured with tracemalloc: 56 bytes per d (seven 8-byte arrays
# over d or k; mu and the Mertens cumsum are views of the arithmetic table)
# and 40-44 bytes per expanded pair.
_SCAN_BYTES_PER_D = 64
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
    misses a prime raises rather than floors.
    """
    block = _table(X)
    mu, phi = block.mu.tolist(), block.phi.tolist()
    L = math.prod(primes_upto(X).tolist())

    def numerators():
        U = [0] * (X + 1)  # U[e] = L U_e
        total = 0
        for d in range(1, X + 1):
            mu_d = mu[d - 1]
            if mu_d != 0:
                divs = block.divisors(d)
                W = 0
                for e in divs:
                    W += phi[e - 1] * U[e]
                q, r = divmod(W, d)
                if r:
                    raise ArithmeticError(
                        f"L W({d}) is not a multiple of {d}: L misses a prime")
                Ld = L // d
                total += Ld + 2 * mu_d * q
                delta = mu_d * Ld
                for e in divs:
                    U[e] += delta
            yield total

    return L, numerators()


def sigma_trace_exact(X: int) -> list[Fraction]:
    """Exact [S(1), ..., S(X)] by the incremental recursion, carried as
    integer numerators over the primorial (see _trace_numerators)."""
    L, nums = _trace_numerators(X)
    return [Fraction(n, L) for n in nums]


def _gcd_row(g: np.ndarray, primes) -> np.ndarray:
    """Fill g with gcd(n, d) for n = 1..len(g), d squarefree with the given
    prime factors: the product of the primes p | d that divide n."""
    g.fill(1)
    for p in primes:
        g[p - 1:: p] *= p
    return g


def sigma_pairs_trace(X: int) -> np.ndarray:
    """Float [S(1), ..., S(X)] by literal row sums of the definition.

    S(d) = S(d-1) + mu^2(d)/d + 2 mu(d) sum_{d' < d} mu(d')/lcm(d, d').
    Vectorized per row, the row's gcds built from the prime factors of d
    (only squarefree d have a row); no identity beyond the definition is
    used.
    """
    block = _table(X)
    mu = block.mu  # mu[n - 1] = mu(n)
    out = np.zeros(X, dtype=np.float64)
    total = 1.0
    out[0] = 1.0
    idx_f = np.arange(1, X + 1, dtype=np.float64)
    muf = mu.astype(np.float64)
    g_buf = np.empty(X, dtype=np.int64)
    for d in range(2, X + 1):
        if mu[d - 1] != 0:
            g = _gcd_row(g_buf[: d - 1], [p for p, _ in block.factor(d)])
            row = muf[: d - 1] * g / (idx_f[: d - 1] * d)
            total += 1.0 / d + 2.0 * float(mu[d - 1]) * float(np.sum(row))
        out[d - 1] = total
    return out


def sigma_coprime_trace(X: int) -> np.ndarray:
    """Float [S(1), ..., S(X)] through the coprime-decomposition form.

    Maintains md[d] = m_d(floor(X'/d)) for the current prefix X', where
    m_d(y) = sum_{n <= y, (n, d) = 1} mu(n)/n, and the running value
    S = sum_d mu^2(d) phi(d)/d^2 * md[d]^2.  When X' grows to n, exactly
    the divisors d of n see their argument floor(n/d) jump, and the new
    point n/d enters m_d iff gcd(n/d, d) = 1.
    """
    block = _table(X)
    mu = block.mu  # mu[n - 1] = mu(n)
    md = np.zeros(X + 1, dtype=np.float64)
    weight = np.zeros(X + 1, dtype=np.float64)
    dd = np.arange(1, X + 1, dtype=np.float64)
    weight[1:] = np.where(block.mu != 0, block.phi / (dd * dd), 0.0)
    out = np.zeros(X, dtype=np.float64)
    total = 0.0
    for n in range(1, X + 1):
        for d in block.divisors(n):
            q = n // d
            if mu[q - 1] != 0 and math.gcd(q, d) == 1:
                # m_d gains mu(q)/q; update the weighted square's total.
                if weight[d] != 0.0:
                    old = md[d]
                    new = old + float(mu[q - 1]) / q
                    total += weight[d] * (new * new - old * old)
                    md[d] = new
                else:
                    md[d] += float(mu[q - 1]) / q
        out[n - 1] = total
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

def landau_coprime_m(d: int, y, exact: bool = True):
    """sum_{n < y, (n, d) = 1} mu(n)/n, strict cutoff, exact by default.

    This is m_d at the cutoff ceil(y) - 1.
    """
    limit = math.ceil(y) - 1
    return m_q_exact(limit, d) if exact else m_q(limit, d)


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
            lhs = landau_coprime_m(d, y, exact=True)
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
    (float64, multiplied in ascending p) for k = 0..X, from one pass over
    the primes."""
    rad = np.ones(X + 1, dtype=np.int64)
    cn = np.ones(X + 1, dtype=np.float64)
    for p in primes_upto(X).tolist():
        rad[p:: p] *= p
        cn[p:: p] *= 1.0 - p
    return rad, cn


def _scan_increments(X: int, d_from: int) -> np.ndarray:
    """inc[d] = S(d) - S(d-1) in floats for d_from <= d <= X (0 elsewhere).

    The recursion's weighted history W(d) is expanded over the d-smooth
    factor k of the inner variable: each k with radical R dividing d
    contributes (prod_{p|k}(1-p)/k) * m((d-1) // k), m being the cumulative
    Mertens sum.  All (k, d) pairs are expanded k-ascending in chunks of at
    most _SCAN_CHUNK pairs and scatter-added with np.add.at, which applies
    the adds in array order: every inner[d] is summed in ascending k.
    """
    M = _mertens_cum(X)
    k = np.arange(1, X, dtype=np.int64)
    rad, cn = _radical_and_coeffs(X)
    R = rad[1: X]
    w = np.divide(cn[1: X], k, out=cn[1: X])
    start = (np.maximum(k, d_from - 1) // R + 1) * R
    cnt = np.maximum((X - start) // R + 1, 0)
    ends = np.cumsum(cnt)
    first = np.subtract(ends, cnt, out=cnt)  # reuses cnt's buffer
    n_pairs = int(ends[-1]) if X > 1 else 0
    inner = np.zeros(X + 1, dtype=np.float64)
    for a in range(0, n_pairs, _SCAN_CHUNK):
        b = min(a + _SCAN_CHUNK, n_pairs)
        i0, i1 = np.searchsorted(ends, [a, b - 1], side="right")
        c = np.minimum(ends[i0: i1 + 1], b) - np.maximum(first[i0: i1 + 1], a)
        rep = np.repeat(np.arange(i0, i1 + 1), c)
        d = start[rep] + (np.arange(a, b) - first[rep]) * R[rep]
        np.add.at(inner, d, w[rep] * M[(d - 1) // k[rep]])
    del k, R, w, rad, cn, start, cnt, ends, first
    inc = np.zeros(X + 1, dtype=np.float64)
    dd = np.arange(1, X + 1, dtype=np.float64)
    muf = _table(X).mu.astype(np.float64)
    inc[1:] = (muf * muf) / dd + 2.0 * muf / dd * inner[1:]
    if d_from > 1:
        inc[: d_from] = 0.0
    return inc


def _scan_bytes(X: int) -> int:
    """Peak memory of a scan to X: arrays over d plus one chunk of pairs."""
    return X * _SCAN_BYTES_PER_D + _SCAN_CHUNK * _SCAN_BYTES_PER_PAIR


CHECKPOINT_HEADER = ["d", "sigma", "running_max_arg", "running_max"]


def _read_checkpoint(path: str) -> tuple[int, float, int, float]:
    """Return the last row (d, sigma, running_max_arg, running_max)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CHECKPOINT_HEADER:
            raise ValueError(f"malformed checkpoint {path}: header {header}")
        last = None
        for row in reader:
            if len(row) != 4:
                raise ValueError(f"malformed checkpoint row {row}")
            last = row
    if last is None:
        raise ValueError(f"checkpoint {path} has no data rows")
    return int(last[0]), float(last[1]), int(last[2]), float(last[3])


def sigma_scan(X_max: int, checkpoint_path: str | None = None,
               checkpoint_every: int = 100_000, resume: bool = False) -> ScanResult:
    """Compute S(d) for all d <= X_max in floats.

    With checkpoint_path set, writes CSV rows (d, sigma, running_max_arg,
    running_max) every checkpoint_every values of d, after the checkpoint's
    earlier rows when resuming, and atomically replaces the checkpoint once
    all rows are written.  With resume=True the scan restarts from the last
    checkpointed d, recomputing only the remaining increments.  The running
    max tracks d >= 2 (d = 1 has the trivial value 1).
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
    values = np.cumsum(inc)
    if resume:
        values += base
        values[: d_from] = 0.0
    # The d at which the running max is reported: the multiples of
    # checkpoint_every when checkpointing, and X_max for the result.
    lo = max(2, d_from)
    ds = np.empty(0, dtype=np.int64)
    if checkpoint_path:
        first_row = -(-lo // checkpoint_every) * checkpoint_every
        ds = np.arange(first_row, X_max + 1, checkpoint_every, dtype=np.int64)
    if lo <= X_max and (ds.size == 0 or ds[-1] != X_max):
        ds = np.append(ds, X_max)
    maxes, args = _running_max(values[lo:], lo, run_max, run_arg, ds - lo)
    if ds.size:
        run_max, run_arg = float(maxes[-1]), int(args[-1])
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
                for d, a, mx in zip(ds.tolist(), args.tolist(), maxes.tolist()):
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


def _running_max(seg: np.ndarray, lo: int, run_max: float, run_arg: int,
                 rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running max of seg[i] = S(lo + i), continued from (run_max, run_arg),
    and its first argument, at the positions rows (ascending).

    A value replaces the max only when strictly greater, so ties keep the
    earliest d.
    """
    cum = np.maximum.accumulate(np.concatenate(([run_max], seg)))
    records = np.flatnonzero(seg > cum[:-1])
    args = np.concatenate(([run_arg], lo + records))
    return cum[rows + 1], args[np.searchsorted(records, rows, side="right")]


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

    if X_max >= 422:
        w = scan.window_extrema(422, X_max)
        reports["cap_0445"] = BoundReport(
            name="sigma-cap-0.445", domain=f"d in [422, {X_max}]",
            passed=w["max"] <= 0.445,
            worst_ratio=w["max"] / 0.445,
            worst_arg=w["argmax"], bound=0.445, details=w)

    if X_max >= 2:
        w2 = scan.window_extrema(2, X_max)
        reports["cap_19_30"] = BoundReport(
            name="sigma-cap-19/30", domain=f"d in [2, {X_max}]",
            passed=w2["max"] <= 19.0 / 30.0 + 1e-12,
            worst_ratio=w2["max"] / (19.0 / 30.0),
            worst_arg=w2["argmax"], bound=19.0 / 30.0, details=w2)

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


def drift_report(scan: ScanResult, shadow_to: int = 5000,
                 slack: float = 5e-4) -> BoundReport:
    """Bound the float accumulation error of a scan by an exact shadow.

    The trace is recomputed exactly up to shadow_to as integer numerators
    L S(d) over the primorial L, each streamed to the float n / L (int
    true division rounds correctly, so this is float(S(d))).  The largest
    deviation is extrapolated linearly in d (the accumulation is a sum of
    per-step roundings), and the result is compared to the slack available
    in the window inequalities.
    """
    upto = min(shadow_to, scan.X_max)
    L, nums = _trace_numerators(upto)
    dev = 0.0
    for d, n in enumerate(nums, start=1):
        dev = max(dev, abs(float(scan.values[d]) - n / L))
    extrapolated = dev * (scan.X_max / upto)
    return BoundReport(
        name="scan-float-drift", domain=f"exact shadow to {upto}",
        passed=extrapolated <= slack,
        worst_ratio=extrapolated / slack,
        worst_arg=upto, bound=slack,
        details={"max_deviation": dev, "extrapolated": extrapolated})
