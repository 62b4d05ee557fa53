"""Numerical utilities: correctly rounded summation, certified quadrature, budgets.

Everything downstream that adds many floats goes through math.fsum or, for
an array, the correctly rounded fsum_array, and every integral that feeds an
inequality goes through adaptive_simpson so we always have an error
estimate to fold into the verdict.

fsum_array returns exactly what math.fsum returns.  It splits the array
exactly into a few floats in numpy, block by block (the error-free
extraction of Rump, Ogita and Oishi, 2008, run on each block until its
leftover is zero), and returns their math.fsum.  _ExactSum is that
extraction for values that arrive in blocks: its result does not depend on
how they are split.

The table checks sweep a range [0, N] in blocks of _SWEEP_BLOCK indices
(_blocks).  Between blocks they carry a running sum (_RunningSum) and a
running maximum with its first index (_RunningMax), which reproduce
np.cumsum and np.argmax over the whole range bit for bit.  A sweep skips a
block whose bound cannot beat the maximum (_RunningMax.could_rise): IEEE
+ - * / and sqrt round correctly, hence monotonically, so a ratio computed
at the block's extreme inputs bounds every ratio computed in the block, and
a relative pad of 2^-40 covers the few ulps by which log and pow may stray.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import traceback

import numpy as np


class BudgetError(RuntimeError):
    """Raised when an operation would exceed a configured resource budget."""


def memory_budget_bytes() -> int:
    """Resource ceiling for large allocations, in bytes.

    Controlled by the MULCM_MEMORY_BUDGET environment variable (bytes).
    Default is 8 GiB, which fits every documented workload, or the machine's
    physical memory if that is less.
    """
    raw = os.environ.get("MULCM_MEMORY_BUDGET")
    if raw is None:
        try:
            physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
            physical = 0
        return min(8 << 30, physical) if physical > 0 else 8 << 30
    try:
        val = int(raw)
    except ValueError as exc:
        raise BudgetError(f"MULCM_MEMORY_BUDGET must be an integer, got {raw!r}") from exc
    if val <= 0:
        raise BudgetError(f"MULCM_MEMORY_BUDGET must be positive, got {val}")
    return val


def check_allocation(nbytes: int, what: str = "allocation") -> None:
    """Raise BudgetError if a planned allocation exceeds the memory budget."""
    budget = memory_budget_bytes()
    if nbytes > budget:
        raise BudgetError(
            f"{what} needs {nbytes} bytes but MULCM_MEMORY_BUDGET allows {budget}"
        )


# Up to this many values one fsum call is faster than the extraction.
_FSUM_DIRECT_MAX = 1024
# Elements per extraction block: the passes over one block run in the L2 cache.
_EXTRACTION_BLOCK = 1 << 15


def _fsum(x) -> float:
    """math.fsum of a contiguous float64 array, read through a memoryview."""
    return math.fsum(memoryview(x))


class _ExactSum:
    """The exact sum of float64 values that arrive block by block.

    add(values) splits the exact sum of each block of up to
    _EXTRACTION_BLOCK values into a few floats (parts) by the error-free
    extraction of Rump, Ogita and Oishi ("Accurate floating-point
    summation, part I", SIAM J. Sci. Comput. 31, 2008):

    * With n values, 2^m >= n + 2 and max|x| < 2^E, the first pass uses the
      power of two sigma = 2^(E + m).  A pass computes q = (r + sigma) -
      sigma and r -= q (r starts as x).  Both steps are exact.  Every q is
      a multiple of u sigma (u = 2^-53) and, as sigma +- 2^-m sigma are
      floats and rounding is monotone, at most 2^-m sigma in size; so every
      partial sum of them is a multiple of u sigma below n / (n + 2) sigma,
      a float, and sum(q) is exact in any order: one part.  The new
      |r| <= u sigma, so the next pass uses sigma 2^(m - 53).
    * Passes repeat until r is all zero, each taking the next 53 - m bits
      of the block.  Should u sigma fall below the normal range (sigma <
      2^-969) first, the nonzero leftovers become parts as they are; so do
      all the values of a block with a non-finite value or with max|x|
      >= 2^960 or < 2^-800.

    So the parts sum exactly to the values fed, and value(), their
    math.fsum, is that sum correctly rounded (ties to even): the same float
    for any split into blocks, math.fsum of all the values as one list.
    """

    def __init__(self):
        self.parts: list[float] = []

    def add(self, values) -> None:
        x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
        q, r = np.empty(min(x.size, _EXTRACTION_BLOCK)), np.empty(min(x.size, _EXTRACTION_BLOCK))
        for start in range(0, x.size, _EXTRACTION_BLOCK):
            rest = x[start:start + _EXTRACTION_BLOCK]
            top = max(float(rest.max()), -float(rest.min()))
            if not 2.0 ** -800 <= top < 2.0 ** 960:
                self.parts += rest.tolist()
                continue
            qb, rb = q[:rest.size], r[:rest.size]
            m = (rest.size + 1).bit_length()  # 2^m >= n + 2
            sigma = math.ldexp(1.0, math.frexp(top)[1] + m)
            while True:
                np.add(rest, sigma, out=qb)
                qb -= sigma
                rest = np.subtract(rest, qb, out=rb)
                self.parts.append(float(qb.sum()))
                sigma = math.ldexp(sigma, m - 53)
                if not rest.any() or sigma < 2.0 ** -969:
                    self.parts += rest[rest != 0.0].tolist()
                    break

    def value(self) -> float:
        return math.fsum(self.parts)


def fsum_array(values) -> float:
    """The correctly rounded sum of an array's values as float64.

    Returns exactly math.fsum(values.tolist()), the float nearest the exact
    sum (ties to even), but does the work in numpy: the extraction of
    _ExactSum over the one array.  An array of at most _FSUM_DIRECT_MAX
    values, or one that _ExactSum would not extract whole (a non-finite
    value, max|x| >= 2^960 or < 2^-800), goes to math.fsum through a
    memoryview instead, which gives the same result, or raises the same
    exception, as fsum of a list; fsum's overflow depends on the order of
    the values, which the extraction would not keep.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    if x.size <= _FSUM_DIRECT_MAX:
        return _fsum(x)
    top = max(float(x.max()), -float(x.min()))
    if not 2.0 ** -800 <= top < 2.0 ** 960:
        return _fsum(x)
    total = _ExactSum()
    total.add(x)
    return total.value()


def _usable_cpus() -> int:
    """The CPUs this process may run on: the shards of a forked split."""
    return len(os.sched_getaffinity(0))


def _forked(work, shards: int) -> list:
    """[work(0), ..., work(shards - 1)], work(0) in the caller and each
    other shard in a worker forked before it.  A worker pickles its result,
    or its exception with the traceback text, into a pipe and always leaves
    by os._exit; the exception raises in the caller, from a RuntimeError
    with that text.  The caller kills and reaps every worker in a finally."""
    workers = []
    try:
        for shard in range(1, shards):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    os.close(read)
                    try:
                        payload = pickle.dumps((work(shard), None))
                    except BaseException as exc:
                        payload = pickle.dumps((exc, traceback.format_exc()))
                    with open(write, "wb") as pipe:
                        pipe.write(payload)
                finally:
                    os._exit(0)
            os.close(write)
            workers.append((pid, read))
        results = [work(0)]
        for pid, read in workers:
            with open(read, "rb", closefd=False) as pipe:
                data = pipe.read()
            value, text = pickle.loads(data) if data else (
                RuntimeError(f"worker {pid} ended without a result"), "")
            if text is not None:
                raise value from RuntimeError(f"raised in a forked worker:\n{text}")
            results.append(value)
        return results
    finally:
        for pid, read in workers:
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def libm_power(x: np.ndarray, e: float) -> np.ndarray:
    """x ** e at each float of x by libm pow, as math.pow: np.float_power has
    no SIMD loop for float64 and calls C pow once per element, on every CPU;
    np.power's SIMD loops differ from libm in the last ulp at some inputs."""
    return np.float_power(x, e)


# Indices per block of a blocked sweep: a block's temporaries stay in the L2
# cache, and a sweep over [0, N] holds no array over [0, N] of its own.
_SWEEP_BLOCK = 1 << 16


def _blocks(start: int, stop: int):
    """(lo, hi) of the consecutive blocks of at most _SWEEP_BLOCK indices
    that cover [start, stop), in order."""
    step = _SWEEP_BLOCK
    return ((lo, min(lo + step, stop)) for lo in range(start, stop, step))


class _RunningSum:
    """np.cumsum of a sequence that arrives block by block.

    cumsum(terms) turns one block of terms into running sums in place,
    after adding the last running sum so far (carry; a seed stands for a
    term before the first block) to its first term.  np.cumsum adds in
    sequence, so the blocks equal one np.cumsum over the whole sequence
    bit for bit.
    """

    def __init__(self, carry: float | None = None):
        self.carry = carry

    def cumsum(self, terms: np.ndarray) -> np.ndarray:
        if self.carry is not None:
            terms[0] += self.carry
        np.cumsum(terms, out=terms)
        self.carry = terms[-1]
        return terms


class _RunningMax:
    """The largest value offered so far and where it first occurs.

    feed(values, lo, tag) offers values[i] at index lo + i (the pair
    (tag, lo + i) when tag is given) and returns whether one of them became
    the maximum.  Only a strictly larger value replaces the maximum, so
    over blocks fed in index order the result is np.argmax's first maximum
    over them all.  value and arg start at the given floor and its index:
    _RunningMax(0.0, 0) sweeps as if index 0 and any skipped prefix held 0.

    could_rise(bound) is False only when bound, padded upward by a relative
    2^-40, is <= value: values at most bound cannot replace the maximum
    (a tie keeps the first), so their block need not be fed.  A NaN bound
    never skips.
    """

    def __init__(self, value: float = -math.inf, arg=None):
        self.value, self.arg = value, arg

    def feed(self, values: np.ndarray, lo: int = 0, tag=None) -> bool:
        j = int(np.argmax(values))
        if not values[j] > self.value:
            return False
        self.value = float(values[j])
        self.arg = lo + j if tag is None else (tag, lo + j)
        return True

    def could_rise(self, bound: float) -> bool:
        return not bound + abs(bound) * 2.0 ** -40 <= self.value


def _simpson(f, a: float, b: float, fa: float, fm: float, fb: float) -> float:
    return (b - a) * (fa + 4.0 * fm + fb) / 6.0


def _adaptive(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(f, a, m, fa, flm, fm)
    right = _simpson(f, m, b, fm, frm, fb)
    # Richardson: Simpson error on the halved mesh is (left+right-whole)/15.
    err = (left + right - whole) / 15.0
    if depth <= 0 or abs(err) <= tol:
        return left + right + err, abs(err)
    lval, lerr = _adaptive(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
    rval, rerr = _adaptive(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)
    return lval + rval, lerr + rerr


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10,
                     max_depth: int = 48) -> tuple[float, float]:
    """Integrate f on [a, b], returning (value, error_estimate).

    The error estimate is the accumulated Richardson estimate, suitable for
    widening a certified bound.  Integrand must be finite on [a, b].
    """
    if a == b:
        return 0.0, 0.0
    if b < a:
        v, e = adaptive_simpson(f, b, a, tol, max_depth)
        return -v, e
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = _simpson(f, a, b, fa, fm, fb)
    return _adaptive(f, a, b, fa, fm, fb, whole, tol, max_depth)


def quad_log(f, a: float, b: float, tol: float = 1e-10) -> tuple[float, float]:
    """Integrate f on [a, b] (0 < a < b) after the substitution u = e^v.

    Integrands here typically decay like powers of u times powers of log u,
    so they become smooth and well scaled in v = log u.
    """
    if not (0.0 < a):
        raise ValueError("quad_log needs 0 < a <= b")
    la, lb = math.log(a), math.log(b)
    return adaptive_simpson(lambda v: f(math.exp(v)) * math.exp(v), la, lb, tol)


def quad_checked(f, a: float, b: float, tol: float = 1e-8,
                 agreement: float = 1e-5) -> tuple[float, float]:
    """Integrate twice by quad_log (tol, tol/100); insist the results agree.

    Returns (value_at_finer_tol, error_bound) where the error bound is the
    larger of the finer run's estimate and the observed disagreement.  Raises
    ValueError if the two runs disagree by more than `agreement` relatively,
    which would mean the integrand defeats the quadrature.
    """
    v1, _ = quad_log(f, a, b, tol)
    v2, e2 = quad_log(f, a, b, tol / 100.0)
    scale = max(abs(v1), abs(v2), 1e-300)
    if abs(v1 - v2) / scale > agreement:
        raise ValueError(
            f"quadrature self-check failed: {v1!r} vs {v2!r} on [{a}, {b}]"
        )
    return v2, max(e2, abs(v1 - v2))
