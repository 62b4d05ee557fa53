"""Weighted Mertens sums m(y) = sum_{n<=y} mu(n)/n and their envelopes.

Two layers:

* direct evaluation: exact rationals for small y (m_q_exact, whose q = 1
  case is m itself), the float cumsum of the arithmetic table
  (`sieve._mertens_cum`) for m at a point and, block by block, the running
  sum of the q-coprime terms (q = 1 included) for scan-scale y;
* envelope machinery: the square-root and logarithmic decay bounds and
  their coprime generalization with multiplicative inflation factors, each
  checkable against direct evaluation on a finite range.  The checks sweep
  the range in blocks (`numutil._blocks`), carrying the q-coprime cumsum
  and the worst ratio with its first argument, so a sweep holds no array
  over the range besides the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numutil import _RunningMax, _RunningSum, _blocks, libm_power
from .report import BoundReport
from .sieve import _coprime_mask, _mertens_cum, _table, prime_divisors, radical

# Exponent of the log-envelope inflation factor g1(p) = p^XI / (p^XI - 1).
XI = 1.0 - 1.0 / (12.0 * math.log(10.0))


@dataclass(frozen=True)
class EnvelopeParams:
    """Constants of the decay envelopes for m and for the mod-2 variant m_2.

    sqrt_c: |m(x)| <= sqrt(sqrt_c / x) on [1, sqrt_range].
    log_c:  |m(x)| <= log_c / log x for x >= log_from.
    deep:   scale from which the logarithmic term enters the coprime
            envelope and the assembly's weighted-sum lemmas.
    """

    sqrt_c: float
    sqrt_range: float
    log_c: float
    log_from: int
    deep: float = 1e12


M_PARAMS = EnvelopeParams(sqrt_c=2.0, sqrt_range=1e14, log_c=0.0144, log_from=463421)
M2_PARAMS = EnvelopeParams(sqrt_c=3.0, sqrt_range=1e12, log_c=0.0296, log_from=5379)

_EXACT_LIMIT = 100_000


def m(y: float) -> float:
    """m(y) = sum_{n <= y} mu(n)/n, as a float.  m(y) = m(floor(y))."""
    t = int(math.floor(y))
    if t < 1:
        return 0.0
    return float(_mertens_cum(t)[t])


def m_q_exact(y, q: int) -> Fraction:
    """Exact rational m_q(y) for y <= 100000."""
    t = int(math.floor(y))
    if t < 1:
        return Fraction(0)
    if t > _EXACT_LIMIT:
        raise ValueError(f"m_q_exact limited to y <= {_EXACT_LIMIT}, got {y}")
    mu = _table(t).mu
    total = Fraction(0)
    for n in range(1, t + 1):
        v = int(mu[n - 1])
        if v and math.gcd(n, q) == 1:
            total += Fraction(v, n)
    return total


# ----------------------------------------------------------------------
# Envelopes.

def _coprime_cum(limit: int, q: int, start: int = 1):
    """(lo, cum) for consecutive blocks covering n = start..limit, with
    cum[i] = m_q(lo + i) = sum_{k <= lo + i, (k, q) = 1} mu(k)/k in floats.

    The cumsum runs block by block from m_q(0) = 0, as one np.cumsum over
    0..limit would, and yields only the blocks' parts from start on; at
    q = 1 it equals sieve._mertens_cum bit for bit.
    """
    mu = _table(limit).mu
    run = _RunningSum(0.0)
    for lo, hi in _blocks(1, limit + 1):
        mu_k = mu[lo - 1: hi - 1]
        if q > 1:
            mu_k = mu_k * _coprime_mask(hi - 1, q, lo)
        cum = run.cumsum(mu_k / np.arange(lo, hi, dtype=np.float64))
        if hi > start:
            s = max(start - lo, 0)
            yield lo + s, cum[s:]


def _envelope_params(q: int, form: str) -> EnvelopeParams:
    if q not in (1, 2):
        raise ValueError(f"{form} envelope is stated for q in {{1, 2}}")
    return {1: M_PARAMS, 2: M2_PARAMS}[q]


def _envelope_report(form: str, q: int, limit: int, start: int, ratio,
                     bound: float, details: dict) -> BoundReport:
    """The worst of ratio(|m_q(n)|, n + 1) over n = start..limit, which is
    the worst over real x in [start, limit + 1): m_q is constant on
    [n, n + 1), and n + 1 is the right end of that interval.  m_q comes
    block by block from _coprime_cum, q = 1 included.  ratio rises with |m|
    and with x, so its value at the block's largest |m_q| and last x bounds
    the block."""
    worst = _RunningMax(0.0, 0)
    for lo, m_q in _coprime_cum(limit, q, start):
        top = max(float(m_q.max()), -float(m_q.min()))
        if worst.could_rise(ratio(top, float(lo + m_q.size))):
            x = np.arange(lo + 1, lo + m_q.size + 1, dtype=np.float64)
            worst.feed(ratio(np.abs(m_q), x), lo)
    return BoundReport(
        name=f"mertens-{form}-envelope(q={q})",
        domain=f"real x in [{start}, {limit + 1})",
        passed=bool(worst.value <= 1.0 + 1e-12),
        worst_ratio=worst.value,
        worst_arg=worst.arg,
        bound=bound,
        details=details,
    )


def check_envelope_sqrt(limit: int, q: int = 1) -> BoundReport:
    """Sweep the square-root envelope over all real x in [1, limit + 1).

    For q = 1 this is |m(x)| <= sqrt(2/x); for q = 2 the variant
    |m_2(x)| <= sqrt(3/x).  m is constant on [n, n+1), so the supremum over
    real x of |m(x)| sqrt(x) on that interval is |m(n)| sqrt(n+1).
    """
    params = _envelope_params(q, "square-root")
    root_c = math.sqrt(params.sqrt_c)
    return _envelope_report(
        "sqrt", q, limit, 1, lambda abs_m, x: abs_m * np.sqrt(x) / root_c, root_c,
        {"form": f"|m(x)| * sqrt(x) <= sqrt({params.sqrt_c})",
         "claimed_range": params.sqrt_range})


def check_envelope_log(limit: int, q: int = 1) -> BoundReport:
    """Sweep the logarithmic envelope |m(x)| <= c / log x for x >= threshold."""
    params = _envelope_params(q, "log")
    start = params.log_from
    if limit < start:
        raise ValueError(f"limit {limit} below threshold {start}")
    # sup over [n, n+1) uses log(n+1), since 1/log x decreases.
    return _envelope_report(
        "log", q, limit, start, lambda abs_m, x: abs_m * np.log(x) / params.log_c,
        params.log_c,
        {"form": f"|m(x)| * log(x) <= {params.log_c} for x >= {start}"})


def _g0_at(ps: np.ndarray) -> np.ndarray:
    """g0(p) = sqrt(p)/(sqrt(p) - 1) at each prime of ps, sqrt(3/2) at p = 2."""
    sp = np.sqrt(ps)
    return np.where(ps == 2.0, math.sqrt(1.5), sp / (sp - 1.0))


def _g1_at(ps: np.ndarray, pe: np.ndarray) -> np.ndarray:
    """g1(p) = p^XI/(p^XI - 1) at each prime of ps, pe = p^XI by libm pow;
    2.06 at p = 2."""
    return np.where(ps == 2.0, 2.06, pe / (pe - 1.0))


def g0_factor(d: int) -> float:
    """Inflation of the sqrt envelope under coprimality, prod_{p | d} g0(p)
    in ascending p (1 at d = 1), for squarefree d."""
    ps = np.array(prime_divisors(d), dtype=np.float64)
    return math.prod(_g0_at(ps).tolist(), start=1.0)


def g1_factor(d: int) -> float:
    """Inflation of the log envelope under coprimality, prod_{p | d} g1(p)."""
    ps = np.array(prime_divisors(d), dtype=np.float64)
    pe = libm_power(ps, XI)
    return math.prod(_g1_at(ps, pe).tolist(), start=1.0)


def envelope_coprime(d: int, y):
    """Envelope for |m_d(y)| at a float y >= 1 or at each entry of an array:
    g0(d) sqrt(2/y) + 0.0144 g1(d) [y >= 1e12] / log y."""
    y = np.asarray(y, dtype=np.float64)
    if (y < 1).any():
        raise ValueError("need y >= 1")
    deep = M_PARAMS.log_c * g1_factor(d) / np.log(np.maximum(y, M_PARAMS.deep))
    val = g0_factor(d) * np.sqrt(2.0 / y) + np.where(y >= M_PARAMS.deep, deep, 0.0)
    return val if val.ndim else float(val)


def check_envelope_coprime(d_limit: int = 100, y_limit: int = 10_000) -> BoundReport:
    """Desk check of the coprime envelope on squarefree d and moderate y.

    Compares |m_d(y)| directly against envelope_coprime(d, y) for every
    squarefree d <= d_limit and every integer y <= y_limit.
    """
    worst = _RunningMax(0.0)
    for d in range(1, d_limit + 1):
        if radical(d) != d:
            continue
        for lo, m_d in _coprime_cum(y_limit, d):
            y = np.arange(lo, lo + m_d.size, dtype=np.float64)
            worst.feed(np.abs(m_d) / envelope_coprime(d, y), lo, d)
    return BoundReport(
        name="mertens-coprime-envelope",
        domain=f"squarefree d <= {d_limit}, integer y <= {y_limit}",
        passed=worst.value <= 1.0 + 1e-12,
        worst_ratio=worst.value,
        worst_arg=worst.arg,
        bound=1.0,
        details={"form": "|m_d(y)| <= g0(d) sqrt(2/y) + 0.0144 g1(d) [y>=1e12]/log y"},
    )
