"""Weighted Mertens sums m(y) = sum_{n<=y} mu(n)/n and their envelopes.

Two layers:

* direct evaluation: exact rationals for small y (with the coprime
  variant m_q_exact) and the arithmetic table's float cumsum
  (`sieve._mertens_cum`) for scan-scale y;
* envelope machinery: the square-root and logarithmic decay bounds and
  their coprime generalization with multiplicative inflation factors, each
  checkable against direct evaluation on a finite range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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


def m_exact(y) -> Fraction:
    """Exact rational m(y) for y <= 100000 (guard against runaway cost)."""
    return m_q_exact(y, 1)


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

def _envelope_cum(limit: int, q: int, form: str):
    """(params, cum) for the q-envelope, cum[n] = m_q(n) for n <= limit."""
    if q == 1:
        return M_PARAMS, _mertens_cum(limit)
    if q == 2:
        vals = np.zeros(limit + 1, dtype=np.float64)
        vals[1::2] = _table(limit).mu[::2] / np.arange(1, limit + 1, 2)
        return M2_PARAMS, np.cumsum(vals)
    raise ValueError(f"{form} envelope is stated for q in {{1, 2}}")


def check_envelope_sqrt(limit: int, q: int = 1) -> BoundReport:
    """Sweep the square-root envelope over all real x in [1, limit + 1).

    For q = 1 this is |m(x)| <= sqrt(2/x); for q = 2 the variant
    |m_2(x)| <= sqrt(3/x).  m is constant on [n, n+1), so the supremum over
    real x of |m(x)| sqrt(x) on that interval is |m(n)| sqrt(n+1).
    """
    params, cum = _envelope_cum(limit, q, "square-root")
    n = np.arange(0, limit + 1, dtype=np.float64)
    n[0] = 1.0
    ratios = np.abs(cum[: limit + 1]) * np.sqrt(n + 1.0) / math.sqrt(params.sqrt_c)
    ratios[0] = 0.0
    worst = int(np.argmax(ratios))
    return BoundReport(
        name=f"mertens-sqrt-envelope(q={q})",
        domain=f"real x in [1, {limit + 1})",
        passed=bool(ratios[worst] <= 1.0 + 1e-12),
        worst_ratio=float(ratios[worst]),
        worst_arg=worst,
        bound=math.sqrt(params.sqrt_c),
        details={"form": f"|m(x)| * sqrt(x) <= sqrt({params.sqrt_c})",
                 "claimed_range": params.sqrt_range},
    )


def check_envelope_log(limit: int, q: int = 1) -> BoundReport:
    """Sweep the logarithmic envelope |m(x)| <= c / log x for x >= threshold."""
    params, cum = _envelope_cum(limit, q, "log")
    start = params.log_from
    if limit < start:
        raise ValueError(f"limit {limit} below threshold {start}")
    n = np.arange(0, limit + 1, dtype=np.float64)
    n[0] = 1.0
    # sup over [n, n+1) uses log(n+1), since 1/log x decreases.
    ratios = np.abs(cum[: limit + 1]) * np.log(n + 1.0) / params.log_c
    ratios[:start] = 0.0
    worst = int(np.argmax(ratios))
    return BoundReport(
        name=f"mertens-log-envelope(q={q})",
        domain=f"real x in [{start}, {limit + 1})",
        passed=bool(ratios[worst] <= 1.0 + 1e-12),
        worst_ratio=float(ratios[worst]),
        worst_arg=worst,
        bound=params.log_c,
        details={"form": f"|m(x)| * log(x) <= {params.log_c} for x >= {start}"},
    )


def g0_factor(d: int) -> float:
    """Multiplicative inflation for the sqrt envelope under coprimality.

    g0(2) = sqrt(3/2); g0(p) = sqrt(p)/(sqrt(p) - 1) for odd p; g0(1) = 1.
    Defined on squarefree d.
    """
    val = 1.0
    for p in prime_divisors(d):
        if p == 2:
            val *= math.sqrt(1.5)
        else:
            sp = math.sqrt(p)
            val *= sp / (sp - 1.0)
    return val


def g1_factor(d: int) -> float:
    """Multiplicative inflation for the log envelope under coprimality.

    g1(2) = 2.06; g1(p) = p^XI / (p^XI - 1) for odd p; g1(1) = 1.
    """
    val = 1.0
    for p in prime_divisors(d):
        if p == 2:
            val *= 2.06
        else:
            pe = p ** XI
            val *= pe / (pe - 1.0)
    return val


def envelope_coprime(d: int, y: float) -> float:
    """Envelope for |m_d(y)|: g0(d) sqrt(2/y) + 0.0144 g1(d) [y >= 1e12] / log y."""
    if y < 1:
        raise ValueError("need y >= 1")
    val = g0_factor(d) * math.sqrt(2.0 / y)
    if y >= M_PARAMS.deep:
        val += M_PARAMS.log_c * g1_factor(d) / math.log(y)
    return val


def check_envelope_coprime(d_limit: int = 100, y_limit: int = 10_000) -> BoundReport:
    """Desk check of the coprime envelope on squarefree d and moderate y.

    Compares |m_d(y)| directly against envelope_coprime(d, y) for every
    squarefree d <= d_limit and every integer y <= y_limit.
    """
    block = _table(y_limit)
    n = np.arange(1, y_limit + 1, dtype=np.float64)
    base_terms = block.mu.astype(np.float64) / n
    worst = (0.0, None)
    for d in range(1, d_limit + 1):
        if radical(d) != d:
            continue
        md = np.cumsum(np.where(_coprime_mask(y_limit, d), base_terms, 0.0))
        ratios = np.abs(md) / (g0_factor(d) * np.sqrt(2.0 / n))
        j = int(np.argmax(ratios))
        if ratios[j] > worst[0]:
            worst = (float(ratios[j]), (d, j + 1))
    return BoundReport(
        name="mertens-coprime-envelope",
        domain=f"squarefree d <= {d_limit}, integer y <= {y_limit}",
        passed=worst[0] <= 1.0 + 1e-12,
        worst_ratio=worst[0],
        worst_arg=worst[1],
        bound=1.0,
        details={"form": "|m_d(y)| <= g0(d) sqrt(2/y) + 0.0144 g1(d) [y>=1e12]/log y"},
    )
