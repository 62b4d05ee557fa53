"""Numerical utilities: compensated summation, certified quadrature, budgets.

Everything downstream that adds many floats goes through NeumaierSum or,
for an array, the correctly rounded fsum_array, and every integral that
feeds an inequality goes through adaptive_simpson so we always have an error
estimate to fold into the verdict.
"""

from __future__ import annotations

import math
import os


class BudgetError(RuntimeError):
    """Raised when an operation would exceed a configured resource budget."""


def memory_budget_bytes() -> int:
    """Resource ceiling for large allocations, in bytes.

    Controlled by the MULCM_MEMORY_BUDGET environment variable (bytes).
    Default is 8 GiB, which fits every documented workload.
    """
    raw = os.environ.get("MULCM_MEMORY_BUDGET")
    if raw is None:
        return 8 << 30
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


class NeumaierSum:
    """Compensated accumulator (Neumaier variant of Kahan summation).

    Keeps a running correction term so that adding n floats loses O(eps)
    rather than O(n*eps) accuracy.  total() folds the correction in.
    """

    __slots__ = ("_s", "_c")

    def __init__(self, start: float = 0.0) -> None:
        self._s = float(start)
        self._c = 0.0

    def add(self, x: float) -> None:
        t = self._s + x
        if abs(self._s) >= abs(x):
            self._c += (self._s - t) + x
        else:
            self._c += (x - t) + self._s
        self._s = t

    def extend(self, xs) -> None:
        for x in xs:
            self.add(x)

    def total(self) -> float:
        return self._s + self._c


def neumaier_sum(xs) -> float:
    """Sum an iterable of floats with compensation."""
    acc = NeumaierSum()
    for x in xs:
        acc.add(x)
    return acc.total()


def fsum_array(values) -> float:
    """math.fsum of a numpy array's values as float64: the correctly rounded sum.

    fsum reads the floats through a memoryview of a contiguous float64
    buffer (the array itself when it already is one), which gives the same
    floats as a list of them without building one Python float per element
    first.
    """
    return math.fsum(memoryview(values.astype("float64", order="C", copy=False)))


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
                 agreement: float = 1e-5, log_transform: bool = True) -> tuple[float, float]:
    """Integrate twice (tol and tol/100) and insist the results agree.

    Returns (value_at_finer_tol, error_bound) where the error bound is the
    larger of the finer run's estimate and the observed disagreement.  Raises
    ValueError if the two runs disagree by more than `agreement` relatively,
    which would mean the integrand defeats the quadrature.
    """
    quad = quad_log if log_transform else adaptive_simpson
    v1, _ = quad(f, a, b, tol)
    v2, e2 = quad(f, a, b, tol / 100.0)
    scale = max(abs(v1), abs(v2), 1e-300)
    if abs(v1 - v2) / scale > agreement:
        raise ValueError(
            f"quadrature self-check failed: {v1!r} vs {v2!r} on [{a}, {b}]"
        )
    return v2, max(e2, abs(v1 - v2))
