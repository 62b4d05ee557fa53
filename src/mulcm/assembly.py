"""Assembly of the final explicit bound for sqrt(x) * S(x).

The bound splits the defining double sum at D = x / ratio:

* the head is grouped by j = floor(x/(d * something)) blocks, each block
  contributing a logarithmic main term A prod_{p<=j} p^2/(p^2+p-1)
  log(R_j/j) W(j) plus a remainder controlled by the G*_q difference
  envelope, where W(j) sums phi(delta)/delta^2 m_delta(j)^2 over divisors
  delta of the primorial of j;
* the tail over d > D is bounded by the envelope decomposition
  4.14 D/x + 0.00205, whose three components trace back to the coprime
  Mertens envelopes and the weighted partial-sum caps.

Two refinements are optional and on by default: the sharper first-remainder
constant 1.17 for delta with all prime factors below 30, and localization
of the remainder over dyadic windows x in [Y, 2Y).

W(j) and the remainder sums run over the 2^pi(j) divisors of the primorial
of j, but a prime above j/2 divides no squarefree n <= j but itself, so
those primes factor out of every sum (_j_reduce): a j costs 2^k + 2^h masks
for its k primes up to j/2 and h primes above, not 2^(k+h).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numutil import check_allocation, fsum_array, quad_checked
from .report import BoundReport
from .gstar import _R1_SMALL, _R_ENVELOPE, _SMALL_PRIMES_BELOW
from .mertens import M_PARAMS, g0_factor, g1_factor
from .products import A_DEEP, EULER_GAMMA, j1_star
from .sieve import _table, primes_upto
from .sigma import SCAN_CAP, _coprime_decomposition_sum

REFERENCE_ROWS = (
    (1.1e7, 22.99, 0.679),
    (1e9, 38.99, 0.574),
    (3e10, 55.99, 0.536),
    (2.4e12, 75.99, 0.504),
)
# A row is within tolerance when its bound lies in [ref - 0.05, ref + 0.01].
TOL_BELOW, TOL_ABOVE = 0.05, 0.01


@dataclass(frozen=True)
class AssemblyConfig:
    x_min: float
    ratio: float
    refine_small_factors: bool = True
    localize: bool = True


# ----------------------------------------------------------------------
# Per-j reductions over the divisors of the primorial of j.

# Traced peak of one _j_reduce call, the larger of its two phases.  While
# the prefix sums are built: per mask of the low primes (2p <= j), the nine
# rows, their tree of block sums (_prefix_sums, one entry fewer per row)
# and log(d), 8 B each, 152 B.  While the sums are cut: the nine rows and
# log(d), 80 B per low mask, and per mask of the high primes (j/2 < p <= j)
# their arrays, one cut's index arrays and gathered rows, and the exact sum
# over them, 288 B at their traced peak.  The fixed part covers the
# per-prime objects and numpy's buffers, 8192 values for each of the three
# operands of an add that writes x over its own entries.
_J_REDUCE_BYTES_PER_LOW_MASK_SUMMING = 152
_J_REDUCE_BYTES_PER_LOW_MASK = 80
_J_REDUCE_BYTES_PER_HIGH_MASK = 288
_J_REDUCE_FIXED_BYTES = (16 << 10) + 3 * 8192 * 8


def _j_split(j: int) -> tuple[list[int], list[int]]:
    """(the low primes p, with 2p <= j; the high primes, in (j/2, j])."""
    ps = [int(p) for p in primes_upto(j)]
    k = sum(2 * p <= j for p in ps)
    return ps[:k], ps[k:]


def _j_reduce_bytes(j: int) -> int:
    """Declared peak memory of one _j_reduce call at j."""
    low, high = _j_split(j)
    return _J_REDUCE_FIXED_BYTES + max(
        _J_REDUCE_BYTES_PER_LOW_MASK_SUMMING << len(low),
        (_J_REDUCE_BYTES_PER_LOW_MASK << len(low))
        + (_J_REDUCE_BYTES_PER_HIGH_MASK << len(high)))


def _over_subsets(ps: list[int], start: float, op, f) -> np.ndarray:
    """Array over the prime masks of ps (bit i for ps[i]): entry `mask` is
    start with op(., f(p)) applied for each prime p of mask, ascending."""
    a = np.empty(1 << len(ps), dtype=np.float64)
    a[0] = start
    for i, p in enumerate(ps):
        op(a[:1 << i], f(p), out=a[1 << i:2 << i])
    return a


def _phi_ratio(p: int) -> float:
    return (p - 1.0) / (p * p)


def _subset_sums(j: int, low: list[int]) -> np.ndarray:
    """g[T], the sum of mu(n)/n over the squarefree n <= j whose primes all
    lie in T, for every prime mask T of low, the primes p with 2p <= j (bit
    i for low[i]): point masses mu(n)/n on the prime subset of each such n,
    then an in-place subset-sum transform, one vectorized pass per prime."""
    g = np.zeros(1 << len(low), dtype=np.float64)
    for n in range(1, j + 1):
        x, mask, mu, ok = n, 0, 1, True
        for i, p in enumerate(low):
            if x % p == 0:
                x //= p
                if x % p == 0:
                    ok = False
                    break
                mask |= 1 << i
                mu = -mu
        if ok and x == 1:
            g[mask] += mu / n
    for i in range(len(low)):
        v = g.reshape(-1, 2, 1 << i)
        v[:, 1, :] += v[:, 0, :]
    return g


def _prefix_sums(x: np.ndarray):
    """The function of i (an index array, entries 0 .. 2^k) that gives the
    sums of the first i entries along x's last axis, of length 2^k, for
    every row of x.

    Level b of a tree holds the pairwise sums of the aligned blocks of 2^b
    entries: each the sum of its two halves' sums at level b - 1.  The
    first i entries are the blocks of the set bits b of i, and their sum
    adds those block sums largest first: at an odd multiple of 2^b it is
    the sum at the multiple before plus the block between, so x is
    overwritten, top level first, with x[i - 1] the sum of the first i
    entries.  A block sum of 2^b values is a chain of b additions, so each
    prefix sum is a chain of fewer than 2k + 1.
    """
    *rows, n = x.shape
    k = n.bit_length() - 1
    levels = [x]
    for _ in range(k):
        levels.append(levels[-1][..., 0::2] + levels[-1][..., 1::2])
    x[..., -1] = levels[k][..., 0]
    for b in range(k - 1, -1, -1):
        s = 1 << b
        # Entry (2t + 1)s - 1 of x, a right leaf once b > 0, takes block 2t
        # of level b plus the sum at 2ts, which sits at entry 2ts - 1.
        at, left = x[..., s - 1::2 * s], levels[b][..., 0::2]
        at[..., 0] = left[..., 0]
        np.add(x[..., 2 * s - 1:-1:2 * s], left[..., 1:], out=at[..., 1:])

    def take(i):
        return np.where(i > 0, x[..., i - 1], 0.0)

    return take


_E1 = math.exp(EULER_GAMMA / 2.0) - 1.0
_E2 = math.exp(-EULER_GAMMA / 2.0)


def _j_reduce(j: int, R: float, j1: float, refine: bool,
              log_bounds: list[float]) -> tuple[float, float, list[float]]:
    """Reduce the sums over the divisors delta of the primorial of j to
    scalars: W(j), the sum of phi(delta)/delta^2 m_delta(j)^2; the full
    remainder sum, of j1 * w(delta) sqrt(delta) * coef(delta); and that sum
    over the delta with log(delta) <= b for each b in log_bounds.

    coef(delta) = 2 C e1 (sqrt(R) + sqrt(j)) + 2 * 2.18 e2 (sqrt(R) - sqrt(j))
    with C = 1.17 for delta with all primes below 30 under refine, else
    2.18.  It takes two values, c_small and c_rest, computed as Python
    floats.

    No table over the 2^pi(j) divisors is formed.  Write delta = d beta,
    with d over the k low primes (2p <= j) and beta over the h high ones
    (j/2 < p <= j).  A high prime divides no squarefree n <= j but itself,
    so m_delta(j) = a(d) - c(beta): a(d) is g (_subset_sums) at the
    complement of d among the low primes, and c(beta) the sum of 1/p over
    the high primes not in beta.  phi(delta)/delta^2, sqrt(delta),
    log(delta) and the all-below-30 test split over d and beta.  Both a and
    c are centred at c0, half the sum of 1/p over the high primes, so that
    for each beta a sum is w(beta) [sqrt(beta)] (P2 - 2 c P1 + c^2 P0) with
    few cancelling digits, where P_r sums w(d) [sqrt(d) coef] a(d)^r over
    the d kept.  Those d are a prefix of the d ascending in log(d), cut by
    one searchsorted per beta at b - log(beta), and each P_r is read from
    a tree of block sums (_prefix_sums).  The sums over beta are exact
    (fsum_array).  That is 2^k + 2^h entries where the divisor table had
    2^(k+h): 4096 and 512 at j = 75.

    Rounding: each returned value lies within gamma_N S_abs of the exact
    sum, taken with the same floats j1, c_small and c_rest over the same
    delta (those with float log(d) <= b - log(beta)), where
    gamma_N = N u / (1 - N u), u = 2^-53, N = 6 pi(j) + 2k + 17, and S_abs
    is the same sum with m_delta(j) replaced by H_j plus the sum of 1/n over
    the squarefree n <= j prime to delta, H_j the sum of 1/p over the high
    primes.  Every value is built by sums and products from exact integers
    and these floats, and no chain of them has N roundings; S_abs is the
    same chains with every input made nonnegative and every difference a
    sum.
    """
    check_allocation(_j_reduce_bytes(j), f"primorial divisor reduction for j={j}")
    low, high = _j_split(j)
    sR, sj = math.sqrt(R), math.sqrt(j)

    def coef(C: float) -> float:
        return 2.0 * C * _E1 * (sR + sj) + 2.0 * _R_ENVELOPE * _E2 * (sR - sj)

    c_small, c_rest = coef(_R1_SMALL if refine else _R_ENVELOPE), coef(_R_ENVELOPE)

    def small(ps: list[int]) -> int:
        """The masks of ps below this have all their primes below 30."""
        return 1 << sum(p < _SMALL_PRIMES_BELOW for p in ps)

    # Over d, ascending in log(d): rows x[r, t] = base_t a^r for the bases
    # w(d) (for W), w(d) sqrt(d) c_rest (for a beta with a prime above 30)
    # and w(d) sqrt(d) coef(d) (for the other beta).
    logd = _over_subsets(low, 0.0, np.add, math.log)
    order = np.argsort(logd, kind="stable")
    logd = logd[order]
    c0 = 0.5 * sum(1.0 / p for p in high)
    a = _subset_sums(j, low)[::-1][order] - c0
    x = np.empty((3, 3, a.size), dtype=np.float64)
    x[0, 0] = _over_subsets(low, 1.0, np.multiply, _phi_ratio)
    x[0, 1] = x[0, 0] * _over_subsets(low, 1.0, np.multiply, math.sqrt)
    x[0, 2] = x[0, 1] * np.where(np.arange(a.size) < small(low), c_small, c_rest)
    x[0, 1] *= c_rest
    x[0] = x[0][:, order]
    np.multiply(x[0], a, out=x[1])
    np.multiply(x[1], a, out=x[2])
    del order, a
    prefix = _prefix_sums(x)

    # Over beta, by its prime mask among the high primes.
    w_high = _over_subsets(high, 1.0, np.multiply, _phi_ratio)
    root_high = w_high * _over_subsets(high, 1.0, np.multiply, math.sqrt)
    log_high = _over_subsets(high, 0.0, np.add, math.log)
    c = _over_subsets(high, 0.0, np.add, lambda p: 1.0 / p)[::-1] - c0
    below = np.arange(c.size) < small(high)

    def quad(p: np.ndarray) -> np.ndarray:
        return p[2] - 2.0 * c * p[1] + c * c * p[0]

    W = fsum_array(w_high * quad(prefix(logd.size)[:, 0]))
    sums = {}
    for bound in dict.fromkeys([math.inf, *log_bounds]):
        f = quad(prefix(np.searchsorted(logd, bound - log_high, side="right"))[:, 1:])
        sums[bound] = j1 * fsum_array(root_high * np.where(below, f[1], f[0]))
    return W, sums[math.inf], [sums[b] for b in log_bounds]


def theorem_bound(config: AssemblyConfig) -> dict:
    """Evaluate the assembled bound for sqrt(x) S(x), x >= x_min.

    Returns a dict with the main, remainder, and tail parts, per-j details,
    the localization window that realizes the remainder supremum, how many
    dyadic windows were evaluated (`windows`) and how many passes over the
    per-j reductions that took (`table_passes`).

    Each j is reduced to scalars by _j_reduce, over the 2^k + 2^h divisor
    masks of its k low and h high primes rather than a table of all 2^pi(j)
    divisors, and nothing of it is kept for the next j.  So the peak memory
    is the largest one reduction declares (_j_reduce_bytes) over j <=
    int(ratio), checked against the budget before any j is reduced.  Pass 1
    reduces every j at Y = x_min.  Only when the supremum is not settled
    there does pass 2 reduce each j again, cutting its sums at every further
    dyadic Y the search can reach.  Each per-j value lies within the
    rounding bound _j_reduce states of its exact value.  Without
    localization a window reaches every term, so the search stops after the
    first.
    """
    x_min, ratio = config.x_min, config.ratio
    if not (x_min > 1 and ratio > 1):
        raise ValueError("need x_min > 1 and ratio > 1")
    jmax = int(ratio)
    check_allocation(max(map(_j_reduce_bytes, range(1, jmax + 1))),
                     f"primorial divisor reductions up to j={jmax}")
    primes = set(primes_upto(jmax).tolist())
    A = A_DEEP.mid
    tail = tail_bound(1.0, ratio)["flat"]
    reach = 2.0 if config.localize else math.inf  # window [Y, 2Y) sees j delta <= reach Y

    def one_pass(Ys: list[float]) -> tuple[list[dict], list[float]]:
        """Per-j rows, and the localized remainder sum at each Y: the
        (j, delta) terms with j * delta <= 2Y, accumulated in j order."""
        rows, Es = [], [0.0] * len(Ys)
        prodw = 1.0
        primorial = 1
        for j in range(1, jmax + 1):
            if j in primes:
                prodw *= j * j / (j * j + j - 1.0)
                primorial *= j
            R = min(j + 1.0, ratio)
            W, err_sum, parts = _j_reduce(
                j, R, j1_star(primorial), config.refine_small_factors,
                [math.log(reach * Y / j) for Y in Ys])
            for k, part in enumerate(parts):
                Es[k] += part
            rows.append({"j": j, "main": A * prodw * math.log(R / j) * W,
                         "W": W, "err_sum": err_sum})
        return rows, Es

    Y = float(x_min)
    per_j, Es = one_pass([Y])
    main_total = 0.0
    for row in per_j:
        main_total += row["main"]
    # Remainder: sup over x >= x_min of (1/sqrt(x)) sum of the (j, delta)
    # terms present at scale x.  With localization, x in [Y, 2Y) only sees
    # terms with j * delta <= 2Y and 1/sqrt(x) <= 1/sqrt(Y); the supremum
    # over dyadic Y terminates once even the full sum cannot beat the
    # current best.
    E_full = sum(row["err_sum"] for row in per_j)
    E_at = {Y: Es[0]}
    best, best_Y = 0.0, None
    windows, passes = 0, 1
    while True:
        if Y not in E_at:
            # Pass 2: every further Y up to the first where E_full meets the
            # stop test with the current best.  best never falls, so the
            # search stops there or earlier.
            more = [Y]
            while E_full / math.sqrt(2.0 * more[-1]) > best:
                more.append(more[-1] * 2.0)
            E_at.update(zip(more, one_pass(more)[1]))
            passes += 1
        windows += 1
        cur = E_at[Y] / math.sqrt(Y)
        if cur > best:
            best, best_Y = cur, Y
        if E_full / math.sqrt(2.0 * Y) <= best:
            break
        Y *= 2.0
    bound = main_total + best + tail
    return {
        "x_min": x_min,
        "ratio": ratio,
        "refine_small_factors": config.refine_small_factors,
        "localize": config.localize,
        "main": main_total,
        "remainder": best,
        "remainder_window": best_Y,
        "tail": tail,
        "bound": bound,
        "windows": windows,
        "table_passes": passes,
        "per_j": per_j,
    }


def theorem_table() -> dict:
    """All reference rows plus the combined first row, both refinements on.

    Each row reports the computed bound next to its reference value and
    whether it lands within (-TOL_BELOW, +TOL_ABOVE) of it.  The combined row is
    max(first assembled bound, sigma.SCAN_CAP) and is checked against 17/25.
    A row out of tolerance is reported, not raised; only failure to compute
    is an error.
    """
    rows = []
    for x_min, ratio, ref in REFERENCE_ROWS:
        res = theorem_bound(AssemblyConfig(x_min, ratio))
        res["reference"] = ref
        res["within_tolerance"] = bool(ref - TOL_BELOW <= res["bound"] <= ref + TOL_ABOVE)
        rows.append(res)
    combined = max(rows[0]["bound"], SCAN_CAP)
    return {
        "rows": rows,
        "scan_cap": SCAN_CAP,
        "combined_first_row": combined,
        "combined_cap": 17.0 / 25.0,
        "combined_ok": bool(combined <= 17.0 / 25.0),
        "all_rows_within_tolerance": all(r["within_tolerance"] for r in rows),
    }


# ----------------------------------------------------------------------
# The two weighted-sum lemmas feeding the tail constant, and the tail itself.

_LEMMA_GRID = [(x, x / r) for x in (1e12, 1e13, 1e14, 1e15)
               for r in (23.0, 39.0, 56.0, 76.0)]


def _squarefree_phi_sums(grid, term) -> list[float]:
    """Per (x, D) in grid: sum over squarefree d <= min(D, x/1e12) of term(phi(d), x, d)."""
    caps = [int(min(D, x / M_PARAMS.deep)) for x, D in grid]
    block = _table(max(caps + [1]))
    sums = []
    for (x, _), cap in zip(grid, caps):
        total = 0.0
        for d in range(1, cap + 1):
            if block.mu[d - 1]:
                total += term(int(block.phi[d - 1]), x, d)
        sums.append(total)
    return sums


def _weighted_sum_lemma(name: str, grid, term, integrand, majorant, cap,
                        quad_tol: float) -> BoundReport:
    """Check, for (x, D) in the grid, that the sum over squarefree
    d <= min(D, x/1e12) of term(phi(d), x, d) is at most cap(D), and that the
    proof's majorant(x, D, I) lies between the sum and the cap, I bounding the
    integral of integrand over [max(1e12, x/D), x] from above."""
    worst = (0.0, None)
    rows = []
    for (x, D), exact in zip(grid, _squarefree_phi_sums(grid, term)):
        integral, ierr = quad_checked(integrand, max(M_PARAMS.deep, x / D), x, tol=quad_tol)
        bound, capval = majorant(x, D, integral + ierr), cap(D)
        rows.append({"x": x, "D": D, "exact": exact, "majorant": bound,
                     "exact_le_majorant": exact <= bound,
                     "majorant_le_cap": bound <= capval})
        if exact / capval > worst[0]:
            worst = (exact / capval, (x, D))
    ok = all(r["exact_le_majorant"] and r["majorant_le_cap"] for r in rows)
    return BoundReport(
        name=name,
        domain=f"{len(rows)} grid points, x in [1e12, 1e15]",
        passed=ok and worst[0] <= 1.0,
        worst_ratio=worst[0],
        worst_arg=worst[1],
        bound=1.0,
        details={"rows": rows},
    )


def le1_verify(grid=None, quad_tol: float = 1e-13) -> BoundReport:
    """Check the cross-term lemma: for (x, D) in the grid,

    sum_{d <= min(D, x/1e12)} mu^2(d) phi(d) g0(d) g1(d) / (d^(3/2) log(x/d))
      <= 0.05 sqrt(D),

    and that the proof's majorant (an explicit integral plus 0.0497 sqrt(D))
    also stays below the cap and above the exact sum.
    """
    rep = _weighted_sum_lemma(
        "cross-term-weighted-sum", _LEMMA_GRID if grid is None else grid,
        lambda phi, x, d: phi * g0_factor(d) * g1_factor(d) / (d ** 1.5 * math.log(x / d)),
        lambda u: (2.0 * math.log(u) - 1.0) / (u ** 1.5 * math.log(u) ** 2),
        lambda x, D, i: 0.80 * math.sqrt(x) * i + 0.0497 * math.sqrt(D),
        lambda D: 0.05 * math.sqrt(D), quad_tol)
    for row in rep.details["rows"]:
        row["cap"] = 0.05 * math.sqrt(row["D"])
    return rep


def le2_verify(grid=None, quad_tol: float = 1e-13) -> BoundReport:
    """Check the square-term lemma: for (x, D) in the grid,

    sum_{d <= min(D, x/1e12)} mu^2(d) phi(d) g1(d)^2 / (d^2 log^2(x/d)) <= 0.047,

    together with its integral majorant plus 0.00152.
    """
    def term(phi, x, d):
        g1 = g1_factor(d)
        return phi * g1 * g1 / (d * d * math.log(x / d) ** 2)

    return _weighted_sum_lemma(
        "square-term-weighted-sum", _LEMMA_GRID if grid is None else grid, term,
        lambda u: (math.log(u) - 1.0) / (u * math.log(u) ** 3),
        lambda x, D, i: 1.57 * i + 0.00152,
        lambda D: 0.047, quad_tol)


def tail_bound(D: float, x: float) -> dict:
    """The tail estimate sum_{d <= D} mu^2 phi/d^2 m_d(x/d)^2 <= 4.14 D/x + 0.00205.

    Components: the linear part 4.14 D/x from the sqrt envelope and the
    weighted-sum cap 2.07; the cross part 2 sqrt(2) 0.0144 * 0.05 sqrt(D/x)
    capped at 0.00204; the square part 0.0144^2 * 0.047.  The flat form
    rounds cross + square up to 0.00205.
    """
    if not (0 < D <= x):
        raise ValueError("need 0 < D <= x")
    linear = 4.14 * D / x
    cross = 2.0 * math.sqrt(2.0) * M_PARAMS.log_c * 0.05 * math.sqrt(D / x)
    square = M_PARAMS.log_c ** 2 * 0.047
    return {
        "linear": linear,
        "cross": cross,
        "square": square,
        "total": linear + cross + square,
        "flat": linear + 0.00205,
        "flat_valid": cross + square <= 0.00205,
    }


def tail_audit() -> BoundReport:
    """Component audit of the flat tail estimate.

    Checks that the cross and square components together stay below the
    0.00205 constant folded into the flat form, and that the flat value at
    ratio 22.99 reproduces 0.18213 to rounding.
    """
    at_ref = tail_bound(1.0, 22.99)
    flat_ok = at_ref["flat_valid"]
    ref_ok = abs(at_ref["flat"] - 0.18213) <= 1e-5
    tiny = tail_bound(1e-9, 1.0)
    limit_ok = abs(tiny["flat"] - 0.00205) <= 1e-8
    excess = (at_ref["cross"] + at_ref["square"]) / 0.00205
    return BoundReport(
        name="tail-components",
        domain="D/x = 1/22.99 and D/x -> 0",
        passed=flat_ok and ref_ok and limit_ok,
        worst_ratio=excess,
        worst_arg=(1.0, 22.99),
        bound=1.0,
        details={"at_ratio_22.99": at_ref, "reference_value": 0.18213,
                 "limit_value": tiny["flat"]},
    )


def tail_desk_check(x: int = 200_000, ratio: float = 23.0) -> BoundReport:
    """Directly evaluate the tail sum at desk scale against 4.14 D/x + 0.00205.

    The sum sum_{d <= D} mu^2(d) phi(d)/d^2 m_d(x/d)^2 is the coprime
    decomposition of S(x) (sigma_via_gstar_identity) cut off at d <= D,
    computed in floats, then compared to the flat bound.
    """
    D = int(x / ratio)
    total = _coprime_decomposition_sum(x, D)
    bound = tail_bound(D, x)
    cap = bound["flat"]
    return BoundReport(
        name="tail-envelope-desk",
        domain=f"x = {x}, D = {D}",
        passed=total <= cap,
        worst_ratio=total / cap,
        worst_arg=(x, D),
        bound=cap,
        details={"sum": total, "linear_part": bound["linear"]},
    )
