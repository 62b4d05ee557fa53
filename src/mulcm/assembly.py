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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numutil import check_allocation, quad_checked
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

# A _j_reduce call walks its 2^n divisor masks in blocks of 2^b (_j_shape):
# b = _J_BLOCK_BITS, 256 KiB per float64 block, or the number k of primes
# with 2p <= j if larger, so that the subset-sum transform of m runs inside
# one block; b is capped at n.
_J_BLOCK_BITS = 15
# Traced peak of one cold _j_reduce call that keeps every mask in a localized
# sum: 8 B per divisor mask for the buffer its kept weights are compacted
# into, and 73 B per mask of a block: the four low tables, one block's
# weights, m, sqrt(delta) and log(delta), 8 B each, then its 1 B `keep`
# mask and the 8 B kept weights.  The fixed part covers the per-n and
# per-prime objects.
_J_REDUCE_BYTES_PER_MASK = 8
_J_REDUCE_BYTES_PER_BLOCK_MASK = 73
_J_REDUCE_FIXED_BYTES = 64 << 10
# A divisor mask below this has all its primes below _SMALL_PRIMES_BELOW
# (30): the ten primes 2..29 are bits 0..9.
_SMALL_MASKS = 1 << len(primes_upto(_SMALL_PRIMES_BELOW - 1))


def _j_shape(j: int) -> tuple[list[int], int, int]:
    """(the primes p <= j, the number k of them with 2p <= j, the block bits b)."""
    ps = [int(p) for p in primes_upto(j)]
    k = sum(2 * p <= j for p in ps)
    return ps, k, min(len(ps), max(_J_BLOCK_BITS, k))


def _j_reduce_bytes(j: int) -> int:
    """Declared peak memory of one _j_reduce call at j."""
    ps, _, b = _j_shape(j)
    return ((_J_REDUCE_BYTES_PER_MASK << len(ps))
            + (_J_REDUCE_BYTES_PER_BLOCK_MASK << b) + _J_REDUCE_FIXED_BYTES)


def _double(a: np.ndarray, k: int, op, consts) -> np.ndarray:
    """Fill a[2^k:] from a[:2^k] in place: the i-th constant c, in order,
    sets a[h:2h] = op(a[:h], c) with h = 2^(k+i)."""
    for i, c in enumerate(consts, k):
        h = 1 << i
        op(a[:h], c, out=a[h:2 * h])
    return a


def _doubled(start: float, op, consts) -> np.ndarray:
    """Array over the 2^len(consts) prime masks: entry `mask` is start with
    op(., c) applied for the constant c of each prime in mask, ascending."""
    a = np.empty(1 << len(consts), dtype=np.float64)
    a[0] = start
    return _double(a, 0, op, consts)


def _block(low: np.ndarray, op, consts, t: int) -> np.ndarray:
    """Block t of a doubled array whose first 2^b entries are low, where
    consts are the constants of the primes past the first b: low with
    op(., c) applied for the constant of each set bit of t, ascending.
    Doubling applies that same chain to the masks t 2^b + i, so the block
    equals the slice of the whole doubled array bit for bit."""
    out = low.copy()
    for i, c in enumerate(consts):
        if t >> i & 1:
            op(out, c, out=out)
    return out


def _tree_sum(sums: list) -> float:
    """The sum of 2^r values, added as a balanced binary tree.

    Given the sums of the aligned 2^b-value blocks of a contiguous float64
    array of 2^n values, with b >= 7 or b = n, this equals numpy's pairwise
    a.sum() bit for bit: that sum halves every range longer than 128 values.
    """
    while len(sums) > 1:
        sums = [x + y for x, y in zip(sums[::2], sums[1::2])]
    return float(sums[0])


def _subset_sums(j: int, ps: list[int], k: int) -> np.ndarray:
    """g[T], the sum of mu(n)/n over the squarefree n <= j whose primes all
    lie in T, for every prime mask T of ps (bit i for ps[i]); ps are the
    first primes up to j, and the first k of them have 2p <= j.

    Point masses mu(n)/n go on the prime subset of each squarefree n <= j
    whose primes p all have 2p <= j, and an in-place subset-sum transform
    (one vectorized pass per such prime) gives g[T], the sum over the n
    supported inside T.  A prime p > j/2 divides no n <= j but p itself, so
    each of those primes, ascending, doubles g: g[T + p] = g[T] - 1/p.  That
    is bit for bit the full transform over all primes: there, the block of
    such a p holds exactly -1/p before p's pass (its other entries only ever
    add +0.0), and the pass adds it to the entry below.  Over all the primes
    up to j, m_delta(j) is g at the complement of delta.
    """
    low = ps[:k]
    g = np.zeros(1 << len(ps), dtype=np.float64)
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
    for i in range(k):
        v = g[: 1 << k].reshape(-1, 2, 1 << i)
        v[:, 1, :] += v[:, 0, :]
    return _double(g, k, np.add, [-1 / p for p in ps[k:]])


def _j_blocks(j: int, logs: bool):
    """The per-mask arrays of j's divisor table, block by block.

    A divisor delta is the bitmask of its primes (bit i for the i-th prime
    up to j), and the 2^n masks are cut into blocks of 2^b (_j_shape).
    Yields, for each block t in order, (t, m, phi(delta)/delta^2,
    sqrt(delta), log(delta) or None unless logs) over the masks t 2^b to
    (t + 1) 2^b - 1, as fresh arrays; m is m_delta(j).

    phi(delta)/delta^2, sqrt(delta), log(delta) and g (_subset_sums) are
    built once over the low 2^b masks.  Block t of each is that low table
    doubled on by the primes of t's bits (_block), and m's block t is g's
    block 2^(n-b) - 1 - t reversed, as m is g at the complement.  So each
    entry is the same chain of float operations as over the whole table.
    """
    ps, k, b = _j_shape(j)
    phi = [(p - 1.0) / (p * p) for p in ps]
    root = [math.sqrt(p) for p in ps]
    log = [math.log(p) for p in ps]
    neg = [-1 / p for p in ps]
    g = _subset_sums(j, ps[:b], k)
    phi_low = _doubled(1.0, np.multiply, phi[:b])
    root_low = _doubled(1.0, np.multiply, root[:b])
    log_low = _doubled(0.0, np.add, log[:b]) if logs else None
    last = (1 << (len(ps) - b)) - 1
    for t in range(last + 1):
        yield (t, _block(g, np.add, neg[b:], last - t)[::-1],
               _block(phi_low, np.multiply, phi[b:], t),
               _block(root_low, np.multiply, root[b:], t),
               _block(log_low, np.add, log[b:], t) if logs else None)


_E1 = math.exp(EULER_GAMMA / 2.0) - 1.0
_E2 = math.exp(-EULER_GAMMA / 2.0)


def _j_reduce(j: int, R: float, j1: float, refine: bool,
              log_bounds: list[float]) -> tuple[float, float, list[float]]:
    """Reduce j's divisor table to scalars: W(j), the sum over delta of
    phi(delta)/delta^2 m_delta(j)^2; the full remainder sum
    sum_delta j1 * w(delta) sqrt(delta) * coef(delta); and that sum over the
    delta with log(delta) <= b for each b in log_bounds.

    coef(delta) = 2 C e1 (sqrt(R) + sqrt(j)) + 2 * 2.18 e2 (sqrt(R) - sqrt(j))
    with C = 1.17 for delta with all primes below 30 (the masks below
    _SMALL_MASKS) under refine, else 2.18.  It takes two values, computed as
    Python floats with the same operations an array of C would see.

    The table is walked block by block (_j_blocks).  A block's weights are
    formed in place, times m twice, then times sqrt(delta), j1 and coef.
    W and the full sum add the block sums in a balanced tree (_tree_sum),
    which is numpy's pairwise sum over the whole table.  Each finite bound
    takes one walk, which compacts the kept weights, in order, into one
    buffer over the masks and sums it once: the same array as
    w[logd <= b].  An infinite bound keeps every mask, so its sum is the
    full one.  No array outlives the call.
    """
    ps, _, b = _j_shape(j)
    check_allocation(_j_reduce_bytes(j), f"primorial divisor reduction for j={j}")
    finite = list(dict.fromkeys(x for x in log_bounds if x != math.inf))
    kept = np.empty(1 << len(ps), dtype=np.float64) if finite else None
    sR, sj = math.sqrt(R), math.sqrt(j)

    def coef(C: float) -> float:
        return 2.0 * C * _E1 * (sR + sj) + 2.0 * _R_ENVELOPE * _E2 * (sR - sj)

    c_small, c_rest = coef(_R1_SMALL if refine else _R_ENVELOPE), coef(_R_ENVELOPE)

    def walk(bound: float) -> tuple[float, float, float]:
        """(W, the full sum, the sum over the delta with log(delta) <= bound)."""
        W_sums, sums, size = [], [], 0
        for t, m, w, sq, logd in _j_blocks(j, bound != math.inf):
            w *= m
            w *= m
            W_sums.append(w.sum())
            w *= sq
            w *= j1
            small = max(_SMALL_MASKS - (t << b), 0)
            w[:small] *= c_small
            w[small:] *= c_rest
            sums.append(w.sum())
            if logd is not None:
                w = w[logd <= bound]  # the block's kept weights, in order
                kept[size:size + w.size] = w
                size += w.size
            del m, w, sq, logd  # before the next block is built
        total = _tree_sum(sums)
        return _tree_sum(W_sums), total, (
            total if bound == math.inf else float(kept[:size].sum()))

    part = {}
    for bound in finite or [math.inf]:
        W, total, part[bound] = walk(bound)
    return W, total, [total if x == math.inf else part[x] for x in log_bounds]


def theorem_bound(config: AssemblyConfig) -> dict:
    """Evaluate the assembled bound for sqrt(x) S(x), x >= x_min.

    Returns a dict with the main, remainder, and tail parts, per-j details,
    the localization window that realizes the remainder supremum, how many
    dyadic windows were evaluated (`windows`) and how many passes over the
    primorial tables that took (`table_passes`).

    Each j's table is reduced to scalars by _j_reduce, block by block, and
    nothing of it is kept for the next j.  So the peak memory is one
    reduction at j = int(ratio): 8 B per divisor mask for its compaction
    buffer, plus its blocks (_j_reduce_bytes), which is checked against the
    budget before any table is built.  Pass 1 reduces every table at
    Y = x_min.  Only when the supremum is not settled there does pass 2
    reduce each table again at every further dyadic Y the search can reach,
    one walk over its blocks per Y.  Every sum is formed from the same
    floats in the same order as over materialized tables.  Without
    localization a window reaches every term, so the search stops after the
    first.
    """
    x_min, ratio = config.x_min, config.ratio
    if not (x_min > 1 and ratio > 1):
        raise ValueError("need x_min > 1 and ratio > 1")
    jmax = int(ratio)
    check_allocation(_j_reduce_bytes(jmax),
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
