import functools
import hashlib
import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from mulcm import assembly
from mulcm.assembly import (
    AssemblyConfig,
    le1_verify,
    le2_verify,
    tail_audit,
    tail_bound,
    tail_desk_check,
    theorem_bound,
    theorem_table,
)
from mulcm.numutil import BudgetError, fsum_array
from mulcm.products import A_DEEP, EULER_GAMMA, j1_star
from mulcm.sieve import factorize, primes_upto, sieve_range
from mulcm.sigma import sigma_via_gstar_identity

U = 2.0 ** -53
E1 = math.exp(EULER_GAMMA / 2.0) - 1.0
E2 = math.exp(-EULER_GAMMA / 2.0)


def _gamma(n: int) -> float:
    return n * U / (1 - n * U)


# The per-j table with every array materialized and m_delta(j) from the full
# subset-sum transform over all primes up to j: the oracle for _j_reduce and
# for the materialized assembly below, which is the reduction the factorized
# _j_reduce replaced.

def _doubled(start, ps, step) -> np.ndarray:
    """Array over the 2^len(ps) prime masks: entry `mask` is start with
    step(., p) applied for each prime p in mask, in ascending order."""
    a = np.array([start])
    for p in ps:
        a = np.concatenate((a, step(a, p)))
    return a


def _subset_sums(j: int, ps: list[int], term=lambda mu, n: mu / n) -> np.ndarray:
    """g[T] = sum of term(mu(n), n) over the squarefree n <= j whose primes
    all lie in the prime mask T (bit i for ps[i])."""
    g = np.zeros(1 << len(ps), dtype=np.float64)
    for n in range(1, j + 1):
        x, mask, mu, ok = n, 0, 1, True
        for i, p in enumerate(ps):
            if x % p == 0:
                x //= p
                if x % p == 0:
                    ok = False
                    break
                mask |= 1 << i
                mu = -mu
        if ok and x == 1:
            g[mask] += term(mu, n)
    for i in range(len(ps)):
        v = g.reshape(-1, 2, 1 << i)
        v[:, 1, :] += v[:, 0, :]
    return g


def _j_table(j: int) -> dict:
    """Arrays over delta | primorial(j): log(delta), phi(delta)/delta^2 *
    m_delta(j)^2, the same times sqrt(delta), and a small-factor flag (all
    primes of delta below 30)."""
    ps = [int(p) for p in primes_upto(j)]
    m_vals = _subset_sums(j, ps)[::-1]
    w = _doubled(1.0, ps, lambda a, p: a * ((p - 1.0) / (p * p))) * m_vals * m_vals
    del m_vals
    wsq = w * _doubled(1.0, ps, lambda a, p: a * math.sqrt(p))
    return {"w": w, "wsq": wsq,
            "logd": _doubled(0.0, ps, lambda a, p: a + math.log(p)),
            "small": _doubled(True, ps, lambda a, p: a & (p < 30))}


def block_weight(j: int) -> float:
    """W(j) = sum over delta | primorial(j) of phi(delta)/delta^2 m_delta(j)^2."""
    return float(_j_table(j)["w"].sum())


def test_block_weights_small():
    assert block_weight(1) == pytest.approx(1.0)
    # j = 2: delta = 1 gives m_1(2)^2 = 1/4; delta = 2 gives (1/4) m_2(2)^2 = 1/4.
    assert block_weight(2) == pytest.approx(0.5)


def _j_table_mask_loop(j: int) -> dict:
    """The primorial divisor table built mask by mask: bit tests per prime."""
    ps = [int(p) for p in primes_upto(j)]
    n_masks = 1 << len(ps)
    h = np.zeros(n_masks, dtype=np.float64)
    for n in range(1, j + 1):
        x, mask, mu, ok = n, 0, 1, True
        for i, p in enumerate(ps):
            if x % p == 0:
                x //= p
                if x % p == 0:
                    ok = False
                    break
                mask |= 1 << i
                mu = -mu
        if ok and x == 1:
            h[mask] += mu / n
    g = h.copy()
    for i in range(len(ps)):
        bit = 1 << i
        idx = np.nonzero(np.arange(n_masks) & bit)[0]
        g[idx] += g[idx ^ bit]
    masks = np.arange(n_masks)
    m_vals = g[(n_masks - 1) ^ masks]
    logd = np.zeros(n_masks, dtype=np.float64)
    wphi = np.ones(n_masks, dtype=np.float64)
    sq = np.ones(n_masks, dtype=np.float64)
    small = np.ones(n_masks, dtype=bool)
    for i, p in enumerate(ps):
        bit = (masks >> i) & 1
        logd += bit * math.log(p)
        wphi *= np.where(bit, (p - 1.0) / (p * p), 1.0)
        sq *= np.where(bit, math.sqrt(p), 1.0)
        if p >= 30:
            small &= bit == 0
    w = wphi * m_vals * m_vals
    return {"logd": logd, "w": w, "wsq": w * sq, "small": small}


def test_j_table_equals_mask_loop():
    for j in range(1, 42):
        table, oracle = _j_table(j), _j_table_mask_loop(j)
        assert table.keys() == oracle.keys()
        for name in oracle:
            assert table[name].dtype == oracle[name].dtype, (j, name)
            assert np.array_equal(table[name], oracle[name]), (j, name)


# _j_reduce's rounding bound: each value within gamma_N S_abs of exact.

def _j_reduce_gamma(j: int) -> float:
    ps = primes_upto(j).tolist()
    k = sum(2 * p <= j for p in ps)
    return _gamma(6 * len(ps) + 2 * k + 17)


@functools.cache
def _abs_sums(j: int) -> tuple[float, float, float]:
    """S_abs of W(j) and of the remainder sum per unit coefficient and j1:
    over delta | primorial(j), the sum of phi(delta)/delta^2 (mbar + H_j)^2,
    mbar the sum of 1/n over the squarefree n <= j prime to delta and H_j
    the sum of 1/p over the primes in (j/2, j]; then of the same times
    sqrt(delta) over the delta with all primes below 30, and over the
    others.  A localized sum's S_abs is at most the full one's."""
    ps = [int(p) for p in primes_upto(j)]
    mbar = _subset_sums(j, ps, lambda mu, n: 1 / n)[::-1] + sum(1 / p for p in ps if 2 * p > j)
    w = _doubled(1.0, ps, lambda a, p: a * ((p - 1.0) / (p * p))) * mbar * mbar
    wsq = w * _doubled(1.0, ps, lambda a, p: a * math.sqrt(p))
    small = _doubled(True, ps, lambda a, p: a & (p < 30))
    return float(w.sum()), float(wsq[small].sum()), float(wsq[~small].sum())


def _err_radius(j: int, R: float, j1: float, refine: bool) -> float:
    """_j_reduce's rounding bound for its remainder sums at j."""
    _, small, rest = _abs_sums(j)
    c_small, c_rest = _coef(j, R, refine, np.array([True, False]))
    return _j_reduce_gamma(j) * j1 * (c_small * small + c_rest * rest)


def _coef(j: int, R: float, refine: bool, small: np.ndarray) -> np.ndarray:
    """coef(delta) over the table, from _j_reduce's two float values."""
    C = np.where(small, 1.17, 2.18) if refine else np.full(small.shape, 2.18)
    return 2.0 * C * E1 * (math.sqrt(R) + math.sqrt(j)) \
        + 2.0 * 2.18 * E2 * (math.sqrt(R) - math.sqrt(j))


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("op", [np.add, np.multiply], ids=["add", "multiply"])
def test_blocks_equal_the_doubled_slices(op):
    # Entry `mask` of the array over all the constants applies op with the
    # constant of each bit of mask, ascending; so its slice t of 2^b entries
    # is the array over the first b constants with op applied for the bits
    # of t, as delta splits into d and beta.  Bit for bit with the sign bits
    # (the constants hold zeros of both signs and negatives).
    rng = np.random.default_rng(5)
    consts = [0.0, -0.0, *rng.normal(size=9).tolist()]
    whole = assembly._over_subsets(list(range(len(consts))), -0.0, op, consts.__getitem__)
    assert np.array_equal(_bits(whole), _bits(_doubled(-0.0, consts, op)))
    for b in range(len(consts) + 1):
        low = assembly._over_subsets(list(range(b)), -0.0, op, consts.__getitem__)
        for t in range(1 << (len(consts) - b)):
            block = low
            for i, c in enumerate(consts[b:]):
                if t >> i & 1:
                    block = op(block, c)
            assert np.array_equal(_bits(block), _bits(whole[t << b:(t + 1) << b])), (b, t)


def _pairwise(a: np.ndarray) -> float:
    """The pairwise sum of 2^b values: the sum of the two halves' pairwise
    sums."""
    if a.size == 1:
        return a[0]
    h = a.size // 2
    return _pairwise(a[:h]) + _pairwise(a[h:])


@pytest.mark.parametrize("n", range(22))
def test_tree_of_block_sums_is_the_pairwise_sum(n):
    # The sum of the first i entries adds the pairwise sums of the aligned
    # 2^b-value blocks of the set bits b of i, largest first; at i = 2^n it
    # is the pairwise sum of the whole row, and at i = 0 zero.  Against the
    # correctly rounded sum it lies within gamma_d of the sum of |x|, d the
    # length of the chain _prefix_sums states.
    rng = np.random.default_rng(n)
    x = rng.normal(size=(2, 1 << n)) * np.exp2(rng.integers(-30, 30, size=(2, 1 << n)))
    rows = x.copy()
    i = np.unique([0, 1, (1 << n) - 1, 1 << n, *rng.integers(0, (1 << n) + 1, size=4)])
    got = assembly._prefix_sums(x)(i)
    assert got.shape == (2, i.size) and not got[:, 0].any()
    g = _gamma(2 * n + 1)
    for r in range(2):
        # Level b: the pairwise sums of the aligned blocks of 2^b values.
        levels = [rows[r]]
        for _ in range(n):
            levels.append(levels[-1][0::2] + levels[-1][1::2])
        if n <= 10:
            assert all(levels[b][t] == _pairwise(rows[r, t << b:(t + 1) << b])
                       for b in range(n + 1) for t in range(1 << (n - b)))
        for col, m in enumerate(i.tolist()):
            want, start = 0.0, 0
            for b in range(n, -1, -1):
                if m >> b & 1:
                    want += levels[b][start >> b]
                    start += 1 << b
            assert got[r, col] == want, (r, m)
            exact = fsum_array(rows[r, :m])
            assert abs(got[r, col] - exact) <= (
                g * fsum_array(np.abs(rows[r, :m])) + U * abs(exact)), (r, m)


def _mpq(q: Fraction) -> mp.mpf:
    return mp.mpf(q.numerator) / q.denominator


def _subsets(primes):
    return [{p for i, p in enumerate(primes) if mask >> i & 1}
            for mask in range(1 << len(primes))]


@functools.cache
def _exact_divisors(j: int) -> tuple[list, list]:
    """Exact terms at j, at 40 digits: per divisor delta of the primorial,
    (phi(delta)/delta^2 m^2, the same with m replaced by mbar + H_j, as
    Fraction and mpf, sqrt(delta), log(delta), all primes below 30); per
    divisor d of the low primes' primorial, (w(d) a(d)^r for r = 0, 1, 2,
    sqrt(d), log(d), all below 30), with a(d) the sum of mu(n)/n over the
    squarefree n <= j whose primes are low and prime to d."""
    ps = [int(p) for p in primes_upto(j)]
    low, high = [p for p in ps if 2 * p <= j], [p for p in ps if 2 * p > j]
    sqf = [(n, fs) for n in range(1, j + 1)
           for fs in [{p for p in ps if n % p == 0}] if math.prod(fs) == n]
    H = sum((Fraction(1, p) for p in high), Fraction(0))

    L = math.lcm(*range(1, j + 1))

    def m_sum(allowed, term):
        """The sum of term(n) / n over the squarefree n <= j with primes in
        allowed, added as integers over lcm(1..j)."""
        return Fraction(sum(term(fs) * (L // n) for n, fs in sqf if fs <= allowed), L)

    def mu(fs):
        return (-1) ** len(fs)

    def divisor(primes, a):
        d = math.prod(primes)
        w = Fraction(math.prod(p - 1 for p in primes), d * d)
        return w, a, mp.sqrt(d), mp.log(d), all(p < 30 for p in primes)

    with mp.workdps(40):
        full = []
        for delta in _subsets(ps):
            m = m_sum(set(ps) - delta, mu)
            mbar = m_sum(set(ps) - delta, lambda fs: 1) + H
            w, _, root, log, small = divisor(delta, None)
            full.append((w * m * m, w * mbar * mbar, _mpq(w * m * m), _mpq(w * mbar * mbar),
                         root, log, small))
        lows = []
        for d in _subsets(low):
            w, a, root, log, small = divisor(d, m_sum(set(low) - d, mu))
            lows.append(([w * a ** r for r in range(3)], root, log, small))
    return full, lows


def _exact_sums(j: int, R: float, j1: float, refine: bool, bounds: list[float]) -> dict:
    """W(j) as a Fraction and the full and localized remainder sums in
    mpmath at 40 digits, with the S_abs of each, from every divisor of the
    primorial of j; and under "factorized" the same sums by the
    factorization _j_reduce states, evaluated exactly.  The remainder sums
    take j1 and the two coefficients as the floats _j_reduce uses; a
    localized sum keeps the delta with log(delta) <= b."""
    ps = [int(p) for p in primes_upto(j)]
    high = [p for p in ps if 2 * p > j]
    C = {s: float(_coef(j, R, refine, np.array([s]))[0]) for s in (True, False)}
    full, lows = _exact_divisors(j)
    with mp.workdps(40):
        e = {s: mp.mpf(j1) * C[s] for s in (True, False)}
        terms = [(e[small] * root * wm2, e[small] * root * wm2_abs, log)
                 for _, _, wm2, wm2_abs, root, log, small in full]
        out = {"W": sum(x[0] for x in full), "W_abs": sum(x[1] for x in full),
               "full": mp.fsum(t[0] for t in terms), "full_abs": mp.fsum(t[1] for t in terms),
               "parts": [mp.fsum(t[0] for t in terms if t[2] <= b) for b in bounds],
               "parts_abs": [mp.fsum(t[1] for t in terms if t[2] <= b) for b in bounds]}
        # m_delta(j) = a(d) - c(beta), so per beta each sum is a quadratic
        # in c whose coefficients sum over the low divisors d kept.
        A = [sum(x[0][r] for x in lows) for r in range(3)]
        weighted = {s: [([C[small and s] * root * _mpq(q) for q in wa], log)
                        for wa, root, log, small in lows] for s in (True, False)}
        fact = {"W": Fraction(0), "full": mp.mpf(0), "parts": [mp.mpf(0)] * len(bounds)}
        for beta in _subsets(high):
            b_prod = math.prod(beta)
            wb = Fraction(math.prod(p - 1 for p in beta), b_prod * b_prod)
            c = sum((Fraction(1, p) for p in high if p not in beta), Fraction(0))
            fact["W"] += wb * (A[2] - 2 * c * A[1] + c * c * A[0])
            small_b, logb = all(p < 30 for p in beta), mp.log(b_prod)
            for k, b in [(None, mp.inf), *enumerate(bounds)]:
                kept = [x for x, log in weighted[small_b] if log <= b - logb]
                P = [mp.fsum(x[r] for x in kept) for r in range(3)]
                v = mp.mpf(j1) * mp.sqrt(b_prod) * _mpq(wb) * (
                    P[2] - 2 * _mpq(c) * P[1] + _mpq(c * c) * P[0])
                if k is None:
                    fact["full"] += v
                else:
                    fact["parts"][k] += v
        out["factorized"] = fact
    return out


def test_j_reduce_equals_the_exact_sums():
    # At every j <= 30: the factorization equals the sum over all divisors
    # (exactly for W, to 40 digits for the remainder sums), and _j_reduce
    # lies within its stated rounding bound of both.
    primorial = 1
    for j in range(1, 31):
        if j in set(primes_upto(j).tolist()):
            primorial *= j
        L = math.log(primorial)
        R, j1, g = min(j + 1.0, 30.99), j1_star(primorial), _j_reduce_gamma(j)
        for refine, bounds in ((True, [0.5 * L, -1.0]),
                               (False, [0.3 * L, math.log(2.2e3 / j)])):
            ex = _exact_sums(j, R, j1, refine, bounds)
            fact = ex["factorized"]
            assert fact["W"] == ex["W"], j
            with mp.workdps(40):
                for got, want in [(fact["full"], ex["full"]), *zip(fact["parts"], ex["parts"])]:
                    assert abs(got - want) <= mp.mpf(10) ** -35 * ex["full"], j
                W, total, parts = assembly._j_reduce(j, R, j1, refine, bounds)
                assert abs(Fraction(W) - ex["W"]) <= Fraction(g) * ex["W_abs"], (j, refine)
                assert abs(total - ex["full"]) <= g * ex["full_abs"], (j, refine)
                for k, part in enumerate(parts):
                    assert abs(part - ex["parts"][k]) <= g * ex["parts_abs"][k], (j, refine, k)


def _reduction_configs(j: int, primorial: int):
    """(R, j1, refine, log bounds) at j: an infinite bound, one finite
    bound, three finite bounds (one keeps no divisor) and refine=False."""
    L = math.log(primorial)
    R, j1 = min(j + 1.0, 75.99), j1_star(primorial)
    for refine, bounds in ((True, [math.inf]), (True, [0.5 * L]),
                           (True, [-1.0, 0.3 * L, math.log(2.2e7 / j)]),
                           (False, [math.log(2.2e7 / j)])):
        yield R, j1, refine, bounds


def _each_j_to_75():
    primorial = 1
    for j in range(1, 76):
        if j in set(primes_upto(j).tolist()):
            primorial *= j
        yield j, primorial


def test_j_reduce_within_its_bound_of_the_materialized_reduction():
    # At every j the reference rows reach, each value lies within the
    # rounding bound of the sums over the materialized table: the reduction
    # _j_reduce replaced, which summed each array whole.  A localized sum
    # takes the full sum's bound, which holds it.
    for j, primorial in _each_j_to_75():
        t = _j_table(j)
        for R, j1, refine, bounds in _reduction_configs(j, primorial):
            W, total, parts = assembly._j_reduce(j, R, j1, refine, bounds)
            errw = j1 * t["wsq"] * _coef(j, R, refine, t["small"])
            radius = _err_radius(j, R, j1, refine)
            assert abs(W - t["w"].sum()) <= _j_reduce_gamma(j) * _abs_sums(j)[0], j
            assert abs(total - errw.sum()) <= radius, j
            for b, part in zip(bounds, parts, strict=True):
                assert abs(part - errw[t["logd"] <= b].sum()) <= radius, (j, b)


def test_j_reduce_digest_is_pinned():
    # W, the full remainder sum and each localized sum at every j <= 75 for
    # the configurations above: their float64 bytes.
    vals = []
    for j, primorial in _each_j_to_75():
        for R, j1, refine, bounds in _reduction_configs(j, primorial):
            W, total, parts = assembly._j_reduce(j, R, j1, refine, bounds)
            vals += [W, total, *parts]
    assert len(vals) == 1050
    digest = hashlib.sha256(np.array(vals, dtype=np.float64).tobytes()).hexdigest()
    assert digest == "68cfa06a5b5f7ad56d2140ac09940e6cf2c9151ddb370437738096865b7ae9b5"


def _j_reduce_75():
    """One cold _j_reduce at j = 75, the largest j of the reference rows,
    with a log bound that keeps every divisor in the localized sum."""
    primorial = math.prod(int(p) for p in primes_upto(75))
    assembly._j_reduce(75, 75.99, j1_star(primorial), True, [math.log(primorial) + 1.0])


def test_j_reduce_memory_within_declared_budget(monkeypatch):
    declared = assembly._j_reduce_bytes(75)  # 2^12 low and 2^9 high masks
    monkeypatch.setenv("MULCM_MEMORY_BUDGET", str(declared))
    tracemalloc.start()
    try:
        _j_reduce_75()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The declaration holds what the kernel allocates, not a loose ceiling.
    assert 0.9 * declared <= peak <= declared, (peak, declared)
    assert peak < 1 << 20


def test_j_reduce_refused_one_byte_below_declared(monkeypatch):
    declared = assembly._j_reduce_bytes(75)
    monkeypatch.setenv("MULCM_MEMORY_BUDGET", str(declared - 1))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            _j_reduce_75()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # refused before any array over the masks exists


def _theorem_bound_materialized(config: AssemblyConfig) -> dict:
    """The assembled bound over materialized tables, summed as before the
    factorization: every j's remainder weights and log(delta) held at once,
    one dyadic Y per loop.  Each value X carries X_radius, the distance
    theorem_bound may lie from it: _j_reduce's rounding bound at each j
    (for a localized sum, that of the full sum, which bounds it), carried
    through the float sums over j that both take in the same order."""
    x_min, ratio = config.x_min, config.ratio
    jmax = int(ratio)
    A = A_DEEP.mid
    tail = 4.14 / ratio + 0.00205
    main_total = 0.0
    prodw = 1.0
    primorial = 1
    per_j = []
    primes = set(primes_upto(jmax).tolist())
    for j in range(1, jmax + 1):
        if j in primes:
            prodw *= j * j / (j * j + j - 1.0)
            primorial *= j
        R = min(j + 1.0, ratio)
        t, j1 = _j_table(j), j1_star(primorial)
        W = float(t["w"].sum())
        W_radius = _j_reduce_gamma(j) * _abs_sums(j)[0]
        scale = A * prodw * math.log(R / j)
        main_j = scale * W
        main_total += main_j
        errw = j1 * t["wsq"] * _coef(j, R, config.refine_small_factors, t["small"])
        per_j.append({"j": j, "main": main_j, "W": W, "logd": t["logd"], "errw": errw,
                      "W_radius": W_radius, "main_radius": scale * W_radius + 2 * U * main_j,
                      "err_radius": _err_radius(j, R, j1, config.refine_small_factors)})
    E_full = sum(float(row["errw"].sum()) for row in per_j)
    best, best_Y, windows = 0.0, None, 0
    Y = float(x_min)
    while True:
        windows += 1
        if config.localize:
            E = 0.0
            for row in per_j:
                keep = row["logd"] <= math.log(2.0 * Y / row["j"])
                E += float(row["errw"][keep].sum())
        else:
            E = E_full
        cur = E / math.sqrt(Y)
        if cur > best:
            best, best_Y = cur, Y
        if not config.localize:
            break
        if E_full / math.sqrt(2.0 * Y) <= best:
            break
        Y *= 2.0
    sums = 2 * _gamma(jmax)  # two float sums over j, from parts within the radii
    main_radius = sum(r["main_radius"] for r in per_j) + sums * sum(r["main"] for r in per_j)
    remainder_radius = ((sum(r["err_radius"] for r in per_j) + sums * E_full)
                        / math.sqrt(best_Y) + 4 * U * best)
    bound = main_total + best + tail
    return {
        "x_min": x_min,
        "ratio": ratio,
        "refine_small_factors": config.refine_small_factors,
        "localize": config.localize,
        "main": main_total,
        "main_radius": main_radius,
        "remainder": best,
        "remainder_radius": remainder_radius,
        "remainder_window": best_Y,
        "tail": tail,
        "bound": bound,
        "bound_radius": main_radius + remainder_radius + 4 * U * bound,
        "windows": windows,
        "per_j": [{"j": r["j"], "main": r["main"], "W": r["W"],
                   "err_sum": float(r["errw"].sum()), "main_radius": r["main_radius"],
                   "W_radius": r["W_radius"], "err_sum_radius": r["err_radius"]}
                  for r in per_j],
    }


def _assert_equals_materialized(res: dict) -> None:
    """Every value of res lies within its radius of the materialized one,
    and the search takes the same windows."""
    config = AssemblyConfig(res["x_min"], res["ratio"],
                            res["refine_small_factors"], res["localize"])
    oracle = _theorem_bound_materialized(config)
    for name in ("x_min", "ratio", "refine_small_factors", "localize", "tail",
                 "remainder_window", "windows"):
        assert res[name] == oracle[name], (config, name)
    for name in ("main", "remainder", "bound"):
        assert abs(res[name] - oracle[name]) <= oracle[f"{name}_radius"], (config, name)
    assert len(res["per_j"]) == len(oracle["per_j"])
    for ours, theirs in zip(res["per_j"], oracle["per_j"]):
        assert ours["j"] == theirs["j"]
        for name in ("W", "err_sum", "main"):
            assert abs(ours[name] - theirs[name]) <= theirs[f"{name}_radius"], (
                config, ours["j"], name)
    # A second pass over the tables happens exactly when x_min alone does
    # not settle the remainder supremum.
    assert res["table_passes"] == (2 if oracle["windows"] > 1 else 1), config


@pytest.mark.parametrize("config", [
    *(AssemblyConfig(1.1e7, 22.99, refine, localize)
      for refine in (True, False) for localize in (True, False)),
    AssemblyConfig(4.4e7, 22.99),
    AssemblyConfig(1e9, 38.99),
    AssemblyConfig(100.0, 22.99),
    AssemblyConfig(1000.0, 38.99),
])
def test_theorem_bound_equals_materialized(config):
    _assert_equals_materialized(theorem_bound(config))


def test_theorem_table_equals_materialized():
    for row in theorem_table()["rows"]:
        _assert_equals_materialized(row)


def test_theorem_table_digest_is_pinned():
    # W, err_sum and main of every j of every row, then each row's main,
    # remainder and bound: their float64 bytes.
    table = theorem_table()
    rows = [[r["W"], r["err_sum"], r["main"]] for row in table["rows"] for r in row["per_j"]]
    rows += [[row["main"], row["remainder"], row["bound"]] for row in table["rows"]]
    digest = hashlib.sha256(np.array(rows, dtype=np.float64).tobytes()).hexdigest()
    assert digest == "2eb925a4bd90c0a47ccea9ce4ee90cca24dc832b8f1cb30f5138ccac5e05fd8d"
    assert table["combined_first_row"].hex() == "0x1.5b2cf57c176f9p-1"


def test_theorem_table_keeps_no_table():
    theorem_bound(AssemblyConfig(1.1e7, 22.99))  # module state outside the tables
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        theorem_table()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before <= 1 << 20, (before, after)


def test_oversized_ratio_refused_before_any_table(monkeypatch):
    # ratio 250 needs 2^30 masks of the primes up to 125 at j = 250, about
    # 120 GiB: refused up front under the default 8 GiB.
    monkeypatch.delenv("MULCM_MEMORY_BUDGET", raising=False)
    assert assembly._j_reduce_bytes(250) > 8 << 30
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            theorem_bound(AssemblyConfig(1e7, 250.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_ratio_101_within_64_mib(monkeypatch):
    # j up to 101 reduces over at most 2^15 low and 2^11 high masks.
    monkeypatch.setenv("MULCM_MEMORY_BUDGET", str(64 << 20))
    res = theorem_bound(AssemblyConfig(1e12, 101.99))
    assert len(res["per_j"]) == 101
    assert 0.0 < res["main"] <= res["bound"] < 17.0 / 25.0


def test_first_main_terms():
    res = theorem_bound(AssemblyConfig(1.1e7, 22.99))
    mains = {row["j"]: row["main"] for row in res["per_j"]}
    assert mains[1] == pytest.approx(A_DEEP.mid * math.log(2.0), rel=1e-12)
    assert mains[2] == pytest.approx(
        A_DEEP.mid * 0.8 * math.log(1.5) * 0.5, rel=1e-12)
    assert all(v >= 0.0 for v in mains.values())


def test_reference_row_frozen():
    res = theorem_bound(AssemblyConfig(1.1e7, 22.99))
    assert res["bound"] == pytest.approx(0.678077, abs=5e-6)
    assert res["main"] == pytest.approx(0.435030, abs=5e-6)
    assert res["tail"] == pytest.approx(4.14 / 22.99 + 0.00205, abs=1e-12)
    assert res["remainder_window"] == pytest.approx(1.1e7)


def test_refinements_only_help():
    base = theorem_bound(AssemblyConfig(1.1e7, 22.99, False, False))["bound"]
    refined = theorem_bound(AssemblyConfig(1.1e7, 22.99, True, True))["bound"]
    semi = theorem_bound(AssemblyConfig(1.1e7, 22.99, True, False))["bound"]
    assert refined <= semi <= base
    assert base == pytest.approx(0.7266, abs=2e-4)


def test_bound_monotone_in_x_min():
    lo = theorem_bound(AssemblyConfig(1.1e7, 22.99))["bound"]
    hi = theorem_bound(AssemblyConfig(4.4e7, 22.99))["bound"]
    assert hi <= lo


def test_main_below_total():
    res = theorem_bound(AssemblyConfig(1e9, 38.99))
    assert res["main"] <= res["bound"]
    assert res["remainder"] >= 0.0 and res["tail"] >= 0.0


def test_theorem_table_rows():
    table = theorem_table()
    bounds = [row["bound"] for row in table["rows"]]
    refs = [row["reference"] for row in table["rows"]]
    assert refs == [0.679, 0.574, 0.536, 0.504]
    for b, r in zip(bounds, refs):
        assert r - 0.05 <= b <= r + 0.01
    assert table["combined_first_row"] <= 17.0 / 25.0
    assert table["combined_ok"]


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        theorem_bound(AssemblyConfig(1.0, 22.99))
    with pytest.raises(ValueError):
        theorem_bound(AssemblyConfig(1e7, 0.5))


def test_tail_bound_formula():
    parts = tail_bound(1.0, 22.99)
    assert parts["flat"] == pytest.approx(0.18213, abs=1e-5)
    assert parts["flat_valid"]
    assert parts["total"] <= parts["flat"]
    with pytest.raises(ValueError):
        tail_bound(2.0, 1.0)


def test_tail_audit_and_desk():
    assert tail_audit().passed
    rep = tail_desk_check(x=50_000, ratio=23.0)
    assert rep.passed, rep.summary_line()


def test_tail_desk_sum_is_cut_identity_sum():
    # At ratio 1 the tail sum runs over every d <= x: it is S(x) itself.
    x = 20_000
    rep = tail_desk_check(x=x, ratio=1.0)
    assert rep.details["sum"] == sigma_via_gstar_identity(x)
    # At ratio 23, an in-test evaluation of sum_{d <= D} mu^2 phi/d^2 m_d(x/d)^2.
    rep = tail_desk_check(x=x, ratio=23.0)
    D = int(x / 23.0)
    mu = sieve_range(1, x).mu
    base = mu.astype(np.float64) / np.arange(1, x + 1, dtype=np.float64)
    total = 0.0
    for d in range(1, D + 1):
        fac = factorize(d)
        if any(e > 1 for _, e in fac):
            continue
        terms = base[: x // d].copy()
        phi = 1
        for p, _ in fac:
            terms[p - 1:: p] = 0.0
            phi *= p - 1
        md = float(np.sum(terms))
        total += phi / (d * d) * md * md
    assert rep.details["sum"] == total
    assert rep.worst_arg == (x, D)


def test_le1_le2_grids():
    r1 = le1_verify()
    assert r1.passed, r1.summary_line()
    for row in r1.details["rows"]:
        assert row["exact_le_majorant"] and row["majorant_le_cap"]
    r2 = le2_verify()
    assert r2.passed, r2.summary_line()
