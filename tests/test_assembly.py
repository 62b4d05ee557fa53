import hashlib
import math
import tracemalloc

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
from mulcm.numutil import BudgetError
from mulcm.products import A_DEEP, EULER_GAMMA, j1_star
from mulcm.sieve import factorize, primes_upto, sieve_range
from mulcm.sigma import sigma_via_gstar_identity


# The per-j table with every array materialized and m_delta(j) from the full
# subset-sum transform over all primes up to j: the oracle for _j_reduce's
# arrays and for the materialized assembly below.

def _doubled(start, ps, step) -> np.ndarray:
    """Array over the 2^len(ps) prime masks: entry `mask` is start with
    step(., p) applied for each prime p in mask, in ascending order."""
    a = np.array([start])
    for p in ps:
        a = np.concatenate((a, step(a, p)))
    return a


def _subset_sums(j: int, ps: list[int]) -> np.ndarray:
    """g[T] = sum of mu(n)/n over the squarefree n <= j whose primes all lie
    in the prime mask T (bit i for ps[i])."""
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
            g[mask] += mu / n
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


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def test_j_reduce_arrays_equal_the_oracle_table():
    # m_delta(j) and the three doubled arrays, bit for bit (sign bits too),
    # at every j the reference rows reach, collected block by block.
    for j in range(1, 76):
        ps = [int(p) for p in primes_upto(j)]
        oracles = [
            _subset_sums(j, ps)[::-1],
            _doubled(1.0, ps, lambda a, p: a * ((p - 1.0) / (p * p))),
            _doubled(1.0, ps, lambda a, p: a * math.sqrt(p)),
            _doubled(0.0, ps, lambda a, p: a + math.log(p)),
        ]
        seen = 0
        for t, *blocks in assembly._j_blocks(j, True):
            assert t == seen, j
            lo, hi = t * blocks[0].size, (t + 1) * blocks[0].size
            for k, (ours, oracle) in enumerate(zip(blocks, oracles, strict=True)):
                assert ours.dtype == oracle.dtype == np.float64, (j, k)
                assert np.array_equal(_bits(ours), _bits(oracle[lo:hi])), (j, t, k)
            seen += 1
        assert hi == 1 << len(ps), j


@pytest.mark.parametrize("op", [np.add, np.multiply], ids=["add", "multiply"])
def test_blocks_equal_the_doubled_slices(op):
    # Every block built from the low table is the matching slice of the
    # whole doubled array, sign bits included (the constants hold zeros of
    # both signs and negatives).
    rng = np.random.default_rng(5)
    consts = [0.0, -0.0, *rng.normal(size=9).tolist()]
    whole = assembly._doubled(-0.0, op, consts)
    for b in range(len(consts) + 1):
        low = assembly._doubled(-0.0, op, consts[:b])
        for t in range(1 << (len(consts) - b)):
            block = assembly._block(low, op, consts[b:], t)
            assert np.array_equal(_bits(block), _bits(whole[t << b:(t + 1) << b])), (b, t)


@pytest.mark.parametrize("n", range(22))
def test_tree_of_block_sums_is_the_pairwise_sum(n):
    # The balanced tree of the sums of aligned 2^b-value blocks (b >= 7, or
    # b = n) equals numpy's sum over the whole array.
    a = np.random.default_rng(n).normal(size=1 << n) * np.exp2(
        np.random.default_rng(n + 100).integers(-30, 30, size=1 << n))
    for b in range(min(n, 7), n + 1):
        sums = [a[i:i + (1 << b)].sum() for i in range(0, a.size, 1 << b)]
        assert assembly._tree_sum(sums) == a.sum(), (n, b)


def test_j_reduce_digest_is_pinned():
    # W, the full remainder sum and each localized sum at every j <= 75, for
    # an infinite bound, one finite bound, three finite bounds (one keeps no
    # mask) and refine=False: their float64 bytes as the whole-array
    # reduction gave them.
    vals, primorial = [], 1
    for j in range(1, 76):
        if j in set(primes_upto(j).tolist()):
            primorial *= j
        L = math.log(primorial)
        R, j1 = min(j + 1.0, 75.99), j1_star(primorial)
        for refine, bounds in ((True, [math.inf]), (True, [0.5 * L]),
                               (True, [-1.0, 0.3 * L, math.log(2.2e7 / j)]),
                               (False, [math.log(2.2e7 / j)])):
            W, total, parts = assembly._j_reduce(j, R, j1, refine, bounds)
            vals += [W, total, *parts]
    assert len(vals) == 1050
    digest = hashlib.sha256(np.array(vals, dtype=np.float64).tobytes()).hexdigest()
    assert digest == "15606419d101c56e34297e3d83a9ce0092f590c422bc3a79da275ef5c560c6f7"


def _j_reduce_75():
    """One cold _j_reduce at j = 75, the largest j of the reference rows,
    with a log bound that keeps every mask in the localized sum (finite, so
    the masked sum is built: an infinite bound skips it)."""
    primorial = math.prod(int(p) for p in primes_upto(75))
    assembly._j_reduce(75, 75.99, j1_star(primorial), True, [math.log(primorial) + 1.0])


def test_j_reduce_memory_within_declared_budget(monkeypatch):
    declared = assembly._j_reduce_bytes(75)  # 2^21 masks
    monkeypatch.setenv("MULCM_MEMORY_BUDGET", str(declared))
    tracemalloc.start()
    try:
        _j_reduce_75()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The declaration holds what the kernel allocates, not a loose ceiling.
    assert 0.9 * declared <= peak <= declared, (peak, declared)


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
    """The assembled bound over materialized tables: every j's remainder
    weights and log(delta) held at once, one dyadic Y per loop."""
    x_min, ratio = config.x_min, config.ratio
    jmax = int(ratio)
    A = A_DEEP.mid
    e1 = math.exp(EULER_GAMMA / 2.0) - 1.0
    e2 = math.exp(-EULER_GAMMA / 2.0)
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
        t = _j_table(j)
        W = float(t["w"].sum())
        main_j = A * prodw * math.log(R / j) * W
        main_total += main_j
        if config.refine_small_factors:
            C = np.where(t["small"], 1.17, 2.18)
        else:
            C = np.full(t["small"].shape, 2.18)
        coef = 2.0 * C * e1 * (math.sqrt(R) + math.sqrt(j)) \
            + 2.0 * 2.18 * e2 * (math.sqrt(R) - math.sqrt(j))
        errw = j1_star(primorial) * t["wsq"] * coef
        per_j.append({"j": j, "main": main_j, "W": W,
                      "logd": t["logd"], "errw": errw})
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
    return {
        "x_min": x_min,
        "ratio": ratio,
        "refine_small_factors": config.refine_small_factors,
        "localize": config.localize,
        "main": main_total,
        "remainder": best,
        "remainder_window": best_Y,
        "tail": tail,
        "bound": main_total + best + tail,
        "windows": windows,
        "per_j": [{"j": r["j"], "main": r["main"], "W": r["W"],
                   "err_sum": float(r["errw"].sum())} for r in per_j],
    }


def _assert_equals_materialized(res: dict) -> None:
    config = AssemblyConfig(res["x_min"], res["ratio"],
                            res["refine_small_factors"], res["localize"])
    oracle = _theorem_bound_materialized(config)
    for name, value in oracle.items():
        assert res[name] == value, (config, name)
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
    # remainder and bound: their float64 bytes, as the subset-sum transform
    # over all primes and per-j materialized tables gave them.
    table = theorem_table()
    rows = [[r["W"], r["err_sum"], r["main"]] for row in table["rows"] for r in row["per_j"]]
    rows += [[row["main"], row["remainder"], row["bound"]] for row in table["rows"]]
    digest = hashlib.sha256(np.array(rows, dtype=np.float64).tobytes()).hexdigest()
    assert digest == "fde88aecccaf57c35bdb8bfab06953e24f06d3eaa09db0913f31c62bc95eac24"
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
    # ratio 200 needs 2^46 divisor masks at j = 200: refused up front.
    monkeypatch.delenv("MULCM_MEMORY_BUDGET", raising=False)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            theorem_bound(AssemblyConfig(1e7, 200.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


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
