import math
import tracemalloc

import numpy as np
import pytest

from mulcm import assembly
from mulcm.assembly import (
    AssemblyConfig,
    block_weight,
    le1_verify,
    le2_verify,
    tail_audit,
    tail_bound,
    tail_desk_check,
    theorem_bound,
    theorem_table,
)
from mulcm.numutil import BudgetError
from mulcm.products import A_DEEP, EULER_GAMMA
from mulcm.sieve import factorize, primes_upto, sieve_range
from mulcm.sigma import sigma_via_gstar_identity


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
        table, oracle = assembly._j_table(j), _j_table_mask_loop(j)
        assert table.keys() == oracle.keys()
        for name in oracle:
            assert table[name].dtype == oracle[name].dtype, (j, name)
            assert np.array_equal(table[name], oracle[name]), (j, name)


def test_j_tables_share_prime_set_arrays():
    # j = 73, 74, 75 have the same primes: one read-only log(delta) and flag.
    tables = [assembly._j_table(j) for j in (73, 74, 75)]
    for name in ("logd", "small"):
        assert tables[0][name] is tables[1][name] is tables[2][name]
        assert not tables[0][name].flags.writeable
    assert tables[0]["w"] is not tables[1]["w"]


def test_j_table_memory_within_declared_budget(monkeypatch):
    j = 75  # the largest j of the reference rows: 2^21 divisor masks
    monkeypatch.setattr(assembly, "_j_table_cache", {})
    monkeypatch.setattr(assembly, "_prime_set_cache", {})
    declared = assembly._j_table_bytes(1 << len(primes_upto(j)))
    monkeypatch.setenv("MULCM_MEMORY_BUDGET", str(declared))
    tracemalloc.start()
    try:
        assembly._j_table(j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= declared, (peak, declared)


def test_j_table_refused_one_byte_below_declared(monkeypatch):
    j = 75
    monkeypatch.setattr(assembly, "_j_table_cache", {})
    monkeypatch.setattr(assembly, "_prime_set_cache", {})
    declared = assembly._j_table_bytes(1 << len(primes_upto(j)))
    monkeypatch.setenv("MULCM_MEMORY_BUDGET", str(declared - 1))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            assembly._j_table(j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # refused before any array over the masks exists


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
