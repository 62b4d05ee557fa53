import hashlib
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mulcm.gstar import (
    aux_k_band,
    aux_k_sum,
    check_aux_k,
    check_averaged_divisor_identity,
    check_convol,
    check_convol0,
    check_g_mean,
    check_gstar_contract,
    check_gstar_difference,
    check_majorstar2,
    g_coefficients,
    gstar,
    gstar_asymptotic,
    gstar_exact,
    init_bound_check,
    moebius_square_table_check,
    r1_star,
    r1_values,
    scan_majorstar,
)
from mulcm import gstar as gstar_module
from mulcm.products import P0_DEEP
from mulcm.sieve import MultiplicativeBlock, sieve_range


def test_gstar_exact_small():
    # q=2, X=3: m in {1, 3}: 1 + (2/9) = 11/9.
    assert gstar_exact(2, 3) == Fraction(11, 9)
    assert gstar_exact(1, 1) == 1
    assert gstar_exact(1, 4) == 1 + Fraction(1, 4) + Fraction(2, 9)
    with pytest.raises(ValueError):
        gstar_exact(4, 10)  # not squarefree


@given(q=st.sampled_from([1, 2, 3, 6, 30]),
       X=st.integers(min_value=1, max_value=400))
@settings(max_examples=60, deadline=None)
def test_gstar_float_matches_exact(q, X):
    assert gstar(q, X) == pytest.approx(float(gstar_exact(q, X)), abs=1e-12)


def test_gstar_asymptotic_radius_covers_truth():
    for q, X in ((1, 1000), (2, 5000), (6, 2000), (30, 1000)):
        main, radius = gstar_asymptotic(q, X)
        truth = gstar(q, X)
        assert abs(truth - main) <= radius, (q, X, truth, main, radius)


def test_gstar_contract_spot():
    rep = check_gstar_contract(q_set=(1, 2, 6), x_set=(100, 1000, 10_000))
    assert rep.passed, rep.summary_line()


def test_gstar_difference_spot():
    rep = check_gstar_difference(q_set=(1, 2), pairs=((20_000, 10_000),))
    assert rep.passed, rep.summary_line()


def test_r1_star_frozen():
    assert r1_star(4, 1) == Fraction(7, 3)
    vals = r1_values(50, 1)
    assert float(vals[4]) == pytest.approx(7.0 / 3.0, abs=1e-12)


def test_r1_values_match_the_exact_oracle():
    X_set = (1, 2, 3, 4, 8, 9, 27, 97, 210, 1000, 2047, 3000)
    for q in (1, 2, 6, 30):
        vals = r1_values(3000, q)
        for X in X_set:
            exact = r1_star(X, q)
            assert float(vals[X]) == pytest.approx(float(exact), rel=1e-12, abs=0), (q, X)


def _squarefree_upto(n: int) -> list[bool]:
    sqf = [True] * (n + 1)
    for p in range(2, math.isqrt(n) + 1):
        sqf[p * p:: p * p] = [False] * len(range(p * p, n + 1, p * p))
    return sqf


def _phi(k: int) -> int:
    return sum(1 for a in range(1, k + 1) if math.gcd(a, k) == 1)


def _mu(n: int) -> int:
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


@pytest.mark.parametrize("q", [1, 2, 6, 30, 210])
def test_each_m_has_at_most_one_triple(q):
    # m = k^2 l r with r | q, (kl, q) = 1, k and l squarefree and coprime:
    # brute force over every triple up to N, independent of mulcm.
    N = 5000
    sqf = _squarefree_upto(N)
    triples, count = {}, Counter()
    for k in range(1, math.isqrt(N) + 1):
        if not sqf[k] or math.gcd(k, q) != 1:
            continue
        for r in (r for r in range(1, q + 1) if q % r == 0):
            for l in range(1, N // (k * k * r) + 1):
                if sqf[l] and math.gcd(l, q * k) == 1:
                    m = k * k * l * r
                    count[m] += 1
                    triples[m] = (k, l, r)
    assert max(count.values()) == 1
    # g_q holds that one term at m and 0 elsewhere; |g_q| is r1*'s jump.
    g = g_coefficients(N, q)
    jumps = gstar_module._q_weights(gstar_module._cubefree_weights(N), q, 0, N + 1, False)
    assert np.array_equal(np.abs(g), jumps)
    assert np.array_equal(np.cumsum(jumps), r1_values(N, q))
    assert set(np.flatnonzero(g).tolist()) == set(triples)
    for m, (k, l, r) in triples.items():
        exact = Fraction(_mu(r * k * l) * _phi(k), k * l)
        assert g[m] == pytest.approx(float(exact), rel=1e-15, abs=0), (m, q)


# sha256 (first 16 hex digits) of g_coefficients(n, q).tobytes() ("g@n,q"),
# r1_values(n, q).tobytes() ("r1@n,q") and the repr of three default
# reports, taken from the per-triple accumulation the weight table replaced.
WEIGHT_PINS = {
    "g-mean": "ab5b74815bfe33c6",
    "g@1,1": "fc62429c3e69001d",
    "g@1,2": "fc62429c3e69001d",
    "g@1,210": "fc62429c3e69001d",
    "g@1,30": "fc62429c3e69001d",
    "g@1,6": "fc62429c3e69001d",
    "g@1000000,1": "67ac61faa04cc712",
    "g@1000000,2": "21f8dcd05dbb6570",
    "g@1000000,210": "cfaa097cd07b1fb8",
    "g@1000000,30": "e443a9c545c64d85",
    "g@1000000,6": "6e8f5026e6584b0c",
    "g@2,1": "fb101de89fde81b7",
    "g@2,2": "4e32ebf8795fb0d6",
    "g@2,210": "4e32ebf8795fb0d6",
    "g@2,30": "4e32ebf8795fb0d6",
    "g@2,6": "4e32ebf8795fb0d6",
    "g@65537,1": "08a7170abf3cf2a0",
    "g@65537,2": "d66e876a1246b1b5",
    "g@65537,210": "b827f2fcd6fabe25",
    "g@65537,30": "638d58bcd34668a8",
    "g@65537,6": "1ee38a43c5711b54",
    "g@97,1": "a26db0a6a4c49cab",
    "g@97,2": "5a024eb1a97c9389",
    "g@97,210": "7b3ea427a4914703",
    "g@97,30": "2454b497af225062",
    "g@97,6": "67f001f5a5539a8d",
    "keyb": "ab24f8d7bdb249b4",
    "majorstar2": "0e2ed2a400e2288d",
    "r1@1,1": "fc62429c3e69001d",
    "r1@1,2": "fc62429c3e69001d",
    "r1@1,210": "fc62429c3e69001d",
    "r1@1,30": "fc62429c3e69001d",
    "r1@1,6": "fc62429c3e69001d",
    "r1@1000000,1": "19e149fa4ee2483e",
    "r1@1000000,2": "2fe147619ea12a5d",
    "r1@1000000,210": "7dabae8b0b2fb596",
    "r1@1000000,30": "dbd4aeb026d6059f",
    "r1@1000000,6": "8bca0e820107f92f",
    "r1@2,1": "279d180b519c4452",
    "r1@2,2": "b0c45303f7f11848",
    "r1@2,210": "b0c45303f7f11848",
    "r1@2,30": "b0c45303f7f11848",
    "r1@2,6": "b0c45303f7f11848",
    "r1@65537,1": "ad67401f30d6af77",
    "r1@65537,2": "32cf41076cbf22f1",
    "r1@65537,210": "6c38bb77594fe192",
    "r1@65537,30": "621997c6f891e593",
    "r1@65537,6": "18853ef7e64aa351",
    "r1@97,1": "8b2b161b1f95070c",
    "r1@97,2": "f17347aa13cf4431",
    "r1@97,210": "316242f17a0ec488",
    "r1@97,30": "7d9952343e826ab3",
    "r1@97,6": "f5d27d1ce1a2a2a8",
}


def test_weights_and_reports_match_the_triple_accumulation():
    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()[:16]

    got = {}
    for q in (1, 2, 6, 30, 210):
        for n in (1, 2, 97, 65_537, 10**6):
            got[f"g@{n},{q}"] = digest(g_coefficients(n, q).tobytes())
            got[f"r1@{n},{q}"] = digest(r1_values(n, q).tobytes())
    for name, check in (("majorstar2", check_majorstar2), ("g-mean", check_g_mean),
                        ("keyb", check_averaged_divisor_identity)):
        got[name] = digest(repr(check()).encode())
    assert got == WEIGHT_PINS


def test_masked_weights_are_positive_zeros():
    # The weights are written as products with a coprime mask, which gives
    # -0.0 where a negative weight is masked; every zero must be +0.0, as a
    # masked write into np.zeros left it.
    def zeros_are_positive(a):
        return not np.signbit(a[a == 0]).any()

    assert zeros_are_positive(gstar_module._cubefree_weights(65_537))
    for q in (1, 2, 6, 30, 210):
        assert zeros_are_positive(g_coefficients(65_537, q)), q
        assert zeros_are_positive(r1_values(65_537, q)), q


def test_majorstar2_envelope():
    rep = check_majorstar2(q_set=(1, 2), X_max=3000)
    assert rep.passed, rep.summary_line()


def test_majorstar1_envelopes():
    rep = scan_majorstar(X_max=20_000, q_set=(1, 2, 6, 30))
    assert rep.passed, rep.summary_line()
    assert rep.details["1.17"]["worst_ratio"] <= 1.0


def test_aux_k_sum_values():
    # S(1, 1) is the full alternating cubic sum, equal to the Euler
    # product P0; dropping the k=1 term shifts it by exactly 1.
    s1 = aux_k_sum(1.0, 1)
    assert s1.lo - 1e-9 <= P0_DEEP.mid <= s1.hi + 1e-9
    s15 = aux_k_sum(1.5, 1)
    assert s15.mid == pytest.approx(s1.mid - 1.0, abs=1e-9)
    # coprimality constraint drops the even terms
    s_m2 = aux_k_sum(1.0, 2)
    assert s_m2.mid == pytest.approx(s1.mid - sum(
        0.0 if k % 2 else _mu_phi_over_k3(k) for k in range(1, 200_000)),
        abs=1e-6)


def _mu_phi_over_k3(k: int) -> float:
    from mulcm.sieve import factorize
    mu, phi = 1, 1
    for p, e in factorize(k):
        if e > 1:
            return 0.0
        mu = -mu
        phi *= p - 1
    return mu * phi / k ** 3


def test_aux_k_grid():
    rep = check_aux_k(K_max=50.0)
    assert rep.passed, rep.summary_line()


def test_aux_k_band_report_structure():
    rep = aux_k_band()
    rows = rep.details["rows"]
    assert [r["K"] for r in rows] == [1.0, 1.25, 1.5, 1.75]
    for r in rows:
        ks = r["K_S"]
        assert ks["lo"] <= ks["hi"]
        assert ks["hi"] - ks["lo"] < 1e-4
    # cross-check one grid value against the certified sum directly
    s = aux_k_sum(1.25, 1)
    assert rows[1]["K_S"]["lo"] == pytest.approx(1.25 * s.lo, abs=1e-12)


def test_convol_identities_small():
    assert check_convol0(2000).passed
    assert check_convol(2000, q_set=(1, 2, 6)).passed


@pytest.mark.parametrize("check, digest", [
    (check_convol, "dadbd8ee79c1edae23cc01089fabae4c64e6c6b52a14a952c5fbfdd5e852db7c"),
    (check_convol0, "1b12a75968db9634e5af3896f6324b8bd36888afd7b34c2f3e2a686dd0b13dcb"),
])
def test_convol_reports_digest_pinned(check, digest):
    # Taken while both checks factored d from the table's smallest-prime-
    # factor array and check_convol ran q in the outer loop.
    assert hashlib.sha256(repr(check(3000)).encode()).hexdigest() == digest


def test_convol_violations_in_order_of_d_then_q(monkeypatch):
    # phi broken at the primes 7 and 11: both q see both d.
    block = sieve_range(1, 100)
    phi = block.phi.copy()
    phi[[6, 10]] += 1
    broken = MultiplicativeBlock(1, 100, block.mu, phi)
    monkeypatch.setattr(gstar_module, "_table", lambda N: broken)
    rep = check_convol(100, q_set=(1, 2))
    assert not rep.passed and rep.worst_arg == (1, 7)
    assert [v[:2] for v in rep.details["violations"]] == [(1, 7), (2, 7), (1, 11), (2, 11)]


def test_g_mean_partial_sum():
    rep = check_g_mean(limit=200_000, q_set=(1, 2))
    assert rep.passed, rep.summary_line()


def test_moebius_square_first_rows_desk():
    rep = moebius_square_table_check(X_max=100_000)
    rows = rep.details["rows"]
    assert rows[0]["passed"] and rows[1]["passed"] and rows[2]["passed"]
    # X0 = 438653 lies past X_max: an empty domain is unchecked, not passed.
    assert (rows[4]["X0"], rows[4]["c"]) == (438653, 0.02767)
    assert rows[4]["checked"] is False and rows[4]["passed"] is False
    assert all(r["checked"] for r in rows[:4])
    assert not rep.passed and "438653" in rep.domain


def test_init_bound_desk():
    rep = init_bound_check(100_000)
    assert rep.passed, rep.summary_line()
    assert rep.details["cap_holds"]


def test_averaged_divisor_identity():
    rep = check_averaged_divisor_identity()
    assert rep.passed, rep.summary_line()
