from fractions import Fraction

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
    gstar,
    gstar_asymptotic,
    gstar_exact,
    init_bound_check,
    moebius_square_table_check,
    r1_star,
    r1_values,
    scan_majorstar,
)
from mulcm.products import P0_DEEP


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
