import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mulcm.mertens import (
    check_envelope_coprime,
    check_envelope_log,
    check_envelope_sqrt,
    envelope_coprime,
    g0_factor,
    g1_factor,
    m,
    m_q_exact,
)
from mulcm.sieve import factorize


def test_m_small_values():
    assert m_q_exact(1, 1) == 1
    assert m_q_exact(2, 1) == Fraction(1, 2)
    assert m_q_exact(3, 1) == Fraction(1, 6)
    assert m_q_exact(4, 1) == Fraction(1, 6)
    assert m_q_exact(10, 1) == Fraction(19, 210)
    assert m(10.0) == pytest.approx(float(m_q_exact(10, 1)), abs=1e-15)
    # real argument floors
    assert m(10.9) == m(10.0)
    assert m(0.5) == 0.0


@given(st.integers(min_value=2, max_value=20000))
@settings(max_examples=100, deadline=None)
def test_m_increment_is_mu_over_n(n):
    mu = 1
    for p, e in factorize(n):
        if e > 1:
            mu = 0
            break
        mu = -mu
    assert m(n) - m(n - 1) == pytest.approx(mu / n, abs=1e-12)


def test_m_q_restricts_to_coprime():
    # m_2(y) sums mu(d)/d over odd d only.
    assert m_q_exact(10, 2) == Fraction(1) - Fraction(1, 3) - Fraction(1, 5) \
        - Fraction(1, 7)


def test_g_factors():
    assert g0_factor(1) == 1.0
    assert g0_factor(2) == pytest.approx(math.sqrt(1.5))
    assert g0_factor(3) == pytest.approx(math.sqrt(3) / (math.sqrt(3) - 1))
    assert g1_factor(2) == pytest.approx(2.06)
    xi = 1.0 - 1.0 / (12.0 * math.log(10.0))
    assert g1_factor(3) == pytest.approx(3 ** xi / (3 ** xi - 1))
    # multiplicative over squarefree arguments
    assert g0_factor(6) == pytest.approx(g0_factor(2) * g0_factor(3))
    assert g1_factor(15) == pytest.approx(g1_factor(3) * g1_factor(5))


def test_envelope_sqrt_desk():
    rep = check_envelope_sqrt(200_000, q=1)
    assert rep.passed, rep.summary_line()
    rep2 = check_envelope_sqrt(200_000, q=2)
    assert rep2.passed, rep2.summary_line()


def test_envelope_log_desk():
    rep = check_envelope_log(2_000_000, q=1)
    assert rep.passed, rep.summary_line()
    rep2 = check_envelope_log(2_000_000, q=2)
    assert rep2.passed, rep2.summary_line()


def test_envelope_coprime_desk():
    rep = check_envelope_coprime(d_limit=60, y_limit=4000)
    assert rep.passed, rep.summary_line()
    # envelope evaluates through the multiplicative g factors
    assert envelope_coprime(6, 100.0) == pytest.approx(
        g0_factor(6) * math.sqrt(2 / 100.0))
