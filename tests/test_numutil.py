import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mulcm.numutil import (
    BudgetError,
    NeumaierSum,
    adaptive_simpson,
    check_allocation,
    fsum_array,
    memory_budget_bytes,
    neumaier_sum,
    quad_checked,
    quad_log,
)


def test_fsum_array_equals_fsum_of_list():
    xs = np.array([1e16, 1.0, -1e16, 1.0, 0.5, -0.25] * 100) * np.linspace(1, 2, 600)
    assert fsum_array(xs) == math.fsum(xs.tolist())
    assert fsum_array(xs[::3]) == math.fsum(xs[::3].tolist())
    assert fsum_array(xs.astype(np.float32)) == math.fsum(xs.astype(np.float32).tolist())
    assert fsum_array(np.empty(0)) == 0.0


def test_neumaier_matches_fsum_on_cancelling_terms():
    xs = [1e16, 1.0, -1e16, 1.0, 0.5, -0.25] * 100
    assert neumaier_sum(xs) == math.fsum(xs)


def test_neumaier_incremental_extend():
    s = NeumaierSum()
    s.add(1e100)
    s.extend([1.0, -1e100])
    assert s.total() == 1.0


@given(st.lists(st.floats(min_value=-1e12, max_value=1e12,
                          allow_nan=False, allow_infinity=False),
                max_size=200))
@settings(max_examples=200, deadline=None)
def test_neumaier_property_matches_fsum(xs):
    assert neumaier_sum(xs) == pytest.approx(math.fsum(xs), rel=1e-15, abs=1e-300)


def test_simpson_polynomial_exact():
    # Simpson is exact on cubics, so the adaptive error estimate is ~0.
    val, err = adaptive_simpson(lambda t: t ** 3 - 2 * t, 0.0, 2.0, tol=1e-12)
    assert val == pytest.approx(0.0, abs=1e-12)
    assert err <= 1e-12


def test_simpson_known_integral():
    val, err = adaptive_simpson(math.exp, 0.0, 1.0, tol=1e-12)
    assert val == pytest.approx(math.e - 1.0, abs=1e-10)


def test_quad_log_power_integrand():
    # int_1^inf-like: int_a^b t^-2 dt = 1/a - 1/b over a wide range.
    val, err = quad_log(lambda t: t ** -2, 1.0, 1e8, tol=1e-13)
    assert val == pytest.approx(1.0 - 1e-8, rel=1e-10)


def test_quad_checked_agreement_and_failure():
    val, err = quad_checked(lambda t: 1.0 / t, 1.0, math.e, tol=1e-12)
    assert val == pytest.approx(1.0, rel=1e-9)
    # A tolerance far above the integral's size defeats the self-check.
    f = lambda t: (2.0 * math.log(t) - 1.0) / (t ** 1.5 * math.log(t) ** 2)
    with pytest.raises(ValueError):
        quad_checked(f, 1e12, 1e15, tol=1e-8)


def test_memory_budget_env(monkeypatch):
    monkeypatch.setenv("MULCM_MEMORY_BUDGET", "1000000")
    assert memory_budget_bytes() == 1_000_000
    with pytest.raises(BudgetError):
        check_allocation(2_000_000, "test block")
    check_allocation(500_000, "test block")
