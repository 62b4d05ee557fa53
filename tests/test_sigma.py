import csv
import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mulcm import sieve, sigma
from mulcm.mertens import m_q, m_q_exact
from mulcm.numutil import BudgetError
from mulcm.sieve import factorize, sieve_range
from mulcm.sigma import (
    check_landau,
    drift_report,
    landau_coprime_m,
    landau_smooth_expansion,
    scan_report,
    sigma_bruteforce,
    sigma_coprime_trace,
    sigma_pairs_trace,
    sigma_scan,
    sigma_trace_exact,
    sigma_via_gstar_identity,
)

# Exact values of S(1..8) from the definition.
FIRST_EIGHT = [Fraction(1), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2),
               Fraction(19, 30), Fraction(2, 5), Fraction(53, 105),
               Fraction(53, 105)]


def test_first_eight_exact():
    assert sigma_trace_exact(8) == FIRST_EIGHT
    for X in range(1, 9):
        assert sigma_bruteforce(X) == FIRST_EIGHT[X - 1]


def test_bruteforce_methods_agree():
    for X in (10, 30, 75):
        assert sigma_bruteforce(X, method="pairs") == \
            sigma_bruteforce(X, method="gcd")


def test_identity_route_small():
    # X = 2: (1/2)^2 + (1/4) * 1 = 1/2.
    assert sigma_via_gstar_identity(2) == pytest.approx(0.5, abs=1e-14)
    for X in (1, 4, 10, 50):
        assert sigma_via_gstar_identity(X) == pytest.approx(
            float(sigma_bruteforce(X)), abs=1e-12)


def test_three_routes_agree_at_desk():
    X = 600
    pairs = sigma_pairs_trace(X)
    coprime = sigma_coprime_trace(X)
    scan = sigma_scan(X).values
    assert np.max(np.abs(pairs - coprime)) < 1e-12
    assert np.max(np.abs(pairs - scan[1:])) < 1e-12
    exact = sigma_trace_exact(60)
    for d in range(1, 61):
        assert pairs[d - 1] == pytest.approx(float(exact[d - 1]), abs=1e-13)


def test_frozen_probe_values():
    scan = sigma_scan(1400)
    assert scan.values[757] == pytest.approx(0.445309230257814, abs=1e-12)
    assert scan.values[1321] == pytest.approx(0.444557, abs=5e-7)
    assert scan.values[5] == pytest.approx(19.0 / 30.0, abs=1e-15)


@given(st.integers(min_value=2, max_value=1200))
@settings(max_examples=60, deadline=None)
def test_sigma_constant_on_nonsquarefree_steps(d):
    if any(e > 1 for _, e in factorize(d)):
        scan = _cached_scan()
        assert scan.values[d] == scan.values[d - 1]


_SCAN = None


def _cached_scan():
    global _SCAN
    if _SCAN is None:
        _SCAN = sigma_scan(1200)
    return _SCAN


def test_landau_is_m_d_at_strict_cutoff():
    for d in range(1, 51):
        for y in (0.5, 1, 1.5, 2, 3, 10, 10.2, 100, 1000):
            cut = math.ceil(y) - 1
            got = landau_coprime_m(d, y, exact=False)
            assert got == m_q(cut, d), (d, y)
            exact = landau_coprime_m(d, y, exact=True)
            assert exact == m_q_exact(cut, d), (d, y)
            assert got == pytest.approx(float(exact), abs=1e-12)


def test_landau_formula_exact():
    rep = check_landau(d_max=20, y_values=(2, 3, 10, 100))
    assert rep.passed, rep.summary_line()
    # spot value: d = 2, strict cutoff y = 4 sums d' in {1, 3}
    direct = landau_coprime_m(2, 4, exact=True)
    assert direct == Fraction(1) - Fraction(1, 3)
    assert landau_smooth_expansion(2, 4) == direct


def test_scan_report_known_pattern():
    reports = scan_report(2000)
    assert reports["nonnegative"].passed
    assert reports["cap_19_30"].passed
    assert not reports["cap_0445"].passed  # S(757) exceeds 0.445
    assert reports["cap_0445"].worst_arg == 757
    assert reports["bump_above_044455"].passed
    assert reports["bump_above_044455"].worst_arg == 1321
    assert reports["floor_0437"].passed
    assert reports["float_drift"].passed


def test_checkpoint_roundtrip(tmp_path):
    path = str(tmp_path / "scan.csv")
    first = sigma_scan(1500, checkpoint_path=path, checkpoint_every=500)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["d", "sigma", "running_max_arg", "running_max"]
    assert [r[0] for r in rows[1:]] == ["500", "1000", "1500"]
    # values stored at full precision
    assert float(rows[1][1]) == first.values[500]

    resumed = sigma_scan(2500, checkpoint_path=path, resume=True)
    assert resumed.resumed_from == 1500
    full = sigma_scan(2500)
    tail_dev = np.max(np.abs(resumed.values[1501:] - full.values[1501:]))
    assert tail_dev < 1e-12
    assert resumed.running_max == pytest.approx(full.running_max, abs=1e-12)
    assert resumed.running_max_arg == full.running_max_arg == 5


def _running_max_by_loop(values, d_from, X_max, every, run_max, run_arg):
    """Checkpoint rows and the final running max by one Python step per d."""
    rows = []
    for d in range(max(2, d_from), X_max + 1):
        v = float(values[d])
        if v > run_max:
            run_max, run_arg = v, d
        if d % every == 0 or d == X_max:
            rows.append([d, repr(float(values[d])), run_arg, repr(run_max)])
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode(), run_max, run_arg


@pytest.mark.parametrize("every", [1, 7, 500])
def test_running_max_matches_per_d_loop(tmp_path, every):
    # 2003 is a multiple of none of the row spacings but 1; S(d) repeats at
    # every non-squarefree d, so ties between equal values are exercised.
    half, X = 1000, 2003
    path = tmp_path / "scan.csv"
    first = sigma_scan(half, checkpoint_path=str(path), checkpoint_every=every)
    rows, mx, arg = _running_max_by_loop(first.values, 1, half, every, -math.inf, 0)
    header = b"d,sigma,running_max_arg,running_max\r\n"
    assert path.read_bytes() == header + rows
    assert (first.running_max, first.running_max_arg) == (mx, arg)

    before = path.read_bytes()
    resumed = sigma_scan(X, checkpoint_path=str(path), checkpoint_every=every, resume=True)
    rows, mx, arg = _running_max_by_loop(resumed.values, half + 1, X, every, mx, arg)
    assert path.read_bytes() == before + rows
    assert (resumed.running_max, resumed.running_max_arg) == (mx, arg)

    plain = sigma_scan(X)
    _, mx, arg = _running_max_by_loop(plain.values, 1, X, X, -math.inf, 0)
    assert (plain.running_max, plain.running_max_arg) == (mx, arg)


def test_running_max_ties_keep_first_record():
    seg = np.array([0.5, 0.7, 0.7, 0.6, 0.9, 0.9, 0.2])
    rows = np.arange(seg.size)
    maxes, args = sigma._running_max(seg, 10, 0.7, 3, rows)
    assert maxes.tolist() == [0.7, 0.7, 0.7, 0.7, 0.9, 0.9, 0.9]
    assert args.tolist() == [3, 3, 3, 3, 14, 14, 14]
    maxes, args = sigma._running_max(seg, 10, -math.inf, 0, rows[[0, 2, 6]])
    assert maxes.tolist() == [0.5, 0.7, 0.9]
    assert args.tolist() == [10, 11, 14]


def test_interrupted_checkpoint_write_keeps_old_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "scan.csv"
    sigma_scan(1500, checkpoint_path=str(path), checkpoint_every=500)
    before = path.read_bytes()
    clean = tmp_path / "clean.csv"
    clean.write_bytes(before)
    real_writer = csv.writer

    class FailingWriter:
        """Writes the first row, then fails as a full disk would."""

        def __init__(self, fh):
            self.inner, self.rows = real_writer(fh), 0

        def writerow(self, row):
            if self.rows == 1:
                raise OSError("no space left on device")
            self.rows += 1
            self.inner.writerow(row)

    monkeypatch.setattr(sigma.csv, "writer", FailingWriter)
    with pytest.raises(OSError):
        sigma_scan(2500, checkpoint_path=str(path), checkpoint_every=500, resume=True)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert not (tmp_path / "scan.csv.tmp").exists()

    resumed = sigma_scan(2500, checkpoint_path=str(path), checkpoint_every=500, resume=True)
    uninterrupted = sigma_scan(2500, checkpoint_path=str(clean), checkpoint_every=500,
                               resume=True)
    assert resumed.values[2500] == uninterrupted.values[2500]
    assert resumed.running_max == uninterrupted.running_max
    assert resumed.running_max_arg == uninterrupted.running_max_arg
    assert path.read_bytes() == clean.read_bytes()
    full = sigma_scan(2500)
    assert resumed.values[2500] == pytest.approx(full.values[2500], abs=1e-12)
    assert resumed.running_max == full.running_max
    assert resumed.running_max_arg == full.running_max_arg


def test_resumed_window_refuses_unknown_prefix(tmp_path):
    path = str(tmp_path / "scan.csv")
    sigma_scan(1000, checkpoint_path=path, checkpoint_every=500)
    resumed = sigma_scan(2000, checkpoint_path=path, resume=True)
    with pytest.raises(ValueError):
        resumed.window_extrema(500, 2000)
    w = resumed.window_extrema(1001, 2000)
    assert 1001 <= w["argmax"] <= 2000


def test_malformed_checkpoint_rejected(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nonsense,header\n1,2\n")
    with pytest.raises(ValueError):
        sigma_scan(100, checkpoint_path=str(bad), resume=True)
    empty = tmp_path / "empty.csv"
    empty.write_text("d,sigma,running_max_arg,running_max\n")
    with pytest.raises(ValueError):
        sigma_scan(100, checkpoint_path=str(empty), resume=True)
    with pytest.raises(ValueError):
        sigma_scan(100, checkpoint_path=str(tmp_path / "new.csv"), checkpoint_every=0)


def _trace_by_fractions(X):
    """[S(1), ..., S(X)] by the divisor recursion in Fraction arithmetic,
    one rational add per divisor, from a fresh sieve."""
    block = sieve_range(1, X)
    U = {}
    out = []
    total = Fraction(0)
    for d in range(1, X + 1):
        mu_d = int(block.mu[d - 1])
        if mu_d != 0:
            divs = block.divisors(d)
            W = Fraction(0)
            for e in divs:
                if e in U:
                    W += int(block.phi[e - 1]) * U[e]
            total += Fraction(1, d) + Fraction(2 * mu_d, d) * W
            for e in divs:
                U[e] = U.get(e, Fraction(0)) + Fraction(mu_d, d)
        out.append(total)
    return out


def test_trace_numerators_match_fraction_recursion():
    exact = _trace_by_fractions(800)
    for X in (1, 2, 3, 30, 210, 800):
        L, nums = sigma._trace_numerators(X)
        nums = list(nums)
        want = exact[:X]
        assert L == math.prod(p for p in range(2, X + 1) if factorize(p) == [(p, 1)])
        assert [Fraction(n, L) for n in nums] == want, X
        assert [n / L for n in nums] == [float(f) for f in want], X
        assert sigma_trace_exact(X) == want, X


def test_trace_numerators_pin_the_equality_case():
    # S(5) = 19/30 exactly, and S(d) < 19/30 at every other d in [2, 5000];
    # the 19/30 cap holds with equality, so no float can decide it.
    L, nums = sigma._trace_numerators(5000)
    nums = list(nums)
    assert min(nums) >= 0
    at_or_above = [d for d, n in enumerate(nums, start=1)
                   if d >= 2 and 30 * n >= 19 * L]
    assert at_or_above == [5]
    assert 30 * nums[4] == 19 * L


@pytest.mark.parametrize("p", [2, 3, 5, 7, 47])
def test_trace_numerators_refuse_a_wrong_primorial(monkeypatch, p):
    real = sigma.primes_upto
    monkeypatch.setattr(sigma, "primes_upto", lambda n: real(n)[real(n) != p])
    L, nums = sigma._trace_numerators(50)
    assert L % p != 0
    got = []
    with pytest.raises(ArithmeticError):
        for n in nums:
            got.append(n)
    assert len(got) == p - 1  # raised at d = p, the first d that p divides


def test_drift_report_tight():
    scan = sigma_scan(3000)
    exact = _trace_by_fractions(3000)
    for shadow_to in (3000, 1000):
        dev = max(abs(float(scan.values[d]) - float(exact[d - 1]))
                  for d in range(1, shadow_to + 1))
        rep = drift_report(scan, shadow_to=shadow_to)
        assert rep.passed
        assert rep.details == {"max_deviation": dev,
                               "extrapolated": dev * (3000 / shadow_to)}
        assert rep.details["max_deviation"] < 1e-13


def test_scan_report_builds_no_fraction(monkeypatch):
    count = 0

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            nonlocal count
            count += 1
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(sigma, "Fraction", CountingFraction)
    sigma.sigma_trace_exact(5)
    assert count == 5  # the counter sees the module's constructions
    count = 0
    reports = scan_report(20000)
    assert count == 0
    assert reports["float_drift"].passed


def test_scan_report_leaves_out_windows_past_x_max():
    full = ["nonnegative", "cap_0445", "cap_19_30", "bump_above_044455",
            "floor_0437", "float_drift"]
    for X, keys in ((1, ["nonnegative", "float_drift"]),
                    (400, ["nonnegative", "cap_19_30", "float_drift"]),
                    (1000, ["nonnegative", "cap_0445", "cap_19_30",
                            "floor_0437", "float_drift"]),
                    (1300, full), (1350, full)):
        assert list(scan_report(X)) == keys, X
    assert scan_report(1320)["bump_above_044455"].domain == "d in [1300, 1320]"
    assert scan_report(2000)["bump_above_044455"].domain == "d in [1300, 1350]"
    reports = scan_report(1000)
    assert not reports["cap_0445"].passed
    assert reports["cap_0445"].worst_arg == 757


def _pairs_by_gcd_rows(X):
    """The pairs oracle with each row's gcds from np.gcd."""
    mu = sieve_range(1, X).mu
    out = np.zeros(X, dtype=np.float64)
    total = 1.0
    out[0] = 1.0
    idx_all = np.arange(1, X + 1, dtype=np.int64)
    muf = mu.astype(np.float64)
    for d in range(2, X + 1):
        if mu[d - 1] != 0:
            prior = idx_all[: d - 1]
            g = np.gcd(prior, d)
            row = muf[: d - 1] * g / (prior.astype(np.float64) * d)
            total += 1.0 / d + 2.0 * float(mu[d - 1]) * float(np.sum(row))
        out[d - 1] = total
    return out


def test_pairs_trace_matches_np_gcd_rows():
    for X in (1, 2, 3, 30, 600):
        assert np.array_equal(sigma_pairs_trace(X), _pairs_by_gcd_rows(X)), X


def test_gcd_row_matches_np_gcd():
    n = np.arange(1, 3001, dtype=np.int64)
    buf = np.empty(3000, dtype=np.int64)
    for d in range(1, 3001):
        factors = factorize(d)
        if all(e == 1 for _, e in factors):
            got = sigma._gcd_row(buf, [p for p, _ in factors])
            assert np.array_equal(got, np.gcd(n, d)), d


def _increments_by_pair_loop(X, d_from):
    """The scan increments by one Python add per (k, d) pair, k ascending,
    from a fresh sieve and trial-division radicals."""
    mu = sieve_range(1, X).mu
    M = np.zeros(X + 1)
    M[1:] = np.cumsum(mu.astype(np.float64) / np.arange(1, X + 1, dtype=np.float64))
    inner = np.zeros(X + 1)
    for k in range(1, X):
        R, cnum = 1, 1.0
        for p, _ in factorize(k):
            R *= p
            cnum *= 1.0 - p
        w = cnum / k
        for d in range((max(k, d_from - 1) // R + 1) * R, X + 1, R):
            inner[d] += w * M[(d - 1) // k]
    inc = np.zeros(X + 1)
    dd = np.arange(1, X + 1, dtype=np.float64)
    muf = mu.astype(np.float64)
    inc[1:] = (muf * muf) / dd + 2.0 * muf / dd * inner[1:]
    inc[: d_from] = 0.0
    return inc


@pytest.mark.parametrize("chunk", [1, 7, sigma._SCAN_CHUNK])
def test_scan_increments_match_pair_loop(monkeypatch, chunk):
    # Chunks of 1 and 7 pairs put chunk boundaries inside the runs of d of
    # most k; the chunked scatter-add must still sum each d in k order.
    monkeypatch.setattr(sigma, "_SCAN_CHUNK", chunk)
    for X in (1, 2, 3, 997, 5000):
        for d_from in sorted({1, 2, X // 2, X} - {0}):
            got = sigma._scan_increments(X, d_from)
            want = _increments_by_pair_loop(X, d_from)
            assert got.shape == want.shape == (X + 1,)
            assert (got == want).all(), (X, d_from, chunk)


def test_scan_memory_within_declared_budget(monkeypatch):
    X = 200_000
    # The scan reads mu and m(t) from the arithmetic table; build both to
    # exactly X first, so the trace holds the scan's own arrays whatever ran
    # before.
    monkeypatch.setattr(sieve, "_table_block", None)
    monkeypatch.setattr(sieve, "_table_cum", None)
    sieve._mertens_cum(X)
    declared = sigma._scan_bytes(X)
    monkeypatch.setenv("MULCM_MEMORY_BUDGET", str(declared))
    tracemalloc.start()
    try:
        sigma_scan(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= declared, (peak, declared)


def test_scan_refused_one_byte_below_declared(monkeypatch):
    X = 200_000
    monkeypatch.setenv("MULCM_MEMORY_BUDGET", str(sigma._scan_bytes(X) - 1))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            sigma_scan(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # refused before any array over d exists
