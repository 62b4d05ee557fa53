import csv
import hashlib
import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mulcm import sieve, sigma
from mulcm.mertens import m_q_exact
from mulcm.numutil import BudgetError, _RunningMax
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
            assert landau_coprime_m(d, y) == m_q_exact(cut, d), (d, y)


def test_landau_formula_exact():
    rep = check_landau(d_max=20, y_values=(2, 3, 10, 100))
    assert rep.passed, rep.summary_line()
    # spot value: d = 2, strict cutoff y = 4 sums d' in {1, 3}
    direct = landau_coprime_m(2, 4)
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


def test_resumed_scan_equals_fresh_scan_bit_for_bit(tmp_path):
    # The resumed cumsum starts from the checkpointed S(d0), so every value
    # from d0 on is the fresh scan's sum in the fresh scan's order.  Adding
    # S(d0) after a cumsum from zero instead moves about 19 800 of the
    # 20 000 resumed values by a few ulps.
    path = str(tmp_path / "scan.csv")
    sigma_scan(20_000, checkpoint_path=path, checkpoint_every=20_000)
    resumed = sigma_scan(40_000, checkpoint_path=path, resume=True)
    fresh = sigma_scan(40_000)
    assert resumed.resumed_from == 20_000
    assert np.array_equal(resumed.values[20_000:], fresh.values[20_000:])
    assert (resumed.running_max, resumed.running_max_arg) == (
        fresh.running_max, fresh.running_max_arg)


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
    # The scan feeds one _RunningMax the values S(d) for d = 10, 11, ...
    # up to each checkpoint row in turn.
    seg = np.array([0.5, 0.7, 0.7, 0.6, 0.9, 0.9, 0.2])

    def rows(worst, ends):
        out, lo = [], 0
        for end in ends:
            worst.feed(seg[lo: end + 1], 10 + lo)
            out.append((worst.value, worst.arg))
            lo = end + 1
        return [list(col) for col in zip(*out)]

    maxes, args = rows(_RunningMax(0.7, 3), range(seg.size))
    assert maxes == [0.7, 0.7, 0.7, 0.7, 0.9, 0.9, 0.9]
    assert args == [3, 3, 3, 3, 14, 14, 14]
    maxes, args = rows(_RunningMax(-math.inf, 0), [0, 2, 6])
    assert maxes == [0.5, 0.7, 0.9]
    assert args == [10, 11, 14]


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


@pytest.mark.parametrize("rows", [
    ["-5,0.5,2,1.0"],                 # d < 2: would zero all but four values
    ["0,0.5,2,1.0"],                  # d < 2: a "resume" from nothing
    ["500,nan,2,1.0"],                # sigma not finite
    ["500,0.44,2,inf"],               # running max not finite
    ["500,0.44,900,0.5"],             # running max argument past d
    ["500,0.44,2,0.5", "500,0.44,2,0.5"],   # d repeated
    ["500,0.44,2,0.5", "400,0.44,2,0.5"],   # d decreasing
    ["500,0.44,2,0.43"],              # running max below sigma
    ["500,0.44,2,0.5", "600,0.44,2,0.49"],  # running max falls
    ["500,0.44,2,0.5", "600,0.44,3,0.5"],   # max unchanged, argument moved
    ["500,0.44,2,0.5", "600,0.52,400,0.52"],  # max rose, argument not past 500
], ids=["d-negative", "d-zero", "sigma-nan", "max-inf", "arg-past-d",
        "d-repeated", "d-decreasing", "max-below-sigma", "max-falls",
        "max-kept-arg-moved", "max-rose-arg-old"])
def test_impossible_checkpoint_rejected(tmp_path, rows):
    path = tmp_path / "scan.csv"
    path.write_text("\n".join(["d,sigma,running_max_arg,running_max", *rows]) + "\n")
    before = path.read_bytes()
    with pytest.raises(ValueError):
        sigma_scan(1000, checkpoint_path=str(path), resume=True)
    assert path.read_bytes() == before


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
            divs = [e for e in range(1, d + 1) if d % e == 0]
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


def _exact_floats(X):
    L, nums = sigma._trace_numerators(X)
    return [n / L for n in nums]


def _count_exact_routes(monkeypatch):
    calls = []
    real = sigma._trace_numerators
    monkeypatch.setattr(sigma, "_trace_numerators",
                        lambda X: calls.append(X) or real(X))
    return calls


def test_shadow_floats_equal_the_exact_floats(monkeypatch):
    exact = {X: _exact_floats(X) for X in (1, 2, 5, 10, 60, 2000, 5000)}
    calls = _count_exact_routes(monkeypatch)
    for X, want in exact.items():
        assert sigma._trace_floats(X).tolist() == want, X
    assert calls == []  # every d decided in fixed point


def test_shadow_falls_back_to_the_exact_route(monkeypatch):
    want = _exact_floats(2000)
    monkeypatch.setattr(sigma, "_SHADOW_BITS", 24)
    one = 1 << 24
    undecided = [d for d, T, E in sigma._fixed_point_trace(2000)
                 if (T - E) / one != (T + E) / one]
    assert 0 < len(undecided) < 2000
    calls = _count_exact_routes(monkeypatch)
    assert sigma._trace_floats(2000).tolist() == want
    assert calls == [2000]


def _fixed_point_by_trial_division(X, K):
    """(d, T_d, E_d) of the fixed-point trace from a fresh sieve, trial-
    division divisors and the bound as its docstring states it."""
    block = sieve_range(1, X)
    one = 1 << K
    U, adds = {}, {}
    T = E = 0
    out = []
    for d in range(1, X + 1):
        mu_d = int(block.mu[d - 1])
        if mu_d:
            divs = [e for e in range(1, d + 1) if d % e == 0]
            phi = [int(block.phi[e - 1]) for e in divs]
            W = sum(f * U.get(e, 0) for f, e in zip(phi, divs))
            eW = sum(f * adds.get(e, 0) for f, e in zip(phi, divs))
            T += one // d + 2 * mu_d * (W // d)
            E += 5 + 2 * (eW // d)
            for e in divs:
                U[e] = U.get(e, 0) + mu_d * (one // d)
                adds[e] = adds.get(e, 0) + 1
            out.append((d, T, E))
    return out


@pytest.mark.parametrize("bits", [16, 160])
def test_fixed_point_trace_is_the_stated_recursion(monkeypatch, bits):
    monkeypatch.setattr(sigma, "_SHADOW_BITS", bits)
    assert (list(sigma._fixed_point_trace(1000))
            == _fixed_point_by_trial_division(1000, bits))
    if bits == 160:
        # The radius the comment on _SHADOW_BITS states to 5000.
        assert list(sigma._fixed_point_trace(5000))[-1][2] == 23296


@pytest.mark.parametrize("bits", [8, 16, 24, 160])
def test_fixed_point_trace_holds_its_bound(monkeypatch, bits):
    monkeypatch.setattr(sigma, "_SHADOW_BITS", bits)
    L, nums = sigma._trace_numerators(1000)
    nums = list(nums)
    for d, T, E in sigma._fixed_point_trace(1000):
        assert abs(T * L - (nums[d - 1] << bits)) <= E * L, d


def test_drift_report_refuses_a_resumed_scan(tmp_path):
    path = str(tmp_path / "scan.csv")
    sigma_scan(1000, checkpoint_path=path)
    resumed = sigma_scan(2000, checkpoint_path=path, resume=True)
    for shadow_to in (5000, 1000, 500):
        with pytest.raises(ValueError, match="resume point 1000"):
            drift_report(resumed, shadow_to=shadow_to)


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


@pytest.mark.parametrize("trace, digest", [
    (sigma_pairs_trace, "546961f0ecddfd834e4ca522cd514433e9e5ff320b406910679d7cb545fc35c4"),
    (sigma_coprime_trace, "0a41f4dd16aaee31a1bf8ecbedf3c93a3c3d45bd91a485ad3ef7cf8235c06e8f"),
])
def test_oracle_traces_digest_pinned(trace, digest):
    # Taken while the oracles factored d from the table's smallest-prime-
    # factor array; the coprime trace adds floats in its divisor order.
    assert hashlib.sha256(trace(5000).tobytes()).hexdigest() == digest


def test_gcd_row_matches_np_gcd():
    n = np.arange(1, 3001, dtype=np.int64)
    for d in range(1, 3001):
        factors = factorize(d)
        if all(e == 1 for _, e in factors):
            got = sigma._gcd_row(np.ones(3000, dtype=np.int64), [p for p, _ in factors])
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
    # most k, and inside the strided blocks of every dense k; the kernel must
    # still sum each d in k order.  A threshold of 1 makes every k dense,
    # X + 1 makes none dense, and 3 interleaves both paths.  Chunks of one
    # pair stop at X = 997, where they already cross every run boundary; the
    # other chunks also run X = 5000, past the default threshold.
    monkeypatch.setattr(sigma, "_SCAN_CHUNK", chunk)
    for X in (1, 2, 3, 997) + ((5000,) if chunk > 1 else ()):
        for d_from in sorted({1, 2, X // 2, X} - {0}):
            want = _increments_by_pair_loop(X, d_from)
            for stride_min in (1, 3, sigma._SCAN_STRIDE_MIN, X + 1):
                monkeypatch.setattr(sigma, "_SCAN_STRIDE_MIN", stride_min)
                got = sigma._scan_increments(X, d_from)
                assert got.shape == want.shape == (X + 1,)
                assert (got == want).all(), (X, d_from, chunk, stride_min)


@pytest.mark.parametrize("d_from, digest", [
    (1, "9d21037c0e5a80471b7b8e0db1e5dd5f7e248a5aad4866d2b9b747e73494fe03"),
    (50_001, "e71a6d20f2e54cb91e0382ca40803972e3374edfca3add19319cffcb96955c4e"),
])
def test_scan_increments_digest_pinned(d_from, digest):
    # Taken from the kernel that scatter-added every (k, d) pair in one
    # ascending-k stream; the dense/sparse split must not move a bit.
    got = sigma._scan_increments(10**5, d_from)
    assert hashlib.sha256(got.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("d_from, digest", [
    (1, "4680fd575ce471e91f355b69d91fa2d0992c32b91b1bfe6b111d7a072f9e6385"),
    (123_457, "ec7acdb847a49812816f7c44ed93c6f788463ced7a88f097368852e16b1e6785"),
])
def test_scan_increments_digest_pinned_at_3e5(d_from, digest):
    # Taken from the kernel that walked every multiple of each radical, before
    # it left out the d that p^2 divides for p = 2, 3; past 2 * 10^5, where
    # more k are dense and the strides split by 3 reach further.
    got = sigma._scan_increments(3 * 10**5, d_from)
    assert hashlib.sha256(got.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("stride_min", [1, sigma._SCAN_STRIDE_MIN, 5001])
def test_scan_increments_vanish_at_non_squarefree_d(monkeypatch, stride_min):
    # inc[d] is mu(d) times terms the kernel may leave out at a d that is
    # not squarefree; it must still be +0.0 there, sign bit clear.
    monkeypatch.setattr(sigma, "_SCAN_STRIDE_MIN", stride_min)
    X = 5000
    sf = np.ones(X + 1, dtype=bool)
    sf[1:] = sieve_range(1, X).mu != 0
    for d_from in (1, 2, 9, 1000, 4321, X):
        inc = sigma._scan_increments(X, d_from)
        assert not inc[~sf].any() and not np.signbit(inc[~sf]).any(), d_from


def test_radical_and_coeffs_match_trial_division():
    # Primes above sqrt(X) go in batches per cofactor; each k must still get
    # the same radical and the same product, multiplied in ascending p.
    for X in (0, 1, 2, 3, 4, 48, 49, 50, 997, 3000):
        rad, cn = sigma._radical_and_coeffs(X)
        assert rad.shape == cn.shape == (X + 1,)
        for k in range(1, X + 1):
            R, c = 1, 1.0
            for p, _ in factorize(k):
                R *= p
                c *= 1.0 - p
            assert (int(rad[k]), float(cn[k])) == (R, c), (X, k)


def test_radical_and_coeffs_digest_pinned():
    # Taken from the pass that sigma ran itself, before both arrays came from
    # the shared prime-factor kernel in sieve.
    rad, cn = sigma._radical_and_coeffs(10**5)
    digest = hashlib.sha256(rad.tobytes() + cn.tobytes()).hexdigest()
    assert digest == "ac8a0d3f5677dfb891a77974d3cd863ce413010eaf12148677b9d51ad2672298"


@pytest.mark.parametrize("X, digest", [
    (1, "049021f7a1cb0c6942a6a99d19892b2cd5d38f4faeda74ac10a28dd79cf71663"),
    (2, "ffd6976b2d163d7927aefbfaa0d91ad3df3c213a26e69a9ca1c77718d252a8b4"),
    (65_537, "22ae76949ecabe6ac57d0df146a5cc3ba1d0a0c63c6bb8ea692ccf7097ee3071"),
    (10**6, "dd8f7a9b58da5518265ce95709e38b1b12cff8e6c1a5ad4f546f74ca2f005b4b"),
])
def test_radical_and_coeffs_blocked_digest_pinned(X, digest):
    # Taken from the whole-array kernel before the arrays were filled block
    # by block: one block, a block and one value, and many blocks.
    rad, cn = sigma._radical_and_coeffs(X)
    assert hashlib.sha256(rad.tobytes() + cn.tobytes()).hexdigest() == digest


def _scan_peak(monkeypatch, X: int) -> tuple[int, int]:
    """Traced peak of sigma_scan(X) under a budget of its declared bytes."""
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
    return peak, declared


def test_scan_memory_within_declared_budget(monkeypatch):
    peak, declared = _scan_peak(monkeypatch, 200_000)
    assert peak <= declared, (peak, declared)


def test_scan_memory_within_declared_budget_all_dense(monkeypatch):
    # Every k dense, so k = 1's stride covers all of d: the worst case per d,
    # which the declaration holds, not a loose ceiling.  With a chunk of 2^8
    # the traced peak is about 46.4 bytes per d at X = 50 000, reached while
    # k is walked, against 48 declared (the chunk adds 0.25 per d).  A stride
    # taken unblocked (16 bytes per d more) would break the budget.
    monkeypatch.setattr(sigma, "_SCAN_STRIDE_MIN", 1)
    monkeypatch.setattr(sigma, "_SCAN_CHUNK", 1 << 8)
    peak, declared = _scan_peak(monkeypatch, 50_000)
    assert 0.9 * declared <= peak <= declared, (peak, declared)


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
