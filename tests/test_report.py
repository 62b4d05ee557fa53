"""BoundReport.held_to, the one rule that decides a capped check: value <=
cap exactly, failing on a NaN; the checks' equality points on their caps; the
checks that refuse an empty domain; and the reports built by held_to that no
other test pins.

The digests are sha256 of repr(report), details included, taken from the
hand-built reports that held_to replaced; the first 16 hex digits are
pinned.
"""

import hashlib
import math

import numpy as np
import pytest

from mulcm import assembly, cli, gstar, mertens, products, sigma
from mulcm.numutil import _RunningMax
from mulcm.report import BoundReport


def _digest(report) -> str:
    return hashlib.sha256(repr(report).encode()).hexdigest()[:16]


PINNED = {
    "gstar-contract": ("e3d0c9869a9c4c13",
                       lambda: gstar.check_gstar_contract(x_set=(100, 1000, 10_000))),
    "gstar-difference": ("f0abfbbe7c87bace", lambda: gstar.check_gstar_difference(
        pairs=((2000, 1000), (5000, 2500)))),
    "aux-k": ("ab0e699653167347", lambda: gstar.check_aux_k(K_max=20.0)),
    "g-mean": ("f7659c99860fa459", lambda: gstar.check_g_mean(20_000)),
    "averaged-divisor": ("aa3d8b310d5011b9", lambda: gstar.check_averaged_divisor_identity(
        (10, 100), tail_limit=2000)),
    "cq-forms": ("4f9b857549c3fa36", products.check_cq_forms),
    "le1": ("e3def13f30699d37", assembly.le1_verify),
    "le2": ("d41c521a3edeee33", assembly.le2_verify),
    "tail-desk": ("dfabc2bb219b7652", lambda: assembly.tail_desk_check(20_000)),
    "major1starter": ("db69bf9fea862eda", lambda: cli._major1starter(20_000)),
}

SCAN_PINNED = {
    "nonnegative": "3d176c29c5ad03c2",
    "cap_0445": "0cbeb0eb940cc1b9",
    "cap_19_30": "29d60708a83853fc",
    "bump_above_044455": "d95557131fea2775",
    "floor_0437": "a823ddc2e1af7f61",
    "float_drift": "27626e86c0ed73c6",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_capped_reports_pinned(name):
    digest, call = PINNED[name]
    assert _digest(call()) == digest


def test_scan_reports_pinned():
    reports = sigma.scan_report(20_000)
    assert {k: _digest(r) for k, r in reports.items()} == SCAN_PINNED


def test_held_to_passes_at_cap_and_fails_an_ulp_above():
    for cap in (1.0, 0.445, 19.0 / 30.0):
        assert BoundReport.held_to("c", "d", _RunningMax(cap, 7), {}, cap).passed is True, cap
        above = _RunningMax(math.nextafter(cap, math.inf), 7)
        assert BoundReport.held_to("c", "d", above, {}, cap).passed is False, cap
    rep = BoundReport.held_to("c", "d", _RunningMax(math.nan, 7), {})
    assert rep.passed is False and rep.worst_arg == 7


def test_equality_points_sit_exactly_on_their_caps():
    # With no allowance these pass only because the float equals the cap.
    one = (1.0).hex()
    for q, at in ((1, 1), (2, 2)):  # |m_q(n)| sqrt(n + 1) = sqrt(c) at n = at
        rep = mertens.check_envelope_sqrt(1000, q=q)
        assert (rep.worst_ratio.hex(), rep.worst_arg, rep.passed) == (one, at, True), q
    rep = gstar.init_bound_check(2000)  # the identity 1 = A + (1 - A) at X = 1
    assert (rep.worst_ratio.hex(), rep.worst_arg, rep.passed) == (one, 1, True)
    scan = sigma.sigma_scan(10)
    assert scan.values[5].hex() == (19.0 / 30.0).hex() == sigma.SCAN_CAP.hex()
    assert sigma.scan_report(10, scan=scan)["cap_19_30"].passed is True


def test_a_nan_fails_the_envelope_sweep_at_its_argument(monkeypatch):
    real = mertens._coprime_cum

    def with_nan(limit, q, start=1):
        for lo, cum in real(limit, q, start):
            if lo <= 1234 < lo + cum.size:
                cum = cum.copy()
                cum[1234 - lo] = math.nan
            yield lo, cum

    monkeypatch.setattr(mertens, "_coprime_cum", with_nan)
    rep = mertens.check_envelope_sqrt(2000, q=1)
    assert rep.passed is False and math.isnan(rep.worst_ratio) and rep.worst_arg == 1234


def test_a_nan_fails_the_r1_scan_at_its_argument(monkeypatch):
    # The NaN of a later q wins over the finite maxima of earlier q and forms.
    real = gstar._q_weights

    def with_nan(w, q, lo, hi, signed):
        out = real(w, q, lo, hi, signed)
        if q == 6 and lo <= 1500 < hi:
            out[1500 - lo] = math.nan
        return out

    monkeypatch.setattr(gstar, "_q_weights", with_nan)
    rep = gstar.scan_majorstar(2000)
    assert rep.passed is False and math.isnan(rep.worst_ratio) and rep.worst_arg == (6, 1500)


@pytest.mark.parametrize("call", [
    lambda: mertens.check_envelope_coprime(0, 0),
    lambda: gstar.check_majorstar2(q_set=(), X_max=2000),
    lambda: gstar.scan_majorstar(2000, q_set=()),
    lambda: gstar.check_g_mean(2000, q_set=()),
    lambda: gstar.check_gstar_contract(q_set=(), x_set=(100,)),
    lambda: gstar.moebius_square_table_check(rows=(), X_max=2000),
], ids=["coprime-envelope", "majorstar2", "majorstar", "g-mean", "gstar-contract", "msq"])
def test_an_empty_domain_is_refused(call):
    with pytest.raises(ValueError, match="empty domain"):
        call()


def test_held_to_ratio_arg_and_bound():
    value = 0.75
    rep = BoundReport.held_to("c", "d", _RunningMax(value, (2, 3)), {"k": 1})
    assert rep.worst_ratio == value and rep.worst_ratio.hex() == value.hex()
    assert (rep.worst_arg, rep.bound, rep.details) == ((2, 3), 1.0, {"k": 1})
    rep = BoundReport.held_to("c", "d", _RunningMax(value), {}, cap=0.5)
    assert (rep.worst_ratio, rep.bound, rep.passed) == (1.5, 0.5, False)
    assert BoundReport.held_to("c", "d", _RunningMax(value), {}, bound=2.0).bound == 2.0


def test_held_to_passed_is_a_python_bool():
    for v in (np.float64(0.5), np.float64(2.0), 0.5):
        rep = BoundReport.held_to("c", "d", _RunningMax(v), {})
        assert type(rep.passed) is bool
        assert f"passed={v <= 1.0}," in repr(rep)
