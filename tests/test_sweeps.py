"""The blocked sweeps of the table checks: the same reports at every block
size, and memory that does not grow with a sweep's range beyond what it keeps.

The digests are sha256 of repr(report), details included, taken from the
whole-array sweeps these blocked ones replaced; the first 16 hex digits are
pinned.
"""

import hashlib
import inspect
import tracemalloc

import numpy as np
import pytest

from mulcm import gstar, mertens, numutil, products, sieve
from mulcm.mertens import M2_PARAMS, M_PARAMS
from mulcm.sieve import primes_upto

KEYS = ("g0^2", "g0*g1", "g1^2")
DEFAULT = numutil._SWEEP_BLOCK


def _n_checks(N: int) -> dict:
    """The sweeps over n = 0..N that the `tables` benchmark runs at N."""
    calls = {
        "sqrt-q1": lambda: mertens.check_envelope_sqrt(N, 1),
        "sqrt-q2": lambda: mertens.check_envelope_sqrt(N, 2),
        "msq": lambda: gstar.moebius_square_table_check(X_max=N),
    }
    if N >= M2_PARAMS.log_from:
        calls["log-q2"] = lambda: mertens.check_envelope_log(N, 2)
    if N >= M_PARAMS.log_from:
        calls["log-q1"] = lambda: mertens.check_envelope_log(N, 1)
    for key in KEYS:
        calls[f"aux-asymptotic({key})"] = lambda key=key: products.aux_asymptotic_check(key, N)
    return {f"{name}@{N}": call for name, call in calls.items()}


def _d_checks(D: int) -> dict:
    """The sweeps the `tables` benchmark runs at D."""
    calls = {
        "init": lambda: gstar.init_bound_check(D),
        "majorstar": lambda: gstar.scan_majorstar(D),
    }
    for key in KEYS:
        calls[f"aux-ratio({key})"] = lambda key=key: products.aux_ratio_scan(key, D)
    return {f"{name}@{D}": call for name, call in calls.items()}


def _msq_rows(B: int) -> dict:
    """Rows whose X0 sits at B - 1, B and B + 1, the first block boundary."""
    rows = tuple((X0, 0.5) for X0 in (B - 1, B, B + 1))
    return {f"msq-rows@{B}": lambda: gstar.moebius_square_table_check(rows, X_max=B + 5)}


def _small(d_limit: int, limit: int) -> dict:
    return {
        f"coprime-envelope@{d_limit},{limit}":
            lambda: mertens.check_envelope_coprime(d_limit, limit),
        f"majorstar2@{limit}": lambda: gstar.check_majorstar2(X_max=limit),
    }


def _defaults() -> dict:
    return {"coprime-envelope": mertens.check_envelope_coprime,
            "majorstar2": gstar.check_majorstar2}


def _cases(block: int) -> dict:
    """name -> report call for the sweeps run at one block size."""
    cases = _msq_rows(block)
    if block == 1:
        return {**cases, **_n_checks(2000), **_d_checks(2000), **_small(10, 500)}
    if block == 7:
        return {**cases, **_n_checks(6000), **_d_checks(6000), **_small(30, 2000),
                **{k: v for k, v in _n_checks(463_421).items() if k.startswith("log-q1")}}
    for n in (65_535, 65_536, 65_537):
        cases.update(_n_checks(n))
        cases.update(_d_checks(n))
    if block == DEFAULT:
        for n in (2_000_000, 463_421):
            cases.update(_n_checks(n))
        cases.update(_d_checks(1_000_000))
    return {**cases, **_defaults()}


PINNED = {
    "aux-asymptotic(g0*g1)@2000": "dc3dd05f1c48c5d9",
    "aux-asymptotic(g0*g1)@2000000": "3f989a1a2170095c",
    "aux-asymptotic(g0*g1)@463421": "03be8d27b26996c6",
    "aux-asymptotic(g0*g1)@6000": "2605f0835e3a766c",
    "aux-asymptotic(g0*g1)@65535": "ff003d806256acaa",
    "aux-asymptotic(g0*g1)@65536": "4554e6091486bd40",
    "aux-asymptotic(g0*g1)@65537": "14f3753721fa08a4",
    "aux-asymptotic(g0^2)@2000": "19a6dd13187883f1",
    "aux-asymptotic(g0^2)@2000000": "dfd2c3dc6e39dba9",
    "aux-asymptotic(g0^2)@463421": "b90a514633994236",
    "aux-asymptotic(g0^2)@6000": "e63a7b438677b1c4",
    "aux-asymptotic(g0^2)@65535": "caaf9cb85d911d82",
    "aux-asymptotic(g0^2)@65536": "4cabac12604c0eaf",
    "aux-asymptotic(g0^2)@65537": "a58b728287d8f0d7",
    "aux-asymptotic(g1^2)@2000": "5fd54e7d514a4574",
    "aux-asymptotic(g1^2)@2000000": "e5cb20cc0df5c8b8",
    "aux-asymptotic(g1^2)@463421": "e8bf3b51cd48b4c8",
    "aux-asymptotic(g1^2)@6000": "c9fb64cca6207579",
    "aux-asymptotic(g1^2)@65535": "72ea688723cb5943",
    "aux-asymptotic(g1^2)@65536": "4053f594f894f5b3",
    "aux-asymptotic(g1^2)@65537": "ef4134ecbba1b21a",
    "aux-ratio(g0*g1)@1000000": "92c4d6e7dcd7451e",
    "aux-ratio(g0*g1)@2000": "93f12a4a9323edea",
    "aux-ratio(g0*g1)@6000": "17013b7af53ceced",
    "aux-ratio(g0*g1)@65535": "173f750b8e8b1f3d",
    "aux-ratio(g0*g1)@65536": "affefd481b9c4e1d",
    "aux-ratio(g0*g1)@65537": "264bf929b4dc1867",
    "aux-ratio(g0^2)@1000000": "ad2f7926067acb7c",
    "aux-ratio(g0^2)@2000": "37bf26cfd1f6f976",
    "aux-ratio(g0^2)@6000": "25aebc276e3f912d",
    "aux-ratio(g0^2)@65535": "685bf814cf75781b",
    "aux-ratio(g0^2)@65536": "8a25e0be15168998",
    "aux-ratio(g0^2)@65537": "9aeb6a45419bf142",
    "aux-ratio(g1^2)@1000000": "88dc0ade4495b26a",
    "aux-ratio(g1^2)@2000": "e6506824ac4628ed",
    "aux-ratio(g1^2)@6000": "09f28546e6650e40",
    "aux-ratio(g1^2)@65535": "1fcd31f504aa38ee",
    "aux-ratio(g1^2)@65536": "3eb132883eb49aa7",
    "aux-ratio(g1^2)@65537": "8a69816904acd458",
    "coprime-envelope": "cb329d2fe4941c3c",
    "coprime-envelope@10,500": "4cc3c08c4e17aadc",
    "coprime-envelope@30,2000": "7aa11693ab0894c6",
    "init@1000000": "947a04804f7eb290",
    "init@2000": "45bae633f3a610d2",
    "init@6000": "9f76f179643c54e3",
    "init@65535": "65a4ab770ff6612a",
    "init@65536": "02b066922a617378",
    "init@65537": "ca24bc36d57d334c",
    "log-q1@2000000": "66fdd659d4a01344",
    "log-q1@463421": "9651c137855ea62a",
    "log-q2@2000000": "9bf1141fcce0ef26",
    "log-q2@463421": "d74aed2a35bbef67",
    "log-q2@6000": "0121dc3dc365737d",
    "log-q2@65535": "e6b7d6f7da2e48a7",
    "log-q2@65536": "e0b76f1735e1e15c",
    "log-q2@65537": "d720a844e4ce6795",
    "majorstar2": "0e2ed2a400e2288d",
    "majorstar2@2000": "eecc9db55a384ecf",
    "majorstar2@500": "d08a100e84ec9647",
    "majorstar@1000000": "05d3882b4388eb25",
    "majorstar@2000": "444524d99d467059",
    "majorstar@6000": "cf7dc7316e35bfe4",
    "majorstar@65535": "03db29ffa00d8e81",
    "majorstar@65536": "6f22d30491e1143c",
    "majorstar@65537": "d600af1ab3d1a1e9",
    "msq-rows@1": "e82dad2d4f7ee6ea",
    "msq-rows@4096": "82749c3d0c93c62f",
    "msq-rows@65536": "78e5af150e383eac",
    "msq-rows@7": "a27d015287702717",
    "msq@2000": "f3bd27df2a0d05f1",
    "msq@2000000": "a08f49ad5cf3b88d",
    "msq@463421": "3aa148879e7e3b77",
    "msq@6000": "feb70546089cd310",
    "msq@65535": "b8c443631d6f47a4",
    "msq@65536": "353e603fee4d86a7",
    "msq@65537": "d9642b33859af25b",
    "sqrt-q1@2000": "6f6047fcb03ac193",
    "sqrt-q1@2000000": "d8b65fe3da17c776",
    "sqrt-q1@463421": "dd4a46158fb0a148",
    "sqrt-q1@6000": "7184fc3d19f20d2a",
    "sqrt-q1@65535": "b8732cf7d84b2dbe",
    "sqrt-q1@65536": "24a36789f1c6eb5e",
    "sqrt-q1@65537": "ac8c71d50d45fd28",
    "sqrt-q2@2000": "14ddcae7c74dae03",
    "sqrt-q2@2000000": "a2c687909d2c70eb",
    "sqrt-q2@463421": "aef3a608f704236b",
    "sqrt-q2@6000": "c3c156cbcec220d8",
    "sqrt-q2@65535": "ccbaf18b8a5bc43a",
    "sqrt-q2@65536": "7d1dd37205bf62b0",
    "sqrt-q2@65537": "605fd451e631984c",
}


def _digest(report) -> str:
    return hashlib.sha256(repr(report).encode()).hexdigest()[:16]


@pytest.mark.parametrize("block", [1, 7, 4096, DEFAULT])
def test_blocked_reports_match_the_whole_array_sweeps(monkeypatch, block):
    monkeypatch.setattr(numutil, "_SWEEP_BLOCK", block)
    got = {name: _digest(call()) for name, call in _cases(block).items()}
    assert got == {name: PINNED[name] for name in got}


def _pruned_cases(block: int) -> dict:
    """The cases whose sweeps skip blocks by _RunningMax.could_rise."""
    pruned = ("sqrt-q1", "sqrt-q2", "log-q1", "log-q2", "msq", "msq-rows", "majorstar")
    return {name: call for name, call in _cases(block).items()
            if name.split("@")[0] in pruned}


@pytest.mark.parametrize("block", [1, 7, 4096, DEFAULT])
def test_skipped_blocks_change_no_report(monkeypatch, block):
    monkeypatch.setattr(numutil, "_SWEEP_BLOCK", block)
    cases = _pruned_cases(block)
    pruned = {name: repr(call()) for name, call in cases.items()}
    monkeypatch.setattr(numutil._RunningMax, "could_rise", lambda self, bound: True)
    assert {name: repr(call()) for name, call in cases.items()} == pruned


def test_sqrt_envelope_feeds_only_its_first_block(monkeypatch):
    # |m(1)| sqrt(2) / sqrt(2) is exactly 1, and no later block's bound
    # |m|max sqrt(last x) / sqrt(2) reaches it.
    fed, feed = [], numutil._RunningMax.feed

    def counted(self, values, lo=0, tag=None):
        fed.append(lo)
        return feed(self, values, lo, tag)

    monkeypatch.setattr(numutil._RunningMax, "feed", counted)
    rep = mertens.check_envelope_sqrt(2_000_000, 1)
    assert fed == [1]
    assert (rep.worst_ratio, rep.worst_arg) == (1.0, 1)


@pytest.mark.parametrize("block", [1, DEFAULT])
def test_majorstar_bar_holds_no_later_q(monkeypatch, block):
    # Synthetic r1* jumps with j1* = j5* = 1: q = 2 reaches 1 / (2.18 sqrt 1)
    # at X = 1, and q = 1 the same float, 2 / (2.18 sqrt 4), at X = 4.  On
    # the tie the earlier q wins, so q = 1's block at X = 4 is fed although
    # q = 2's maximum already equals its bound.
    jumps = {1: {4: 2.0}, 2: {1: 1.0}}
    monkeypatch.setattr(numutil, "_SWEEP_BLOCK", block)
    monkeypatch.setattr(gstar, "_q_weights", lambda w, q, lo, hi, signed:
                        np.array([jumps[q].get(m, 0.0) for m in range(lo, hi)]))
    monkeypatch.setattr(gstar, "j1_star", lambda q: 1.0)
    monkeypatch.setattr(gstar, "j5_star", lambda q: 1.0)
    rep = gstar.scan_majorstar(8, q_set=(1, 2))
    for form, c in (("2.18", 2.18), ("1.17", 1.17)):
        assert rep.details[form] == {"worst_ratio": 1.0 / c, "worst_arg": (1, 4)}, form


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


N, D = 2_000_000, 1_000_000


@pytest.mark.parametrize("name, call", [
    ("sqrt-q1", lambda: mertens.check_envelope_sqrt(N, 1)),
    ("sqrt-q2", lambda: mertens.check_envelope_sqrt(N, 2)),
    ("log-q1", lambda: mertens.check_envelope_log(N, 1)),
    ("log-q2", lambda: mertens.check_envelope_log(N, 2)),
    ("msq", lambda: gstar.moebius_square_table_check(X_max=N)),
    ("init", lambda: gstar.init_bound_check(N)),
])
def test_pure_sweeps_hold_no_full_range_array(monkeypatch, name, call):
    # The table is kept by the process; a sweep adds only its blocks (a few
    # MiB at most), not 24-68 bytes per n, and builds no Mertens cumsum: the
    # q = 1 envelopes carry a running sum as q = 2 does.
    sieve._table(N)
    monkeypatch.setattr(sieve, "_table_cum", None)
    assert _traced_peak(call) <= 8 << 20, name
    assert sieve._table_cum is None, name


@pytest.mark.parametrize("check", [products.aux_ratio_scan, products.aux_asymptotic_check])
def test_aux_sweeps_keep_one_array(check):
    # The primes with f and the temporaries of G over them (at most 50 B per
    # prime), or a few blocks; no array over D.
    n_primes = len(primes_upto(N))
    assert _traced_peak(lambda: check("g0^2", N)) <= 50 * n_primes + 4 * 8 * DEFAULT


def _tables_checks(N: int, D: int) -> list:
    """The ten checks of the `tables` benchmark workload at sizes N and D."""
    return [
        lambda: mertens.check_envelope_sqrt(N, q=1),
        lambda: mertens.check_envelope_sqrt(N, q=2),
        lambda: mertens.check_envelope_log(N, q=1),
        lambda: mertens.check_envelope_log(N, q=2),
        lambda: gstar.moebius_square_table_check(X_max=N),
        lambda: products.aux_asymptotic_check("g0^2", N),
        lambda: products.aux_ratio_scan("g1^2", D),
        lambda: gstar.init_bound_check(D),
        lambda: gstar.scan_majorstar(D),
        mertens.check_envelope_coprime,
    ]


def test_tables_checks_keep_only_the_table(monkeypatch):
    # Once the table exists, the whole sequence adds no more than the
    # cube-free weight table of scan_majorstar (8 B per D) and a few MiB of
    # blocks and primes (scan_majorstar's envelope blocks take 4.6 MiB), and
    # it builds no Mertens cumsum.  N is the benchmark's tiny size, the
    # least at which the q = 1 log envelope runs.
    Nt, Dt = 500_000, 100_000
    sieve._table(Nt)
    monkeypatch.setattr(sieve, "_table_cum", None)
    assert _traced_peak(lambda: [check() for check in _tables_checks(Nt, Dt)]) \
        <= 8 * Dt + (6 << 20)
    assert sieve._table_cum is None


def test_majorstar_sweep_memory():
    # The q-free cube-free weight table (8 B per n), shared by every q, and
    # the blocks each q's r1* jumps are copied into and summed in.
    sieve._table(D)
    assert _traced_peak(lambda: gstar.scan_majorstar(D)) <= 16 * D


def test_majorstar2_sweep_memory():
    # The same weight table, and per block each q's signed weights over n.
    sieve._table(D)
    assert _traced_peak(lambda: gstar.check_majorstar2(X_max=D)) <= 16 * D


@pytest.mark.parametrize("func", [
    sieve._sieve_segment, gstar._cubefree_weights, gstar._q_weights,
    gstar.init_bound_check, mertens._coprime_cum,
])
def test_table_kernels_use_no_masked_writes(func):
    # A masked write (where= or np.where) costs several times a multiply by
    # the mask on these sweeps; each writes its masked entries by arithmetic.
    source = inspect.getsource(func)
    assert "where=" not in source and "np.where(" not in source, func.__name__
