"""The three benchmark workloads and the verdicts each one produces.

A workload is a list of groups of steps.  Groups are independent; the seed
shuffles their order, and steps inside a group keep theirs.  Each step calls
into mulcm through module attributes looked up at call time, so the traced
run's wrappers see every call.  Steps write outcomes, one per named check:
`passed` and `worst_arg` for a BoundReport, `value` (and `radius`) for a
headline number.  `finish` adds the checks that compare steps.

Sizes are fixed per profile so the expected-verdict table stays exact:
`full` is the benchmark, `tiny` is the smoke test's profile.
"""

from __future__ import annotations

import importlib
import os
import random

SIZES = {
    "full": {
        "scan": {"X": 100_000, "half": 50_000, "oracle": 5000},
        "tables": {"N": 2_000_000, "D": 1_000_000},
        "constants": {"cutoff": 10_000_000},
    },
    "tiny": {
        "scan": {"X": 20_000, "half": 10_000, "oracle": 1000},
        "tables": {"N": 500_000, "D": 100_000},
        "constants": {"cutoff": 100_000},
    },
}

class Layers:
    """Attribute access to `mulcm.<layer>` modules (the package attribute
    `mulcm.gstar` is the function, not the module)."""

    def __getattr__(self, name):
        return importlib.import_module(f"mulcm.{name}")


def verdict(rep) -> dict:
    return {"passed": bool(rep.passed), "worst_arg": jsonable(rep.worst_arg)}


def jsonable(x):
    if isinstance(x, (tuple, list)):
        return [jsonable(v) for v in x]
    if hasattr(x, "item"):  # numpy scalar
        return x.item()
    return x


def _scan(m, size, workdir, out):
    X, half, ox = size["X"], size["half"], size["oracle"]
    ckpt = os.path.join(workdir, "scan-checkpoint.csv")
    st = {}

    def fresh():
        st["fresh"] = m.sigma.sigma_scan(X)
        out["S(757)"] = {"value": float(st["fresh"].values[757])}

    def report():
        for rep in m.sigma.scan_report(X, scan=st["fresh"]).values():
            out[rep.name] = verdict(rep)

    def oracle():
        st["pairs"] = m.sigma.sigma_pairs_trace(ox)
        st["coprime"] = m.sigma.sigma_coprime_trace(ox)

    def checkpointed():
        if os.path.exists(ckpt):
            os.remove(ckpt)
        m.sigma.sigma_scan(half, checkpoint_path=ckpt)

    def resume():
        st["resumed"] = m.sigma.sigma_scan(X, checkpoint_path=ckpt, resume=True)

    def finish():
        if {"pairs", "coprime", "fresh"} <= st.keys():
            pairs = st["pairs"]
            dev1 = float(abs(pairs - st["coprime"]).max())
            dev2 = float(abs(pairs - st["fresh"].values[1: ox + 1]).max())
            out["oracle-equivalence"] = {"passed": dev1 <= 1e-10 and dev2 <= 1e-10}
        if {"fresh", "resumed"} <= st.keys():
            f, r = st["fresh"], st["resumed"]
            out["resume-running-max"] = {
                "passed": (r.running_max == f.running_max
                           and r.running_max_arg == f.running_max_arg),
                "worst_arg": int(r.running_max_arg)}
            out["resume-final-value"] = {
                "passed": abs(float(r.values[X]) - float(f.values[X])) <= 1e-12,
                "worst_arg": X}

    return [[fresh, report], [oracle], [checkpointed, resume]], finish


def _tables(m, size, workdir, out):
    N, D = size["N"], size["D"]

    def check(label, call):
        def step():
            rep = call()
            out[rep.name] = verdict(rep)
        step.__name__ = label
        return [step]

    def msq():
        rep = m.gstar.moebius_square_table_check(X_max=N)
        out[rep.name] = verdict(rep)
        for row in rep.details["rows"]:
            out[f"squarefree-count-row(X0={row['X0']})"] = {
                "passed": bool(row["passed"]), "worst_arg": jsonable(row["worst_arg"])}

    groups = [
        check("sqrt-q1", lambda: m.mertens.check_envelope_sqrt(N, q=1)),
        check("sqrt-q2", lambda: m.mertens.check_envelope_sqrt(N, q=2)),
        check("log-q1", lambda: m.mertens.check_envelope_log(N, q=1)),
        check("log-q2", lambda: m.mertens.check_envelope_log(N, q=2)),
        [msq],
        check("aux-asymptotic", lambda: m.products.aux_asymptotic_check("g0^2", N)),
        check("aux-ratio", lambda: m.products.aux_ratio_scan("g1^2", D)),
        check("init-bound", lambda: m.gstar.init_bound_check(D)),
        check("majorstar", lambda: m.gstar.scan_majorstar(D)),
        check("coprime-envelope", lambda: m.mertens.check_envelope_coprime()),
    ]
    return groups, lambda: None


def _constants(m, size, workdir, out):
    cutoff = size["cutoff"]

    def h_caps():
        for rep in m.products.check_h_caps(cutoff):
            out[rep.name] = verdict(rep)
            if rep.name == "h-cap-H1(g1^2)":
                enc = rep.details["enclosure"]
                out["H1(g1^2)-enclosure"] = {"value": enc["mid"],
                                             "radius": enc["width"] / 2}

    def theorem():
        table = m.assembly.theorem_table()
        out["theorem-combined-row"] = {"passed": bool(table["combined_ok"]),
                                       "value": float(table["combined_first_row"])}

    def registry():
        rc = m.cli.main(["constants", "--check", os.path.join("data", "constants.json")])
        out["registry-check"] = {"passed": rc == 0}

    return [[h_caps], [theorem], [registry]], lambda: None


BUILDERS = {"scan": _scan, "tables": _tables, "constants": _constants}
WORKLOADS = tuple(BUILDERS)


def run(workload: str, profile: str, order_seed: int, workdir: str):
    """Run one workload.  Returns (outcomes, step errors, group order)."""
    out: dict = {}
    groups, finish = BUILDERS[workload](Layers(), SIZES[profile][workload], workdir, out)
    order = list(range(len(groups)))
    random.Random(order_seed).shuffle(order)
    errors = []
    for g in order:
        for step in groups[g]:
            try:
                step()
            except Exception as exc:  # a raising check is an outcome, not a crash
                errors.append(f"{step.__name__}: {type(exc).__name__}: {exc}")
                break
    try:
        finish()
    except Exception as exc:
        errors.append(f"finish: {type(exc).__name__}: {exc}")
    return out, errors, order


def grade(outcomes: dict, expected: dict) -> dict[str, str]:
    """Checks whose outcome deviates from the expected-verdict table, with why.

    Only the fields an expected entry names are compared: `passed`,
    `worst_arg`, `value` rounded to `digits`, and `radius` against
    `radius_max`.  A missing outcome is a deviation.
    """
    bad = {}
    for name, want in expected.items():
        got = outcomes.get(name)
        if got is None:
            bad[name] = "no verdict"
            continue
        why = [f"{key} {got.get(key)!r}, expected {want[key]!r}"
               for key in ("passed", "worst_arg") if key in want and got.get(key) != want[key]]
        if "value" in want and round(got["value"], want["digits"]) != want["value"]:
            why.append(f"value {got['value']!r}, expected {want['value']!r}")
        if "radius_max" in want and not got["radius"] <= want["radius_max"]:
            why.append(f"radius {got['radius']!r} > {want['radius_max']!r}")
        if why:
            bad[name] = "; ".join(why)
    return bad
