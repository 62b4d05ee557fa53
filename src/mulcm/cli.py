"""The `mulcm` command: sieving, scanning, lemma verification, constants.

Exit codes: 0 all requested checks passed; 1 at least one check failed;
2 usage error or malformed input file; 3 resource budget exceeded.

Every JSON output embeds a run manifest (command, config, library versions,
wall time, digests of auxiliary files written) so runs can be diffed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import assembly, gstar, mertens, products, sieve, sigma
from .numutil import BudgetError, _blocks
from .report import BoundReport, RunManifest

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _flatten(obj) -> list[BoundReport]:
    """Normalize a check result (report, list, or dict of reports) to a list."""
    if isinstance(obj, BoundReport):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [r for v in obj for r in _flatten(v)]
    raise TypeError(f"not a report container: {type(obj)!r}")


def _emit(payload: dict, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


# ----------------------------------------------------------------------
# verify-lemma target table.

def _major1starter(xmax: int) -> BoundReport:
    rep = gstar.scan_majorstar(X_max=xmax)
    d = rep.details[f"{gstar._R1_SMALL}"]
    return BoundReport(
        name=f"r1-envelope-{gstar._R1_SMALL}",
        domain=rep.domain + f", moduli with all prime factors below {gstar._SMALL_PRIMES_BELOW}",
        passed=d["worst_ratio"] <= 1.0,
        worst_ratio=d["worst_ratio"],
        worst_arg=d["worst_arg"],
        bound=1.0,
        details=d,
    )


def _aux(key: str, dmax: int) -> list[BoundReport]:
    return [products.aux_ratio_scan(key, dmax), products.aux_asymptotic_check(key, dmax)]


def _lemma_targets(args) -> dict:
    """Map each verify-lemma target to a zero-argument callable."""
    return {
        "m1": lambda: mertens.check_envelope_sqrt(args.limit, q=1),
        "m2": lambda: mertens.check_envelope_log(args.limit, q=1),
        "m3": lambda: [mertens.check_envelope_sqrt(args.limit, q=2),
                       mertens.check_envelope_log(args.limit, q=2)],
        "m4": mertens.check_envelope_coprime,
        "spe": products.check_prime_tail,
        "aux1": lambda: _aux("g0^2", args.dmax),
        "aux2": lambda: _aux("g0*g1", args.dmax),
        "aux3": lambda: _aux("g1^2", args.dmax),
        "aux-caps": products.check_h_caps,
        "init": lambda: gstar.init_bound_check(args.xmax),
        "moebius-square": lambda: gstar.moebius_square_table_check(X_max=args.xmax),
        "majorstar1": lambda: gstar.scan_majorstar(X_max=args.xmax),
        "major1starter": lambda: _major1starter(args.xmax),
        "majorstar2": gstar.check_majorstar2,
        "auxmajorstar2": lambda: [gstar.check_aux_k(), gstar.aux_k_band()],
        "getgstarq": lambda: [gstar.check_gstar_contract(), gstar.check_gstar_difference(),
                              products.check_cq_forms(), gstar.check_g_mean()],
        "convol0": lambda: gstar.check_convol0(args.n),
        "convol": lambda: gstar.check_convol(args.n),
        "landau": sigma.check_landau,
        "keyb": gstar.check_averaged_divisor_identity,
        "le1": assembly.le1_verify,
        "le2": assembly.le2_verify,
        "tail": lambda: [assembly.tail_audit(), assembly.tail_desk_check()],
        "sigma-window": lambda: sigma.scan_report(args.xmax),
    }


# ----------------------------------------------------------------------
# Subcommand handlers.

def _cmd_sieve(args) -> int:
    manifest = RunManifest.start("sieve", {"to": args.to})
    n = args.to
    block = sieve._table(n)
    pi_n = 0  # n is prime iff phi(n) = n - 1, which fails at n = 1
    for a, b in _blocks(0, n):
        ns_minus_1 = np.arange(a, b, dtype=block.phi.dtype)
        pi_n += int(np.count_nonzero(block.phi[a:b] == ns_minus_1))
    mertens = int(block.mu.sum(dtype=np.int64))
    q_n = sieve.squarefree_count(n)
    summary = {
        "n": n,
        "pi": pi_n,
        "mertens": mertens,
        "squarefree_count": q_n,
        "squarefree_excess_over_sqrt": (q_n - 6.0 / math.pi ** 2 * n) / n ** 0.5,
    }
    print(f"sieve to {n}: pi={pi_n} mertens={mertens} squarefree={q_n}")
    _emit({"manifest": manifest.finish().to_dict(), "summary": summary},
          args.out)
    return EXIT_PASS


def _parse_window(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"window must look like A..B, got {text!r}")
    return int(lo), int(hi)


def _cmd_sigma_scan(args) -> int:
    config = {"to": args.to, "window": args.window,
              "checkpoint": args.checkpoint,
              "checkpoint_every": args.checkpoint_every,
              "resume": args.resume}
    manifest = RunManifest.start("sigma-scan", config)
    scan = sigma.sigma_scan(args.to, checkpoint_path=args.checkpoint,
                            checkpoint_every=args.checkpoint_every,
                            resume=args.resume)
    outputs = {}
    if args.checkpoint:
        outputs["checkpoint"] = args.checkpoint
    payload: dict = {}
    ok = True
    if args.window:
        a, b = _parse_window(args.window)
        w = scan.window_extrema(a, b)
        payload["window"] = w
        line = (f"window [{a}, {b}]: max={w['max']:.9f} at {w['argmax']}, "
                f"min={w['min']:.9f} at {w['argmin']}")
        if a >= sigma._WINDOW_FROM:
            ok = w["max"] <= sigma._WINDOW_CAP
            line += f" -> cap {sigma._WINDOW_CAP} {'pass' if ok else 'FAIL'}"
        print(line)
    elif scan.resumed_from:
        ok = scan.running_max <= sigma.SCAN_CAP + sigma._SCAN_CAP_SLACK
        payload["running_max"] = {"value": scan.running_max,
                                  "arg": scan.running_max_arg}
        print(f"resumed at {scan.resumed_from}: running max over [2, {args.to}] "
              f"= {scan.running_max:.9f} at {scan.running_max_arg} "
              f"-> cap 19/30 {'pass' if ok else 'FAIL'}")
        print("(windowed statistics need an unresumed scan or a --window "
              "after the resume point)")
    else:
        reports = sigma.scan_report(args.to, scan=scan)
        payload["reports"] = {k: r.to_dict() for k, r in reports.items()}
        for k, r in reports.items():
            print(r.summary_line())
        ok = all(r.passed for r in reports.values())
    _emit({"manifest": manifest.finish(outputs).to_dict(), **payload},
          args.out)
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_verify_lemma(args) -> int:
    targets = _lemma_targets(args)
    if args.list or args.name is None:
        for name in sorted(targets):
            print(name)
        return EXIT_PASS if args.list else EXIT_USAGE
    if args.name not in targets:
        print(f"unknown lemma target {args.name!r}; "
              f"run `mulcm verify-lemma --list`", file=sys.stderr)
        return EXIT_USAGE
    manifest = RunManifest.start(
        "verify-lemma",
        {"name": args.name, "limit": args.limit, "dmax": args.dmax,
         "xmax": args.xmax, "n": args.n})
    reports = _flatten(targets[args.name]())
    for r in reports:
        print(r.summary_line())
    ok = all(r.passed for r in reports)
    _emit({"manifest": manifest.finish().to_dict(),
           "lemma": args.name,
           "reports": [r.to_dict() for r in reports],
           "pass": ok},
          args.out)
    return EXIT_PASS if ok else EXIT_FAIL


def _registry_diff(old: dict, new: dict, path: str = "") -> list[str]:
    diffs = []
    keys = sorted(set(old) | set(new))
    for k in keys:
        here = f"{path}.{k}" if path else str(k)
        if k not in old:
            diffs.append(f"added: {here}")
        elif k not in new:
            diffs.append(f"removed: {here}")
        else:
            a, b = old[k], new[k]
            if isinstance(a, dict) and isinstance(b, dict):
                diffs.extend(_registry_diff(a, b, here))
            elif isinstance(a, float) and isinstance(b, float):
                scale = max(abs(a), abs(b), 1e-300)
                if abs(a - b) / scale > 1e-12:
                    diffs.append(f"value: {here}: {a!r} -> {b!r}")
            elif a != b:
                diffs.append(f"value: {here}: {a!r} -> {b!r}")
    return diffs


def _cmd_constants(args) -> int:
    manifest = RunManifest.start(
        "constants", {"write": args.write, "check": args.check})
    reg = products.build_registry()
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(reg, fh, indent=2, sort_keys=True)
            fh.write("\n")
        manifest.finish({"registry": args.write})
        print(f"wrote constants registry to {args.write}")
        return EXIT_PASS
    if args.check:
        try:
            with open(args.check) as fh:
                old = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read registry {args.check}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        diffs = _registry_diff(old, reg)
        if diffs:
            for d in diffs:
                print(d)
            print(f"registry check FAILED: {len(diffs)} differences")
            return EXIT_FAIL
        print("registry check passed: no differences")
        return EXIT_PASS
    print(json.dumps(reg, indent=2, sort_keys=True))
    return EXIT_PASS


def _cmd_bound(args) -> int:
    config = assembly.AssemblyConfig(
        x_min=args.x_min, ratio=args.ratio,
        refine_small_factors=not args.no_refine_30,
        localize=not args.no_localize)
    manifest = RunManifest.start("bound", {
        "x_min": args.x_min, "ratio": args.ratio,
        "refine_30": not args.no_refine_30,
        "localize": not args.no_localize})
    res = assembly.theorem_bound(config)
    print(f"bound for x >= {args.x_min:g} at ratio {args.ratio:g}: "
          f"{res['bound']:.6f} (main {res['main']:.6f}, "
          f"remainder {res['remainder']:.6f}, tail {res['tail']:.6f})")
    print(f"remainder sup at Y = {res['remainder_window']:g}: "
          f"{res['windows']} dyadic window(s), "
          f"{res['table_passes']} pass(es) over the per-j reductions")
    _emit({"manifest": manifest.finish().to_dict(), "result": res}, args.out)
    return EXIT_PASS


def _cmd_theorem_table(args) -> int:
    manifest = RunManifest.start("theorem-table", {})
    table = assembly.theorem_table()
    for row in table["rows"]:
        mark = "pass" if row["within_tolerance"] else "FAIL"
        print(f"x >= {row['x_min']:<12g} ratio {row['ratio']:<6g} "
              f"bound {row['bound']:.4f} vs {row['reference']:.3f} [{mark}]")
    mark = "pass" if table["combined_ok"] else "FAIL"
    print(f"combined first row max(bound, scan cap) = "
          f"{table['combined_first_row']:.6f} <= 17/25 [{mark}]")
    _emit({"manifest": manifest.finish().to_dict(), "table": table}, args.out)
    ok = table["combined_ok"] and table["all_rows_within_tolerance"]
    return EXIT_PASS if ok else EXIT_FAIL


# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mulcm",
        description="Verification toolkit for the squarefree lcm-weighted "
                    "double Moebius sum and its explicit constants.")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("sieve", help="sieve summary statistics")
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--out", help="JSON output path")
    p.set_defaults(func=_cmd_sieve)

    p = sub.add_parser("sigma-scan", help="scan S(d) and check window caps")
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--window", help="A..B inclusive integer window")
    p.add_argument("--checkpoint", help="CSV checkpoint path")
    p.add_argument("--checkpoint-every", type=int, default=100_000)
    p.add_argument("--resume", action="store_true",
                   help="resume from the checkpoint file")
    p.add_argument("--out", help="JSON output path")
    p.set_defaults(func=_cmd_sigma_scan)

    p = sub.add_parser("verify-lemma", help="run one named verification")
    p.add_argument("name", nargs="?", help="target name (see --list)")
    p.add_argument("--list", action="store_true",
                   help="list available targets")
    p.add_argument("--limit", type=int, default=1_000_000,
                   help="partial-sum scan limit (envelope checks)")
    p.add_argument("--dmax", type=int, default=1_000_000,
                   help="weighted-sum scan limit (aux checks)")
    p.add_argument("--xmax", type=int, default=1_000_000,
                   help="argument scan limit (init, tables, r1 envelopes)")
    p.add_argument("--n", type=int, default=100_000,
                   help="identity check limit (convolution checks)")
    p.add_argument("--out", help="JSON output path")
    p.set_defaults(func=_cmd_verify_lemma)

    p = sub.add_parser("constants", help="constants registry: print, "
                                         "write, or diff")
    p.add_argument("--write", help="write registry JSON here")
    p.add_argument("--check", help="diff computed registry against this file")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("bound", help="assembled bound for one configuration")
    p.add_argument("--x-min", type=float, required=True)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--no-refine-30", action="store_true")
    p.add_argument("--no-localize", action="store_true")
    p.add_argument("--out", help="JSON output path")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("theorem-table", help="all reference rows")
    p.add_argument("--out", help="JSON output path")
    p.set_defaults(func=_cmd_theorem_table)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
