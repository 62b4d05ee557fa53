"""Cold-start verdict benchmark for mulcm.

    python3 bench/run.py --workload scan|tables|constants|all \
        --seed N --seconds S --trace 0|1 [--out result.json]

Closed loop, one client: this process spawns one run at a time, each in a
fresh interpreter (bench/child.py), so module caches start empty as they do
for a command-line user.  It keeps spawning while another run still fits in
--seconds (at least one run), after five set-up-only spawns.  The seed only
shuffles the order of a workload's independent checks; sizes are fixed.

--trace 0 reports the end-to-end metrics; --trace 1 runs untraced/traced
pairs and reports the per-layer metrics (bench/spans.py) and the tracing
overhead.  Every run's verdicts are graded against bench/expected.json.
The last line of output is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 when no check deviated, 1 when one did, and 2
when the program to measure (src/mulcm) is not there.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
sys.path.insert(0, BENCH_DIR)

import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("verdict_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_PROBES = 5
# An invocation must end within 180 s per workload it runs (`all` gets the
# limit once per workload); leave room for reporting.
INVOCATION_LIMIT_S = 170.0


def summarize(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


class Session:
    """Spawns child runs into a scratch directory and grades their verdicts."""

    def __init__(self, profile: str, expected: dict, deadline: float):
        self.profile = profile
        self.expected = expected
        self.deadline = deadline
        self.workdir = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.spawned = 0

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.workdir))
        except OSError:
            pass

    def spawn(self, *args) -> tuple[dict | None, str | None]:
        timeout = self.deadline - time.monotonic()
        if timeout < 1.0:
            return None, "out of time"
        self.spawned += 1
        out = os.path.join(self.workdir, f"child-{self.spawned}.json")
        cmd = [sys.executable, CHILD, "--out", out, "--workdir", self.workdir, *args]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(t0)], cwd=ROOT,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"run timed out after {timeout:.0f} s"
        if proc.returncode != 0 or not os.path.exists(out):
            tail = proc.stderr.strip().splitlines()[-3:]
            return None, f"run exited {proc.returncode}: {' | '.join(tail)}"
        with open(out) as fh:
            rec = json.load(fh)
        os.remove(out)
        rec["wall_s"] = time.monotonic() - t0
        return rec, None


def measure(session: Session, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """All runs of one workload for one invocation, graded and summarized."""
    expected = session.expected[workload]
    setup, plain, traced, problems = [], [], [], []
    attempted = failed = 0
    for _ in range(SETUP_PROBES):
        rec, err = session.spawn("--setup-only")
        if rec is None:
            problems.append(f"set-up probe: {err}")
            attempted = failed = len(expected)
            break
        setup.append(rec["setup_s"])
    t_begin = time.monotonic()
    longest = 0.0
    unit = 0
    while not problems:
        t_unit = time.monotonic()
        order_seed = seed * 1000 + unit
        for tr in ((0, 1) if trace else (0,)):
            rec, err = session.spawn("--workload", workload, "--profile", session.profile,
                                     "--order-seed", str(order_seed), "--trace", str(tr))
            attempted += len(expected)
            if rec is None:
                failed += len(expected)
                problems.append(f"run {order_seed} (trace {tr}): {err}")
                break
            bad = workloads.grade(rec["outcomes"], expected)
            failed += len(bad)
            problems += [f"run {order_seed}: {name}: {why}" for name, why in bad.items()]
            problems += [f"run {order_seed}: raised in {e}" for e in rec["errors"]]
            setup.append(rec["setup_s"])
            (traced if tr else plain).append(rec)
        unit += 1
        longest = max(longest, time.monotonic() - t_unit)
        if time.monotonic() - t_begin + longest > seconds:
            break

    result = {"workload": workload, "seed": seed, "trace": trace,
              "runs": len(plain) + len(traced), "attempted": attempted, "failed": failed,
              "check_error_rate": failed / attempted if attempted else 1.0,
              "checks_per_run": len(expected), "problems": problems,
              "orders": [r["order"] for r in plain]}
    if plain and setup:
        result["end_to_end"] = {
            "verdict_s": summarize([r["verdict_s"] for r in plain]),
            "setup_s": summarize(setup),
            "peak_rss_mb": summarize([r["peak_rss_mb"] for r in plain]),
        }
    if traced and plain:
        scan_size = workloads.SIZES[session.profile]["scan"]["X"] if workload == "scan" else 0
        per_run = [spans.layer_metrics(r["spans"], r["verdict_s"], scan_size) for r in traced]
        layer = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
        layer["run.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
        layer["trace.overhead_s"] = (layer["trace.verdict_s"]
                                     - result["end_to_end"]["verdict_s"]["median"])
        result["per_layer"] = layer
        result["traces"] = [r["spans"] for r in traced]
    return result


def metric_line(res: dict, trace: int) -> dict:
    """The metrics object of the final JSON line for one workload."""
    if trace:
        units = dict(spans.PER_LAYER)
        layer = res.get("per_layer", {})
        return {name: {"value": layer[name], "unit": units[name]}
                for name, _ in spans.PER_LAYER if name in layer}
    e2e = res.get("end_to_end", {})
    return {name: {"value": e2e[name]["median"], "unit": unit}
            for name, unit in END_TO_END if name in e2e}


def print_report(res: dict) -> None:
    w = res["workload"]
    for name, unit in END_TO_END:
        s = res.get("end_to_end", {}).get(name)
        if s:
            print(f"{w}  {name:<12} {s['median']:.4f} {unit}  "
                  f"(q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, n={s['n']})")
    print(f"{w}  check_error_rate {res['check_error_rate']:.4f}  "
          f"({res['failed']} of {res['attempted']} checks deviated; "
          f"{res['checks_per_run']} checks per run, by-design FAILs are expected verdicts)")
    units = dict(spans.PER_LAYER)
    layer = res.get("per_layer", {})
    for name, value in layer.items():
        print(f"{w}  {name:<26} {value:.6g} {units[name]}")
    if layer and layer["trace.coverage"] < 0.95:
        print(f"{w}  warning: top-level spans cover under 95 % of the traced run")
    for p in res["problems"][:20]:
        print(f"{w}  problem: {p}")


def machine_record(args) -> dict:
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": sha, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "mpmath": importlib.metadata.version("mpmath"),
            "platform": platform.platform(), "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "profile": args.profile}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--profile", default="full", choices=sorted(workloads.SIZES),
                    help="size profile; 'tiny' is for the smoke test")
    ap.add_argument("--out", help="write the full result record here")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mulcm", "__init__.py")):
        print(f"no program to measure: {ROOT}/src/mulcm is missing", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    with open(os.path.join(BENCH_DIR, "expected.json")) as fh:
        expected = json.load(fh)[args.profile]

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + INVOCATION_LIMIT_S * len(names)
    session = Session(args.profile, expected, deadline)
    try:
        results = [measure(session, w, args.seed, args.seconds, args.trace) for w in names]
    finally:
        session.close()

    for res in results:
        print_report(res)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"record": machine_record(args), "results": results}, fh, indent=1)
            fh.write("\n")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = metric_line(results[0], args.trace)
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in metric_line(r, args.trace).items()}
    complete = all("end_to_end" in r and (not args.trace or "per_layer" in r) for r in results)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 and complete else 1


if __name__ == "__main__":
    sys.exit(main())
