"""One run of one workload in a fresh interpreter.

Set-up ends when `import mulcm` returns; the parent passes the monotonic
time at which it spawned this process, so setup_s covers interpreter start,
numpy, mpmath and mulcm's own import-time work.  With --setup-only the run
stops there.  The result is written as JSON to --out.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import mulcm  # noqa: E402

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--profile", default="full", choices=sorted(workloads.SIZES))
    ap.add_argument("--order-seed", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--workdir", default=".")
    args = ap.parse_args()

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(mulcm.__file__).startswith(src + os.sep):
        print(f"mulcm imported from {mulcm.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": IMPORTED_AT - args.spawned_at}
    if not args.setup_only:
        tracer = None
        if args.trace:
            tracer = spans.Tracer(run_id=f"{args.workload}-{args.order_seed}")
            spans.install(tracer)
        t0 = time.perf_counter()
        outcomes, errors, order = workloads.run(
            args.workload, args.profile, args.order_seed, args.workdir)
        verdict_s = time.perf_counter() - t0
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result.update({
            "verdict_s": verdict_s,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "order": order,
            "outcomes": outcomes,
            "errors": errors,
        })
        if tracer is not None:
            result["spans"] = tracer.spans
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
