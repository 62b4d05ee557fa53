"""Spans around the calls into each mulcm layer, recorded from outside.

A traced run wraps the public functions of the layer modules at every name
a mulcm module binds them under (`mulcm.sieve.mu_upto`,
`mulcm.mertens.mu_upto`, `mulcm.products.primes_upto`, the package
re-exports, ...), so calls between layers become nested spans.  Nothing
under `src/` changes.  Spans stay in memory and are written out with the
run's result; `layer_metrics` turns them into the per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types

LAYERS = ("sieve", "sigma", "mertens", "gstar", "products", "assembly", "cli")

# Per-element helpers, called up to millions of times in one run.  A span
# per call would measure the tracer, so their time counts as the caller's.
SCALAR_HELPERS = frozenset({
    "factorize", "prime_divisors", "radical", "require_squarefree",
    "weight_value", "g0_factor", "g1_factor", "envelope_coprime",
    "envelope_mixed", "m", "m_exact",
})


class Tracer:
    """In-memory span recorder for one run (single-threaded)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def call(self, name, site, fn, args, kwargs, annotate=None):
        span = {"id": len(self.spans), "name": name, "site": site,
                "parent": self._open[-1] if self._open else None,
                "run": self.run_id, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
        if annotate is not None:
            span.update(annotate(fn, args, kwargs, result))
        return result


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _sieve_range_meta(fn, args, kwargs, result) -> dict:
    a = _bound(fn, args, kwargs)
    return {"n": int(a["hi"]) - int(a["lo"]) + 1}


def _primes_meta(fn, args, kwargs, result) -> dict:
    return {"size": int(len(result))}


def _scan_meta(fn, args, kwargs, result) -> dict:
    a = _bound(fn, args, kwargs)
    kind = "resume" if a["resume"] else ("ckpt" if a["checkpoint_path"] else "fresh")
    return {"kind": kind}


ANNOTATE = {
    "sieve.sieve_range": _sieve_range_meta,
    "sieve.primes_upto": _primes_meta,
    "sigma.sigma_scan": _scan_meta,
}


def _wrap(tracer: Tracer, name: str, site: str, fn):
    annotate = ANNOTATE.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, site, fn, args, kwargs, annotate)
    return traced


def install(tracer: Tracer) -> None:
    """Wrap every public layer function at each name it is bound under.

    The package attribute `mulcm.gstar` is the function `gstar`, so modules
    are taken from `importlib`/`sys.modules`, never from the package.
    """
    layer_of = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"mulcm.{layer}")
        for attr, fn in vars(mod).items():
            if (isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__
                    and not attr.startswith("_") and attr not in SCALAR_HELPERS):
                layer_of[fn] = f"{layer}.{attr}"
    sites = {name: mod for name, mod in sys.modules.items()
             if name == "mulcm" or name.startswith("mulcm.")}
    for site_name, mod in sites.items():
        site = site_name.rpartition(".")[2]
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in layer_of:
                setattr(mod, attr, _wrap(tracer, layer_of[obj], site, obj))
    # products calls mpmath's prime zeta through the module attribute
    # `mp.primezeta` (mp being mpmath, whose attribute is mpmath.mp.primezeta).
    products = importlib.import_module("mulcm.products")
    products.mp.primezeta = _wrap(tracer, "mpmath.primezeta", "products",
                                  products.mp.primezeta)


# ----------------------------------------------------------------------
# Per-layer metrics from spans.

PER_LAYER = (
    ("sieve.calls", "count"), ("sieve.n", "count"), ("sieve.s", "s"),
    ("sieve.reuse", "ratio"),
    ("sigma.scan_s", "s"), ("sigma.ckpt_s", "s"), ("sigma.resume_s", "s"),
    ("sigma.report_s", "s"), ("sigma.oracle_s", "s"), ("sigma.self_s", "s"),
    ("sigma.d_per_s", "1/s"),
    ("mertens.s", "s"), ("mertens.self_s", "s"),
    ("gstar.s", "s"), ("gstar.self_s", "s"),
    ("products.h_caps_s", "s"), ("products.aux_s", "s"),
    ("products.self_s", "s"), ("products.primes_evaluated", "count"),
    ("products.primezeta_calls", "count"), ("products.primezeta_s", "s"),
    ("assembly.theorem_table_s", "s"), ("assembly.self_s", "s"),
    ("cli.constants_check_s", "s"),
    ("run.cpu_s", "s"),
    ("trace.verdict_s", "s"), ("trace.overhead_s", "s"), ("trace.coverage", "ratio"),
)


def layer_metrics(spans: list[dict], verdict_s: float, scan_size: int) -> dict:
    """Per-layer numbers of one traced run (all of PER_LAYER but the run.*
    and trace.overhead_s entries, which need data from outside the spans).

    Self time is a span's duration minus its direct children's durations;
    a layer's inclusive time sums its outermost spans, those with no
    ancestor in the same layer.  trace.coverage is the share of verdict_s
    that top-level spans cover.
    """
    dur = [s["end"] - s["start"] for s in spans]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += dur[s["id"]]

    def layer(s):
        return s["name"].partition(".")[0]

    def outermost(s):
        lay, p = layer(s), s["parent"]
        while p is not None:
            if layer(spans[p]) == lay:
                return False
            p = spans[p]["parent"]
        return True

    def total(pred):
        return sum(dur[s["id"]] for s in spans if pred(s))

    def inclusive(lay):
        return total(lambda s: layer(s) == lay and outermost(s))

    def self_time(lay):
        return sum(dur[s["id"]] - child_time[s["id"]] for s in spans if layer(s) == lay)

    def named(*names):
        return lambda s: s["name"] in names

    ranges = [s["n"] for s in spans if s["name"] == "sieve.sieve_range"]
    sieved = sum(ranges)
    scan_s = total(lambda s: s["name"] == "sigma.sigma_scan" and s["kind"] == "fresh")
    return {
        "sieve.calls": sum(1 for s in spans if layer(s) == "sieve" and outermost(s)),
        "sieve.n": sieved,
        "sieve.s": inclusive("sieve"),
        "sieve.reuse": max(ranges) / sieved if sieved else 1.0,
        "sigma.scan_s": scan_s,
        "sigma.ckpt_s": total(lambda s: s["name"] == "sigma.sigma_scan" and s["kind"] == "ckpt"),
        "sigma.resume_s": total(lambda s: s["name"] == "sigma.sigma_scan" and s["kind"] == "resume"),
        "sigma.report_s": total(named("sigma.scan_report")),
        "sigma.oracle_s": total(named("sigma.sigma_pairs_trace", "sigma.sigma_coprime_trace")),
        "sigma.self_s": self_time("sigma"),
        "sigma.d_per_s": scan_size / scan_s if scan_s else 0.0,
        "mertens.s": inclusive("mertens"),
        "mertens.self_s": self_time("mertens"),
        "gstar.s": inclusive("gstar"),
        "gstar.self_s": self_time("gstar"),
        "products.h_caps_s": total(named("products.check_h_caps")),
        "products.aux_s": total(named("products.aux_ratio_scan", "products.aux_asymptotic_check")),
        "products.self_s": self_time("products"),
        "products.primes_evaluated": sum(s["size"] for s in spans
                                         if s["name"] == "sieve.primes_upto"
                                         and s["site"] == "products"),
        "products.primezeta_calls": sum(1 for s in spans if s["name"] == "mpmath.primezeta"),
        "products.primezeta_s": total(named("mpmath.primezeta")),
        "assembly.theorem_table_s": total(named("assembly.theorem_table")),
        "assembly.self_s": self_time("assembly"),
        "cli.constants_check_s": total(named("cli.main")),
        "trace.verdict_s": verdict_s,
        "trace.coverage": total(lambda s: s["parent"] is None) / verdict_s,
    }
