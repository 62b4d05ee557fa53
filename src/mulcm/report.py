"""Result containers: bound reports, certified enclosures, run manifests.

A BoundReport is the uniform outcome of every inequality check: it names the
check, states the domain that was actually swept, and records the worst case
seen.  A CertifiedValue is a closed interval guaranteed to contain a constant.
Both serialize to plain dicts for the CLI's JSON output.

Every capped check ("the largest value is at most a cap") has one pass rule,
BoundReport.held_to: the largest value (a numutil._RunningMax) <= cap, with
no allowance; a NaN fails.  The H caps hold an enclosure's upper end to the
cap; the envelope and table sweeps and the scan hold floats, with no radius.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Any


@dataclass
class BoundReport:
    """Outcome of sweeping one inequality over a finite domain.

    worst_ratio is measured quantity divided by its bound at the worst point.
    held_to builds every capped check with one pass rule, value <= cap;
    floors and identities set passed themselves.  details carries
    check-specific numbers (components, witnesses, tolerances).
    """

    name: str
    domain: str
    passed: bool
    worst_ratio: float
    worst_arg: Any = None
    bound: float | None = None
    details: dict = field(default_factory=dict)

    @classmethod
    def held_to(cls, name: str, domain: str, top, details: dict, cap: float = 1.0,
                bound: float | None = None) -> "BoundReport":
        """The report of the largest value top.value, at top.arg, held to cap:
        passed is top.value <= cap (False on a NaN), worst_ratio top.value /
        cap (top.value itself at cap 1) and bound cap unless given."""
        return cls(name, domain, bool(top.value <= cap), top.value / cap,
                   top.arg, cap if bound is None else bound, details)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["passed"] = bool(self.passed)
        return d

    def summary_line(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        arg = f" at {self.worst_arg}" if self.worst_arg is not None else ""
        return f"{self.name}: {verdict} (worst ratio {self.worst_ratio:.6f}{arg}, domain {self.domain})"


@dataclass(frozen=True)
class CertifiedValue:
    """Closed interval [lo, hi] guaranteed to contain the true value.

    The guarantee is only as good as the tail estimates that produced it;
    every producer documents its tail reasoning.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (self.lo <= self.hi):
            raise ValueError(f"empty enclosure [{self.lo}, {self.hi}]")

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def __mul__(self, other: "CertifiedValue") -> "CertifiedValue":
        """Interval product, assuming both operands may straddle zero."""
        cands = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
        return _outward(min(cands), max(cands))

    def to_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "mid": self.mid, "width": self.width}


def _outward(lo: float, hi: float) -> CertifiedValue:
    """[lo, hi] widened by one ulp at each end: lo and hi each come from one
    operation rounded to nearest, so the exact results lie inside."""
    return CertifiedValue(math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    """Reproducibility record attached to CLI outputs.

    Captures the command configuration, library versions, numpy's SIMD
    extensions, the usable CPUs (the shards of the products' pass), wall
    time and written files' digests, for re-runs and diffs.
    """

    command: str
    config: dict = field(default_factory=dict)
    versions: dict = field(default_factory=dict)
    wall_time_s: float | None = None
    outputs: dict = field(default_factory=dict)

    @staticmethod
    def start(command: str, config: dict | None = None) -> "RunManifest":
        import numpy
        import mpmath
        m = RunManifest(command=command, config=dict(config or {}))
        m.versions = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
            "platform": platform.platform(),
            "numpy_simd": numpy.show_config(mode="dicts")["SIMD Extensions"].get("found", []),
            "cpus": len(os.sched_getaffinity(0)),
        }
        m._t0 = time.monotonic()
        return m

    def finish(self, output_paths: dict[str, str] | None = None) -> "RunManifest":
        t0 = getattr(self, "_t0", None)
        if t0 is not None:
            self.wall_time_s = round(time.monotonic() - t0, 3)
        for label, path in (output_paths or {}).items():
            self.outputs[label] = {"path": path, "sha256": sha256_file(path)}
        return self

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "versions": self.versions,
            "wall_time_s": self.wall_time_s,
            "outputs": self.outputs,
        }
