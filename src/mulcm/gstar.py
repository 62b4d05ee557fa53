"""The coprime squarefree totient sum G*_q and everything proved about it.

G*_q(X) = sum_{n <= X, (n,q)=1} mu^2(n) phi(n) / n^2 grows like
H_q(1) (log X + c_q); this module computes the sum exactly or in floats,
evaluates the asymptotic with its certified remainder radius, and verifies
the supporting cast: the cancellation coefficients g_q(m), the remainder
sums r1*/r2* with their square-root envelopes, the convolution identities
that generate them, the squarefree counting table, and the averaged-divisor
identity used to prove the asymptotic.

The envelope, counting-table and starting-bound checks sweep their range in
blocks (`numutil._blocks`), carrying running sums and the worst ratio with
its first argument; the only arrays over the range they hold are the table's
and, in the r1*/r2* checks, one q-free table of cube-free weights from which
every q copies its g_q and r1* weights block by block.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .numutil import _RunningMax, _RunningSum, _blocks, fsum_array
from .report import BoundReport, CertifiedValue
from .sieve import (
    _coprime_mask, _squarefree_divisors, _table, factorize, prime_divisors,
    require_squarefree,
)
from .products import (
    EULER_GAMMA, A_DEEP, P0_DEEP, c_q, h_q, j1_star, j5_star,
)

_AUX_K_CUTOFF = 200_000

# C in r1*(X; q) <= C sqrt(X) j1*(q) and |r2*(X; q)| <= C j1*(q)/sqrt(X), and
# the sharper r1* constant when every prime of q lies below the third value.
_R_ENVELOPE, _R1_SMALL, _SMALL_PRIMES_BELOW = 2.18, 1.17, 30


def _inverses(limit: int) -> np.ndarray:
    """1/n for n = 0..limit, with 0 at n = 0."""
    inv = np.zeros(limit + 1, dtype=np.float64)
    inv[1:] = 1.0 / np.arange(1, limit + 1, dtype=np.float64)
    return inv


def _gstar_terms(block, q: int) -> np.ndarray:
    """mu^2(n) phi(n) / n^2 over a block starting at n = 1, 0 unless (n, q) = 1."""
    n = np.arange(1, len(block) + 1, dtype=np.float64)
    keep = block.mu * block.mu * _coprime_mask(len(block), q)  # int8 0 or 1
    return keep * block.phi / (n * n)


# ----------------------------------------------------------------------
# G*_q itself.

def gstar(q: int, X: float) -> float:
    """G*_q(X) = sum_{n <= X, (n,q)=1} mu^2(n) phi(n) / n^2, as a float."""
    require_squarefree(q)
    t = int(math.floor(X))
    if t < 1:
        return 0.0
    return fsum_array(_gstar_terms(_table(t), q))


def gstar_exact(q: int, X: float) -> Fraction:
    """Exact rational G*_q(X) for X <= 20000."""
    require_squarefree(q)
    t = int(math.floor(X))
    if t > 20_000:
        raise ValueError("gstar_exact limited to X <= 20000")
    if t < 1:
        return Fraction(0)
    block = _table(t)
    total = Fraction(0)
    for n in range(1, t + 1):
        if block.mu[n - 1] != 0 and math.gcd(n, q) == 1:
            total += Fraction(int(block.phi[n - 1]), n * n)
    return total


def gstar_asymptotic(q: int, X: float) -> tuple[float, float]:
    """(main, radius) with |G*_q(X) - main| <= radius for X > 0.

    main = H_q(1) (log X + c_q); radius = 4.73 j1*(q) / sqrt(X), widened by
    the uncertainty of the H_q enclosure.
    """
    if X <= 0:
        raise ValueError("need X > 0")
    hq = h_q(q)
    main = hq.mid * (math.log(X) + c_q(q))
    radius = 4.73 * j1_star(q) / math.sqrt(X)
    radius += 0.5 * hq.width * abs(math.log(X) + c_q(q))
    return main, radius


def gstar_difference_bound(q: int, X: float, Y: float) -> float:
    """Radius for |G*_q(X) - G*_q(Y) - H_q(1) log(X/Y)|, for X >= Y > 0."""
    if not (X >= Y > 0):
        raise ValueError("need X >= Y > 0")
    eg2 = math.exp(EULER_GAMMA / 2.0) - 1.0
    emg2 = math.exp(-EULER_GAMMA / 2.0)
    return _R_ENVELOPE * j1_star(q) * (
        2.0 * eg2 / math.sqrt(X) + 2.0 * eg2 / math.sqrt(Y)
        + 2.0 * emg2 / math.sqrt(Y) - 2.0 * emg2 / math.sqrt(X)
    )


def check_gstar_contract(q_set=(1, 2, 3, 6, 30, 210),
                         x_set=(100, 1000, 10_000, 100_000, 1_000_000)) -> BoundReport:
    """Spot-check |G*_q(X) - main| <= radius on a (q, X) grid.

    One table read at the largest X serves every q and all smaller X.
    """
    if not q_set:
        raise ValueError("empty domain: no q")
    block = _table(max(x_set))
    worst = _RunningMax(0.0)
    cases = []
    for q in q_set:
        cum = np.cumsum(_gstar_terms(block, q))
        for X in x_set:
            val = float(cum[X - 1])
            main, radius = gstar_asymptotic(q, float(X))
            ratio = abs(val - main) / radius
            cases.append({"q": q, "X": X, "value": val, "main": main,
                          "radius": radius, "ratio": ratio})
            worst.offer(ratio, (q, X))
    return BoundReport.held_to(
        "gstar-asymptotic-contract", f"q in {tuple(q_set)}, X in {tuple(x_set)}",
        worst, {"cases": cases})


def check_gstar_difference(q_set=(1, 2, 6, 30),
                           pairs=((20_000, 10_000), (100_000, 10_000), (50_000, 25_000))) -> BoundReport:
    """Check the difference form |G*_q(X) - G*_q(Y) - H_q log(X/Y)| <= radius."""
    block = _table(max(p[0] for p in pairs))
    worst = _RunningMax(0.0)
    for q in q_set:
        cum = np.cumsum(_gstar_terms(block, q))
        hq = h_q(q).mid
        for X, Y in pairs:
            diff = float(cum[X - 1] - cum[Y - 1]) - hq * math.log(X / Y)
            radius = gstar_difference_bound(q, float(X), float(Y))
            worst.offer(abs(diff) / radius, (q, X, Y))
    return BoundReport.held_to(
        "gstar-difference-contract", f"q in {tuple(q_set)}, pairs {tuple(pairs)}",
        worst, {})


# ----------------------------------------------------------------------
# Cancellation coefficients g_q(m) and the remainder sums r1*, r2*.
#
# g_q(m) = sum over factorizations m = k^2 l r with r | q, (kl, q) = 1,
# (k, l) = 1 of mu(r k l) phi(k) / (k l).  Then
#   sum_{m <= X} g_q(m)/m -> H_q(1), and
#   r1*(X; q) = sum_{k^2 l r <= X} mu^2(r k l) phi(k)/(k l),
#   r2*(X; q) = sum_{k^2 l r > X} mu(r k l) phi(k)/(r k^3 l^2)
#             = H_q(1) - sum_{m <= X} g_q(m)/m.

def _cubefree_weights(limit: int) -> np.ndarray:
    """w(n) = mu(k) mu(l) phi(k)/(k l) for n = k^2 l <= limit cube-free, else 0.

    A cube-free n is k^2 l in exactly one way with k, l squarefree and
    coprime (k takes the primes to exponent 2, l those to exponent 1), so
    each n is written once.  w is indexed by n = 0..limit, w[0] = 0, and
    w(n) is the float (mu(k) phi(k)/k) mu(l) times the float 1/l.

    Each k writes its whole strided slice, 0 at the l it drops (+ 0.0 makes
    the -0.0 of c < 0 there +0.0, as np.zeros); a later k' never lands on an
    entry k filled, since k'^2 | k^2 l forces k' | k.
    """
    block = _table(limit)
    mu = block.mu  # mu[n - 1] = mu(n)
    w = np.zeros(limit + 1, dtype=np.float64)
    for k in range(1, math.isqrt(limit) + 1):
        mu_k = int(mu[k - 1])
        if mu_k == 0:
            continue
        c, k2 = mu_k * int(block.phi[k - 1]) / k, k * k
        for lo, hi in _blocks(1, limit // k2 + 1):
            # l = lo..hi-1, kept when squarefree and coprime to k.
            mu_l = mu[lo - 1: hi - 1] * _coprime_mask(hi - 1, k, lo)
            vals = c * mu_l * (1.0 / np.arange(lo, hi, dtype=np.float64)) + 0.0
            w[k2 * lo: k2 * (hi - 1) + 1: k2] = vals
    return w


def _q_weights(w: np.ndarray, q: int, lo: int, hi: int, signed: bool) -> np.ndarray:
    """q's weights at m = lo..hi-1 from _cubefree_weights w (covering hi - 1).

    m = k^2 l r with r | q and (kl, q) = 1 has r the q-part of m, so each m
    takes one term: w(m/r) times mu(r) for g_q(m) (signed=True) and |w(m/r)|
    for the jump of r1* at m (signed=False), and 0 when m/r shares a prime
    with q.  Both are the triple weight mu(rkl) phi(k)/(kl) or its absolute
    value bit for bit: floats round symmetrically in sign.

    Each r writes w times the coprime mask over its whole strided slice; a
    later r' never lands on an entry r filled: r' | m = r j, (j, q) = 1 forces
    r' | r.  abs, 0.0 - x and + 0.0 make the masked -0.0s +0.0, as np.zeros.
    """
    out = np.zeros(hi - lo, dtype=np.float64)
    for r, mu_r in _squarefree_divisors(q):
        j0, j1 = -(-lo // r), (hi - 1) // r
        if j0 > j1:
            continue
        dst = out[j0 * r - lo:: r]
        np.multiply(w[j0: j1 + 1], _coprime_mask(j1, q, j0), out=dst)
        if not signed:
            np.abs(dst, out=dst)
        elif mu_r < 0:
            np.subtract(0.0, dst, out=dst)  # -w, with +0.0 where w is 0
        else:
            dst += 0.0
    return out


def g_coefficients(limit: int, q: int = 1) -> np.ndarray:
    """g_q(m) for m = 0..limit (g[0] = 0), as floats."""
    require_squarefree(q)
    return _q_weights(_cubefree_weights(limit), q, 0, limit + 1, True)


def r1_values(limit: int, q: int = 1) -> np.ndarray:
    """Cumulative r1*(n; q) for n = 0..limit, as floats."""
    require_squarefree(q)
    r1 = _q_weights(_cubefree_weights(limit), q, 0, limit + 1, False)
    return np.cumsum(r1, out=r1)


def _first_max(tops) -> _RunningMax:
    """The first strictly largest of running maxima taken in order, floored
    at 0: what one _RunningMax(0.0) fed their sweeps in that order holds."""
    best = _RunningMax(0.0)
    for top in tops:
        best.offer(top.value, top.arg)
    return best


def r1_star(X: float, q: int = 1) -> Fraction:
    """Exact r1*(X; q) by direct triple enumeration (X <= 10^4)."""
    if X < 0:
        raise ValueError("need X >= 0")
    t = int(math.floor(X))
    if t > 10_000:
        raise ValueError("exact r1_star limited to X <= 10^4; use r1_values")
    require_squarefree(q)
    if t < 1:
        return Fraction(0)
    mu = _table(t).mu  # mu[n - 1] = mu(n)
    total = Fraction(0)
    for k in range(1, int(math.isqrt(t)) + 1):
        if mu[k - 1] == 0 or math.gcd(k, q) != 1:
            continue
        phi_k = 1
        for p in prime_divisors(k):
            phi_k *= p - 1
        for r, _ in _squarefree_divisors(q):
            base = k * k * r
            if base > t:
                continue
            for ell in range(1, t // base + 1):
                if mu[ell - 1] != 0 and math.gcd(ell, q * k) == 1:
                    total += Fraction(phi_k, k * ell)
    return total


def check_majorstar2(q_set=(1, 2, 6, 30), X_max: int = 100_000) -> BoundReport:
    """Check |r2*(X; q)| <= 2.18 j1*(q) / sqrt(X) at every jump point X <= X_max.

    r2* is a step function of X, and the envelope decreases, so checking at
    integers from the left endpoint covers all real X >= 1.
    """
    if not q_set:
        raise ValueError("empty domain: no q")
    for q in q_set:
        require_squarefree(q)
    w = _cubefree_weights(X_max)
    # Per q: H_q(1), the envelope's scale, sum g_q(m)/m so far, the worst ratio.
    sweeps = [(q, h_q(q), _R_ENVELOPE * j1_star(q), _RunningSum(), _RunningMax(0.0))
              for q in q_set]
    for lo, hi in _blocks(1, X_max + 1):
        n = np.arange(lo, hi, dtype=np.float64)
        inv, root = 1.0 / n, np.sqrt(n)
        for q, hq, scale, partial, top in sweeps:
            partials = partial.cumsum(_q_weights(w, q, lo, hi, True) * inv)
            r2_abs = np.abs(hq.mid - partials) + 0.5 * hq.width
            top.feed(r2_abs / (scale / root), lo, q)
    return BoundReport.held_to(
        "r2-envelope", f"q in {tuple(q_set)}, X <= {X_max}",
        _first_max(s[-1] for s in sweeps),
        {"form": f"|r2*(X;q)| <= {_R_ENVELOPE} j1*(q)/sqrt(X)"})


def scan_majorstar(X_max: int = 1_000_000, q_set=(1, 2, 3, 6, 30, 210)) -> BoundReport:
    """Sweep the r1* envelopes over all jump points.

    Checks, for each q: r1*(X) <= 2.18 sqrt(X) j1*(q) for X <= X_max;
    r1*(X) <= 0.931 sqrt(X) j1*(q) + 1.96 X^(1/4) j5*(q); and the sharper
    r1*(X) <= 1.17 sqrt(X) j1*(q) when all prime factors of q are below 30.
    r1* jumps up only at integers and the envelopes increase, so integer
    arguments are the extremal real points.

    One block of X serves every q.  Each (form, q) keeps its own worst
    ratio, and the forms' worst are the first maxima in q order, as if the
    q were swept one after another.  r1* never falls and each envelope
    rises with X, so r1* at the block's last X over the envelope at its
    first bounds a block.  A block is skipped when that bound does not
    exceed the largest worst ratio of this q and those before it: it could
    then never be the first maximum.  A later q must not set that bar,
    since on a tie the earlier q wins.
    """
    general, mixed, sharp = f"{_R_ENVELOPE}", "0.931+1.96", f"{_R1_SMALL}"
    if not q_set:
        raise ValueError("empty domain: no q")
    for q in q_set:
        require_squarefree(q)
    w = _cubefree_weights(X_max)
    # Per q: its last X, j1*, j5*, whether the sharp form applies, r1* so far,
    # and the worst ratio of each form.
    sweeps = [(q, X_max if q < 100 else min(X_max, 100_000), j1_star(q), j5_star(q),
               all(p < _SMALL_PRIMES_BELOW for p in prime_divisors(q)), _RunningSum(),
               {form: _RunningMax(0.0) for form in (general, mixed, sharp)})
              for q in q_set]
    for lo, hi in _blocks(1, X_max + 1):
        n = np.arange(lo, hi, dtype=np.float64)
        sq, quart = np.sqrt(n), n ** 0.25
        for i, (q, limit, j1, j5, small, r1, top) in enumerate(sweeps):
            b = min(hi, limit + 1) - lo
            if b <= 0:
                continue
            r = r1.cumsum(_q_weights(w, q, lo, lo + b, False))
            # Each form's envelope at X = lo..lo+k-1.
            envelopes = {general: lambda k: _R_ENVELOPE * sq[:k] * j1,
                         mixed: lambda k: 0.931 * sq[:k] * j1 + 1.96 * quart[:k] * j5}
            if small:
                envelopes[sharp] = lambda k: _R1_SMALL * sq[:k] * j1
            for form, env in envelopes.items():
                bar = _first_max(s[-1][form] for s in sweeps[: i + 1])
                if bar.could_rise(r[-1] / env(1)[0]):
                    top[form].feed(r / env(b), lo, q)
    worst = {form: _first_max(s[-1][form] for s in sweeps) for form in (general, mixed, sharp)}
    return BoundReport.held_to(
        "r1-envelopes", f"q in {tuple(q_set)}, X <= {X_max} (1e5 for q > 100)",
        _first_max(worst.values()),
        {k: {"worst_ratio": v.value, "worst_arg": v.arg} for k, v in worst.items()})


# ----------------------------------------------------------------------
# The cubic tail sum sum_{k >= K, (k, M) = 1} mu(k) phi(k) / k^3.

def _cubic_terms(cutoff: int, M: int) -> np.ndarray:
    """mu(k) phi(k) / k^3 for k = 1..cutoff (index k - 1), 0 unless (k, M) = 1;
    k * k * k is exact while k^3 < 2^53, which holds up to _AUX_K_CUTOFF."""
    block = _table(cutoff)
    k = np.arange(1, cutoff + 1, dtype=np.float64)
    return block.mu * _coprime_mask(cutoff, M) * block.phi / (k * k * k)


def aux_k_sum(K: float, M: int = 1) -> CertifiedValue:
    """Certified S(K, M) = sum_{k >= K, (k,M)=1} mu(k) phi(k) / k^3.

    Exact summation (in floats, with fsum) up to cutoff = _AUX_K_CUTOFF,
    plus a bracketing tail: each term has |mu phi / k^3| <= 1/k^2, so the
    omitted part lies in [-1/cutoff, 1/cutoff].
    """
    if K <= 0:
        raise ValueError("need K > 0")
    kmin = max(1, math.ceil(K))
    if kmin > _AUX_K_CUTOFF:
        # Everything is in the tail regime; bound by the integral comparison.
        bound = 1.0 / (kmin - 1)
        return CertifiedValue(-bound, bound)
    terms = _cubic_terms(_AUX_K_CUTOFF, M)
    terms[: kmin - 1] = 0.0
    partial = fsum_array(terms)
    tail = 1.0 / _AUX_K_CUTOFF
    return CertifiedValue(partial - tail, partial + tail)


def check_aux_k(K_max: float = 200.0) -> BoundReport:
    """Sweep K |S(K, M)| <= 1 over K in (0, K_max] step 1/4, M in (1, 30030, 6, 30, 105).

    The sup over all (K, M) equals 1, so the scan should approach but not
    exceed it (modulo the certified tail slack).
    """
    cutoff, K_step, M_set = _AUX_K_CUTOFF, 0.25, (1, 30030, 6, 30, 105)
    worst = _RunningMax(0.0)
    for M in M_set:
        terms = _cubic_terms(cutoff, M)
        # suffix[j] = sum over k >= j, for j = 1..cutoff+1
        suffix = np.concatenate([np.cumsum(terms[::-1])[::-1], [0.0]])
        steps = int(round(K_max / K_step))
        for i in range(1, steps + 1):
            K = i * K_step
            kmin = max(1, math.ceil(K))
            s_abs = abs(float(suffix[kmin - 1])) + 1.0 / cutoff
            worst.offer(K * s_abs, (K, M))
    return BoundReport.held_to(
        "cubic-tail-sup", f"K in (0, {K_max}] step {K_step}, M in {tuple(M_set)}",
        worst, {"form": "K |sum_{k>=K,(k,M)=1} mu phi / k^3| <= 1"})


def aux_k_band() -> BoundReport:
    """Check whether K * S(K, 1) lies in [-0.2523, -0.2519] for K in [1, 2).

    This is a literal containment test of an asserted numeric band; it is
    reported as found, with the certified values in the details.
    """
    lo, hi, grid = -0.2523, -0.2519, [1.0, 1.25, 1.5, 1.75]
    rows = []
    ok = True
    worst = 0.0
    for K in grid:
        s = aux_k_sum(K, 1)
        val_lo, val_hi = K * s.lo, K * s.hi
        inside = lo <= val_lo and val_hi <= hi
        ok = ok and inside
        mid = K * s.mid
        dist = max(lo - mid, mid - hi, 0.0)
        worst = max(worst, dist)
        rows.append({"K": K, "K_S": {"lo": val_lo, "hi": val_hi}, "inside": inside})
    return BoundReport(
        name="cubic-tail-band",
        domain="K in {1, 1.25, 1.5, 1.75}, M = 1",
        passed=ok,
        worst_ratio=worst,
        worst_arg=None,
        bound=0.0,
        details={"band": [lo, hi], "rows": rows,
                 "full_sum_product": P0_DEEP.to_dict()},
    )


# ----------------------------------------------------------------------
# Convolution identities generating g_q.

def check_convol0(N: int = 100_000) -> BoundReport:
    """Verify mu^2(d) phi(d) / d = sum_{l m = d} mu^2(l) g(m) for all d <= N.

    Both sides are multiplied by d so the comparison is exact integer
    arithmetic: d * g(m) * mu^2(l) = (d/m) * (m g(m)) with m g(m) integer.
    """
    if N > 100_000:
        raise ValueError("identity check limited to N <= 10^5")
    block = _table(N)
    bad = []
    for d in range(1, N + 1):
        fac = factorize(d)
        # Enumerate divisors m of d as exponent vectors; l = d/m must be
        # squarefree, i.e. every prime has exponent e or e-1 <= 1 in m.
        rhs = 0
        stack = [(0, 1, 1)]  # (prime index, m, m*g(m))
        while stack:
            i, m, intg = stack.pop()
            if i == len(fac):
                rhs += (d // m) * intg
                continue
            p, e = fac[i]
            # l gets exponent e - k; need e - k <= 1, so k in {e-1, e} plus
            # k = 0 when e <= 1.
            for k in range(e):
                if e - k <= 1:
                    gk = (-1) ** k * p ** (k - 1) if k >= 1 else 1
                    stack.append((i + 1, m * p ** k, intg * gk))
            stack.append((i + 1, m * p ** e, intg * ((-1) ** e) * p ** (e - 1)))
        lhs = int(block.mu[d - 1]) ** 2 * int(block.phi[d - 1])
        if rhs != lhs:
            bad.append((d, lhs, rhs))
            if len(bad) > 20:
                break
    return BoundReport(
        name="convolution-identity-squarefree-totient",
        domain=f"all d <= {N}",
        passed=not bad,
        worst_ratio=0.0 if not bad else 1.0,
        worst_arg=bad[0][0] if bad else None,
        bound=0.0,
        details={"violations": bad[:20], "checked": N},
    )


def check_convol(N: int = 100_000, q_set=(1, 2, 3, 6, 30, 210)) -> BoundReport:
    """Verify the indicator identity generating g_q, exactly, for d <= N.

    [gcd(d, q) = 1] mu^2(d) phi(d) / d equals the sum over triples (k, l, r)
    with k^2 l r | d, r | q, (kl, q) = 1, (k, l) = 1 of mu(rkl) phi(k)/(kl).
    Both sides are multiplied by d; each term is then an exact integer
    mu(rkl) phi(k) d/(kl).  Triples are enumerated by assigning each prime
    power of d a role (absent, in l, in k, or in r when p | q).  Each d is
    factored once for all q, so a failing report lists its violations
    (q, d, lhs, rhs) in order of d, then q.
    """
    if N > 100_000:
        raise ValueError("identity check limited to N <= 10^5")
    block = _table(N)
    q_primes = [(q, set(prime_divisors(q))) for q in q_set]
    bad = []
    for d in range(1, N + 1):
        fac = factorize(d)
        mu2_phi = int(block.mu[d - 1]) ** 2 * int(block.phi[d - 1])
        for q, qps in q_primes:
            # term accumulator: sign * phi(k) * d / (k l)
            rhs = 0
            stack = [(0, 1, 1, 1)]  # (idx, sign, phi_k, k*l)
            while stack:
                i, sign, phik, kl = stack.pop()
                if i == len(fac):
                    rhs += sign * phik * (d // kl)
                    continue
                p, e = fac[i]
                stack.append((i + 1, sign, phik, kl))
                if p in qps:
                    # p may only enter through r (one copy, r | q squarefree).
                    stack.append((i + 1, -sign, phik, kl))
                else:
                    # in l: one copy; in k: needs p^2 | d.
                    stack.append((i + 1, -sign, phik, kl * p))
                    if e >= 2:
                        stack.append((i + 1, -sign, phik * (p - 1), kl * p))
            lhs = mu2_phi if math.gcd(d, q) == 1 else 0
            if rhs != lhs:
                bad.append((q, d, lhs, rhs))
                if len(bad) > 20:
                    break
        if len(bad) > 20:
            break
    return BoundReport(
        name="convolution-identity-coprime",
        domain=f"all d <= {N}, q in {tuple(q_set)}",
        passed=not bad,
        worst_ratio=0.0 if not bad else 1.0,
        worst_arg=bad[0][:2] if bad else None,
        bound=0.0,
        details={"violations": bad[:20], "checked": N},
    )


def check_g_mean(limit: int = 1_000_000, q_set=(1, 2, 6)) -> BoundReport:
    """Check that sum_{m <= limit} g_q(m)/m approaches H_q(1).

    The partial sum should sit within the r2* envelope 2.18 j1*(q)/sqrt(limit)
    of the certified H_q(1).
    """
    if not q_set:
        raise ValueError("empty domain: no q")
    worst = _RunningMax(0.0)
    rows = []
    w, inv = _cubefree_weights(limit), _inverses(limit)
    for q in q_set:
        require_squarefree(q)
        g = _q_weights(w, q, 0, limit + 1, True)
        g *= inv
        partial = fsum_array(g)
        hq = h_q(q)
        err = abs(partial - hq.mid) + 0.5 * hq.width
        env = _R_ENVELOPE * j1_star(q) / math.sqrt(limit)
        rows.append({"q": q, "partial": partial, "H_q": hq.to_dict(), "envelope": env})
        worst.offer(err / env, q)
    return BoundReport.held_to("g-mean-value", f"m <= {limit}, q in {tuple(q_set)}",
                               worst, {"rows": rows})


# ----------------------------------------------------------------------
# Squarefree counting table.

MSQ_ROWS = ((0, 1.0), (8, 0.5), (1664, 0.1333), (82005, 0.036438), (438653, 0.02767))


def moebius_square_table_check(rows=MSQ_ROWS, X_max: int = 1_000_000) -> BoundReport:
    """Check |Q(x) - (6/pi^2) x| <= c sqrt(x) for real x in [X0, X_max + 1).

    Q(x) counts squarefree integers <= x.  On [n, n+1) the excess side is
    extremal at x = n and the deficit side as x -> (n+1)-, so each integer n
    contributes two endpoint tests.
    """
    if not rows:
        raise ValueError("empty domain: no rows")
    dens = 6.0 / math.pi ** 2
    mu = _table(X_max).mu
    # One running maximum per row whose [X0, X_max + 1) holds an integer,
    # and the side that sets it.
    worst = {i: _RunningMax() for i, (X0, _) in enumerate(rows) if int(X0) <= X_max}
    side = {}
    count = _RunningSum()
    for lo, hi in _blocks(0, X_max + 1):
        # Over n in [lo, hi): Q = Q(n), root[i] = sqrt(max(n, 1)) and
        # root[i + 1] = sqrt(n + 1); over = Q - dens n, under = dens (n + 1) - Q.
        Q = np.zeros(hi - lo, dtype=np.float64)
        a = max(lo, 1)
        Q[a - lo:] = mu[a - 1: hi - 1] != 0
        count.cumsum(Q)
        x = np.arange(lo, hi + 1, dtype=np.float64)
        root = np.sqrt(x)
        if lo == 0:
            root[0] = 1.0
        x *= dens
        over = Q - x[:-1]
        under = x[1:] - Q
        # A row's ratios are at most a largest numerator over an end of its
        # rising scale (c > 0; either end, as a numerator may be negative),
        # or 0.
        tops = (float(over.max()), float(under.max()))
        for i, top in worst.items():
            X0, c = int(rows[i][0]), rows[i][1]
            ends = (root[0] * c, root[-1] * c)
            if not top.could_rise(max(0.0, *(t / e for t in tops for e in ends))):
                continue
            scale = root * c
            deficit = under / scale[1:]
            excess = np.divide(over, scale[:-1], out=scale[:-1])
            excess[: max(X0 + 1 - lo, 0)] = 0.0  # excess side applies from x = n >= X0
            deficit[: max(X0 - lo, 0)] = 0.0     # deficit side applies once n + 1 > X0
            if top.feed(np.maximum(excess, deficit), lo):
                j = top.arg - lo
                side[i] = "excess" if excess[j] >= deficit[j] else "deficit"
    results = []
    all_pass = True
    worst_overall = _RunningMax(0.0)
    for i, (X0, c) in enumerate(rows):
        if i not in worst:
            # [X0, X_max + 1) holds no integer: nothing is checked.
            results.append({"X0": X0, "c": c, "checked": False, "passed": False})
            all_pass = False
            continue
        top = worst[i]
        row_pass = bool(top.value <= 1.0)
        results.append({"X0": X0, "c": c, "checked": True, "worst_ratio": top.value,
                        "worst_arg": top.arg, "side": side[i], "passed": row_pass})
        all_pass = all_pass and row_pass
        worst_overall.offer(top.value, (X0, top.arg))
    unchecked = [r["X0"] for r in results if not r["checked"]]
    return BoundReport(
        name="squarefree-count-table",
        domain=f"real x up to {X_max + 1}" + (
            f"; rows X0 = {unchecked} unchecked (X0 > {X_max})" if unchecked else ""),
        passed=all_pass,
        worst_ratio=worst_overall.value,
        worst_arg=worst_overall.arg,
        bound=1.0,
        details={"rows": results},
    )


# ----------------------------------------------------------------------
# Starting bound for the plain squarefree totient partial sum.

def init_bound_check(X_max: int = 1_000_000) -> BoundReport:
    """Check sum_{d <= X} mu^2(d) phi(d)/d <= A X + (1 - A) sqrt(X).

    Also verifies that the max of (sum - A X)/sqrt(X) over integers is
    attained at X = 1 with value 1 - A.  The A enclosure is applied on the
    adverse side at every X > 1, so the verdict is rigorous despite A being
    known only to an interval; at X = 1 the bound holds with equality for
    every A, and its ratio is recorded as exactly 1.
    """
    block = _table(X_max)
    S_run = _RunningSum()
    worst = _RunningMax()
    at_2 = None
    for lo, hi in _blocks(1, X_max + 1):
        d = np.arange(lo, hi, dtype=np.float64)
        mu = block.mu[lo - 1: hi - 1]
        S = S_run.cumsum(mu * mu * block.phi[lo - 1: hi - 1] / d)
        # Rigorous upper bound on (S - A X)/((1-A) sqrt(X)) for the true A.
        ratios = (S - A_DEEP.lo * d) / ((1.0 - A_DEEP.hi) * np.sqrt(d))
        if lo == 1:
            ratios[0] = 1.0  # the identity 1 = A + (1 - A), for every A
            attained = float((S[0] - A_DEEP.mid) / (1.0 - A_DEEP.mid))
        worst.feed(ratios, lo)
        if lo <= 2 < hi:
            at_2 = float(ratios[2 - lo])
    # The ratio 1 at X = 1 is the first maximum exactly when the bound holds.
    return BoundReport.held_to(
        "totient-sum-start-bound", f"integer X <= {X_max}", worst,
        {"max_location": worst.arg,
         "value_at_1": attained,
         "one_minus_A_cap": 0.572,
         "cap_holds": bool(1.0 - A_DEEP.lo <= 0.572),
         "ratio_at_2": at_2})


# ----------------------------------------------------------------------
# Averaged-divisor identity (the engine behind the asymptotic).

def check_averaged_divisor_identity(D_values=(10, 100, 1000),
                                    tail_limit: int = 1_000_000) -> BoundReport:
    """Direct numeric test of the averaged divisor-sum identity.

    For a sequence g with absolutely convergent sum g(m) log m / m, setting
    G#(x) = sum_{m > x} g(m)/m and eta = e^gamma:

      sum_{n <= D} (g * 1)(n)/n  =  sum_m (g(m)/m)(log(D/m) + gamma)
                                  + int_{eta D}^inf G#(t) dt/t
                                  + O*((1/D) int_1^eta sum_{m <= u D} |g(m)| du/u).

    The identity holds for any absolutely summable sequence, so the check
    applies it to g = g_1 truncated at tail_limit: every term on the right is
    then a finite sum (G# vanishes beyond the truncation and is constant
    between integers, so the integral is stepwise exact), the left side is
    unchanged for D below the truncation, and the residual must land inside
    the O* budget with no analytic slack.  The only allowance is floating
    point roundoff, scaled by the absolute mass that was summed.
    """
    g = g_coefficients(tail_limit)
    gm = g * _inverses(tail_limit)
    partials = np.cumsum(gm)
    total = float(partials[-1])
    absg = np.cumsum(np.abs(g))
    eta = math.exp(EULER_GAMMA)
    rows = []
    worst = _RunningMax(0.0)
    for D in D_values:
        if eta * D >= tail_limit:
            raise ValueError("tail_limit must exceed eta * max(D_values)")
        # Left side via divisor sums of g up to D (the truncation agrees
        # with g on every m that can divide an n <= D).
        conv = np.zeros(D + 1, dtype=np.float64)
        for m in range(1, D + 1):
            if g[m] != 0.0:
                conv[m:: m] += g[m]
        lhs_terms = conv[1:] / np.arange(1, D + 1)
        lhs = fsum_array(lhs_terms)
        # Main term, a finite sum for the truncated sequence.
        logs = np.log(float(D)) - np.log(np.arange(1, tail_limit + 1, dtype=np.float64))
        main_terms = gm[1:] * (logs + EULER_GAMMA)
        main = fsum_array(main_terms)
        # Integral of G#(t)/t over [eta D, tail_limit]; beyond the
        # truncation G# is identically zero.
        a = eta * D
        t1s = np.arange(math.floor(a) + 1, tail_limit + 1, dtype=np.float64)
        t0s = np.concatenate([[a], t1s[:-1]])
        gs = total - partials[np.floor(t0s).astype(np.int64)]
        step_terms = gs * (np.log(t1s) - np.log(t0s))
        integral = fsum_array(step_terms)
        # Error budget of the identity: (1/D) int_1^eta sum_{m<=uD} |g| du/u,
        # stepwise exact in u.
        err_budget = []
        u0 = 1.0
        m0 = math.floor(D)
        for m in range(m0 + 1, math.floor(eta * D) + 1):
            u1 = m / D
            err_budget.append(float(absg[m - 1]) * math.log(u1 / u0))
            u0 = u1
        err_budget.append(float(absg[math.floor(eta * D)]) * math.log(eta / u0))
        o_star = math.fsum(err_budget) / D
        resid = lhs - main - integral
        mass = (float(np.sum(np.abs(lhs_terms)))
                + float(np.sum(np.abs(main_terms)))
                + float(np.sum(np.abs(step_terms))))
        slack = 1e-12 * (mass + 1.0)
        ratio = (abs(resid) + slack) / o_star
        rows.append({"D": D, "lhs": lhs, "main": main, "integral": integral,
                     "residual": resid, "o_star": o_star, "slack": slack,
                     "ratio": ratio})
        worst.offer(ratio, D)
    return BoundReport.held_to(
        "averaged-divisor-identity", f"D in {tuple(D_values)}, q = 1", worst, {"rows": rows})
