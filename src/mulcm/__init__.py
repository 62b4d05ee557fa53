"""Certified computation and verification toolkit for the squarefree
lcm-weighted double sum S(X) = sum_{d1, d2 <= X} mu(d1) mu(d2) / lcm(d1, d2)
and the explicit constants entering its upper bound.

Layout:

* sieve: segmented multiplicative sieves (mu, phi), the segmented prime
  sieve, and the one process-wide arithmetic table the other modules read;
* mertens: weighted Moebius partial sums m(y), coprime variants, and
  their proven envelopes;
* products: certified Euler products, prime tail estimates, and the named
  constants (A, H weights, shift constants c_q);
* gstar: the coprime totient mean G*_q and its remainder terms r1*, r2*,
  plus the identity and table checks that feed the main argument;
* sigma: S(X) by several independent routes and the windowed scan engine;
* assembly: the final bound engine combining main terms, remainders, and
  the tail estimate into the theorem table;
* cli: the `mulcm` command.
"""

from .report import BoundReport, CertifiedValue, RunManifest
from .numutil import BudgetError, adaptive_simpson, quad_checked, quad_log
from .sieve import (
    MultiplicativeBlock,
    factorize,
    primes_upto,
    radical,
    sieve_range,
    squarefree_count,
)
from .mertens import (
    check_envelope_coprime,
    check_envelope_log,
    check_envelope_sqrt,
    envelope_coprime,
    g0_factor,
    g1_factor,
    m,
)
from .products import (
    A_DEEP,
    P0_DEEP,
    aux_asymptotic_check,
    aux_ratio_scan,
    build_registry,
    c_q,
    c_q_prerewrite,
    check_cq_forms,
    check_h_caps,
    check_prime_tail,
    constant_A,
    h_linear,
    h_q,
    h_twothirds,
    j1_star,
    j5_star,
    prime_tail_bound,
    universal_log_sum,
)
from .gstar import (
    aux_k_band,
    aux_k_sum,
    check_aux_k,
    check_averaged_divisor_identity,
    check_convol,
    check_convol0,
    check_g_mean,
    check_gstar_contract,
    check_gstar_difference,
    check_majorstar2,
    gstar_asymptotic,
    gstar_exact,
    init_bound_check,
    moebius_square_table_check,
    r1_star,
    scan_majorstar,
)
from .sigma import (
    ScanResult,
    check_landau,
    drift_report,
    landau_coprime_m,
    scan_report,
    sigma_bruteforce,
    sigma_coprime_trace,
    sigma_pairs_trace,
    sigma_scan,
    sigma_trace_exact,
    sigma_via_gstar_identity,
)
from .assembly import (
    AssemblyConfig,
    le1_verify,
    le2_verify,
    tail_audit,
    tail_bound,
    tail_desk_check,
    theorem_bound,
    theorem_table,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
