"""Constrained prime sets: construction, search and statistical checks.

The package has three layers.  `prime_engine`, `gaussian_split` and
`diagonal_curve` build the raw sets (primes, sums of two squares with
bounded angle, small Frobenius traces on diagonal curves).  `measures` and
`equidist_stats` test those sets against their predicted limiting laws.
`tuples`, `maynard_sieve` and `gap_search` run the finite combinatorics
behind bounded-gap arguments on top of any of the sets.
"""

from .diagonal_curve import (
    CacheFormatError,
    CurveSpec,
    TraceRecord,
    TraceStore,
    count_affine_charsum,
    count_affine_naive,
    curve_new,
    curve_primes,
    eps_interval,
    in_P_CI,
    load_trace_cache,
    save_trace_cache,
    trace,
)
from .equidist_stats import (
    BVRow,
    BVTable,
    SetSpec,
    all_primes_set,
    bv_decay,
    bv_table,
    curve_set,
    erdos_turan_bound,
    ks_distance,
    peps_set,
)
from .gap_search import ScanReport, record_gaps, scan_tuple
from .gaussian_split import (
    SplitPrime,
    canonical_split,
    cornacchia,
    in_P_eps,
    peps_cut,
    split_range,
    theta_of,
)
from .maynard_sieve import (
    SieveBasis,
    VariationalResult,
    build_forms,
    dhl_m,
    optimize_Mk,
    rayleigh_quotient,
    sieve_basis,
    simplex_integral,
)
from .measures import (
    Measure,
    arcsine,
    atom,
    cdf,
    cm_mixture,
    density_P_eps,
    empirical,
    mass,
    uniform01,
)
from .prime_engine import count_primes, is_prime, prime_count, primes_in
from .tuples import AdmissibleTuple, is_admissible, make_tuple, narrow_tuple

__version__ = "0.1.0"

__all__ = [
    "AdmissibleTuple",
    "BVRow",
    "BVTable",
    "CacheFormatError",
    "CurveSpec",
    "Measure",
    "ScanReport",
    "SetSpec",
    "SieveBasis",
    "SplitPrime",
    "TraceRecord",
    "TraceStore",
    "VariationalResult",
    "all_primes_set",
    "arcsine",
    "atom",
    "build_forms",
    "bv_decay",
    "bv_table",
    "canonical_split",
    "cdf",
    "cm_mixture",
    "cornacchia",
    "count_affine_charsum",
    "count_affine_naive",
    "count_primes",
    "curve_new",
    "curve_primes",
    "curve_set",
    "density_P_eps",
    "dhl_m",
    "empirical",
    "eps_interval",
    "erdos_turan_bound",
    "in_P_CI",
    "in_P_eps",
    "is_admissible",
    "is_prime",
    "ks_distance",
    "load_trace_cache",
    "make_tuple",
    "mass",
    "narrow_tuple",
    "optimize_Mk",
    "peps_cut",
    "peps_set",
    "prime_count",
    "primes_in",
    "rayleigh_quotient",
    "record_gaps",
    "save_trace_cache",
    "scan_tuple",
    "sieve_basis",
    "simplex_integral",
    "split_range",
    "theta_of",
    "trace",
    "uniform01",
]
