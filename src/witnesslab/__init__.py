"""witnesslab: exact bad-witness counts for compositeness tests.

Covers the Fermat and Miller-Rabin tests, a Galois test in a cyclic
ring extension of Z/nZ, and their product, with closed-form counts,
enumeration oracles, range sweeps and asymptotic-bound reports.
"""

from .numth import (
    Factorization,
    NotCoprime,
    BudgetExceeded,
    carmichael_lambda,
    euler_phi,
    factorize,
    is_perfect_power,
    is_prime,
    lcm_range,
    L_of,
    mult_order,
    two_adic_split,
    unity_root_count,
)
from .witness import (
    brute_F,
    brute_MR,
    count_F,
    count_MR,
    fermat_witness,
    is_carmichael,
    mr_witness,
)
from .galois import (
    InvalidConductor,
    NoConductor,
    PerfectPower,
    PrimeLocalData,
    RingDescriptor,
    brute_Gal,
    cofactor_k,
    count_D,
    count_Gal,
    count_H,
    find_conductor,
    galois_test,
    invertibility,
    local_data,
    ring_mul,
    ring_pow,
    sigma_apply,
    unit_count,
)
from .product import StrongerVerdict, count_Str, stronger_test
from .analysis import (
    AdversarialConfig,
    AdversarialOutcome,
    BoundsReport,
    FixedEll,
    NoQFound,
    SmallestEll,
    SweepAggregate,
    SweepRecord,
    adversarial_generate,
    adversarial_pool,
    compare_bounds,
    eval_c1,
    eval_c3,
    examine,
    sweep,
)
from .rng import CounterRng

__version__ = "0.1.0"
