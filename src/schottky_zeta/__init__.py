"""Resonances of Schottky hyperbolic surfaces and their Hecke congruence
covers via twisted and refined transfer operators."""

__version__ = "0.1.0"

from .schottky import (
    Disk,
    DistortionReport,
    GroupValidationError,
    Moebius,
    Partition,
    PartitionError,
    SchottkyGroup,
    Word,
    distortion_report,
    gamma_m,
    named_group,
    validate_group,
)
from .reps import UnitaryRep, direct_sum, trivial_rep
from .transfer import (
    HSPrimeSumRecord,
    HSRecord,
    TransferMatrix,
    assemble_refined,
    assemble_standard,
    bergman_kernel,
    hs_norm_integral,
    hs_norm_matrix,
    hs_prime_sum,
)
from .zeta import (
    PrimitiveClass,
    ZeroReport,
    count_zeros_rect,
    delta,
    euler_product,
    jensen_bound,
    new_eigenvalue_count,
    primitive_classes,
    real_zeros,
    refined_zeta,
    zeta_det,
)
from .congruence import (
    NormCheckReport,
    congruence_norm_check,
    coset_perm,
    reduce_mod,
    rep_lambda_p,
    rep_lambda_p0,
    surjective_mod_p,
    trace_bruteforce,
    trace_formula,
)
from .arithmetic import CharSumRecord, char_sum, kronecker, primes_between
