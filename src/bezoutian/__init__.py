"""Certified Bezout-matrix symmetrizers for hyperbolic polynomials.

The library builds the Bezout matrix H of a hyperbolic polynomial p and a
separating polynomial q, certifies that H is positive semidefinite and
symmetrizes the companion matrix of p, regularizes multiple roots through
the smoothing family (1 + eps d/dx)^(m-1) p with certified root-gap floors,
verifies the uniform-in-eps quasi-symmetrizer bounds of that family, relates
H to the classical power-sum symmetrizer, and checks conservation of the
associated energy forms along companion trajectories.
"""

__version__ = "0.1.0"

from .bezout import (
    Resultant,
    bezout_matrix,
    companion_matrix,
    discriminant,
    psd_check,
    resultant,
    resultant_sign,
    separation_lower_bound_check,
    symmetrization_defect,
)
from .energy import (
    ChainBoundResult,
    EnergySeries,
    ExponentialSignal,
    Trajectory,
    chain_bound_check,
    derivative_identity_check,
    energy_series,
    propagate,
)
from .errors import (
    BackendMismatchError,
    DegreeMismatchError,
    MultipleRootError,
    NonHyperbolicError,
    NonMonicError,
    NonzeroRemainderError,
)
from .exactla import IntMatrix, PsdVerdict
from .factorization import (
    DerivativeBound,
    FactorizationBundle,
    SeparationCertificate,
    derivative_bound_constant,
    difference_product,
    factorization_bundle,
    lagrange_basis_matrix,
    lagrange_weights,
    separates,
)
from .leray import LeraySymmetrizer, h_b_relation_check, leray_symmetrizer, power_sum_matrix
from .nuij import (
    GapCheck,
    NuijFamilyPoint,
    build_family,
    certify_grid,
    default_epsilon_grid,
    gap_constant,
    invert_transform,
    nuij_family,
    nuij_inverse_coeffs,
    nuij_transform,
    verify_gaps,
)
from .polynomial import Polynomial, RootProfile, power_sums
from .quasi import (
    CommutatorParts,
    QuasiConditions,
    QuasiVerdict,
    check_conditions,
    commutator_decomposition,
    verify_quasi,
)
from .report import CertifiedReport, CheckRecord
from .roots import (
    HyperbolicityVerdict,
    is_hyperbolic,
    real_roots,
    squarefree_decomposition,
    sturm_real_root_count,
)
