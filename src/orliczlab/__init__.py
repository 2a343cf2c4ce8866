"""Numerical laboratory for twisted Orlicz algebras on discrete groups.

Young-function calculus, word-length geometry and weights, 2-cocycles,
Orlicz norms of finitely supported vectors, twisted convolution with its
duality and splitting identities, and a deterministic verification
harness tying them together.
"""

from .algebra import (
    SplitFactors,
    associativity_residual,
    augmentation,
    convolve,
    duality_residual,
    eta,
    l1_bound_gap,
    lambda_transform,
    module_action_left,
    module_action_right,
    splitting_residual,
    submultiplicativity_probe,
    twisted_convolve,
    unit_check,
    xi,
    zeta,
)
from .cocycles import (
    Cocycle,
    DecompositionWitness,
    bilinear_phase,
    coboundary_from_weight,
    cocycle_identity_residual,
    decomposition_witness,
    normalization_residual,
    perturbed,
    polar_decompose,
    product_cocycle,
    sup_norm_estimate,
    trivial_cocycle,
)
from .errors import OrliczLabError
from .groups import (
    Group,
    Weight,
    polynomial_weight,
    product_weight,
    subexp_log_weight,
    subexp_weight,
    trivial_weight,
    weight_axioms_report,
)
from .harness import (
    REGISTRY,
    SUITE_ORDER,
    SuiteConfig,
    VerificationRecord,
    emit_report,
    run_all,
    run_suite,
)
from .space import (
    MembershipReport,
    OrliczVector,
    VectorBatch,
    holder_gaps,
    luxemburg_norm,
    luxemburg_norms,
    membership_diagnostic,
    modular,
    orlicz_norm,
    orlicz_norms,
    random_vector,
    random_vectors,
    weighted_norms,
)
from .young import (
    ComplementaryPair,
    Delta2Result,
    EquivalenceResult,
    Tolerances,
    YoungFunction,
    build_from_generator,
    catalog_names,
    catalog_pair,
    conjugate,
    delta2_estimate,
    strong_equivalence,
    young_gap,
)

__version__ = "0.1.0"
