"""weylrec: recurrent Lorentzian Weyl structures.

Local normal forms, jet-based curvature verification (recurrence, holonomy,
conformal flatness, Einstein-Weyl), rational differential invariants,
signature-curve equivalence, and symmetry/cohomogeneity classification.
"""

__version__ = "0.1.0"

from .exprlang import ExprDomainError, ExprSyntaxError, SourceSpan, eval_jet, eval_number, parse
from .jets import JetDomainError, JetPoly, JetShapeError
from .tensor import (
    Chart,
    Connection,
    HolonomyReport,
    PointTensor,
    RecurrenceReport,
    WeylStructure,
    conformal_weyl_tensor,
    holonomy_span_dim,
    make_structure,
    recurrence_theta,
    weyl_compatibility_residual,
    weyl_connection,
)
from .catalog import (
    CatalogEntry,
    CatalogError,
    make_3d_case1,
    make_3d_case2,
    make_dim_ge4,
    make_homogeneous_model,
    make_mainth_form,
    standard_catalog,
)
from .invariants import (
    EquivalenceVerdict,
    PairJet,
    PsiJet,
    SignatureCurve,
    SingularStratumError,
    derived_invariant,
    equivalence_test,
    pair_invariants,
    pair_signature_curve,
    psi_invariants,
    psi_signature_curve,
    surface_derived_pair,
    surface_invariants,
    surface_signature_curve,
)
from .symmetry import (
    ClassificationResult,
    SymmetryKernel,
    classify_3d2,
    classify_psi,
    kernel_3d2,
    psi_symmetry_kernel,
)
from .einsteinweyl import EWReport, dkp_residual, ew_residual, ricci_sym
