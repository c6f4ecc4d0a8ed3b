"""Exact-arithmetic toolkit for higher almost-split theory over prime fields.

Everything is computed with certified exact linear algebra over F_p:
bound quiver algebras, their finite-dimensional modules, approximation
theory of additive subcategories, longer exact sequences, the higher
translate, defect spaces, morphisms determined by their induced hom
image, and almost-split sequences with d+2 terms — each construction
re-verified against its defining property before it is returned.
"""

from .algebra import BoundQuiverAlgebra, Quiver, build_algebra
from .approx import (
    AddCategory,
    minimal_left_approximation,
    minimal_right_approximation,
)
from .artheory import (
    EndSubmodule,
    d_almost_split,
    determined_morphism,
    domdim_end,
    enumerate_indecomposables,
    gldim_end,
    is_d_cluster_tilting,
    is_d_rigid,
    is_right_X_determined,
    right_almost_split,
    right_determiner_check,
    verify_ar_duality,
    verify_defect_formula,
    verify_tau_d_equivalence,
)
from .dexact import (
    DSequence,
    build_left_d_exact,
    d_pullback_complete,
    d_pushout_complete,
    defect_contravariant,
    defect_covariant,
    is_contractible,
    is_d_exact,
)
from .errors import (
    CapExceeded,
    DctError,
    DimensionMismatch,
    InvalidModule,
    InvalidMorphism,
    InvalidSubmodule,
    NotAdmissible,
    VerificationFailed,
    WorkspaceError,
)
from .exactlin import Matrix, PrimeField
from .homological import ext_dim, gldim, pd, tau_d, tau_d_minus
from .repcat import Module, Morphism, decompose, hom_dim

__version__ = "0.1.0"

__all__ = [
    "AddCategory",
    "BoundQuiverAlgebra",
    "CapExceeded",
    "DSequence",
    "DctError",
    "DimensionMismatch",
    "EndSubmodule",
    "InvalidModule",
    "InvalidMorphism",
    "InvalidSubmodule",
    "Matrix",
    "Module",
    "Morphism",
    "NotAdmissible",
    "PrimeField",
    "Quiver",
    "VerificationFailed",
    "WorkspaceError",
    "build_algebra",
    "build_left_d_exact",
    "d_almost_split",
    "d_pullback_complete",
    "d_pushout_complete",
    "decompose",
    "defect_contravariant",
    "defect_covariant",
    "determined_morphism",
    "domdim_end",
    "enumerate_indecomposables",
    "ext_dim",
    "gldim",
    "gldim_end",
    "hom_dim",
    "is_contractible",
    "is_d_cluster_tilting",
    "is_d_exact",
    "is_d_rigid",
    "is_right_X_determined",
    "minimal_left_approximation",
    "minimal_right_approximation",
    "pd",
    "right_almost_split",
    "right_determiner_check",
    "tau_d",
    "tau_d_minus",
    "verify_ar_duality",
    "verify_defect_formula",
    "verify_tau_d_equivalence",
    "__version__",
]
