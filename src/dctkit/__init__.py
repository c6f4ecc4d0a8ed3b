"""Exact-arithmetic toolkit for higher almost-split theory over prime fields.

Everything is computed with certified exact linear algebra over F_p:
bound quiver algebras, their finite-dimensional modules, approximation
theory of additive subcategories, longer exact sequences, the higher
translate, defect spaces, morphisms determined by their induced hom
image, and almost-split sequences with d+2 terms — each construction
re-verified against its defining property before it is returned.

Importing the package loads none of its modules.  Each name below, and
each module (``dctkit.artheory``, ``dctkit.repcat``, ...), is loaded on
first use, so a process pays only for the layers it runs.
"""

import sys

_LAYERS = (
    "algebra",
    "approx",
    "artheory",
    "cli",
    "config",
    "dexact",
    "errors",
    "exactlin",
    "homological",
    "repcat",
    "workspace",
)

_EXPORTS = {
    "algebra": ("BoundQuiverAlgebra", "Quiver", "build_algebra"),
    "approx": ("AddCategory", "minimal_left_approximation", "minimal_right_approximation"),
    "artheory": (
        "EndSubmodule",
        "d_almost_split",
        "determined_morphism",
        "domdim_end",
        "enumerate_indecomposables",
        "gldim_end",
        "is_d_cluster_tilting",
        "is_d_rigid",
        "is_right_X_determined",
        "right_almost_split",
        "right_determiner_check",
        "verify_ar_duality",
        "verify_defect_formula",
        "verify_tau_d_equivalence",
    ),
    "dexact": (
        "DSequence",
        "build_left_d_exact",
        "d_pullback_complete",
        "d_pushout_complete",
        "defect_contravariant",
        "defect_covariant",
        "is_contractible",
        "is_d_exact",
    ),
    "errors": (
        "CapExceeded",
        "DctError",
        "DimensionMismatch",
        "InvalidModule",
        "InvalidMorphism",
        "InvalidSubmodule",
        "NotAdmissible",
        "VerificationFailed",
        "WorkspaceError",
    ),
    "exactlin": ("Matrix", "PrimeField"),
    "homological": ("ext_dim", "gldim", "pd", "tau_d", "tau_d_minus"),
    "repcat": ("Module", "Morphism", "decompose", "hom_dim"),
}

_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}


def _layer(name):
    # The import statement's own machinery (unlike importlib.import_module)
    # is what ``python -X importtime`` reports.
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    """Load a re-exported name or a module on first access (PEP 562)."""
    if name in _HOME:
        value = getattr(_layer(_HOME[name]), name)
    elif name in _LAYERS:
        value = _layer(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_LAYERS))


__version__ = "0.1.0"

__all__ = sorted(_HOME) + ["__version__"]
