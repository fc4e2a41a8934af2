"""Exact local multiplicity invariants on nodal models and theta divisors.

The library computes, in exact rational arithmetic: orders of vanishing and
leading forms of truncated power series; branch-sum multiplicities of
divisors on standard nodal local rings, cross-checked by an independent
Hilbert-Samuel oracle; contact orders of test arcs; and cohomology, theta
multiplicity, and one-parameter family invariants of rank-1 torsion-free
sheaves on integral rational nodal curves.  At a theta point ord = h0 is
derived two ways, while multJ = 2^n and multTheta = 2^n * h0 are the
paper's formula evaluated at (n, h0).
"""

from .errors import IndeterminateAtTruncation, PreconditionError, VerificationError
from .series import PowerSeries
from .parsing import parse_series
from .localmodel import (
    BranchOrder,
    LocalModel,
    ModelElement,
    branch_orders,
    branch_project,
    reduce,
)
from .multiplicity import (
    BranchSum,
    HilbertSamuelTable,
    RingSpec,
    check_eqnmat,
    hilbert_samuel,
    model_ringspec,
    mult_divisor_branchsum,
    mult_model,
)
from .arcs import (
    Arc,
    ArcSampleReport,
    MinimalArc,
    ZArcNotFound,
    arc_contact,
    make_arc,
    make_general_arc,
    minimal_arc,
    minimal_arc_through_Z,
    sample_arcs_check,
    sample_parametrized_arcs_check,
)
from .curve import (
    FamilyCohomology,
    RationalNodalCurve,
    SheafFamily,
    TFSheaf,
    ThetaReport,
    TheoremAReport,
    cohomology,
    constant_family,
    family_cohomology,
    family_contact,
    h0,
    make_minimal_family,
    theta_invariants,
    twist_by_point,
    verify_theorem_A,
)

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "ArcSampleReport",
    "BranchOrder",
    "BranchSum",
    "FamilyCohomology",
    "HilbertSamuelTable",
    "IndeterminateAtTruncation",
    "LocalModel",
    "MinimalArc",
    "ModelElement",
    "PowerSeries",
    "PreconditionError",
    "RationalNodalCurve",
    "RingSpec",
    "SheafFamily",
    "TFSheaf",
    "TheoremAReport",
    "ThetaReport",
    "VerificationError",
    "ZArcNotFound",
    "arc_contact",
    "branch_orders",
    "branch_project",
    "check_eqnmat",
    "cohomology",
    "constant_family",
    "family_cohomology",
    "family_contact",
    "h0",
    "hilbert_samuel",
    "make_arc",
    "make_general_arc",
    "make_minimal_family",
    "minimal_arc",
    "minimal_arc_through_Z",
    "model_ringspec",
    "mult_divisor_branchsum",
    "mult_model",
    "parse_series",
    "reduce",
    "sample_arcs_check",
    "sample_parametrized_arcs_check",
    "theta_invariants",
    "twist_by_point",
    "verify_theorem_A",
]
