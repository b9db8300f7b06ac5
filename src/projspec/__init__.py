"""Point projective spectra of matrix pairs and tuples.

The zero set of det(I + zA + wB) is a union of complex lines exactly when
the normal matrices A and B commute; this package computes the determinantal
polynomial, factors it, cross-checks the geometry against commutativity, and
implements the supporting spectral machinery: eigenvalue-free sectors with
certified witness rays, escape-radius diagnostics, Riesz projections with
first-order perturbation checks, and common-eigenvector extraction.
"""

from .agmon import (
    EscapeProfile,
    SectorWitness,
    WitnessCheck,
    escape_ladder,
    escape_radius_profile,
    example_operator,
    example_spectrum,
    max_circular_gap,
    strong_agmon_check,
    verify_witness,
    witness_sequence,
)
from .commute import (
    CommonEigenbasis,
    EquivalenceReport,
    TupleReport,
    common_eigenbasis,
    equivalence_check,
    format_report,
    restriction_check,
    tuple_test,
)
from .core import (
    EigenDecomposition,
    Tolerances,
    as_cmatrix,
    commutator_norm,
    default_tolerances,
    eig_normal,
    emit_complex,
    emit_matrix,
    emit_tuple,
    frobenius,
    joint_diagonalize,
    normality_defect,
    parse_complex,
    parse_matrix,
    parse_tuple,
)
from .detpoly import (
    BivarPoly,
    char_poly_pair,
    emit_bipoly,
    parse_bipoly,
    total_degree,
    univariate_slice,
)
from .errors import (
    ContourCapturesPerturbedSpectrumBoundary,
    DegenerateInput,
    DegreeBudgetExceeded,
    DimMismatch,
    EigenvalueOnContour,
    InterpolationFailure,
    InvalidEpsilon,
    LevelTooLarge,
    LineNotInSpectrum,
    NoConvergence,
    NotCommuting,
    NotInvariant,
    NotNormal,
    NumericalAmbiguity,
    ParseError,
    ProjspecError,
    SingularResolvent,
)
from .linegeom import (
    Line,
    LineArrangement,
    LineVerdict,
    compare_arrangements,
    emit_arrangement,
    expand_arrangement,
    factor_lines,
    line_through_point,
    parse_arrangement,
    poly_roots,
)
from .riesz import (
    Contour,
    Lemma34Result,
    PerturbationReport,
    RieszResult,
    first_order_term,
    lemma34_solver,
    perturbation_check,
    riesz_projection,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
