"""Exception types shared across the package."""


class ProjspecError(Exception):
    """Base class for all package-specific failures."""


class NotNormal(ProjspecError):
    """Input matrix fails the normality admission test."""


class DimMismatch(ProjspecError):
    """Operands have incompatible shapes, or a matrix is not square."""


class ParseError(ProjspecError):
    """A text input does not conform to its file format.

    Carries 1-based ``line`` and ``col`` attributes locating the offense.
    """

    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col})" if col is not None else ")")
        super().__init__(message + loc)
        self.line = line
        self.col = col


class NoConvergence(ProjspecError):
    """An iteration exhausted its budget without meeting its tolerance."""


class InterpolationFailure(ProjspecError):
    """Recovered polynomial coefficients fail the evaluation self-check."""


class DegreeBudgetExceeded(ProjspecError):
    """Matrix dimension exceeds the bivariate degree budget."""


class DegenerateInput(ProjspecError):
    """Polynomial violates the normalization p(0,0) = 1."""


class NumericalAmbiguity(ProjspecError):
    """Neither a line factorization nor an off-line witness could be certified."""


class LevelTooLarge(ProjspecError):
    """Requested truncation level would materialize an oversized operator."""


class InvalidEpsilon(ProjspecError):
    """Escape-radius epsilon outside the open interval (0, 1)."""


class NotCommuting(ProjspecError):
    """A pair or tuple does not commute cleanly: its commutator norm exceeds
    the admission tolerance, or its joint eigenbasis leaves a member off
    diagonal beyond the joint-basis gate."""


class EigenvalueOnContour(ProjspecError):
    """Spectrum approaches the integration contour within the safety margin."""


class SingularResolvent(ProjspecError):
    """A resolvent solve hit an exactly singular node."""


class ContourCapturesPerturbedSpectrumBoundary(ProjspecError):
    """A perturbed operator's spectrum drifted into the contour margin."""


class LineNotInSpectrum(ProjspecError):
    """Probe points deny that the candidate line lies in the spectrum."""


class NotInvariant(ProjspecError):
    """Subspace is not invariant under the operators within tolerance."""
