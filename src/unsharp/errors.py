"""Exception types raised by validation routines."""


class ValidationError(ValueError):
    """An operator, vector or POVM fails a structural invariant."""


class NotFinite(ValidationError):
    """Array holds a NaN or infinite entry."""


class NotHermitian(ValidationError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotPositive(ValidationError):
    """Operator has an eigenvalue below the positivity tolerance."""


class TraceNotOne(ValidationError):
    """Operator trace deviates from 1 beyond tolerance."""


class NotNormalized(ValidationError):
    """Vector norm deviates from 1 beyond tolerance."""


class NotOrthonormal(ValidationError):
    """Vector set fails pairwise orthonormality beyond tolerance."""


class EigenvalueAboveOne(ValidationError):
    """POVM effect has an eigenvalue above 1 beyond tolerance."""


class CompletenessViolated(ValidationError):
    """POVM effects do not sum to the identity within tolerance."""


class DimensionMismatch(ValidationError):
    """Operands live in Hilbert spaces of different dimension."""


class ParseError(ValueError):
    """A JSON document does not match the expected schema."""


class DegenerateDraw(RuntimeError):
    """Random generator failed to produce a usable draw after retries."""
