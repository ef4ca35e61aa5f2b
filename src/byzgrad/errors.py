"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Matrix/vector shapes are incompatible for the requested operation."""


class SingularMatrixError(ValueError):
    """A matrix that must be invertible is not (e.g. repeated Vandermonde points)."""


class DegenerateInputError(ValueError):
    """Inputs violate a pairwise-distinctness requirement."""


class InvalidParamsError(ValueError):
    """Parameter combination outside the supported regime."""


class AssignmentMismatchError(ValueError):
    """Assignment matrix is inconsistent with the code parameters."""


class DecodeFailureError(RuntimeError):
    """No consistent codeword found; more errors present than the decoder can handle."""


class InfeasibleStateError(RuntimeError):
    """Protocol state does not admit the next required step (e.g. too few active workers)."""


class ProtocolInvariantViolation(RuntimeError):
    """An invariant the scheme guarantees was observed to fail; indicates a bug, not bad input."""


class AdversaryBudgetExceededError(RuntimeError):
    """Observed corruption is impossible within the declared adversary budget."""


class TranscriptReplayError(RuntimeError):
    """Recorded transcript is internally inconsistent under replay."""
