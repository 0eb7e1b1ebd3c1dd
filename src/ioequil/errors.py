"""Exception hierarchy for ioequil.

Three intent groups matter to callers (the CLI maps them to exit codes):
input errors (bad files, unbalanced tables), analysis errors (model
hypotheses violated by the data), and numerical errors (an algorithm
failed to reach its tolerance).
"""

from __future__ import annotations


class ModelError(Exception):
    """Base class for all errors raised by this package."""


# --- input / parsing -------------------------------------------------------

class ParseError(ModelError):
    """Malformed tabular input."""


class BalanceError(ModelError):
    """An accounting identity of a loaded table fails beyond tolerance."""


# --- analysis preconditions ------------------------------------------------

class NotProductiveError(ModelError):
    """The Leontief solve ``(E - A) x = 1`` gives no positive x below ``1 / POSITIVE_TOL``."""


class DecomposableError(ModelError):
    """Matrix support graph is not strongly connected."""


class DecomposableMinorError(DecomposableError):
    """Principal minor on the binding set is decomposable."""


class DegenerateGeneratorsError(ModelError):
    """Generator set is linearly dependent."""


class NotInteriorError(ModelError):
    """No admissible column subset places the target inside its cone."""


class NotInConeError(ModelError):
    """A supply column lies outside the demand cone."""

    def __init__(self, column: int, message: str | None = None):
        self.column = column
        super().__init__(message or f"column {column} lies outside the demand cone")


class HypothesisViolatedError(ModelError):
    """A mathematical hypothesis needed by the operation does not hold."""


class SupportViolationError(HypothesisViolatedError):
    """A solution restricted to the binding set cannot carry support prices."""


class ZeroImageError(ModelError):
    """A @ y vanishes, no scale can be extracted."""


class ZeroColumnError(ModelError):
    """A direct-cost column is identically zero."""


class ZeroDenominatorError(ModelError):
    """An input-cost denominator vanishes on a supported sector."""


class ZeroValueError(ModelError):
    """The value of supply <b, p> vanishes."""


class ZeroBaseError(ModelError):
    """Least-squares base vector is zero."""


class ZeroValueAddedError(ModelError):
    """A sector has non-positive gross value added; ``sector`` is its 0-based index."""

    def __init__(self, sector: int, message: str):
        self.sector = sector
        super().__init__(message)


class BalanceInconsistentError(ModelError):
    """Value-unit column sums disagree with 1 - Delta/X."""


class ColumnSumViolationError(ModelError):
    """A value-unit column sum is not in (0, 1)."""


class BalanceViolationError(ModelError):
    """An aggregation identity fails beyond tolerance."""


# --- numerical failures ----------------------------------------------------

class NumericalError(ModelError):
    """An iterative algorithm failed to reach its tolerance."""


class NoConvergenceError(NumericalError):
    """An iteration or pivoting path hit its cap or budget before converging."""


class SolverStallError(NumericalError):
    """Active-set solver could not reduce the KKT residual."""


class PipelineError(ModelError):
    """Wraps a component error with the pipeline stage that raised it."""

    def __init__(self, stage: str, cause: ModelError):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}': {cause}")
