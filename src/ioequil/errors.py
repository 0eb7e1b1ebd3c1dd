"""Exception hierarchy for ioequil.

Every error descends from one of three roots, one per CLI exit class:

- input: ``ParseError`` (malformed files or arguments) and ``BalanceError``
  (a loaded table breaks an accounting identity), exit 2;
- hypothesis: ``HypothesisViolatedError`` (the data violate a model
  hypothesis the operation needs), exit 1;
- numerical: ``NumericalError`` (an algorithm failed to reach its
  tolerance), exit 3.

``PipelineError`` wraps a component error with its stage and takes the
class of its cause.
"""

from __future__ import annotations


class ModelError(Exception):
    """Base class for all errors raised by this package."""


# --- input ----------------------------------------------------------------

class ParseError(ModelError):
    """Malformed tabular input."""


class BalanceError(ModelError):
    """An accounting identity of a loaded table fails beyond tolerance."""


# --- model hypotheses -----------------------------------------------------

class HypothesisViolatedError(ModelError):
    """A mathematical hypothesis needed by the operation does not hold."""


class DecomposableError(HypothesisViolatedError):
    """Matrix support graph is not strongly connected."""


class DecomposableMinorError(DecomposableError):
    """Principal minor on the binding set is decomposable."""


class DegenerateGeneratorsError(HypothesisViolatedError):
    """Generator set is linearly dependent."""


class NotInteriorError(HypothesisViolatedError):
    """No admissible column subset places the target inside its cone."""


class NotInConeError(HypothesisViolatedError):
    """A supply column lies outside the demand cone."""

    def __init__(self, column: int, message: str | None = None):
        self.column = column
        super().__init__(message or f"column {column} lies outside the demand cone")


class SupportViolationError(HypothesisViolatedError):
    """A solution restricted to the binding set cannot carry support prices."""


class ZeroColumnError(HypothesisViolatedError):
    """A direct-cost column is identically zero."""


class ZeroValueAddedError(HypothesisViolatedError):
    """A sector has non-positive gross value added; ``sector`` is its 0-based index."""

    def __init__(self, sector: int, message: str):
        self.sector = sector
        super().__init__(message)


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
