"""Exception types shared across the package.

The CLI maps these onto exit codes: InvalidConfig -> 2, DataError
(ParseError and EmptyInput included) -> 3, NumericalError and every other
TailwiseError -> 4. BadK, an InvalidConfig, is raised only when a caller
passes `hill_alpha` a k outside the spectrum; the fits never do, so no
command raises it. A layer whose spectral summary raises a DataError or
NumericalError does not fail a command: it is excluded from the plan and
follows the global schedule at eta.

Every class either reaches a command's output (the stderr record, or the
"error" field of an `analyze` layer) or guards a public function's input.
"""


class TailwiseError(Exception):
    pass


class DataError(TailwiseError):
    """Malformed or unusable input data."""


class NumericalError(TailwiseError):
    """Numerical failure during analysis or training."""


class InvalidConfig(TailwiseError):
    """A configuration object violates its invariants."""


# -- spectral --------------------------------------------------------------

class NonFiniteInput(NumericalError):
    pass


# -- tail fitting ----------------------------------------------------------

class BadK(InvalidConfig):
    """A requested tail size k does not fit the spectrum."""


class ZeroCutoff(NumericalError):
    pass


class TooFewEigenvalues(DataError):
    pass


# -- allocation ------------------------------------------------------------

class EmptyInput(DataError):
    """Nothing to allocate over: no layer could be fitted."""


class InfiniteAlpha(NumericalError):
    pass


class NonPositiveLog(NumericalError):
    pass


# -- scheduling ------------------------------------------------------------

class StepOutOfRange(TailwiseError):
    pass


class UnknownLayer(TailwiseError):
    pass


class NonMonotonicStep(TailwiseError):
    pass


# -- training --------------------------------------------------------------

class TokenOutOfRange(DataError):
    pass


class ShapeMismatch(TailwiseError):
    pass


class DivergedLoss(NumericalError):
    """Training loss became non-finite at ``step``.

    Only the train command raises it, after writing the run's outputs:
    run_training returns a diverged run instead.
    """

    def __init__(self, step: int):
        super().__init__(f"loss became non-finite at step {step}")


# -- manifests -------------------------------------------------------------

class ParseError(DataError):
    pass


class ByteRangeError(DataError):
    pass
