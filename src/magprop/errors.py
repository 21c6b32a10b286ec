"""Exception hierarchy.

Two families matter downstream: validation errors (bad arguments, excluded
parameter regions) and numerical failures (a computation that was attempted
and did not succeed). The CLI maps them to exit codes 2 and 3 respectively.
``check_memory`` holds the one working-set budget that every entry point
checks its size against before it allocates.
"""

__all__ = [
    "MagpropError",
    "ValidationError",
    "CausticError",
    "DegeneratePinningError",
    "NumericalError",
    "SingularOperatorError",
    "IllConditionedError",
    "ConvergenceError",
    "AdjudicationError",
    "MEMORY_BUDGET",
    "check_memory",
]


class MagpropError(Exception):
    """Base class for everything raised deliberately by this package."""


class ValidationError(MagpropError, ValueError):
    """An argument or query violates a documented precondition."""


class CausticError(ValidationError):
    """The requested time sits too close to a focal time where cos(kt) = 0."""


class DegeneratePinningError(ValidationError):
    """The pinning matrix fails its positivity/nondegeneracy condition."""


class NumericalError(MagpropError, RuntimeError):
    """A numerical procedure failed or refused to certify its result."""


class SingularOperatorError(NumericalError):
    """A linear solve hit an (effectively) singular operator."""


class IllConditionedError(NumericalError):
    """Reciprocal condition estimate below the trust threshold."""


class ConvergenceError(NumericalError):
    """An extrapolation did not settle within its budget."""


class AdjudicationError(NumericalError):
    """The variant adjudication did not produce a unique winner."""


# Working-set estimates over this many bytes are refused before allocating.
MEMORY_BUDGET = 1 << 30


def check_memory(what: str, nbytes: float) -> None:
    """Raise ValidationError, naming what and the estimate, when nbytes is
    over MEMORY_BUDGET."""
    if nbytes > MEMORY_BUDGET:
        raise ValidationError(
            f"{what} would take about {nbytes / 2**20:.0f} MiB, over the "
            f"{MEMORY_BUDGET / 2**20:.0f} MiB budget"
        )
