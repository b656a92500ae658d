"""Exception taxonomy shared by all modules, and the number rules for arguments.

Every error carries a short machine-readable ``code`` and an ``exit_code``
used by the command line front end: 2 for bad input, 3 for numerical
failures, 4 for internal consistency violations.

The number rules _integer, _positive and _finite check every integer and
real argument; a bool, a string or None is refused, never coerced, and so
is an int beyond the float range.
"""

from __future__ import annotations

import math
import numbers


class StieltjesSpecError(Exception):
    """Base class for all package errors."""

    code = "ERROR"
    exit_code = 1

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context


# ---------------------------------------------------------------------------
# input errors (exit code 2)


class InputError(StieltjesSpecError):
    code = "INPUT"
    exit_code = 2


class MeasureFormatError(InputError):
    """Measure violates a structural invariant (overlap, ordering, range)."""

    code = "MEASURE_FORMAT"


class MeasureParseError(InputError):
    """Measure file or literal could not be parsed."""

    code = "MEASURE_PARSE"


class UnsupportedMeasureError(InputError):
    """Operation requires a restricted measure class (e.g. purely atomic)."""

    code = "MEASURE_UNSUPPORTED"


class BadArgumentError(InputError):
    code = "BAD_ARGUMENT"


class UnsupportedMultiplicityError(InputError):
    """A geometrically double eigenvalue, where a simple one is required.

    eigenfunction raises it when the pairing matrix vanishes, so no single
    eigenfunction exists; the sensitivity formulas raise it for a record
    that is not simple.
    """

    code = "MULTIPLICITY_UNSUPPORTED"


# ---------------------------------------------------------------------------
# numerical failures (exit code 3)


class NumericalError(StieltjesSpecError):
    code = "NUMERICAL"
    exit_code = 3


class ConvergenceError(NumericalError):
    """Iteration budget exhausted before reaching the requested tolerance."""

    code = "NO_CONVERGENCE"


class QuadratureError(NumericalError):
    code = "QUADRATURE"


class MeshRefinementError(NumericalError):
    code = "MESH_REFINEMENT"


class ThresholdRangeError(NumericalError):
    """Counting threshold overflows double range; scan mode must be used."""

    code = "THRESHOLD_RANGE"


class ContourResolutionError(NumericalError):
    """Winding number did not stabilise on the zero-counting contour."""

    code = "CONTOUR_RESOLUTION"


class RootSearchError(NumericalError):
    """Eigenvalue tracking lost the root inside its localization window."""

    code = "EIG_TRACKING"


# ---------------------------------------------------------------------------
# internal inconsistencies (exit code 4)


class InternalCheckError(StieltjesSpecError):
    code = "INTERNAL"
    exit_code = 4


class DeterminantError(InternalCheckError):
    """Fundamental matrix determinant drifted away from 1."""

    code = "DET_DRIFT"


class ConjugateMismatchError(InternalCheckError):
    """The two routes to the characteristic value disagree."""

    code = "CONJUGATE_MISMATCH"


class SpectrumConsistencyError(InternalCheckError):
    """Root count from scanning disagrees with the contour count."""

    code = "SPECTRUM_COUNT"


# ---------------------------------------------------------------------------
# number rules


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    """A real, not a bool, whose float value is finite."""
    if not _is_real(value):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int (or fraction) beyond the float range
        return False


def _shown(value) -> str:
    """repr(value) for a refusal, which str() refuses for huge ints."""
    try:
        return repr(value)
    except ValueError:  # an int beyond the digit limit of str()
        return "a number too long to print"


def _integer(value, what: str, error: type[InputError] = BadArgumentError) -> int:
    if not (_is_finite_real(value) and value == int(value)):
        raise error(f"{what} must be an integer, got {_shown(value)}")
    return int(value)


def _positive(value, what: str) -> float:
    if not (_is_finite_real(value) and value > 0.0):
        raise BadArgumentError(f"{what} must be positive and finite, got {_shown(value)}")
    return float(value)


def _finite(value, what: str) -> float:
    if not _is_finite_real(value):
        raise BadArgumentError(f"{what} must be finite, got {_shown(value)}")
    return float(value)
