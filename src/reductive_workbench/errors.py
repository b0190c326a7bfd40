"""Exception types shared across the workbench."""

from __future__ import annotations


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class JacobiViolation(WorkbenchError):
    """Structure constants fail the Jacobi identity."""

    def __init__(self, i: int, j: int, k: int, defect):
        self.triple = (i, j, k)
        self.defect = defect
        rendered = ", ".join(map(str, defect))  # Fractions as p/q, not their reprs
        super().__init__(f"Jacobi identity fails on basis triple {self.triple}: defect ({rendered})")


class DegenerateForm(WorkbenchError):
    """Bilinear form is singular where a non-degenerate one is required."""


class NotASubalgebra(WorkbenchError):
    """Subspace is not closed under the bracket."""

    def __init__(self, witness=None, message="subspace is not closed under the bracket"):
        self.witness = witness
        super().__init__(message if witness is None else f"{message}: witness {witness}")


class NotCompactType(WorkbenchError):
    """Killing form is not negative semi-definite with kernel equal to the center."""


class MetricNotAdInvariant(WorkbenchError):
    """Candidate metric fails the invariance identity on some basis triple."""


class MetricNotPositiveDefinite(WorkbenchError):
    """Candidate metric is not positive-definite."""


class InvalidMetricSpec(WorkbenchError):
    """Metric recipe does not fit the algebra (scale count or center Gram shape).

    `part` names the recipe field at fault: "scales" or "center_gram".
    """

    def __init__(self, message, part):
        self.part = part
        super().__init__(message)


class InvalidDecomposition(WorkbenchError):
    """h + m is not a direct-sum decomposition of the algebra."""


class NotReductive(WorkbenchError):
    """Operation requires [h, m] inside m."""


class NotInM(WorkbenchError):
    """Vector has a nonzero component outside the chosen complement."""


class NotNormal(WorkbenchError):
    """Operation requires a normal pair (orthogonal complement of an invariant metric)."""


class NotEffective(WorkbenchError):
    """Operation requires the largest ideal inside h to vanish."""


class NonFinite(WorkbenchError):
    """Numeric input contains NaN or infinity."""


class NotInFixedSubspace(WorkbenchError):
    """Vector is not annihilated by the isotropy action."""


class UnknownName(WorkbenchError):
    """Catalog name does not match any known family."""


class ParamOutOfRange(WorkbenchError):
    """Catalog parameter outside the supported desk-scale range."""


class SpecFileError(WorkbenchError):
    """Input specification file is malformed; message carries the position.

    Messages may echo input values, so they are cut at MESSAGE_CAP characters
    before the position is prefixed.
    """

    MESSAGE_CAP = 200

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if len(message) > self.MESSAGE_CAP:
            message = message[: self.MESSAGE_CAP] + "…"
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
