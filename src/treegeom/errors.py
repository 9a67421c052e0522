"""Exception types shared across the package.

The CLI maps these onto exit codes, and the chart routines use the finer
distinctions (outside the chart domain vs. not on the manifold at all) so
that callers can tell a recoverable rejection from a genuine input error.
"""


class TreegeomError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(TreegeomError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateInputError(TreegeomError, ValueError):
    """Input tensor is zero (or otherwise carries no subspace information)."""


class TreeValidationError(InvalidArgumentError):
    """A dimension tree violates one of the tree axioms."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid dimension tree: " + "; ".join(self.violations))


class ParseError(TreegeomError, ValueError):
    """A file or JSON document does not match the expected format."""


class NotOnManifoldError(TreegeomError):
    """A tensor does not have the prescribed rank profile; ``levels`` holds
    the failing levels measured, ``None`` where no level applies."""

    def __init__(self, message, levels=None):
        self.levels = levels
        super().__init__(message)


class OutsideChartDomainError(TreegeomError):
    """The per-block graph condition of a chart inverse is violated.

    Carries the offending block and the measured condition number so callers
    can report the margin instead of a bare failure.
    """

    def __init__(self, block, cond):
        self.block = block
        self.cond = cond
        super().__init__(
            f"chart domain condition violated at block {set(block)}: "
            f"graph matrix condition number {cond:.3e}"
        )


class InvalidCoreError(TreegeomError):
    """A coefficient core is rank-deficient at some level."""


class OutsideChartImageError(TreegeomError):
    """A tensor is not in the image of the tree-format chart at this anchor."""

    def __init__(self, message, level=None, residual=None):
        self.level = level
        self.residual = residual
        super().__init__(message)


class GenerationFailureError(TreegeomError):
    """Random generation could not realize the requested rank profile."""
