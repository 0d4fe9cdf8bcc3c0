"""Exception types shared across the package."""

# how a RecursionError from parsing or walking a deep expression is reported
NESTED_TOO_DEEPLY = "an expression is nested too deeply for the recursion limit"


class AcPoissonError(Exception):
    """Base class for all package errors."""


class ExprSyntaxError(AcPoissonError):
    """Raised on malformed expression text; carries 1-based position."""

    def __init__(self, message, line, column, expected=None):
        self.line = line
        self.column = column
        self.expected = expected
        suffix = f" (expected {expected})" if expected else ""
        super().__init__(f"{message} at line {line}, column {column}{suffix}")


class UnknownIdentifier(ExprSyntaxError):
    def __init__(self, name, line, column):
        self.name = name
        super().__init__(f"unknown identifier '{name}'", line, column)


class NonIntegerExponent(ExprSyntaxError):
    def __init__(self, line, column):
        super().__init__("exponent must be an integer literal", line, column)


class DomainError(AcPoissonError):
    """Evaluation left the domain of a builtin (log/sqrt of non-positive,
    division by zero).  ``subexpr`` names the offending subexpression once the
    field evaluating it has tagged the error."""

    subexpr = None


class OrderBudgetExceeded(AcPoissonError):
    """A field was asked for a higher jet order than it can supply."""


class DegreeOverflow(AcPoissonError):
    """Wedge product would exceed the top degree of the chart."""


class DegreeUnderflow(AcPoissonError):
    """Interior product argument degree exceeds the target degree."""


class NotAlmostCoupling(AcPoissonError):
    """Bivector has a nonzero mixed component in the given bigrading."""

    def __init__(self, residual):
        self.residual = residual
        super().__init__(f"mixed (1,1) component does not vanish (max residual {residual:.3e})")


class OutsideCouplingDomain(AcPoissonError):
    """Requested a coupling-domain quantity at a point where kappa vanishes."""


class OutsideDomain(AcPoissonError):
    """Point lies outside the domain of a transformed structure."""


class EmptyDomain(AcPoissonError):
    """A transformation denominator vanishes on every probe point."""


class ZeroVolumeFactor(AcPoissonError):
    """Volume renormalization factor vanishes at a sampled point."""


class MissingCertificate(AcPoissonError):
    """A unimodularity check was invoked without the data it verifies."""


class ModelParseError(AcPoissonError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MissingSection(AcPoissonError):
    def __init__(self, section):
        self.section = section
        super().__init__(f"model file is missing required section [{section}]")


class BadInterval(AcPoissonError):
    pass


class EmptyBox(AcPoissonError):
    """Sampling request over an invalid or empty box."""


class BadInput(AcPoissonError):
    """A size, step, coordinate or tolerance outside its valid range."""
