"""Semantic exception hierarchy.

Public functions never raise bare ValueError; each failure mode has a
named class so callers (and the CLI) can map it to an exit code.
"""


class ScreenedMcError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ScreenedMcError, ValueError):
    """Invalid model parameters or experiment configuration."""


class InputError(ScreenedMcError, ValueError):
    """Malformed call inputs: empty or mismatched sequences, bad counts."""


class DomainError(ScreenedMcError, ValueError):
    """Arguments outside a function's mathematical domain."""


class PreconditionError(DomainError):
    """A stated parameter constraint is violated (names the constraint)."""


class DegenerateScreenError(DomainError):
    """The screening observable has zero variance; screening is vacuous."""


class DivergenceError(ScreenedMcError, ArithmeticError):
    """A requested moment integral diverges (names the moment)."""


class CapabilityError(ScreenedMcError):
    """The operation is undefined for this model/observable combination."""


class NumericError(ScreenedMcError, ArithmeticError):
    """A numeric routine failed to converge or met NaN; carries context."""


class InsufficientTrialsError(ScreenedMcError):
    """An empirical rate had zero hits, so a log-rate fit is impossible."""
