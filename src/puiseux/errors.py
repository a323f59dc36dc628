"""Exception hierarchy shared by all puiseux modules.

The command line front end maps every PuiseuxError to exit status 1;
argparse usage problems exit with status 2 as usual.
"""


class PuiseuxError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PuiseuxError):
    """An argument is outside the mathematical domain of the operation."""


class NotAMemberError(DomainError):
    """The given rational does not belong to the monoid."""


class InsufficientMetadataError(DomainError):
    """A symbolic-mode computation needs declared metadata that is absent."""


class ResourceCapError(PuiseuxError):
    """An enumeration exceeded its configured size cap."""


class SpecError(PuiseuxError):
    """A monoid description file could not be used."""


class SpecSyntaxError(SpecError):
    """Malformed input text; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class SpecValidationError(SpecError):
    """Syntactically valid description that violates a semantic rule."""
