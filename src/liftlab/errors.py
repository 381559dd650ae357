"""Exception hierarchy shared by all liftlab modules.

The CLI maps ``ConfigError`` to exit code 2 and every other
``LiftlabError`` to exit code 1; messages name the failed condition.
"""


class LiftlabError(Exception):
    """Base class for all domain errors raised by liftlab."""


class InvalidParameter(LiftlabError):
    """Input the program rejects: a bad value, shape, law or probe."""


class NumericalFailure(LiftlabError):
    """A computation that could not finish or that broke its own invariant."""


class ConfigError(LiftlabError):
    """Invalid run configuration (usage error, exit code 2 in the CLI)."""
