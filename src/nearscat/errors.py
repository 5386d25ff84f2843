"""Exception hierarchy shared by all nearscat modules: a failure is a
configuration error or a numerical one."""


class NearscatError(Exception):
    """A numerical failure; the base class of the package's other errors."""


class DomainError(NearscatError):
    """An argument is outside the supported domain of an operation."""


class ConfigError(NearscatError):
    """An experiment configuration is invalid."""
