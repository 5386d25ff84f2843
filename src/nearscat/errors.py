"""Exception hierarchy shared by all nearscat modules."""


class NearscatError(Exception):
    """Base class for all package errors."""


class DomainError(NearscatError):
    """An argument is outside the supported domain of an operation."""


class ResonanceError(NearscatError):
    """The disk-series denominator vanished; the wavenumber is numerically
    a resonance of the transmission system."""


class ConvergenceError(NearscatError):
    """An iterative routine failed to converge."""


class DegenerateSpectrumError(NearscatError):
    """Every eigenvalue fell below the positive clip threshold."""


class ChainError(NearscatError):
    """An MCMC chain is unusable (e.g. acceptance rate below 1%)."""


class ConfigError(NearscatError):
    """An experiment configuration is invalid."""
