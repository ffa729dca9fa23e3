"""Exception types shared across the package, mapped to CLI exit codes."""


class MlbddcError(Exception):
    """Base class for package errors."""


class ConfigError(MlbddcError):
    """Invalid user configuration (CLI exit code 2)."""


class NumericalError(MlbddcError):
    """Numerical failure outside plain non-convergence (CLI exit code 3)."""


class NotPositiveDefiniteError(NumericalError):
    """SPD factorization found a non-positive or exactly singular pivot."""


# CLI exit codes. 1 (non-convergence) carries no exception: the Krylov
# drivers return a report with converged=False instead of raising.
EXIT_OK = 0
EXIT_NO_CONVERGENCE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
