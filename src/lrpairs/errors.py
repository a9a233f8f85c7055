"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: InputError -> 2, VerificationError -> 3,
RetriesExhaustedError -> 4.
"""


class LRPairsError(Exception):
    """Base class for all package-specific errors."""


class InputError(LRPairsError, ValueError):
    """Malformed external input (JSON files, CLI arguments, bad shapes)."""


class NotInRingError(LRPairsError):
    """An element or matrix lies outside the valuation ring (order < 0)."""


class RankError(LRPairsError):
    """A matrix required to be full rank is singular."""


class PrincipalMinorError(LRPairsError):
    """A leading principal minor vanishes, so the LU factorization fails."""

    def __init__(self, k: int):
        self.k = k
        super().__init__(f"leading principal minor of size {k} vanishes")


class VerificationError(LRPairsError):
    """An exact mathematical verification failed."""


class GenericityError(VerificationError):
    """A genericity check failed; the caller should resample."""


class RetriesExhaustedError(LRPairsError):
    """The resampling budget ran out before all genericity checks passed."""

    def __init__(self, attempts: int, last_failure: str):
        self.attempts = attempts
        self.last_failure = last_failure
        msg = f"no generic sample found after {attempts} attempts"
        if last_failure:
            msg += f" ({last_failure})"
        super().__init__(msg)
