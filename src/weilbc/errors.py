"""Exception types shared across the package."""


class WeilbcError(Exception):
    """Base class for all package-specific errors."""


class NotPrime(WeilbcError):
    pass


class EvenCharacteristic(WeilbcError):
    pass


class LevelMismatch(WeilbcError):
    pass


class ZeroArgument(WeilbcError):
    pass


class DivisionByZero(WeilbcError):
    pass


class DimensionMismatch(WeilbcError):
    pass


class GroupTooLarge(WeilbcError):
    pass


class NotSymplectic(WeilbcError):
    pass


class Singular(WeilbcError):
    pass


class FactorizationFailed(WeilbcError):
    pass


class AmbientCapExceeded(WeilbcError):
    pass


class SupportMismatch(WeilbcError):
    pass


class ConfigInvalid(WeilbcError):
    pass


class OperatorOverflow(WeilbcError):
    pass


class WitnessFailed(WeilbcError):
    pass


class InvariantBroken(WeilbcError):
    """An internal consistency check failed; the result cannot be trusted."""
