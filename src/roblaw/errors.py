"""Exception types shared across the package."""


class RoblawError(Exception):
    pass


class InvalidArgument(RoblawError, ValueError):
    pass


class NumericFailure(RoblawError, ArithmeticError):
    pass


class SingularKernel(RoblawError, ArithmeticError):
    pass


class UnsupportedActivation(RoblawError, ValueError):
    pass


class ResourceLimit(RoblawError, RuntimeError):
    pass


class IoError(RoblawError, OSError):
    pass
