"""Exception types shared across the package."""


class DmspecError(Exception):
    """Base class for all errors raised by dmspec."""


class InvalidParameter(DmspecError, ValueError):
    """A parameter is outside its documented domain."""


class CapacityExceeded(DmspecError, OverflowError):
    """A requested computation would exceed the exact-integer capacity bound."""


class MissingDigits(DmspecError, ValueError):
    """A two-sided potential was requested without backward digits."""


class DegenerateSingularValues(DmspecError, ArithmeticError):
    """The transfer product has no contracting direction (singular values equal)."""


class EmptyGapGrid(DmspecError, ValueError):
    """No energy grid point falls inside the requested gap."""


class NotHyperbolic(DmspecError, RuntimeError):
    """The cocycle failed the exponential-dichotomy pretest at this energy."""


class LiftingAmbiguity(DmspecError, RuntimeError):
    """A winding sub-increment of the substep lift came near pi/2, so folding cannot lift it."""
