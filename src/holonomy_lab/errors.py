"""Exception types shared across the package."""


class HolonomyError(Exception):
    """Base class for every error raised by this package."""


class NotHermitian(HolonomyError):
    """Input matrix deviates from its own conjugate transpose beyond tolerance."""


class NotPSD(HolonomyError):
    """A supposedly positive semidefinite matrix has an eigenvalue below -tol."""


class NotUnitary(HolonomyError):
    """Input matrix fails the unitarity check."""


class InvalidState(HolonomyError):
    """Matrix is not a valid density operator (or purification of one)."""


class SupportMismatch(HolonomyError):
    """Gauge isometry does not cover the right support of the amplitude."""


class DimensionMismatch(HolonomyError):
    """Operands live on Hilbert spaces of different dimension."""


class OrthogonalStep(HolonomyError):
    """Two consecutive path states have vanishing transition probability."""


class OutOfRange(HolonomyError):
    """Time parameter outside the evolution interval [0, tau]."""


class GridMiss(HolonomyError):
    """Sampled evolution queried at a time that is not a grid point."""


class GridTooCoarse(HolonomyError):
    """Not enough grid points for finite-difference derivatives."""


class WrongVariant(HolonomyError):
    """Operation only makes sense for a different scenario variant."""


class NegativeWeight(HolonomyError):
    """Mixture weight must be non-negative."""


class ZeroOperator(HolonomyError):
    """Operator vanishes; no polar isometry can be extracted."""


class UnknownParameter(HolonomyError):
    """Sweep parameter is not one of the supported names."""


class ScenarioFormatError(HolonomyError):
    """Scenario file failed to parse or validate."""
