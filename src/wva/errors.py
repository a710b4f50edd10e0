"""Exception types shared across the package."""


class WvaError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(WvaError):
    """States and observables do not share a common dimension."""


class OrthogonalSelection(WvaError):
    """Pre- and post-selected states are (numerically) orthogonal, so the
    weak value is undefined."""


class ZeroRealPart(WvaError):
    """The weak value has (numerically) vanishing real part; the optimal
    probe is not normalizable in that case."""


class TailMassTooLarge(WvaError):
    """The requested grid truncates more probability mass than tolerated."""


class ZeroNorm(WvaError):
    """A wavefunction with (numerically) zero norm was passed to a
    normalization-dependent operation."""


class DegenerateDenominator(WvaError):
    """The Gaussian shift denominator vanishes; the closed form is singular."""


class NonFinite(WvaError):
    """An optimization step produced a non-finite objective or gradient."""


class GridTooLarge(WvaError):
    """A requested grid has more points than the package's budget allows."""
