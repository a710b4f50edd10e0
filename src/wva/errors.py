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


class ZeroNorm(WvaError):
    """A wavefunction with (numerically) zero norm was passed to a
    normalization-dependent operation."""


class DegenerateDenominator(WvaError):
    """The Gaussian shift denominator vanishes; the closed form is singular."""


class NonFinite(WvaError):
    """An optimization step produced a non-finite objective or gradient."""


class GridTooLarge(WvaError):
    """A requested grid has more points than the package's budget allows."""


class UnderResolvedGrid(WvaError):
    """A node set resolves too little of what it samples: a halving error
    estimate exceeds its tolerance, so the quantity it integrates would not
    hold to the reported digits; a grid's count (not 4k + 1) has no nested
    rule to estimate with; or an optimizer grid is so coarse that its
    position window holds fewer than three Fourier modes."""


class ScaleOutOfRange(WvaError):
    """A probe's momentum scale is so small or so large that its samples and
    their moments would leave the normal range of double precision."""
