"""Momentum-space probe wavefunctions: grids, constructors, position views.

Every wavefunction lives on a uniform momentum grid with an odd number of
points and is normalized under that grid's composite-Simpson rule, so all
downstream quadrature is self-consistent.  Constructed probes carry analytic
derivatives; user-supplied samples fall back to fourth-order finite
differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .analytic import _require_real_part, evolution_factor, evolution_factor_derivative, max_shift
from .errors import GridTooLarge, TailMassTooLarge, ZeroNorm

#: Tolerance on the grid-quadrature norm of a stored wavefunction.
NORMALIZATION_TOL = 1e-8
#: Largest truncated probability mass a constructor grid may discard.
TAIL_MASS_TOL = 1e-10
#: Largest point count a grid may have; checked before any sample is allocated.
MAX_GRID_POINTS = 1 << 24

_ZERO_NORM_FLOOR = 1e-14


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform, strictly increasing momentum grid with an odd point count.

    Odd counts keep composite Simpson quadrature applicable without a
    remainder panel.
    """

    p_min: float
    p_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p_min) and math.isfinite(self.p_max)):
            raise ValueError("grid endpoints must be finite")
        if self.p_max <= self.p_min:
            raise ValueError("p_max must exceed p_min")
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise ValueError("n_points must be odd and at least 3")
        if self.n_points > MAX_GRID_POINTS:
            raise GridTooLarge(f"{self.n_points} grid points exceed the budget {MAX_GRID_POINTS}")

    @property
    def spacing(self) -> float:
        return (self.p_max - self.p_min) / (self.n_points - 1)

    @cached_property
    def points(self) -> np.ndarray:
        pts = np.linspace(self.p_min, self.p_max, self.n_points)
        pts.flags.writeable = False
        return pts

    @cached_property
    def simpson_weights(self) -> np.ndarray:
        w = np.full(self.n_points, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        w *= self.spacing / 3.0
        w.flags.writeable = False
        return w

    def integrate(self, samples: np.ndarray):
        """Composite-Simpson quadrature of samples given on this grid."""
        return self.simpson_weights @ samples

    @classmethod
    def for_support(cls, coupling: float, n_points: int = 4097, extent: int = 1) -> "MomentumGrid":
        """Grid covering [-pi*extent/2g, pi*extent/2g], the support (or an
        integer multiple of it) on which the hard-support probes live."""
        if coupling <= 0:
            raise ValueError("coupling must be positive")
        if extent < 1:
            raise ValueError("extent must be a positive integer")
        half = math.pi * extent / (2.0 * coupling)
        return cls(-half, half, n_points)


def numeric_derivative(values: np.ndarray, grid: MomentumGrid) -> np.ndarray:
    """Fourth-order finite-difference derivative of grid samples (5-point
    central stencils, one-sided stencils of the same order at the edges)."""
    f = np.asarray(values, dtype=np.complex128)
    if f.size < 5:
        raise ValueError("the derivative stencil needs at least five grid points")
    c = 1.0 / (12.0 * grid.spacing)
    out = np.empty_like(f)
    out[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) * c
    out[0] = (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2] + 16.0 * f[3] - 3.0 * f[4]) * c
    out[1] = (-3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2] - 6.0 * f[3] + f[4]) * c
    out[-2] = (-f[-5] + 6.0 * f[-4] - 18.0 * f[-3] + 10.0 * f[-2] + 3.0 * f[-1]) * c
    out[-1] = (3.0 * f[-5] - 16.0 * f[-4] + 36.0 * f[-3] - 48.0 * f[-2] + 25.0 * f[-1]) * c
    return out


def _check_finite_complex(arr: np.ndarray, what: str) -> None:
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise ValueError(f"{what} must be finite everywhere")


@dataclass(frozen=True, eq=False)
class ProbeWavefunction:
    """Complex momentum-space wavefunction sampled on a grid.

    Instances are immutable and normalized: the Simpson quadrature of
    |values|^2 equals one within ``NORMALIZATION_TOL``.  ``derivative`` holds
    analytic derivative samples when the constructor knows them.
    """

    grid: MomentumGrid
    values: np.ndarray
    derivative: np.ndarray | None = None
    label: str = ""

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape != (self.grid.n_points,):
            raise ValueError("values must match the grid point count")
        _check_finite_complex(values, "wavefunction values")
        norm_sq = float(self.grid.integrate(np.abs(values) ** 2))
        if abs(norm_sq - 1.0) > NORMALIZATION_TOL:
            raise ValueError(
                f"wavefunction norm^2 = {norm_sq!r} deviates from 1 beyond {NORMALIZATION_TOL}"
            )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if self.derivative is not None:
            deriv = np.asarray(self.derivative, dtype=np.complex128)
            if deriv.shape != values.shape:
                raise ValueError("derivative must match the grid point count")
            _check_finite_complex(deriv, "wavefunction derivative")
            deriv.flags.writeable = False
            object.__setattr__(self, "derivative", deriv)

    @classmethod
    def normalized(
        cls,
        grid: MomentumGrid,
        values: np.ndarray,
        derivative: np.ndarray | None = None,
        label: str = "",
    ) -> "ProbeWavefunction":
        """Rescale raw samples to unit grid norm and wrap them.

        Raises
        ------
        ZeroNorm
            If the raw samples carry no usable norm.
        """
        values = np.asarray(values, dtype=np.complex128)
        _check_finite_complex(values, "wavefunction values")
        norm_sq = float(grid.integrate(np.abs(values) ** 2))
        if norm_sq < _ZERO_NORM_FLOOR:
            raise ZeroNorm(f"norm^2 = {norm_sq:.3e} is numerically zero")
        scale = 1.0 / math.sqrt(norm_sq)
        deriv = None if derivative is None else np.asarray(derivative, np.complex128) * scale
        return cls(grid, values * scale, deriv, label)

    def norm_squared(self) -> float:
        return float(self.grid.integrate(np.abs(self.values) ** 2))

    def derivative_or_numeric(self) -> np.ndarray:
        """Analytic derivative samples when present, stencil fallback otherwise."""
        if self.derivative is not None:
            return self.derivative
        return numeric_derivative(self.values, self.grid)


def gaussian_probe(width: float, grid: MomentumGrid) -> ProbeWavefunction:
    """Gaussian probe; ``width`` is the standard deviation of the momentum
    density (its position density has standard deviation 1/(2*width)).

    The grid must carry all but ``TAIL_MASS_TOL`` of the Gaussian's mass;
    values are renormalized on the grid and the analytic derivative is
    attached.

    Raises
    ------
    TailMassTooLarge
        If the grid truncates the Gaussian beyond tolerance.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    scale = width * math.sqrt(2.0)
    tail = 0.5 * math.erfc(grid.p_max / scale) + 0.5 * math.erfc(-grid.p_min / scale)
    if tail > TAIL_MASS_TOL:
        raise TailMassTooLarge(
            f"grid truncates {tail:.3e} of the momentum density (tolerance {TAIL_MASS_TOL})"
        )
    p = grid.points
    values = (2.0 * math.pi * width**2) ** (-0.25) * np.exp(-(p**2) / (4.0 * width**2))
    values = values.astype(np.complex128)
    derivative = -p / (2.0 * width**2) * values
    return ProbeWavefunction.normalized(grid, values, derivative, label=f"gaussian(width={width:g})")


def recommended_gaussian_grid(coupling: float, width: float) -> MomentumGrid:
    """Grid sized for Gaussian-probe quadrature: wide enough for the tails,
    fine enough to resolve oscillations at scale 1/coupling."""
    half = 7.5 * width
    spacing = min(width / 80.0, 0.022 / max(coupling, 1e-12))
    n = int(math.ceil(2.0 * half / spacing)) + 1
    n = max(n, 4001)
    if n % 2 == 0:
        n += 1
    return MomentumGrid(-half, half, n)


def recommended_support_points(weak_value: complex, extent: int = 1) -> int:
    """Point count for hard-support probes.

    The inverse evolution factor peaks like |A|^2 / (Re A)^2 over a narrow
    angular window, so resolution must grow with |A|^2 / |Re A| to keep the
    quadrature at the part-per-million level.
    """
    aw = complex(weak_value)
    sharpness = abs(aw) ** 2 / max(abs(aw.real), 1e-12)
    n = max(4097 * extent, int(math.ceil(40.0 * sharpness * extent)))
    if n % 2 == 0:
        n += 1
    return n


def optimal_probe(
    coupling: float,
    weak_value: complex,
    n_points: int = 4097,
    extent: int = 1,
) -> ProbeWavefunction:
    """Back-action-cancelling probe on the support [-pi*extent/2g, pi*extent/2g].

    The momentum wavefunction is proportional to the inverse evolution
    factor times a linear phase whose slope is minus the maximal shift; it
    attains :func:`wva.analytic.max_shift` exactly and starts with zero mean
    position.  Any integer ``extent`` reproduces the same shift.

    Raises
    ------
    ZeroRealPart
        If |Re weak_value| < 1e-12 (not normalizable in that case).
    """
    aw = _require_real_part(weak_value)
    grid = MomentumGrid.for_support(coupling, n_points, extent)
    shift = max_shift(coupling, aw)
    p = grid.points
    factor = evolution_factor(coupling, aw, p)
    factor_d = evolution_factor_derivative(coupling, aw, p)
    amplitude = math.sqrt(coupling * abs(aw.real) / (math.pi * extent))
    values = amplitude * np.exp(-1j * shift * p) / factor
    derivative = values * (-(factor_d / factor) - 1j * shift)
    return ProbeWavefunction.normalized(grid, values, derivative, label="optimal")


def final_probe_momentum(
    coupling: float, weak_value: complex, n_points: int = 4097
) -> ProbeWavefunction:
    """Post-selected final state of the optimal probe: flat modulus
    sqrt(g/pi) times the linear phase, on the same support."""
    aw = _require_real_part(weak_value)
    grid = MomentumGrid.for_support(coupling, n_points)
    shift = max_shift(coupling, aw)
    p = grid.points
    values = math.sqrt(coupling / math.pi) * np.exp(-1j * shift * p)
    derivative = -1j * shift * values
    return ProbeWavefunction.normalized(grid, values, derivative, label="final")


def smoothed_support_grid(
    coupling: float, smoothing: float, n_interior: int = 4097
) -> MomentumGrid:
    """Grid for :func:`smoothed_optimal_probe`: uniform spacing resolving the
    exponential tails, with the support endpoints landing on even-index grid
    points so Simpson panels never straddle the derivative kinks."""
    if coupling <= 0 or smoothing <= 0:
        raise ValueError("coupling and smoothing must be positive")
    half = math.pi / (2.0 * coupling)
    spacing = min(2.0 * half / (n_interior - 1), 1.0 / (8.0 * smoothing))
    n_int = int(round(2.0 * half / spacing)) + 1
    if n_int % 2 == 0:
        n_int += 1
    spacing = 2.0 * half / (n_int - 1)
    # Tail long enough that exp(-smoothing * t) < 1e-14 at the grid edge.
    tail_length = math.log(1e14) / smoothing
    n_tail = int(math.ceil(tail_length / spacing))
    n_tail += n_tail % 2  # kink must sit on an even (panel-boundary) index
    n_tail = max(n_tail, 2)
    return MomentumGrid(
        -half - n_tail * spacing, half + n_tail * spacing, n_int + 2 * n_tail
    )


def smoothed_optimal_probe(
    coupling: float,
    weak_value: complex,
    smoothing: float,
    grid: MomentumGrid,
) -> ProbeWavefunction:
    """Optimal probe with its hard support edges replaced by exponential
    tails of rate ``smoothing``; continuous at the former edges by
    construction and pointwise convergent to :func:`optimal_probe` as the
    rate grows.

    The grid must place the support endpoints on even-index grid points
    (use :func:`smoothed_support_grid`).  At the two kink points the stored
    derivative is the mean of the one-sided derivatives, which makes
    composite Simpson integrals of value*derivative products agree with the
    piecewise-exact ones.

    Raises
    ------
    TailMassTooLarge
        If the grid truncates the exponential tails beyond tolerance.
    """
    aw = _require_real_part(weak_value)
    if smoothing <= 0:
        raise ValueError("smoothing must be positive")
    half = math.pi / (2.0 * coupling)
    h = grid.spacing
    left_pos = (-half - grid.p_min) / h
    right_pos = (half - grid.p_min) / h
    i_left = int(round(left_pos))
    i_right = int(round(right_pos))
    if (
        abs(left_pos - i_left) > 1e-6
        or abs(right_pos - i_right) > 1e-6
        or i_left < 1
        or i_right > grid.n_points - 2
        or i_left % 2
        or i_right % 2
    ):
        raise ValueError(
            "grid must place +/- pi/2g on even-index interior points; "
            "build it with smoothed_support_grid()"
        )
    edge_scale = math.sqrt(coupling * abs(aw.real) / math.pi) / abs(aw)
    tail_mass = edge_scale**2 * math.exp(-2.0 * smoothing * (grid.p_max - half)) / (2.0 * smoothing)
    if 2.0 * tail_mass > TAIL_MASS_TOL:
        raise TailMassTooLarge(
            f"grid truncates {2.0 * tail_mass:.3e} of the tail mass (tolerance {TAIL_MASS_TOL})"
        )

    shift = max_shift(coupling, aw)
    p = grid.points
    amplitude = math.sqrt(coupling * abs(aw.real) / math.pi)

    values = np.empty(grid.n_points, dtype=np.complex128)
    derivative = np.empty_like(values)

    interior = slice(i_left, i_right + 1)
    p_int = p[interior]
    factor = evolution_factor(coupling, aw, p_int)
    factor_d = evolution_factor_derivative(coupling, aw, p_int)
    values[interior] = amplitude * np.exp(-1j * shift * p_int) / factor
    derivative[interior] = values[interior] * (-(factor_d / factor) - 1j * shift)

    left_edge = values[i_left]
    right_edge = values[i_right]
    values[:i_left] = left_edge * np.exp(smoothing * (p[:i_left] + half))
    derivative[:i_left] = smoothing * values[:i_left]
    values[i_right + 1 :] = right_edge * np.exp(-smoothing * (p[i_right + 1 :] - half))
    derivative[i_right + 1 :] = -smoothing * values[i_right + 1 :]

    # Mean of the one-sided derivatives at the kinks (see docstring).
    derivative[i_left] = 0.5 * (smoothing * left_edge + derivative[i_left])
    derivative[i_right] = 0.5 * (derivative[i_right] - smoothing * right_edge)

    return ProbeWavefunction.normalized(
        grid, values, derivative, label=f"smoothed(rate={smoothing:g})"
    )


@dataclass(frozen=True, eq=False)
class PositionSamples:
    """Discrete position-space view of a hard-support wavefunction.

    ``positions`` are exactly 2*coupling*offsets; ``values`` are the
    position-space amplitudes there.  ``series_coefficients`` expand the
    wavefunction, after removing its mean-position linear phase, over the
    orthonormal frequency comb with spacing 2*coupling on the support; for
    the final probe only the zeroth coefficient survives, so their squared
    magnitudes sum to one at any truncation.
    """

    coupling: float
    offsets: np.ndarray
    positions: np.ndarray
    values: np.ndarray
    series_coefficients: np.ndarray

    def __post_init__(self) -> None:
        if not np.array_equal(self.positions, 2.0 * self.coupling * self.offsets):
            raise ValueError("positions must equal 2 * coupling * offsets exactly")


def final_probe_position(
    coupling: float,
    weak_value: complex,
    n_range: int,
    n_quadrature: int = 4097,
) -> PositionSamples:
    """Position-space samples of the post-selected final optimal probe.

    The momentum support is finite, so position amplitudes at the comb
    q = 2 g n determine the state; their closed form is the shifted Dirichlet
    kernel sqrt(2g)/pi * sin((pi/2g)(q - q_f)) / (q - q_f), sharply peaked at
    the mean final position q_f.  The series coefficients are computed by
    quadrature (not from the closed form) so they double as a cross-check.

    Raises
    ------
    ZeroRealPart
        If |Re weak_value| < 1e-12.
    """
    if n_range < 1:
        raise ValueError("n_range must be at least 1")
    aw = _require_real_part(weak_value)
    shift = max_shift(coupling, aw)
    offsets = np.arange(-n_range, n_range + 1)
    positions = 2.0 * coupling * offsets
    # sinc handles the removable singularity at q == shift.
    values = np.sinc((positions - shift) / (2.0 * coupling)) / math.sqrt(2.0 * coupling)
    values = values.astype(np.complex128)

    grid = MomentumGrid.for_support(coupling, n_quadrature)
    p = grid.points
    momentum_values = math.sqrt(coupling / math.pi) * np.exp(-1j * shift * p)
    demodulated = momentum_values * np.exp(1j * shift * p)
    weighted = grid.simpson_weights * demodulated
    phases = np.exp(1j * 2.0 * coupling * np.outer(offsets, p))
    coefficients = math.sqrt(coupling / math.pi) * (phases @ weighted)

    return PositionSamples(coupling, offsets, positions, values, coefficients)


def position_amplitudes(probe: ProbeWavefunction, positions) -> np.ndarray:
    """Position-space amplitudes by direct Fourier quadrature.

    Accurate while grid-spacing * |q| stays well below one radian; beyond
    that the oscillatory integrand is unresolved.
    """
    q = np.atleast_1d(np.asarray(positions, dtype=float))
    weighted = probe.grid.simpson_weights * probe.values
    p = probe.grid.points
    out = np.empty(q.size, dtype=np.complex128)
    chunk = max(1, int(4e6) // max(p.size, 1))
    for start in range(0, q.size, chunk):
        block = q[start : start + chunk]
        out[start : start + chunk] = np.exp(1j * np.outer(block, p)) @ weighted
    return out / math.sqrt(2.0 * math.pi)


def to_position_density(
    probe: ProbeWavefunction, q_min: float, q_max: float, n_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled position density |psi(q)|^2 on a uniform grid.

    Integrates to one up to the mass genuinely carried outside [q_min, q_max]
    (hard-support probes scatter O(1/L) of it beyond |q| = L).
    """
    if n_points < 3:
        raise ValueError("n_points must be at least 3")
    positions = np.linspace(q_min, q_max, n_points)
    amplitudes = position_amplitudes(probe, positions)
    return positions, np.abs(amplitudes) ** 2
