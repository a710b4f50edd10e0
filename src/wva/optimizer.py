"""Variational verification of the back-action-cancelling probe.

The closed-form probe arises from a Lagrangian whose functional is the mean
position of the post-selected state, with the normalization constraint's
multiplier turning out to vanish (the functional is a quotient, hence scale
invariant).  This module maximizes that functional numerically, with no
reference to the closed form, and reports the shift delta_q of every iterate
so the closed-form value can be checked against an independent search.

Geometry of the search space.  Mean position only generates a well-posed
variational problem on wavefunctions over the support with identified
endpoints (the self-adjoint domain of i d/dp); there the position spectrum is
the discrete comb with spacing 2g/extent.  Because the observable squares to
one, the evolution factor is antiperiodic over one support period, so
post-selection maps the periodic sector to the half-comb-twisted one; a fixed
demodulation phase brings it back, at the price of a constant position
offset.  Every stationary state of the functional is the inverse evolution
factor times a comb mode, all of them gauge translates of one another, and
each reproduces the same shift - the closed-form maximum.

The ascent restricts iterates to a finite position window (an orthogonal
Fourier cutoff).  The window is what makes maximization meaningful: without
it the mean-position functional is unbounded over normalized probes (probe
states with a tiny far-away position component that post-selection reweights
can make the shift arbitrarily large; the weak-regime Gaussian already beats
the closed-form value whenever 2 (Re A)^2 > |A|^2 + 1).  Inside the window
the maximizer is the top comb rung, and its shift is the closed-form value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import evolution_factor
from .errors import NonFinite, UnderResolvedGrid, ZeroNorm
from .evolution import PostSelectedEvolution
from .expectation import expect_q, shift_report
from .probe import ZERO_NORM_FLOOR, MomentumGrid, ProbeWavefunction, check_norm
from .system import all_finite

_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 60


class _AscentCore:
    """The ascent functional on the endpoint-identified support, built once
    per (grid, evolution, window cap).

    The duplicated last grid point is dropped; the remaining n samples live on
    a circle of circumference n * spacing, where position is diagonal in the
    Fourier basis with eigenvalues on the 2g/extent comb.  Post-selection
    multiplies the samples by a periodic modulation: the evolution factor,
    which changes sign over each support period pi/g, times a
    twist-compensating phase when the circle spans an odd number of those
    periods; the phase shifts every mean position by a constant offset.
    """

    def __init__(
        self, grid: MomentumGrid, evo: PostSelectedEvolution, cap: float | None = None
    ) -> None:
        self.n = grid.n_points - 1
        self.spacing = grid.spacing
        self.length = self.n * self.spacing
        self.points = grid.points[: self.n]
        self.positions = -2.0 * math.pi * np.fft.fftfreq(self.n, d=self.spacing)
        self.modulation = evolution_factor(evo.coupling, evo.weak.value, self.points)
        self.offset = 0.0
        if int(round(self.length * evo.coupling / math.pi)) % 2:
            twist = np.exp(-1j * math.pi * (self.points - grid.p_min) / self.length)
            self.modulation = self.modulation * twist
            self.offset = math.pi / self.length
        if cap is None:
            cap = default_position_cap(grid, evo)
        self.inside = np.abs(self.positions) <= cap

    def circle(self, values: np.ndarray) -> np.ndarray:
        """Circle samples of ``values``, a closed-grid vector losing its wrap point."""
        values = np.asarray(values, dtype=np.complex128)
        if values.shape == (self.n + 1,):
            return values[: self.n]
        if values.shape == (self.n,):
            return values
        raise ValueError("values must match the grid (with or without the wrap point)")

    def window(self, values: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the position window |q| <= cap."""
        spectrum = np.fft.fft(values)
        spectrum[~self.inside] = 0.0
        return np.fft.ifft(spectrum)

    def _moment(self, values: np.ndarray) -> tuple[float, float, np.ndarray]:
        """Mean position of ``values``, their squared norm, and position applied to them."""
        norm = check_norm(np.vdot(values, values).real)
        applied = np.fft.ifft(self.positions * np.fft.fft(values))
        return np.vdot(values, applied).real / norm, norm, applied

    def mean_position(self, values: np.ndarray) -> float:
        return self._moment(values)[0]

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Mean position of the post-selected state (the ascent functional)
        and its Wirtinger gradient in the conjugate circle samples."""
        u = self.modulation * x
        mean, norm, applied = self._moment(u)
        return mean - self.offset, np.conj(self.modulation) * (applied - mean * u) / norm

    def project(self, x: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, float]:
        """Windowed gradient with the scale and phase directions of ``x``
        removed, and its L2 norm."""
        grad = self.window(grad)
        for d in (x, 1j * x):
            norm = math.sqrt(np.vdot(d, d).real)
            if norm > ZERO_NORM_FLOOR:
                d = d / norm
                grad = grad - d * np.vdot(d, grad).real
        return grad, math.sqrt(np.vdot(grad, grad).real / self.spacing)


def periodic_representative(probe: ProbeWavefunction) -> np.ndarray:
    """Circle samples of the probe with its boundary phase twist removed.

    States on the support are defined up to a linear-phase (translation)
    gauge; this picks the representative whose endpoint values match, the one
    that lives on the endpoint-identified circle.
    """
    values = probe.values
    if abs(values[0]) < 1e-12 * float(np.max(np.abs(values))):
        raise ValueError("cannot read the boundary phase from a vanishing endpoint")
    twist = np.angle(values[-1] / values[0])
    grid = probe.grid
    length = grid.p_max - grid.p_min
    aligned = values * np.exp(-1j * twist * (grid.points - grid.p_min) / length)
    return aligned[:-1]


def objective(
    values: np.ndarray,
    derivative: np.ndarray,
    grid: MomentumGrid,
    evo: PostSelectedEvolution,
) -> float:
    """Shift delta_q of a (not necessarily normalized) probe: the
    :func:`~wva.expectation.shift_report` shift of its normalized samples,
    so invariant under rescaling of the input."""
    return shift_report(evo, ProbeWavefunction.normalized(grid, values, derivative)).delta_q


def final_position(values: np.ndarray, grid: MomentumGrid, evo: PostSelectedEvolution) -> float:
    """Mean position of the post-selected state: the variational functional.

    ``values`` are circle samples (a closed-grid vector is accepted, its wrap
    point ignored).  Computed spectrally on the endpoint-identified support.
    """
    core = _AscentCore(grid, evo)
    return core.value_and_gradient(core.circle(values))[0]


def shift_on_circle(values: np.ndarray, grid: MomentumGrid, evo: PostSelectedEvolution) -> float:
    """delta_q evaluated spectrally on the endpoint-identified support."""
    core = _AscentCore(grid, evo)
    x = core.circle(values)
    return core.value_and_gradient(x)[0] - core.mean_position(x)


def gradient(values: np.ndarray, grid: MomentumGrid, evo: PostSelectedEvolution) -> np.ndarray:
    """Wirtinger gradient of :func:`final_position` in the conjugate circle
    samples: d(final_position)/d(Re x_k) = 2 Re(gradient_k), likewise Im."""
    core = _AscentCore(grid, evo)
    return core.value_and_gradient(core.circle(values))[1]


def default_position_cap(grid: MomentumGrid, evo: PostSelectedEvolution) -> float:
    """Position window for the ascent: wide enough to hold the optimal family
    (whose spectral spread grows with |A|), small against the grid Nyquist."""
    aw = complex(evo.weak.value)
    cap = 10.0 * evo.coupling * (1.0 + abs(aw))
    if abs(aw.real) > 1e-12:
        cap = max(cap, 4.0 * abs(evo.coupling * (abs(aw) ** 2 + 1.0) / (2.0 * aw.real)))
    nyquist = math.pi / grid.spacing
    return min(cap, 0.4 * nyquist)


def projected_gradient_norm(values: np.ndarray, grid: MomentumGrid, evo: PostSelectedEvolution) -> float:
    """L2 norm of the functional gradient with the default window cutoff
    applied and the scale/phase null directions removed."""
    core = _AscentCore(grid, evo)
    x = core.circle(values)
    return core.project(x, core.value_and_gradient(x)[1])[1]


@dataclass(frozen=True, eq=False)
class OptimizerConfig:
    """Grid, stopping rules, and initialization for one ascent run.

    ``init`` is ``"gaussian"`` (a periodized Gaussian) or ``"random"`` (24
    random comb modes drawn with ``seed``).  ``position_cap`` overrides the
    default window radius (:func:`default_position_cap`); ``tol`` applies to
    the windowed, gauge-projected gradient norm of the ascent functional.
    """

    grid: MomentumGrid
    max_iters: int = 4000
    step: float = 1.0
    tol: float = 1e-5
    seed: int = 0
    init: str = "gaussian"
    position_cap: float | None = None

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.step > 0:
            raise ValueError("step must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.init not in ("gaussian", "random"):
            raise ValueError("init must be 'gaussian' or 'random'")


@dataclass(eq=False)
class OptimizerTrace:
    """Accepted-iterate history (index, shift delta_q, projected gradient
    norm), the final normalized probe, and the convergence verdict.

    The ascent functional (final mean position) increases monotonically by
    construction; the recorded shift converges to it from either side and
    settles at the closed-form value on the stationary family.
    """

    iterations: list[tuple[int, float, float]]
    final_probe: ProbeWavefunction
    converged: bool


def _initial_circle_vector(config: OptimizerConfig, core: _AscentCore) -> np.ndarray:
    p = core.points
    if config.init == "gaussian":
        # Periodized so the seam stays smooth even for wide widths.
        width = core.length / 12.0
        x = np.zeros(core.n, dtype=np.complex128)
        for image in (-1, 0, 1):
            center = image * core.length
            x += np.exp(-((p - center) ** 2) / (4.0 * width**2))
        return x
    rng = np.random.default_rng(config.seed)
    x = np.zeros(core.n, dtype=np.complex128)
    for mode in rng.integers(-40, 41, size=24):
        coeff = rng.standard_normal() + 1j * rng.standard_normal()
        x += coeff * np.exp(2j * math.pi * mode * np.arange(core.n) / core.n)
    return x


def maximize(config: OptimizerConfig, evo: PostSelectedEvolution) -> OptimizerTrace:
    """Projected gradient ascent of the post-selected mean position.

    Iterates are renormalized and kept inside the position window; steps use
    an Armijo backtracking line search with doubling after success.  Stops
    when the windowed, gauge-projected gradient norm falls below ``tol`` or
    after ``max_iters`` accepted steps.  The trace records the shift delta_q
    of each accepted iterate; on the stationary family it equals the
    closed-form maximum shift regardless of which comb rung the ascent
    reached (the rungs are translation gauge copies).

    Raises
    ------
    UnderResolvedGrid
        If the position window holds fewer than three Fourier modes of the grid.
    NonFinite
        If the objective or gradient degenerates.
    """
    core = _AscentCore(config.grid, evo, config.position_cap)
    if int(np.count_nonzero(core.inside)) < 3:
        raise UnderResolvedGrid("position window holds fewer than three modes; refine the grid")

    x = core.window(_initial_circle_vector(config, core))
    norm = math.sqrt(np.vdot(x, x).real)
    if norm < ZERO_NORM_FLOOR:
        raise ZeroNorm("initialization vanished inside the position window")
    x = x / norm

    current, raw = core.value_and_gradient(x)
    grad, grad_norm = core.project(x, raw)
    if not (math.isfinite(current) and all_finite(grad)):
        raise NonFinite("non-finite functional or gradient at the initial iterate")

    iterations: list[tuple[int, float, float]] = []
    converged = grad_norm < config.tol
    step = config.step

    for iteration in range(1, config.max_iters + 1):
        if converged:
            break
        slope = 2.0 * np.vdot(grad, grad).real
        for _ in range(_MAX_BACKTRACKS):
            candidate = core.window(x + step * grad)
            candidate = candidate / math.sqrt(np.vdot(candidate, candidate).real)
            value, raw = core.value_and_gradient(candidate)
            if math.isfinite(value) and value >= current + _ARMIJO_C1 * step * slope:
                break
            step *= 0.5
        else:
            break
        x, current = candidate, value
        grad, grad_norm = core.project(x, raw)
        if not all_finite(grad):
            raise NonFinite("non-finite gradient")
        iterations.append((iteration, current - core.mean_position(x), grad_norm))
        converged = grad_norm < config.tol
        step = min(step * 2.0, 1e6)

    if not iterations:
        iterations.append((0, current - core.mean_position(x), grad_norm))

    derivative = np.fft.ifft(1j * (-core.positions) * np.fft.fft(x))
    final_probe = ProbeWavefunction.normalized(
        config.grid,
        np.append(x, x[0]),
        derivative=np.append(derivative, derivative[0]),
        label="optimized",
    )
    return OptimizerTrace(iterations, final_probe, converged)


def gauge_fix(probe: ProbeWavefunction) -> ProbeWavefunction:
    """Fix the comparison gauges: translate so the mean position vanishes and
    rotate the global phase so the midpoint value is real positive (falling
    back to the largest sample when the midpoint is negligible)."""
    grid = probe.grid
    derivative = probe.derivative_or_numeric()
    mean_q = expect_q(probe.values, derivative, grid)
    phase = np.exp(1j * mean_q * grid.points)
    values = probe.values * phase
    derivative = (derivative + 1j * mean_q * probe.values) * phase

    reference = values[grid.n_points // 2]
    if abs(reference) < 1e-12 * float(np.max(np.abs(values))):
        reference = values[int(np.argmax(np.abs(values)))]
    rotation = np.conj(reference) / abs(reference)
    return ProbeWavefunction.normalized(
        grid, values * rotation, derivative * rotation, label=probe.label
    )
