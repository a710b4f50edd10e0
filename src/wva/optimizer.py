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
from functools import cached_property

import numpy as np

from .errors import NonFinite, ZeroNorm
from .evolution import PostSelectedEvolution
from .expectation import expect_q
from .probe import MomentumGrid, ProbeWavefunction

_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 60


@dataclass(frozen=True, eq=False)
class SupportCircle:
    """Endpoint-identified view of a support grid.

    Drops the duplicated last grid point; the remaining samples live on a
    circle of circumference n * spacing, where the position operator is
    diagonal in the Fourier basis with eigenvalues on the 2g/extent comb.
    """

    grid: MomentumGrid

    @property
    def n(self) -> int:
        return self.grid.n_points - 1

    @property
    def spacing(self) -> float:
        return self.grid.spacing

    @cached_property
    def points(self) -> np.ndarray:
        pts = self.grid.points[: self.n].copy()
        pts.flags.writeable = False
        return pts

    @property
    def circumference(self) -> float:
        return self.n * self.spacing

    @cached_property
    def position_values(self) -> np.ndarray:
        vals = -2.0 * math.pi * np.fft.fftfreq(self.n, d=self.spacing)
        vals.flags.writeable = False
        return vals

    def position_apply(self, values: np.ndarray) -> np.ndarray:
        return np.fft.ifft(self.position_values * np.fft.fft(values))

    def window_mask(self, cap: float) -> np.ndarray:
        return np.abs(self.position_values) <= cap

    def window_project(self, values: np.ndarray, cap: float) -> np.ndarray:
        spectrum = np.fft.fft(values)
        spectrum[~self.window_mask(cap)] = 0.0
        return np.fft.ifft(spectrum)


def _as_circle_values(values: np.ndarray, circle: SupportCircle) -> np.ndarray:
    values = np.asarray(values, dtype=np.complex128)
    if values.shape == (circle.n + 1,):
        return values[: circle.n]
    if values.shape == (circle.n,):
        return values
    raise ValueError("values must match the grid (with or without the wrap point)")


def _modulation(circle: SupportCircle, evo: PostSelectedEvolution) -> tuple[np.ndarray, float]:
    """Periodic modulation carrying the evolution factor, and the constant
    position offset its twist-compensating phase introduces."""
    length = circle.circumference
    extent = length * evo.coupling / math.pi
    parity = int(round(extent)) % 2
    factor = evo.factor(circle.points)
    if parity:
        twist = np.exp(-1j * math.pi * (circle.points - circle.grid.p_min) / length)
        return factor * twist, math.pi / length
    return factor, 0.0


def _rayleigh(circle: SupportCircle, values: np.ndarray) -> float:
    norm = np.vdot(values, values).real
    if norm < 1e-14:
        raise ZeroNorm(f"norm^2 = {norm:.3e} is numerically zero")
    return np.vdot(values, circle.position_apply(values)).real / norm


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
    """Shift delta_q of a (not necessarily normalized) probe.

    Same quadrature as the expectation pipeline: Simpson weights on the
    closed grid, supplied derivative for the initial state, product rule for
    the evolved one.  Invariant under rescaling of the input.
    """
    p = grid.points
    b, bd = evo.factor_and_derivative(p)
    final_values = b * values
    final_derivative = bd * values + b * derivative
    return expect_q(final_values, final_derivative, grid) - expect_q(values, derivative, grid)


def final_position(values: np.ndarray, grid: MomentumGrid, evo: PostSelectedEvolution) -> float:
    """Mean position of the post-selected state: the variational functional.

    ``values`` are circle samples (a closed-grid vector is accepted, its wrap
    point ignored).  Computed spectrally on the endpoint-identified support.
    """
    circle = SupportCircle(grid)
    x = _as_circle_values(values, circle)
    mod, offset = _modulation(circle, evo)
    return _rayleigh(circle, mod * x) - offset


def shift_on_circle(values: np.ndarray, grid: MomentumGrid, evo: PostSelectedEvolution) -> float:
    """delta_q evaluated spectrally on the endpoint-identified support."""
    circle = SupportCircle(grid)
    x = _as_circle_values(values, circle)
    mod, offset = _modulation(circle, evo)
    return _rayleigh(circle, mod * x) - offset - _rayleigh(circle, x)


def gradient(values: np.ndarray, grid: MomentumGrid, evo: PostSelectedEvolution) -> np.ndarray:
    """Wirtinger gradient of :func:`final_position` in the conjugate circle
    samples: d(final_position)/d(Re x_k) = 2 Re(gradient_k), likewise Im."""
    circle = SupportCircle(grid)
    x = _as_circle_values(values, circle)
    mod, _ = _modulation(circle, evo)
    u = mod * x
    norm = np.vdot(u, u).real
    if norm < 1e-14:
        raise ZeroNorm("post-selection annihilated the state")
    mean = np.vdot(u, circle.position_apply(u)).real / norm
    return np.conj(mod) * (circle.position_apply(u) - mean * u) / norm


def default_position_cap(grid: MomentumGrid, evo: PostSelectedEvolution) -> float:
    """Position window for the ascent: wide enough to hold the optimal family
    (whose spectral spread grows with |A|), small against the grid Nyquist."""
    aw = complex(evo.weak.value)
    cap = 10.0 * evo.coupling * (1.0 + abs(aw))
    if abs(aw.real) > 1e-12:
        cap = max(cap, 4.0 * abs(evo.coupling * (abs(aw) ** 2 + 1.0) / (2.0 * aw.real)))
    nyquist = math.pi / grid.spacing
    return min(cap, 0.4 * nyquist)


def projected_gradient_norm(
    values: np.ndarray,
    grid: MomentumGrid,
    evo: PostSelectedEvolution,
    cap: float | None = None,
) -> float:
    """L2 norm of the functional gradient with the window cutoff applied and
    the scale/phase null directions removed."""
    circle = SupportCircle(grid)
    x = _as_circle_values(values, circle)
    grad = gradient(x, grid, evo)
    if cap is None:
        cap = default_position_cap(grid, evo)
    grad = circle.window_project(grad, cap)
    for d in (x, 1j * x):
        norm = math.sqrt(np.vdot(d, d).real)
        if norm > 1e-14:
            d = d / norm
            grad = grad - d * np.vdot(d, grad).real
    return math.sqrt(np.vdot(grad, grad).real / circle.spacing)


@dataclass(frozen=True, eq=False)
class OptimizerConfig:
    """Grid, stopping rules, and initialization for one ascent run.

    ``position_cap`` overrides the default window radius; ``tol`` applies to
    the windowed, gauge-projected gradient norm of the ascent functional.
    """

    grid: MomentumGrid
    max_iters: int = 4000
    step: float = 1.0
    tol: float = 1e-5
    seed: int = 0
    init: str = "gaussian"
    initial_values: np.ndarray | None = None
    position_cap: float | None = None

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.step > 0:
            raise ValueError("step must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.init not in ("gaussian", "random", "custom"):
            raise ValueError("init must be one of 'gaussian', 'random', 'custom'")
        if self.init == "custom" and self.initial_values is None:
            raise ValueError("init='custom' requires initial_values")


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


def _initial_circle_vector(config: OptimizerConfig, circle: SupportCircle) -> np.ndarray:
    p = circle.points
    if config.init == "gaussian":
        # Periodized so the seam stays smooth even for wide widths.
        width = circle.circumference / 12.0
        length = circle.circumference
        x = np.zeros(circle.n, dtype=np.complex128)
        for image in (-1, 0, 1):
            center = image * length
            x += np.exp(-((p - center) ** 2) / (4.0 * width**2))
        return x
    if config.init == "custom":
        values = np.asarray(config.initial_values, dtype=np.complex128)
        if values.shape == (circle.n + 1,):
            values = values[: circle.n]
        if values.shape != (circle.n,):
            raise ValueError("initial_values must match the grid point count")
        return values.copy()
    rng = np.random.default_rng(config.seed)
    x = np.zeros(circle.n, dtype=np.complex128)
    for mode in rng.integers(-40, 41, size=24):
        coeff = rng.standard_normal() + 1j * rng.standard_normal()
        x += coeff * np.exp(2j * math.pi * mode * np.arange(circle.n) / circle.n)
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
    NonFinite
        If the objective or gradient degenerates.
    """
    circle = SupportCircle(config.grid)
    mod, offset = _modulation(circle, evo)
    cap = config.position_cap if config.position_cap is not None else default_position_cap(
        config.grid, evo
    )
    if int(np.count_nonzero(circle.window_mask(cap))) < 3:
        raise ValueError("position window holds fewer than three modes; refine the grid")

    def ascent_value(x: np.ndarray) -> float:
        return _rayleigh(circle, mod * x) - offset

    def shift_value(x: np.ndarray) -> float:
        return ascent_value(x) - _rayleigh(circle, x)

    def raw_gradient(x: np.ndarray) -> np.ndarray:
        u = mod * x
        norm = np.vdot(u, u).real
        mean = np.vdot(u, circle.position_apply(u)).real / norm
        return np.conj(mod) * (circle.position_apply(u) - mean * u) / norm

    def projected(x: np.ndarray, grad: np.ndarray) -> np.ndarray:
        grad = circle.window_project(grad, cap)
        for d in (x, 1j * x):
            d = d / math.sqrt(np.vdot(d, d).real)
            grad = grad - d * np.vdot(d, grad).real
        return grad

    x = circle.window_project(_initial_circle_vector(config, circle), cap)
    norm = math.sqrt(np.vdot(x, x).real)
    if norm < 1e-14:
        raise ZeroNorm("initialization vanished inside the position window")
    x = x / norm

    current = ascent_value(x)
    grad = projected(x, raw_gradient(x))
    if not (math.isfinite(current) and np.all(np.isfinite(grad.view(np.float64)))):
        raise NonFinite("non-finite functional or gradient at the initial iterate")
    grad_norm = math.sqrt(np.vdot(grad, grad).real / circle.spacing)

    iterations: list[tuple[int, float, float]] = []
    converged = grad_norm < config.tol
    step = config.step

    for iteration in range(1, config.max_iters + 1):
        if converged:
            break
        slope = 2.0 * np.vdot(grad, grad).real
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            candidate = circle.window_project(x + step * grad, cap)
            candidate = candidate / math.sqrt(np.vdot(candidate, candidate).real)
            value = ascent_value(candidate)
            if math.isfinite(value) and value >= current + _ARMIJO_C1 * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        x, current = candidate, value
        grad = projected(x, raw_gradient(x))
        if not np.all(np.isfinite(grad.view(np.float64))):
            raise NonFinite("non-finite gradient")
        grad_norm = math.sqrt(np.vdot(grad, grad).real / circle.spacing)
        iterations.append((iteration, shift_value(x), grad_norm))
        converged = grad_norm < config.tol
        step = min(step * 2.0, 1e6)

    if not iterations:
        iterations.append((0, shift_value(x), grad_norm))

    closed = np.empty(circle.n + 1, dtype=np.complex128)
    closed[: circle.n] = x
    closed[circle.n] = x[0]
    derivative = np.fft.ifft(1j * (-circle.position_values) * np.fft.fft(x))
    closed_derivative = np.empty_like(closed)
    closed_derivative[: circle.n] = derivative
    closed_derivative[circle.n] = derivative[0]
    final_probe = ProbeWavefunction.normalized(
        config.grid, closed, derivative=closed_derivative, label="optimized"
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
