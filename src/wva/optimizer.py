"""Variational verification of the back-action-cancelling probe.

The closed-form probe arises from a Lagrangian whose functional is the mean
position of the post-selected state, with the normalization constraint's
multiplier turning out to vanish (the functional is a quotient, hence scale
invariant).  This module extremizes that functional numerically, with no
reference to the closed-form probe, and reports the shift delta_q of every
iterate so the closed-form value can be checked against an independent
search.

Geometry of the search space.  Mean position only generates a well-posed
variational problem on wavefunctions over the support with identified
endpoints (the self-adjoint domain of i d/dp); there the position spectrum is
the discrete comb with spacing 2g/extent.  Because the observable squares to
one, the evolution factor is antiperiodic over one support period, so
post-selection maps the periodic sector to the half-comb-twisted one; a fixed
demodulation phase brings it back, at the price of a constant position
offset.  Every stationary state of the functional is the inverse evolution
factor times a comb mode, all of them gauge translates of one another, and
each reproduces the same shift - the closed-form value.

The ascent restricts iterates to a finite position window (an orthogonal
Fourier cutoff).  The window is what makes maximization meaningful: without
it the mean-position functional is unbounded over normalized probes (probe
states with a tiny far-away position component that post-selection reweights
can make the shift arbitrarily large; the weak-regime Gaussian already beats
the closed-form value whenever 2 (Re A)^2 > |A|^2 + 1).  Inside the window
the closed-form probe is an extreme comb rung: the maximizer of the final
mean position when Re A > 0 and its minimizer when Re A < 0, where the
closed-form shift g(|A|^2 + 1)/(2 Re A) is negative.  So the ascent runs on
sign(Re A) times the final mean position and reaches the closed-form shift
for either sign; at Re A = 0 there is neither closed form nor direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import evolution_factor, max_shift
from .errors import NonFinite, UnderResolvedGrid, ZeroNorm
from .evolution import PostSelectedEvolution
from .probe import ZERO_NORM_FLOOR, MomentumGrid, ProbeWavefunction, check_norm
from .system import all_finite

_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 60


class AscentCore:
    """The ascent functional on the endpoint-identified support, built once
    per (grid, evolution).

    The duplicated last grid point is dropped; the remaining n samples live on
    a circle of circumference n * spacing, where position is diagonal in the
    Fourier basis with eigenvalues on the 2g/extent comb.  Post-selection
    multiplies the samples by a periodic modulation: the evolution factor,
    which changes sign over each support period pi/g, times a
    twist-compensating phase when the circle spans an odd number of those
    periods; the phase shifts every mean position by a constant offset.

    The position window |q| <= ``cap`` is wide enough to hold the optimal
    family (whose spectral spread grows with |A|) and small against the grid
    Nyquist.  ``sign`` is sign(Re A), the direction of the ascent.  Every
    method takes the n circle samples of a state, not necessarily normalized.

    Raises
    ------
    ZeroRealPart
        If |Re A| is below ``ZERO_REAL_EPS``: the closed form and the ascent
        direction are undefined.
    ValueError
        If the grid does not span a whole number of support periods pi/g.
    """

    def __init__(self, grid: MomentumGrid, evo: PostSelectedEvolution) -> None:
        aw = complex(evo.weak.value)
        reference = max_shift(evo.coupling, aw)
        self.sign = math.copysign(1.0, aw.real)
        self.n = grid.n_points - 1
        self.spacing = grid.spacing
        self.length = self.n * self.spacing
        periods = self.length * evo.coupling / math.pi
        if abs(periods - round(periods)) > 1e-9 * periods:
            raise ValueError(
                f"the grid spans {periods:.6g} support periods pi/g; the ascent needs a whole number"
            )
        self.points = grid.points[: self.n]
        self.positions = -2.0 * math.pi * np.fft.fftfreq(self.n, d=self.spacing)
        self.modulation = evolution_factor(evo.coupling, evo.weak.value, self.points)
        self.offset = 0.0
        if int(round(periods)) % 2:
            twist = np.exp(-1j * math.pi * (self.points - grid.p_min) / self.length)
            self.modulation = self.modulation * twist
            self.offset = math.pi / self.length
        cap = max(10.0 * evo.coupling * (1.0 + abs(aw)), 4.0 * abs(reference))
        self.cap = min(cap, 0.4 * (math.pi / grid.spacing))
        self.inside = np.abs(self.positions) <= self.cap

    def _circle(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (self.n,):
            raise ValueError(f"expected the {self.n} circle samples, got shape {x.shape}")
        return x

    def _window(self, values: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the position window |q| <= cap."""
        spectrum = np.fft.fft(values)
        spectrum[~self.inside] = 0.0
        return np.fft.ifft(spectrum)

    def _moment(self, values: np.ndarray) -> tuple[float, float, np.ndarray]:
        """Mean position of ``values``, their squared norm, and position applied to them."""
        norm = check_norm(np.vdot(values, values).real)
        applied = np.fft.ifft(self.positions * np.fft.fft(values))
        return np.vdot(values, applied).real / norm, norm, applied

    def _project(self, x: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, float]:
        """Windowed gradient with the scale and phase directions of ``x``
        removed, and its L2 norm."""
        grad = self._window(grad)
        for d in (x, 1j * x):
            norm = math.sqrt(np.vdot(d, d).real)
            if norm > ZERO_NORM_FLOOR:
                d = d / norm
                grad = grad - d * np.vdot(d, grad).real
        return grad, math.sqrt(np.vdot(grad, grad).real / self.spacing)

    def mean_position(self, x: np.ndarray) -> float:
        """Mean position of the state itself (before post-selection)."""
        return self._moment(self._circle(x))[0]

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Mean position of the post-selected state (the variational
        functional) and its Wirtinger gradient in the conjugate circle
        samples: d(value)/d(Re x_k) = 2 Re(gradient_k), likewise Im."""
        u = self.modulation * self._circle(x)
        mean, norm, applied = self._moment(u)
        return mean - self.offset, np.conj(self.modulation) * (applied - mean * u) / norm

    def shift(self, x: np.ndarray) -> float:
        """Shift delta_q of the state, evaluated spectrally."""
        return self.value_and_gradient(x)[0] - self.mean_position(x)

    def projected_gradient_norm(self, x: np.ndarray) -> float:
        """L2 norm of the functional's gradient with the window applied and
        the scale and phase null directions removed."""
        x = self._circle(x)
        return self._project(x, self.value_and_gradient(x)[1])[1]


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


@dataclass(frozen=True, eq=False)
class OptimizerConfig:
    """Grid, stopping rules, and initialization for one ascent run.

    ``init`` is ``"gaussian"`` (a periodized Gaussian) or ``"random"`` (24
    random comb modes drawn with ``seed``).  ``tol`` applies to the windowed,
    gauge-projected gradient norm of the ascent functional
    (:meth:`AscentCore.projected_gradient_norm`).
    """

    grid: MomentumGrid
    max_iters: int = 4000
    step: float = 1.0
    tol: float = 1e-5
    seed: int = 0
    init: str = "gaussian"

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

    The ascent functional, sign(Re A) times the final mean position,
    increases monotonically by construction; the recorded shift converges to it from either side and
    settles at the closed-form value on the stationary family.
    """

    iterations: list[tuple[int, float, float]]
    final_probe: ProbeWavefunction
    converged: bool


def _initial_circle_vector(config: OptimizerConfig, core: AscentCore) -> np.ndarray:
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
    """Projected gradient ascent of sign(Re A) times the post-selected mean
    position, so that the closed-form shift, negative when Re A < 0, is the
    optimum it reaches.

    Iterates are renormalized and kept inside the position window; steps use
    an Armijo backtracking line search with doubling after success.  Stops
    when the windowed, gauge-projected gradient norm falls below ``tol`` or
    after ``max_iters`` accepted steps.  The trace records the shift delta_q
    of each accepted iterate, with its sign; on the stationary family it
    equals the closed-form shift g(|A|^2 + 1)/(2 Re A) regardless of which comb rung the ascent
    reached (the rungs are translation gauge copies).

    Raises
    ------
    ZeroRealPart
        If |Re A| is below ``ZERO_REAL_EPS``, before any iteration.
    ValueError
        If the grid does not span a whole number of support periods pi/g.
    UnderResolvedGrid
        If the position window holds fewer than three Fourier modes of the grid.
    NonFinite
        If the objective or gradient degenerates.
    """
    core = AscentCore(config.grid, evo)
    if int(np.count_nonzero(core.inside)) < 3:
        raise UnderResolvedGrid("position window holds fewer than three modes; refine the grid")

    x = core._window(_initial_circle_vector(config, core))
    norm = math.sqrt(np.vdot(x, x).real)
    if norm < ZERO_NORM_FLOOR:
        raise ZeroNorm("initialization vanished inside the position window")
    x = x / norm

    # The ascent runs on sign(Re A) <q>_f; current and the trace stay unsigned.
    sign = core.sign
    current, raw = core.value_and_gradient(x)
    grad, grad_norm = core._project(x, raw)
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
            with np.errstate(over="ignore", invalid="ignore"):  # a trial too long for doubles fails
                candidate = core._window(x + sign * step * grad)
                norm_sq = np.vdot(candidate, candidate).real
            if math.isfinite(norm_sq):
                candidate = candidate / math.sqrt(norm_sq)
                value, raw = core.value_and_gradient(candidate)
                if math.isfinite(value) and sign * value >= sign * current + _ARMIJO_C1 * step * slope:
                    break
            step *= 0.5
        else:
            break
        x, current = candidate, value
        grad, grad_norm = core._project(x, raw)
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
    derivative = probe.derivative
    mean_q = probe.means()[0]
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
