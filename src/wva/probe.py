"""Momentum-space probe wavefunctions: node sets, constructors, the position transform.

A wavefunction is sampled on a node set (:class:`Nodes`): momenta ``points``,
their count ``n_points``, quadrature ``weights`` and the ``coarse_weights`` of
the nested rule on half as many intervals, whose difference is the set's one
halving error estimate.  A wavefunction is normalized under the set's rule,
so all downstream quadrature is self-consistent.  Two kinds of node set exist:

- :class:`MomentumGrid`, a uniform grid with an odd point count under
  composite Simpson, nested in Simpson on its even-index points when the
  count is 4k + 1.  Gaussian, file and smoothed probes and every dump live
  here; the position transform (:func:`position_amplitudes`) and the
  finite-difference derivative need its uniform spacing.  A Gaussian probe
  sizes its own from its width and the coupling, a smoothed probe from the
  weak value and the smoothing rate.
- :class:`QuadratureNodes`, Clenshaw-Curtis nodes nested in the rule on
  their even-index nodes.  The optimal probe of a shift lives on nodes in
  theta = arg B(p), where its density is uniform: one Clenshaw-Curtis rule
  on each theta panel of a mesh graded toward the singularities of arg B
  (:func:`theta_nodes`), at 32 intervals per panel.  Its post-selected state
  lives on a small rule in p over the support (:func:`support_nodes`).

Every probe stores its derivative: constructed probes their analytic one,
user-supplied samples on a :class:`MomentumGrid` a fourth-order
finite-difference one, taken once when the probe is built.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .analytic import (
    _require_extent,
    _require_real_part,
    evolution_factor_and_derivative,
    max_shift,
)
from .errors import GridTooLarge, ScaleOutOfRange, UnderResolvedGrid, ZeroNorm
from .system import SCALE_RANGE, _unit_peak, all_finite

#: Tolerance on the grid-quadrature norm of a stored wavefunction.
NORMALIZATION_TOL = 1e-8
#: Half-width of a Gaussian probe's p-grid in units of its momentum width;
#: the grid drops 6.4e-14 of the probe's mass.
GAUSSIAN_HALF_WIDTH = 7.5
#: Largest point count a grid may have; checked before any sample is allocated.
MAX_GRID_POINTS = 1 << 24
#: Largest positions-times-momenta count that :func:`position_amplitudes` sums
#: densely on uniformly spaced positions; larger sums run as a chirp-z transform.
DENSE_SUM_MAX_TERMS = 1 << 16
#: Squared norms below this, relative to their scale, are numerically zero
#: (:func:`check_norm` raises :class:`ZeroNorm`).
ZERO_NORM_FLOOR = 1e-14
#: Clenshaw-Curtis intervals per theta panel of the optimal probe; the nested
#: rule on half as many gives its halving estimate.
PANEL_INTERVALS = 32
#: Ratio of successive panel widths of the geometric mesh toward a
#: singularity of arg B.
MESH_RATIO = 0.125
#: Largest halving estimate, relative to its scale, of a state's integrals
#: (:meth:`NodeSamples.check_resolved`).
HALVING_TOL = 1e-10
#: Most theta nodes in one batch of :func:`wva.expectation.optimal_shift_reports`:
#: it bounds the memory of a sweep's batches, not their count.
BATCH_NODES = 4096


def check_point_budget(count: int, what: str) -> None:
    """Raise :class:`GridTooLarge` when ``count`` samples exceed
    ``MAX_GRID_POINTS``; call it before allocating them."""
    if count > MAX_GRID_POINTS:
        raise GridTooLarge(f"{count} {what} exceed the budget {MAX_GRID_POINTS}")


def check_norm(norm_sq: float, scale: float = 1.0) -> float:
    """``norm_sq``, or :class:`ZeroNorm` when it is not positive or is below
    ``ZERO_NORM_FLOOR`` times ``scale``, the squared modulus of a factor that
    every expectation quotient cancels, such as a selection overlap."""
    if norm_sq < ZERO_NORM_FLOOR * scale or not norm_sq > 0.0:
        raise ZeroNorm(f"norm^2 = {norm_sq:.3e} is numerically zero: below {ZERO_NORM_FLOOR:g} of {scale:g}")
    return norm_sq


def check_scale(scale: float, what: str) -> None:
    """Raise :class:`ScaleOutOfRange` when a probe's momentum scale lies
    outside ``SCALE_RANGE``."""
    low, high = SCALE_RANGE
    if not low <= scale <= high:
        raise ScaleOutOfRange(
            f"{what} = {scale:.3e} lies outside [{low:g}, {high:g}], where the probe's "
            "samples and their moments stay normal doubles"
        )


class Nodes:
    """A node set: momenta ``points``, their count ``n_points``, quadrature
    ``weights``, and the ``coarse_weights`` of the nested rule on half as many
    intervals (zero on the nodes it skips).  What probes, evolution and
    expectations use of it is ``points``, ``n_points``, ``integrate`` and
    ``halving_error``."""

    def integrate(self, samples: np.ndarray):
        """Numpy's pairwise sum of weights times samples."""
        return (self.weights * samples).sum()

    def halving_error(self, samples: np.ndarray) -> float:
        """|fine rule - nested coarse rule| of the samples: the halving estimate."""
        return float(abs(((self.weights - self.coarse_weights) * samples).sum()))


@dataclass(frozen=True)
class MomentumGrid(Nodes):
    """Uniform, strictly increasing momentum grid with an odd point count.

    Odd counts keep composite Simpson quadrature applicable without a
    remainder panel.  The nested rule is Simpson on the even-index points at
    twice the spacing, which needs an odd count of them: a count 4k + 1.
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
        check_point_budget(self.n_points, "grid points")

    @property
    def spacing(self) -> float:
        return (self.p_max - self.p_min) / (self.n_points - 1)

    @cached_property
    def points(self) -> np.ndarray:
        pts = np.linspace(self.p_min, self.p_max, self.n_points)
        pts.flags.writeable = False
        return pts

    @cached_property
    def weights(self) -> np.ndarray:
        w = np.full(self.n_points, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        w *= self.spacing / 3.0
        w.flags.writeable = False
        return w

    @cached_property
    def coarse_weights(self) -> np.ndarray:
        """Simpson weights of the even-index points, zero on the odd ones.

        Raises
        ------
        UnderResolvedGrid
            If the count is not 4k + 1, so that no nested rule exists.
        """
        if self.n_points % 4 != 1:
            raise UnderResolvedGrid(f"{self.n_points} points have no nested Simpson rule: it needs 4k + 1 points")
        w = np.zeros(self.n_points)
        w[::2] = MomentumGrid(self.p_min, self.p_max, (self.n_points + 1) // 2).weights
        w.flags.writeable = False
        return w

    def integrate(self, samples: np.ndarray):
        """Composite-Simpson quadrature of samples given on this grid.

        Summed as h/3 * (s[0] + s[-1] + 4 * sum(s[1:-1:2]) + 2 * sum(s[2:-1:2])),
        each strided sum by numpy's pairwise summation.  This summation order
        is part of the output: ``(weights * samples).sum()`` agrees with it
        only to rounding, and in its place the figure dump of
        ``tests/data/golden_dump.csv`` no longer comes out byte for byte.  It
        also keeps the sum on the calling thread, where ``weights @ samples``,
        a BLAS call, would wake the helper threads of a pool that a host
        loaded before ``wva`` (see :mod:`wva`).  Real samples stay real;
        nothing is cast to complex.
        """
        s = samples
        return self.spacing / 3.0 * (s[0] + s[-1] + 4.0 * s[1:-1:2].sum() + 2.0 * s[2:-1:2].sum())

    @classmethod
    def for_support(cls, coupling: float, n_points: int = 4097, extent: int = 1) -> "MomentumGrid":
        """Grid covering [-pi*extent/2g, pi*extent/2g], the support (or an
        integer multiple of it) on which the hard-support probes live."""
        check_scale(coupling, "coupling")  # the support's scale is 1/g
        _require_extent(extent)
        half = math.pi * extent / (2.0 * coupling)
        return cls(-half, half, n_points)


@dataclass(frozen=True, eq=False)
class QuadratureNodes(Nodes):
    """Momenta with the weights of a rule and of its nested rule, given."""

    points: np.ndarray
    weights: np.ndarray
    coarse_weights: np.ndarray

    @property
    def n_points(self) -> int:
        return self.points.size

    @classmethod
    def mapped(cls, n: int, p: np.ndarray, jacobian) -> "QuadratureNodes":
        """The ``n``-interval rule of :func:`_clenshaw_curtis` mapped to momenta
        ``p``, given dp/dt at them (t in [0, pi] on each panel or period)."""
        _, w, w_coarse = _clenshaw_curtis(n)
        scale = math.pi * jacobian
        if np.size(scale) != p.size:  # a constant, shared by every node
            scale = np.broadcast_to(scale, p.shape)
        return cls(p.ravel(), (scale * w).ravel(), (scale * w_coarse).ravel())


@dataclass(frozen=True, eq=False)
class NodeSamples:
    """Values and derivative of a wavefunction at the points of a node set,
    of any norm: the optimal probe's ``evolution_view`` and every
    post-selected state.  :class:`ProbeWavefunction` is the normalized kind.
    A state's quadratures are formed here alone, each once, at first use:
    ``density`` |values|^2, ``weight`` its quadrature and the ``integrands``.

    A post-selected state keeps nodes of its own because the probe's do not
    resolve it.  The optimal probe's density is uniform in theta = arg B, and
    its theta nodes are graded toward the singularities of arg B; the
    post-selected state is flat in p instead.  On the probe's own 198 theta
    nodes (A = sqrt(3) + 2 sqrt(3) i, g = 0.1) its halving estimates are
    7.0e-9 of the weight 1.7, 3.2e-9 of the position scale 0.8 and 1.6e-8 of
    the momentum scale 27 (:meth:`check_resolved`), against ``HALVING_TOL`` =
    1e-10.
    """

    grid: Nodes
    values: np.ndarray
    derivative: np.ndarray

    @cached_property
    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    @cached_property
    def weight(self) -> float:
        return float(self.grid.integrate(self.density))

    @cached_property
    def integrands(self) -> dict[str, np.ndarray]:
        """The weight, position-moment and momentum-moment integrands."""
        position = np.conj(self.values)
        position *= self.derivative  # in place: one grid-sized temporary, not two
        return {"weight": self.density, "position moment": position, "momentum moment": self.grid.points * self.density}

    def means(self, scale: float = 1.0) -> tuple[float, float, float]:
        """:func:`_means` of the state's weight and moment integrals."""
        integrate, integrands = self.grid.integrate, self.integrands
        moments = integrate(integrands["position moment"]), integrate(integrands["momentum moment"])
        return _means(self.weight, *moments, scale)

    def check_resolved(self, what: str) -> None:
        """:func:`_check_halving` of the state's integrands."""
        grid, integrands = self.grid, self.integrands
        size = float(grid.integrate(np.abs(integrands["position moment"])))
        errors = [grid.halving_error(x) for x in integrands.values()]
        _check_halving(what, grid.n_points, *_reaches(grid.points, [0]), self.weight, size, errors)

    def run_integrals(self, runs=None) -> list[tuple[float, complex, float, float, list[float]]]:
        """Per run of ``runs`` (slices of the nodes), or per line of a block of
        states when ``runs`` is None, what :meth:`means` and
        :meth:`check_resolved` sum, summed over the run or line alone."""
        grid, integrands = self.grid, self.integrands
        halving = grid.weights - grid.coarse_weights
        magnitude = np.abs(integrands["position moment"])
        pairs = [(grid.weights, x) for x in (*integrands.values(), magnitude)]
        pairs += [(halving, x) for x in integrands.values()]
        # One product at a time, so that a batch holds one product's nodes; ``np.add.reduce``
        # is the pairwise sum of ``.sum()`` without its Python wrapper, on a run or on each line.
        if runs is None:
            sums = [np.add.reduce(w * x, axis=-1).tolist() for w, x in pairs]
        else:
            sums = [[np.add.reduce(product[run]) for run in runs] for product in (w * x for w, x in pairs)]
        return [
            (float(weight), position, momentum, float(size), [float(abs(error)) for error in errors])
            for weight, position, momentum, size, *errors in zip(*sums)
        ]


def _means(weight: float, position: complex, momentum: float, scale: float = 1.0) -> tuple[float, float, float]:
    """Mean position, mean momentum and the imaginary residual, once
    :func:`check_norm` accepts the weight against ``scale``.  Position is
    i d/dp: its mean is the real part of i * integral(conj(psi) psi') / weight."""
    weight = check_norm(weight, scale)
    moment = 1j * complex(position) / weight
    return moment.real, float(momentum) / weight, moment.imag


def _reaches(points: np.ndarray, starts: list[int]) -> list[float]:
    """max |p| over each run of ``points`` from one of ``starts`` to the next: exact."""
    return np.maximum(-np.minimum.reduceat(points, starts), np.maximum.reduceat(points, starts)).tolist()


def _check_halving(what: str, count: int, reach: float, weight: float, size: float, errors: list[float]) -> None:
    """Raise :class:`UnderResolvedGrid`, naming the state ``what`` on
    ``count`` nodes, unless the halving estimates ``errors`` of the weight,
    position-moment and momentum-moment integrands are each within
    ``HALVING_TOL`` of its scale; an estimate that is not a number fails.
    With the reach P = max |p| over the nodes, the scales are the weight W,
    max(``size``, W pi / P) where ``size`` is integral |conj(psi) psi'|, and
    W P, which bounds integral |p| |psi|^2."""
    scales = (weight, max(size, weight * math.pi / reach), weight * reach)
    if not all(error <= HALVING_TOL * scale for error, scale in zip(errors, scales)):
        names = ("weight", "position moment", "momentum moment")
        text = ", ".join(f"{name} {error:.1e} of {scale:.1e}" for name, error, scale in zip(names, errors, scales))
        raise UnderResolvedGrid(
            f"{what}: on {count} nodes the halving estimates ({text}) must be "
            f"within {HALVING_TOL:g} of their scales"
        )


@lru_cache(maxsize=8)
def _clenshaw_curtis(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clenshaw-Curtis rule with ``n`` (even) intervals on [0, 1], its nodes
    scaled to t in [0, pi].

    Returns the n + 1 increasing nodes t, their weights on [0, 1] (pi times
    them on [0, pi]), and the weights of the n/2-interval rule on the
    even-index nodes, which it shares.  The weights are the DCT-I of the even
    Chebyshev moments 2 / (1 - k^2), one real FFT (Waldvogel, BIT 46, 2006).
    Nodes are pi (1/2 + sin(...)/2) so that the rule is exactly symmetric
    about pi/2, and the even-index nodes of a rule are bitwise those of the
    rule on half as many intervals.  Rules are cached (read-only): a sweep
    builds the same few for every row.
    """
    k = np.arange(n + 1)
    nodes = math.pi * (0.5 + 0.5 * np.sin(math.pi * (2 * k - n) / (2 * n)))

    def weights(m: int) -> np.ndarray:
        moments = np.zeros(m + 1)
        moments[::2] = 2.0 / (1.0 - np.arange(0, m + 1, 2) ** 2.0)
        w = np.fft.rfft(np.concatenate([moments, moments[-2:0:-1]])).real / (2 * m)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    coarse = np.zeros(n + 1)
    coarse[::2] = weights(n // 2)
    rule = nodes, weights(n), coarse
    for array in rule:
        array.flags.writeable = False
    return rule


class _ThetaRow(NamedTuple):  # a weak value admitted to theta_nodes
    aw: complex
    shift: float
    cuts: list[float]
    nodes: int


def _theta_row(coupling: float, weak_value: complex, extent: int, n: int = PANEL_INTERVALS) -> _ThetaRow:
    """The checks of :func:`optimal_probe` on theta nodes, in order, and the cuts."""
    aw, shift = _checked_shift(coupling, weak_value)
    _require_extent(extent)
    support_nodes(coupling, extent, 16)  # its budget is checked first
    sign = math.copysign(1.0, aw.real)
    a, b = abs(aw.real), sign * aw.imag
    cuts = _theta_panels(a, b, math.atan2(b, a) - 0.5 * math.pi, extent)
    nodes = extent * (len(cuts) - 1) * (n + 1)
    check_point_budget(nodes, "quadrature nodes")
    return _ThetaRow(aw, shift, cuts, nodes)


def theta_nodes(
    coupling: float, rows: list[_ThetaRow], extent: int, n: int
) -> tuple[QuadratureNodes, np.ndarray, list[int]]:
    """Nodes uniform in theta = arg B(p) over the support [-pi*extent/2g,
    pi*extent/2g] for each row of a batch, ``n`` Clenshaw-Curtis intervals on
    each theta panel of :func:`_theta_panels`; the evolution factor B at
    them; and each row's count of panels.

    theta falls by pi over each period of B, with dtheta/dp = -g Re A / |B|^2,
    so the optimal probe's density g |Re A| / (pi extent |B|^2) is uniform in
    theta.  For Re A = a > 0 and Im A = b, theta in the central window
    [arg A - pi/2, arg A + pi/2] maps to the central period by
    gp = atan2(-sin theta, a cos theta + b sin theta), with
    |B|^2 = a^2 / (sin^2 theta + (a cos theta + b sin theta)^2); the other
    periods are this window again, p shifted by whole periods pi/g.  Re A < 0
    is the mirror image p -> -p of -A.  On an even extent the support ends in
    half periods: the window is cut at theta = 0, the support edge, and the
    part on either side of it is shifted to the periods that it fills.  The
    weights are each panel's rule times dp/dtheta = |B|^2 / (g |a|).  B comes
    from theta, not from cos(gp) and sin(gp), whose difference loses digits
    where |B| is small.

    ``rows`` come from :func:`_theta_row`: a sweep's, up to ``BATCH_NODES``
    nodes (:func:`wva.expectation.optimal_shift_reports`), or the one row of
    :func:`optimal_probe`.  Each panel of each period of each row is a line
    of a (line, node) array, and a, b, the sign and the period are columns:
    every expression runs once per batch, each row's nodes are one run, and
    each value is the one that the row alone gives.
    """
    lines, panels = _theta_lines(rows, extent)
    a, b, sign, left, right, turns = lines[:, :, None]  # each (line, 1)
    width = right - left
    theta = left + width / math.pi * _clenshaw_curtis(n)[0]  # (line, node)
    sin, cos = np.sin(theta), np.cos(theta)
    cross = a * cos + b * sin
    p = (np.arctan2(-sin, cross) + math.pi * turns) * (sign / coupling)
    inverse_density = sin * sin + cross * cross  # a^2 / |B|^2
    factor = a / np.sqrt(inverse_density) * (cos + 1j * sin)
    factor = factor * (1.0 - 2.0 * (turns % 2))  # B(p + pi/g) = -B(p)
    # dp/du for u in [0, pi] on each panel.
    jacobian = width * (a / (math.pi * coupling)) / inverse_density
    return QuadratureNodes.mapped(n, p, jacobian), factor.ravel(), panels


def _theta_lines(rows: list[_ThetaRow], extent: int) -> tuple[np.ndarray, list[int]]:
    """The lines of :func:`theta_nodes` by whole-array steps, as a (6, line) array
    of a, b, sign, left and right cut and turns; and each row's count of lines."""
    cuts = [np.array(row.cuts) for row in rows]
    counts = np.array([c.size - 1 for c in cuts])  # each row's panels in one period
    panels = extent * counts
    line_row = np.repeat(np.arange(len(rows)), panels)
    # The line's place in its row, then its period and its panel.
    place = np.arange(line_row.size) - np.repeat(np.cumsum(panels) - panels, panels)
    period, panel = np.divmod(place, counts[line_row])
    panel += np.repeat(np.cumsum(counts) - counts, panels)  # into the rows' panels
    left, right = np.concatenate([c[:-1] for c in cuts])[panel], np.concatenate([c[1:] for c in cuts])[panel]
    aw = np.array([row.aw for row in rows])[line_row]
    sign = np.copysign(1.0, aw.real)
    turns = period - 0.5 * (extent - 1)
    if extent % 2 == 0:  # a panel below theta = 0 fills the period before
        turns += np.where(left < 0.0, -0.5, 0.5)
    return np.array([np.abs(aw.real), sign * aw.imag, sign, left, right, turns]), panels.tolist()


def _theta_panels(a: float, b: float, start: float, extent: int) -> list[float]:
    """Breakpoints of the theta panels of the window [start, start + pi].

    arg B = atan2(-sin theta, a cos theta + b sin theta) is singular where
    a cos theta + (b -/+ i) sin theta = 0, at theta* = -atan(a / (b - i))
    modulo pi and its conjugate; A = +/-1 has none, as arg B is linear in
    theta there.  The singularity lies mid window for |A| < 1, about a/2
    from a window end for |A| near 1 and small a, and within about
    a / |A|^2 of one for large |A|.

    A geometric mesh runs toward Re theta* and its images +/- pi: cuts there
    and at distances pi * MESH_RATIO^j from them, down to the first within
    2 |Im theta*|.  So no panel is much wider than its distance to the
    singularity, and the 32-interval rule on each is within the halving
    tolerance of its nested 16-interval rule (Schwab, "p- and hp-Finite
    Element Methods", 1998; Tee & Trefethen, SIAM J. Sci. Comput. 28, 2006).  A mesh that stops at
    |Im theta*| leaves the panels at Re theta* up to 8 |Im theta*| wide,
    and there the 32-interval rule's halving estimate of the mean momentum
    reaches 4e-10 of pi/2g (A = -2.05 + 0.06i, g = 0.5).  Cuts that round to
    the same theta are merged.
    """
    end = start + math.pi
    cuts = {start, end, 0.0} if extent % 2 == 0 else {start, end}
    if (a, b) != (1.0, 0.0):
        pole = -cmath.atan(a / complex(b, -1.0))
        nearest = start + (pole.real - start) % math.pi
        cuts.add(nearest)
        width = math.pi
        while width > 2.0 * abs(pole.imag):
            width *= MESH_RATIO
            cuts.update((nearest - width, nearest + width))
            cuts.update((nearest - math.pi + width, nearest + math.pi - width))  # the images
    return sorted(cut for cut in cuts if start <= cut <= end)


@lru_cache(maxsize=8)
def support_nodes(coupling: float, extent: int, n: int) -> QuadratureNodes:
    """Clenshaw-Curtis rule in p on each period of [-pi*extent/2g, pi*extent/2g].

    Sets are cached (read-only): every row of a sweep at one coupling puts its
    post-selected state on the same set.
    """
    check_point_budget(extent * (n + 1), "quadrature nodes")
    t, period = _clenshaw_curtis(n)[0], np.arange(extent)[:, None]
    p = (t + math.pi * period) / coupling - 0.5 * math.pi * extent / coupling
    nodes = QuadratureNodes.mapped(n, p, 1.0 / coupling)
    for array in (nodes.points, nodes.weights, nodes.coarse_weights):
        array.flags.writeable = False
    return nodes


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


def _require_finite(samples: np.ndarray, what: str) -> None:
    if not all_finite(samples):
        raise ValueError(f"wavefunction {what} must be finite everywhere")


def _require_normalized(weight: float) -> None:
    if abs(weight - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"wavefunction norm^2 = {weight!r} deviates from 1 beyond {NORMALIZATION_TOL}")


@dataclass(frozen=True, eq=False)
class ProbeWavefunction(NodeSamples):
    """A probe: :class:`NodeSamples` normalized on its node set, with a name.

    Instances are immutable and normalized: their ``weight`` equals one within
    ``NORMALIZATION_TOL``.  ``derivative`` is always stored: the analytic
    samples when the constructor knows them, else :func:`numeric_derivative`
    of the values, computed once at construction, which needs a
    :class:`MomentumGrid`.  ``evolution_view``, when set, holds the same
    wavefunction's samples on the node set on which
    :func:`wva.evolution.apply_postselection` integrates its post-selected
    state.
    """

    derivative: np.ndarray | None = None
    label: str = ""
    evolution_view: NodeSamples | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape != (self.grid.n_points,):
            raise ValueError("values must match the grid point count")
        _require_finite(values, "values")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        _require_normalized(self.weight)
        if self.derivative is None:
            if not isinstance(self.grid, MomentumGrid):
                raise ValueError("a probe on quadrature nodes needs a derivative: the stencil needs a MomentumGrid")
            deriv = numeric_derivative(values, self.grid)
        else:
            deriv = np.asarray(self.derivative, dtype=np.complex128)
            if deriv.shape != values.shape:
                raise ValueError("derivative must match the grid point count")
            _require_finite(deriv, "derivative")
        deriv.flags.writeable = False
        object.__setattr__(self, "derivative", deriv)

    @classmethod
    def normalized(
        cls,
        grid: Nodes,
        values: np.ndarray,
        derivative: np.ndarray | None = None,
        label: str = "",
    ) -> "ProbeWavefunction":
        """Rescale raw samples to unit grid norm and wrap them: first by the
        exact power of two that brings their peak near one, so that samples
        at any finite scale are weighed without overflow or underflow.

        Raises
        ------
        ZeroNorm
            If the weight is below ``ZERO_NORM_FLOOR`` of the samples' own
            size, max |values|^2 times the length of the node set.
        """
        values = np.asarray(values, dtype=np.complex128)
        _require_finite(values, "values")
        given = []
        if derivative is not None:
            # Checked before scaling: inf * scale is a complex product with NaN parts.
            given.append(np.asarray(derivative, np.complex128))
            _require_finite(given[0], "derivative")
        values, *given = _unit_peak(values, *given)
        raw = NodeSamples(grid, values, None)
        size = float(raw.density.max()) * float(np.ptp(grid.points))
        scale = 1.0 / math.sqrt(check_norm(raw.weight, size))
        return cls(grid, values * scale, given[0] * scale if given else None, label)


def gaussian_probe(coupling: float, width: float, n_points: int | None = None) -> ProbeWavefunction:
    """Gaussian probe; ``width`` is the standard deviation of the momentum
    density (its position density has standard deviation 1/(2*width)).

    The probe sizes its own :class:`MomentumGrid` over
    +/-``GAUSSIAN_HALF_WIDTH`` widths, which drops 6.4e-14 of the Gaussian's
    mass.  The grid has ``n_points`` points when given; by default its
    spacing is at most width/80 and 0.022/coupling, which resolves the
    oscillations at scale 1/coupling, and its count is at least 4001, rounded
    up to 4k + 1 so that a nested rule exists.  Values are renormalized on the
    grid and the analytic derivative is attached.

    Raises
    ------
    ScaleOutOfRange
        If ``width`` lies outside ``SCALE_RANGE``, or the coupling is not
        positive; a coupling too large for the grid's spacing is refused by
        the grid budget instead.
    ValueError
        If ``n_points`` is even or below 3.
    GridTooLarge
        If the grid exceeds ``MAX_GRID_POINTS``.
    """
    if not coupling > 0.0:
        raise ScaleOutOfRange(f"coupling = {coupling:.3e} is not positive")
    check_scale(width, "width")
    half = GAUSSIAN_HALF_WIDTH * width
    if n_points is None:
        spacing = min(width / 80.0, 0.022 / max(coupling, 1e-12))
        count = 2.0 * half / spacing
        if math.isinf(count):  # the spacing underflowed: int() cannot take the count
            check_point_budget(count, "grid points")
        n_points = max(int(math.ceil(count)) + 1, 4001)
        n_points += (1 - n_points) % 4
    grid = MomentumGrid(-half, half, n_points)
    p = grid.points
    values = (2.0 * math.pi * width**2) ** (-0.25) * np.exp(-(p**2) / (4.0 * width**2))
    values = values.astype(np.complex128)
    derivative = -p / (2.0 * width**2) * values
    return ProbeWavefunction.normalized(grid, values, derivative, label=f"gaussian(width={width:g})")


def recommended_support_points(weak_value: complex, extent: int = 1) -> int:
    """Point count of a :class:`MomentumGrid` for a hard-support probe: the
    default count of a ``dump``, and of the support interior of
    :func:`smoothed_optimal_probe`.

    The inverse evolution factor peaks like |A|^2 / (Re A)^2 over a narrow
    angular window, so resolution must grow with |A|^2 / |Re A| to keep the
    Simpson quadrature at the part-per-million level; the count is rounded
    up to 4k + 1.  That sizes for dumps, not for the halving check of
    :func:`wva.expectation.shift_report`, which refuses the count for sharp
    weak values: at 0.1 - 5i the position moment's estimate is 5.7e-8 of its
    scale.  The optimal probe escapes this law on :func:`theta_nodes`.

    Raises
    ------
    ZeroRealPart
        If |Re weak_value| < 1e-12, where no hard-support probe exists.
    """
    aw = _require_real_part(weak_value)
    sharpness = abs(aw) ** 2 / abs(aw.real)
    n = max(4097 * extent, int(math.ceil(40.0 * sharpness * extent)))
    return n + (1 - n) % 4  # 4k + 1: a nested rule exists


def _checked_shift(coupling: float, weak_value: complex) -> tuple[complex, float]:
    """The weak value and its max_shift, once the coupling and |max_shift| pass check_scale."""
    aw = _require_real_part(weak_value)
    check_scale(coupling, "coupling")
    shift = max_shift(coupling, aw)
    check_scale(abs(shift), "|max_shift|")
    return aw, shift


def _optimal_samples(coupling: float, aw, shift, extent: int, p: np.ndarray, factor=None):
    """The optimal probe's values and derivative at momenta p, with the
    analytic amplitude sqrt(g |Re A| / (pi extent)); ``aw`` and its ``shift``
    are scalars, or columns of one value per line of p.  B(p) is ``factor``
    when given, as :func:`theta_nodes` computes it from theta where |B| is
    small; B'(p) always comes from :func:`evolution_factor_and_derivative`."""
    b, factor_d = evolution_factor_and_derivative(coupling, aw, p)
    factor = b if factor is None else factor
    amplitude = np.sqrt(coupling * np.abs(np.real(aw)) / (math.pi * extent))
    values = amplitude * np.exp(-1j * shift * p) / factor
    derivative = values * (-(factor_d / factor) - 1j * shift)
    return values, derivative


def _optimal_batch(coupling: float, rows: list[_ThetaRow], extent: int) -> tuple[NodeSamples, NodeSamples, list]:
    """The probes of ``rows`` on theta nodes (a slice each) and their views (a line each)."""
    nodes, factor, panels = theta_nodes(coupling, rows, extent, PANEL_INTERVALS)
    aw, shift = np.array([row.aw for row in rows])[:, None], np.array([row.shift for row in rows])[:, None]
    support = support_nodes(coupling, extent, 16)
    views = NodeSamples(support, *_optimal_samples(coupling, aw, shift, extent, support.points))
    lines = np.repeat(np.arange(len(rows)), panels)  # the row of each line
    shape = (-1, PANEL_INTERVALS + 1)
    points, factor = nodes.points.reshape(shape), factor.reshape(shape)  # (line, node)
    samples = _optimal_samples(coupling, aw[lines], shift[lines], extent, points, factor)
    ends = [0, *itertools.accumulate(count * (PANEL_INTERVALS + 1) for count in panels)]
    return NodeSamples(nodes, *(x.ravel() for x in samples)), views, list(map(slice, ends, ends[1:]))


def optimal_probe(
    coupling: float,
    weak_value: complex,
    n_points: int | None = None,
    extent: int = 1,
) -> ProbeWavefunction:
    """Back-action-cancelling probe on the support [-pi*extent/2g, pi*extent/2g].

    The momentum wavefunction is proportional to the inverse evolution
    factor times a linear phase whose slope is minus the maximal shift; it
    attains :func:`wva.analytic.max_shift` exactly and starts with zero mean
    position.  Any integer ``extent`` reproduces the same shift.

    By default (``n_points=None``) it keeps its analytic amplitude on
    :func:`theta_nodes`: theta panels graded toward the singularities of
    arg B, each at ``PANEL_INTERVALS`` (32) intervals; the halving check of
    :func:`wva.expectation.shift_report` certifies that rule against its
    nested 16-interval rule.  Its ``evolution_view`` is the probe on the
    16-interval :func:`support_nodes`, on which the post-selected state (flat
    density, linear phase) integrates exactly; the theta nodes do not
    resolve that state (see :class:`NodeSamples`).  The probe is a batch of
    one of :func:`theta_nodes`, whose batches of a sweep's rows hold up to
    ``BATCH_NODES`` nodes: there is no other theta-node path.

    With a point count the probe is sampled on a :class:`MomentumGrid` and
    renormalized there, as position transforms and the optimizer need; that
    count must grow with |A|^2 / |Re A| (see :func:`recommended_support_points`).

    Raises
    ------
    ValueError
        If ``extent`` is not a positive integer.
    ZeroRealPart
        If |Re weak_value| < 1e-12 (not normalizable in that case).
    ScaleOutOfRange
        If the coupling or |max_shift| lies outside ``SCALE_RANGE``; the
        position moment's integrand grows like the square of the shift.
    GridTooLarge
        If the grid or the node set exceeds ``MAX_GRID_POINTS``.
    """
    if n_points is None:
        probe, views, _ = _optimal_batch(coupling, [_theta_row(coupling, weak_value, extent)], extent)
        view = NodeSamples(views.grid, views.values[0], views.derivative[0])
        return ProbeWavefunction(probe.grid, probe.values, probe.derivative, "optimal", view)
    aw, shift = _checked_shift(coupling, weak_value)
    grid = MomentumGrid.for_support(coupling, n_points, extent)
    values, derivative = _optimal_samples(coupling, aw, shift, extent, grid.points)
    return ProbeWavefunction.normalized(grid, values, derivative, label="optimal")


def smoothed_optimal_probe(
    coupling: float,
    weak_value: complex,
    smoothing: float,
    n_points: int | None = None,
) -> ProbeWavefunction:
    """Optimal probe with its hard support edges replaced by exponential
    tails of rate ``smoothing``; continuous at the former edges by
    construction and pointwise convergent to :func:`optimal_probe` as the
    rate grows.

    The probe sizes its own :class:`MomentumGrid`.  The support
    [-pi/2g, pi/2g] gets ``n_points`` points (by default
    :func:`recommended_support_points` of the weak value; an even count is
    raised by one), or more if the spacing must shrink to 1/(8 * smoothing)
    to resolve the tails.  Each tail continues at that spacing over an even
    number of points until exp(-smoothing * length) < 1e-14.  So the support
    endpoints, where the derivative has kinks, land on even indices, and
    Simpson panels never straddle them.  At the two kinks the stored
    derivative is the mean of the one-sided derivatives, which makes
    composite Simpson integrals of value*derivative products agree with the
    piecewise-exact ones.

    The tails need no mass check: they drop at most
    1e-28 g / (pi |Re A| smoothing) of the norm, a grid within
    ``MAX_GRID_POINTS`` has g / smoothing < 4.1e5, and |Re A| >= 1e-12, so
    the loss stays below 1.4e-11.

    Raises
    ------
    ZeroRealPart
        If |Re weak_value| < 1e-12, before any grid is sized.
    ScaleOutOfRange
        If the coupling or ``smoothing`` lies outside ``SCALE_RANGE``, where
        sizing the grid divides by zero or overflows.
    GridTooLarge
        If the grid exceeds ``MAX_GRID_POINTS``.
    """
    aw = _require_real_part(weak_value)
    check_scale(coupling, "coupling")
    check_scale(smoothing, "smoothing")
    if n_points is None:
        n_points = recommended_support_points(aw)
    if n_points < 3:
        raise ValueError("n_points must be at least 3")
    half = math.pi / (2.0 * coupling)
    spacing = min(2.0 * half / (n_points - 1), 1.0 / (8.0 * smoothing))
    n_int = int(round(2.0 * half / spacing)) + 1
    n_int += 1 - n_int % 2
    spacing = 2.0 * half / (n_int - 1)
    n_tail = int(math.ceil(math.log(1e14) / smoothing / spacing))
    n_tail = max(n_tail + n_tail % 2, 2)
    grid = MomentumGrid(-half - n_tail * spacing, half + n_tail * spacing, n_int + 2 * n_tail)
    i_left, i_right = n_tail, n_tail + n_int - 1  # the kinks, both even

    p = grid.points
    values = np.empty(grid.n_points, dtype=np.complex128)
    derivative = np.empty_like(values)
    interior = slice(i_left, i_right + 1)
    values[interior], derivative[interior] = _optimal_samples(coupling, aw, max_shift(coupling, aw), 1, p[interior])

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


def _chirp(alpha: float, n: int) -> np.ndarray:
    """exp(-i alpha m^2 / 2) for m = 0..n-1.

    The phase is reduced modulo 2 pi in exact arithmetic (for m below 2^24,
    i.e. within ``MAX_GRID_POINTS``), so its rounding error stays at a few
    ulps of one turn instead of growing with alpha m^2.
    """
    turns = -alpha / (4.0 * math.pi)  # the phase is 2 pi * turns * m^2
    split = 134217729.0 * turns  # Veltkamp split: turns_hi keeps 26 bits
    turns_hi = split - (split - turns)
    turns_lo = turns - turns_hi
    m2 = np.arange(n, dtype=np.int64) ** 2
    m2_lo = m2 & ((1 << 26) - 1)
    m2_hi = (m2 - m2_lo).astype(float)
    m2_lo = m2_lo.astype(float)
    # Three of the four partial products are exact; drop their whole turns.
    frac = turns_lo * m2_lo
    for exact in (turns_hi * m2_hi, turns_hi * m2_lo, turns_lo * m2_hi):
        frac += exact - np.round(exact)
    return np.exp(2j * math.pi * frac)


def _chirp_z_sum(
    q0: float, step: float, n_q: int, grid: MomentumGrid, weighted: np.ndarray
) -> np.ndarray:
    """sum_j weighted[j] exp(i q_k p_j) at q_k = q0 + k*step, k < n_q, by
    Bluestein's chirp-z transform.

    With p_j = p_0 + j*h, q_k p_j = q0 p_j + k step p_0 + alpha k j where
    alpha = step*h, and k j = (k^2 + j^2 - (k - j)^2) / 2: the first two terms
    and the k^2, j^2 chirps are pre- and post-phases, and the (k - j)^2 chirp
    makes the sum one convolution, done by FFT at a power-of-two length.
    """
    p = grid.points
    n_p = p.size
    chirp = _chirp(step * grid.spacing, max(n_q, n_p))
    size = 1 << (n_q + n_p - 2).bit_length()  # no wrap-around: size >= n_q + n_p - 1
    kernel = np.zeros(size, dtype=np.complex128)
    kernel[:n_q] = chirp[:n_q]
    kernel[size - n_p + 1 :] = chirp[n_p - 1 : 0 : -1]
    pre = weighted * np.exp(1j * q0 * p) * chirp[:n_p].conj()
    conv = np.fft.ifft(np.fft.fft(pre, size) * np.fft.fft(kernel))[:n_q]
    return conv * np.exp(1j * step * p[0] * np.arange(n_q)) * chirp[:n_q].conj()


def position_amplitudes(probe: ProbeWavefunction, positions) -> np.ndarray:
    """Position-space amplitudes (2 pi)^-1/2 integral psi(p) exp(iqp) dp by Simpson
    quadrature; on the comb q = 2 g n those of the post-selected optimal probe
    are the shifted Dirichlet kernel sinc((q - q_f) / 2g) / sqrt(2g).

    Accurate while grid-spacing * |q| stays well below one radian; beyond
    that the oscillatory integrand is unresolved.

    The Simpson-weighted sum over the momentum grid runs one of two ways,
    picked from the input alone.  When the positions are uniformly spaced
    (to a few ulps, as ``np.linspace`` and the comb q = 2 g n give them) and
    positions times momenta exceed ``DENSE_SUM_MAX_TERMS``, it is a chirp-z
    transform: one FFT convolution of length about Nq + Np, agreeing with the
    dense sum to about 1e-13 of the largest amplitude.  Otherwise it is the dense sum
    over an Nq x Np matrix of exponentials, built in chunks.  The dense sum
    stays because it is the only path for arbitrary positions, and because
    small dumps print its exact rounding: the 17 x 257 figure dump of
    ``tests/data/golden_dump.csv`` holds 1e-17 imaginary parts at 12 digits.
    """
    q = np.atleast_1d(np.asarray(positions, dtype=float))
    grid = probe.grid
    weighted = grid.weights * probe.values
    if q.size > 1 and q.size * grid.n_points > DENSE_SUM_MAX_TERMS:
        step = (q[-1] - q[0]) / (q.size - 1)
        drift = np.max(np.abs(q - (q[0] + step * np.arange(q.size))))
        # np.linspace and 2g*arange stay within 2.5 eps of the larger end.
        if drift <= 8.0 * np.finfo(float).eps * max(abs(q[0]), abs(q[-1])):
            return _chirp_z_sum(q[0], step, q.size, grid, weighted) / math.sqrt(2.0 * math.pi)
    p = grid.points
    out = np.empty(q.size, dtype=np.complex128)
    chunk = max(1, int(4e6) // max(p.size, 1))
    for start in range(0, q.size, chunk):
        block = q[start : start + chunk]
        out[start : start + chunk] = np.exp(1j * np.outer(block, p)) @ weighted
    return out / math.sqrt(2.0 * math.pi)
