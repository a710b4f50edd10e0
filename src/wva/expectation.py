"""Quadrature of position/momentum expectation values and their shifts.

Position acts in momentum space as i d/dp, so its expectation is the real
part of i * integral(conj(psi) psi') / integral(|psi|^2); the quotient form
makes every result independent of normalization.  Every integral is the
quadrature rule of the state's node set: composite Simpson on a
:class:`~wva.probe.MomentumGrid`, Clenshaw-Curtis on
:class:`~wva.probe.QuadratureNodes`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnderResolvedGrid, ZeroNorm
from .evolution import EvolvedProbe, PostSelectedEvolution, apply_postselection
from .probe import HALVING_TOL, ZERO_NORM_FLOOR, Nodes, ProbeWavefunction


def _checked_norm(norm_sq: float) -> float:
    if norm_sq < ZERO_NORM_FLOOR:
        raise ZeroNorm(f"norm^2 = {norm_sq:.3e} is numerically zero")
    return norm_sq


def _density_and_norm(values: np.ndarray, grid: Nodes) -> tuple[np.ndarray, float]:
    """|values|^2 and its quadrature, computed once for every expectation of
    one state."""
    density = np.abs(values) ** 2
    return density, _checked_norm(float(grid.integrate(density)))


def _position_moment(
    values: np.ndarray, derivative: np.ndarray, grid: Nodes, norm_sq: float
) -> complex:
    integrand = np.conj(values)
    integrand *= derivative  # in place: one grid-sized temporary, not two
    return 1j * complex(grid.integrate(integrand)) / norm_sq


def _mean_momentum(density: np.ndarray, grid: Nodes, norm_sq: float) -> float:
    return float(grid.integrate(grid.points * density)) / norm_sq


def _means(
    grid: Nodes, values: np.ndarray, derivative: np.ndarray, density: np.ndarray, norm_sq: float
) -> tuple[float, float]:
    """Mean position and momentum of one state whose density and norm are known."""
    return _position_moment(values, derivative, grid, norm_sq).real, _mean_momentum(density, grid, norm_sq)


def expect_q_with_residual(
    values: np.ndarray, derivative: np.ndarray, grid: Nodes
) -> tuple[float, float]:
    """Mean position and the imaginary residual of its quadrature.

    The residual vanishes (up to rounding) whenever |psi|^2 takes equal
    values at the two grid ends; it is surfaced as a diagnostic rather than
    subtracted.
    """
    _, norm_sq = _density_and_norm(values, grid)
    moment = _position_moment(values, derivative, grid, norm_sq)
    return moment.real, moment.imag


def expect_q(values: np.ndarray, derivative: np.ndarray, grid: Nodes) -> float:
    """Mean position of a momentum-space wavefunction (normalization-free).

    Raises
    ------
    ZeroNorm
        If the quadrature norm of ``values`` is numerically zero.
    """
    return expect_q_with_residual(values, derivative, grid)[0]


def expect_p(values: np.ndarray, grid: Nodes) -> float:
    """Mean momentum, integral(p |psi|^2) / integral(|psi|^2)."""
    density, norm_sq = _density_and_norm(values, grid)
    return _mean_momentum(density, grid, norm_sq)


@dataclass(frozen=True)
class ShiftReport:
    """Initial/final expectations, their differences, and the weight (squared
    norm) of the post-selected state for one probe-evolution pair.

    The weight is the success probability only for a physical selection; with
    :meth:`wva.system.WeakValue.from_value` the overlap is one and, for the
    optimal probe, the weight is |Re A| (see :mod:`wva.evolution`)."""

    q_initial: float
    q_final: float
    p_initial: float
    p_final: float
    delta_q: float
    delta_p: float
    weight: float

    def __post_init__(self) -> None:
        entries = (
            self.q_initial,
            self.q_final,
            self.p_initial,
            self.p_final,
            self.delta_q,
            self.delta_p,
            self.weight,
        )
        if not all(math.isfinite(x) for x in entries):
            raise ValueError("shift report entries must be finite")
        if self.delta_q != self.q_final - self.q_initial:
            raise ValueError("delta_q must equal q_final - q_initial exactly")
        if self.delta_p != self.p_final - self.p_initial:
            raise ValueError("delta_p must equal p_final - p_initial exactly")


def _require_resolved(evolved: EvolvedProbe) -> None:
    """Refuse an evolved state whose weight or moments the halving estimate of
    its node set does not resolve to ``HALVING_TOL`` of their absolute integrals."""
    nodes = evolved.grid
    integrands = {
        "weight": evolved.density,
        "position moment": np.conj(evolved.values) * evolved.derivative,
        "momentum moment": nodes.points * evolved.density,
    }
    for name, samples in integrands.items():
        error = nodes.halving_error(samples)
        if error > HALVING_TOL * float(nodes.integrate(np.abs(samples))):
            raise UnderResolvedGrid(
                f"the post-selected state's {name} has halving estimate {error:.1e} on "
                f"{nodes.n_points} support nodes; they are exact only under the evolution "
                "that the probe cancels"
            )


def shift_report(evo: PostSelectedEvolution, probe: ProbeWavefunction) -> ShiftReport:
    """Initial expectations, post-selected evolution, final expectations.

    Final-state expectations are taken on the unnormalized evolved values;
    the expectation quotients make that legitimate, and the weight, their
    squared norm, stays available: |overlap|^2 * |Re A| for the optimal
    probe, a success probability only for a physical selection.  Each state's
    density and norm are computed once: the evolved state's are the weight
    and the density that :func:`apply_postselection` returns.

    Each state is integrated on its own node set: the initial state on the
    probe's grid, the evolved state on the one :func:`apply_postselection`
    puts it on.  When that is the probe's ``evolution_view`` (the optimal
    probe on theta nodes), the evolved state's halving estimates are checked.

    Raises
    ------
    ZeroNorm
        If post-selection annihilated the state.
    UnderResolvedGrid
        If the evolution view does not resolve the evolved state.
    """
    grid = probe.grid
    # The initial density is not kept alive through the evolution.
    q_initial, p_initial = _means(
        grid, probe.values, probe.derivative_or_numeric(), *_density_and_norm(probe.values, grid)
    )
    evolved = apply_postselection(evo, probe)
    if evolved.grid is not grid:
        _require_resolved(evolved)
    q_final, p_final = _means(
        evolved.grid, evolved.values, evolved.derivative, evolved.density, _checked_norm(evolved.weight)
    )
    return ShiftReport(
        q_initial=q_initial,
        q_final=q_final,
        p_initial=p_initial,
        p_final=p_final,
        delta_q=q_final - q_initial,
        delta_p=p_final - p_initial,
        weight=evolved.weight,
    )
