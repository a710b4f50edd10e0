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

from .evolution import PostSelectedEvolution, apply_postselection
from .probe import Nodes, ProbeWavefunction, check_norm


def _integrands(
    grid: Nodes, values: np.ndarray, derivative: np.ndarray, density: np.ndarray
) -> dict[str, np.ndarray]:
    """One state's density and the integrands of its position and momentum
    moments, formed once for its means and for their halving check."""
    position = np.conj(values)
    position *= derivative  # in place: one grid-sized temporary, not two
    return {"weight": density, "position moment": position, "momentum moment": grid.points * density}


def _means(grid: Nodes, integrands: dict[str, np.ndarray], norm_sq: float) -> tuple[float, float, float]:
    """Mean position and momentum of one state, and the imaginary residual of
    the position's quadrature."""
    moment = 1j * complex(grid.integrate(integrands["position moment"])) / norm_sq
    return moment.real, float(grid.integrate(integrands["momentum moment"])) / norm_sq, moment.imag


def _state_means(grid: Nodes, values: np.ndarray, derivative: np.ndarray) -> tuple[float, float, float]:
    density = np.abs(values) ** 2
    norm_sq = check_norm(float(grid.integrate(density)))
    return _means(grid, _integrands(grid, values, derivative, density), norm_sq)


def expect_q_with_residual(
    values: np.ndarray, derivative: np.ndarray, grid: Nodes
) -> tuple[float, float]:
    """Mean position and the imaginary residual of its quadrature.

    The residual vanishes (up to rounding) whenever |psi|^2 takes equal
    values at the two grid ends; it is surfaced as a diagnostic rather than
    subtracted.
    """
    mean_q, _, residual = _state_means(grid, values, derivative)
    return mean_q, residual


def expect_q(values: np.ndarray, derivative: np.ndarray, grid: Nodes) -> float:
    """Mean position of a momentum-space wavefunction (normalization-free).

    Raises
    ------
    ZeroNorm
        If the quadrature norm of ``values`` is numerically zero.
    """
    return expect_q_with_residual(values, derivative, grid)[0]


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


def shift_report(evo: PostSelectedEvolution, probe: ProbeWavefunction) -> ShiftReport:
    """Initial expectations, post-selected evolution, final expectations.

    Final-state expectations are taken on the unnormalized evolved values;
    the expectation quotients make that legitimate, and the weight, their
    squared norm, stays available: |overlap|^2 * |Re A| for the optimal
    probe, a success probability only for a physical selection.  The
    overlap cancels from every quotient, so the weight is refused as zero
    only when it is below ``ZERO_NORM_FLOOR`` of |overlap|^2.  Each state's
    density, norm and moment integrands are computed once: the evolved
    state's weight and density are those that :func:`apply_postselection`
    returns.

    Each state is integrated on its own node set: the initial state on the
    probe's grid, the evolved state on the one :func:`apply_postselection`
    puts it on.  When that is the probe's ``evolution_view`` (the optimal
    probe on theta nodes), the evolved state's halving estimates are checked.

    Raises
    ------
    ZeroNorm
        If post-selection annihilated the state: its weight is below
        ``ZERO_NORM_FLOOR`` of |overlap|^2.
    UnderResolvedGrid
        If the evolution view does not resolve the evolved state.
    """
    grid = probe.grid
    # The initial density is not kept alive through the evolution.
    q_initial, p_initial, _ = _state_means(grid, probe.values, probe.derivative_or_numeric())
    evolved = apply_postselection(evo, probe)
    final = evolved.grid
    integrands = _integrands(final, evolved.values, evolved.derivative, evolved.density)
    if final is not grid:  # each integrand against its absolute integral
        final.check_resolved(
            "the post-selected state, exact on the support nodes only under the evolution that "
            "the probe cancels",
            {name: (x, float(final.integrate(np.abs(x)))) for name, x in integrands.items()},
        )
    weight = check_norm(evolved.weight, abs(evo.weak.overlap) ** 2)
    q_final, p_final, _ = _means(final, integrands, weight)
    return ShiftReport(
        q_initial=q_initial,
        q_final=q_final,
        p_initial=p_initial,
        p_final=p_final,
        delta_q=q_final - q_initial,
        delta_p=p_final - p_initial,
        weight=weight,
    )
